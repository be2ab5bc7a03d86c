"""Watching the engine turn pages, and overriding a higher differential.

Pages are bigraded and 2-periodic in the fiber direction; the internal
differential raises the filtration degree by r.  Turning a page replaces
every entry by kernel-mod-image in canonical form.  Higher differentials
default to zero (for towers of dimension at most 2 that is provably
exact), but they can be supplied explicitly on any computed page.
"""

from nccw import from_classical_cw, cochain_complex
from nccw.exacthom import CochainComplex, intmat, zeros
from nccw.ssengine import (
    ASSEMBLY_EXACT,
    assemble,
    e_infinity,
    from_cellular,
    set_higher_differential,
    turn_page,
)


def dump(page, k, symbol="Z"):
    print(f"  E^{page.r}:")
    for (p, parity) in page.support():
        row = "even" if parity == 0 else "odd"
        group = page.entry(p, parity)
        print(f"    (p={p}, q={row}): {group.render(symbol)}    "
              f"[homological label p' = {k - p}]")
    for (p, parity), mat in sorted(page.differentials.items()):
        row = "even" if parity == 0 else "odd"
        print(f"    d^{page.r} out of (p={p}, q={row}): {mat.tolist()}")


print("== projective plane, K theory")
rp2 = cochain_complex(from_classical_cw([1, 1, 1], [intmat([[0]]), intmat([[2]])]), "K")
ss = from_cellular(rp2, "K")
dump(ss.pages[-1], ss.k)
ss = turn_page(ss)
dump(ss.pages[-1], ss.k)
print(f"  stable from page {ss.stabilized_at}")
even, odd = assemble(ss)
flag = " up to extension" if even.note != ASSEMBLY_EXACT else ""
print(f"  even: {even.group}{flag}, odd: {odd.group}\n")

# A tower with cells three dimensions apart leaves room for a d^3.  With
# the default zero differential both cells survive to infinity; wiring in
# multiplication by 5 kills the bottom class and leaves 5-torsion on top.
print("== a genuine d^3 override")
sparse = CochainComplex("Z", [1, 0, 0, 1], [zeros(0, 1), zeros(0, 0), zeros(1, 0)])
ss = from_cellular(sparse, "K")
even, odd = assemble(ss)
print("  default: even", even.group, "/ odd", odd.group)
ss = turn_page(turn_page(ss))
ss = set_higher_differential(ss, 3, 0, 0, intmat([[5]]))
dump(ss.pages[-1], ss.k)
stable = e_infinity(ss)
dump(stable, ss.k)
even, odd = assemble(ss)
print("  with d^3 = [[5]]: even", even.group, "/ odd", odd.group)
