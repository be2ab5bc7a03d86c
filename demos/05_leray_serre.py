"""The coefficient spectral sequence of a fibration replacement.

Any cellular morphism is replaced by its cylinder picture; the relative
groups of its mapping cone become the local coefficients (assumed simple),
and the second page is coefficient cohomology of the base, 2-periodic in
the fiber direction.
"""

from nccw import cochain_complex, from_classical_cw
from nccw.constructions import CellularMorphism
from nccw.exacthom import CochainComplex, FGAbelianGroup, intmat
from nccw.fibration import compute_total, leray_serre_e2, relative_coefficients
from nccw.ssengine import compute_theories

Z = FGAbelianGroup.free(1)

circle = cochain_complex(from_classical_cw([1, 1], [intmat([[0]])]), "K")
torus = cochain_complex(from_classical_cw([1, 2, 1], [intmat([[0, 0]]), intmat([[0], [0]])]), "K")

print("== the torus as a trivial circle bundle over the circle")
page = leray_serre_e2(base=circle, g_even=Z, g_odd=Z, theory="K")
for (p, parity) in page.support():
    row = "even" if parity == 0 else "odd"
    print(f"  E^2 (p={p}, q={row}): {page.entry(p, parity)}")
even, odd = compute_total(page)
print(f"  totals: even {even.group}, odd {odd.group}")
direct = compute_theories(torus, "K")
print(f"  direct torus computation: even {direct[0].group}, odd {direct[1].group}")

print("\n== coefficients extracted from a morphism")
point = CochainComplex("Z", [1], [])
include = CellularMorphism(point, circle, [intmat([[1]])])
g_even, g_odd = relative_coefficients(include, "K")
print(f"  relative groups of (point -> circle): even {g_even}, odd {g_odd}")
even, odd = compute_total(leray_serre_e2(point, g_even, g_odd, "K"))
print(f"  totals over a point base: even {even.group}, odd {odd.group}")

print("\n== a base with torsion in its own cohomology")
i2 = CochainComplex("Z", [2, 1], [intmat([[2, -2]])])
even, odd = compute_total(leray_serre_e2(i2, Z, FGAbelianGroup.trivial(), "K"))
print(f"  dimension-drop base with coefficients (Z, 0): even {even.group}, odd {odd.group}")

print("\n== the rational picture never sees torsion")
i2_q = CochainComplex("Q", [2, 1], [intmat([[2, -2]])])
even, odd = compute_total(leray_serre_e2(i2_q, Z, FGAbelianGroup.trivial(), "HP"))
print(f"  same base, HP: even {even.group.render('Q')}, odd {odd.group.render('Q')}")
