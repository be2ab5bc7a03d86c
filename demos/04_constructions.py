"""Cone, suspension, cylinder and mapping cone in action.

The cone of anything is contractible: it is the mapping cone of the
identity, whose complex is acyclic.  Suspension swaps the two parities.
The cylinder of a morphism deformation retracts onto the codomain, so it
carries the codomain's theories; the morphism records the embedded copy
of the domain.  The mapping cone computes the relative
groups, tied to domain and codomain by the periodic six-term sequence.
"""

from nccw import cochain_complex, from_classical_cw
from nccw.constructions import CellularMorphism, relative_assemblies, suspend
from nccw.exacthom import CochainComplex, intmat
from nccw.ssengine import compute_theories


def theories(c, theory="K"):
    even, odd = compute_theories(c, theory)
    return even.group, odd.group


point = CochainComplex("Z", [1], [])
circle = cochain_complex(from_classical_cw([1, 1], [intmat([[0]])]), "K")

print("== suspension ladder starting from a point")
c = point
for step in range(4):
    even, odd = theories(c)
    print(f"  S^{step} point: even {even}, odd {odd}")
    c = suspend(c)

print("\n== cones are invisible to both theories")
cone_even, cone_odd = relative_assemblies(CellularMorphism.identity_on(circle), "K")
print(f"  cone of the circle: K groups even {cone_even.group}, odd {cone_odd.group}")

print("\n== cylinder of the inclusion of a point into the circle")
include = CellularMorphism(point, circle, [intmat([[1]])])
print(f"  cylinder theories: even {theories(include.dst)[0]}, odd {theories(include.dst)[1]}")
print(f"  embedded domain has {include.src.ranks} cells mapping into {include.dst.ranks}")

print("\n== mapping cone computes the relative groups")
for name, f in [
    ("identity on the circle", CellularMorphism.identity_on(circle)),
    ("point into circle", include),
    ("degree-3 self-map of the circle",
     CellularMorphism(circle, circle, [intmat([[3]]), intmat([[3]])])),
]:
    even, odd = relative_assemblies(f, "K")
    print(f"  {name}: relative even {even.group}, odd {odd.group}")

print("\n== six-term rank bookkeeping for the degree-3 self-map")
f = CellularMorphism(circle, circle, [intmat([[3]]), intmat([[3]])])
cone_even, cone_odd = relative_assemblies(f, "K")
src_even, src_odd = theories(circle)
ranks = [src_even.free_rank, src_even.free_rank, cone_even.group.free_rank,
         src_odd.free_rank, src_odd.free_rank, cone_odd.group.free_rank]
alternating = ranks[0] - ranks[1] + ranks[2] - ranks[3] + ranks[4] - ranks[5]
print(f"  alternating rank sum around the hexagon: {alternating}")
