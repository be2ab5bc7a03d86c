"""Dimension-drop algebras: genuinely noncommutative one-dimensional towers.

The interval algebra of matrix-valued functions that are scalar at both
endpoints is the standard noncommutative 1-complex.  Its tower has a
two-block stage-0 algebra (the two endpoint scalars) and a single p-by-p
cell glued by the two endpoint evaluations, each with multiplicity p into
one endpoint and zero into the other.  The induced coboundary is the
difference of the endpoint maps, and its cokernel produces p-torsion in
odd K-theory, invisible to HP.
"""

from nccw import (
    EndpointPair,
    FinDimAlgebra,
    MultMorphism,
    NCCWStage,
    boundary_from_endpoints,
    build,
    cochain_complex,
    compute_theories,
)


def dimension_drop(p):
    endpoints = FinDimAlgebra([1, 1])
    cell = FinDimAlgebra([p])
    at_zero = MultMorphism(endpoints, cell, [[p, 0]])
    at_one = MultMorphism(endpoints, cell, [[0, p]])
    return build(
        [NCCWStage(0, endpoints), NCCWStage(1, cell, EndpointPair(at_zero, at_one))]
    )


for p in (2, 3, 5, 12):
    model = dimension_drop(p)
    delta = boundary_from_endpoints(model.stages[1].attaching)
    print(f"I_{p}: coboundary {delta.tolist()}")
    even, odd = compute_theories(cochain_complex(model, "K"), "K")
    print(f"  K  even: {even.group}   odd: {odd.group}")
    even, odd = compute_theories(cochain_complex(model, "HP"), "HP")
    print(f"  HP even: {even.group.render('Q')}   odd: {odd.group.render('Q')}")
    print()

# The same recipe with equal endpoint maps gives the circle: the two
# evaluations cancel and the coboundary vanishes.
scalars = FinDimAlgebra([1])
loop = MultMorphism(scalars, scalars, [[1]])
circle = build(
    [NCCWStage(0, scalars), NCCWStage(1, scalars, EndpointPair(loop, loop))]
)
even, odd = compute_theories(cochain_complex(circle, "K"), "K")
print(f"circle via equal endpoints: K even {even.group}, odd {odd.group}")
