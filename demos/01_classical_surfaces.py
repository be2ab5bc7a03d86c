"""Classical surfaces as cell models: K-theory and periodic cyclic homology.

A finite CW complex with counts and boundary matrices becomes a tower with
one scalar block per cell; the engine then assembles the 2-periodic
invariants from the cellular cochain complex.
"""

from nccw import cochain_complex, compute_theories, euler_characteristic, from_classical_cw
from nccw.exacthom import intmat, zeros
from nccw.ssengine import ASSEMBLY_EXACT


def show(name, model):
    print(f"--- {name} (cells {list(model.cochain.ranks)}, chi = {euler_characteristic(model)})")
    for theory, symbol in (("K", "Z"), ("HP", "Q")):
        even, odd = compute_theories(cochain_complex(model, theory), theory)
        flag = "  [up to extension]" if even.note != ASSEMBLY_EXACT else ""
        print(f"  {theory:2} even: {even.group.render(symbol)}{flag}")
        if len(even.pieces) > 1:
            print(f"       pieces along the filtration: "
                  f"{', '.join(g.render(symbol) for g in even.pieces)}")
        flag = "  [up to extension]" if odd.note != ASSEMBLY_EXACT else ""
        print(f"  {theory:2} odd:  {odd.group.render(symbol)}{flag}")
    print()


# A point: one 0-cell, nothing else.
show("point", from_classical_cw([1], []))

# The circle: one 0-cell, one 1-cell glued with both ends at the same
# point, so the boundary matrix vanishes.
show("circle", from_classical_cw([1, 1], [intmat([[0]])]))

# The 2-sphere: a 0-cell and a 2-cell, no 1-cells at all.  Both boundary
# matrices are forced to be empty.
show("sphere", from_classical_cw([1, 0, 1], [zeros(1, 0), zeros(0, 1)]))

# The torus: the standard square picture, one 0-cell, two 1-cells, one
# 2-cell attached along the commutator, so every boundary is zero.
show("torus", from_classical_cw([1, 2, 1], [intmat([[0, 0]]), intmat([[0], [0]])]))

# The projective plane: the 2-cell wraps twice around the 1-cell.  The
# even K-group is an extension of Z/2 by Z, and the engine refuses to
# guess which one: it reports the graded pieces and flags the answer.
show("projective plane", from_classical_cw([1, 1, 1], [intmat([[0]]), intmat([[2]])]))
