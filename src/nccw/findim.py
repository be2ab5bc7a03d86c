"""Finite direct sums of matrix algebras and their multiplicity morphisms.

An algebra is recorded purely combinatorially as its list of block sizes;
a *-homomorphism between two such algebras is recorded as the matrix of
multiplicities with which each source block embeds into each target block.
That is all the even/odd theory functors can see.
"""

from __future__ import annotations

from .errors import ShapeMismatch, SizeOverflow
from .exacthom import RING_Q, RING_Z, FGAbelianGroup, IntMatrix, identity, intmat, zeros
from .frozen import Frozen, Value

THEORY_K = "K"
THEORY_HP = "HP"


def ring_of(theory: str) -> str:
    """The coefficient ring of a theory, Z for K and Q for HP; the one
    table from theories to rings and the one refusal of other theories."""
    if theory not in (THEORY_K, THEORY_HP):
        raise ValueError(f"unknown theory {theory!r}")
    return RING_Z if theory == THEORY_K else RING_Q


class FinDimAlgebra(Value):
    """A direct sum of full matrix algebras, one summand per entry of
    ``sizes``.  The empty tuple is the zero algebra."""

    sizes: tuple[int, ...]

    def __init__(self, sizes):
        sizes = tuple(int(n) for n in sizes)
        if any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def block_count(self) -> int:
        return len(self.sizes)

    @property
    def linear_dimension(self) -> int:
        return sum(n * n for n in self.sizes)

    @property
    def is_zero(self) -> bool:
        return not self.sizes


class MultMorphism(Frozen):
    """A morphism recorded by its multiplicity matrix.

    ``mult`` has one row per target block and one column per source block;
    row ``j`` must fit inside target block ``j``:
    ``sum_i mult[j][i] * src.sizes[i] <= dst.sizes[j]``.  Construction
    validates, so an invalid morphism cannot exist.
    """

    src: FinDimAlgebra
    dst: FinDimAlgebra
    mult: IntMatrix

    def __init__(self, src: FinDimAlgebra, dst: FinDimAlgebra, mult):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(
            self, "mult", intmat(mult, shape=(dst.block_count, src.block_count))
        )
        validate_morphism(self)

    @property
    def unital(self) -> bool:
        return all(
            sum(x * self.src.sizes[i] for i, x in row.items()) == n
            for row, n in zip(self.mult.rows, self.dst.sizes)
        )

    @classmethod
    def identity_on(cls, algebra: FinDimAlgebra) -> "MultMorphism":
        return cls(algebra, algebra, identity(algebra.block_count))

    @classmethod
    def zero(cls, src: FinDimAlgebra, dst: FinDimAlgebra) -> "MultMorphism":
        return cls(src, dst, zeros(dst.block_count, src.block_count))


def validate_morphism(f: MultMorphism) -> None:
    """Check the block-size inequality row by row.

    Raises ``SizeOverflow`` naming the first offending target block, or
    ``ShapeMismatch`` for a negative entry (a multiplicity counts
    embeddings); the constructor has already fixed the matrix shape.
    """
    if any(x < 0 for x in f.mult.flat):
        raise ShapeMismatch("multiplicities must be nonnegative")
    for j, row in enumerate(f.mult.rows):
        needed = sum(x * f.src.sizes[i] for i, x in row.items())
        if needed > f.dst.sizes[j]:
            raise SizeOverflow(j, needed, f.dst.sizes[j])


def compose(g: MultMorphism, f: MultMorphism) -> MultMorphism:
    """g after f; the multiplicity matrix of the composite is the product."""
    if f.dst != g.src:
        raise ShapeMismatch("codomain of f must equal domain of g")
    return MultMorphism(f.src, g.dst, g.mult @ f.mult)


def theory_groups(a: FinDimAlgebra, theory: str) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even, odd) theory of a finite-dimensional algebra.

    Both functors assign one free generator per block in even degree and
    nothing in odd degree; for HP the free part is read over the
    rationals downstream.
    """
    ring_of(theory)  # refuses an unknown theory
    return FGAbelianGroup.free(a.block_count), FGAbelianGroup.trivial()


def k0_map(f: MultMorphism) -> IntMatrix:
    """Matrix of the induced map on even theory groups: the multiplicity
    matrix, which is exactly what K0 sees."""
    return f.mult
