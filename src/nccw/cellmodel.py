"""Towers of noncommutative CW stages and their cellular cochain data.

A complex is a list of stages with dimensions 0, 1, ..., k.  Stage 0 is a
finite-dimensional algebra; every later stage glues a cell algebra along
attaching data.  Only two kinds of attaching data admit a finite
description here:

* ``EndpointPair`` (stage 1 only): the two endpoint evaluations of the
  gluing morphism into ``F ⊕ F``, recorded as multiplicity morphisms.
  The induced coboundary is the difference of their even-theory maps,
  which is the connecting map of the six-term sequence of the stage-1
  extension.
* ``ProvidedCoboundary`` (any stage >= 1): the coboundary matrix given
  directly.  No finite procedure recovers it from gluing data above
  dimension 1, so the caller must supply it.

The tower is quotient-oriented: each stage projects onto the previous
one, so the derived cochain complex raises degree.
"""

from __future__ import annotations

from .errors import (
    ComplexViolation,
    EndpointPairAtHigherStage,
    OutOfRange,
    ShapeMismatch,
)
from .exacthom import RING_Z, CochainComplex, IntMatrix, euler, intmat
from .findim import FinDimAlgebra, MultMorphism, ring_of
from .frozen import Frozen


class EndpointPair(Frozen):
    """Attaching data for a 1-stage: the two endpoint evaluations."""

    phi0: MultMorphism
    phi1: MultMorphism

    def __init__(self, phi0: MultMorphism, phi1: MultMorphism):
        if phi0.src != phi1.src or phi0.dst != phi1.dst:
            raise ShapeMismatch("endpoint morphisms must share domain and codomain")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phi1", phi1)


class ProvidedCoboundary(Frozen):
    """Attaching data reduced to an explicit coboundary matrix."""

    delta: IntMatrix

    def __init__(self, delta, shape: tuple[int, int] | None = None):
        object.__setattr__(self, "delta", intmat(delta, shape=shape))


AttachingData = EndpointPair | ProvidedCoboundary


class NCCWStage(Frozen):
    dim: int
    cell_algebra: FinDimAlgebra
    attaching: AttachingData | None

    def __init__(
        self, dim: int, cell_algebra: FinDimAlgebra, attaching: AttachingData | None = None
    ):
        if dim < 0:
            raise OutOfRange("stage dimension must be nonnegative")
        if dim == 0 and attaching is not None:
            raise ShapeMismatch("stage 0 carries no attaching data")
        if dim > 0 and attaching is None:
            raise ShapeMismatch(f"stage {dim} needs attaching data")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cell_algebra", cell_algebra)
        object.__setattr__(self, "attaching", attaching)


class NCCWComplex(Frozen):
    """A validated tower and its checked integer cochain complex.

    Instances are built through :func:`build`, compare by identity and
    have frozen fields; ``cochain.differentials`` are the coboundaries,
    ``cochain.ranks`` the cell counts and ``cochain.top_degree`` the
    top dimension.
    """

    stages: tuple[NCCWStage, ...]
    cochain: CochainComplex

    def __init__(self, stages: tuple[NCCWStage, ...], cochain: CochainComplex):
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "cochain", cochain)

    @property
    def cell_counts(self) -> tuple[int, ...]:
        # kept for bench/layers.py::_built_cells, which counts cells by it
        return self.cochain.ranks

    def __repr__(self) -> str:
        return f"NCCWComplex(cell_counts={list(self.cochain.ranks)})"


def boundary_from_endpoints(pair: EndpointPair) -> IntMatrix:
    """Coboundary induced by a stage-1 endpoint pair.

    The stage-1 extension has the suspension of the cell algebra as its
    ideal, and its connecting homomorphism on even theory is the
    difference of the two endpoint maps; that difference is the cellular
    coboundary.  K0 of a multiplicity morphism is its multiplicity matrix.
    Shape: (cells of F, blocks of the stage-0 algebra).  The pair's
    constructor has already checked that both maps share domain and codomain.
    """
    return pair.phi0.mult - pair.phi1.mult


def build(stages) -> NCCWComplex:
    """Assemble and validate a tower; derives all coboundaries.

    Raises ``ComplexViolation(p)`` if two consecutive coboundaries fail to
    compose to zero, ``EndpointPairAtHigherStage`` if endpoint data shows
    up above dimension 1, and ``ShapeMismatch`` for inconsistent shapes.
    This is the one place where d after d = 0 is checked for a tower.
    """
    stages = tuple(stages)
    if not stages:
        raise ShapeMismatch("a complex needs at least the stage-0 algebra")
    for i, st in enumerate(stages):
        if st.dim != i:
            raise ShapeMismatch(
                f"stage dimensions must be 0,1,...,k in order; found {st.dim} at index {i}"
            )
    counts = [s.cell_algebra.block_count for s in stages]
    cobs: list[IntMatrix] = []
    for k in range(1, len(stages)):
        att = stages[k].attaching
        if isinstance(att, EndpointPair):
            if k != 1:
                raise EndpointPairAtHigherStage(
                    f"endpoint attaching data at stage {k}; only stage 1 admits it"
                )
            if att.phi0.src != stages[0].cell_algebra:
                raise ShapeMismatch("endpoint morphisms must start at the stage-0 algebra")
            if att.phi0.dst != stages[1].cell_algebra:
                raise ShapeMismatch("endpoint morphisms must land in the stage-1 cell algebra")
            delta = boundary_from_endpoints(att)
        else:
            delta = att.delta
        if delta.shape != (counts[k], counts[k - 1]):
            raise ShapeMismatch(
                f"coboundary {k - 1} has shape {delta.shape}, expected"
                f" {(counts[k], counts[k - 1])}"
            )
        cobs.append(delta)
    try:
        cochain = CochainComplex(RING_Z, counts, cobs)
    except ComplexViolation as exc:
        p = exc.degree
        raise ComplexViolation(
            p,
            f"attaching data of stages {p + 1} and {p + 2} are incompatible:"
            f" delta_{p + 1} delta_{p} != 0",
        ) from None
    return NCCWComplex(stages, cochain)


def from_classical_cw(cell_counts, chain_boundaries) -> NCCWComplex:
    """Model a classical finite CW complex, one scalar block per cell.

    ``chain_boundaries[p]`` is the boundary matrix from (p+1)-cells to
    p-cells, shape (counts[p], counts[p+1]).  The tower stores the
    transposed matrices, i.e. the cellular cochain complex; ``build``
    checks that they compose to zero.  A ``ComplexViolation`` at degree
    ``p`` means the boundaries out of dimensions ``p + 1`` and ``p + 2``
    do not compose to zero.
    """
    counts = [int(c) for c in cell_counts]
    if not counts or any(c < 0 for c in counts):
        raise ShapeMismatch("cell counts must be a nonempty list of nonnegative integers")
    boundaries = [
        intmat(b, shape=(counts[p], counts[p + 1])) for p, b in enumerate(chain_boundaries)
    ]
    if len(boundaries) != len(counts) - 1:
        raise ShapeMismatch("need one boundary matrix per adjacent dimension pair")
    stages = [NCCWStage(0, FinDimAlgebra([1] * counts[0]))]
    for k in range(1, len(counts)):
        stages.append(
            NCCWStage(k, FinDimAlgebra([1] * counts[k]), ProvidedCoboundary(boundaries[k - 1].T))
        )
    return build(stages)


def cochain_complex(x: NCCWComplex, theory: str) -> CochainComplex:
    """The cellular cochain complex the engine consumes.

    Integer coefficients for K, rational for HP; the matrices are the
    same integer coboundaries either way, checked once by ``build``.
    """
    return x.cochain.with_ring(ring_of(theory))


def skeleton(x: NCCWComplex, p: int) -> NCCWComplex:
    """Truncate the tower to stages of dimension at most ``p``."""
    if not 0 <= p <= x.cochain.top_degree:
        raise OutOfRange(f"skeleton degree {p} outside 0..{x.cochain.top_degree}")
    return build(x.stages[: p + 1])


def euler_characteristic(x: NCCWComplex) -> int:
    return euler(x.cochain.ranks)
