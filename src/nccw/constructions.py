"""Suspension and mapping cone at the cell level.

The operations act on cellular cochain models and report what the theory
functors see.  The cylinder of ``f`` needs no construction of its own:
it deformation retracts onto the codomain, so its model is ``f.dst``.
The cone of ``X`` needs none either: it is the mapping cone of the
identity of ``X``, whose complex is acyclic.

The mapping cone is an honest complex computing the relative theories.
Its natural degree range starts one below zero (the shifted copy of the
domain), which the fixed degree-0-based complex type cannot hold, so the
stored complex is shifted up by two degrees.  A shift by two is invisible
to every 2-periodic observable (assemblies, relative groups, Euler
characteristics), which is all this complex is consumed for.
"""

from __future__ import annotations

from .errors import InvalidMorphism, ShapeMismatch
from .exacthom import (
    CochainComplex,
    IntMatrix,
    identity,
    intmat,
    stack,
    zeros,
)
from .frozen import Frozen
from .ssengine import Assembly, compute_theories


class CellularMorphism(Frozen):
    """Degree-wise matrices between two cochain models.

    ``maps[p]`` has shape (rank of dst at p, rank of src at p); missing
    degrees are zero.  Construction checks every commuting square
    ``maps[p+1] @ d_src[p] == d_dst[p] @ maps[p]`` exactly.
    """

    src: CochainComplex
    dst: CochainComplex
    maps: tuple[IntMatrix, ...]

    def __init__(self, src: CochainComplex, dst: CochainComplex, maps):
        if src.ring != dst.ring:
            raise InvalidMorphism("cellular morphisms need a common coefficient ring")
        top = max(src.top_degree, dst.top_degree)
        given = [intmat(m) for m in maps]
        if len(given) > top + 1:
            raise ShapeMismatch("more degree maps than degrees")
        full = []
        for p in range(top + 1):
            expect = (dst.rank(p), src.rank(p))
            if p < len(given):
                if given[p].shape != expect:
                    raise ShapeMismatch(
                        f"degree-{p} map has shape {given[p].shape}, expected {expect}"
                    )
                full.append(given[p])
            else:
                full.append(zeros(*expect))
        for p in range(top):
            if full[p + 1] @ src.differential(p) != dst.differential(p) @ full[p]:
                raise InvalidMorphism(f"commuting square fails between degrees {p} and {p + 1}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "maps", tuple(full))

    def map_at(self, p: int) -> IntMatrix:
        if 0 <= p < len(self.maps):
            return self.maps[p]
        return zeros(self.dst.rank(p), self.src.rank(p))

    @classmethod
    def identity_on(cls, c: CochainComplex) -> "CellularMorphism":
        return cls(c, c, [identity(c.rank(p)) for p in range(c.top_degree + 1)])

    @classmethod
    def zero_map(cls, src: CochainComplex, dst: CochainComplex) -> "CellularMorphism":
        return cls(src, dst, [])


def suspend(c: CochainComplex) -> CochainComplex:
    """Shift every rank up one degree; differentials ride along unchanged.

    Assembled theories swap parity, which is the suspension identity for
    both functors.
    """
    ranks = (0,) + c.ranks
    diffs = (zeros(c.rank(0), 0),) + c.differentials
    return CochainComplex(c.ring, ranks, diffs)


def mapping_cone_complex(f: CellularMorphism) -> CochainComplex:
    """Cone complex of ``f``; its assembly gives the relative theories.

    Degree ``p`` of the cone holds the codomain cells of degree ``p``
    together with the domain cells of degree ``p + 1``, with differential
    ``(b, a) |-> (d_dst b + f(a), -d_src a)``.  See the module docstring
    for the +2 degree shift applied to the stored complex.
    """
    src, dst = f.src, f.dst
    lo = -1
    hi = max(dst.top_degree, src.top_degree - 1)

    def cone_rank(p: int) -> int:
        return dst.rank(p) + src.rank(p + 1)

    def cone_diff(p: int) -> IntMatrix:
        return stack([
            [dst.differential(p), f.map_at(p + 1)],
            [zeros(src.rank(p + 2), dst.rank(p)), -src.differential(p + 1)],
        ])

    ranks = [0] + [cone_rank(p) for p in range(lo, hi + 1)]
    diffs = [zeros(cone_rank(lo), 0)] + [cone_diff(p) for p in range(lo, hi)]
    return CochainComplex(f.src.ring, ranks, diffs)


def relative_assemblies(f: CellularMorphism, theory: str) -> tuple[Assembly, Assembly]:
    """Assembled (even, odd) theories of the mapping cone of ``f``."""
    return compute_theories(mapping_cone_complex(f), theory)
