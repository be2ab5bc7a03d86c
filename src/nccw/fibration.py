"""Fibration replacement and the coefficient spectral sequence.

Any cellular morphism is replaced by its mapping-cylinder picture (total
model plus embedded domain); the relative theories of the morphism, read
off the mapping cone by excision, become the coefficient groups.  With a
simple system of local coefficients the second page is ordinary
coefficient cohomology of the base, 2-periodic in the fiber direction,
and the engine takes it from there.

Simplicity is an input assumption, not a checked property: deciding it
would quantify over homotopy equivalences, which the finite data here
cannot express.  Non-simple systems are refused outright.
"""

from __future__ import annotations

from .errors import NotSimple, UnresolvedExtension
from .exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    cohomology_with_coefficients,
)
from .findim import THEORY_HP, ring_of
from .constructions import CellularMorphism, relative_assemblies
from .frozen import Value
from .ssengine import (
    ASSEMBLY_UP_TO_EXTENSION,
    PARITY_EVEN,
    PARITY_ODD,
    Assembly,
    Page,
    assemble,
    from_e2_page,
)


class SerreFibrationData(Value):
    """Base model, relative coefficient groups, and the simplicity flag."""

    base: CochainComplex
    g_even: FGAbelianGroup
    g_odd: FGAbelianGroup
    theory: str
    simple: bool

    def __init__(
        self,
        base: CochainComplex,
        g_even: FGAbelianGroup,
        g_odd: FGAbelianGroup,
        theory: str,
        simple: bool = True,
    ):
        expected_ring = ring_of(theory)
        if base.ring != expected_ring:
            raise ValueError(f"theory {theory} needs a base over {expected_ring}")
        if theory == THEORY_HP and (g_even.torsion or g_odd.torsion):
            raise ValueError("HP coefficients must be torsion-free")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "g_even", g_even)
        object.__setattr__(self, "g_odd", g_odd)
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "simple", simple)


def relative_coefficients(
    f: CellularMorphism, theory: str
) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even, odd) relative groups of ``f``, taken from its mapping cone.

    These must be actual groups to serve as coefficients, so an assembly
    that is only known up to extension raises ``UnresolvedExtension``
    instead of silently reporting the direct sum of its pieces.
    """
    even, odd = relative_assemblies(f, theory)
    for a in (even, odd):
        if a.note == ASSEMBLY_UP_TO_EXTENSION:
            raise UnresolvedExtension(
                f"relative {a.parity} group is only known up to extension"
            )
    return even.group, odd.group


def leray_serre_e2(fib: SerreFibrationData) -> Page:
    """Second page: coefficient cohomology of the base, one row per fiber
    parity, 2-periodic in the fiber direction.  The base is over Z for K
    and over Q for HP, whose coefficients are torsion-free.  Its plain
    cohomology is computed once and serves both parities."""
    if not fib.simple:
        raise NotSimple("local coefficient system declared non-simple")
    k = fib.base.top_degree
    entries = {}
    coefficients = ((PARITY_EVEN, fib.g_even), (PARITY_ODD, fib.g_odd))
    rows = [(parity, group) for parity, group in coefficients if not group.is_trivial]
    plain = all_cohomology(fib.base) if rows else []
    for parity, group in rows:
        for p, g in enumerate(cohomology_with_coefficients(fib.base, group, plain)):
            entries[(p, parity)] = g
    return Page(2, k, fib.theory, entries, {})


def compute_total(page2: Page) -> tuple[Assembly, Assembly]:
    """The (even, odd) totals of a second page, such as
    ``leray_serre_e2(fib)``, from one assembly of its sequence (higher
    differentials default to zero)."""
    return assemble(from_e2_page(page2))
