"""Fibration replacement and the coefficient spectral sequence.

A cellular morphism stands for its fibration replacement, whose cylinder
retracts onto the codomain; the relative theories of the morphism, read
off the mapping cone by excision, become the coefficient groups.  With a
simple system of local coefficients the second page is ordinary
coefficient cohomology of the base, 2-periodic in the fiber direction,
and the engine takes it from there.

The coefficients are taken to be simple.  This is an assumption, not a
checked property: deciding it would quantify over homotopy equivalences,
which the finite data here cannot express.
"""

from __future__ import annotations

from .errors import UnresolvedExtension
from .exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    cohomology_with_coefficients,
)
from .findim import THEORY_HP, ring_of
from .constructions import CellularMorphism, relative_assemblies
from .ssengine import (
    ASSEMBLY_UP_TO_EXTENSION,
    PARITY_EVEN,
    PARITY_ODD,
    Assembly,
    Page,
    assemble,
    from_e2_page,
)


def relative_coefficients(
    f: CellularMorphism, theory: str
) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """(even, odd) relative groups of ``f``, taken from its mapping cone.

    These must be actual groups to serve as coefficients, so an assembly
    that is only known up to extension raises ``UnresolvedExtension``
    instead of silently reporting the direct sum of its pieces.
    """
    even, odd = relative_assemblies(f, theory)
    for parity, a in (("even", even), ("odd", odd)):
        if a.note == ASSEMBLY_UP_TO_EXTENSION:
            raise UnresolvedExtension(f"relative {parity} group is only known up to extension")
    return even.group, odd.group


def leray_serre_e2(
    base: CochainComplex, g_even: FGAbelianGroup, g_odd: FGAbelianGroup, theory: str
) -> Page:
    """Second page: coefficient cohomology of the base, one row per fiber
    parity, 2-periodic in the fiber direction.  The base must be over Z
    for K and over Q for HP, whose coefficients must be torsion-free;
    both are checked, with ``ValueError``, before anything is computed.
    The base's plain cohomology is computed once and serves both
    parities."""
    expected_ring = ring_of(theory)
    if base.ring != expected_ring:
        raise ValueError(f"theory {theory} needs a base over {expected_ring}")
    if theory == THEORY_HP and (g_even.torsion or g_odd.torsion):
        raise ValueError("HP coefficients must be torsion-free")
    entries = {}
    coefficients = ((PARITY_EVEN, g_even), (PARITY_ODD, g_odd))
    rows = [(parity, group) for parity, group in coefficients if not group.is_trivial]
    plain = all_cohomology(base) if rows else []
    for parity, group in rows:
        for p, g in enumerate(cohomology_with_coefficients(plain, group)):
            entries[(p, parity)] = g
    return Page(2, base.top_degree, theory, entries, {})


def compute_total(page2: Page) -> tuple[Assembly, Assembly]:
    """The (even, odd) totals of a second page, such as
    ``leray_serre_e2(base, g_even, g_odd, theory)``, from one assembly of
    its sequence (higher differentials default to zero)."""
    return assemble(from_e2_page(page2))
