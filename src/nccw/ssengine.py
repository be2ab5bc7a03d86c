"""Spectral-sequence engine: pages, differentials, E-infinity, assembly.

Bigraded pages are stored sparsely and 2-periodically: an entry lives at
``(p, q mod 2)``; an absent entry is the zero group, an absent
differential the zero map.  On page ``r`` the differential maps ``(p, q)``
to ``(p + r, q - r + 1)``, as :meth:`Page.step` says.  The homological
indexing used in the literature is recovered by relabeling ``p`` to
``k - p``, which the command line does on request for display only.

Entries are finitely generated abelian groups in canonical form.  Maps
between entries are integer matrices on the canonical generators, which
are ordered free part first, then torsion factors in invariant-factor
order.  A first page comes only from :func:`from_cellular`: it holds a
cellular complex in its even row (cells have no odd theory) and turns
into that complex's ``all_cohomology``.  An assembly reports the direct
sum of its pieces and notes whether the pieces force it.

Every complex of top dimension ``k`` stabilizes at page ``k + 1``: beyond
that every differential leaves the support ``0 <= p <= k``.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import NotACocycleMap, OutOfRange, ShapeMismatch
from .exacthom import (
    CochainComplex,
    FGAbelianGroup,
    IntMatrix,
    all_cohomology,
    intmat,
    presented_subquotient,
    relation_matrix,
    zeros,
)
from .findim import THEORY_HP, ring_of
from .frozen import Frozen, Value

PARITY_EVEN = 0
PARITY_ODD = 1

ASSEMBLY_EXACT = "exact"
ASSEMBLY_UP_TO_EXTENSION = "up_to_extension"

# the one zero group an absent entry stands for; a frozen value, so shared
_TRIVIAL = FGAbelianGroup.trivial()


def generator_orders(group: FGAbelianGroup) -> list[int]:
    """Orders of the canonical generators; 0 marks a free generator."""
    return [0] * group.free_rank + list(group.torsion)


class Page(Frozen):
    """One page of the sequence: entries and differentials out of them.

    Only the page drops trivial entries and zero differentials.  A first
    page is made only by :func:`from_cellular`: it keeps the checked
    complex it came from as ``source`` and is turned through it, so a
    first page without one is refused."""

    r: int
    k: int
    theory: str
    entries: MappingProxyType
    differentials: MappingProxyType
    source: CochainComplex | None

    def __init__(self, r, k, theory, entries, differentials, source=None):
        if int(r) == 1 and source is None:
            raise ValueError("a first page needs the complex it came from")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "theory", theory)
        object.__setattr__(
            self,
            "entries",
            MappingProxyType({key: g for key, g in entries.items() if not g.is_trivial}),
        )
        object.__setattr__(
            self,
            "differentials",
            MappingProxyType({key: m for key, m in differentials.items() if not m.is_zero}),
        )

    def entry(self, p: int, q: int) -> FGAbelianGroup:
        """The entry at ``(p, q)``; only ``q mod 2`` matters."""
        return self.entries.get((p, q % 2), _TRIVIAL)

    def step(self, p: int, parity: int, by: int = 1) -> tuple[int, int]:
        """Where ``by`` applications of d^r take ``(p, parity)``; a negative
        ``by`` goes back.  The one place that says where d^r lands."""
        return p + by * self.r, (parity - by * (self.r - 1)) % 2

    def differential_out(self, p: int, parity: int) -> IntMatrix:
        """d^r out of ``(p, parity)``; where none is recorded, the zero map
        of shape (target generators, source generators)."""
        key = (p, parity % 2)
        if key in self.differentials:
            return self.differentials[key]
        return zeros(self.entry(*self.step(p, parity)).ngens, self.entry(p, parity).ngens)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.entries.keys())


class SpectralSequence(Frozen):
    theory: str
    k: int
    pages: tuple[Page, ...]

    def __init__(self, theory: str, k: int, pages: tuple[Page, ...]):
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "pages", pages)

    @property
    def current_r(self) -> int:
        return self.pages[-1].r

    @property
    def stabilized_at(self) -> int:
        """Page index from which all further pages coincide."""
        return max(self.pages[0].r, self.k + 1)

    def page(self, r: int) -> Page:
        idx = r - self.pages[0].r
        if idx < 0 or idx >= len(self.pages):
            raise OutOfRange(f"page {r} not computed (have {self.pages[0].r}..{self.current_r})")
        return self.pages[idx]


class Assembly(Value):
    """Filtration pieces of one total parity, which :func:`assemble` gives
    by position, and their direct sum ``group``.

    ``note`` is ``exact`` when the pieces force the group (at most one
    nonzero piece, or every piece torsion-free) and ``up_to_extension``
    when the sum is only one of the groups with these pieces."""

    pieces: tuple[FGAbelianGroup, ...]
    group: FGAbelianGroup
    note: str

    def __init__(self, pieces, group, note):
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "note", note)


def from_cellular(complex_: CochainComplex, theory: str) -> SpectralSequence:
    """First page of the filtration sequence of a cellular cochain complex.

    Even rows carry one free generator per cell with the coboundary as
    differential; odd rows vanish because cells have no odd theory.
    """
    expected_ring = ring_of(theory)
    if complex_.ring != expected_ring:
        raise ValueError(f"theory {theory} needs a complex over {expected_ring}")
    k = complex_.top_degree
    entries = {(p, PARITY_EVEN): FGAbelianGroup.free(n) for p, n in enumerate(complex_.ranks)}
    diffs = {(p, PARITY_EVEN): d for p, d in enumerate(complex_.differentials)}
    return SpectralSequence(theory, k, (Page(1, k, theory, entries, diffs, complex_),))


def from_e2_page(page: Page) -> SpectralSequence:
    """Wrap an externally built second page (e.g. a coefficient page)."""
    if page.r != 2:
        raise OutOfRange("expected a page with r = 2")
    return SpectralSequence(page.theory, page.k, (page,))


def _turned_entry(ss: SpectralSequence, page: Page, p: int, parity: int) -> FGAbelianGroup:
    """ker/im at one entry of a page ``r >= 2``.  HP entries are free, so
    their integer subquotient differs from the rational one by torsion
    only, and its free rank is the dimension over Q."""
    g = presented_subquotient(
        generator_orders(page.entry(p, parity)),
        page.differential_out(p, parity),
        generator_orders(page.entry(*page.step(p, parity))),
        page.differential_out(*page.step(p, parity, -1)),
    )
    return FGAbelianGroup.free(g.free_rank) if ss.theory == THEORY_HP else g


def turn_page(ss: SpectralSequence) -> SpectralSequence:
    """Append the next page: every entry is replaced by the kernel of its
    outgoing differential modulo the image of the incoming one, in
    canonical form.  Differentials on the new page default to zero.

    A page without differentials turns into a page with the same
    entries, and a first page into ``all_cohomology`` of its ``source``,
    which sits in the even row."""
    page = ss.pages[-1]
    if not page.differentials:
        new_entries = dict(page.entries)
    elif page.r == 1:
        new_entries = {(p, PARITY_EVEN): g for p, g in enumerate(all_cohomology(page.source))}
    else:
        new_entries = {
            key: _turned_entry(ss, page, key[0], key[1]) for key in page.support()
        }
    new_page = Page(page.r + 1, ss.k, ss.theory, new_entries, {})
    return SpectralSequence(ss.theory, ss.k, ss.pages + (new_page,))


def _check_composite_zero(second, first, dst_orders, what):
    """``second @ first`` must vanish modulo the relations ``dst_orders``."""
    for row, oi in zip((second @ first).rows, dst_orders):
        if any(v % oi != 0 if oi else v for v in row.values()):
            raise NotACocycleMap(f"composite with {what} is nonzero")


def set_higher_differential(
    ss: SpectralSequence, r: int, p: int, q: int, mat
) -> SpectralSequence:
    """Record d^r out of (p, q) on the already computed page ``r``.

    The matrix acts on canonical generators (free part first, then
    torsion factors).  It must respect the torsion relations on both
    sides and compose to zero with the differentials on either side;
    otherwise ``NotACocycleMap``.  Pages beyond ``r`` are discarded since
    they would be stale; a zero matrix restores the default.
    """
    if r < 2:
        raise OutOfRange("only differentials on pages r >= 2 may be overridden")
    page = ss.page(r)
    src = page.entry(p, q)
    dst = page.entry(*page.step(p, q))
    mat = intmat(mat)
    if mat.shape != (dst.ngens, src.ngens):
        raise ShapeMismatch(
            f"differential at ({p},{q}) must be {(dst.ngens, src.ngens)}, got {mat.shape}"
        )
    diffs = dict(page.differentials)
    key = (p, q % 2)
    if mat.is_zero:
        diffs.pop(key, None)
    else:
        dst_orders = generator_orders(dst)
        source_relations = relation_matrix(generator_orders(src))
        _check_composite_zero(mat, source_relations, dst_orders, "the source relations")
        nxt = page.differential_out(*page.step(p, q))
        after = generator_orders(page.entry(*page.step(p, q, 2)))
        _check_composite_zero(nxt, mat, after, "the next differential")
        prev = page.differential_out(*page.step(p, q, -1))
        _check_composite_zero(mat, prev, dst_orders, "the previous differential")
        diffs[key] = mat
    idx = r - ss.pages[0].r
    new_page = Page(r, ss.k, ss.theory, dict(page.entries), diffs)
    return SpectralSequence(ss.theory, ss.k, ss.pages[:idx] + (new_page,))


def stabilize(ss: SpectralSequence) -> SpectralSequence:
    """Turn pages until the guaranteed stabilization index; a sequence
    that is already there comes back unchanged."""
    while ss.current_r < ss.stabilized_at:
        ss = turn_page(ss)
    return ss


def e_infinity(ss: SpectralSequence) -> Page:
    """The stable page."""
    return stabilize(ss).pages[-1]


def assemble(ss: SpectralSequence) -> tuple[Assembly, Assembly]:
    """The (even, odd) assemblies, both read from one stable page.

    At filtration degree ``p`` the row of total parity ``t`` is
    ``q = t - p (mod 2)``; pieces are listed by increasing ``p``.  Each
    group is the direct sum of its pieces, noted ``exact`` when the
    associated graded forces it and ``up_to_extension`` otherwise.
    """
    stable = e_infinity(ss)
    out = []
    for t in (PARITY_EVEN, PARITY_ODD):
        pieces = []
        for p in range(ss.k + 1):
            g = stable.entry(p, t - p)
            if not g.is_trivial:
                pieces.append(g)
        forced = len(pieces) <= 1 or all(not g.torsion for g in pieces)
        note = ASSEMBLY_EXACT if forced else ASSEMBLY_UP_TO_EXTENSION
        group = _TRIVIAL.direct_sum(*pieces)
        out.append(Assembly(tuple(pieces), group, note))
    return tuple(out)


def compute_theories(complex_: CochainComplex, theory: str) -> tuple[Assembly, Assembly]:
    """End-to-end: cellular complex in, (even, odd) assemblies out."""
    return assemble(from_cellular(complex_, theory))
