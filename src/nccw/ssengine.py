"""Spectral-sequence engine: pages, differentials, E-infinity, assembly.

Bigraded pages are stored sparsely and 2-periodically: an entry lives at
``(p, q mod 2)``; whatever is absent is the zero group.  The differential
raises filtration degree: on page ``r`` it maps ``(p, q)`` to
``(p + r, q - r + 1)``.  The homological indexing used in
the literature is recovered by relabeling ``p`` to ``k - p``, which the
command line does on request for display only.

Entries are finitely generated abelian groups in canonical form.  Maps
between entries are integer matrices on the canonical generators, which
are ordered free part first, then torsion factors in invariant-factor
order.  For cellular input only even rows are ever populated (cells have
no odd theory), so storage and page turning cost as much as a single row.

Every complex of top dimension ``k`` stabilizes at page ``k + 1``: beyond
that every differential leaves the support ``0 <= p <= k``.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import NotACocycleMap, OutOfRange, ShapeMismatch
from .exacthom import (
    RING_Q,
    RING_Z,
    CochainComplex,
    FGAbelianGroup,
    IntMatrix,
    all_cohomology,
    intmat,
    presented_subquotient,
    zeros,
)
from .findim import THEORY_HP, THEORY_K
from .frozen import Frozen

PARITY_EVEN = 0
PARITY_ODD = 1

ASSEMBLY_EXACT = "exact"
ASSEMBLY_UP_TO_EXTENSION = "up_to_extension"


def generator_orders(group: FGAbelianGroup) -> list[int]:
    """Orders of the canonical generators; 0 marks a free generator."""
    return [0] * group.free_rank + list(group.torsion)


class Page(Frozen):
    """One page of the sequence: entries and differentials out of them.

    A first page made by :func:`from_cellular` keeps the checked complex
    it came from as ``source``, and is turned through that complex."""

    r: int
    k: int
    theory: str
    entries: MappingProxyType
    differentials: MappingProxyType
    source: CochainComplex | None

    def __init__(self, r, k, theory, entries, differentials, source=None):
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

    def entry_at(self, p: int, parity: int) -> FGAbelianGroup:
        return self.entries.get((p, parity % 2), FGAbelianGroup.trivial())

    def entry(self, p: int, q: int) -> FGAbelianGroup:
        return self.entry_at(p, q % 2)

    def differential_out(self, p: int, parity: int) -> IntMatrix | None:
        return self.differentials.get((p, parity % 2))

    def differential(self, p: int, q: int) -> IntMatrix:
        """Matrix of d at (p, q); a zero matrix of the right shape when
        nothing nonzero is recorded."""
        stored = self.differential_out(p, q % 2)
        if stored is not None:
            return stored
        return zeros(self.entry(p + self.r, q - self.r + 1).ngens, self.entry(p, q).ngens)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.entries.keys())

    def same_entries(self, other: "Page") -> bool:
        return dict(self.entries) == dict(other.entries)


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


class Assembly(Frozen):
    """Filtration pieces of one total parity, with honest extension flags.

    ``resolved`` is the actual group when the pieces force it (at most one
    nonzero piece, or every piece torsion-free); otherwise it is None and
    ``candidate`` holds the flagged direct-sum guess.
    """

    parity: str
    pieces: tuple[FGAbelianGroup, ...]
    resolved: FGAbelianGroup | None
    note: str
    candidate: FGAbelianGroup

    def __init__(
        self,
        parity: str,
        pieces: tuple[FGAbelianGroup, ...],
        resolved: FGAbelianGroup | None,
        note: str,
        candidate: FGAbelianGroup,
    ):
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "resolved", resolved)
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "candidate", candidate)

    def _fields(self) -> tuple:
        return (self.parity, self.pieces, self.resolved, self.note, self.candidate)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Assembly(parity={self.parity!r}, pieces={self.pieces!r},"
            f" resolved={self.resolved!r}, note={self.note!r}, candidate={self.candidate!r})"
        )

    @property
    def group(self) -> FGAbelianGroup:
        """The resolved group, or the flagged candidate when unresolved."""
        return self.resolved if self.resolved is not None else self.candidate


def from_cellular(complex_: CochainComplex, theory: str) -> SpectralSequence:
    """First page of the filtration sequence of a cellular cochain complex.

    Even rows carry one free generator per cell with the coboundary as
    differential; odd rows vanish because cells have no odd theory.
    """
    if theory not in (THEORY_K, THEORY_HP):
        raise ValueError(f"unknown theory {theory!r}")
    expected_ring = RING_Z if theory == THEORY_K else RING_Q
    if complex_.ring != expected_ring:
        raise ValueError(f"theory {theory} needs a complex over {expected_ring}")
    k = complex_.top_degree
    entries = {}
    diffs = {}
    for p in range(k + 1):
        if complex_.rank(p) > 0:
            entries[(p, PARITY_EVEN)] = FGAbelianGroup.free(complex_.rank(p))
    for p in range(k):
        diffs[(p, PARITY_EVEN)] = complex_.differential(p)
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
    r = page.r
    g = presented_subquotient(
        generator_orders(page.entry_at(p, parity)),
        page.differential_out(p, parity),
        generator_orders(page.entry_at(p + r, (parity - r + 1) % 2)),
        page.differential_out(p - r, (parity + r - 1) % 2),
    )
    return FGAbelianGroup.free(g.free_rank) if ss.theory == THEORY_HP else g


def _turned_first_page(page: Page) -> dict:
    """Entries of the second page.  The first page has free entries and
    d^1 keeps the parity, so each parity row is a cochain complex and its
    cohomology is the next row.  A page with a ``source`` is that complex
    in its even row, already checked; any other row is checked here."""
    ring = RING_Z if page.theory == THEORY_K else RING_Q
    entries = {}
    for parity in (PARITY_EVEN, PARITY_ODD):
        row = [page.entry_at(p, parity) for p in range(page.k + 1)]
        if all(g.is_trivial for g in row):
            continue
        if any(g.torsion for g in row):
            raise ShapeMismatch("entries of a first page must be free")
        if page.source is not None and parity == PARITY_EVEN:
            complex_ = page.source
        else:
            ranks = [g.free_rank for g in row]
            diffs = [page.differential(p, parity) for p in range(page.k)]
            complex_ = CochainComplex(ring, ranks, diffs)
        for p, g in enumerate(all_cohomology(complex_)):
            entries[(p, parity)] = g
    return entries


def turn_page(ss: SpectralSequence) -> SpectralSequence:
    """Append the next page: every entry is replaced by the kernel of its
    outgoing differential modulo the image of the incoming one, in
    canonical form.  Differentials on the new page default to zero.

    A page without differentials turns into a page with the same
    entries, and the first page turns row by row through
    ``all_cohomology``."""
    page = ss.pages[-1]
    if not page.differentials:
        new_entries = dict(page.entries)
    elif page.r == 1:
        new_entries = _turned_first_page(page)
    else:
        new_entries = {
            key: _turned_entry(ss, page, key[0], key[1]) for key in page.support()
        }
    new_page = Page(page.r + 1, ss.k, ss.theory, new_entries, {})
    return SpectralSequence(ss.theory, ss.k, ss.pages + (new_page,))


def _check_well_defined(mat, src_orders, dst_orders):
    for j, dj in enumerate(src_orders):
        if dj == 0:
            continue
        for i, oi in enumerate(dst_orders):
            v = dj * mat[i, j]
            if (oi == 0 and v != 0) or (oi != 0 and v % oi != 0):
                raise NotACocycleMap(
                    f"column {j} (order {dj}) does not respect the target relations"
                )


def _check_composite_zero(second, first, dst_orders, what):
    for row, oi in zip((second @ first).rows, dst_orders):
        if any(v % oi != 0 if oi else v for v in row.values()):
            raise NotACocycleMap(f"composite with the {what} differential is nonzero")


def set_higher_differential(
    ss: SpectralSequence, r: int, p: int, q: int, mat
) -> SpectralSequence:
    """Record d^r out of (p, q) on the already computed page ``r``.

    The matrix acts on canonical generators (free part first, then
    torsion factors).  It must respect the torsion relations on both
    sides and compose to zero with any adjacent recorded differential;
    otherwise ``NotACocycleMap``.  Pages beyond ``r`` are discarded since
    they would be stale; a zero matrix restores the default.
    """
    if r < 2:
        raise OutOfRange("only differentials on pages r >= 2 may be overridden")
    page = ss.page(r)
    parity = q % 2
    src = page.entry_at(p, parity)
    dst = page.entry(p + r, q - r + 1)
    mat = intmat(mat)
    if mat.shape != (dst.ngens, src.ngens):
        raise ShapeMismatch(
            f"differential at ({p},{q}) must be {(dst.ngens, src.ngens)}, got {mat.shape}"
        )
    diffs = dict(page.differentials)
    key = (p, parity)
    if mat.is_zero:
        diffs.pop(key, None)
    else:
        src_orders = generator_orders(src)
        dst_orders = generator_orders(dst)
        _check_well_defined(mat, src_orders, dst_orders)
        nxt = page.differential_out(p + r, (parity - r + 1) % 2)
        if nxt is not None:
            after = page.entry(p + 2 * r, q - 2 * r + 2)
            _check_composite_zero(nxt, mat, generator_orders(after), "next")
        prev = page.differential_out(p - r, (parity + r - 1) % 2)
        if prev is not None:
            _check_composite_zero(mat, prev, dst_orders, "previous")
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


def assemble(ss: SpectralSequence, parity: str) -> Assembly:
    """Collect the stable entries of one total parity along the filtration.

    At filtration degree ``p`` the row of total parity ``t`` is
    ``q = t - p (mod 2)``; pieces are listed by increasing ``p``.  The
    result is resolved exactly when the associated graded forces the
    group; otherwise the direct-sum candidate is attached but flagged.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    t = PARITY_EVEN if parity == "even" else PARITY_ODD
    stable = e_infinity(ss)
    pieces = []
    for p in range(ss.k + 1):
        g = stable.entry_at(p, (t - p) % 2)
        if not g.is_trivial:
            pieces.append(g)
    candidate = FGAbelianGroup.trivial().direct_sum(*pieces)
    forced = len(pieces) <= 1 or all(not g.torsion for g in pieces)
    if forced:
        return Assembly(parity, tuple(pieces), candidate, ASSEMBLY_EXACT, candidate)
    return Assembly(parity, tuple(pieces), None, ASSEMBLY_UP_TO_EXTENSION, candidate)


def compute_theories(complex_: CochainComplex, theory: str) -> tuple[Assembly, Assembly]:
    """End-to-end: cellular complex in, (even, odd) assemblies out.  The
    pages are turned once; both parities read the same stable page."""
    ss = stabilize(from_cellular(complex_, theory))
    return assemble(ss, "even"), assemble(ss, "odd")
