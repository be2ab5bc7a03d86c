"""Shared model builders, random generators, and independent oracles.

The oracles here share no code with the paths they check: every rank and
invariant factor comes from sympy (``Matrix.rank`` and
``invariant_factors``, imported on first use), never from nccw's Smith
normal form, rank certificate, reduction or cohomology.  Cellular
homology and cohomology are read degree by degree from the unreduced
maps, six-term kernel/cokernel groups come straight from one matrix, and
coefficient cohomology has a Tor/tensor formula oracle and a
block-diagonal free expansion whose plain cohomology needs no universal
coefficient theorem.  Matrix arithmetic in the oracles runs on plain
lists of rows (``tolist()``), never on the matrix type it is used to
check.

``reference_parser`` is the argparse parser the command line was once
read with; ``tests/test_file_fuzz.py`` checks the table-driven parser of
``nccw.cli`` against it.
"""

import argparse
import contextlib
import functools
import io
import math
import random

import pytest
from hypothesis import strategies as st

from nccw import cellmodel
from nccw.cli import (
    FileFormatError,
    cmd_compute,
    cmd_fibration,
    cmd_transform,
    cmd_validate,
    main,
)
from nccw.errors import ShapeMismatch
from nccw.exacthom import (
    RING_Q,
    RING_Z,
    CochainComplex,
    FGAbelianGroup,
    intmat,
    kernel_basis,
    zeros,
)
from nccw.findim import FinDimAlgebra, MultMorphism


# ---------------------------------------------------------------------------
# shipped models


def point_model():
    return cellmodel.build([cellmodel.NCCWStage(0, FinDimAlgebra([1]))])


def circle_model():
    a0 = FinDimAlgebra([1])
    f1 = FinDimAlgebra([1])
    ep = cellmodel.EndpointPair(
        MultMorphism(a0, f1, [[1]]), MultMorphism(a0, f1, [[1]])
    )
    return cellmodel.build(
        [cellmodel.NCCWStage(0, a0), cellmodel.NCCWStage(1, f1, ep)]
    )


def dimension_drop_model(p: int):
    a0 = FinDimAlgebra([1, 1])
    f1 = FinDimAlgebra([p])
    ep = cellmodel.EndpointPair(
        MultMorphism(a0, f1, [[p, 0]]), MultMorphism(a0, f1, [[0, p]])
    )
    return cellmodel.build(
        [cellmodel.NCCWStage(0, a0), cellmodel.NCCWStage(1, f1, ep)]
    )


def interval_cw():
    return cellmodel.from_classical_cw([2, 1], [intmat([[-1], [1]])])


def circle_cw():
    return cellmodel.from_classical_cw([1, 1], [intmat([[0]])])


def sphere_cw():
    return cellmodel.from_classical_cw([1, 0, 1], [zeros(1, 0), zeros(0, 1)])


def torus_cw():
    return cellmodel.from_classical_cw([1, 2, 1], [intmat([[0, 0]]), intmat([[0], [0]])])


def projective_plane_cw():
    return cellmodel.from_classical_cw([1, 1, 1], [intmat([[0]]), intmat([[2]])])


@pytest.fixture
def rp2():
    return projective_plane_cw()


# ---------------------------------------------------------------------------
# random generators (seeded by the tests that use them)


def random_int_matrix(rng: random.Random, rows, cols, max_entry=3):
    return intmat(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)],
        shape=(rows, cols),
    )


def random_cochain_complex(rng: random.Random, max_k=3, max_rank=4, max_entry=3, ring="Z"):
    """A valid random complex: each differential is built row by row from
    the left kernel of the previous one, so d after d = 0 by construction."""
    k = rng.randint(0, max_k)
    ranks = [rng.randint(0, max_rank) for _ in range(k + 1)]
    diffs = []
    prev = None
    for p in range(k):
        rows, cols = ranks[p + 1], ranks[p]
        if prev is None or prev.shape[1] == 0:
            mat = random_int_matrix(rng, rows, cols, max_entry)
        else:
            kb = kernel_basis(prev.T)
            s = kb.shape[1]
            kb_rows = kb.tolist()
            built = []
            for _ in range(rows):
                vec = [0] * cols
                if s:
                    for _attempt in range(20):
                        coeffs = [[rng.randint(-2, 2)] for _ in range(s)]
                        cand = [row[0] for row in dense_product(kb_rows, coeffs, 1)]
                        if all(abs(x) <= max_entry for x in cand):
                            vec = cand
                            break
                built.append(vec)
            mat = intmat(built, shape=(rows, cols))
        diffs.append(mat)
        prev = mat
    return CochainComplex(ring, ranks, diffs)


@st.composite
def small_complexes(draw, rings=("Z", "Q")):
    """Random complexes with entries in -3..3: a random complex plus a
    complex with entries in -1..1 scaled by 2 or 3, so non-unit pivots
    survive the reduction."""
    rng = draw(st.randoms(use_true_random=False))
    ring = draw(st.sampled_from(rings))
    base = random_cochain_complex(rng, max_k=3, max_rank=4, max_entry=3, ring=ring)
    unit = random_cochain_complex(rng, max_k=3, max_rank=3, max_entry=1, ring=ring)
    scale = draw(st.sampled_from([2, 3, -2, -3]))
    scaled = CochainComplex(
        ring,
        unit.ranks,
        [intmat([[scale * x for x in row] for row in d.tolist()], shape=d.shape)
         for d in unit.differentials],
    )
    return direct_sum_complexes(base, scaled)


def random_stage1_complex(rng: random.Random, max_blocks=3, max_mult=3):
    """Random one-dimensional tower with endpoint attaching data; target
    block sizes are grown to accommodate both endpoint morphisms."""
    s = rng.randint(1, max_blocks)
    t = rng.randint(1, max_blocks)
    src_sizes = [rng.randint(1, 3) for _ in range(s)]
    m0 = [[rng.randint(0, max_mult) for _ in range(s)] for _ in range(t)]
    m1 = [[rng.randint(0, max_mult) for _ in range(s)] for _ in range(t)]
    dst_sizes = []
    for j in range(t):
        need = max(
            sum(m0[j][i] * src_sizes[i] for i in range(s)),
            sum(m1[j][i] * src_sizes[i] for i in range(s)),
            1,
        )
        dst_sizes.append(need + rng.randint(0, 2))
    a0 = FinDimAlgebra(src_sizes)
    f1 = FinDimAlgebra(dst_sizes)
    ep = cellmodel.EndpointPair(
        MultMorphism(a0, f1, m0), MultMorphism(a0, f1, m1)
    )
    return cellmodel.build(
        [cellmodel.NCCWStage(0, a0), cellmodel.NCCWStage(1, f1, ep)]
    )


def random_valid_morphism(rng: random.Random, max_blocks=3, max_mult=3):
    s = rng.randint(1, max_blocks)
    t = rng.randint(1, max_blocks)
    src_sizes = [rng.randint(1, 3) for _ in range(s)]
    m = [[rng.randint(0, max_mult) for _ in range(s)] for _ in range(t)]
    dst_sizes = [
        max(sum(m[j][i] * src_sizes[i] for i in range(s)), 1) + rng.randint(0, 2)
        for j in range(t)
    ]
    return MultMorphism(FinDimAlgebra(src_sizes), FinDimAlgebra(dst_sizes), m)


# ---------------------------------------------------------------------------
# independent oracles


def dense_product(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    """Product of two matrices given as lists of rows, by the triple loop;
    ``ncols`` is the column count of ``b``, which an empty ``b`` cannot
    carry."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(ncols)]
        for i in range(len(a))
    ]


def dense_product_is_zero(a, b) -> bool:
    """Whether ``a @ b`` vanishes, by :func:`dense_product` on plain lists."""
    product = dense_product(a.tolist(), b.tolist(), b.shape[1])
    return all(x == 0 for row in product for x in row)


def block_rows(blocks: list[tuple[list[list[int]], int, int]], nrows: int, ncols: int):
    """Lists of rows of an ``nrows`` x ``ncols`` zero matrix with each
    ``(rows, i, j)`` block copied in with its top left corner at (i, j)."""
    out = [[0] * ncols for _ in range(nrows)]
    for rows, i, j in blocks:
        for di, row in enumerate(rows):
            out[i + di][j : j + len(row)] = row
    return out


def sympy_invariants(mat, ring=RING_Z) -> tuple[int, tuple[int, ...]]:
    """``(rank, invariant factors >= 2)`` of a matrix, from sympy alone:
    over Q ``Matrix.rank`` and no torsion, over Z the nonzero
    ``invariant_factors``."""
    rows, cols = mat.shape
    if not rows or not cols:
        return 0, ()
    import sympy
    from sympy.matrices.normalforms import invariant_factors

    m = sympy.Matrix(rows, cols, [x for row in mat.tolist() for x in row])
    if ring == RING_Q:
        return m.rank(), ()
    factors = [int(d) for d in invariant_factors(m, domain=sympy.ZZ) if d]
    return len(factors), tuple(d for d in factors if d >= 2)


def six_term_oracle(delta0):
    """(kernel, cokernel) of one coboundary, straight from its invariant
    factors."""
    rank, torsion = sympy_invariants(delta0)
    ker = FGAbelianGroup.free(delta0.shape[1] - rank)
    coker = FGAbelianGroup(delta0.shape[0] - rank, torsion)
    return ker, coker


def snf_homology_oracle(counts, boundaries):
    """Cellular homology H_p = ker del_p / im del_(p+1) from the invariant
    factors of the boundary maps; never touches CochainComplex or the
    engine."""
    k = len(counts) - 1

    def boundary(p):
        # del_p maps p-cells to (p-1)-cells
        if 1 <= p <= k:
            return boundaries[p - 1]
        rows = counts[p - 1] if 0 <= p - 1 <= k else 0
        cols = counts[p] if 0 <= p <= k else 0
        return zeros(rows, cols)

    out = []
    for p in range(k + 1):
        into, torsion = sympy_invariants(boundary(p + 1))
        free = counts[p] - sympy_invariants(boundary(p))[0] - into
        out.append(FGAbelianGroup(free, torsion))
    return out


def cohomology_oracle(c: CochainComplex) -> list[FGAbelianGroup]:
    """ker/im in every degree of the unreduced complex: free rank ``c_p``
    minus the ranks of both maps at ``p``, torsion from the incoming map."""
    inv = [sympy_invariants(c.differential(p), c.ring) for p in range(-1, c.top_degree + 1)]
    return [
        FGAbelianGroup(c.rank(p) - inv[p + 1][0] - inv[p][0], inv[p][1])
        for p in range(c.top_degree + 1)
    ]


def pairwise_cyclic_group(orders, free: int = 0) -> FGAbelianGroup:
    """Canonical form of a direct sum of cyclic groups by the pairwise
    exchange ``Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b)`` over all pairs
    (quadratic in the number of orders); ``0`` is an infinite summand."""
    free += sum(1 for d in orders if d == 0)
    finite = [abs(int(d)) for d in orders if d != 0]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            a, b = finite[i], finite[j]
            finite[i] = math.gcd(a, b)
            finite[j] = a * b // finite[i]
    return FGAbelianGroup(free, tuple(d for d in finite if d > 1))


def tensor_with_cyclic(g: FGAbelianGroup, d: int) -> FGAbelianGroup:
    orders = [d] * g.free_rank + [math.gcd(e, d) for e in g.torsion]
    return FGAbelianGroup.from_cyclic_orders(orders)


def tor_with_cyclic(g: FGAbelianGroup, d: int) -> FGAbelianGroup:
    return FGAbelianGroup.from_cyclic_orders([math.gcd(e, d) for e in g.torsion])


def coefficient_cohomology_oracle(c: CochainComplex, g: FGAbelianGroup):
    """Tor/tensor formula for cohomology with coefficients, built only on
    the plain integer cohomology groups of :func:`cohomology_oracle`."""
    k = c.top_degree
    plain = cohomology_oracle(c)
    out = []
    for p in range(k + 1):
        nxt = plain[p + 1] if p + 1 <= k else FGAbelianGroup.trivial()
        parts = [FGAbelianGroup.free(plain[p].free_rank * g.free_rank)]
        parts.append(
            FGAbelianGroup.from_cyclic_orders(list(plain[p].torsion) * g.free_rank)
        )
        for d in g.torsion:
            parts.append(tensor_with_cyclic(plain[p], d))
            parts.append(tor_with_cyclic(nxt, d))
        out.append(FGAbelianGroup.trivial().direct_sum(*parts))
    return out


def parity_sums(c: CochainComplex):
    """Direct cellular computation: (even, odd) parity direct sums of
    :func:`cohomology_oracle`, bypassing the page engine and the reduction
    it turns its first page with."""
    groups = cohomology_oracle(c)
    even = FGAbelianGroup.trivial().direct_sum(*[g for p, g in enumerate(groups) if p % 2 == 0])
    odd = FGAbelianGroup.trivial().direct_sum(*[g for p, g in enumerate(groups) if p % 2 == 1])
    return even, odd


def direct_sum_complexes(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    if a.ring != b.ring:
        raise ValueError("can only sum complexes over the same ring")
    k = max(a.top_degree, b.top_degree)
    ranks = [a.rank(p) + b.rank(p) for p in range(k + 1)]
    diffs = []
    for p in range(k):
        da, db = a.differential(p), b.differential(p)
        shape = (ranks[p + 1], ranks[p])
        rows = block_rows([(da.tolist(), 0, 0), (db.tolist(), *da.shape)], *shape)
        diffs.append(intmat(rows, shape=shape))
    return CochainComplex(a.ring, ranks, diffs)


def block_diag(blocks):
    """Block-diagonal matrix; each block comes with its (rows, cols) shape so
    zero-size blocks still occupy their slot."""
    nrows = sum(s[0] for _, s in blocks)
    ncols = sum(s[1] for _, s in blocks)
    placed = []
    i = j = 0
    for mat, (r, c) in blocks:
        if mat.shape != (r, c):
            raise ShapeMismatch("block shape disagrees with declared shape")
        placed.append((mat.tolist(), i, j))
        i += r
        j += c
    return intmat(block_rows(placed, nrows, ncols), shape=(nrows, ncols))


def coefficient_expansion(c: CochainComplex, group: FGAbelianGroup) -> CochainComplex:
    """Free integer complex whose cohomology in degrees 1..k+1 equals the
    cohomology of ``c`` tensored with ``group`` in degrees 0..k.

    Each free generator of the coefficient group contributes a plain copy
    of the complex.  Each cyclic factor Z/d contributes a copy together
    with relation generators one degree lower, glued by multiplication by
    d: at (shifted) degree p the block holds the (p+1)-generators and the
    p-generators, with differential  (x, y) |-> (-d_{p+1} x, d x + d_p y).
    The whole expansion is block diagonal across coefficient summands.
    """
    k = c.top_degree

    def cyc_rank(p: int, d: int | None) -> int:
        if d is None:
            return c.rank(p)
        return c.rank(p + 1) + c.rank(p)

    def cyc_diff(p: int, d: int | None):
        if d is None:
            return c.differential(p)
        # rows: (p+2)-generators, then (p+1)-generators;
        # columns: (p+1)-generators, then p-generators
        top, mid = c.rank(p + 2), c.rank(p + 1)
        minus_next = [[-x for x in row] for row in c.differential(p + 1).tolist()]
        d_ident = [[d if i == j else 0 for j in range(mid)] for i in range(mid)]
        shape = (top + mid, mid + c.rank(p))
        rows = block_rows(
            [(minus_next, 0, 0), (d_ident, top, 0), (c.differential(p).tolist(), top, mid)],
            *shape,
        )
        return intmat(rows, shape=shape)

    summands: list[int | None] = [None] * group.free_rank + list(group.torsion)
    ranks = []
    diffs = []
    for p in range(-1, k + 1):
        ranks.append(sum(cyc_rank(p, d) for d in summands))
    for p in range(-1, k):
        blocks = [
            (cyc_diff(p, d), (cyc_rank(p + 1, d), cyc_rank(p, d))) for d in summands
        ]
        diffs.append(block_diag(blocks))
    return CochainComplex(RING_Z, ranks, diffs)


def check_cli_contract(argv) -> int:
    """Run ``nccw.cli.main(argv)`` in process: the exit code must be 0, 1
    or 2, a failure must print exactly one ``error:`` line to stderr and a
    success nothing, and no exception may leave ``main``.  Everything
    printed must be encodable as UTF-8, as a real stdout requires (the
    captured text takes any string).  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    out.getvalue().encode("utf-8")
    err.getvalue().encode("utf-8")
    if code:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
    else:
        assert err.getvalue() == "", argv
    return code


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise FileFormatError(f"{self.prog}: {message}")


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """argparse's reading of the command line; ``parse_args`` refuses with
    ``FileFormatError`` and prints help through ``SystemExit(0)``."""
    parser = _ReferenceParser(
        prog="nccw",
        description="Exact K-theory and periodic cyclic homology of NCCW complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a complex file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="assemble theory groups of a complex")
    p.add_argument("path")
    p.add_argument("--theory", choices=["k", "hp"], default="k")
    p.add_argument("--pages", action="store_true", help="dump every page up to E^(k+1)")
    p.add_argument("--paper-indexing", action="store_true", dest="paper_indexing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("transform", help="suspend, cone, cylinder or mapping cone")
    p.add_argument("path")
    p.add_argument("--op", choices=["suspend", "cone", "cylinder", "mapcone"], required=True)
    p.add_argument("--map", help="morphism file (cylinder and mapcone)")
    p.add_argument("--theory", choices=["k", "hp"], default="k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transform, total=None)

    p = sub.add_parser("fibration", help="coefficient spectral sequence over a base")
    p.add_argument("--base", required=True)
    p.add_argument("--coeff-even", dest="coeff_even")
    p.add_argument("--coeff-odd", dest="coeff_odd")
    p.add_argument("--map", help="morphism file from the base into the total model")
    p.add_argument("--total", help="total complex file (with --map)")
    p.add_argument("--theory", choices=["k", "hp"], default="k")
    p.add_argument("--not-simple", action="store_true", dest="not_simple")
    p.add_argument("--paper-indexing", action="store_true", dest="paper_indexing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fibration)
    return parser


def parse_outcome(parser, argv):
    """``("ok", vars(namespace))``, ``("refused", None)`` or ``("exit", code)``
    for one command line; help text is swallowed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(parser.parse_args(argv))
    except FileFormatError:
        return "refused", None
    except SystemExit as exc:
        return "exit", exc.code
