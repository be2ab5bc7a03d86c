"""Certificates of the Smith normal form and of the rank, against oracles
that share no code with them.

The Smith normal form is certified by replaying its logs of elementary
operations (``exacthom._check_snf``), the rank over Q by a nonzero pivot
minor and an annihilated kernel (``exacthom._check_rank``).  sympy's
invariant factors and rank are the independent oracles; the mutation
tests hand each certificate a corrupted log or witness and expect
``CertificateFailed``.  The same sympy functions are the oracles in
``conftest.py``, which must not reach nccw's own group computations.
"""

import ast
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccw import exacthom
from nccw.cli import main
from nccw.errors import CertificateFailed
from nccw.exacthom import (
    CochainComplex,
    determinant,
    intmat,
    matrix_rank,
    reduce_complex,
    smith_normal_form,
    snf_diagonal,
    zeros,
)

from conftest import dense_product

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

entries = st.integers(-9, 9)


@st.composite
def small_matrices(draw):
    """Matrices up to 6x6 with entries -9..9; half of them are products
    through an inner dimension of 0..2, so low ranks are common."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)], (m, n)
    k = draw(st.integers(0, 2))
    a = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    b = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    return dense_product(a, b, n), (m, n)


def sympy_matrix(rows, shape):
    return sympy.Matrix(*shape, [x for row in rows for x in row])


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_snf_diagonal_matches_sympy_invariant_factors(case):
    rows, shape = case
    expected = [int(d) for d in invariant_factors(sympy_matrix(rows, shape), domain=sympy.ZZ) if d]
    assert snf_diagonal(intmat(rows, shape=shape)) == expected


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_matrix_rank_matches_sympy_rank(case):
    rows, shape = case
    assert matrix_rank(intmat(rows, shape=shape)) == sympy_matrix(rows, shape).rank()


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_smith_normal_form_transforms_are_unimodular(case):
    rows, shape = case
    u, d, v = smith_normal_form(intmat(rows, shape=shape))
    umv = dense_product(dense_product(u.tolist(), rows, shape[1]), v.tolist(), shape[1])
    assert umv == d.tolist()
    assert abs(determinant(u)) == abs(determinant(v)) == 1


# ---------------------------------------------------------------------------
# mutations of the Smith normal form log

# nonsingular, so a changed transform always changes the replayed product
NONSINGULAR = [
    [[2, 3, 1], [4, -5, 7], [6, 1, -3]],
    [[6, 4, 9], [10, -8, 3], [4, 14, 2]],
    [[3, 5], [7, 11]],
]


def factor(rows):
    mat = intmat(rows)
    D, row_ops, col_ops = exacthom._smith_core(mat)
    exacthom._check_snf(mat, D, row_ops, col_ops)
    return mat, D, row_ops, col_ops


def with_log(row_ops, col_ops, side, log):
    return (log, col_ops) if side == "row" else (row_ops, log)


@pytest.mark.parametrize("rows", NONSINGULAR)
@pytest.mark.parametrize("side", ["row", "col"])
def test_flipped_multiplier_fails(rows, side):
    mat, D, row_ops, col_ops = factor(rows)
    log = list(row_ops if side == "row" else col_ops)
    adds = [t for t, op in enumerate(log) if op[0] == "add"]
    assert adds, "the example must log an add"
    _, i, j, k = log[adds[0]]
    log[adds[0]] = ("add", i, j, -k)
    with pytest.raises(CertificateFailed):
        exacthom._check_snf(mat, D, *with_log(row_ops, col_ops, side, log))


@pytest.mark.parametrize("rows", NONSINGULAR)
@pytest.mark.parametrize("side", ["row", "col"])
def test_dropped_operation_fails(rows, side):
    mat, D, row_ops, col_ops = factor(rows)
    log = list(row_ops if side == "row" else col_ops)
    assert log
    for t in range(len(log)):
        with pytest.raises(CertificateFailed):
            exacthom._check_snf(mat, D, *with_log(row_ops, col_ops, side, log[:t] + log[t + 1:]))


@pytest.mark.parametrize("side", ["row", "col"])
def test_add_of_a_line_to_itself_is_refused(side):
    # twice "line 0 += -2 * line 0" is the identity, so only the refusal
    # of a non-elementary operation can catch it
    mat, D, row_ops, col_ops = factor(NONSINGULAR[0])
    log = list(row_ops if side == "row" else col_ops) + [("add", 0, 0, -2)] * 2
    with pytest.raises(CertificateFailed, match="not elementary"):
        exacthom._check_snf(mat, D, *with_log(row_ops, col_ops, side, log))


@pytest.mark.parametrize("op", [
    ("add", 0, 1, 0),
    ("add", 0, 3, 1),
    ("add", -1, 0, 1),
    ("add", 0, 1, 1.5),
    ("swap", 1, 1),
    ("swap", 0, 5),
    ("neg", -1),
    ("scale", 0, 2),
    ("add", 0, 1),
])
def test_non_elementary_operations_are_refused(op):
    # each one would leave the identity as it is, or fail outright; the
    # certificate refuses it by name either way
    mat = intmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(CertificateFailed, match="not elementary"):
        exacthom._check_snf(mat, mat, [op], [])


def test_diagonal_chain_is_checked():
    # [[2, 0], [0, 3]] is diagonal but not a divisibility chain
    mat = intmat([[2, 0], [0, 3]])
    with pytest.raises(CertificateFailed):
        exacthom._check_snf(mat, mat, [], [])
    neg = intmat([[-1]])
    with pytest.raises(CertificateFailed):
        exacthom._check_snf(neg, neg, [], [])


# ---------------------------------------------------------------------------
# mutations of the rank certificate


def test_rank_witness_of_the_core_passes():
    mat = intmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rows, cols, kernel = exacthom._rank_core(mat)
    exacthom._check_rank(mat, rows, cols, kernel)
    assert len(cols) == 2 and kernel.shape == (3, 1)


def test_singular_pivot_minor_fails():
    # rank 1, claimed to be 2 on a singular minor; the empty kernel would
    # pass the rank <= r half
    mat = intmat([[1, 2], [2, 4]])
    with pytest.raises(CertificateFailed, match="singular"):
        exacthom._check_rank(mat, [0, 1], [0, 1], zeros(2, 0))


def test_kernel_vector_not_annihilated_fails():
    mat = intmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rows, cols, kernel = exacthom._rank_core(mat)
    bad = kernel.tolist()
    bad[cols[0]][0] += 1
    with pytest.raises(CertificateFailed, match="annihilated"):
        exacthom._check_rank(mat, rows, cols, intmat(bad))


def test_kernel_without_free_identity_fails():
    # rank 2 claimed to be 1: the minor [[1]] is fine, and a zero kernel
    # column is annihilated, but it proves nothing about independence
    mat = intmat([[1, 0], [0, 1]])
    with pytest.raises(CertificateFailed, match="free columns"):
        exacthom._check_rank(mat, [0], [0], zeros(2, 1))


def test_pivots_that_are_not_a_minor_fail():
    mat = intmat([[1, 0], [0, 1]])
    with pytest.raises(CertificateFailed, match="minor"):
        exacthom._check_rank(mat, [0, 0], [0, 1], zeros(2, 0))


# ---------------------------------------------------------------------------
# the named error reaches the command line as one line


REAL_SMITH_CORE = exacthom._smith_core


def corrupt_smith_core(mat):
    # negates a row that the certificate then finds wrong
    D, row_ops, col_ops = REAL_SMITH_CORE(mat)
    return D, row_ops + [("neg", 0)], col_ops


def corrupt_rank_core(mat):
    # claims rank 0 with a zero kernel
    n = mat.shape[1]
    return [], [], zeros(n, n)


@pytest.mark.parametrize("theory, target, fake", [
    ("k", "_smith_core", corrupt_smith_core),
    ("hp", "_rank_core", corrupt_rank_core),
])
def test_failed_certificate_is_one_error_line(capsys, theory, target, fake):
    with mock.patch.object(exacthom, target, fake):
        code = main(["compute", os.path.join(FIXTURES, "rp2.json"), "--theory", theory])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "certificate failed" in out.err


def test_reduction_euler_check_is_named():
    c = CochainComplex("Z", [1, 1], [intmat([[1]])])
    with mock.patch.object(exacthom, "euler", side_effect=[0, 1]):
        with pytest.raises(CertificateFailed, match="Euler"):
            reduce_complex(c)


def test_conftest_oracles_share_no_group_code():
    # the random complexes may still be built with ``kernel_basis``
    forbidden = {"matrix_rank", "snf_diagonal", "cokernel_group", "all_cohomology",
                 "reduce_complex", "smith_normal_form", "presented_subquotient",
                 "cohomology_with_coefficients", "_map_invariants"}
    with open(os.path.join(os.path.dirname(__file__), "conftest.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not forbidden & names
    assert "invariant_factors" in names
