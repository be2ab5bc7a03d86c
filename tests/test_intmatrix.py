"""The sparse exact matrix type, checked against plain lists of rows.

Every expectation is computed on the dense rows the matrices were built
from (``dense_product`` is the triple loop), never by the matrix type
itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccw.errors import ShapeMismatch
from nccw.exacthom import IntMatrix, identity, intmat, stack, zeros

from conftest import dense_product

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def rows_of(data, nrows, ncols):
    entries = st.integers(-3, 3)
    return data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_operations_agree_with_dense_lists(data):
    m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    a_rows, b_rows = rows_of(data, m, k), rows_of(data, k, n)
    c_rows = data.draw(st.one_of(st.just([list(r) for r in a_rows]), st.just(rows_of(data, m, k))))
    a, b, c = intmat(a_rows, (m, k)), intmat(b_rows, (k, n)), intmat(c_rows, (m, k))

    product = a @ b
    assert product.shape == (m, n)
    assert product.tolist() == dense_product(a_rows, b_rows, n)
    assert a.T.shape == (k, m)
    assert a.T.tolist() == [[a_rows[i][j] for i in range(m)] for j in range(k)]
    assert (a == c) == (a_rows == c_rows)
    assert (a != c) == (a_rows != c_rows)
    assert a.is_zero == all(x == 0 for row in a_rows for x in row)
    assert (-a).tolist() == [[-x for x in row] for row in a_rows]
    difference = [[x - y for x, y in zip(r, s)] for r, s in zip(a_rows, c_rows)]
    assert (a - c).tolist() == difference
    assert sorted(a.flat) == sorted(x for row in a_rows for x in row if x)
    assert all(a[i, j] == a_rows[i][j] for i in range(m) for j in range(k))
    assert a.tolist() == a_rows
    assert (a.max_abs, a.T.max_abs, (-a).max_abs, (a - c).max_abs, product.max_abs) == tuple(
        max((abs(x) for row in rows for x in row), default=0)
        for rows in (a_rows, a_rows, a_rows, difference, dense_product(a_rows, b_rows, n))
    )


def test_shapes_without_entries_stay_apart():
    assert zeros(0, 2) != zeros(0, 3)
    assert zeros(3, 0).T == zeros(0, 3)
    assert (zeros(2, 0) @ zeros(0, 3)) == zeros(2, 3)
    assert intmat([], shape=(0, 4)).shape == (0, 4)
    assert intmat([[], []], shape=(2, 0)).shape == (2, 0)


def test_intmat_validates_entries_and_shapes():
    for bad in ([[1, True]], [[1.0]], [["1"]]):
        with pytest.raises(ShapeMismatch, match="not an integer"):
            intmat(bad)
    with pytest.raises(ShapeMismatch, match="row 1"):
        intmat([[1, 2], [3]])
    with pytest.raises(ShapeMismatch, match="expected shape"):
        intmat([[1, 2]], shape=(1, 3))
    with pytest.raises(ShapeMismatch, match="expected shape"):
        intmat(identity(2), shape=(2, 3))
    m = intmat([[0, 5], [0, 0]])
    assert intmat(m, shape=(2, 2)) is m
    assert m.rows == ({1: 5}, {})


class Index:
    """An integer that is not an ``int``: ``intmat`` converts it through
    ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def snapshot(data):
    """The outer sequence and every row, kept by identity of each item."""
    return list(data), [list(r) for r in data]


def assert_unchanged(data, before):
    outer, rows = before
    assert len(data) == len(outer) and all(a is b for a, b in zip(data, outer))
    assert all(len(r) == len(s) and all(x is y for x, y in zip(r, s)) for r, s in zip(data, rows))


@pytest.mark.parametrize("data, dense", [
    ([[0, 5, 0], [1, 0, -1]], [[0, 5, 0], [1, 0, -1]]),
    ([(0, 5, 0), (1, 0, -1)], [[0, 5, 0], [1, 0, -1]]),
    ([[0, 2**70, 0], (-3, 0, 0)], [[0, 2**70, 0], [-3, 0, 0]]),
    ([[Index(3), 0, Index(0)], [0, 0, 7]], [[3, 0, 0], [0, 0, 7]]),
    (([1, 0], [0, Index(-2)]), [[1, 0], [0, -2]]),
], ids=["lists", "tuples", "mixed", "index", "outer-tuple"])
def test_intmat_keeps_rows_without_writing_them(data, dense):
    before = snapshot(data)
    m = intmat(data)
    assert_unchanged(data, before)
    assert m.tolist() == dense
    # no row of the matrix is one of the caller's lists, so later writes
    # to them do not reach it
    assert not any(r is s for r in m.rows for s in data)
    for row in data:
        if type(row) is list:
            row[:] = [9] * len(row)
    assert m.tolist() == dense


@pytest.mark.parametrize("data", [
    [[1, 0], [0, True]],
    [[Index(2), 0], [1.0, 0]],
    [(1, 0), [0, 1], [Index(1), 2.5]],
], ids=["bool", "float-after-index", "float-last"])
def test_rejected_rows_stay_as_they_were(data):
    before = snapshot(data)
    with pytest.raises(ShapeMismatch, match="not an integer"):
        intmat(data)
    assert_unchanged(data, before)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_rows_are_the_nonzeros_of_the_lists(data):
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    entries = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-(2**80), 2**80))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    assert intmat(rows, shape=(m, n)).rows == tuple(
        {j: x for j, x in enumerate(r) if x} for r in rows
    )


def test_operations_refuse_mismatched_shapes():
    with pytest.raises(ShapeMismatch):
        identity(2) @ identity(3)
    with pytest.raises(ShapeMismatch):
        identity(2) - identity(3)
    with pytest.raises(IndexError):
        identity(2)[2, 0]


def test_matrices_cannot_be_assigned_into():
    m = identity(2)
    with pytest.raises(TypeError):
        m[0, 0] = 5
    assert m == identity(2)


def test_stack_places_blocks():
    a = intmat([[1, 2]])
    b = intmat([[3]])
    c = intmat([[4, 5], [6, 7]])
    d = intmat([[8], [9]])
    assert stack([[a, b], [c, d]]).tolist() == [[1, 2, 3], [4, 5, 8], [6, 7, 9]]
    assert stack([[zeros(0, 2), zeros(0, 1)], [c, d]]).shape == (2, 3)
    assert stack([[zeros(2, 0), c]]) == c
    with pytest.raises(ShapeMismatch):
        stack([[a, c]])
    with pytest.raises(ShapeMismatch):
        stack([[a], [d]])


def test_constructor_trusts_its_rows():
    # the type is the plain container intmat validates into
    m = IntMatrix((1, 3), [{2: 4}])
    assert m.tolist() == [[0, 0, 4]] and m == intmat([[0, 0, 4]])


def test_cli_runs_without_numpy():
    # nor with the record decorator module or the ``inspect`` it imports,
    # which together took about a third of the start-up, nor with argparse
    # and the ``gettext`` it imports
    script = (
        "import io, sys, contextlib, nccw.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = nccw.cli.main(['compute', {str(FIXTURES / 'rp2.json')!r}, '--pages'])\n"
        "print(code, *(m in sys.modules\n"
        "               for m in ('numpy', 'dataclasses', 'inspect', 'argparse', 'gettext')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] + ["False"] * 5
