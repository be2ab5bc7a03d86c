"""Unit-pivot reduction of cochain complexes and the sparse d after d check.

Every expectation here is read from the unreduced complex (degree by
degree with ``cohomology_at``) or from dense products of plain lists, so
the reduction and the sparse product are never checked against
themselves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccw.errors import ComplexViolation
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    cohomology_at,
    intmat,
    product_is_zero,
    reduce_complex,
    zeros,
)

from conftest import dense_product_is_zero, small_complexes


def euler(c):
    return sum((-1) ** p * r for p, r in enumerate(c.ranks))


def dense_dd_zero(c):
    return all(dense_product_is_zero(b, a) for a, b in zip(c.differentials, c.differentials[1:]))


def dual(c):
    """The dual complex with its degrees reversed: degree ``p`` holds the
    generators of degree ``k - p`` of ``c`` and the map out of it is the
    transpose of the map of ``c`` into degree ``k - p``.  Its pivots are
    those of ``c`` met from the other end."""
    return CochainComplex(c.ring, c.ranks[::-1], [d.T for d in c.differentials[::-1]])


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_all_cohomology_matches_unreduced_degrees(c):
    groups = all_cohomology(c)
    assert groups == [cohomology_at(c, p) for p in range(c.top_degree + 1)]
    h = dual(c)
    assert all_cohomology(h) == [cohomology_at(h, p) for p in range(h.top_degree + 1)]


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_reduced_complex_keeps_euler_and_dd(c):
    for x in (c, dual(c)):
        r = reduce_complex(x)
        assert (r.ring, r.top_degree) == (x.ring, x.top_degree)
        assert euler(r) == euler(x)
        assert all(a <= b for a, b in zip(r.ranks, x.ranks))
        assert dense_dd_zero(r)
        assert not any(v in (1, -1) for d in r.differentials for v in d.flat)
        assert [cohomology_at(r, p) for p in range(r.top_degree + 1)] == [
            cohomology_at(x, p) for p in range(x.top_degree + 1)
        ]


def test_torsion_survives_reduction():
    # Z --(1, 2)--> Z^2 --(2, -1)--> Z is acyclic: the first pivot leaves
    # the unit -1, and the second pair cancels too
    c = CochainComplex("Z", [1, 2, 1], [intmat([[1], [2]]), intmat([[2, -1]])])
    assert reduce_complex(c).ranks == (0, 0, 0)
    assert all_cohomology(c) == [FGAbelianGroup.trivial()] * 3
    # Z --(1, 0)--> Z^2 --(0, 5)--> Z: one pair cancels, Z/5 is left in degree 2
    c2 = CochainComplex("Z", [1, 2, 1], [intmat([[1], [0]]), intmat([[0, 5]])])
    r = reduce_complex(c2)
    assert r.ranks == (0, 1, 1)
    assert r.differentials[1].tolist() == [[5]]
    assert all_cohomology(c2) == [
        FGAbelianGroup.trivial(),
        FGAbelianGroup.trivial(),
        FGAbelianGroup.cyclic(5),
    ]


def test_complex_without_units_comes_back_unchanged():
    c = CochainComplex("Z", [1, 1], [intmat([[2]])])
    assert reduce_complex(c) is c


def test_simplex_boundary_reduces_to_two_cells():
    # boundary of the 3-simplex, cochain orientation: S^2 with 4, 6, 4 cells
    verts = [(0,), (1,), (2,), (3,)]
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    tris = [(a, b, c) for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4)]

    def coboundary(src, dst):
        mat = [[0] * len(src) for _ in dst]
        for i, face in enumerate(dst):
            for t in range(len(face)):
                mat[i][src.index(face[:t] + face[t + 1 :])] = (-1) ** t
        return intmat(mat, shape=(len(dst), len(src)))

    c = CochainComplex("Z", [4, 6, 4], [coboundary(verts, edges), coboundary(edges, tris)])
    r = reduce_complex(c)
    assert r.ranks == (1, 0, 1)
    assert all_cohomology(c) == [FGAbelianGroup.free(1), FGAbelianGroup.trivial(),
                                 FGAbelianGroup.free(1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_is_zero_agrees_with_dense_product(data):
    m = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, 5))
    n = data.draw(st.integers(0, 5))
    entries = st.integers(-3, 3)
    a = intmat(data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                                  min_size=m, max_size=m)), shape=(m, k))
    b = intmat(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=k, max_size=k)), shape=(k, n))
    assert product_is_zero(a, b) == dense_product_is_zero(a, b)


def test_violation_reports_degree_of_the_failing_pair():
    good = intmat([[1], [1]])
    bad = intmat([[1, 0]])
    with pytest.raises(ComplexViolation) as exc:
        CochainComplex("Z", [1, 2, 1, 0], [good, bad, zeros(0, 1)])
    assert exc.value.degree == 0
    with pytest.raises(ComplexViolation) as exc:
        CochainComplex("Z", [0, 1, 2, 1], [zeros(1, 0), good, bad])
    assert exc.value.degree == 1
