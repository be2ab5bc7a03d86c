"""Unit-pivot reduction of cochain complexes and the sparse d after d check.

Every expectation here is read from the unreduced complex (degree by
degree with ``conftest.cohomology_oracle``, on sympy's invariant factors),
from the pieces a test complex is built of, or from dense products of
plain lists, so the reduction and the sparse product are never checked
against themselves.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccw.errors import ComplexViolation, ShapeMismatch
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    IntMatrix,
    all_cohomology,
    intmat,
    product_is_zero,
    reduce_complex,
    zeros,
)

from conftest import cohomology_oracle, dense_product, dense_product_is_zero, small_complexes


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
    assert all_cohomology(c) == cohomology_oracle(c)
    h = dual(c)
    assert all_cohomology(h) == cohomology_oracle(h)


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
        assert cohomology_oracle(r) == cohomology_oracle(x)


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


def simplex_sphere(n, rng=None):
    """The boundary of the (n+1)-simplex, S^n, in cochain orientation.
    With ``rng`` the cells of every degree are relabelled and re-signed,
    which moves the units of each row to other columns and leaves the
    cohomology alone."""
    faces = [list(itertools.combinations(range(n + 2), p + 1)) for p in range(n + 1)]
    perm = [list(range(len(fs))) for fs in faces]
    sign = [[1] * len(fs) for fs in faces]
    if rng is not None:
        for p, fs in enumerate(faces):
            rng.shuffle(perm[p])
            sign[p] = [rng.choice((-1, 1)) for _ in fs]
    index = [{f: perm[p][i] for i, f in enumerate(fs)} for p, fs in enumerate(faces)]
    mats = []
    for p in range(n):
        mat = [[0] * len(faces[p]) for _ in faces[p + 1]]
        for f in faces[p + 1]:
            i = index[p + 1][f]
            for t in range(len(f)):
                j = index[p][f[:t] + f[t + 1:]]
                mat[i][j] = (-1) ** t * sign[p + 1][i] * sign[p][j]
        mats.append(intmat(mat, shape=(len(faces[p + 1]), len(faces[p]))))
    return CochainComplex("Z", [len(fs) for fs in faces], mats)


def test_simplex_boundary_reduces_to_two_cells():
    # boundary of the 3-simplex: S^2 with 4, 6, 4 cells
    c = simplex_sphere(2)
    assert c.ranks == (4, 6, 4)
    r = reduce_complex(c)
    assert r.ranks == (1, 0, 1)
    assert all_cohomology(c) == [FGAbelianGroup.free(1), FGAbelianGroup.trivial(),
                                 FGAbelianGroup.free(1)]


def unimodular(n, rng, steps):
    """A random unimodular n x n matrix and its inverse, as lists of rows:
    ``steps`` row additions, negations and swaps on the identity, and the
    inverse column operations on a second identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.choice(("add", "add", "negate", "swap"))
        if kind == "add":
            k = rng.choice((-1, 1))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
            for row in inv:
                row[j] -= k * row[i]
        elif kind == "negate":
            u[i] = [-a for a in u[i]]
            for row in inv:
                row[i] = -row[i]
        else:
            u[i], u[j] = u[j], u[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
    return u, inv


def hidden_torsion_complex(rng, free, pieces):
    """``free[p]`` free generators in degree p and, for each ``(p, d)`` of
    ``pieces``, a pair ``Z --d--> Z`` from degree p to p + 1, with the basis
    of every degree changed by a random unimodular matrix, so that the
    differentials are dense and the torsion hidden.  Returns the complex and
    its cohomology, read off the pieces: ``Z^free[q]`` plus ``Z/d`` for each
    piece into degree q."""
    ranks = list(free)
    places = []
    for p, d in pieces:
        places.append((p, ranks[p], ranks[p + 1], d))
        ranks[p] += 1
        ranks[p + 1] += 1
    plain = [[[0] * ranks[p] for _ in range(ranks[p + 1])] for p in range(len(ranks) - 1)]
    for p, i, j, d in places:
        plain[p][j][i] = d
    bases = [unimodular(r, rng, 4 * r) for r in ranks]
    mats = [
        intmat(dense_product(dense_product(bases[p + 1][0], plain[p], ranks[p]), bases[p][1],
                             ranks[p]), shape=(ranks[p + 1], ranks[p]))
        for p in range(len(plain))
    ]
    expected = [
        FGAbelianGroup.from_cyclic_orders([d for p, d in pieces if p + 1 == q], free[q])
        for q in range(len(ranks))
    ]
    return CochainComplex("Z", ranks, mats), expected


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_signed_permuted_spheres_match_the_oracle(n, seed):
    c = simplex_sphere(n, random.Random(100 * n + seed))
    sphere = [FGAbelianGroup.free(1)] + [FGAbelianGroup.trivial()] * (n - 1) + [
        FGAbelianGroup.free(1)]
    for x in (c, dual(c)):
        assert reduce_complex(x).ranks == (1,) + (0,) * (n - 1) + (1,)
        assert all_cohomology(x) == cohomology_oracle(x) == sphere


@pytest.mark.parametrize("seed", range(8))
def test_hidden_torsion_matches_the_oracle(seed):
    rng = random.Random(1800 + seed)
    k = rng.randint(2, 4)
    free = [rng.randint(0, 2) for _ in range(k + 1)]
    # one contractible pair at least, so that the reduction has work
    pieces = [(rng.randrange(k), rng.choice((1, 1, 2, 3, 4, 6, 12))) for _ in range(rng.randint(1, 5))]
    pieces.append((rng.randrange(k), 1))
    c, expected = hidden_torsion_complex(rng, free, pieces)
    assert any(v in (1, -1) for d in c.differentials for v in d.flat)
    assert sum(len(row) for d in c.differentials for row in d.rows) > len(pieces)
    assert all_cohomology(c) == cohomology_oracle(c) == expected
    h = dual(c)
    assert all_cohomology(h) == cohomology_oracle(h)


def test_boundary_of_the_8_simplex_reduces_to_two_cells():
    c = simplex_sphere(7)
    assert sum(c.ranks) == 510
    assert reduce_complex(c).ranks == (1, 0, 0, 0, 0, 0, 0, 1)
    assert reduce_complex(dual(c)).ranks == (1, 0, 0, 0, 0, 0, 0, 1)


def aliasing_pair(t, k):
    """``a``, k ones in a row, and ``b`` with ``a @ b == [[k 2^t, -1]] != 0``.
    For k = 1 and 2 its packed row reads zero at one bit less than the
    width, and for k = 2 also at the width of a bound that leaves out the
    inner dimension."""
    return intmat([[1] * k]), intmat([[2**t, -1]] + [[2**t, 0]] * (k - 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_is_zero_agrees_with_dense_product(data):
    kind = data.draw(st.sampled_from(["random", "zero", "aliasing"]))
    m, k, n = (data.draw(st.integers(0, 8)) for _ in range(3))

    def rows(nrows, ncols):
        bound = data.draw(st.sampled_from([3, 2**70]))
        entries = st.integers(-bound, bound)
        return data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))

    if kind == "aliasing":
        # t rising, so that a bound kept from an earlier matrix is too small
        # for a later one
        pairs = [aliasing_pair(t, j) for t in range(1, 131) for j in (1, 2)]
    elif kind == "zero":
        # [p p] stacked over [q; -q], the inner index shuffled: zero by construction
        r = k // 2
        p, q = rows(m, r), rows(r, n)
        order = data.draw(st.permutations(range(2 * r)))
        a_rows = [[row[c % r] for c in order] for row in p]
        b_rows = [q[c] if c < r else [-x for x in q[c - r]] for c in order]
        pairs = [(intmat(a_rows, shape=(m, 2 * r)), intmat(b_rows, shape=(2 * r, n)))]
    else:
        pairs = [(intmat(rows(m, k), shape=(m, k)), intmat(rows(k, n), shape=(k, n)))]
    for a, b in pairs:
        assert product_is_zero(a, b) == dense_product_is_zero(a, b)
        if kind != "random":
            assert product_is_zero(a, b) == (kind == "zero")


def test_product_is_zero_never_forms_the_product(monkeypatch):
    rng = random.Random(40)
    p = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(40)]
    q = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(20)]
    a = intmat([row + row for row in p])
    b_rows = q + [[-x for x in row] for row in q]
    b = intmat(b_rows)
    b_rows[39][7] += 1
    off = intmat(b_rows)
    assert a.shape == b.shape == (40, 40)
    assert dense_product_is_zero(a, b) and not dense_product_is_zero(a, off)

    def refuse(self, other):
        raise AssertionError("product_is_zero formed the product")

    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    assert product_is_zero(a, b)
    assert not product_is_zero(a, off)
    with pytest.raises(ShapeMismatch):
        product_is_zero(a, intmat(q))


def test_violation_reports_degree_of_the_failing_pair():
    good = intmat([[1], [1]])
    bad = intmat([[1, 0]])
    with pytest.raises(ComplexViolation) as exc:
        CochainComplex("Z", [1, 2, 1, 0], [good, bad, zeros(0, 1)])
    assert exc.value.degree == 0
    with pytest.raises(ComplexViolation) as exc:
        CochainComplex("Z", [0, 1, 2, 1], [zeros(1, 0), good, bad])
    assert exc.value.degree == 1
