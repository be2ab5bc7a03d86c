"""Coefficient cohomology by the universal coefficient theorem, and the
Smith normal forms behind plain cohomology.

The coefficient groups are checked against the block-diagonal free
expansion in ``conftest.coefficient_expansion``, whose plain cohomology
involves no Tor or tensor arithmetic; canonical forms of cyclic sums are
checked against the Smith normal form of their diagonal matrix.
"""

import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccw import exacthom
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    cohomology_with_coefficients,
    intmat,
    reduce_complex,
    snf_diagonal,
)

from conftest import (
    coefficient_expansion,
    cohomology_oracle,
    pairwise_cyclic_group,
    small_complexes,
)

groups = st.builds(
    FGAbelianGroup.from_cyclic_orders,
    st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 9, 12]), max_size=3),
)


@settings(max_examples=120, deadline=None)
@given(small_complexes(rings=("Z",)), groups)
def test_coefficients_match_free_expansion(c, group):
    expected = all_cohomology(coefficient_expansion(c, group))[1:]
    assert cohomology_with_coefficients(c, group, all_cohomology(c)) == expected


@settings(max_examples=60, deadline=None)
@given(small_complexes(rings=("Q",)), st.integers(0, 3))
def test_rational_coefficients_scale_ranks(c, n):
    got = cohomology_with_coefficients(c, FGAbelianGroup.free(n), all_cohomology(c))
    assert got == [FGAbelianGroup.free(n * g.free_rank) for g in all_cohomology(c)]


def test_rational_torsion_coefficients_refused():
    c = CochainComplex("Q", [1, 1], [intmat([[0]])])
    with pytest.raises(ValueError):
        cohomology_with_coefficients(c, FGAbelianGroup(1, (2,)), all_cohomology(c))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=7))
def test_cyclic_orders_match_smith_form_of_diagonal(orders):
    n = len(orders)
    diag = snf_diagonal(intmat([[d if i == j else 0 for j in range(n)] for i, d in
                                enumerate(orders)], shape=(n, n)))
    expected = FGAbelianGroup(n - len(diag), tuple(d for d in diag if d >= 2))
    assert FGAbelianGroup.from_cyclic_orders(orders) == expected


smooth_orders = st.builds(
    lambda a, b, c, d, sign: sign * 2**a * 3**b * 5**c * 7**d,
    st.integers(0, 6), st.integers(0, 4), st.integers(0, 2), st.integers(0, 1),
    st.sampled_from([1, -1]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-60, 60), smooth_orders, st.integers(1, 2**70)),
             max_size=40),
    st.integers(0, 3),
)
def test_cyclic_orders_match_pairwise_exchange(orders, free):
    expected = pairwise_cyclic_group(orders, free)
    assert FGAbelianGroup.from_cyclic_orders(orders, free) == expected


def test_cyclic_orders_many_equal_copies():
    # interleaved orders keep the chain at a few runs only if runs of
    # equal factors merge; without the merge this takes seconds
    start = time.perf_counter()
    group = FGAbelianGroup.from_cyclic_orders([2, 6] * 5000 + [4, 0, 3])
    elapsed = time.perf_counter() - start
    assert group == FGAbelianGroup(1, (2,) * 5000 + (6,) * 5000 + (12,))
    assert elapsed < 1.0


def count_factorizations():
    """Spies on the Smith normal form core, the rank and the transform
    builder of ``exacthom``."""
    return (mock.patch.object(exacthom, "_smith_core", wraps=exacthom._smith_core),
            mock.patch.object(exacthom, "matrix_rank", wraps=exacthom.matrix_rank),
            mock.patch.object(exacthom, "_transform", wraps=exacthom._transform))


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_one_smith_form_per_reduced_differential(c):
    # over Z one Smith normal form per reduced differential, over Q one
    # certified rank and none; no transform is built either way
    spy_core, spy_rank, spy_transform = count_factorizations()
    with spy_core as core, spy_rank as rank, spy_transform as transform:
        all_cohomology(c)
    maps = len(reduce_complex(c).differentials)
    expected = (maps, 0) if c.ring == "Z" else (0, maps)
    assert (core.call_count, rank.call_count) == expected
    assert transform.call_count == 0


def test_one_degree_takes_two_smith_forms():
    # no unit entries, so nothing is reduced away: the middle degree is
    # read from the two maps around it, over Z one Smith normal form each,
    # over Q a certified rank each and no Smith normal form
    for ring, calls, expected in [("Z", (2, 0), FGAbelianGroup(0, (2,))),
                                  ("Q", (0, 2), FGAbelianGroup.trivial())]:
        c = CochainComplex(ring, [2, 2, 1], [intmat([[2, 0], [0, 0]]), intmat([[0, 3]])])
        spy_core, spy_rank, spy_transform = count_factorizations()
        with spy_core as core, spy_rank as rank, spy_transform as transform:
            groups = all_cohomology(c)
        assert (core.call_count, rank.call_count) == calls
        assert transform.call_count == 0
        assert groups[1] == expected
        assert groups == cohomology_oracle(c)
