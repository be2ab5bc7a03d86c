import random

import pytest

from nccw.cellmodel import cochain_complex
from nccw.constructions import (
    CellularMorphism,
    mapping_cone_complex,
    mapping_cylinder,
    relative_assemblies,
    suspend,
)
from nccw.errors import InvalidMorphism, ShapeMismatch
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    identity,
    intmat,
    zeros,
)
from nccw.ssengine import compute_theories

from conftest import (
    circle_model,
    dense_product_is_zero,
    direct_sum_complexes,
    parity_sums,
    projective_plane_cw,
    random_cochain_complex,
)

Z = FGAbelianGroup.free(1)
ZERO = CochainComplex("Z", [0], [])


def groups_of(c, theory="K"):
    even, odd = compute_theories(c, theory)
    return even.group, odd.group


class TestCellularMorphism:
    def test_commuting_squares_enforced(self):
        src = CochainComplex("Z", [1, 1], [intmat([[1]])])
        dst = CochainComplex("Z", [1, 1], [intmat([[2]])])
        with pytest.raises(InvalidMorphism):
            CellularMorphism(src, dst, [intmat([[1]]), intmat([[1]])])
        # doubling in degree 1 fixes the square: 2*1 == 2*1
        CellularMorphism(src, dst, [intmat([[1]]), intmat([[2]])])

    def test_missing_degrees_are_zero(self):
        circ = cochain_complex(circle_model(), "K")
        f = CellularMorphism(circ, circ, [identity(1)])
        assert f.map_at(1).tolist() == [[0]]

    def test_ring_mismatch(self):
        with pytest.raises(InvalidMorphism):
            CellularMorphism(ZERO, CochainComplex("Q", [1], []), [])

    def test_degree_maps_must_fit_the_complexes(self):
        circ = cochain_complex(circle_model(), "K")
        with pytest.raises(ShapeMismatch, match="more degree maps than degrees"):
            CellularMorphism(circ, circ, [identity(1)] * 3)
        with pytest.raises(ShapeMismatch, match=r"shape \(1, 2\), expected \(1, 1\)"):
            CellularMorphism(circ, circ, [intmat([[1, 0]])])


class TestSuspend:
    def test_point(self):
        even, odd = groups_of(suspend(CochainComplex("Z", [1], [])))
        assert even.is_trivial and odd == Z

    def test_circle(self):
        circ = cochain_complex(circle_model(), "K")
        even, odd = groups_of(suspend(circ))
        assert even == Z and odd == Z

    def test_parity_swap_and_double_suspension(self):
        rng = random.Random(71)
        for _ in range(20):
            c = random_cochain_complex(rng)
            base = parity_sums(c)
            once = parity_sums(suspend(c))
            twice = parity_sums(suspend(suspend(c)))
            assert once == (base[1], base[0])
            assert twice == base


class TestCone:
    """The cone is the mapping cone of the identity."""

    def test_always_trivial(self):
        for theory in ("K", "HP"):
            c = cochain_complex(projective_plane_cw(), theory)
            even, odd = relative_assemblies(CellularMorphism.identity_on(c), theory)
            assert even.group == odd.group == FGAbelianGroup.trivial()

    def test_zero_input(self):
        even, odd = relative_assemblies(CellularMorphism.identity_on(ZERO), "K")
        assert even.group == odd.group == FGAbelianGroup.trivial()


class TestMappingCylinder:
    def test_identity_on_circle(self):
        circ = cochain_complex(circle_model(), "K")
        model, embedded = mapping_cylinder(CellularMorphism.identity_on(circ))
        assert groups_of(model) == groups_of(circ)
        assert embedded.src == circ and embedded.dst == model

    def test_theories_equal_codomain(self):
        rng = random.Random(73)
        for _ in range(15):
            src = random_cochain_complex(rng, max_k=2, max_rank=3)
            other = random_cochain_complex(rng, max_k=2, max_rank=3)
            dst = direct_sum_complexes(src, other)
            maps = []
            for p in range(max(src.top_degree, dst.top_degree) + 1):
                m = [[int(i == j) for j in range(src.rank(p))] for i in range(dst.rank(p))]
                maps.append(intmat(m, shape=(dst.rank(p), src.rank(p))))
            f = CellularMorphism(src, dst, maps)
            model, embedded = mapping_cylinder(f)
            assert groups_of(model) == groups_of(dst)
            # the embedded record is f itself, not a re-checked copy
            assert model is dst and embedded is f

    def test_invalid_morphism_propagates(self):
        src = CochainComplex("Z", [1, 1], [intmat([[1]])])
        dst = CochainComplex("Z", [1, 1], [intmat([[2]])])
        with pytest.raises(InvalidMorphism):
            mapping_cylinder(CellularMorphism(src, dst, [identity(1), identity(1)]))


class TestMappingCone:
    def test_identity_is_acyclic(self):
        rng = random.Random(79)
        for _ in range(12):
            c = random_cochain_complex(rng, max_k=2, max_rank=3)
            cone_c = mapping_cone_complex(CellularMorphism.identity_on(c))
            assert all(g.is_trivial for g in all_cohomology(cone_c))

    def test_point_into_circle(self):
        pt = CochainComplex("Z", [1], [])
        circ = cochain_complex(circle_model(), "K")
        f = CellularMorphism(pt, circ, [intmat([[1]])])
        even, odd = relative_assemblies(f, "K")
        assert even.group.is_trivial
        assert odd.group == Z

    def test_map_to_zero_is_suspension(self):
        rng = random.Random(83)
        for _ in range(12):
            c = random_cochain_complex(rng, max_k=2, max_rank=3)
            f = CellularMorphism.zero_map(c, ZERO)
            got = groups_of(mapping_cone_complex(f))
            want = parity_sums(suspend(c))
            assert got == want

    def test_dd_zero_for_every_valid_morphism(self):
        # CochainComplex construction would raise if the composite were
        # nonzero; exercise a nontrivial morphism to be explicit
        circ = cochain_complex(circle_model(), "K")
        f = CellularMorphism(circ, circ, [intmat([[3]]), intmat([[3]])])
        cone_c = mapping_cone_complex(f)
        for p in range(cone_c.top_degree):
            assert dense_product_is_zero(cone_c.differential(p + 1), cone_c.differential(p))

    def test_scaling_map_on_circle(self):
        # multiplication by n on the circle: relative groups Z/n at both
        # parities (cokernel in each degree)
        circ = cochain_complex(circle_model(), "K")
        f = CellularMorphism(circ, circ, [intmat([[3]]), intmat([[3]])])
        even, odd = relative_assemblies(f, "K")
        assert even.group == FGAbelianGroup.cyclic(3)
        assert odd.group == FGAbelianGroup.cyclic(3)


def six_term_rank_balance(src, dst, f, theory="K"):
    src_e, src_o = parity_sums(src)
    dst_e, dst_o = parity_sums(dst)
    cone_e, cone_o = groups_of(mapping_cone_complex(f), theory)
    ranks = [
        src_e.free_rank,
        dst_e.free_rank,
        cone_e.free_rank,
        src_o.free_rank,
        dst_o.free_rank,
        cone_o.free_rank,
    ]
    return ranks[0] - ranks[1] + ranks[2] - ranks[3] + ranks[4] - ranks[5]


class TestLongExactSequence:
    def test_alternating_rank_sum_vanishes(self):
        rng = random.Random(89)
        pt = CochainComplex("Z", [1], [])
        circ = cochain_complex(circle_model(), "K")
        cases = [
            CellularMorphism.identity_on(circ),
            CellularMorphism(pt, circ, [intmat([[1]])]),
            CellularMorphism(circ, circ, [intmat([[3]]), intmat([[3]])]),
            CellularMorphism.zero_map(circ, ZERO),
        ]
        for _ in range(10):
            src = random_cochain_complex(rng, max_k=2, max_rank=3)
            cases.append(CellularMorphism.identity_on(src))
            cases.append(CellularMorphism.zero_map(src, ZERO))
        for f in cases:
            assert six_term_rank_balance(f.src, f.dst, f) == 0
