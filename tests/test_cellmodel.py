import os
import random

import pytest

from nccw.cellmodel import (
    EndpointPair,
    NCCWStage,
    ProvidedCoboundary,
    boundary_from_endpoints,
    build,
    cochain_complex,
    euler_characteristic,
    from_classical_cw,
    skeleton,
)
from nccw.errors import (
    ComplexViolation,
    EndpointPairAtHigherStage,
    OutOfRange,
    ShapeMismatch,
)
from nccw.exacthom import FGAbelianGroup, intmat, zeros
from nccw.findim import FinDimAlgebra, MultMorphism

from conftest import (
    circle_model,
    dimension_drop_model,
    point_model,
    projective_plane_cw,
    random_stage1_complex,
    snf_homology_oracle,
    sphere_cw,
    torus_cw,
)


class TestBuild:
    def test_point(self):
        x = point_model()
        assert x.cochain.ranks == (1,)

    def test_circle(self):
        x = circle_model()
        assert x.cochain.ranks == (1, 1)
        assert x.cochain.differentials[0].tolist() == [[0]]

    def test_dd_violation(self):
        stages = [
            NCCWStage(0, FinDimAlgebra([1])),
            NCCWStage(1, FinDimAlgebra([1]), ProvidedCoboundary([[1]])),
            NCCWStage(2, FinDimAlgebra([1]), ProvidedCoboundary([[1]])),
        ]
        with pytest.raises(ComplexViolation) as err:
            build(stages)
        assert err.value.degree == 0

    def test_endpoint_pair_only_at_stage_one(self):
        a0 = FinDimAlgebra([1])
        f = FinDimAlgebra([1])
        ep = EndpointPair(MultMorphism(a0, f, [[1]]), MultMorphism(a0, f, [[1]]))
        stages = [
            NCCWStage(0, a0),
            NCCWStage(1, f, ProvidedCoboundary([[0]])),
            NCCWStage(2, f, ep),
        ]
        with pytest.raises(EndpointPairAtHigherStage):
            build(stages)

    def test_stage_order_enforced(self):
        with pytest.raises(ShapeMismatch):
            build([NCCWStage(0, FinDimAlgebra([1])), NCCWStage(2, FinDimAlgebra([1]), ProvidedCoboundary([[0]]))])

    def test_missing_stage_zero(self):
        with pytest.raises(ShapeMismatch):
            build([])


class TestBoundaryFromEndpoints:
    def test_dimension_drop(self):
        a0, f1 = FinDimAlgebra([1, 1]), FinDimAlgebra([2])
        d = boundary_from_endpoints(
            EndpointPair(MultMorphism(a0, f1, [[2, 0]]), MultMorphism(a0, f1, [[0, 2]]))
        )
        assert d.tolist() == [[2, -2]]

    def test_circle(self):
        a0 = FinDimAlgebra([1])
        f = MultMorphism(a0, a0, [[1]])
        assert boundary_from_endpoints(EndpointPair(f, f)).tolist() == [[0]]

    def test_interval(self):
        a0, f1 = FinDimAlgebra([1, 1]), FinDimAlgebra([1])
        d = boundary_from_endpoints(
            EndpointPair(MultMorphism(a0, f1, [[1, 0]]), MultMorphism(a0, f1, [[0, 1]]))
        )
        assert d.tolist() == [[1, -1]]

    def test_antisymmetric(self):
        rng = random.Random(21)
        for _ in range(25):
            x = random_stage1_complex(rng)
            att = x.stages[1].attaching
            fwd = boundary_from_endpoints(att)
            bwd = boundary_from_endpoints(EndpointPair(att.phi1, att.phi0))
            assert fwd == -bwd


class TestCochainComplex:
    def test_circle(self):
        c = cochain_complex(circle_model(), "K")
        assert c.ranks == (1, 1) and c.differentials[0].tolist() == [[0]]
        assert c.ring == "Z" and c.differentials[0].shape == (c.ranks[1], c.ranks[0])

    def test_dimension_drop(self):
        c = cochain_complex(dimension_drop_model(2), "K")
        assert c.ranks == (2, 1) and c.differentials[0].tolist() == [[2, -2]]

    def test_sphere_zero_middle(self):
        c = cochain_complex(sphere_cw(), "K")
        assert c.ranks == (1, 0, 1)
        assert all(d.is_zero for d in c.differentials)

    def test_hp_ring(self):
        assert cochain_complex(circle_model(), "HP").ring == "Q"

    def test_unknown_theory(self):
        with pytest.raises(ValueError, match="unknown theory 'X'"):
            cochain_complex(circle_model(), "X")


class TestFromClassicalCW:
    def test_rp2_against_homology_oracle(self):
        boundaries = [intmat([[0]]), intmat([[2]])]
        h = snf_homology_oracle([1, 1, 1], boundaries)
        assert h == [FGAbelianGroup.free(1), FGAbelianGroup.cyclic(2), FGAbelianGroup.trivial()]
        x = from_classical_cw([1, 1, 1], boundaries)
        assert x.cochain.differentials[0].tolist() == [[0]]
        assert x.cochain.differentials[1].tolist() == [[2]]

    def test_sphere(self):
        x = sphere_cw()
        assert x.cochain.ranks == (1, 0, 1)
        assert all(d.is_zero for d in x.cochain.differentials)

    def test_torus_against_homology_oracle(self):
        boundaries = [intmat([[0, 0]]), intmat([[0], [0]])]
        h = snf_homology_oracle([1, 2, 1], boundaries)
        assert h[1] == FGAbelianGroup.free(2)
        x = from_classical_cw([1, 2, 1], boundaries)
        assert x.cochain.ranks == (1, 2, 1)

    def test_transposition_round_trip(self):
        rng = random.Random(19)
        for _ in range(10):
            counts = [rng.randint(1, 3) for _ in range(3)]
            b1 = zeros(counts[0], counts[1])
            b2 = zeros(counts[1], counts[2])
            x = from_classical_cw(counts, [b1, b2])
            c = cochain_complex(x, "K")
            assert c.differentials[0] == b1.T
            assert c.differentials[1] == b2.T

    def test_dd_violation_detected(self):
        with pytest.raises(ComplexViolation):
            from_classical_cw([1, 1, 1], [intmat([[1]]), intmat([[1]])])

    def test_dd_violation_degree_in_caller_orientation(self):
        # del_1 del_2 = 0, but del_2 del_3 = [[1]]
        boundaries = [intmat([[0]]), intmat([[1]]), intmat([[1]])]
        with pytest.raises(ComplexViolation) as err:
            from_classical_cw([1, 1, 1, 1], boundaries)
        assert err.value.degree == 1


class TestSkeleton:
    def test_full_skeleton_is_identity(self):
        x = projective_plane_cw()
        assert skeleton(x, 2).cochain.ranks == x.cochain.ranks

    def test_point_of_circle(self):
        sk = skeleton(circle_model(), 0)
        assert sk.cochain.ranks == (1,) and sk.cochain.top_degree == 0

    def test_circle_of_rp2(self):
        sk = skeleton(projective_plane_cw(), 1)
        assert sk.cochain.ranks == (1, 1)
        assert sk.cochain.differentials[0].tolist() == [[0]]

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            skeleton(circle_model(), 2)
        with pytest.raises(OutOfRange):
            skeleton(circle_model(), -1)


class TestEulerCharacteristic:
    def test_surfaces(self):
        assert euler_characteristic(sphere_cw()) == 2
        assert euler_characteristic(torus_cw()) == 0
        assert euler_characteristic(projective_plane_cw()) == 1

    def test_matches_cell_count_sum(self):
        rng = random.Random(14)
        for _ in range(15):
            x = random_stage1_complex(rng)
            assert euler_characteristic(x) == x.cochain.ranks[0] - x.cochain.ranks[1]


class TestStageValidation:
    def test_stage_zero_with_attaching_rejected(self):
        with pytest.raises(ShapeMismatch):
            NCCWStage(0, FinDimAlgebra([1]), ProvidedCoboundary([[0]]))

    def test_higher_stage_needs_attaching(self):
        with pytest.raises(ShapeMismatch):
            NCCWStage(1, FinDimAlgebra([1]))

    def test_endpoint_shape_checked(self):
        a0, f1 = FinDimAlgebra([1, 1]), FinDimAlgebra([2])
        other = FinDimAlgebra([3])
        with pytest.raises(ShapeMismatch):
            EndpointPair(
                MultMorphism(a0, f1, [[2, 0]]), MultMorphism(a0, other, [[1, 1]])
            )

    def test_wrong_coboundary_shape(self):
        stages = [
            NCCWStage(0, FinDimAlgebra([1, 1])),
            NCCWStage(1, FinDimAlgebra([1]), ProvidedCoboundary([[1]])),
        ]
        with pytest.raises(ShapeMismatch):
            build(stages)


def test_endpoint_morphisms_must_start_at_stage_zero():
    a0 = FinDimAlgebra([1])
    other = FinDimAlgebra([1, 1])
    f1 = FinDimAlgebra([2])
    ep = EndpointPair(MultMorphism(other, f1, [[1, 1]]), MultMorphism(other, f1, [[1, 1]]))
    with pytest.raises(ShapeMismatch):
        build([NCCWStage(0, a0), NCCWStage(1, f1, ep)])


def test_endpoint_morphisms_must_land_in_the_stage_one_algebra():
    a0 = FinDimAlgebra([1, 1])
    f3 = FinDimAlgebra([3])
    ep = EndpointPair(MultMorphism(a0, f3, [[1, 1]]), MultMorphism(a0, f3, [[1, 1]]))
    with pytest.raises(ShapeMismatch, match="must land in the stage-1 cell algebra"):
        build([NCCWStage(0, a0), NCCWStage(1, FinDimAlgebra([2]), ep)])


class TestDdCheckedOnce:
    """d after d = 0 is checked where a complex is first built; the ring
    change and the first page reuse it, and only the reduced complex is
    checked a second time."""

    S5 = os.path.join(os.path.dirname(__file__), "golden", "s5_signed.json")

    @pytest.mark.parametrize("theory", ["k", "hp"])
    def test_compute_checks_each_pair_once(self, monkeypatch, capsys, theory):
        import nccw.exacthom
        from nccw.cli import load_complex, main

        _, model = load_complex(self.S5)
        reduced = nccw.exacthom.reduce_complex(model.cochain)
        calls = []
        original = nccw.exacthom.product_is_zero

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return original(a, b)

        monkeypatch.setattr(nccw.exacthom, "product_is_zero", counting)
        assert main(["compute", self.S5, "--theory", theory, "--pages"]) == 0
        capsys.readouterr()

        def pairs(ranks):
            return [((ranks[p + 2], ranks[p + 1]), (ranks[p + 1], ranks[p]))
                    for p in range(len(ranks) - 2)]

        assert model.cochain.ranks == (7, 21, 35, 35, 21, 7)
        assert calls == pairs(model.cochain.ranks) + pairs(reduced.ranks)

    def test_ring_change_checks_nothing(self, monkeypatch):
        import nccw.exacthom

        model = projective_plane_cw()
        monkeypatch.setattr(nccw.exacthom, "product_is_zero", None)
        hp = cochain_complex(model, "HP")
        assert hp.ring == "Q" and hp.differentials == model.cochain.differentials
        assert hp.with_ring("Z") == model.cochain
