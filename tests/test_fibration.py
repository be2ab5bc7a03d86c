import os
import random

import pytest

from nccw.cellmodel import cochain_complex
from nccw.constructions import CellularMorphism
from nccw.errors import UnresolvedExtension
from nccw.exacthom import CochainComplex, FGAbelianGroup, intmat, matrix_rank
from nccw.fibration import compute_total, leray_serre_e2, relative_coefficients
from nccw.ssengine import PARITY_EVEN, PARITY_ODD, compute_theories

from conftest import (
    circle_model,
    dimension_drop_model,
    parity_sums,
    projective_plane_cw,
    random_cochain_complex,
    torus_cw,
)

Z = FGAbelianGroup.free(1)
ZERO = CochainComplex("Z", [0], [])
POINT = CochainComplex("Z", [1], [])


def circle_cochain():
    return cochain_complex(circle_model(), "K")


class TestFibrationReplace:
    def test_point_into_circle(self):
        # the replacement's total model is the codomain, onto which the
        # cylinder retracts; the morphism records the embedded point
        f = CellularMorphism(POINT, circle_cochain(), [intmat([[1]])])
        even, odd = compute_theories(f.dst, "K")
        assert even.group == Z and odd.group == Z
        assert f.src == POINT


class TestRelativeCoefficients:
    def test_identity_morphism(self):
        circ = circle_cochain()
        assert relative_coefficients(CellularMorphism.identity_on(circ), "K") == (
            FGAbelianGroup.trivial(),
            FGAbelianGroup.trivial(),
        )

    def test_identity_trivial_on_random_complexes(self):
        rng = random.Random(109)
        for _ in range(12):
            c = random_cochain_complex(rng, max_k=3, max_rank=3)
            ident = CellularMorphism.identity_on(c)
            assert relative_coefficients(ident, "K") == (
                FGAbelianGroup.trivial(),
                FGAbelianGroup.trivial(),
            )

    def test_point_into_circle(self):
        f = CellularMorphism(POINT, circle_cochain(), [intmat([[1]])])
        assert relative_coefficients(f, "K") == (FGAbelianGroup.trivial(), Z)

    def test_map_to_zero_suspends(self):
        rng = random.Random(97)
        for _ in range(10):
            c = random_cochain_complex(rng, max_k=2, max_rank=3)
            base_even, base_odd = parity_sums(c)
            if base_even.torsion and base_odd.torsion:
                continue
            f = CellularMorphism.zero_map(c, ZERO)
            try:
                got = relative_coefficients(f, "K")
            except UnresolvedExtension:
                continue
            assert got == (base_odd, base_even)

    def test_unresolved_extension_refused(self):
        rp2 = cochain_complex(projective_plane_cw(), "K")
        f = CellularMorphism.zero_map(ZERO, rp2)
        # the cone of 0 -> RP^2 is RP^2, whose even K is Z (+) Z/2 up to extension
        with pytest.raises(UnresolvedExtension, match="^relative even group is only known"):
            relative_coefficients(f, "K")


class TestSecondPageRefusals:
    """Each refusal comes before any cohomology is computed."""

    @pytest.fixture
    def cohomology_calls(self, monkeypatch):
        import nccw.fibration

        calls = []
        original = nccw.fibration.all_cohomology
        monkeypatch.setattr(nccw.fibration, "all_cohomology",
                            lambda c: calls.append(c) or original(c))
        return calls

    def test_hp_torsion_rejected(self, cohomology_calls):
        base = cochain_complex(circle_model(), "HP")
        with pytest.raises(ValueError, match="^HP coefficients must be torsion-free$"):
            leray_serre_e2(base, FGAbelianGroup.cyclic(2), Z, "HP")
        assert cohomology_calls == []

    def test_ring_checked(self, cohomology_calls):
        with pytest.raises(ValueError, match="^theory HP needs a base over Q$"):
            leray_serre_e2(circle_cochain(), Z, Z, "HP")
        assert cohomology_calls == []

    def test_unknown_theory(self, cohomology_calls):
        with pytest.raises(ValueError, match="unknown theory 'X'"):
            leray_serre_e2(circle_cochain(), Z, Z, "X")
        assert cohomology_calls == []


class TestLeraySerreE2:
    def test_circle_with_free_coefficients(self):
        page = leray_serre_e2(circle_cochain(), Z, Z, "K")
        assert page.r == 2
        expected = {(p, parity) for p in (0, 1) for parity in (PARITY_EVEN, PARITY_ODD)}
        assert set(page.entries.keys()) == expected
        assert all(g == Z for g in page.entries.values())

    def test_point_base_reproduces_coefficients(self):
        g_even = FGAbelianGroup(2, (3,))
        g_odd = FGAbelianGroup.cyclic(4)
        page = leray_serre_e2(POINT, g_even, g_odd, "K")
        assert page.entry(0, PARITY_EVEN) == g_even
        assert page.entry(0, PARITY_ODD) == g_odd

    def test_zero_coefficients_zero_page(self):
        t = FGAbelianGroup.trivial()
        page = leray_serre_e2(circle_cochain(), t, t, "K")
        assert not page.entries

    def test_point_coefficients_match_cellular_e2(self):
        # coefficients of a point reduce to the plain second page of the base
        from nccw.ssengine import from_cellular, turn_page

        rng = random.Random(101)
        for _ in range(10):
            base = random_cochain_complex(rng, max_k=3, max_rank=3)
            page = leray_serre_e2(base, Z, FGAbelianGroup.trivial(), "K")
            cellular = turn_page(from_cellular(base, "K")).pages[-1]
            assert dict(page.entries) == dict(cellular.entries)

    def test_hp_counts_ranks(self):
        base = cochain_complex(circle_model(), "HP")
        page = leray_serre_e2(base, FGAbelianGroup.free(2), FGAbelianGroup.trivial(), "HP")
        assert page.entry(0, PARITY_EVEN) == FGAbelianGroup.free(2)
        assert page.entry(1, PARITY_EVEN) == FGAbelianGroup.free(2)


class TestComputeTotal:
    def test_torus_cross_check(self):
        even, odd = compute_total(leray_serre_e2(circle_cochain(), Z, Z, "K"))
        direct_even, direct_odd = compute_theories(cochain_complex(torus_cw(), "K"), "K")
        assert even.group == direct_even.group == FGAbelianGroup.free(2)
        assert odd.group == direct_odd.group == FGAbelianGroup.free(2)
        assert {a.note for a in (even, odd, direct_even, direct_odd)} == {"exact"}

    def test_point_base(self):
        page = leray_serre_e2(POINT, FGAbelianGroup.free(2), FGAbelianGroup.trivial(), "K")
        even, odd = compute_total(page)
        assert even.group == FGAbelianGroup.free(2) and odd.group.is_trivial

    def test_dimension_drop_base(self):
        base = cochain_complex(dimension_drop_model(2), "K")
        even, odd = compute_total(leray_serre_e2(base, Z, FGAbelianGroup.trivial(), "K"))
        assert even.group == Z
        assert odd.group == FGAbelianGroup.cyclic(2)

    def test_kunneth_parity_convolution(self):
        # trivial product of two collapsed complexes: totals must equal the
        # parity convolution of the factors
        rng = random.Random(103)
        for _ in range(10):
            base = random_cochain_complex(rng, max_k=2, max_rank=3)
            fiber_even = FGAbelianGroup.free(rng.randint(0, 2))
            fiber_odd = FGAbelianGroup.free(rng.randint(0, 2))
            even, odd = compute_total(leray_serre_e2(base, fiber_even, fiber_odd, "K"))
            be, bo = parity_sums(base)
            want_even_rank = (
                be.free_rank * fiber_even.free_rank + bo.free_rank * fiber_odd.free_rank
            )
            want_odd_rank = (
                be.free_rank * fiber_odd.free_rank + bo.free_rank * fiber_even.free_rank
            )
            assert even.group.free_rank == want_even_rank
            assert odd.group.free_rank == want_odd_rank


class TestSecondPageBuiltOnce:
    def test_base_reduced_once_for_both_parities(self, monkeypatch, capsys):
        import nccw.exacthom
        from nccw.cli import main

        calls = []
        original = nccw.exacthom.reduce_complex

        def counting(c):
            calls.append(c.ranks)
            return original(c)

        monkeypatch.setattr(nccw.exacthom, "reduce_complex", counting)
        base = os.path.join(os.path.dirname(__file__), "golden", "s5_signed.json")
        argv = ["fibration", "--base", base, "--coeff-even", "Z/2", "--coeff-odd", "Z/3"]
        assert main(argv) == 0
        assert "odd: Z/6" in capsys.readouterr().out
        assert len(calls) == 1

    def test_hp_column_is_base_cohomology_times_rank(self):
        rng = random.Random(23)
        for _ in range(10):
            base = random_cochain_complex(rng, max_k=3, max_rank=3, ring="Q")
            g = FGAbelianGroup.free(rng.randint(1, 3))
            page = leray_serre_e2(base, g, g, "HP")
            for p in range(base.top_degree + 1):
                rank = (base.rank(p) - matrix_rank(base.differential(p))
                        - matrix_rank(base.differential(p - 1)))
                for parity in (PARITY_EVEN, PARITY_ODD):
                    assert page.entry(p, parity) == FGAbelianGroup.free(g.free_rank * rank)

    def test_compute_total_takes_the_built_page(self, monkeypatch):
        import nccw.fibration

        page2 = leray_serre_e2(circle_cochain(), Z, FGAbelianGroup.cyclic(2), "K")
        expected = compute_total(page2)

        def refuse(*_args):
            raise AssertionError("second page built again")

        monkeypatch.setattr(nccw.fibration, "leray_serre_e2", refuse)
        assert compute_total(page2) == expected
        assert expected[0].group == expected[1].group == FGAbelianGroup(1, (2,))

    def test_cli_builds_second_page_once(self, monkeypatch, capsys, tmp_path):
        import nccw.fibration
        from nccw.cli import main

        calls = []
        original = nccw.fibration.leray_serre_e2

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(nccw.fibration, "leray_serre_e2", counting)
        path = tmp_path / "circle.json"
        path.write_text('{"classical_cw": {"counts": [1, 1], "boundaries": [[[0]]]}}')
        code = main(["fibration", "--base", str(path), "--coeff-even", "Z", "--coeff-odd", "Z/2"])
        assert code == 0
        assert len(calls) == 1
        assert "even: Z (+) Z/2" in capsys.readouterr().out
