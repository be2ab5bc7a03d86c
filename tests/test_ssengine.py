import random

import pytest

from nccw.cellmodel import cochain_complex
from nccw.errors import NotACocycleMap, OutOfRange, ShapeMismatch
from nccw.exacthom import CochainComplex, FGAbelianGroup, intmat, zeros
from nccw.ssengine import (
    PARITY_EVEN,
    PARITY_ODD,
    Page,
    assemble,
    compute_theories,
    e_infinity,
    from_cellular,
    from_e2_page,
    set_higher_differential,
    turn_page,
)

from conftest import (
    circle_model,
    cohomology_oracle,
    parity_sums,
    point_model,
    projective_plane_cw,
    random_cochain_complex,
    random_stage1_complex,
    six_term_oracle,
    sphere_cw,
)

Z = FGAbelianGroup.free(1)


def i2_complex():
    return CochainComplex("Z", [2, 1], [intmat([[2, -2]])])


class TestFromCellular:
    def test_point(self):
        ss = from_cellular(cochain_complex(point_model(), "K"), "K")
        page = ss.pages[0]
        assert page.r == 1
        assert dict(page.entries) == {(0, PARITY_EVEN): Z}

    def test_circle(self):
        ss = from_cellular(cochain_complex(circle_model(), "K"), "K")
        page = ss.pages[0]
        assert page.entry(0, 0) == Z and page.entry(1, 0) == Z
        assert not page.differentials

    def test_dimension_drop(self):
        ss = from_cellular(i2_complex(), "K")
        page = ss.pages[0]
        assert page.entry(0, 0) == FGAbelianGroup.free(2)
        assert page.entry(1, 2) == Z
        assert page.differentials[(0, PARITY_EVEN)].tolist() == [[2, -2]]

    def test_odd_rows_are_implicit_zeros(self):
        ss = from_cellular(cochain_complex(circle_model(), "K"), "K")
        assert ss.pages[0].entry(0, 1).is_trivial
        assert ss.pages[0].entry(0, 3).is_trivial

    def test_ring_theory_agreement_enforced(self):
        with pytest.raises(ValueError):
            from_cellular(i2_complex(), "HP")
        with pytest.raises(ValueError):
            from_cellular(CochainComplex("Q", [1], []), "K")
        with pytest.raises(ValueError, match="unknown theory 'X'"):
            from_cellular(i2_complex(), "X")


class TestTurnPage:
    def test_i2_second_page(self):
        ss = turn_page(from_cellular(i2_complex(), "K"))
        page = ss.pages[-1]
        assert page.r == 2
        assert page.entry(0, 0) == Z
        assert page.entry(1, 0) == FGAbelianGroup.cyclic(2)

    def test_identity_after_stabilization(self):
        rng = random.Random(41)
        for _ in range(10):
            c = random_cochain_complex(rng)
            ss = from_cellular(c, "K")
            while ss.current_r < ss.stabilized_at:
                ss = turn_page(ss)
            before = ss.pages[-1]
            after = turn_page(ss).pages[-1]
            assert before.entries == after.entries

    def test_hp_pages_never_carry_torsion(self):
        rng = random.Random(43)
        for _ in range(15):
            c = random_cochain_complex(rng, ring="Q")
            ss = from_cellular(c, "HP")
            for _ in range(c.top_degree + 2):
                ss = turn_page(ss)
                assert all(g.torsion == () for g in ss.pages[-1].entries.values())

    def test_free_rank_and_generator_count_monotone(self):
        rng = random.Random(47)
        for _ in range(20):
            c = random_cochain_complex(rng)
            ss = from_cellular(c, "K")
            for _ in range(c.top_degree + 1):
                prev = ss.pages[-1]
                ss = turn_page(ss)
                cur = ss.pages[-1]
                for key, g in cur.entries.items():
                    old = prev.entries[key]
                    assert g.free_rank <= old.free_rank
                    assert g.ngens <= old.ngens


class TestSetHigherDifferential:
    def test_zero_matrix_reproduces_default(self):
        ss = turn_page(from_cellular(i2_complex(), "K"))
        ss2 = set_higher_differential(ss, 2, 0, 0, zeros(0, 1))
        assert not ss2.pages[-1].differentials

    def test_parity_forces_zero_on_even_pages(self):
        # target row of an even-row d^2 is odd, hence trivial: the only
        # matrix with the right shape is the empty (0 x n) zero map
        ss = turn_page(from_cellular(i2_complex(), "K"))
        entry = ss.pages[-1].entry(0, 0)
        assert entry == Z
        assert ss.pages[-1].entry(2, -1).is_trivial
        ss2 = set_higher_differential(ss, 2, 0, 0, zeros(0, 1))
        assert not ss2.pages[-1].differentials
        with pytest.raises(ShapeMismatch):
            set_higher_differential(ss, 2, 0, 0, intmat([[1]]))

    def test_wrong_shape_rejected(self):
        c = CochainComplex("Z", [1, 0, 0, 1], [zeros(0, 1), zeros(0, 0), zeros(1, 0)])
        ss = turn_page(turn_page(from_cellular(c, "K")))
        with pytest.raises(ShapeMismatch):
            set_higher_differential(ss, 3, 0, 0, intmat([[1, 1]]))

    def test_page_must_exist(self):
        ss = from_cellular(i2_complex(), "K")
        with pytest.raises(OutOfRange):
            set_higher_differential(ss, 2, 0, 0, zeros(0, 1))

    def test_r_below_two_rejected(self):
        ss = from_cellular(i2_complex(), "K")
        with pytest.raises(OutOfRange):
            set_higher_differential(ss, 1, 0, 0, intmat([[0]]))

    def test_genuine_d3_changes_the_answer(self):
        c = CochainComplex("Z", [1, 0, 0, 1], [zeros(0, 1), zeros(0, 0), zeros(1, 0)])
        ss = turn_page(turn_page(from_cellular(c, "K")))
        assert ss.pages[-1].r == 3
        ss = set_higher_differential(ss, 3, 0, 0, intmat([[5]]))
        even, odd = assemble(ss)
        assert even.group.is_trivial
        assert odd.group == FGAbelianGroup.cyclic(5)

    @pytest.mark.parametrize("entry, survivor", [(5, FGAbelianGroup.trivial()), (0, Z)])
    def test_hp_d3_turns_over_q(self, entry, survivor):
        # over Q the map 5 is invertible, so no Z/5 is left behind
        c = CochainComplex("Q", [1, 0, 0, 1], [zeros(0, 1), zeros(0, 0), zeros(1, 0)])
        ss = turn_page(turn_page(from_cellular(c, "HP")))
        ss = set_higher_differential(ss, 3, 0, 0, intmat([[entry]]))
        even, odd = assemble(ss)
        assert even.group == survivor
        assert odd.group == survivor

    def test_ill_defined_torsion_map_rejected(self):
        # page 3 holds Z/2 at p = 1; a map sending its generator to a free
        # generator cannot be well defined
        c = CochainComplex(
            "Z", [2, 1, 0, 0, 1], [intmat([[2, -2]]), zeros(0, 1), zeros(0, 0), zeros(1, 0)]
        )
        ss = turn_page(turn_page(from_cellular(c, "K")))
        page = ss.pages[-1]
        assert page.entry(1, 0) == FGAbelianGroup.cyclic(2)
        assert page.entry(4, -2) == Z
        with pytest.raises(NotACocycleMap):
            set_higher_differential(ss, 3, 1, 0, intmat([[1]]))

    def test_composite_must_vanish(self):
        ranks = [1, 0, 0, 1, 0, 0, 1]
        diffs = [zeros(ranks[p + 1], ranks[p]) for p in range(6)]
        ss = turn_page(turn_page(from_cellular(CochainComplex("Z", ranks, diffs), "K")))
        ss = set_higher_differential(ss, 3, 0, 0, intmat([[2]]))
        with pytest.raises(NotACocycleMap):
            set_higher_differential(ss, 3, 3, -2, intmat([[3]]))
        # a second differential out of a different chain is fine
        ss = set_higher_differential(ss, 3, 3, -2, intmat([[0]]))

    def test_later_pages_discarded(self):
        c = CochainComplex("Z", [1, 0, 0, 1], [zeros(0, 1), zeros(0, 0), zeros(1, 0)])
        ss = from_cellular(c, "K")
        for _ in range(4):
            ss = turn_page(ss)
        ss2 = set_higher_differential(ss, 3, 0, 0, intmat([[5]]))
        assert ss2.current_r == 3
        assert e_infinity(ss2).entry(0, 0).is_trivial

    def test_chained_differentials_turn_cleanly(self):
        # composable nonzero d^3 pair with vanishing composite: the next
        # page must be computed with both incoming and outgoing maps
        ranks = [1, 0, 0, 2, 0, 0, 1]
        diffs = [zeros(ranks[p + 1], ranks[p]) for p in range(6)]
        ss = turn_page(turn_page(from_cellular(CochainComplex("Z", ranks, diffs), "K")))
        ss = set_higher_differential(ss, 3, 0, 0, intmat([[1], [0]]))
        ss = set_higher_differential(ss, 3, 3, -2, intmat([[0, 1]]))
        page4 = turn_page(ss).pages[-1]
        assert not page4.entries

    def test_composite_with_next_recorded_differential_must_vanish(self):
        # Z at (0, even), (2, odd) and (4, even): d^2 out of (0, 0) lands
        # at (2, -1), whose d^2 into (4, -2) is already recorded
        entries = {(0, PARITY_EVEN): Z, (2, PARITY_ODD): Z, (4, PARITY_EVEN): Z}
        ss = from_e2_page(Page(2, 4, "K", entries, {}))
        ss = set_higher_differential(ss, 2, 2, 1, intmat([[1]]))
        with pytest.raises(NotACocycleMap, match="next differential"):
            set_higher_differential(ss, 2, 0, 0, intmat([[1]]))

    def test_ill_defined_map_names_the_source_relations(self):
        # Z/2 at (0, even) cannot map its generator to a free generator
        entries = {(0, PARITY_EVEN): FGAbelianGroup.cyclic(2), (2, PARITY_ODD): Z}
        ss = from_e2_page(Page(2, 2, "K", entries, {}))
        with pytest.raises(NotACocycleMap, match="source relations"):
            set_higher_differential(ss, 2, 0, 0, intmat([[1]]))

    def test_image_inside_torsion_entry(self):
        from nccw.exacthom import presented_subquotient

        got = presented_subquotient([2], None, [], intmat([[1]]))
        assert got.is_trivial


class TestFromE2Page:
    def test_later_page_refused(self):
        with pytest.raises(OutOfRange):
            from_e2_page(Page(3, 2, "K", {(0, PARITY_EVEN): Z}, {}))


class TestEInfinity:
    def test_sphere_equals_first_page(self):
        ss = from_cellular(cochain_complex(sphere_cw(), "K"), "K")
        stable = e_infinity(ss)
        assert stable.entry(0, 0) == Z and stable.entry(2, 0) == Z
        assert stable.r == 3

    def test_i2(self):
        stable = e_infinity(from_cellular(i2_complex(), "K"))
        assert stable.entry(0, 0) == Z
        assert stable.entry(1, 0) == FGAbelianGroup.cyclic(2)

    def test_rp2_hp_kills_top_cell(self):
        c = cochain_complex(projective_plane_cw(), "HP")
        stable = e_infinity(from_cellular(c, "HP"))
        assert dict(stable.entries) == {(0, PARITY_EVEN): Z}


class TestAssemble:
    def test_sphere(self):
        ss = from_cellular(cochain_complex(sphere_cw(), "K"), "K")
        even, odd = assemble(ss)
        assert [g for g in even.pieces] == [Z, Z]
        assert even.group == FGAbelianGroup.free(2)
        assert even.note == "exact"
        assert odd.group.is_trivial

    def test_both_parities_from_one_stable_page(self, monkeypatch):
        import nccw.ssengine

        calls = []
        real = nccw.ssengine.e_infinity
        monkeypatch.setattr(nccw.ssengine, "e_infinity", lambda ss: calls.append(ss) or real(ss))
        even, odd = assemble(from_cellular(i2_complex(), "K"))
        assert (even.parity, odd.parity) == ("even", "odd")
        assert len(calls) == 1

    def test_i2_single_pieces_resolve(self):
        ss = from_cellular(i2_complex(), "K")
        even, odd = assemble(ss)
        assert (even.group, even.note) == (Z, "exact")
        assert (odd.group, odd.note) == (FGAbelianGroup.cyclic(2), "exact")

    def test_rp2_flags_extension(self):
        ss = from_cellular(cochain_complex(projective_plane_cw(), "K"), "K")
        even, odd = assemble(ss)
        assert list(even.pieces) == [Z, FGAbelianGroup.cyclic(2)]
        assert even.note == "up_to_extension"
        assert even.group == FGAbelianGroup(1, (2,))
        assert odd.group.is_trivial

    def test_two_torsion_pieces_flag_extension(self):
        # Z/2 by Z/2 could be Z/4 or Z/2 (+) Z/2: the sum is reported, flagged
        z2 = FGAbelianGroup.cyclic(2)
        ss = from_e2_page(Page(2, 2, "K", {(0, PARITY_EVEN): z2, (2, PARITY_EVEN): z2}, {}))
        even, _ = assemble(ss)
        assert even.pieces == (z2, z2)
        assert even.group == FGAbelianGroup(0, (2, 2))
        assert even.note == "up_to_extension"

    def test_matches_parity_sums_with_default_differentials(self):
        rng = random.Random(53)
        for _ in range(25):
            c = random_cochain_complex(rng)
            even, odd = compute_theories(c, "K")
            expected = parity_sums(c)
            assert even.group == expected[0]
            assert odd.group == expected[1]

    def test_six_term_oracle_equivalence(self):
        rng = random.Random(59)
        for _ in range(40):
            x = random_stage1_complex(rng)
            even, odd = compute_theories(cochain_complex(x, "K"), "K")
            ker, coker = six_term_oracle(x.cochain.differentials[0])
            assert (even.group, even.note) == (ker, "exact")
            assert (odd.group, odd.note) == (coker, "exact")

    def test_hp_never_flags_extension(self):
        rng = random.Random(61)
        for _ in range(20):
            x = random_stage1_complex(rng)
            even, odd = compute_theories(cochain_complex(x, "HP"), "HP")
            assert even.note == "exact" and odd.note == "exact"
            assert even.group.torsion == () and odd.group.torsion == ()

    def test_second_page_is_stable_with_default_differentials(self):
        rng = random.Random(67)
        for _ in range(15):
            c = random_cochain_complex(rng)
            ss = turn_page(from_cellular(c, "K"))
            assert ss.pages[-1].entries == e_infinity(ss).entries


def _forbid_subquotient(monkeypatch):
    import nccw.exacthom
    import nccw.ssengine

    def boom(*_args, **_kwargs):
        raise AssertionError("presented_subquotient called")

    monkeypatch.setattr(nccw.ssengine, "presented_subquotient", boom)
    monkeypatch.setattr(nccw.exacthom, "presented_subquotient", boom)


def _count_turns(monkeypatch):
    import nccw.ssengine

    calls = []
    original = nccw.ssengine.turn_page

    def counting(ss):
        calls.append(ss.current_r)
        return original(ss)

    monkeypatch.setattr(nccw.ssengine, "turn_page", counting)
    return calls


class TestTurnCost:
    def test_first_turn_reads_rows_without_subquotients(self, monkeypatch):
        _forbid_subquotient(monkeypatch)
        rng = random.Random(61)
        for _ in range(25):
            c = random_cochain_complex(rng, max_k=3, max_rank=4)
            page2 = turn_page(from_cellular(c, "K")).pages[-1]
            groups = [page2.entry(p, PARITY_EVEN) for p in range(c.top_degree + 1)]
            assert groups == cohomology_oracle(c)
            assert not page2.differentials

    def test_first_turn_hp_matches_rational_ranks(self):
        c = cochain_complex(projective_plane_cw(), "HP")
        page2 = turn_page(from_cellular(c, "HP")).pages[-1]
        assert dict(page2.entries) == {(0, PARITY_EVEN): Z}

    def test_first_page_without_source_refused(self):
        # a first page comes only from ``from_cellular``, which keeps its complex
        entries = {(0, PARITY_EVEN): Z, (1, PARITY_EVEN): Z}
        with pytest.raises(ValueError, match="first page"):
            Page(1, 1, "K", entries, {(0, PARITY_EVEN): intmat([[1]])})

    def test_idle_turn_keeps_entries(self, monkeypatch):
        _forbid_subquotient(monkeypatch)
        entries = {(0, PARITY_EVEN): FGAbelianGroup(1, (2,)), (1, 1): FGAbelianGroup.cyclic(3)}
        ss = from_e2_page(Page(2, 2, "K", entries, {}))
        turned = turn_page(ss)
        assert turned.pages[-1].r == 3
        assert dict(turned.pages[-1].entries) == entries

    def test_compute_theories_turns_each_page_once(self, monkeypatch):
        calls = _count_turns(monkeypatch)
        c = cochain_complex(projective_plane_cw(), "K")
        compute_theories(c, "K")
        assert calls == [1, 2]

    def test_compute_pages_turns_each_page_once(self, monkeypatch, capsys, tmp_path):
        from nccw.cli import main

        calls = _count_turns(monkeypatch)
        path = tmp_path / "rp2.json"
        path.write_text('{"classical_cw": {"counts": [1, 1, 1], "boundaries": [[[0]], [[2]]]}}')
        assert main(["compute", str(path), "--pages", "--json"]) == 0
        assert calls == [1, 2]
        assert '"r": 3' in capsys.readouterr().out
