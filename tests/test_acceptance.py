"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is equality of canonical forms (no tolerances anywhere); each
criterion prints its own PASS line on completion, so a failed assertion
is immediately attributable.
"""

import json
import os
import random

from nccw import exacthom
from nccw.cellmodel import cochain_complex, from_classical_cw
from nccw.cli import main
from nccw.constructions import (
    CellularMorphism,
    mapping_cone_complex,
    relative_assemblies,
    suspend,
)
from nccw.exacthom import (
    CochainComplex,
    FGAbelianGroup,
    determinant,
    intmat,
    smith_normal_form,
)
from nccw.fibration import compute_total, leray_serre_e2
from nccw.ssengine import assemble, compute_theories, from_cellular, turn_page

from conftest import (
    circle_cw,
    dense_product,
    dense_product_is_zero,
    dimension_drop_model,
    interval_cw,
    parity_sums,
    projective_plane_cw,
    random_cochain_complex,
    random_stage1_complex,
    six_term_oracle,
    sphere_cw,
    torus_cw,
)

Z = FGAbelianGroup.free(1)
TRIVIAL = FGAbelianGroup.trivial()
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS  ({text})")


def _suite_complexes():
    """The shared random family for criteria 4 and 5: >= 100 valid
    complexes with k <= 3, ranks <= 4, entries in [-3, 3]."""
    rng = random.Random(20260810)
    return [random_cochain_complex(rng, max_k=3, max_rank=4, max_entry=3) for _ in range(110)]


SUITE = _suite_complexes()


def test_criterion_1_classical_cw_oracles():
    point = from_classical_cw([1], [])
    cases = {
        "point": (point, Z, TRIVIAL, True),
        "interval": (interval_cw(), Z, TRIVIAL, True),
        "circle": (circle_cw(), Z, Z, True),
        "sphere": (sphere_cw(), FGAbelianGroup.free(2), TRIVIAL, True),
        "torus": (torus_cw(), FGAbelianGroup.free(2), FGAbelianGroup.free(2), True),
        "rp2": (projective_plane_cw(), FGAbelianGroup(1, (2,)), TRIVIAL, False),
    }
    for name, (model, want_even, want_odd, exact) in cases.items():
        c = cochain_complex(model, "K")
        even, odd = compute_theories(c, "K")
        # independent oracle: degreewise cohomology from sympy's invariant
        # factors, summed by parity without any page machinery
        oracle_even, oracle_odd = parity_sums(c)
        assert even.group == oracle_even == want_even, name
        assert odd.group == oracle_odd == want_odd, name
        if exact:
            assert even.note == odd.note == "exact", name
    rp2_even = compute_theories(cochain_complex(projective_plane_cw(), "K"), "K")[0]
    assert rp2_even.note == "up_to_extension"
    assert list(rp2_even.pieces) == [Z, FGAbelianGroup.cyclic(2)]
    assert rp2_even.group == FGAbelianGroup(1, (2,))
    report(1, "point/interval/circle/S2/T2/RP2 match the direct cellular oracle")


def test_criterion_2_dimension_drop_torsion():
    for p in (2, 3, 5):
        model = dimension_drop_model(p)
        even, odd = compute_theories(cochain_complex(model, "K"), "K")
        delta = intmat([[p, -p]])
        assert model.cochain.differentials[0] == delta
        ker, coker = six_term_oracle(delta)
        assert even.group == ker == Z and even.note == "exact"
        assert odd.group == coker == FGAbelianGroup.cyclic(p) and odd.note == "exact"
        hp_even, hp_odd = compute_theories(cochain_complex(model, "HP"), "HP")
        assert hp_even.group == Z and hp_odd.group.is_trivial
    report(2, "I_p gives K = (Z, Z/p) against the six-term SNF oracle, HP = (Q, 0)")


def test_criterion_3_one_dimensional_sweep():
    rng = random.Random(31415)
    count = 0
    while count < 200:
        x = random_stage1_complex(rng, max_blocks=3, max_mult=3)
        even, odd = compute_theories(cochain_complex(x, "K"), "K")
        ker, coker = six_term_oracle(x.cochain.differentials[0])
        assert (even.group, even.note) == (ker, "exact")
        assert (odd.group, odd.note) == (coker, "exact")
        count += 1
    report(3, f"{count} random stage-1 complexes match the six-term oracle exactly")


def test_criterion_4_engine_laws():
    assert len(SUITE) >= 100
    checked_snf = 0
    for c in SUITE:
        k = c.top_degree
        # dd = 0 enforced
        for p in range(k - 1):
            assert dense_product_is_zero(c.differential(p + 1), c.differential(p))
        ss = from_cellular(c, "K")
        pages = [ss.pages[0]]
        for _ in range(k + 2):
            ss = turn_page(ss)
            pages.append(ss.pages[-1])
        # stabilization by r = k + 1
        stable = pages[k]  # page index r = k + 1
        for later in pages[k:]:
            assert stable.entries == later.entries
        # free ranks never increase from page to page
        for a, b in zip(pages, pages[1:]):
            for key, g in b.entries.items():
                assert g.free_rank <= a.entries[key].free_rank
        # Euler characteristic equals even rank minus odd rank
        even, odd = assemble(ss)
        chi = sum((-1) ** p * c.rank(p) for p in range(k + 1))
        assert chi == even.group.free_rank - odd.group.free_rank
        # SNF postconditions re-verified on the complex's own matrices
        # (every internal factorization already self-checks on each call)
        for d in c.differentials:
            u, dd, v = smith_normal_form(d)
            ud = dense_product(u.tolist(), d.tolist(), d.shape[1])
            assert dense_product(ud, v.tolist(), v.shape[1]) == dd.tolist()
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            diag = [int(dd[i, i]) for i in range(min(dd.shape))]
            for i in range(len(diag) - 1):
                assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
            checked_snf += 1
    report(4, f"{len(SUITE)} complexes: dd=0, stabilization, rank monotonicity,"
              f" Euler counts, {checked_snf} SNF factorizations verified")


def test_criterion_5_construction_laws():
    zero = CochainComplex("Z", [0], [])
    for c in SUITE:
        base = parity_sums(c)
        # suspension swaps parities, double suspension restores
        assert parity_sums(suspend(c)) == (base[1], base[0])
        assert parity_sums(suspend(suspend(c))) == base
        # the cone, the mapping cone of the identity, is trivial
        ident = CellularMorphism.identity_on(c)
        rational = CochainComplex("Q", c.ranks, c.differentials)
        for f, theory in ((ident, "K"), (CellularMorphism.identity_on(rational), "HP")):
            assert all(a.group.is_trivial for a in relative_assemblies(f, theory))
        # cylinder of the identity retracts onto the codomain, whose
        # theories it carries
        model_even, model_odd = compute_theories(ident.dst, "K")
        assert (model_even.group, model_odd.group) == base
        # mapping cone of the identity is acyclic
        assert all(g.is_trivial for g in exacthom.all_cohomology(mapping_cone_complex(ident)))
        # cone of (src -> 0) reproduces the suspension
        to_zero = CellularMorphism.zero_map(c, zero)
        cone_even, cone_odd = compute_theories(mapping_cone_complex(to_zero), "K")
        susp_even, susp_odd = parity_sums(suspend(c))
        assert (cone_even.group, cone_odd.group) == (susp_even, susp_odd)
    report(5, f"suspension/cone/cylinder/mapping-cone laws on all {len(SUITE)} complexes")


def test_criterion_6_leray_serre_cross_checks():
    circle = cochain_complex(circle_cw(), "K")
    even, odd = compute_total(leray_serre_e2(circle, Z, Z, "K"))
    torus_even, torus_odd = compute_theories(cochain_complex(torus_cw(), "K"), "K")
    assert even.group == torus_even.group == FGAbelianGroup.free(2)
    assert odd.group == torus_odd.group == FGAbelianGroup.free(2)
    assert {a.note for a in (even, odd, torus_even, torus_odd)} == {"exact"}

    point = CochainComplex("Z", [1], [])
    for g_even, g_odd in [
        (FGAbelianGroup.free(2), TRIVIAL),
        (FGAbelianGroup(1, (4,)), FGAbelianGroup.cyclic(3)),
    ]:
        ev, od = compute_total(leray_serre_e2(point, g_even, g_odd, "K"))
        assert ev.group == g_even and od.group == g_odd

    i2 = cochain_complex(dimension_drop_model(2), "K")
    ev, od = compute_total(leray_serre_e2(i2, Z, TRIVIAL, "K"))
    assert ev.group == Z and od.group == FGAbelianGroup.cyclic(2)
    report(6, "circle x (Z,Z) = T2, point base reproduces coefficients, I2 base recurs")


def test_criterion_7_cli_contract(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    for name in ("rp2.json", "i2.json", "torus.json"):
        path = os.path.join(FIXTURES, name)
        code1, out1 = run("compute", path, "--json", "--pages")
        code2, out2 = run("compute", path, "--json", "--pages")
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)

    code_ok, _ = run("validate", os.path.join(FIXTURES, "circle.json"))
    code_domain, _ = run("validate", os.path.join(FIXTURES, "ddviolation.json"))
    code_parse, _ = run("validate", os.path.join(FIXTURES, "malformed.json"))
    assert (code_ok, code_domain, code_parse) == (0, 1, 2)
    report(7, "fixtures byte-stable across runs; exit codes 0/1/2 exercised")
