import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nccw import cellmodel, ssengine
from nccw.cli import (
    COMMANDS,
    MODES,
    FileFormatError,
    _check_mode,
    _indented,
    build_parser,
    complex_payload,
    main,
    page_payload,
    parse_complex,
    parse_group,
)
from nccw.exacthom import MAX_LISTED_SUMMANDS, FGAbelianGroup, IntMatrix, intmat, zeros
from nccw.findim import THEORY_K

from conftest import check_cli_contract

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fix(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "validate", fix("rp2.json"))
        assert code == 0
        assert "valid" in out

    def test_dd_violation_names_stage(self, capsys):
        code, _, err = run(capsys, "validate", fix("ddviolation.json"))
        assert code == 1
        assert "stages 1 and 2" in err

    def test_malformed_file(self, capsys):
        code, _, err = run(capsys, "validate", fix("malformed.json"))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "validate", fix("no_such_file.json"))
        assert code == 2

    def test_unencodable_path_cannot_be_read(self):
        # open() refuses a lone surrogate before any byte is read, so the
        # file is unreadable, not a file of bad JSON; only a library caller
        # can pass such a path.  On a strict UTF-8 stderr the error line
        # itself must not raise: the surrogate is written as an escape
        raw, out = io.BytesIO(), io.StringIO()
        err = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "\ud800.json"])
        err.flush()
        assert code == 2 and out.getvalue() == ""
        text = raw.getvalue().decode("utf-8")
        assert text.startswith("error: cannot read \\ud800.json: ") and text.count("\n") == 1, text

    def test_nul_byte_in_path_cannot_be_read(self, capsys):
        # open() refuses the NUL byte before any byte is read, as it does
        # the lone surrogate above
        code, out, err = run(capsys, "compute", "a\x00b.json")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read a\x00b.json: ") and err.count("\n") == 1

    def test_size_overflow_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "overflow.json"
        bad.write_text(
            json.dumps(
                {
                    "stages": [
                        {"dim": 0, "algebra": [1, 1]},
                        {"dim": 1, "F": [2], "phi0": [[3, 0]], "phi1": [[0, 2]]},
                    ]
                }
            )
        )
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "block 0" in err


    def test_zero_block_size_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "zero_block.json"
        bad.write_text(json.dumps({"stages": [{"dim": 0, "algebra": [0]}]}))
        code, out, err = run(capsys, "compute", str(bad))
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "algebra" in err

    def test_deep_nesting_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 5000 + "]" * 5000)
        code, out, err = run(capsys, "compute", str(bad))
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on integer literals in this interpreter")
    def test_oversized_integer_literal_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        literal = "9" * 5000
        bad.write_text(f'{{"classical_cw": {{"counts": [1, 1], "boundaries": [[[{literal}]]]}}}}')
        code, out, err = run(capsys, "compute", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_bytes_are_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_cell_count_is_named(self, capsys, tmp_path):
        bad = tmp_path / "negative.json"
        bad.write_text(
            json.dumps({"classical_cw": {"counts": [1, -1], "boundaries": [[[]]]}})
        )
        code, _, err = run(capsys, "compute", str(bad))
        assert code == 2
        assert err.count("\n") == 1
        assert "classical_cw.counts" in err and "-1" in err
        assert "boundary" not in err

    @pytest.mark.parametrize("entry", [1.5, True, "1", None, [1]])
    def test_non_integer_entry_is_one_error_line(self, capsys, tmp_path, entry):
        bad = tmp_path / "entry.json"
        bad.write_text(
            json.dumps({"classical_cw": {"counts": [1, 1], "boundaries": [[[entry]]]}})
        )
        code, out, err = run(capsys, "compute", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: boundary 1: entry (0,0) is not an integer")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on printing integers in this interpreter")
    def test_oversized_invariant_factor_is_one_error_line(self, capsys):
        # Z/2^9960 (+) Z/3^6280 is Z/(2^9960 3^6280), about 6000 digits
        coeff = f"Z/{2**9960}+Z/{3**6280}"
        code, out, err = run(capsys, "fibration", "--base", fix("point.json"),
                             "--coeff-even", coeff, "--coeff-odd", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: invariant factor") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on printing integers in this interpreter")
    def test_oversized_free_rank_is_one_error_line(self, capsys, tmp_path):
        # Z^(10^4300 - 1) over ten points is a free rank of 4301 digits
        base = tmp_path / "ten_points.json"
        base.write_text(json.dumps({"classical_cw": {"counts": [10], "boundaries": []}}))
        code, out, err = run(capsys, "fibration", "--base", str(base),
                             "--coeff-even", "Z^" + "9" * 4300, "--coeff-odd", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: free rank of 14288 bits") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [[], ["compute"], ["compute", "--theory", "x", "f.json"], ["frobnicate"],
         ["compute", fix("rp2.json"), "--no-such-flag"], ["fibration", "--base"],
         ["fibration", "--base", fix("point.json"), "--coeff-even", "Z", "--coeff-odd", "0",
          "--not-simple"]],
    )
    def test_bad_command_line_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: nccw") and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nccw compute")


def _mode_argv(command, mode, leave_out=None):
    """A command line in ``mode`` with the flags that select it and every
    needed option but ``leave_out``, each path ``/nonexistent``."""
    if command == "transform":
        argv = ["transform", "/nonexistent", "--op", mode]
    elif command == "compute":
        argv = ["compute", "/nonexistent"] + {"groups": [], "pages": ["--pages"],
                                              "json": ["--json"]}[mode]
    else:
        json_flag = ["--json"] if "--json" in MODES[command][mode][0] else []
        argv = ["fibration", "--base", "/nonexistent", *json_flag]
    for flag in MODES[command][mode][1]:
        if flag != leave_out:
            argv += [flag, "/nonexistent"]
    return argv


def mode_refusals():
    """``(argv, refusal)`` for each option a mode does not read, given a
    value other than its default, and for each option it needs, left out;
    then refusals over the fixture files, among them the six command
    lines whose option was once ignored with exit 0."""
    cases = []
    for command, modes in MODES.items():
        defaults = build_parser().values[command]
        for mode, (reads, needs) in modes.items():
            for flag, dest, takes_value, choices, _, _ in COMMANDS[command][2]:
                if flag in reads:
                    continue
                value = ([c for c in choices if c != defaults[dest]][:1] if choices
                         else ["/nonexistent"] if takes_value else [])
                if command != "transform" and flag in ("--pages", "--json"):
                    continue  # it selects a mode that reads every option given
                refusal = f"{mode} does not read {flag}"
                if command == "fibration" and flag in ("--map", "--total"):
                    # it selects map mode, which then refuses the first
                    # coefficient group
                    refusal = f"{mode.replace('coefficients', 'map')} does not read --coeff-even"
                cases.append(pytest.param(_mode_argv(command, mode) + [flag, *value], refusal,
                                          id=f"{mode.replace(' ', '_')}_reads_no{flag}"))
            for flag in needs:
                cases.append(pytest.param(_mode_argv(command, mode, leave_out=flag),
                                          f"{mode} needs {flag}",
                                          id=f"{mode.replace(' ', '_')}_needs{flag}"))
    base = ["fibration", "--base", fix("point.json")]
    coefficients = ["--coeff-even", "Z", "--coeff-odd", "0"]
    return cases + [
        pytest.param([*base, "--map", fix("point_to_circle.json")], "map needs --total",
                     id="map_without_total"),
        pytest.param([*base, "--coeff-even", "Z"], "coefficients needs --coeff-odd",
                     id="one_coefficient"),
        pytest.param([*base, "--coeff-even", "Z", "--coeff-odd", "0", "--total", "/nonexistent"],
                     "map does not read --coeff-even", id="coefficients_and_total"),
        pytest.param([*base, "--coeff-even", "Z", "--coeff-odd", "0",
                      "--map", fix("point_to_circle.json"), "--total", fix("circle.json")],
                     "map does not read --coeff-even", id="coefficients_and_map"),
        pytest.param(["transform", fix("circle.json"), "--op", "mapcone"],
                     "mapcone needs --map", id="map_required"),
        pytest.param(["transform", fix("point.json"), "--op", "cone", "--map", "/nonexistent"],
                     "cone does not read --map", id="cone_ignored_map"),
        pytest.param(["transform", fix("point.json"), "--op", "suspend", "--theory", "hp"],
                     "suspend does not read --theory", id="suspend_ignored_theory"),
        pytest.param(["transform", fix("point.json"), "--op", "suspend", "--json"],
                     "suspend does not read --json", id="suspend_ignored_json"),
        pytest.param(["compute", fix("rp2.json"), "--paper-indexing"],
                     "groups does not read --paper-indexing", id="groups_ignored_paper_indexing"),
        pytest.param(["compute", fix("rp2.json"), "--pages", "--json", "--paper-indexing"],
                     "json does not read --paper-indexing", id="json_ignored_paper_indexing"),
        pytest.param([*base, *coefficients, "--json", "--paper-indexing"],
                     "coefficients json does not read --paper-indexing",
                     id="fibration_json_ignored_paper_indexing"),
    ]


class TestFileFormatRefusals:
    """Each schema refusal is exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "stages",
        [
            [{"dim": 1, "F": [1], "delta": [[1]]}],
            [{"dim": 0, "algebra": [1]}, {"dim": 1, "F": [1]}],
        ],
        ids=["coboundary_before_stage_0", "no_attaching_data"],
    )
    def test_bad_stage(self, tmp_path, stages):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"stages": stages}))
        assert check_cli_contract(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "maps", [{}, [[[1]], [[1]], [[1]]]], ids=["not_a_list", "too_many_degrees"]
    )
    def test_bad_maps(self, tmp_path, maps):
        with open(fix("circle.json")) as fh:
            circle = json.load(fh)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"dst": circle, "maps": maps}))
        argv = ["transform", fix("point.json"), "--op", "mapcone", "--map", str(path)]
        assert check_cli_contract(argv) == 2

    @pytest.mark.parametrize("argv, refusal", mode_refusals())
    def test_mode_refusals(self, capsys, argv, refusal):
        # a /nonexistent path opened first would be refused with another line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: nccw {argv[0]}: {refusal}\n"

    @pytest.mark.parametrize("counts", [[0, 1], [1, 0]], ids=["zero_rows", "zero_columns"])
    def test_empty_boundary_matrix_accepted(self, tmp_path, counts):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"classical_cw": {"counts": counts, "boundaries": [[]]}}))
        assert check_cli_contract(["compute", str(path)]) == 0

    @pytest.mark.parametrize(
        "counts, boundary",
        [([1, 1], [[1], [1]]), ([1, 1], [[1, 2]]), ([1, 1], [[]]), ([0, 1], [[1]]),
         ([2, 1], [[1], 1]), ([1, 1], [1])],
        ids=["extra_row", "long_row", "short_row", "rows_for_zero_rows", "row_not_a_list",
             "not_a_list_of_rows"],
    )
    def test_bad_matrix_shape(self, tmp_path, counts, boundary):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"classical_cw": {"counts": counts, "boundaries": [boundary]}}))
        assert check_cli_contract(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["compute"], ["transform", "--op", "cone"],
         ["transform", "--op", "cylinder", "--map", fix("point_to_circle.json")],
         ["fibration", "--coeff-even", "Z", "--coeff-odd", "0", "--base"]],
        ids=["validate", "compute", "cone", "cylinder", "fibration"],
    )
    def test_lone_surrogate_name(self, tmp_path, argv):
        # a real stdout cannot print the name; the contract checks that
        # everything printed encodes as UTF-8
        path = tmp_path / "surrogate.json"
        cw = {"counts": [1], "boundaries": []}
        path.write_text(json.dumps({"name": "\ud800", "classical_cw": cw}))
        assert check_cli_contract([*argv, str(path)]) == 2


class TestCompute:
    def test_rp2_k(self, capsys):
        code, out, _ = run(capsys, "compute", fix("rp2.json"), "--theory", "k")
        assert code == 0
        assert "even: Z (+) Z/2 (up to extension)" in out
        assert "odd: 0" in out

    def test_i2_k(self, capsys):
        code, out, _ = run(capsys, "compute", fix("i2.json"))
        assert code == 0
        assert "even: Z\n" in out
        assert "odd: Z/2" in out

    def test_rp2_hp(self, capsys):
        code, out, _ = run(capsys, "compute", fix("rp2.json"), "--theory", "hp")
        assert code == 0
        assert "even: Q\n" in out
        assert "odd: 0" in out

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "compute", fix("torus.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["even"]["group"] == "Z^2"
        assert payload["odd"]["group"] == "Z^2"
        assert payload["even"]["up_to_extension"] is False

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", fix("rp2.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        even, odd = payload["even"], payload["odd"]
        assert parse_group(even["group"]) == FGAbelianGroup(1, (2,))
        assert [parse_group(s) for s in even["pieces"]] == [
            FGAbelianGroup.free(1), FGAbelianGroup.cyclic(2)
        ]
        assert parse_group(odd["group"]).is_trivial
        assert all(parse_group(g).render("Z") == g for g in [even["group"], *even["pieces"]])

    def test_pages_dump(self, capsys):
        code, out, _ = run(capsys, "compute", fix("i2.json"), "--pages", "--json")
        payload = json.loads(out)
        rs = [pg["r"] for pg in payload["pages"]]
        assert rs == [1, 2]
        e1 = payload["pages"][0]
        assert e1["differentials"][0]["matrix"] == [[2, -2]]
        assert e1["entries"][0]["paper_p"] == 1 - e1["entries"][0]["p"]

    def test_paper_indexing_display(self, capsys):
        _, internal, _ = run(capsys, "compute", fix("i2.json"), "--pages")
        _, papered, _ = run(capsys, "compute", fix("i2.json"), "--pages", "--paper-indexing")
        assert "d^1: p -> p+1" in internal
        assert "d^1: p -> p-1" in papered

    @pytest.mark.parametrize("n", [48, 60])
    def test_dense_k_within_seconds(self, capsys, tmp_path, n):
        # a random -3..3 boundary: K^1 is its cokernel, of order |det|
        # (from sympy); pivoting on each first remainder took 83 s at
        # n = 48 and over 240 s at n = 60
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(1000 + n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det = int(DomainMatrix(rows, (n, n), ZZ).det())
        assert det != 0
        path = tmp_path / f"pm{n}.json"
        path.write_text(json.dumps({"classical_cw": {"counts": [n, n], "boundaries": [rows]}}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "compute", str(path), "--theory", "k", "--json")
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        assert payload["even"]["group"] == "0"
        terms = payload["odd"]["group"].split(" (+) ")
        assert all(term.startswith("Z/") for term in terms)  # free rank 0
        order = 1
        for term in terms:
            order *= int(term[2:])
        assert order == abs(det)
        assert elapsed < 5.0


class TestByteStability:
    @pytest.mark.parametrize("name", ["rp2.json", "i2.json", "torus.json"])
    def test_identical_across_runs(self, capsys, name):
        _, first, _ = run(capsys, "compute", fix(name), "--json", "--pages")
        _, second, _ = run(capsys, "compute", fix(name), "--json", "--pages")
        assert first == second

    def test_stage_field_reordering(self, capsys, tmp_path):
        original = json.loads(open(fix("i2.json")).read())
        reordered = {
            "stages": [
                {k: v for k, v in sorted(st.items(), reverse=True)}
                for st in original["stages"]
            ],
            "name": original["name"],
        }
        alt = tmp_path / "i2_reordered.json"
        alt.write_text(json.dumps(reordered))
        _, a, _ = run(capsys, "compute", fix("i2.json"), "--json")
        _, b, _ = run(capsys, "compute", str(alt), "--json")
        assert a == b


class TestTransform:
    def test_suspend_emits_complex_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "transform", fix("point.json"), "--op", "suspend")
        assert code == 0
        payload = json.loads(out)
        assert [st["dim"] for st in payload["stages"]] == [0, 1]
        assert payload["stages"][0]["algebra"] == []
        susp = tmp_path / "suspended.json"
        susp.write_text(out)
        code, out2, _ = run(capsys, "compute", str(susp))
        assert code == 0
        assert "even: 0" in out2 and "odd: Z" in out2

    def test_cone_all_zero(self, capsys):
        code, out, _ = run(capsys, "transform", fix("rp2.json"), "--op", "cone")
        assert code == 0
        assert "even: 0" in out and "odd: 0" in out

    def test_mapcone_identity_acyclic(self, capsys, tmp_path):
        morphism = {
            "dst": json.loads(open(fix("circle.json")).read()),
            "maps": [[[1]], [[1]]],
        }
        mpath = tmp_path / "ident.json"
        mpath.write_text(json.dumps(morphism))
        code, out, _ = run(
            capsys, "transform", fix("circle.json"), "--op", "mapcone", "--map", str(mpath)
        )
        assert code == 0
        assert "even: 0" in out and "odd: 0" in out

    def test_mapcone_point_into_circle(self, capsys):
        code, out, _ = run(
            capsys,
            "transform",
            fix("point.json"),
            "--op",
            "mapcone",
            "--map",
            fix("point_to_circle.json"),
        )
        assert code == 0
        assert "even: 0" in out and "odd: Z" in out

    def test_cylinder_takes_codomain_theories(self, capsys):
        code, out, _ = run(
            capsys,
            "transform",
            fix("point.json"),
            "--op",
            "cylinder",
            "--map",
            fix("point_to_circle.json"),
        )
        assert code == 0
        assert "even: Z" in out and "odd: Z" in out

    def test_invalid_morphism_is_domain_error(self, capsys, tmp_path):
        morphism = {
            "dst": json.loads(open(fix("circle.json")).read()),
            "maps": [[[1]], [[1]]],
        }
        mpath = tmp_path / "bad.json"
        mpath.write_text(json.dumps(morphism))
        code, _, err = run(
            capsys, "transform", fix("i2.json"), "--op", "mapcone", "--map", str(mpath)
        )
        assert code in (1, 2)


class TestFibration:
    def test_circle_times_circle(self, capsys):
        code, out, _ = run(
            capsys,
            "fibration",
            "--base",
            fix("circle.json"),
            "--coeff-even",
            "Z",
            "--coeff-odd",
            "Z",
        )
        assert code == 0
        assert "even: Z^2" in out and "odd: Z^2" in out
        assert "page E^2" in out

    def test_coefficients_from_morphism(self, capsys):
        code, out, _ = run(
            capsys,
            "fibration",
            "--base",
            fix("point.json"),
            "--map",
            fix("point_to_circle.json"),
            "--total",
            fix("circle.json"),
        )
        assert code == 0
        # relative groups of point -> circle are (0, Z): coefficients odd only,
        # so over a point base the totals are the coefficients themselves
        assert "even: 0" in out and "odd: Z" in out

    def test_each_path_is_built_once(self, capsys, monkeypatch, tmp_path):
        # the identity of the circle, with --total the same path as --base
        # and then a copy of it at another path: one build per distinct path
        # and the same output either way
        mpath = tmp_path / "identity.json"
        mpath.write_text(json.dumps({"maps": [[[1]], [[1]]]}))
        copy = tmp_path / "circle_copy.json"
        with open(fix("circle.json"), encoding="utf-8") as fh:
            copy.write_text(fh.read())
        builds = []
        real_build = cellmodel.build
        monkeypatch.setattr(cellmodel, "build",
                            lambda stages: builds.append(1) or real_build(stages))
        outputs = {}
        for total, expected in ((fix("circle.json"), 1), (str(copy), 2)):
            builds.clear()
            code, outputs[expected], _ = run(capsys, "fibration", "--base", fix("circle.json"),
                                              "--map", str(mpath), "--total", total)
            assert code == 0
            assert len(builds) == expected
        assert outputs[1] == outputs[2]

    def test_unresolved_extension_refused(self, capsys, tmp_path):
        zero_complex = {"name": "zero", "stages": [{"dim": 0, "algebra": []}]}
        zpath = tmp_path / "zero.json"
        zpath.write_text(json.dumps(zero_complex))
        morphism = {"maps": []}
        mpath = tmp_path / "into_rp2.json"
        mpath.write_text(json.dumps(morphism))
        code, _, err = run(
            capsys,
            "fibration",
            "--base",
            str(zpath),
            "--map",
            str(mpath),
            "--total",
            fix("rp2.json"),
        )
        assert code == 1
        assert "extension" in err

    def test_bad_coefficient_spec(self, capsys):
        code, _, err = run(
            capsys,
            "fibration",
            "--base",
            fix("point.json"),
            "--coeff-even",
            "Z/1",
            "--coeff-odd",
            "0",
        )
        assert code == 2

    def test_hp_torsion_coefficients_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "fibration",
            "--base",
            fix("circle.json"),
            "--theory",
            "hp",
            "--coeff-even",
            "Z/2",
            "--coeff-odd",
            "0",
        )
        assert code == 1
        assert "torsion" in err

    @pytest.mark.parametrize("rank", [10**20 - 1, 10**8])
    def test_free_rank_over_torsion_base_is_capped(self, capsys, rank):
        # H^2(RP^2) = Z/2, so Z^rank coefficients need rank copies of Z/2
        code, out, err = run(capsys, "fibration", "--base", fix("rp2.json"),
                             "--coeff-even", f"Z^{rank}", "--coeff-odd", "0")
        assert code == 1 and out == ""
        assert err == (f"error: H^2 with coefficients has {rank} cyclic summands,"
                       f" more than the limit of {MAX_LISTED_SUMMANDS}\n")

    def test_many_cyclic_summands_within_a_second(self, capsys):
        # the canonical form of 6000 copies of Z/2 is linear in their number
        start = time.perf_counter()
        code, out, _ = run(capsys, "fibration", "--base", fix("rp2.json"),
                           "--coeff-even", "Z^6000", "--coeff-odd", "0")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert f"(p=2, q=even): {' (+) '.join(['Z/2'] * 6000)}\n" in out
        assert elapsed < 1.0


class TestMaxDim:
    def test_cap_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("NCCW_MAX_DIM", "1")
        code, _, err = run(capsys, "compute", fix("rp2.json"))
        assert code == 1
        assert "NCCW_MAX_DIM" in err

    def test_non_integer_cap_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setenv("NCCW_MAX_DIM", "abc")
        code, out, err = run(capsys, "compute", fix("rp2.json"))
        assert code == 1 and out == ""
        assert err == "error: NCCW_MAX_DIM='abc' is not an integer\n"

    def test_default_allows_surfaces(self, capsys, monkeypatch):
        monkeypatch.delenv("NCCW_MAX_DIM", raising=False)
        code, _, _ = run(capsys, "compute", fix("rp2.json"))
        assert code == 0

    @pytest.mark.parametrize("form", ["classical_cw", "stages"])
    def test_cap_checked_before_building(self, capsys, monkeypatch, tmp_path, form):
        import nccw.cellmodel

        def refuse(*_args):
            raise AssertionError("a tower above the cap was built")

        monkeypatch.setattr(nccw.cellmodel, "build", refuse)
        monkeypatch.setattr(nccw.cellmodel, "from_classical_cw", refuse)
        monkeypatch.delenv("NCCW_MAX_DIM", raising=False)
        if form == "classical_cw":
            obj = {"classical_cw": {"counts": [1] * 41, "boundaries": [[[0]]] * 40}}
        else:
            obj = {"stages": [{"dim": 0, "algebra": [1]}]
                   + [{"dim": k, "F": [1], "delta": [[0]]} for k in range(1, 41)]}
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "compute", str(path))
        assert code == 1 and out == ""
        assert err == "error: tower height 40 exceeds NCCW_MAX_DIM=8\n"


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        import nccw.cli

        calls = []
        original = nccw.cli.build_parser

        def counting():
            calls.append(1)
            return original()

        monkeypatch.setattr(nccw.cli, "build_parser", counting)
        nccw.cli._parser.cache_clear()
        try:
            for argv in (["validate", fix("rp2.json")], ["compute", fix("circle.json")]):
                assert main(argv) == 0
        finally:
            nccw.cli._parser.cache_clear()
        assert calls == [1]


class _Reads:
    """A parsed namespace that records the name of each attribute read."""

    def __init__(self, args):
        self.__dict__.update(args=args, names=set())

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.args, name)


class TestModeTable:
    def test_handlers_read_what_their_modes_list(self):
        from test_golden import CLI_CASES

        point, circle = fix("point.json"), fix("circle.json")
        inclusion = fix("point_to_circle.json")
        one_per_mode = [
            ["compute", point],
            ["compute", point, "--pages", "--paper-indexing", "--theory", "hp"],
            ["compute", point, "--json", "--pages"],
            ["transform", point, "--op", "suspend"],
            ["transform", fix("rp2.json"), "--op", "cone"],
            ["transform", point, "--op", "cylinder", "--map", inclusion],
            ["transform", point, "--op", "mapcone", "--map", inclusion, "--theory", "hp"],
            ["fibration", "--base", circle, "--coeff-even", "Z", "--coeff-odd", "0",
             "--paper-indexing"],
            ["fibration", "--base", circle, "--coeff-even", "Z", "--coeff-odd", "0", "--json"],
            ["fibration", "--base", point, "--map", inclusion, "--total", circle,
             "--paper-indexing"],
            ["fibration", "--base", point, "--map", inclusion, "--total", circle, "--json"],
        ]
        seen = {(command, mode): set() for command, modes in MODES.items() for mode in modes}
        for argv in [*CLI_CASES.values(), *one_per_mode]:
            args = build_parser().parse_args(argv)
            _check_mode(args)
            reads = _Reads(args)
            with contextlib.redirect_stdout(io.StringIO()):
                assert args.func(reads) == 0, argv
            flags = {dest: flag for flag, dest, *_ in COMMANDS[args.command][2]}
            read = {flags[name] for name in reads.names if name in flags}
            assert read <= set(MODES[args.command][args.mode][0]), argv
            seen[args.command, args.mode] |= read
        # the flag that selects one of these modes is read by _check_mode;
        # the handler reads the mode instead
        for key, flag in {("compute", "pages"): "--pages", ("compute", "json"): "--json",
                          ("fibration", "coefficients json"): "--json",
                          ("fibration", "map json"): "--json"}.items():
            seen[key].add(flag)
        assert seen == {(command, mode): set(reads) for command, modes in MODES.items()
                        for mode, (reads, _) in modes.items()}

    @pytest.mark.parametrize("command", sorted(MODES))
    def test_help_lists_each_mode(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        out = capsys.readouterr().out
        for mode, (reads, needs) in MODES[command].items():
            assert f"  {mode}: reads {', '.join(reads)}; needs " in out


def parsed(*argv):
    return vars(build_parser().parse_args(list(argv)))


class TestCommandLineGrammar:
    """Examples of the grammar the table is read with;
    ``tests/test_file_fuzz.py`` checks random command lines against
    argparse."""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize(
        "command", [[], ["validate"], ["compute"], ["transform"], ["fibration"]],
        ids=["top", "validate", "compute", "transform", "fibration"],
    )
    def test_help_prints_usage_and_exits_zero(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: nccw", *command, "[-h]"])) and err == ""

    def test_help_is_read_where_it_stands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "x.json", "-h", "--pa"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: nccw compute")
        code, out, err = run(capsys, "compute", "x.json", "--bogus", "-h")
        assert (code, out) == (2, "")
        assert err == "error: nccw compute: unrecognized arguments: --bogus\n"

    def test_abbreviated_and_attached_values(self):
        spelled = parsed("compute", "x.json", "--theory", "hp")
        assert spelled["theory"] == "hp"
        assert parsed("compute", "x.json", "--th", "hp") == spelled
        assert parsed("compute", "x.json", "--theory=hp") == spelled

    def test_prefix_unique_in_one_subcommand_only(self, capsys):
        assert parsed("fibration", "--base", "b.json", "--pa")["paper_indexing"] is True
        code, out, err = run(capsys, "compute", "x.json", "--pa")
        assert code == 2 and out == ""
        assert err == ("error: nccw compute: ambiguous option: --pa could match "
                       "--pages, --paper-indexing\n")

    def test_lone_dash_is_a_value(self):
        assert parsed("fibration", "--base", "-")["base"] == "-"

    @pytest.mark.parametrize(
        "argv",
        [["compute", "x.json"], ["compute", "x.json", "--paper-indexing"],
         ["fibration", "--base", "b.json", "--json"]],
    )
    def test_trailing_double_dash_ends_the_options(self, argv):
        # argparse accepted ``compute x.json --`` but refused the other two;
        # here a trailing ``--`` always ends the options and changes nothing
        assert parsed(*argv, "--") == parsed(*argv)


class TestComplexSerialization:
    @pytest.mark.parametrize("name", ["rp2.json", "i2.json", "torus.json", "circle.json"])
    def test_payload_round_trip(self, name):
        # serializing in provided-coboundary form and re-parsing preserves
        # cell counts and every coboundary matrix
        with open(fix(name)) as fh:
            original_name, original = parse_complex(json.load(fh), "x")
        payload = complex_payload(original_name, original)
        reparsed_name, reparsed = parse_complex(payload, "y")
        assert reparsed_name == original_name
        assert reparsed.cochain.ranks == original.cochain.ranks
        assert reparsed.cochain.differentials == original.cochain.differentials


class TestGroupGrammar:
    def test_parse_examples(self):
        assert parse_group("0").is_trivial
        assert parse_group("Z^2") == FGAbelianGroup.free(2)
        assert parse_group("Z/3+Z") == FGAbelianGroup(1, (3,))
        assert parse_group("Z (+) Z/2 (+) Z/6") == FGAbelianGroup(1, (2, 6))
        assert parse_group("Q^3") == FGAbelianGroup.free(3)

    def test_render_parse_round_trip(self):
        rng = random.Random(107)
        for _ in range(50):
            g = FGAbelianGroup.from_cyclic_orders(
                [rng.choice([0, 0, 2, 3, 4, 9, 12]) for _ in range(rng.randint(0, 4))]
            )
            assert parse_group(g.render()) == g

    def test_rejects_garbage(self):
        for bad in ["Z/x", "W", "Z^0", "Z/-2", "Z/1", "", "Z/1_0", "Q^1_0", "Z/\u0662",
                    "Z^\u0663", "Z/\u00b2", "Z^ 3"]:
            with pytest.raises(FileFormatError):
                parse_group(bad)

    def test_free_rank_is_counted_not_listed(self, capsys):
        # a free rank stays an integer from the command line to the output
        tracemalloc.start()
        try:
            group = parse_group("Z^10000000")
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code, out, _ = run(capsys, "fibration", "--base", fix("point.json"),
                               "--coeff-even", "Z^10000000", "--coeff-odd", "0")
            fibration_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group == FGAbelianGroup.free(10**7)
        assert code == 0 and "even: Z^10000000\n" in out
        assert parse_peak < 5 * 2**20 and fibration_peak < 5 * 2**20


# every key sorted, every string escaped to ASCII, every matrix row one int
# per line: the writer must give the text of the json module's own indenter
json_text = st.lists(
    st.one_of(st.characters(exclude_categories=()),
              st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\ud800",
                               "\udcff", "\U0001f600", "\u00e9"])),
    max_size=6,
).map("".join)
json_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -1))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_text,
              st.sampled_from([[], [[]], [[], []], {}]),
              st.lists(st.lists(json_ints, max_size=4), max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20,
)


int_matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.one_of(st.just(0), json_ints), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ).map(lambda rows: intmat(rows, shape=shape))
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_same_text_as_json_dumps(self, value):
        assert _indented(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_bool_rows_are_not_int_rows(self):
        assert _indented([True, 1]) == "[\n  true,\n  1\n]"

    @settings(max_examples=300, deadline=None)
    @given(int_matrices, st.integers(0, 3))
    @example(zeros(0, 3), 0)
    @example(zeros(2, 0), 1)
    @example(zeros(0, 0), 2)
    def test_matrix_is_written_as_its_dense_rows(self, m, depth):
        value, dense = m, m.tolist()
        for _ in range(depth):  # as deep as a page's differential sits
            value, dense = [{"matrix": value, "p": 0}], [{"matrix": dense, "p": 0}]
        assert _indented(value) == json.dumps(dense, sort_keys=True, indent=2)

    def test_pages_hold_the_matrices_themselves(self):
        model = cellmodel.from_classical_cw([1, 1, 1], [[[0]], [[2]]])
        ss = ssengine.stabilize(ssengine.from_cellular(model.cochain, THEORY_K))
        diffs = [d for pg in ss.pages for d in page_payload(pg, "Z")["differentials"]]
        assert diffs and all(type(d["matrix"]) is IntMatrix for d in diffs)


def simplex_boundary_file(path, n):
    """The boundary of the (n+1)-simplex as a classical complex file."""
    faces = [list(itertools.combinations(range(n + 2), p + 1)) for p in range(n + 1)]
    index = [{f: i for i, f in enumerate(fs)} for fs in faces]
    boundaries = []
    for p in range(n):
        m = [[0] * len(faces[p + 1]) for _ in faces[p]]
        for j, f in enumerate(faces[p + 1]):
            for k in range(len(f)):
                m[index[p][f[:k] + f[k + 1:]]][j] = (-1) ** k
        boundaries.append(m)
    cw = {"counts": [len(fs) for fs in faces], "boundaries": boundaries}
    path.write_text(json.dumps({"name": f"s{n}", "classical_cw": cw}))
    return path


def run_module(argv, **env):
    return subprocess.Popen([sys.executable, "-m", "nccw.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=SRC, **env))


class TestOutputStreams:
    """What a real stdout does to the output: a reader that goes away, and
    an encoding that refuses what it cannot encode."""

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_is_one_error_line(self, tmp_path, extra):
        # both forms of S^7 write more than a pipe holds, so the write
        # after the reader leaves must fail
        path = simplex_boundary_file(tmp_path / "s7.json", 7)
        proc = run_module(["compute", str(path), "--theory", "hp", "--pages", *extra])
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv", [["validate"], ["compute"], ["compute", "--json"]],
        ids=["validate", "compute", "compute_json"],
    )
    def test_file_name_that_is_not_utf8(self, tmp_path, argv):
        path = os.path.join(os.fsencode(tmp_path), b"q\xff.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"classical_cw": {"counts": [1], "boundaries": []}}, fh)
        # a strict UTF-8 stdout, as a UTF-8 locale of any other name than
        # C.UTF-8 gives
        proc = run_module([*argv, os.fsdecode(path)], PYTHONIOENCODING="utf-8")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert err == b""
        if "--json" in argv:
            assert json.loads(out)["name"] == "q\ufffd"
        else:
            assert "q\ufffd".encode() in out
