"""CLI output pinned byte for byte.

The files in ``golden/`` hold the ``compute --pages --json`` output of
every computable fixture and of a simplex-boundary S^5 with signed,
permuted cells (``golden/s5_signed.json``), in K and in HP, as produced
before cohomology went through the unit-pivot reduction.  E^1 shows the
unreduced matrices; every later page holds canonical groups, so the
output must not change when the route to them does.

The files in ``golden/cli/`` hold ``fibration --json`` with given
coefficient groups and ``transform --op cone --json``, as produced while
coefficient cohomology still ran Smith normal form on a block-diagonal
expansion of the base and the cone was a hand-built trivial answer.  They
also hold ``transform --op suspend``, whose complex file has an empty
``algebra`` and empty ``delta`` rows, as written by ``json.dumps(...,
indent=2)`` before ``--json`` output got its own writer.
"""

import os

import pytest

from nccw.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "fixtures")

CLI_GOLDEN = os.path.join(GOLDEN, "cli")

CASES = sorted(name[: -len(".out")] for name in os.listdir(GOLDEN) if name.endswith(".out"))


def source(name):
    path = os.path.join(FIXTURES, f"{name}.json")
    return path if os.path.exists(path) else os.path.join(GOLDEN, f"{name}.json")


def fibration(base, even, odd, theory):
    return ["fibration", "--base", source(base), "--coeff-even", even,
            "--coeff-odd", odd, "--theory", theory, "--json"]


def cone(name, theory):
    return ["transform", source(name), "--op", "cone", "--theory", theory, "--json"]


def suspend(name):
    return ["transform", source(name), "--op", "suspend"]


CLI_CASES = {
    "fibration_torus_k": fibration("torus", "Z+Z/2", "Z/6", "k"),
    "fibration_rp2_k": fibration("rp2", "Z+Z/2", "Z/6", "k"),
    "fibration_rp2_torsion_k": fibration("rp2", "Z/4", "Z^2+Z/6", "k"),
    "fibration_circle_k": fibration("circle", "Z/2+Z/3", "Z^3", "k"),
    "fibration_s5_signed_k": fibration("s5_signed", "Z^2+Z/2+Z/6+Z/12", "Z/6", "k"),
    "fibration_torus_hp": fibration("torus", "Z^2", "Z", "hp"),
    "fibration_rp2_hp": fibration("rp2", "Z", "Z^3", "hp"),
    "fibration_s5_signed_hp": fibration("s5_signed", "0", "Z^2", "hp"),
    "cone_rp2_k": cone("rp2", "k"),
    "cone_rp2_hp": cone("rp2", "hp"),
    "cone_i2_k": cone("i2", "k"),
    "cone_torus_hp": cone("torus", "hp"),
    "suspend_i2": suspend("i2"),
    "suspend_rp2": suspend("rp2"),
    "suspend_torus": suspend("torus"),
}


def test_every_computable_fixture_is_pinned():
    names = {case.rsplit("_", 1)[0] for case in CASES}
    failing = {"ddviolation", "malformed", "point_to_circle"}
    fixtures = {f[: -len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json")}
    assert fixtures - failing <= names
    assert "s5_signed" in names
    assert len(CASES) == 2 * len(names)


@pytest.mark.parametrize("case", CASES)
def test_pages_json_byte_identical(capsys, case):
    name, theory = case.rsplit("_", 1)
    code = main(["compute", source(name), "--theory", theory, "--pages", "--json"])
    assert code == 0
    with open(os.path.join(GOLDEN, f"{case}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_every_cli_case_is_pinned():
    recorded = {f[: -len(".out")] for f in os.listdir(CLI_GOLDEN) if f.endswith(".out")}
    assert recorded == set(CLI_CASES)


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_json_byte_identical(capsys, case):
    code = main(CLI_CASES[case])
    assert code == 0
    with open(os.path.join(CLI_GOLDEN, f"{case}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
