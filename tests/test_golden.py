"""``compute --pages --json`` output pinned byte for byte.

The files in ``golden/`` hold the output of every computable fixture and
of a simplex-boundary S^5 with signed, permuted cells
(``golden/s5_signed.json``), in K and in HP, as produced before cohomology
went through the unit-pivot reduction.  E^1 shows the unreduced
matrices; every later page holds canonical groups, so the output must not
change when the route to them does.
"""

import os

import pytest

from nccw.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "fixtures")

CASES = sorted(name[: -len(".out")] for name in os.listdir(GOLDEN) if name.endswith(".out"))


def source(name):
    path = os.path.join(FIXTURES, f"{name}.json")
    return path if os.path.exists(path) else os.path.join(GOLDEN, f"{name}.json")


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
