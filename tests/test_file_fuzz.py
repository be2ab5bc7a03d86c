"""Fuzzing the complex and morphism files, and the command line.

The JSON fixtures are mutated (keys dropped or replaced, values of the
wrong type, booleans, floats, integers of 2^70, ragged rows) and run
through ``validate``, ``compute --pages``, all four ``transform`` ops and
``fibration --map``.  A deterministic sweep also puts every listed bad
value once at every place of three fixtures.  Random command lines are
drawn from every subcommand, flag and value the parser knows, plus
ambiguous abbreviations, stray values and missing files.  Every run must
end in exit 0, 1 or 2 with at most one ``error:`` line; no exception may
leave ``cli.main``.  Help is left out: ``-h`` prints it and exits 0
through ``SystemExit``, as ``tests/test_cli.py`` checks.  The same
command lines must parse as they do with argparse (``reference_parser``
in ``conftest.py``), except for a trailing ``--``.
"""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import check_cli_contract, parse_outcome, reference_parser
from nccw.cli import build_parser

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


COMPLEXES = [
    fixture(name)
    for name in ("point.json", "circle.json", "i2.json", "rp2.json", "torus.json",
                 "ddviolation.json")
]
MORPHISM = fixture("point_to_circle.json")
POINT = os.path.join(FIXTURES, "point.json")
TOTAL = os.path.join(FIXTURES, "circle.json")

BAD_CONSTANTS = [None, True, False, 0, -1, 1.0, 1.5, "1", [], {}, [[]], [True], [1.5],
                 [[1, 2], [3]], [[1], 1], [[True]], 2**70, -(2**70), [2**70], [[2**70]],
                 [[-(2**70), 1]], "\ud800"]

# copied on every draw: a later mutation may edit a value in place
bad_values = st.one_of(
    st.sampled_from(BAD_CONSTANTS).map(copy.deepcopy),
    st.integers(-3, 3),
)


def positions(doc, prefix=()):
    """Every place in a JSON document, as the keys and indices leading to it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from positions(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three places dropped, replaced or duplicated;
    dropping or duplicating a list entry makes rows ragged."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(positions(doc))))
        if not path:
            doc = draw(bad_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "replace", "duplicate"]))
        if op == "drop":
            del parent[key]
        elif op == "replace":
            parent[key] = draw(bad_values)
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key + "_"] = copy.deepcopy(parent[key])
    return doc


def as_is_or_mutated(doc):
    return st.one_of(st.just(doc), mutated(doc))


complexes = st.sampled_from(COMPLEXES).flatmap(as_is_or_mutated)
morphisms = as_is_or_mutated(MORPHISM)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(complexes, morphisms, st.sampled_from(["k", "hp"]))
def test_mutated_files_never_escape(cx, morphism, theory):
    with tempfile.TemporaryDirectory() as folder:
        path, mpath = os.path.join(folder, "complex.json"), os.path.join(folder, "map.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cx, fh)
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(morphism, fh)
        check_cli_contract(["validate", path])
        check_cli_contract(["compute", path, "--pages", "--theory", theory])
        # suspend reads no --theory, so one given would be refused before
        # the file is read
        check_cli_contract(["transform", path, "--op", "suspend"])
        check_cli_contract(["transform", path, "--op", "cone", "--theory", theory])
        # the fixture morphism starts at the point, so a mutated map also
        # meets its intended source
        for src in (path, POINT):
            for op in ("cylinder", "mapcone"):
                check_cli_contract(["transform", src, "--op", op, "--map", mpath,
                                    "--theory", theory])
            check_cli_contract(["fibration", "--base", src, "--map", mpath, "--total", TOTAL,
                                "--theory", theory])


def replaced(doc, path, value):
    """``doc`` with the place at ``path`` (keys and indices) set to ``value``."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("value", BAD_CONSTANTS, ids=repr)
@pytest.mark.parametrize("name", ["i2", "rp2", "torus"])
def test_each_bad_value_at_each_place(tmp_path, name, value):
    # the random mutations above rarely put a given value at a given key;
    # this sweep puts every listed value at every place once
    doc = fixture(f"{name}.json")
    path = os.path.join(tmp_path, "complex.json")
    for place in positions(doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(replaced(doc, place, value), fh)
        for argv in (["validate", path], ["compute", path, "--pages"]):
            try:
                check_cli_contract(argv)
            except AssertionError as exc:
                raise AssertionError(f"{value!r} at {place}: {exc}") from None


SUBCOMMANDS = ["validate", "compute", "transform", "fibration"]
FLAGS = ["--theory", "--pages", "--paper-indexing", "--json", "--op", "--map", "--total",
         "--base", "--coeff-even", "--coeff-odd", "--theory=hp", "--op=cone",
         "--th", "--pa", "--co", "--", "-", "-x", "--no-such-flag"]
VALUES = ["k", "hp", "K", "suspend", "cone", "cylinder", "mapcone", "Z", "Z/2+Z", "Q^2",
          "0", "Z^-1", "", POINT, TOTAL, os.path.join(FIXTURES, "rp2.json"),
          os.path.join(FIXTURES, "point_to_circle.json"),
          os.path.join(FIXTURES, "no_such_file.json"), FIXTURES, "-1", "--no such"]
command_lines = st.builds(
    lambda first, rest: [first] + rest,
    st.one_of(st.sampled_from(SUBCOMMANDS), st.sampled_from(FLAGS + VALUES)),
    st.lists(st.sampled_from(SUBCOMMANDS + FLAGS + VALUES), max_size=9),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines)
def test_random_command_lines_never_escape(argv):
    check_cli_contract(argv)


def _ends_in_its_only_double_dash(argv):
    return "--" in argv and argv.index("--") == len(argv) - 1


@settings(max_examples=2000, deadline=None)
@given(command_lines.filter(lambda argv: not _ends_in_its_only_double_dash(argv)))
def test_table_parser_reads_command_lines_as_argparse_does(argv):
    # argparse accepts ``compute K --`` but refuses ``compute K --json --``;
    # the table always reads a trailing ``--`` as the end of the options
    # (``tests/test_cli.py::TestCommandLineGrammar`` pins that rule)
    assert parse_outcome(build_parser(), argv) == parse_outcome(reference_parser(), argv)
