"""Facts that several modules need have one owner.

The theory's ring (Z for K, Q for HP) and the refusal of an unknown
theory live in ``findim.ring_of``; the engine, the fibration module and
the command line take rings from there.  ``fibration.leray_serre_e2``
alone refuses torsion in rational coefficients, and the universal
coefficient arithmetic it calls reads no ring.  Simplicity of the local
coefficients is assumed, so no flag, field or error names it.  A tower
keeps its coboundaries, cell counts and top dimension only in its
cochain complex.  An absent
differential is a zero matrix, never None, and ``Page.step`` alone says
where d^r lands.  Indented JSON has one
writer, ``cli._indented``: an ``indent=`` argument would send the json
module to its pure-Python encoder.  ``cli.page_payload`` hands the
differentials on as matrices; only the output fills in their zeros.
``assemble`` reaches its stable page only through ``e_infinity``.
These are static checks of the sources, in the style of the
record-equality scan.

The benchmark reaches into the library by name: ``bench/layers.py``
wraps the functions its ``LAYERS`` table lists, and ``bench/selftest.py``
checks three bindings that other modules import.  Reading both files
here makes the deletion of a pinned name fail in the quick test run.
"""

import ast
import importlib
import importlib.util
import os

import pytest

import nccw
from nccw.cellmodel import NCCWComplex, from_classical_cw

SRC = os.path.dirname(nccw.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")


def _source(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return fh.read()


def test_only_findim_refuses_unknown_theories():
    holders = {
        name for name in sorted(os.listdir(SRC))
        if name.endswith(".py") and "unknown theory" in _source(name)
    }
    assert holders == {"findim.py"}


def test_only_fibration_refuses_torsion_in_rational_coefficients():
    holders = {
        name for name in sorted(os.listdir(SRC)) if name.endswith(".py")
        for node in ast.walk(ast.parse(_source(name)))
        if isinstance(node, ast.Raise) and "torsion-free" in ast.unparse(node)
    }
    assert holders == {"fibration.py"}


def test_coefficient_cohomology_reads_no_ring():
    func = _functions("exacthom.py")["cohomology_with_coefficients"]
    assert [a.arg for a in func.args.args] == ["plain", "group"]
    assert not [n for n in ast.walk(func) if isinstance(n, ast.Attribute) and n.attr == "ring"]
    assert not [n for n in ast.walk(func) if isinstance(n, ast.Name) and n.id.startswith("RING_")]


def test_nothing_is_named_after_simplicity():
    # the coefficients are assumed simple: no option, field, error or
    # message names the assumption.  ``types.SimpleNamespace`` is what
    # the command line parses into.
    named = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(_source(name))
        docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for node in ast.walk(tree):
            words = [getattr(node, f, None) for f in ("id", "attr", "arg", "name", "asname")]
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                words.append(node.value)
            named += [(name, w) for w in words
                      if isinstance(w, str) and "simple" in w.lower() and w != "SimpleNamespace"]
    assert named == []


def test_engine_fibration_and_cli_name_no_ring():
    for name in ("ssengine.py", "fibration.py", "cli.py"):
        named = set()
        for node in ast.walk(ast.parse(_source(name))):
            if isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        assert not {n for n in named if n.startswith("RING_")}, name


def test_tower_keeps_coboundaries_only_in_its_cochain_complex():
    assert tuple(NCCWComplex.__annotations__) == ("stages", "cochain")
    x = from_classical_cw([1, 1], [[[0]]])
    assert not hasattr(x, "coboundaries") and not hasattr(x, "top_dimension")
    assert x.cochain.differentials[0].tolist() == [[0]]
    # read, not stored, for the benchmark's cell count
    assert x.cell_counts is x.cochain.ranks


def _functions(name):
    return {
        node.name: node for node in ast.walk(ast.parse(_source(name)))
        if isinstance(node, ast.FunctionDef)
    }


def test_no_none_stands_for_a_map():
    # an absent differential is the zero matrix of its shape, so nothing
    # hands ``presented_subquotient`` a None
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(_source(name))):
            if isinstance(node, ast.Call) and "presented_subquotient" in ast.unparse(node.func):
                assert not [a for a in node.args if ast.unparse(a) == "None"], (name, node.lineno)
    args = _functions("exacthom.py")["presented_subquotient"].args.args
    assert {a.arg: ast.unparse(a.annotation) for a in args if a.arg.endswith("_map")} == {
        "out_map": "IntMatrix", "in_map": "IntMatrix"
    }
    assert ast.unparse(_functions("ssengine.py")["differential_out"].returns) == "IntMatrix"


@pytest.mark.parametrize("name", ["ssengine.py", "cli.py"])
def test_only_page_step_says_where_d_r_lands(name):
    # arithmetic that mixes the page number with a position is the
    # bidegree of d^r, and ``Page.step`` alone writes it
    tree = ast.parse(_source(name))
    steps = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "step"]
    inside = {id(n) for step in steps for n in ast.walk(step)}
    mixed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and id(node) not in inside:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if "r" in names and names & {"p", "q", "parity"}:
                mixed.append((node.lineno, ast.unparse(node)))
    assert mixed == []
    assert len(steps) == (1 if name == "ssengine.py" else 0)


def test_no_json_call_indents():
    indenting = [
        (name, node.lineno)
        for name in sorted(os.listdir(SRC)) if name.endswith(".py")
        for node in ast.walk(ast.parse(_source(name)))
        if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert indenting == []


def test_page_payload_never_densifies():
    # the E^1 differentials stay sparse until ``_indented`` or ``emit``
    # writes their rows
    (func,) = [
        node for node in ast.walk(ast.parse(_source("cli.py")))
        if isinstance(node, ast.FunctionDef) and node.name == "page_payload"
    ]
    assert not [n for n in ast.walk(func) if isinstance(n, ast.Attribute) and n.attr == "tolist"]


def test_assemble_reaches_its_stable_page_only_through_e_infinity():
    # ``e_infinity`` alone decides how far a sequence is turned: up to the
    # first page without differentials.  ``assemble`` neither turns pages
    # nor reads them off the sequence.
    func = _functions("ssengine.py")["assemble"]
    called = {ast.unparse(n.func) for n in ast.walk(func) if isinstance(n, ast.Call)}
    assert "e_infinity" in called
    assert not called & {"turn_page", "stabilize"}
    assert "pages" not in {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}


def _bench_layer_names():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(BENCH, "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return sorted({(module, name) for _, module, names, _ in layers.LAYERS for name in names})


def _selftest_bindings():
    """The ``(module, name)`` pairs of the loop in
    ``test_tracer_patches_every_binding_and_restores_it``, read from its
    source: ``for ns, name in ((ssengine, "presented_subquotient"), ...)``."""
    with open(os.path.join(BENCH, "selftest.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_tracer_patches"):
            for loop in ast.walk(node):
                if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
                    pairs += [(ns.id, name.value) for ns, name in (e.elts for e in loop.iter.elts)]
    return pairs


@pytest.mark.parametrize("module, name", _bench_layer_names() + _selftest_bindings())
def test_benchmark_pinned_names_stay_callable(module, name):
    assert callable(getattr(importlib.import_module(f"nccw.{module}"), name, None))


def test_selftest_bindings_are_found():
    assert sorted(_selftest_bindings()) == [
        ("constructions", "compute_theories"),
        ("fibration", "assemble"),
        ("ssengine", "presented_subquotient"),
    ]
