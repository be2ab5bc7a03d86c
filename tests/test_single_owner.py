"""Facts that several modules need have one owner.

The theory's ring (Z for K, Q for HP) and the refusal of an unknown
theory live in ``findim.ring_of``; the engine, the fibration module and
the command line take rings from there.  A tower keeps its coboundaries
only as the differentials of its cochain complex.  Indented JSON has one
writer, ``cli._indented``: an ``indent=`` argument would send the json
module to its pure-Python encoder.  ``cli.page_payload`` hands the
differentials on as matrices; only the output fills in their zeros.
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
    assert tuple(NCCWComplex.__annotations__) == ("stages", "cochain", "cell_counts")
    x = from_classical_cw([1, 1], [[[0]]])
    assert not hasattr(x, "coboundaries")
    assert x.cochain.differentials[0].tolist() == [[0]]


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
