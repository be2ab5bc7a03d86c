"""Facts that several modules need have one owner.

The theory's ring (Z for K, Q for HP) and the refusal of an unknown
theory live in ``findim.ring_of``; the engine, the fibration module and
the command line take rings from there.  A tower keeps its coboundaries
only as the differentials of its cochain complex.  These are static
checks of the sources, in the style of the record-equality scan.
"""

import ast
import os

import nccw
from nccw.cellmodel import NCCWComplex, from_classical_cw

SRC = os.path.dirname(nccw.__file__)


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
