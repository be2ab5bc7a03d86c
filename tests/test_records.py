"""The immutable records: frozen fields, constructor signatures, equality.

Every exported record type is checked the same way: assigning or
deleting a field raises ``AttributeError``, a missing constructor
argument raises ``TypeError``, keywords and defaults work.  The value
types (``FGAbelianGroup``, ``FinDimAlgebra``, ``Assembly``) compare
and hash by their fields and keep field-style reprs; ``CochainComplex``
compares by its fields and is not hashable; every other record compares
by identity.  Equality and
hashing are defined in one place, the value base of ``nccw.frozen``.
"""

import ast
import os

import pytest

import nccw
from nccw.cellmodel import EndpointPair, NCCWComplex, NCCWStage, ProvidedCoboundary, build
from nccw.constructions import CellularMorphism
from nccw.exacthom import (
    RING_Z,
    CochainComplex,
    FGAbelianGroup,
    all_cohomology,
    identity,
    intmat,
)
from nccw.findim import FinDimAlgebra, MultMorphism
from nccw.ssengine import Assembly, Page, SpectralSequence


def _alg():
    return FinDimAlgebra([1, 2])


def _morphism():
    return MultMorphism(_alg(), _alg(), identity(2))


def _complex():
    return CochainComplex(RING_Z, [1, 1], [[[0]]])


def _group():
    return FGAbelianGroup(1, (2,))


def _page():
    return Page(2, 1, "K", {(0, 0): _group()}, {})


# name -> (build one instance, a field to assign, a call missing an argument)
RECORDS = {
    "FGAbelianGroup": (_group, "free_rank", lambda: FGAbelianGroup(rank=1)),
    "FinDimAlgebra": (_alg, "sizes", lambda: FinDimAlgebra()),
    "MultMorphism": (_morphism, "mult", lambda: MultMorphism(_alg(), _alg())),
    "EndpointPair": (
        lambda: EndpointPair(_morphism(), _morphism()), "phi0", lambda: EndpointPair(_morphism())
    ),
    "ProvidedCoboundary": (
        lambda: ProvidedCoboundary([[0]]), "delta", lambda: ProvidedCoboundary()
    ),
    "NCCWStage": (lambda: NCCWStage(0, _alg()), "dim", lambda: NCCWStage(0)),
    "Page": (_page, "entries", lambda: Page(2, 1, "K", {})),
    "SpectralSequence": (
        lambda: SpectralSequence("K", 1, (_page(),)), "pages", lambda: SpectralSequence("K", 1)
    ),
    "Assembly": (
        lambda: Assembly((_group(),), _group(), "exact"),
        "group",
        lambda: Assembly((), FGAbelianGroup()),
    ),
    "CellularMorphism": (
        lambda: CellularMorphism.identity_on(_complex()),
        "maps",
        lambda: CellularMorphism(_complex(), _complex()),
    ),
    "CochainComplex": (_complex, "differentials", lambda: CochainComplex(RING_Z, [1])),
    "NCCWComplex": (
        lambda: build([NCCWStage(0, _alg())]), "cochain", lambda: NCCWComplex(())
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    build, field, _ = RECORDS[name]
    obj = build()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_missing_argument_is_type_error(name):
    _, _, missing = RECORDS[name]
    with pytest.raises(TypeError):
        missing()


def test_defaults_and_keywords():
    assert FGAbelianGroup() == FGAbelianGroup(0, ())
    assert FGAbelianGroup(torsion=[2]) == FGAbelianGroup.cyclic(2)
    assert FGAbelianGroup(free_rank=3).free_rank == 3
    assert FinDimAlgebra(sizes=[2]).sizes == (2,)
    alg = _alg()
    stage = NCCWStage(0, alg)
    assert stage.attaching is None and stage.cell_algebra is alg
    stage = NCCWStage(dim=1, cell_algebra=alg, attaching=ProvidedCoboundary(delta=[[0, 0]] * 2))
    assert stage.attaching.delta.shape == (2, 2)
    assert ProvidedCoboundary([], shape=(0, 3)).delta.shape == (0, 3)
    m = MultMorphism(src=alg, dst=alg, mult=identity(2))
    assert EndpointPair(phi0=m, phi1=m).phi1 is m
    page = Page(r=2, k=1, theory="K", entries={}, differentials={})
    assert page.source is None
    assert SpectralSequence(theory="K", k=1, pages=(page,)).current_r == 2
    g = _group()
    a = Assembly(pieces=(g,), group=g, note="exact")
    assert (a.pieces, a.group, a.note) == ((g,), g, "exact")
    c = _complex()
    assert CellularMorphism(src=c, dst=c, maps=[identity(1)]).map_at(1).shape == (1, 1)


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match="free rank must be nonnegative"):
        FGAbelianGroup(-1)
    with pytest.raises(ValueError, match="divisibility chain"):
        FGAbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match="block sizes must be positive"):
        FinDimAlgebra([0])
    with pytest.raises(Exception, match="stage 0 carries no attaching data"):
        NCCWStage(0, _alg(), ProvidedCoboundary([[0]]))
    with pytest.raises(Exception, match="stage 1 needs attaching data"):
        NCCWStage(1, _alg())
    with pytest.raises(Exception, match="share domain and codomain"):
        EndpointPair(_morphism(), MultMorphism(FinDimAlgebra([1]), _alg(), [[1], [0]]))


@pytest.mark.parametrize(
    "first, second, fields",
    [
        (FGAbelianGroup(1, [2]), FGAbelianGroup(1, (2,)), (1, (2,))),
        (FinDimAlgebra([1, 2]), FinDimAlgebra((1, 2)), ((1, 2),)),
        (
            Assembly((FGAbelianGroup(1),), FGAbelianGroup(1), "exact"),
            Assembly((FGAbelianGroup(1),), FGAbelianGroup(1), "exact"),
            ((FGAbelianGroup(1),), FGAbelianGroup(1), "exact"),
        ),
    ],
    ids=["FGAbelianGroup", "FinDimAlgebra", "Assembly"],
)
def test_value_types_compare_and_hash_by_fields(first, second, fields):
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: "x"}[second] == "x"
    assert first != fields and fields != first


def test_value_types_differ_when_a_field_differs():
    assert FGAbelianGroup(1, (2,)) != FGAbelianGroup(1, (4,))
    assert FGAbelianGroup(1) != FGAbelianGroup(2)
    assert FinDimAlgebra([1, 2]) != FinDimAlgebra([2, 1])
    g = FGAbelianGroup(1)
    assert Assembly((g,), g, "exact") != Assembly((g,), g, "up_to_extension")
    assert Assembly((g,), g, "exact") != Assembly((g, g), g, "exact")


@pytest.mark.parametrize(
    "name",
    ["MultMorphism", "EndpointPair", "ProvidedCoboundary", "NCCWStage", "Page",
     "SpectralSequence", "CellularMorphism", "NCCWComplex"],
)
def test_other_records_compare_by_identity(name):
    build = RECORDS[name][0]
    first, second = build(), build()
    assert first == first and hash(first) == hash(first)
    assert first != second
    assert len({first, second}) == 2


def test_value_type_reprs_list_their_fields():
    assert repr(FGAbelianGroup(1, (2,))) == "FGAbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(FinDimAlgebra([1, 2])) == "FinDimAlgebra(sizes=(1, 2))"
    g = FGAbelianGroup()
    assert repr(Assembly((), g, "exact")) == (
        "Assembly(pieces=(), group=FGAbelianGroup(free_rank=0, torsion=()), note='exact')"
    )


def test_cochain_complex_compares_by_fields_and_is_unhashable():
    c = _complex()
    assert c == _complex() and not c != _complex()
    assert c != CochainComplex(RING_Z, [1, 1], [[[2]]])
    assert c != c.with_ring("Q")
    assert c != (c.ring, c.ranks, c.differentials)
    with pytest.raises(TypeError):
        hash(c)
    assert repr(c) == "CochainComplex(ring=Z, ranks=[1, 1])"
    assert repr(build([NCCWStage(0, _alg())])) == "NCCWComplex(cell_counts=[2])"


def test_checked_complex_cannot_be_reassigned_past_its_check():
    # d∘d = 0 was checked on the zero differentials; the reassignment
    # would make d∘d = 1 and must not reach the group computation
    c = CochainComplex("Z", [1, 1, 1], [[[0]], [[0]]])
    with pytest.raises(AttributeError):
        c.differentials = (intmat([[1]]), intmat([[1]]))
    assert all_cohomology(c) == [FGAbelianGroup(1)] * 3
    tower = build([NCCWStage(0, _alg())])
    with pytest.raises(AttributeError):
        tower.cochain = c
    assert tower.cochain.ranks == (2,)


# (file name, class) pairs allowed to define equality or hashing
_EQUALITY_OWNERS = {("frozen.py", "Value"), ("exacthom.py", "IntMatrix")}


def test_equality_and_hashing_are_defined_only_by_the_value_base():
    src = os.path.dirname(nccw.__file__)
    owners = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    # ``__hash__ = None`` only removes hashing
                    unhash = isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                    defined = [
                        t.id for t in stmt.targets
                        if isinstance(t, ast.Name) and not (t.id == "__hash__" and unhash)
                    ]
                else:
                    continue
                if {"__eq__", "__hash__", "_fields"} & set(defined):
                    owners.add((name, cls.name))
    assert owners == _EQUALITY_OWNERS
