"""Core term language: typechecking, atom enumeration, inverses, and
hash-consed objects."""

import copy
import dataclasses
import gc
import pickle
import weakref
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gen import random_object, random_term
from monocat.coherence import flatten_object
from monocat.parser import parse_expr, parse_obj, parse_signature, print_expr
from monocat.terms import (
    Assoc,
    AssocInv,
    Braid,
    BraidInv,
    Comp,
    CompositionMismatch,
    DuplicateName,
    Id,
    Inv,
    LEVELS,
    LevelViolation,
    LUnit,
    LUnitInv,
    MorDecl,
    MorExpr,
    MorGen,
    MorType,
    MorVar,
    NotAnIso,
    NotInvertible,
    ObjExpr,
    ObjGen,
    ObjTensor,
    ObjVar,
    RUnit,
    RUnitInv,
    STRUCTURAL,
    Signature,
    Tensor,
    Typer,
    UNIT,
    UndeclaredName,
    Unit,
    UnknownLevel,
    comp_chain,
    iso_inverse,
    replace_chain_element,
    right_comp,
    structural_atoms,
    typecheck,
)

A, B, C = ObjGen("A"), ObjGen("B"), ObjGen("C")


def test_composition_typing(sig):
    f, g = MorGen("f"), MorGen("g")  # f: A -> B, g: B -> C
    assert typecheck(Comp(f, g), sig) == MorType(A, C)


def test_braid_typing(sig):
    assert typecheck(Braid(A, B), sig) == MorType(ObjTensor(A, B), ObjTensor(B, A))
    assert typecheck(BraidInv(A, B), sig) == MorType(ObjTensor(B, A), ObjTensor(A, B))


def test_composition_mismatch(sig):
    f = MorGen("f")
    with pytest.raises(CompositionMismatch) as exc:
        typecheck(Comp(f, f), sig)
    assert "B" in str(exc.value) and "A" in str(exc.value)


def test_structural_typing(sig):
    assert typecheck(Assoc(A, B, C), sig) == MorType(
        ObjTensor(ObjTensor(A, B), C), ObjTensor(A, ObjTensor(B, C)))
    assert typecheck(LUnit(A), sig) == MorType(ObjTensor(UNIT, A), A)
    assert typecheck(LUnitInv(A), sig) == MorType(A, ObjTensor(UNIT, A))
    assert typecheck(RUnit(A), sig) == MorType(ObjTensor(A, UNIT), A)
    assert typecheck(Id(A), sig) == MorType(A, A)


def test_inv_flips_declared_type(sig):
    assert typecheck(Inv("k"), sig) == MorType(B, A)


def test_inv_requires_iso(sig):
    with pytest.raises(NotAnIso):
        typecheck(Inv("f"), sig)


def test_undeclared_names(sig):
    with pytest.raises(UndeclaredName):
        typecheck(MorGen("nope"), sig)
    with pytest.raises(UndeclaredName):
        typecheck(Id(ObjGen("nope")), sig)


def test_level_violation():
    plain = Signature(level="plain", objects=("A",),
                      morphisms=(MorDecl("f", A, A),))
    with pytest.raises(LevelViolation):
        typecheck(LUnit(A), plain)
    mon = Signature(level="monoidal", objects=("A", "B"), morphisms=())
    typecheck(Assoc(A, B, A), mon)
    with pytest.raises(LevelViolation):
        typecheck(Braid(A, B), mon)


def test_signature_validation():
    with pytest.raises(UnknownLevel):
        Signature(level="cartesian")
    with pytest.raises(DuplicateName):
        Signature(objects=("A", "A"))
    with pytest.raises(DuplicateName):
        Signature(objects=("A",), morphisms=(MorDecl("A", A, A),))
    with pytest.raises(DuplicateName):
        Signature(objects=("id",))
    with pytest.raises(UndeclaredName):
        Signature(objects=("A",), morphisms=(MorDecl("f", A, B),))


def test_structural_atoms_order(sig):
    f, g, h = MorGen("f"), MorGen("g"), MorGen("h")
    assert structural_atoms(Tensor(Comp(f, g), h)) == [f, g, h]
    assert structural_atoms(Id(A)) == [Id(A)]
    assert structural_atoms(Comp(Assoc(A, B, C), f)) == [Assoc(A, B, C), f]


def test_iso_inverse_structural(sig):
    assert iso_inverse(Assoc(A, B, C), sig) == (AssocInv(A, B, C),)
    assert iso_inverse(LUnit(A), sig) == (LUnitInv(A),)
    assert iso_inverse(RUnitInv(A), sig) == (RUnit(A),)
    assert iso_inverse(Id(A), sig) == (Id(A),)


def test_iso_inverse_braid_symmetric(sig):
    inverses = iso_inverse(Braid(A, B), sig)
    assert set(inverses) == {BraidInv(A, B), Braid(B, A)}
    assert inverses[0] == BraidInv(A, B)


def test_iso_inverse_braid_braided_only():
    braided = Signature(level="braided", objects=("A", "B"))
    assert iso_inverse(Braid(A, B), braided) == (BraidInv(A, B),)


def test_iso_inverse_generators(sig):
    assert iso_inverse(MorGen("k"), sig) == (Inv("k"),)
    assert iso_inverse(Inv("k"), sig) == (MorGen("k"),)
    with pytest.raises(NotInvertible):
        iso_inverse(MorGen("f"), sig)


def test_iso_inverse_involution(sig):
    atoms = [Assoc(A, B, C), AssocInv(A, B, C), LUnit(A), LUnitInv(B), RUnit(C),
             RUnitInv(A), Braid(A, B), BraidInv(B, C), MorGen("k"), Inv("k"), Id(A)]
    for atom in atoms:
        canon = iso_inverse(atom, sig)[0]
        assert iso_inverse(canon, sig)[0] == atom
    # the extra symmetric pairing is itself symmetric
    assert Braid(B, A) in iso_inverse(Braid(A, B), sig)
    assert Braid(A, B) in iso_inverse(Braid(B, A), sig)


@pytest.mark.parametrize("cls", list(STRUCTURAL), ids=lambda cls: cls.__name__)
def test_structural_row_is_the_atom(cls, sig):
    keyword, level, inverse, boundary, _, halves = STRUCTURAL[cls]
    assert set(MorExpr.__subclasses__()) - {Comp, Tensor, MorGen, Inv, MorVar} == set(STRUCTURAL)
    rng, arity = Random(11), len(dataclasses.fields(cls))
    for trial in range(30):
        args = [UNIT if trial == 0 else random_object(rng, sig.objects) for _ in range(arity)]
        atom, (dom, cod) = cls(*args), boundary(*args)
        assert print_expr(atom).startswith(keyword + "[")
        assert parse_expr(print_expr(atom), sig) == atom
        assert Typer(sig).atom(atom) == (dom, cod)
        assert typecheck(inverse(*args), sig) == MorType(cod, dom)
        for at in LEVELS:
            at_sig = Signature(level=at, objects=sig.objects)
            if LEVELS.index(at) < LEVELS.index(level):
                with pytest.raises(LevelViolation):
                    typecheck(atom, at_sig)
            else:
                assert typecheck(atom, at_sig) == MorType(dom, cod)
        if halves is not None:
            first, second = map(flatten_object, halves(*args))
            assert first + second == flatten_object(dom)
            assert second + first == flatten_object(cod)


def test_typecheck_deterministic_on_random_terms(sig):
    rng = Random(7)
    for _ in range(100):
        term = random_term(rng, sig, max_leaves=8)
        assert typecheck(term, sig) == typecheck(term, sig)


def test_chain_helpers(sig):
    f, g, h = MorGen("f"), MorGen("g"), MorGen("h")
    chain = comp_chain(Comp(Comp(f, g), h))
    assert chain == [f, g, h]
    assert comp_chain(f) == [f]
    rebuilt = right_comp(chain, A)
    assert rebuilt == Comp(f, Comp(g, h))
    assert right_comp([], A) == Id(A)
    term = Comp(Comp(f, g), h)
    swapped = replace_chain_element(term, 1, Id(B))
    assert swapped == Comp(Comp(f, Id(B)), h)


def test_parse_expr_integration(sig):
    term = parse_expr("f ; g", sig)
    assert typecheck(term, sig) == MorType(A, C)


# ---------------------------------------------------------------------------
# Hash-consed objects: one object per value, however it is built
# ---------------------------------------------------------------------------

OBJ_SIG = parse_signature("category symmetric\nobject A\nobject Bb\nobject C\n")

#: An object as a tree: a name, None for the unit, or a (left, right) pair.
obj_trees = st.recursive(st.sampled_from(["A", "Bb", "C", None]),
                         lambda kids: st.tuples(kids, kids), max_leaves=12)


def _text(tree) -> str:
    if isinstance(tree, tuple):
        return f"({_text(tree[0])} * {_text(tree[1])})"
    return "I" if tree is None else tree


def _built(tree, keywords: bool):
    """Constructed bottom-up, the right factor first; names are fresh strings."""

    if isinstance(tree, tuple):
        right, left = _built(tree[1], keywords), _built(tree[0], keywords)
        return ObjTensor(right=right, left=left) if keywords else ObjTensor(left, right)
    if tree is None:
        return Unit()
    name = "".join(list(tree))
    return ObjGen(name=name) if keywords else ObjGen(name)


@settings(max_examples=300, deadline=None)
@given(obj_trees)
def test_one_object_however_built(tree):
    obj = parse_obj(_text(tree), OBJ_SIG)
    same = [_built(tree, False), _built(tree, True), dataclasses.replace(obj), copy.copy(obj),
            copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    if isinstance(obj, ObjTensor):
        same.append(dataclasses.replace(ObjTensor(obj.right, obj.left), left=obj.left,
                                        right=obj.right))
    for other in same:
        assert other is obj and other == obj and hash(other) == hash(obj)


def test_interned_table_holds_only_live_objects():
    table = ObjExpr._interned
    before = len(table)
    obj = ObjTensor(ObjGen("dead_a"), ObjTensor(ObjVar("dead_b"), UNIT))
    assert len(table) == before + 4
    del obj
    gc.collect()
    assert len(table) == before
    assert all(ref() is not None for ref in table.values())


def test_object_repr_fields_and_constructor_unchanged():
    obj = ObjTensor(ObjGen("A"), ObjTensor(ObjVar("x"), UNIT))
    assert repr(obj) == "ObjTensor(left=ObjGen(name='A'), right=ObjTensor(left=ObjVar(name='x'), " \
        "right=Unit()))"
    assert [f.name for f in dataclasses.fields(obj)] == ["left", "right"]
    assert [[f.name for f in dataclasses.fields(cls)] for cls in (ObjGen, ObjVar, Unit)] == \
        [["name"], ["name"], []]
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.left = UNIT
    for args, kwargs in (((A,), {}), ((A, B, C), {}), ((A,), {"left": B}), ((), {"nme": A})):
        with pytest.raises(TypeError):
            ObjTensor(*args, **kwargs)


# ---------------------------------------------------------------------------
# The flat wire list kept on each interned object
# ---------------------------------------------------------------------------


def _flat(tree) -> tuple[str, ...]:
    """The flat wire list of an object tree, by plain recursion."""

    if isinstance(tree, tuple):
        return _flat(tree[0]) + _flat(tree[1])
    return () if tree is None else (tree,)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the limit is not state
@given(obj_trees, st.sampled_from([0, 1, 2, 1200]), st.booleans())
def test_flatten_object_first_and_kept(default_recursion_limit, tree, width, warm):
    text = _text(tree) + " * A" * width  # then ``width`` more factors, nesting to the left
    obj = parse_obj(text, OBJ_SIG)
    if warm and isinstance(obj, ObjTensor):  # a sub-object's list is kept first
        left = _flat(tree) + ("A",) * (width - 1) if width else _flat(tree[0])
        assert flatten_object(obj.left) == left
    expected = _flat(tree) + ("A",) * width
    assert flatten_object(obj) == expected
    assert flatten_object(obj) == expected


def test_kept_wires_stay_out_of_sight():
    obj = parse_obj("A * (Bb * I) * C", OBJ_SIG)
    seen = (dict(vars(obj)), repr(obj), dataclasses.fields(obj), pickle.dumps(obj))
    assert flatten_object(obj) == ("A", "Bb", "C") and flatten_object(obj.left) == ("A", "Bb")
    assert (vars(obj), repr(obj), dataclasses.fields(obj), pickle.dumps(obj)) == seen
    for same in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert same is obj and flatten_object(same) == ("A", "Bb", "C")


def test_interned_table_drops_objects_with_kept_wires():
    table = ObjExpr._interned
    before = len(table)
    obj = ObjTensor(ObjGen("gone_a"), ObjTensor(ObjGen("gone_b"), UNIT))
    assert flatten_object(obj.right) == ("gone_b",) and flatten_object(obj) == ("gone_a", "gone_b")
    assert len(table) == before + 4
    ref = weakref.ref(obj)
    del obj
    gc.collect()
    assert ref() is None and len(table) == before
