"""Normal forms: flattening, sheets, canonicalization, equality decisions."""

import copy
import time
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gen import (
    STD_SIG_TEXT,
    TWO_SIDED_SIG_TEXT,
    interchange_pair,
    random_object,
    random_structural_term,
    random_term,
    random_term_with_dom,
    structural_connector,
    struct_sig,
)
from reference_coherence import _slide_to_fixpoint, _try_move, check_normal_form
from monocat.coherence import (
    BoxSlot,
    Equal,
    NormalForm,
    NotDecided,
    Sheet,
    _sweep,
    canonicalize,
    dump_normal_form,
    flatten_object,
    layer_output,
    monoidal_eq,
    sheet_of_term,
)
from monocat.parser import parse_expr, parse_signature
from monocat.terms import (
    Comp,
    Id,
    MorGen,
    ObjGen,
    ObjTensor,
    Tensor,
    TypeMismatch,
    UNIT,
    typecheck,
)

A, B, C = ObjGen("A"), ObjGen("B"), ObjGen("C")


def test_flatten_object():
    assert flatten_object(ObjTensor(ObjTensor(A, UNIT), B)) == ("A", "B")
    assert flatten_object(UNIT) == ()
    assert flatten_object(ObjTensor(A, ObjTensor(B, C))) == ("A", "B", "C")
    assert flatten_object(ObjTensor(ObjTensor(A, B), C)) == ("A", "B", "C")


def test_sheet_structural_erased(sig):
    sheet = sheet_of_term(parse_expr("alpha[A,B,C]", sig), sig)
    assert sheet == Sheet(("A", "B", "C"), ())


def test_sheet_single_generator(sig):
    sheet = sheet_of_term(MorGen("f"), sig)
    assert sheet == Sheet(("A",), ((BoxSlot("f", ("A",), ("B",)),),))


def test_sheet_tensor_with_identity(sig):
    sheet = sheet_of_term(parse_expr("f * id[C]", sig), sig)
    assert sheet.layers == ((BoxSlot("f", ("A",), ("B",)), "C"),)


def test_every_wire_slot_is_its_name(sig):
    # a wire passing through a layer is the str flatten_object returns, in
    # sheets and in normal forms alike; every other slot is a BoxSlot
    terms_ = [parse_expr(text, sig) for text in ("f * id[C]", "braid[A,B] ; (g * id[A])")]
    terms_ += [t for seed in range(40) for t in interchange_pair(seed, sig)]
    wires = [0, 0]
    for t in terms_:
        sheet = sheet_of_term(t, sig)
        for i, layers in enumerate((sheet.layers, canonicalize(sheet).layers)):
            for slot in (slot for layer in layers for slot in layer):
                assert type(slot) is str or type(slot) is BoxSlot, slot
                wires[i] += type(slot) is str
    assert min(wires) > 10, wires


def test_layer_output_concatenates_slot_outputs():
    layer = ("A", BoxSlot("e", ("A",), ()), BoxSlot("f", ("A",), ("B",)),
             "C", BoxSlot("q", ("C",), ("B", "A")), BoxSlot("s", (), ()), "B")
    expected: tuple = ()
    for slot in layer:
        expected += (slot,) if isinstance(slot, str) else slot.outs
    assert layer_output(layer) == expected == ("A", "B", "C", "B", "A", "B")
    assert layer_output(()) == ()


def test_very_wide_tensor_normal_form(default_recursion_limit):
    sig = parse_signature("category symmetric\nobject A\nmor u : A -> A\n")
    n = 20_000
    nf = canonicalize(sheet_of_term(parse_expr(" * ".join(["u"] * n), sig), sig))
    assert nf.input == nf.output == ("A",) * n
    assert len(nf.layers) == 1 and len(nf.layers[0]) == n


def test_canonicalize_slides_box_left(sig):
    # h slides left past the identity wire: equals the sheet of f * h
    t = parse_expr("(f * id[C]) ; (id[B] * h)", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    expected = canonicalize(sheet_of_term(parse_expr("f * h", sig), sig))
    assert nf == expected
    assert nf.layers == ((BoxSlot("f", ("A",), ("B",)), BoxSlot("h", ("C",), ("A",))),)


def test_canonicalize_slides_other_direction(sig):
    t = parse_expr("(id[A] * h) ; (f * id[A])", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    assert nf.layers == ((BoxSlot("f", ("A",), ("B",)), BoxSlot("h", ("C",), ("A",))),)


def test_association_invisible(sig):
    n1 = canonicalize(sheet_of_term(parse_expr("(u ; u) ; u", sig), sig))
    n2 = canonicalize(sheet_of_term(parse_expr("u ; (u ; u)", sig), sig))
    assert n1 == n2


def test_triangle_equal(sig):
    r = monoidal_eq(parse_expr("alpha[A,I,B] ; (id[A] * lunit[B])", sig),
                    parse_expr("runit[A] * id[B]", sig), sig)
    assert isinstance(r, Equal)
    assert r.normal_form.layers == ()


def test_pentagon_equal(sig):
    lhs = parse_expr("(alpha[A,B,C] * id[A]) ; alpha[A,B*C,A] ; (id[A] * alpha[B,C,A])", sig)
    rhs = parse_expr("alpha[A*B,C,A] ; alpha[A,B,C*A]", sig)
    assert isinstance(monoidal_eq(lhs, rhs, sig), Equal)


def test_lunit_slide_equal(sig):
    r = monoidal_eq(parse_expr("lunit[A] ; f", sig),
                    parse_expr("(id[I] * f) ; lunit[B]", sig), sig)
    assert isinstance(r, Equal)
    assert r.normal_form.layers == ((BoxSlot("f", ("A",), ("B",)),),)


def test_distinct_generators_not_decided(sig):
    r = monoidal_eq(parse_expr("f ; g", sig), parse_expr("k ; g", sig), sig)
    assert isinstance(r, NotDecided)


def test_boundary_mismatch_raises(sig):
    with pytest.raises(TypeMismatch):
        monoidal_eq(parse_expr("f", sig), parse_expr("g", sig), sig)
    # equal flattening but different bracketing is still a mismatch
    t1 = parse_expr("id[(A * B) * C]", sig)
    t2 = parse_expr("id[A * (B * C)]", sig)
    with pytest.raises(TypeMismatch):
        monoidal_eq(t1, t2, sig)


def test_braids_are_opaque_but_flattening_keyed(sig):
    # same split of the same wires, bracketed differently inside
    t1 = parse_expr("braid[A * B, C]", sig)
    mid = parse_expr("alpha[A,B,C]", sig)
    # braid over the rebracketed halves has identical flattened halves
    sheet1 = sheet_of_term(t1, sig)
    label = sheet1.layers[0][0].label
    assert label == "braid([A,B],[C])"
    # braid is not erased
    assert isinstance(monoidal_eq(
        parse_expr("braid[A,A]", sig), parse_expr("id[A * A]", sig), sig), NotDecided)
    del mid


def test_braid_with_unit_half_erased(sig):
    # braiding against a unit-like object permutes nothing
    t1 = parse_expr("braid[I,A]", sig)
    t2 = parse_expr("lunit[A] ; runit_inv[A]", sig)
    assert isinstance(monoidal_eq(t1, t2, sig), Equal)
    assert canonicalize(sheet_of_term(parse_expr("braid_inv[A,I]", sig), sig)).layers == ()


def test_braid_split_distinguished(sig):
    # same flattened in/out wires, different split: must not be identified
    t1 = parse_expr("braid[A * A, A]", sig)  # (A*A)*A -> A*(A*A)
    t2 = parse_expr("alpha[A,A,A] ; braid[A, A * A] ; alpha[A,A,A]", sig)
    r = monoidal_eq(t1, t2, sig)
    assert isinstance(r, NotDecided)


def test_scalar_slides_past_a_box_layer(sig):
    # s : I -> A enters any layer where its gap is open: here beside f
    t = parse_expr("f ; runit_inv[B] ; (id[B] * s)", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    assert nf.layers == ((BoxSlot("f", ("A",), ("B",)), BoxSlot("s", (), ("A",))),)
    check_normal_form(nf)
    assert isinstance(monoidal_eq(t, parse_expr("runit_inv[A] ; (f * s)", sig), sig), Equal)


def test_scalar_stays_out_of_a_box_outputs(sig):
    # s sits between q's two outputs: it may not slide below q
    t = parse_expr("q ; (id[B] * lunit_inv[A]) ; (id[B] * (s * id[A]))", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    assert dump_normal_form(nf) == (
        "in=[C]; layers=[[q([C]->[B,A])], [wire(B)|s([]->[A])|wire(A)]]; out=[B,A,A]")
    check_normal_form(nf)


def test_scalar_held_by_an_effect_at_its_point(sig):
    # e ends the wire where s starts: which side s takes is not canonical,
    # so the three interchange-equal forms stay apart
    forms = ["e ; s", "lunit_inv[A] ; (s * e) ; runit[A]", "runit_inv[A] ; (e * s) ; lunit[A]"]
    nfs = [canonicalize(sheet_of_term(parse_expr(text, sig), sig)) for text in forms]
    for nf in nfs:
        check_normal_form(nf)
    assert len(nfs[0].layers) == 2
    assert len(set(nfs)) == 3


def test_scalar_sheets_normalize_alike(sig):
    # both texts are u u stacked on the first wire, u on the second and s
    # between them: one normal form, s beside the first layer's boxes
    texts = ["(u * id[A]) ; (u * id[A]) ; (id[A] * lunit_inv[A]) ; (id[A] * (s * u))",
             "(u ; u) * (lunit_inv[A] ; (s * id[A]) ; (id[A] * u))"]
    terms = [parse_expr(text, sig) for text in texts]
    for term in terms:
        assert dump_normal_form(canonicalize(sheet_of_term(term, sig))) == (
            "in=[A,A]; layers=[[u([A]->[A])|s([]->[A])|u([A]->[A])], "
            "[u([A]->[A])|wire(A)|wire(A)]]; out=[A,A,A]")
    assert isinstance(monoidal_eq(*terms, sig), Equal)


NO_EFFECT_SIG = parse_signature(STD_SIG_TEXT.replace("mor e : A -> I\n", ""))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_interchange_rewrites_are_equal_without_effects(seed):
    # a term and the same term after 1-4 interchange rewrites, scalars
    # included: only a sheet with both a scalar and an effect stays open
    lhs, rhs = interchange_pair(seed, NO_EFFECT_SIG)
    assert isinstance(monoidal_eq(lhs, rhs, NO_EFFECT_SIG), Equal)


def test_scalars_pass_each_other_by_interchange(sig):
    lhs = parse_expr("(s * s) ; (u * u)", sig)
    rhs = parse_expr("((s ; u) * id[I]) ; (id[A] * (s ; u))", sig)
    r = monoidal_eq(lhs, rhs, sig)
    assert isinstance(r, Equal)
    assert dump_normal_form(r.normal_form) == (
        "in=[]; layers=[[s([]->[A])|s([]->[A])], [u([A]->[A])|u([A]->[A])]]; out=[A,A]")


def test_erasure_soundness_random_structural():
    sig = struct_sig()
    rng = Random(3)
    for _ in range(150):
        obj = random_object(rng, sig.objects, max_leaves=3)
        term = random_structural_term(rng, obj, sig, steps=rng.randint(0, 4))
        nf = canonicalize(sheet_of_term(term, sig))
        assert nf.layers == (), dump_normal_form(nf)


def test_structural_pairs_equal():
    sig = struct_sig()
    rng = Random(4)
    for _ in range(100):
        obj = random_object(rng, sig.objects, max_leaves=3)
        t1 = random_structural_term(rng, obj, sig, steps=rng.randint(1, 3))
        ty = typecheck(t1, sig)
        t2 = structural_connector(ty.dom, ty.cod)
        assert typecheck(t2, sig) == ty
        assert isinstance(monoidal_eq(t1, t2, sig), Equal)


def _canonicalize_random_order(sheet: Sheet, rng: Random) -> NormalForm:
    """Independent oracle: apply admissible single moves in random order."""

    layers = [list(layer) for layer in sheet.layers]
    while True:
        moves = []
        for k in range(1, len(layers)):
            for i, slot in enumerate(layers[k]):
                if isinstance(slot, BoxSlot):
                    probe = copy.deepcopy(layers)
                    if _try_move(probe, k, i):
                        moves.append((k, i))
        if not moves:
            break
        k, i = rng.choice(moves)
        assert _try_move(layers, k, i)
    kept = [tuple(layer) for layer in layers
            if any(isinstance(s, BoxSlot) for s in layer)]
    from monocat.coherence import layer_output

    output = layer_output(sheet.layers[-1]) if sheet.layers else sheet.input
    return NormalForm(sheet.input, output, tuple(kept))


def _scalars_and_effects(sheet: Sheet) -> bool:
    boxes = [s for layer in sheet.layers for s in layer if isinstance(s, BoxSlot)]
    return any(not b.ins for b in boxes) and any(not b.outs for b in boxes)


def test_canonicalize_order_independent(sig):
    # Order independence is asserted only where the slides have one fixpoint:
    # on a sheet holding both a scalar and an effect, which side of the effect
    # a scalar takes depends on the order of the slides (floating components,
    # see test_floating_piece_normal_form_is_valid_and_stable).
    rng = Random(5)
    for _ in range(60):
        term = random_term(rng, sig, max_leaves=9)
        sheet = sheet_of_term(term, sig)
        nf = canonicalize(sheet)
        check_normal_form(nf)
        for trial in range(3):
            other = _canonicalize_random_order(sheet, rng)
            if _scalars_and_effects(sheet):
                check_normal_form(other)
            else:
                assert other == nf


def test_floating_piece_normal_form_is_valid_and_stable(sig):
    # the sheet on which the loop above, run with Random(6), meets two fixpoints
    term = parse_expr("runit_inv[I * A] ; id[I * A * I] ; (id[I * A] * s) ; (s * e * k)", sig)
    sheet = sheet_of_term(term, sig)
    nf = canonicalize(sheet)
    check_normal_form(nf)
    assert canonicalize(Sheet(nf.input, nf.layers)) == nf
    rng = Random(0)
    fixpoints = {_canonicalize_random_order(sheet, rng) for _ in range(20)}
    for other in fixpoints:
        check_normal_form(other)
    assert nf in fixpoints and len(fixpoints) == 2
    assert _canonicalize_random_order(Sheet(nf.input, nf.layers), rng) == nf


def test_congruence(sig):
    rng = Random(6)
    found = 0
    for _ in range(60):
        term = random_term(rng, sig, max_leaves=6)
        ty = typecheck(term, sig)
        variant = random_term_with_dom(rng, sig, ty.dom, 6)
        if typecheck(variant, sig) != ty:
            continue
        r = monoidal_eq(term, variant, sig)
        if not isinstance(r, Equal):
            continue
        found += 1
        # wrap both in a common context: post-compose and tensor
        post = random_term_with_dom(rng, sig, ty.cod, 3)
        c1 = Comp(term, post)
        c2 = Comp(variant, post)
        assert isinstance(monoidal_eq(c1, c2, sig), Equal)
        side = Id(ObjGen("C"))
        assert isinstance(monoidal_eq(Tensor(term, side), Tensor(variant, side), sig), Equal)
        assert isinstance(monoidal_eq(Tensor(side, term), Tensor(side, variant), sig), Equal)
    assert found >= 3  # the sampler must actually exercise the property


def _sheet_padded_at_start(term, sig):
    """Variant sheet builder: tensor pads the shorter sheet at its START."""

    base = sheet_of_term  # reuse the real builder for non-tensor nodes

    def build(t):
        if isinstance(t, Comp):
            a, b = build(t.first), build(t.second)
            return Sheet(a.input, a.layers + b.layers)
        if isinstance(t, Tensor):
            top, bottom = build(t.top), build(t.bottom)
            tl, bl = list(top.layers), list(bottom.layers)
            while len(tl) < len(bl):
                tl.insert(0, top.input)
            while len(bl) < len(tl):
                bl.insert(0, bottom.input)
            return Sheet(top.input + bottom.input,
                         tuple(ta + tb for ta, tb in zip(tl, bl)))
        return base(t, sig)

    return build(term)


def _padding_direction_immaterial(sig, seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        term = random_term(rng, sig, max_leaves=9)
        end_padded = canonicalize(sheet_of_term(term, sig))
        start_padded = canonicalize(_sheet_padded_at_start(term, sig))
        assert end_padded == start_padded, dump_normal_form(end_padded)


def test_tensor_padding_direction_immaterial():
    # with effects: no box lacks inputs
    _padding_direction_immaterial(parse_signature(TWO_SIDED_SIG_TEXT + "mor e : A -> I\n"), 9, 100)


def test_tensor_padding_direction_immaterial_with_scalars():
    # with scalars and no effect, where a scalar lands is canonical too
    _padding_direction_immaterial(parse_signature(TWO_SIDED_SIG_TEXT + "mor s : I -> A\n"), 10, 400)


def test_dump_format(sig):
    nf = canonicalize(sheet_of_term(parse_expr("f * id[C]", sig), sig))
    assert dump_normal_form(nf) == "in=[A,C]; layers=[[f([A]->[B])|wire(C)]]; out=[B,C]"
    nf0 = canonicalize(sheet_of_term(parse_expr("id[A]", sig), sig))
    assert dump_normal_form(nf0) == "in=[A]; layers=[]; out=[A]"


def test_normal_form_invariants_on_random_terms(sig):
    rng = Random(8)
    for _ in range(120):
        term = random_term(rng, sig, max_leaves=10)
        nf = canonicalize(sheet_of_term(term, sig))
        check_normal_form(nf)
        ty = typecheck(term, sig)
        assert nf.input == flatten_object(ty.dom)
        assert nf.output == flatten_object(ty.cod)


def test_eq_requires_same_type_objects():
    sig = parse_signature("category monoidal\nobject A\nmor f : A -> A\n")
    r = monoidal_eq(parse_expr("f ; id[A]", sig), parse_expr("id[A] ; f", sig), sig)
    assert isinstance(r, Equal)


# ---------------------------------------------------------------------------
# The one-pass sweep against the pass loop of single-layer slides
# ---------------------------------------------------------------------------

STAIR_SIG = "category symmetric\nobject A\nmor u : A -> A\nmor m : A * A -> A * A\n"


def _sweep_matches_loop(sheet: Sheet) -> NormalForm:
    layers = _sweep(sheet)
    assert layers == _slide_to_fixpoint(sheet)
    nf = canonicalize(sheet)
    assert nf.layers == layers
    check_normal_form(nf)
    return nf


def test_sweep_equals_loop_on_scalar_free_random_terms():
    nos = parse_signature(STD_SIG_TEXT.replace("mor s : I -> A\n", ""))
    rng = Random(21)
    for _ in range(400):
        term = random_term(rng, nos, max_leaves=rng.randint(2, 14))
        _sweep_matches_loop(sheet_of_term(term, nos))


def _stair_layer(k: int, i: int, box: str, width: int) -> str:
    """A ``box`` on wires i..i+width-1 of k left-nested A wires; a two-wire
    box below the top is reached through alpha ... alpha_inv."""

    pre = " * ".join(["A"] * i)
    if width == 1 or i == 0:
        parts = ([f"id[{pre}]"] if i else []) + [box]
    else:
        parts = [f"(alpha[{pre},A,A] ; (id[{pre}] * {box}) ; alpha_inv[{pre},A,A])"]
    return " * ".join(parts + ["id[A]"] * (k - i - width))


@pytest.mark.parametrize("k", [1, 2, 3, 8, 33, 128])
def test_sweep_equals_loop_on_staircases(k):
    sig = parse_signature(STAIR_SIG)
    stairs = {
        # one box per wire, top to bottom and back: every box slides to layer 0
        "interchange": [_stair_layer(k, i, "u", 1) for i in range(k)],
        "interchange-up": [_stair_layer(k, i, "u", 1) for i in reversed(range(k))],
        # overlapping two-wire boxes: already normal, k-1 layers deep
        "two-wire": [_stair_layer(k, i, "m", 2) for i in range(k - 1)],
        # disjoint two-wire boxes, bottom first: all slide to layer 0
        "two-wire-disjoint": [_stair_layer(k, i, "m", 2) for i in reversed(range(0, k - 1, 2))],
    }
    for name, layers in stairs.items():
        if not layers:
            continue
        nf = _sweep_matches_loop(sheet_of_term(parse_expr(" ; ".join(layers), sig), sig))
        depth = {"two-wire": k - 1}.get(name, 1)
        assert len(nf.layers) == depth, name


def test_sweep_waits_for_an_effect_between_inputs(sig):
    # p's inputs A and B are inputs of the sheet, but e consumes the wire
    # between them two layers in: p may not jump over it
    text = "((id[A] * (u ; u ; e)) * id[B]) ; (runit[A] * id[B]) ; p"
    nf = _sweep_matches_loop(sheet_of_term(parse_expr(text, sig), sig))
    assert dump_normal_form(nf) == (
        "in=[A,A,B]; layers=[[wire(A)|u([A]->[A])|wire(B)], [wire(A)|u([A]->[A])|wire(B)], "
        "[wire(A)|e([A]->[])|wire(B)], [p([A,B]->[C])]]; out=[C]")
    other = parse_expr(text.replace("u ; u", "k ; inv(k)"), sig)
    assert isinstance(monoidal_eq(parse_expr(text, sig), other, sig), NotDecided)


def _random_sheet(rng: Random, width: int, depth: int, scalars: float = 0.0,
                  outs: tuple[int, ...] = (0, 0, 1, 2), cap: int = 64) -> Sheet:
    """Layers of random boxes over wires A and B: one to three inputs and a
    number of outputs drawn from ``outs``; before each slot, with chance
    ``scalars``, a box without inputs.  No boundary grows past ``cap`` wires."""

    boundary = tuple(rng.choice("AB") for _ in range(width))
    start, layers = boundary, []
    for d in range(depth):
        slots, pos, made = [], 0, 0  # made: output wires of this layer so far
        while True:
            room = cap - made - (len(boundary) - pos)
            if scalars and room > 0 and rng.random() < scalars:
                produced = tuple(rng.choice("AB") for _ in range(min(rng.choice(outs), room)))
                slots.append(BoxSlot(f"s{d}.{len(slots)}", (), produced))
                made += len(produced)
                continue
            if pos == len(boundary):
                break
            if rng.random() < 0.6:
                slots.append(boundary[pos])
                pos += 1
                made += 1
                continue
            n = min(rng.choice((1, 1, 2, 3)), len(boundary) - pos)
            produced = tuple(rng.choice("AB") for _ in range(min(rng.choice(outs), n + room)))
            slots.append(BoxSlot(f"b{d}.{pos}", boundary[pos:pos + n], produced))
            pos += n
            made += len(produced)
        layers.append(tuple(slots))
        boundary = layer_output(layers[-1])
    return Sheet(start, tuple(layers))


def test_sweep_equals_loop_on_random_sheets_with_effects():
    rng = Random(8)
    for _ in range(1500):
        _sweep_matches_loop(_random_sheet(rng, rng.randint(1, 8), rng.randint(1, 8)))


def test_sweep_equals_loop_on_random_sheets_with_scalars():
    # boxes without inputs, none without outputs: the reference's slides
    # reach one fixpoint whatever their order, and the sweep must meet it
    rng = Random(13)
    for _ in range(1500):
        _sweep_matches_loop(_random_sheet(rng, rng.randint(0, 6), rng.randint(1, 7),
                                          scalars=0.15, outs=(1, 1, 2), cap=12))


def _sheet_matrix(layers, wires, boxes: dict, rng: Random) -> np.ndarray:
    """The matrix of a sheet: one random matrix per box label, dimension 2
    per wire, each layer the ``kron`` of its slots."""

    total = np.eye(2 ** len(wires))
    for layer in layers:
        step = np.ones((1, 1))
        for slot in layer:
            if isinstance(slot, str):
                step = np.kron(step, np.eye(2))
                continue
            if slot.label not in boxes:
                boxes[slot.label] = np.array(
                    [[rng.gauss(0, 1) for _ in range(2 ** len(slot.ins))]
                     for _ in range(2 ** len(slot.outs))])
            step = np.kron(step, boxes[slot.label])
        total = step @ total
    return total


def _stable(nf: NormalForm) -> bool:
    """No slide of the reference applies to any box of ``nf``."""

    layers = [list(layer) for layer in nf.layers]
    return not any(isinstance(slot, BoxSlot) and _try_move(copy.deepcopy(layers), k, i)
                   for k in range(1, len(layers)) for i, slot in enumerate(layers[k]))


def test_sweep_on_random_sheets_with_scalars_and_effects():
    # with boxes of both kinds the slides' fixpoint depends on their order
    # (e ; s against s * e); the sweep's result must still be a valid,
    # stable, idempotent normal form of the same matrix, and meet the
    # reference whenever one kind is missing
    rng = Random(14)
    both = 0
    for _ in range(1500):
        sheet = _random_sheet(rng, rng.randint(0, 5), rng.randint(1, 7),
                              scalars=0.15, outs=(0, 1, 1, 2), cap=6)
        boxes = [slot for layer in sheet.layers for slot in layer if isinstance(slot, BoxSlot)]
        if not (any(not b.ins for b in boxes) and any(not b.outs for b in boxes)):
            _sweep_matches_loop(sheet)
            continue
        both += 1
        nf = canonicalize(sheet)
        check_normal_form(nf)
        assert _stable(nf), dump_normal_form(nf)
        assert canonicalize(Sheet(nf.input, nf.layers)) == nf
        mats: dict = {}
        expected = _sheet_matrix(sheet.layers, sheet.input, mats, rng)
        assert np.allclose(_sheet_matrix(nf.layers, nf.input, mats, rng), expected)
    assert both >= 500


def test_scalar_on_a_wide_staircase_is_linear():
    # 256 one-wire boxes, one per wire, then a scalar below them: the
    # scalar lands beside them at once (the pass loop took seconds)
    sig = parse_signature(STAIR_SIG + "mor s : I -> A\n")
    k = 256
    text = " ; ".join([_stair_layer(k, i, "u", 1) for i in range(k)]
                      + [f"runit_inv[{' * '.join(['A'] * k)}]", f"id[{' * '.join(['A'] * k)}] * s"])
    sheet = sheet_of_term(parse_expr(text, sig), sig)
    began = time.perf_counter()
    nf = canonicalize(sheet)
    assert time.perf_counter() - began < 1.0
    assert len(nf.layers) == 1 and nf.layers[0][-1] == BoxSlot("s", (), ("A",))


def test_check_normal_form_allows_only_an_effect_to_hold_a_box_back():
    box_p = BoxSlot("p", ("A", "B"), ("C",))
    held = NormalForm(("A", "A", "B"), ("C",), (
        ("A", BoxSlot("e", ("A",), ()), "B"),
        (box_p,)))
    check_normal_form(held)
    # an effect beside the inputs, not between them, holds nothing back
    late = NormalForm(("A", "A", "B"), ("C",), (
        (BoxSlot("e", ("A",), ()), "A", "B"),
        (box_p,)))
    with pytest.raises(AssertionError, match="box p at layer 1, expected 0"):
        check_normal_form(late)


def test_check_normal_form_checks_where_a_scalar_may_enter():
    box_s = BoxSlot("s", (), ("A",))
    q = BoxSlot("q", ("C",), ("B", "A"))
    # between q's outputs: s may not enter q's layer
    inside = NormalForm(("C",), ("B", "A", "A"), ((q,), ("B", box_s, "A")))
    check_normal_form(inside)
    # at the edge after q's outputs: s could enter q's layer
    beside = NormalForm(("C",), ("B", "A", "A"), ((q,), ("B", "A", box_s)))
    with pytest.raises(AssertionError, match="box s without inputs could enter layer 0"):
        check_normal_form(beside)
    # an effect on the same edge holds s back
    held = NormalForm(("A",), ("A",), ((BoxSlot("e", ("A",), ()),), (box_s,)))
    check_normal_form(held)
