"""Normal forms: flattening, sheets, canonicalization, equality decisions."""

import copy
from random import Random

import pytest

from gen import (
    STD_SIG_TEXT,
    random_object,
    random_structural_term,
    random_term,
    random_term_with_dom,
    structural_connector,
    struct_sig,
)
from monocat.coherence import (
    BoxSlot,
    Equal,
    NormalForm,
    NotDecided,
    Sheet,
    WireSlot,
    _slide_to_fixpoint,
    _sweep,
    _try_move,
    canonicalize,
    check_normal_form,
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
    assert sheet.layers == ((BoxSlot("f", ("A",), ("B",)), WireSlot("C")),)


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


def test_scalar_state_blocked_by_box_layer(sig):
    # s : I -> A behind a box layer stays put
    t = parse_expr("f ; runit_inv[B] ; (id[B] * s)", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    assert len(nf.layers) == 2
    assert nf.layers[1] == (WireSlot("B"), BoxSlot("s", (), ("A",)))
    check_normal_form(nf)


def test_scalar_state_slides_through_wire_layer(sig):
    # h vacates the middle layer, then s slides into the pure wire layer
    t = parse_expr(
        "(f * id[C]) ; (id[B] * h) ; runit_inv[B * A] ; (id[B * A] * s)", sig)
    nf = canonicalize(sheet_of_term(t, sig))
    assert len(nf.layers) == 2
    assert nf.layers[0] == (BoxSlot("f", ("A",), ("B",)), BoxSlot("h", ("C",), ("A",)))
    assert nf.layers[1] == (WireSlot("B"), WireSlot("A"), BoxSlot("s", (), ("A",)))
    check_normal_form(nf)


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


def test_canonicalize_order_independent(sig):
    rng = Random(5)
    for _ in range(60):
        term = random_term(rng, sig, max_leaves=9)
        sheet = sheet_of_term(term, sig)
        nf = canonicalize(sheet)
        check_normal_form(nf)
        for trial in range(3):
            assert _canonicalize_random_order(sheet, rng) == nf


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
                tl.insert(0, tuple(WireSlot(w) for w in top.input))
            while len(bl) < len(tl):
                bl.insert(0, tuple(WireSlot(w) for w in bottom.input))
            return Sheet(top.input + bottom.input,
                         tuple(ta + tb for ta, tb in zip(tl, bl)))
        return base(t, sig)

    return build(term)


def test_tensor_padding_direction_immaterial():
    # holds on the scalar-free fragment; zero-input boxes slide
    # conservatively, so their layer is construction-dependent by design
    nos = parse_signature(
        "category symmetric\nobject A\nobject B\nobject C\n"
        "mor f : A -> B\nmor g : B -> C\nmor h : C -> A\nmor u : A -> A\n"
        "mor p : A * B -> C\nmor q : C -> B * A\niso k : A -> B\nmor e : A -> I\n")
    rng = Random(9)
    for _ in range(100):
        term = random_term(rng, nos, max_leaves=9)
        end_padded = canonicalize(sheet_of_term(term, nos))
        start_padded = canonicalize(_sheet_padded_at_start(term, nos))
        assert end_padded == start_padded, dump_normal_form(end_padded)


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


def test_scalar_sheets_take_the_loop(sig, monkeypatch):
    def no_sweep(sheet):
        raise AssertionError("a sheet with a scalar box reached the sweep")

    monkeypatch.setattr("monocat.coherence._sweep", no_sweep)
    cases = {
        "(u * id[A]) ; (u * id[A]) ; (id[A] * lunit_inv[A]) ; (id[A] * (s * u))":
            "in=[A,A]; layers=[[u([A]->[A])|u([A]->[A])], [u([A]->[A])|wire(A)], "
            "[wire(A)|s([]->[A])|wire(A)]]; out=[A,A,A]",
        "(u ; u) * (lunit_inv[A] ; (s * id[A]) ; (id[A] * u))":
            "in=[A,A]; layers=[[u([A]->[A])|s([]->[A])|u([A]->[A])], "
            "[u([A]->[A])|wire(A)|wire(A)]]; out=[A,A,A]",
    }
    for text, dump in cases.items():
        assert dump_normal_form(canonicalize(sheet_of_term(parse_expr(text, sig), sig))) == dump


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


def _random_sheet(rng: Random, width: int, depth: int) -> Sheet:
    """Layers of random boxes, one to three inputs, zero to two outputs."""

    boundary = tuple(rng.choice("AB") for _ in range(width))
    start, layers = boundary, []
    for d in range(depth):
        slots, pos = [], 0
        while pos < len(boundary):
            if rng.random() < 0.6:
                slots.append(WireSlot(boundary[pos]))
                pos += 1
                continue
            n = min(rng.choice((1, 1, 2, 3)), len(boundary) - pos)
            outs = tuple(rng.choice("AB") for _ in range(rng.choice((0, 0, 1, 2))))
            slots.append(BoxSlot(f"b{d}.{pos}", boundary[pos:pos + n], outs))
            pos += n
        layers.append(tuple(slots))
        boundary = layer_output(layers[-1])
    return Sheet(start, tuple(layers))


def test_sweep_equals_loop_on_random_sheets_with_effects():
    rng = Random(8)
    for _ in range(1500):
        _sweep_matches_loop(_random_sheet(rng, rng.randint(1, 8), rng.randint(1, 8)))


def test_check_normal_form_allows_only_an_effect_to_hold_a_box_back():
    box_p = BoxSlot("p", ("A", "B"), ("C",))
    held = NormalForm(("A", "A", "B"), ("C",), (
        (WireSlot("A"), BoxSlot("e", ("A",), ()), WireSlot("B")),
        (box_p,)))
    check_normal_form(held)
    # an effect beside the inputs, not between them, holds nothing back
    late = NormalForm(("A", "A", "B"), ("C",), (
        (BoxSlot("e", ("A",), ()), WireSlot("A"), WireSlot("B")),
        (box_p,)))
    with pytest.raises(AssertionError, match="box p at layer 1, expected 0"):
        check_normal_form(late)
