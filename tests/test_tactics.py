"""Tactic suite: foliation, partnering, rewriting, cancellation, closing."""

from random import Random

import pytest

from gen import TWO_SIDED_SIG_TEXT, random_term, random_matrix_instance, random_rel_instance
from monocat.coherence import Equal, monoidal_eq
from monocat.parser import parse_expr, parse_rules, parse_signature, print_expr
from monocat.semantics import eval_matrix, eval_rel, mat_equiv
from monocat.tactics import (
    NoMatch,
    NotAdjacent,
    NotProved,
    Proved,
    assoc_rw,
    cancel_isos,
    cat_easy,
    cat_simpl,
    foliate,
    is_stack,
    partner,
    right_associate,
    weak_foliate,
)
from monocat.terms import (
    Comp,
    Id,
    MorGen,
    ObjGen,
    ObjTensor,
    Tensor,
    TypeMismatch,
    comp_chain,
    typecheck,
)

FOL_SIG = parse_signature(
    "category symmetric\nobject N\nobject A\nobject B\nobject C\nobject M\n"
    "mor f : N -> B\nmor g : B -> C\nmor h : A -> M\n")


def test_foliate_worked_example():
    t = parse_expr("(f ; g) * h", FOL_SIG)
    out = foliate(t, FOL_SIG)
    assert print_expr(out) == "(f * id[A]) ; ((id[B] * h) ; (g * id[M]))"
    assert typecheck(out, FOL_SIG) == typecheck(t, FOL_SIG)


def test_weak_foliate_worked_example():
    t = parse_expr("(f ; g) * h", FOL_SIG)
    out = weak_foliate(t, FOL_SIG)
    assert print_expr(out) == "(f * h) ; (g * id[M])"


def test_weak_foliate_interchange_shape(sig):
    t = parse_expr("(f ; g) * (h ; u)", sig)
    out = weak_foliate(t, sig)
    assert out == parse_expr("(f * h) ; (g * u)", sig)


def test_foliate_single_atom(sig):
    f = MorGen("f")
    assert foliate(f, sig) == f
    assert weak_foliate(f, sig) == f


def test_foliate_identities_collapse(sig):
    t = parse_expr("id[A] * id[B]", sig)
    assert foliate(t, sig) == Id(ObjTensor(ObjGen("A"), ObjGen("B")))
    assert weak_foliate(t, sig) == Id(ObjTensor(ObjGen("A"), ObjGen("B")))


def test_weak_foliate_already_weak(sig):
    t = parse_expr("f * g", sig)
    assert weak_foliate(t, sig) == t


def test_is_stack():
    f = MorGen("f")
    assert is_stack(f, "strong")
    assert is_stack(Tensor(Id(ObjGen("A")), f), "strong")
    assert not is_stack(Tensor(f, f), "strong")
    assert is_stack(Tensor(f, f), "weak")
    assert not is_stack(Comp(f, f), "weak")


def test_foliate_outputs_are_stacks(sig):
    rng = Random(21)
    for _ in range(120):
        t = random_term(rng, sig, max_leaves=8)
        for el in comp_chain(foliate(t, sig)):
            assert is_stack(el, "strong"), print_expr(el)
        for el in comp_chain(weak_foliate(t, sig)):
            assert is_stack(el, "weak"), print_expr(el)


PARTNER_SIG = parse_signature(
    "category symmetric\nobject A\n" +
    "\n".join(f"mor {n} : A -> A" for n in "abcdpqr"))


def _pe(text):
    return parse_expr(text, PARTNER_SIG)


def test_partner_groups_and_right_associates():
    out = partner(_pe("a ; (b ; (c ; d))"), _pe("b"), _pe("c"), PARTNER_SIG)
    assert out == Comp(MorGen("a"), Comp(Comp(MorGen("b"), MorGen("c")), MorGen("d")))


def test_partner_already_grouped():
    t = _pe("(p ; q) ; r")
    assert partner(t, _pe("p"), _pe("q"), PARTNER_SIG) == t


def test_partner_not_adjacent():
    with pytest.raises(NotAdjacent):
        partner(_pe("a ; b"), _pe("b"), _pe("a"), PARTNER_SIG)


def test_partner_under_tensor(sig):
    t = parse_expr("id[A] * (u ; (u ; u))", sig)
    p = parse_expr("u", sig)
    out = partner(t, p, p, sig)
    assert out == parse_expr("id[A] * ((u ; u) ; u)", sig)


RW_SIG = parse_signature(
    "category symmetric\nobject A\nobject B\nobject C\nobject D\nobject E\n"
    "mor e : A -> B\nmor f : B -> C\nmor g : C -> D\nmor h : B -> D\n"
    "mor i : E -> E\nmor z : D -> D\n")
RW_RULES = parse_rules("rule fg : f ; g => h\n", RW_SIG)


def test_assoc_rw_inside_tensor_argument():
    t = parse_expr("i * (e ; f ; g)", RW_SIG)
    out = assoc_rw(t, RW_RULES.rules[0], RW_SIG)
    assert out == parse_expr("i * (e ; h)", RW_SIG)


def test_assoc_rw_reassociates_window():
    t = parse_expr("(e ; f) ; g", RW_SIG)
    out = assoc_rw(t, RW_RULES.rules[0], RW_SIG)
    assert out == parse_expr("e ; h", RW_SIG)


def test_assoc_rw_no_match_across_tensor():
    with pytest.raises(NoMatch):
        assoc_rw(parse_expr("f * g", RW_SIG), RW_RULES.rules[0], RW_SIG)


def test_assoc_rw_metavariables():
    rules = parse_rules("var ?x : B -> C\nrule r : ?x ; g => h\n", RW_SIG)
    t = parse_expr("e ; (f ; g) ; z", RW_SIG)
    out = assoc_rw(t, rules.rules[0], RW_SIG)
    assert out == parse_expr("e ; (h ; z)", RW_SIG)


def test_assoc_rw_object_metavariables():
    rules = parse_rules("var ?x : ?a -> ?b\nrule idr : ?x ; id[?b] => ?x\n", RW_SIG)
    t = parse_expr("e ; id[B]", RW_SIG)
    out = assoc_rw(t, rules.rules[0], RW_SIG)
    assert out == parse_expr("e", RW_SIG)


def test_assoc_rw_typed_metavar_respects_declared_type():
    rules = parse_rules("var ?x : B -> C\nrule r : e ; ?x => e ; f\n", RW_SIG)
    # ?x must have type B -> C; 'e ; h'-style windows with wrong type don't bind
    t = parse_expr("e ; h", RW_SIG)
    with pytest.raises(NoMatch):
        assoc_rw(t, rules.rules[0], RW_SIG)


CANCEL_SIG = parse_signature(
    "category symmetric\nobject A\nobject B\nobject Bp\n"
    "mor g : A -> A\niso f : A -> Bp\nmor x : A -> A * B\nmor y : A * B -> A\n")


def test_cancel_isos_generator_inverse():
    t = parse_expr("g ; f ; inv(f)", CANCEL_SIG)
    assert cancel_isos(t, CANCEL_SIG) == MorGen("g")


def test_cancel_isos_symmetric_braids():
    t = parse_expr("x ; braid[A,B] ; braid[B,A] ; y", CANCEL_SIG)
    assert cancel_isos(t, CANCEL_SIG) == Comp(MorGen("x"), MorGen("y"))


def test_cancel_isos_no_op_preserves_shape():
    t = parse_expr("(g ; g) ; g", CANCEL_SIG)
    assert cancel_isos(t, CANCEL_SIG) == t
    t2 = parse_expr("g * (g ; g)", CANCEL_SIG)
    assert cancel_isos(t2, CANCEL_SIG) == t2


def test_cancel_isos_braided_level_no_symmetric_pairing():
    braided = parse_signature(
        "category braided\nobject A\nobject B\nmor x : A -> A * B\nmor y : A * B -> A\n")
    t = parse_expr("x ; braid[A,B] ; braid[B,A] ; y", braided)
    assert cancel_isos(t, braided) == t  # only braid_inv cancels below symmetric


def test_cancel_isos_cascade():
    t = parse_expr("g ; f ; inv(f) ; f ; inv(f)", CANCEL_SIG)
    assert cancel_isos(t, CANCEL_SIG) == MorGen("g")


def test_cat_simpl_examples():
    assert cat_simpl(parse_expr("id[A] ; g ; id[A]", CANCEL_SIG), CANCEL_SIG) == MorGen("g")
    assert cat_simpl(parse_expr("(id[A] * id[B]) ; y", CANCEL_SIG), CANCEL_SIG) == MorGen("y")
    t = parse_expr("g ; f ; inv(f) ; id[A]", CANCEL_SIG)
    assert cat_simpl(t, CANCEL_SIG) == MorGen("g")


def test_cat_simpl_cancel_after_id_removal():
    # the identity hides the inverse pair; one joint fixpoint finds it
    t = parse_expr("f ; id[Bp] ; inv(f)", CANCEL_SIG)
    assert cat_simpl(t, CANCEL_SIG) == Id(ObjGen("A"))


def test_idempotence_random(sig):
    rng = Random(31)
    for _ in range(150):
        t = random_term(rng, sig, max_leaves=9)
        c = cancel_isos(t, sig)
        assert cancel_isos(c, sig) == c
        s = cat_simpl(t, sig)
        assert cat_simpl(s, sig) == s


def test_cat_easy_braid_cancellation():
    t1 = parse_expr("x ; braid[A,B] ; braid[B,A] ; y", CANCEL_SIG)
    t2 = parse_expr("x ; y", CANCEL_SIG)
    assert isinstance(cat_easy(t1, t2, CANCEL_SIG), Proved)


def test_cat_easy_foliation_example():
    t1 = parse_expr("(f ; g) * h", FOL_SIG)
    t2 = parse_expr("(f * h) ; (g * id[M])", FOL_SIG)
    assert isinstance(cat_easy(t1, t2, FOL_SIG), Proved)


def test_cat_easy_distinct_generators(sig):
    assert isinstance(cat_easy(parse_expr("f", sig), parse_expr("k", sig), sig), NotProved)


def test_cat_easy_type_mismatch(sig):
    # the same check and text as monoidal_eq and the CLI (coherence.shared_boundary)
    with pytest.raises(TypeMismatch,
                       match=r"^terms do not share a boundary type: A -> B vs B -> C$"):
        cat_easy(parse_expr("f", sig), parse_expr("g", sig), sig)


def test_cat_easy_reflexive_random(sig):
    rng = Random(41)
    for _ in range(60):
        t = random_term(rng, sig, max_leaves=8)
        assert isinstance(cat_easy(t, t, sig), Proved)


def test_cat_easy_trace_records_steps(sig):
    r = cat_easy(parse_expr("u ; id[A]", sig), parse_expr("id[A] ; u", sig), sig)
    assert isinstance(r, Proved)
    names = [s.tactic for s in r.trace]
    assert "cat_simpl(lhs)" in names and "weak_foliate(rhs)" in names


def _all_tactics(t, s):
    yield "foliate", foliate(t, s)
    yield "weak_foliate", weak_foliate(t, s)
    yield "cancel_isos", cancel_isos(t, s)
    yield "cat_simpl", cat_simpl(t, s)
    yield "right_associate", right_associate(t)


def test_type_and_semantics_preservation(sig):
    rng = Random(51)
    mi = random_matrix_instance(rng, sig, max_dim=2)
    ri = random_rel_instance(rng, sig, max_size=2)
    for _ in range(60):
        t = random_term(rng, sig, max_leaves=8)
        ty = typecheck(t, sig)
        m = eval_matrix(t, mi)
        r = eval_rel(t, ri)
        for name, out in _all_tactics(t, sig):
            assert typecheck(out, sig) == ty, name
            assert mat_equiv(eval_matrix(out, mi), m, 1e-9), name
            assert eval_rel(out, ri) == r, name


def _foliate_equal_under_monoidal_eq(sig, seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        t = random_term(rng, sig, max_leaves=8)
        assert isinstance(monoidal_eq(t, foliate(t, sig), sig), Equal)
        assert isinstance(monoidal_eq(t, weak_foliate(t, sig), sig), Equal)
        assert isinstance(monoidal_eq(t, right_associate(t), sig), Equal)


def test_foliate_equal_under_monoidal_eq():
    # with effects: no box lacks inputs
    _foliate_equal_under_monoidal_eq(parse_signature(TWO_SIDED_SIG_TEXT + "mor e : A -> I\n"), 61, 60)


def test_foliate_equal_under_monoidal_eq_with_scalars():
    # with scalars and no effect, reassociating never moves a scalar's layer
    _foliate_equal_under_monoidal_eq(parse_signature(TWO_SIDED_SIG_TEXT + "mor s : I -> A\n"), 62, 400)


def test_cancel_isos_returns_an_unchanged_chain_itself(sig):
    # 400 loops, left-associated as parsed, nothing to cancel; also under a tensor
    chain = parse_expr(" ; ".join(["u"] * 400), sig)
    assert cancel_isos(chain, sig) is chain
    stacked = Tensor(chain, parse_expr("f ; g", sig))
    assert cancel_isos(stacked, sig) is stacked
