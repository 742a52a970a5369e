"""Parsing, printing and the exact round-trip contract."""

import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_term
from monocat import semantics
from monocat.parser import (
    FreeMetavarInRhs,
    IllTypedRule,
    ParseError,
    _strip_comment,
    parse_expr,
    parse_obj,
    parse_rules,
    parse_signature,
    print_expr,
    print_obj,
    tokenize,
)
from monocat.terms import (
    Assoc,
    AssocInv,
    Comp,
    DuplicateName,
    Id,
    MorGen,
    MorVar,
    ObjGen,
    ObjTensor,
    ObjVar,
    Tensor,
    UNIT,
    UndeclaredName,
    UnknownLevel,
)
from reference_parser import ReferenceParser, reference_strip_comment

A, B = ObjGen("A"), ObjGen("B")
f, g, h = MorGen("f"), MorGen("g"), MorGen("h")


def test_left_assoc_default(sig):
    sig3 = parse_signature(
        "category symmetric\nobject A\nmor a : A -> A\nmor b : A -> A\nmor c : A -> A")
    a, b, c = MorGen("a"), MorGen("b"), MorGen("c")
    assert parse_expr("a ; b ; c", sig3) == Comp(Comp(a, b), c)
    assert parse_expr("a ; (b ; c)", sig3) == Comp(a, Comp(b, c))
    assert parse_expr("a ; (b ; c)", sig3) != parse_expr("a ; b ; c", sig3)
    assert parse_expr("a * b * c", sig3) == Tensor(Tensor(a, b), c)


def test_precedence():
    # tensor binds tighter than composition
    sig2 = parse_signature(
        "category symmetric\nobject A\nmor a : A -> A * A\n"
        "mor b : A -> A\nmor d : A * A -> A\n")
    term = parse_expr("a ; b * b ; d", sig2)
    a, b, d = MorGen("a"), MorGen("b"), MorGen("d")
    assert term == Comp(Comp(a, Tensor(b, b)), d)


def test_unicode_synonyms(sig):
    assert parse_expr("f ∘ g", sig) == parse_expr("f ; g", sig)
    assert parse_obj("A ⊗ B", sig) == parse_obj("A * B", sig)


def test_comments_and_whitespace(sig):
    assert parse_expr("f ; g  # tail comment", sig) == parse_expr("f;g", sig)


def test_atoms(sig):
    assert parse_expr("id[A * B]", sig) == Id(ObjTensor(A, B))
    assert parse_expr("inv(k)", sig).name == "k"
    assert parse_expr("braid[A,B]", sig).a == A
    assert parse_obj("I", sig) == UNIT


def test_undeclared_errors(sig):
    with pytest.raises(UndeclaredName):
        parse_expr("f * nosuch", sig)
    err = None
    try:
        parse_expr("f ; nosuch", sig)
    except UndeclaredName as e:
        err = e
    assert err is not None
    # typecheck errors carry the offending subexpression's span
    assert err.span is not None
    assert err.span.column == 5


def test_typecheck_error_span_points_at_subterm(sig):
    try:
        parse_expr("f ; inv(f)", sig)
    except Exception as e:
        assert e.span is not None and e.span.column == 5
    else:
        raise AssertionError("expected NotAnIso")


def test_syntax_errors_have_spans(sig):
    with pytest.raises(ParseError) as exc:
        parse_expr("f ; ; g", sig)
    assert exc.value.span is not None
    assert exc.value.span.line == 1


def test_print_examples(sig):
    assert print_expr(Comp(Comp(f, g), h)) == "f ; g ; h"
    assert print_expr(Comp(f, Comp(g, h))) == "f ; (g ; h)"
    assert print_expr(Tensor(Comp(f, g), h)) == "(f ; g) * h"
    assert print_expr(Comp(Tensor(f, h), Tensor(g, Id(A)))) == "(f * h) ; (g * id[A])"
    assert print_obj(ObjTensor(ObjTensor(A, B), A)) == "A * B * A"
    assert print_obj(ObjTensor(A, ObjTensor(B, A))) == "A * (B * A)"


CORPUS = [
    "f", "f ; g", "f ; g ; h", "f ; (g ; h)", "(f ; g) ; h # comment",
    "f * h", "(f ; g) * h", "f * (h ; u)", "id[A]", "id[A * B]", "id[I]",
    "alpha[A,B,C]", "alpha_inv[A,B,C]", "lunit[A]", "lunit_inv[B]",
    "runit[A]", "runit_inv[C]", "braid[A,B]", "braid_inv[A,B]",
    "braid[A * B, C]", "inv(k)", "k ; inv(k)", "s", "e", "s ; e",
    "alpha[A,I,B] ; (id[A] * lunit[B])", "runit[A] * id[B]",
    "(alpha[A,B,C] * id[A]) ; alpha[A,B*C,A]",
    "q ; (g * u)", "p", "(u * f) ; p # mixed", "u ; u ; u ; u",
    "id[A] * id[B]", "(id[A] * id[B]) ; (f * g)", "braid[I,A]",
    "lunit[A] ; f", "(id[I] * f) ; lunit[B]", "w ; inv(w)",
    "f * g * h", "f * (g * h)", "(f * g) * h", "u ; (u ; (u ; u))",
    "((u ; k) ; inv(k)) * id[C]", "e ; s", "id[A * (B * C)]",
    "alpha[A * B, C, A]", "runit_inv[A] ; (u * id[I])",
    "braid[A,B] ; braid_inv[A,B]", "h ; u", "g ; h ; k ; inv(k)",
    "(s * s) ; (e * e)", "q ; (g * (u ; u))",
]


def test_round_trip_corpus(sig):
    assert len(CORPUS) >= 50
    for text in CORPUS:
        term = parse_expr(text, sig)
        printed = print_expr(term)
        assert parse_expr(printed, sig) == term, text
        # printing is a fixpoint
        assert print_expr(parse_expr(printed, sig)) == printed


def test_round_trip_random_terms(sig):
    rng = Random(11)
    for _ in range(200):
        term = random_term(rng, sig, max_leaves=9)
        assert parse_expr(print_expr(term), sig) == term


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------


def test_parse_signature_basic():
    sig = parse_signature("category symmetric\nobject A\nmor f : A -> A\n")
    assert sig.level == "symmetric"
    assert sig.objects == ("A",)
    assert sig.morphisms[0].name == "f"


def test_parse_signature_iso_and_tensor_types():
    sig = parse_signature(
        "category braided\nobject A\nobject B\niso j : A * B -> B * A\n")
    decl = sig.morphism("j")
    assert decl.iso
    assert decl.dom == ObjTensor(A, B)


def test_parse_signature_alias_compose():
    sig = parse_signature(
        'category symmetric\nobject A\nmor a : A -> A\nmor b : A -> A\n'
        'alias "then" = compose\n')
    assert parse_expr("a then b", sig) == parse_expr("a ; b", sig)


def test_parse_signature_alias_symbol_and_id():
    sig = parse_signature(
        'category symmetric\nobject A\nmor a : A -> A\n'
        'alias "." = tensor\nalias "wires" = id\n')
    assert parse_expr("a . a", sig) == parse_expr("a * a", sig)
    assert parse_expr("wires[A]", sig) == Id(A)


def test_parse_signature_errors():
    with pytest.raises(UndeclaredName):
        parse_signature("category symmetric\nobject A\nmor f : A -> B\n")
    with pytest.raises(DuplicateName):
        parse_signature("category plain\nobject A\nobject A\n")
    with pytest.raises(UnknownLevel):
        parse_signature("category weird\n")
    with pytest.raises(ParseError):
        parse_signature("category plain\nwhatever A\n")
    with pytest.raises(ParseError):
        parse_signature("object A\n")  # missing level


def test_signature_backend_blocks_opaque():
    sig = parse_signature(
        "category symmetric\nobject A\nmor f : A -> A\n"
        "backend matrix\ndim A = 2\nmat f = [[1, 0],\n  [0, 1]]\n"
        "backend rel\nsize A = 2\nrel f = {(0,0)}\n")
    kinds = [b.kind for b in sig.backend_blocks]
    assert kinds == ["matrix", "rel"]
    # continuation joined the two-line matrix literal
    assert any("[0, 1]" in line for _, line in sig.backend_blocks[0].entries)


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------

RULE_SIG = parse_signature(
    "category symmetric\nobject A\nobject B\nobject C\n"
    "mor f : A -> B\nmor g : B -> C\nmor h : A -> C\nmor z : C -> C\n")


def test_parse_rules_basic():
    rf = parse_rules("var ?x : A -> B\nrule r : ?x ; g => h\n", RULE_SIG)
    assert len(rf.rules) == 1
    rule = rf.rules[0]
    assert rule.name == "r"
    assert rule.metavars[0][0] == "x"
    assert rule.lhs_chain[0] == MorVar("x")


def test_print_metavariables_round_trip():
    """``print_expr`` writes a metavariable as ``?x``, so a rule's sides
    print as the rule text and parse back to equal terms."""

    sig = parse_signature("category symmetric\nobject A\nmor u : A -> A\n")
    text = "var ?x : A -> A\nrule r : {} => {}\n"
    rule = parse_rules(text.format("?x ; u", "u ; (?x ; u)"), sig).rules[0]
    lhs, rhs = print_expr(rule.lhs), print_expr(rule.rhs)
    assert (lhs, rhs) == ("?x ; u", "u ; (?x ; u)")
    again = parse_rules(text.format(lhs, rhs), sig).rules[0]
    assert (again.lhs, again.rhs) == (rule.lhs, rule.rhs) and again == rule


def test_parse_rules_concrete_lemma():
    rf = parse_rules("rule lemma : f ; g => h\n", RULE_SIG)
    assert rf.rules[0].lhs == Comp(MorGen("f"), MorGen("g"))
    assert rf.rules[0].rhs == MorGen("h")


def test_parse_rules_ill_typed():
    with pytest.raises(IllTypedRule):
        parse_rules("rule bad : f => g\n", RULE_SIG)


def test_parse_rules_free_metavar():
    with pytest.raises(FreeMetavarInRhs):
        parse_rules("rule bad : f ; g => ?y ; h\n", RULE_SIG)


def test_parse_rules_object_metavars():
    rf = parse_rules("var ?x : ?a -> ?b\nrule idl : id[?a] ; ?x => ?x\n", RULE_SIG)
    assert rf.rules[0].name == "idl"


def test_parse_rules_accumulated_declarations():
    rf = parse_rules(
        "var ?x : A -> B\n"
        "rule one : ?x ; g => h\n"
        "var ?y : C -> C\n"
        "rule two : ?x ; g ; ?y => h ; ?y\n", RULE_SIG)
    assert [r.name for r in rf.rules] == ["one", "two"]
    assert dict(rf.rules[1].metavars).keys() == {"x", "y"}
    assert rf.rule("two").name == "two"


def test_parse_rules_duplicate_name():
    # as in a signature, a name declared twice is an error at its second line
    with pytest.raises(ParseError) as exc:
        parse_rules("rule r : f ; g => h\nvar ?x : C -> C\nrule r : z => z\n", RULE_SIG)
    assert str(exc.value) == "rule 'r' declared more than once"
    assert (exc.value.span.line, exc.value.span.column) == (3, 1)


def test_rule_lhs_must_be_chain_of_atoms():
    with pytest.raises(ParseError):
        parse_rules("rule bad : (f ; g) * z ... => h\n", RULE_SIG)
    with pytest.raises(ParseError):
        parse_rules("rule bad : ((f ; g) * id[C]) ; (h * id[C]) => (h * id[C]) ; (h * id[C])\n",
                    RULE_SIG)


def test_repeated_metavariable_annotation_in_rule():
    body = "alpha[?a, B, C] ; alpha_inv[?a, B, C] ; alpha[?a, B, C] => alpha[?a, B, C]"
    rule = parse_rules(f"rule r : {body}\n", RULE_SIG).rules[0]
    ref = ReferenceParser(tokenize(body), allow_metavars=True)
    assert rule.lhs == ref.parse_expr() and ref.next()[0] == "DARROW"
    assert rule.rhs == ref.parse_expr()
    args = ObjVar("a"), ObjGen("B"), ObjGen("C")
    assert rule.lhs == Comp(Comp(Assoc(*args), AssocInv(*args)), Assoc(*args))
    assert rule.lhs.second is rule.lhs.first.first and rule.lhs.second.a is ObjVar("a")
    with pytest.raises(IllTypedRule) as exc:
        parse_rules("rule r : alpha[?a, B, C] ; alpha[?a, B, C] => alpha[?a, B, C]\n", RULE_SIG)
    assert str(exc.value) == ("rule 'r': cannot compose: codomain (?a * (B * C)) "
                              "does not match domain ((?a * B) * C)")
    assert exc.value.span.column == 1


@pytest.mark.parametrize("text,message,column", [
    ("var ? : A -> B\n", "'?' must be followed by a metavariable name", 1),
    ("var ?x : A -> $\n", "unexpected character '$'", 11),
    ("var x : A -> B\n", "expected a metavariable, found 'x'", 1),
    ("var ?x : A -> B C\n", "expected end of declaration, found 'C'", 13),
    ("rule r : f ; ² => h\n", "unexpected character '²'", 6),
    ("rule r : f ; g => nosuch ; $\n", "unexpected character '$'", 20),
    ("rule r : f ; g => ?\n", "'?' must be followed by a metavariable name", 11),
    ('rule r : f ; g => "s"\n', "expected a morphism, found 's'", 11),
    ("rule r : f ; g =>\n", "expected a morphism, found ''", 10),
    ("rule r : f ; id[?] => h\n", "'?' must be followed by a metavariable name", 9),
])
def test_rule_file_lexical_and_syntax_errors(text, message, column):
    # var-line columns count from the declaration after "var", rule columns from the body
    with pytest.raises(ParseError) as exc:
        parse_rules(text, RULE_SIG)
    assert str(exc.value) == message and exc.value.span.column == column


@pytest.mark.parametrize("kind,text,error,message,column", [
    ("sig", "mor f : A -> (A *", ParseError, "expected an object, found ''", 18),
    ("sig", "iso f : A * $ -> A", ParseError, "unexpected character '$'", 13),
    ("sig", "mor f : A -> A -> A", ParseError, "expected end of declaration, found '->'", 16),
    ("sig", 'alias "x = compose', ParseError, "unterminated string", 7),
    ("sig", "mor my-map : A -> A", ParseError, "unexpected character '-'", 7),
    ("sig", "category weird", UnknownLevel, "unknown category level 'weird'", 10),
    # an unclosed bracket no longer takes in the next declaration
    ("sig", "mor f : A -> (A *\nobject B", ParseError, "expected an object, found ''", 18),
    ("rules", "var ?x : A -> $", ParseError, "unexpected character '$'", 11),
    ("rules", "rule r : f ; ² => g", ParseError, "unexpected character '²'", 6),
])
def test_declaration_errors_name_the_file_line(kind, text, error, message, column):
    # the bad declaration is line 4 of a signature file or line 3 of a rule file
    with pytest.raises(error) as exc:
        if kind == "sig":
            parse_signature(f"category symmetric\nobject A\n# three\n{text}\n")
        else:
            parse_rules(f"var ?y : A -> B\n\n{text}\n", RULE_SIG)
    assert str(exc.value) == message
    assert (exc.value.span.line, exc.value.span.column) == (4 if kind == "sig" else 3, column)


@pytest.mark.parametrize("lines,message,line,column", [
    (["mor f : A -> Z"], "undeclared object 'Z'", 3, 14),
    # the first line naming an undeclared object, at the object's first word there
    (["mor f : A -> A", "iso k : A * (A * Q) -> Q", "mor g : Q -> A"], "undeclared object 'Q'", 4, 18),
    (["object A"], "'A' declared more than once", 3, 8),
    (["mor f : A -> A", "mor f : A -> A"], "'f' declared more than once", 4, 5),
    (["mor A : A -> A"], "'A' declared more than once", 3, 5),
    (["mor f : A -> A", "object f"], "'f' declared more than once", 4, 8),
    (["object id"], "'id' is a reserved built-in name", 3, 8),
    (["iso braid : A -> A"], "'braid' is a reserved built-in name", 3, 5),
])
def test_signature_checks_name_the_declaration_at_fault(lines, message, line, column):
    with pytest.raises((UndeclaredName, DuplicateName)) as exc:
        parse_signature("category symmetric\nobject A\n" + "\n".join(lines) + "\n")
    assert str(exc.value) == message
    assert (exc.value.span.line, exc.value.span.column) == (line, column)


def test_signature_objects_may_be_declared_after_use():
    sig = parse_signature("category symmetric\nmor f : Z -> A\nobject Z\nobject A\n")
    assert sig.objects == ("Z", "A")


def test_backend_literals_still_continue_over_lines():
    # only a backend block's lines join the lines after an unclosed bracket
    sig = parse_signature("category symmetric\nobject A\nmor f : A -> A\nbackend matrix\n"
                          "dim A = 2\nmat f = [[1, 0],  # first row\n   [0, 1]]\ndim B = (\n")
    assert sig.backend_blocks[0].entries == (
        (5, "dim A = 2"), (6, "mat f = [[1, 0], [0, 1]]"), (8, "dim B = ("))


def test_readme_signature_and_rule_examples_parse():
    # the signature block builds both backends; the rule block and inline rules parse against it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = {s.split("\n", 1)[0]: s for s in readme.split("\n## ")}
    sig = parse_signature(sections["Signature files"].split("```")[1])
    semantics.matrix_instance(sig)
    semantics.rel_instance(sig)
    rules = sections["Rule files"]
    text = rules.split("```")[1] + "".join(f"{r}\n" for r in re.findall(r"`(rule [^`]*)`", rules))
    assert [r.name for r in parse_rules(text, sig).rules] == ["r", "idid"]


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet='ab #"\t;', max_size=30))
def test_strip_comment_matches_reference(line):
    assert _strip_comment(line) == reference_strip_comment(line)
