"""The typing parser: the reference's terms and errors, the kept boundary,
shared boundary objects, and depth at the default recursion limit."""

import copy
import dataclasses
import os
import pickle
import re
import sys
import tracemalloc
from contextlib import redirect_stdout
from random import Random

import pytest

import monocat.terms as terms
from gen import STD_SIG_TEXT, random_term, std_sig
from monocat.cli import ReplState, repl_step
from monocat.coherence import Equal, monoidal_eq
from monocat.parser import (
    _TABLE_SIZE,
    IllTypedRule,
    ParseError,
    _ExprParser,
    parse_expr,
    parse_obj,
    parse_rules,
    parse_signature,
    print_expr,
)
from monocat.tactics import Proved, cancel_isos, cat_easy, foliate
from monocat.terms import (
    CatError,
    Comp,
    CompositionMismatch,
    Id,
    Inv,
    MorDecl,
    MorGen,
    MorType,
    ObjGen,
    ObjTensor,
    Signature,
    Tensor,
    Typer,
    UNIT,
    UndeclaredName,
    keep_type,
    typecheck,
)
from reference_parser import reference_parse_expr

STD = std_sig()
PLAIN = parse_signature("category plain\nobject A\nmor u : A -> A\nmor f : A -> A\n")
MONOIDAL = parse_signature("category monoidal\nobject A\nobject B\nmor u : A -> A\n")
SIGS = {"std": STD, "plain": PLAIN, "monoidal": MONOIDAL}


def _outcome(parse, text, sig):
    try:
        return ("ok", parse(text, sig))
    except CatError as err:
        span = err.span and (err.span.line, err.span.column, err.span.start, err.span.end)
        return (type(err).__name__, str(err), span)


# Ill-typed expressions: undeclared morphisms and objects, one undeclared
# name repeated, mismatches deep in a chain, level violations over
# undeclared objects, ``inv`` of a non-iso, syntax errors after a type
# error; a few well-typed ones keep the comparison honest.
ERROR_CORPUS = [
    ("std", "nosuch"), ("std", "f ; nosuch"), ("std", "f * nosuch ; g"), ("std", "(nosuch)"),
    ("std", "((nosuch)) ; f"), ("std", "nosuch ; nosuch"), ("std", "u ; zz ; zz"),
    ("std", "id[Z]"), ("std", "id[A * Z]"), ("std", "id[(Z)]"), ("std", "id[((A * Z))]"),
    ("std", "braid[A, Z]"), ("std", "alpha[A, (Z), Z]"), ("std", "id[Z] ; id[A] * id[Z]"),
    ("std", "id[Z * Z]"), ("std", "id[A] * id[Z] ; id[Z]"), ("std", "(id[Z])"),
    ("std", "f ; f"), ("std", "(f ; f)"), ("std", "((f ; f)) ; g"),
    ("std", "u ; u ; u ; f ; f ; u"), ("std", "u ; (u ; (u ; (f ; g ; f)))"),
    ("std", "u * (f ; f)"), ("std", "(u * u) ; (f * f) ; (g * h)"), ("std", "f * g ; p"),
    ("std", "s ; e ; s ; s"), ("std", "(u ; u) ; id[I]"), ("std", "u ; (id[A * B] ; p)"),
    ("std", "inv(f)"), ("std", "(inv(f))"), ("std", "u ; inv(f)"), ("std", "inv(nosuch)"),
    ("std", "k ; inv(k) ; inv(u)"),
    ("std", "inv(f) ; ;"), ("std", "f ; f )"), ("std", "id[Z] ; (u"), ("std", "nosuch ; ]"),
    ("std", "f ; f ; id["), ("std", "inv(f) ?x"), ("std", "id[Z] id[A]"),
    ("plain", "lunit[Z]"), ("plain", "u ; alpha[A, Z, A]"), ("plain", "braid[Z, Z]"),
    ("plain", "(runit[A])"), ("plain", "u ; id[Z]"),
    ("monoidal", "braid[Z, A]"), ("monoidal", "braid[A, B]"), ("monoidal", "lunit[Z]"),
    ("monoidal", "alpha[A, B, A] ; alpha_inv[A, B, A] ; id[Z]"),
    ("std", "id[I] * u ; lunit[A]"), ("std", "f ; g ; h"), ("std", "(f * u) ; (g * f)"),
    ("std", "id[Z] ; id[Z]"), ("std", "id[Z * Z] ; f"), ("std", "(id[Z]) ; id[(Z)]"),
    # one-word bracket arguments, which skip the chain loop
    ("std", "id["), ("std", "id[A"), ("std", "alpha[A,]"), ("std", "braid[A,B"), ("std", "id[]"),
    ("std", "braid[A,]"), ("std", "alpha[A,B,C"), ("std", "id[(]"), ("std", "id[A,]"),
    ("std", "braid[I,?]"), ("std", "lunit[id]"), ("monoidal", "braid[B,Z]"),
    # errors in or after an annotation repeated word for word, which is parsed once
    ("std", "id[A * Z] * id[A * Z]"), ("std", "alpha[A, B] * alpha[A, B]"),
    ("plain", "braid[Z, Z] * braid[Z, Z]"), ("std", "id[A * B] * id[A * B] ; id[A * B * A]"),
    ("std", "id[A * B] ; id[A * B] ; id[A * B * Z]"), ("std", "id[A * B] ; id[A * B * (]"),
    ("std", "id[A * B] ; id[A * B * )]"), ("std", "id[A * B] ; id[A * B * id]"),
    ("std", "id[A * B] ; id[A * B * ?x]"), ("std", "id[A * B] ; id[A * B ; C]"),
    ("std", "id[A * B] * id[A * B] id[A * B]"), ("std", "id[A*B] * id[A * B] ; id[(A * B)]"),
    ("std", "id[(A * B)] * id[(A * B)] ; id[(A * B) * A]"), ("std", "id[Z] ; id[Z] ; id[A * Z]"),
    ("std", "alpha[A, B * C, A] ; alpha[A, B * C, A] ; alpha[A, B * C * Z, A]"),
    ("std", "alpha[A * B, C, A] ; alpha_inv[A * B, C, A] ; alpha[A * B * C, A, B]"),
    ("std", "braid[A * B, C] ; braid[A * B, C] ; braid[C, A * B]"),
    ("std", "nosuch ; id[A * B] ; id[A * B] ; id[A * B * Z]"),
    ("std", "id[A * B] * nosuch ; id[A * B] * nosuch"), ("std", "id[A * B] ; id[A * B"),
    ("monoidal", "alpha[A, B, A] * braid[A * B, A] ; alpha[A, B, A] * braid[A * B, A]"),
    ("monoidal", "lunit[A * B] ; lunit[A * B] ; lunit[A * B * Z]"),
]

_NAMES = ["A", "B", "C", "Z", "I", "f", "g", "h", "u", "p", "q", "k", "w", "s", "e", "zz", "id"]
_JUNK = [" ; )", " ]", " *", " (", ", A", " ?x", ""]


def _mutate(rng: Random, text: str) -> str:
    """Replace one or two names at random and maybe add stray punctuation."""

    for _ in range(rng.randint(1, 2)):
        names = list(re.finditer(r"[A-Za-z_]\w*", text))
        m = rng.choice(names)
        text = text[:m.start()] + rng.choice(_NAMES) + text[m.end():]
    if rng.random() < 0.3:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_JUNK) + text[at:]
    return text


def _random_corpus(count: int) -> list[tuple[str, str]]:
    rng = Random(20261018)
    corpus = []
    for _ in range(count):
        name = rng.choice(list(SIGS))
        sig = SIGS[name]
        text = print_expr(random_term(rng, STD, max_leaves=rng.randint(1, 9)))
        if name != "std":
            text = re.sub(r"\b[BC]\b", "A", text)
        corpus.append((name, _mutate(rng, text)))
    return corpus


def _repeated_corpus(count: int) -> list[tuple[str, str]]:
    """Random texts that repeat one of their bracketed annotations, mutated."""

    rng = Random(20261019)
    corpus = []
    while len(corpus) < count:
        name = rng.choice(list(SIGS))
        text = print_expr(random_term(rng, STD, max_leaves=rng.randint(1, 9)))
        annotations = re.findall(r"\w+\[[^\]]*\]", text)
        if not annotations:
            continue
        a = rng.choice(annotations)
        text = rng.choice([f"{a} * {text} * {a}", f"({a} ; {a}) * ({text})",
                           f"{text} ; {a} * {a}", f"{a} * {a} * ({text})"])
        if name != "std":
            text = re.sub(r"\b[BC]\b", "A", text)
        corpus.append((name, _mutate(rng, text)))
    return corpus


@pytest.mark.parametrize("sig_name,text", ERROR_CORPUS)
def test_errors_match_reference(sig_name, text):
    sig = SIGS[sig_name]
    assert _outcome(parse_expr, text, sig) == _outcome(reference_parse_expr, text, sig)


def test_random_mutations_match_reference():
    kinds = set()
    for sig_name, text in _random_corpus(1500):
        sig = SIGS[sig_name]
        got = _outcome(parse_expr, text, sig)
        assert got == _outcome(reference_parse_expr, text, sig), (sig_name, text)
        kinds.add(got[0])
    # the corpus reaches every kind of outcome
    assert {"ok", "ParseError", "UndeclaredName", "CompositionMismatch",
            "LevelViolation", "NotAnIso"} <= kinds


def test_random_repeated_annotations_match_reference():
    kinds = set()
    for sig_name, text in _repeated_corpus(800):
        sig = SIGS[sig_name]
        got = _outcome(parse_expr, text, sig)
        assert got == _outcome(reference_parse_expr, text, sig), (sig_name, text)
        kinds.add(got[0])
    assert {"ok", "ParseError", "UndeclaredName", "CompositionMismatch",
            "LevelViolation"} <= kinds


def test_repeated_annotation_is_one_atom():
    term = parse_expr("id[A * B] * id[A * B]", STD)
    assert term.top is term.bottom
    assert term == Tensor(Id(ObjTensor(ObjGen("A"), ObjGen("B"))),
                          Id(ObjTensor(ObjGen("A"), ObjGen("B"))))
    assert print_expr(term) == "id[A * B] * id[A * B]"
    wide = parse_expr("alpha[A * B, C, A] ; alpha_inv[A * B, C, A] ; alpha[A * B, C, A]", STD)
    assert wide.first.first is wide.second and wide.first.first.a is wide.first.second.a


def test_memo_stores_only_clean_first_occurrences():
    # each case reads a fresh signature, as the memo is the signature's table, which outlives
    # a parse; "A * Z" names an undeclared object, "id[A * Z]" records the error, and after it
    # nothing is kept
    parser = _ExprParser("id[A * B] ; id[A * Z] ; id[A * C] ; id[A * B * C]",
                         typer=Typer(std_sig()))
    parser.parse_expr()
    assert set(parser.memo) == {("A", "*", "B"), ("id", "[", "A", "*", "B", "]")}
    parser = _ExprParser("id[A * B C]", typer=Typer(std_sig()))  # the object ends before "]"
    with pytest.raises(ParseError):
        parser.parse_expr()
    assert not parser.memo
    parser = _ExprParser("id[A * B] * id[C] ; id[A * B * C] ; id[A * B * C]",
                         typer=Typer(std_sig()))
    term = parser.parse_expr()[0]
    assert parser.error is None and term.first.second is term.second
    assert set(parser.memo) == {("A", "*", "B"), ("A", "*", "B", "*", "C"),
                                ("id", "[", "A", "*", "B", "]"), ("id", "[", "C", "]"),
                                ("id", "[", "A", "*", "B", "*", "C", "]")}


def test_memo_is_per_signature():
    declared = parse_signature("category symmetric\nobject A\nobject Q\n")
    undeclared = parse_signature("category symmetric\nobject A\n")
    parse_expr("id[Q] ; id[Q]", declared)
    for text in ("id[Q]", "id[A * Q] ; id[A * Q]"):
        with pytest.raises(UndeclaredName) as exc:
            parse_expr(text, undeclared)
        assert _outcome(parse_expr, text, undeclared) == \
            _outcome(reference_parse_expr, text, undeclared)
    assert (exc.value.span.column, exc.value.span.start, exc.value.span.end) == (8, 7, 8)


# ---------------------------------------------------------------------------
# The signature's parse tables, which outlive a parse
# ---------------------------------------------------------------------------


def test_warm_tables_match_reference():
    # signatures whose tables have already read every text: each error and its span must
    # still come from a first occurrence parsed word by word
    warm = {name: copy.copy(sig) for name, sig in SIGS.items()}
    corpus = ERROR_CORPUS + _repeated_corpus(800)
    for sig_name, text in corpus:
        _outcome(parse_expr, text, warm[sig_name])
    assert all(sig._atoms and sig._tensors for sig in warm.values())
    for sig_name, text in corpus:
        sig = warm[sig_name]
        assert _outcome(parse_expr, text, sig) == _outcome(reference_parse_expr, text, sig), \
            (sig_name, text)


def test_untyped_parses_leave_the_tables_alone():
    # an untyped parse makes "A * Z" without counting Z as undeclared; stored in the shared
    # table, it would later be typed as checked
    sig = std_sig()
    parse_expr("id[A * B] * u ; id[A * B] * u", sig)
    tables = dict(sig._atoms), dict(sig._tensors)
    with pytest.raises(UndeclaredName):
        parse_obj("A * Z", sig)
    with pytest.raises(IllTypedRule):
        parse_rules("rule r : id[A * Z] => id[A * Z]\n", sig)
    parse_rules("var ?x : A * B -> A * B\nrule r : ?x ; id[A * B] => u * id[B] ; ?x\n", sig)
    assert (sig._atoms, sig._tensors) == tables
    got = _outcome(parse_expr, "id[A * Z]", sig)
    assert got[0] == "UndeclaredName"
    assert got == _outcome(parse_expr, "id[A * Z]", std_sig())


def _distinct_object(i: int) -> str:
    """The object whose factors spell ``i`` in base 3 over A, B and C."""

    factors = []
    while True:
        factors.append("ABC"[i % 3])
        i //= 3
        if not i:
            return " * ".join(factors)


def test_tables_are_bounded_and_stay_sound():
    sig, sizes = std_sig(), []
    for i in range(10_000):
        parse_expr(f"id[{_distinct_object(i)}] * u", sig)
        sizes.append((len(sig._atoms), len(sig._tensors)))
    assert max(max(pair) for pair in sizes) <= _TABLE_SIZE
    for k in range(2):  # both tables were cleared when full
        assert any(b[k] < a[k] for a, b in zip(sizes, sizes[1:]))

    def typed(text, sig):
        term = parse_expr(text, sig)
        return term, typecheck(term, sig)

    later = [f"id[{_distinct_object(i)}] * u" for i in (0, 7, 4_000, 9_999, 10_000)]
    later += [text for name, text in ERROR_CORPUS if name == "std"]
    for text in later:
        assert _outcome(typed, text, sig) == _outcome(typed, text, copy.copy(sig)), text


def test_long_repl_session_memory_is_bounded():
    # 10,000 loads of distinct annotations against one signature: what the session keeps
    # beyond its transcript is the two tables, at most _TABLE_SIZE entries each (1.5 MB
    # measured on Python 3.11; 24 MB with the tables never cleared)
    names = [f"A{i:02d}" for i in range(100)]
    sig = parse_signature("category symmetric\n" + "".join(f"object {n}\n" for n in names)
                          + "mor u : A00 -> A00\n")
    state = ReplState(sig=sig)
    with open(os.devnull, "w") as null, redirect_stdout(null):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                x = f"{names[i % 100]} * {names[i // 100]}"
                repl_step(state, f"load id[{x}] * u")
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    assert state.transcript[-1] == f"id[{x}] * u"
    transcript = sys.getsizeof(state.transcript) + sum(map(sys.getsizeof, state.transcript))
    assert grown - transcript <= 3 * 2**20


def test_repeated_undeclared_name_reported_at_first_occurrence():
    with pytest.raises(UndeclaredName) as exc:
        parse_expr("id[Z] ; id[A] * id[Z]", STD)
    assert exc.value.span.column == 4


def test_syntax_error_wins_over_earlier_type_error():
    with pytest.raises(CatError) as exc:
        parse_expr("inv(f) ; ;", STD)
    assert type(exc.value).__name__ == "ParseError"


# ---------------------------------------------------------------------------
# The kept boundary
# ---------------------------------------------------------------------------


@pytest.fixture
def count_typings(monkeypatch):
    """How many whole terms the typechecker walks."""

    calls = []
    walk = terms.Typer.__call__
    monkeypatch.setattr(terms.Typer, "__call__",
                        lambda self, t: calls.append(t) or walk(self, t))
    return calls


def test_parsed_root_is_not_typed_again(count_typings):
    term = parse_expr("(f * u) ; (g * f) ; (h * g)", STD)
    ty = typecheck(term, STD)
    assert count_typings == []
    assert typecheck(term, STD) is ty
    assert ty == MorType(ObjTensor(ObjGen("A"), ObjGen("A")), ObjTensor(ObjGen("A"), ObjGen("C")))


def test_kept_boundary_is_per_signature():
    other = parse_signature("category symmetric\nobject A\nmor v : A -> A\n")
    term = parse_expr("u ; u", STD)
    with pytest.raises(UndeclaredName, match="undeclared morphism 'u'"):
        typecheck(term, other)
    assert typecheck(term, STD) == MorType(ObjGen("A"), ObjGen("A"))


def test_pattern_typechecks_neither_read_nor_keep_boundaries():
    # a fresh signature: STD's parse table keeps the atom u alive, so the boundary an earlier
    # parse of the root "u" kept would be found under the rule's rhs, the same object
    sig = std_sig()
    term = parse_expr("u ; u", sig)
    keep_type(term, sig, MorType(UNIT, UNIT))  # a wrong boundary, to see who reads it
    assert typecheck(term, sig) == MorType(UNIT, UNIT)
    assert typecheck(term, sig, metavars={}) == MorType(ObjGen("A"), ObjGen("A"))
    fresh = Comp(MorGen("u"), MorGen("u"))
    typecheck(fresh, sig, metavars={})
    assert id(fresh) not in sig._kept
    rule = parse_rules("var ?x : A -> A\nrule r : ?x ; u => u\n", sig).rule("r")
    assert id(rule.lhs) not in sig._kept and id(rule.rhs) not in sig._kept


def test_terms_rebuilt_by_tactics_are_typed_afresh(count_typings):
    term = parse_expr("u ; k ; inv(k) ; f", STD)
    out = cancel_isos(term, STD)
    assert out is not term and id(out) not in STD._kept
    del count_typings[:]
    assert typecheck(out, STD) == typecheck(term, STD)
    assert count_typings == [out]
    folded = foliate(parse_expr("(u ; f) * (f ; g)", STD), STD)
    assert typecheck(folded, STD) == MorType(ObjTensor(ObjGen("A"), ObjGen("A")),
                                             ObjTensor(ObjGen("B"), ObjGen("C")))


def test_kept_boundary_goes_with_its_term():
    term = parse_expr("u ; u ; f", STD)
    key = id(term)
    assert key in STD._kept
    del term
    assert key not in STD._kept


def test_signature_copies_rebuild_their_tables():
    term = parse_expr("(f * u) ; (g * f)", STD)
    ty = typecheck(term, STD)
    assert STD._atoms and STD._tensors
    assert pickle.dumps(STD) == pickle.dumps(std_sig())
    for other in (pickle.loads(pickle.dumps(STD)), copy.deepcopy(STD), copy.copy(STD),
                  dataclasses.replace(STD)):
        assert other == STD and other._kept == other._atoms == other._tensors == {}
        assert typecheck(term, other) == ty
        assert typecheck(parse_expr("(f * u) ; (g * f)", other), other) == ty


def _nodes(term):
    todo, out = [term], []
    while todo:
        t = todo.pop()
        out.append(t)
        todo += [v for v in vars(t).values() if dataclasses.is_dataclass(v)]
    return out


def test_parsed_and_constructed_terms_agree():
    A, B = ObjGen("A"), ObjGen("B")
    built = Comp(Tensor(MorGen("f"), Id(ObjTensor(A, B))), Tensor(Inv("k"), Id(ObjTensor(A, B))))
    built = Tensor(built, Id(UNIT))
    parsed = parse_expr("((f * id[A * B]) ; (inv(k) * id[A * B])) * id[I]", STD)
    typecheck(parsed, STD)
    for p, b in zip(_nodes(parsed), _nodes(built), strict=True):
        assert p == b and hash(p) == hash(b) and repr(p) == repr(b)
        assert dataclasses.fields(p) == dataclasses.fields(b)
        assert vars(p) == vars(b) and list(vars(p)) == list(vars(b))


# ---------------------------------------------------------------------------
# Shared boundary objects
# ---------------------------------------------------------------------------


def test_boundaries_share_objects():
    sig = parse_signature("category symmetric\nobject A\nmor u : A -> A\n"
                          "mor m : A * A -> A * A\n")
    term = parse_expr("id[A * A] ; m ; (u * u) ; id[A * A]", sig)
    ty = typecheck(term, sig)
    assert ty.dom is ty.cod is term.second.obj
    assert term.first.first.first.obj is term.second.obj
    # a generator's boundary is the signature's object, as is ``id[A]``'s
    assert typecheck(parse_expr("u", sig), sig).cod is parse_expr("id[A]", sig).obj


# ---------------------------------------------------------------------------
# Depth, at the default recursion limit
# ---------------------------------------------------------------------------

DEPTH_SIG = parse_signature("category symmetric\nobject A\nmor u : A -> A\n")


def _depth(obj) -> int:
    n = 0
    while isinstance(obj, ObjTensor):
        obj, n = obj.left, n + 1
    return n


def _staircase(k: int) -> str:
    layers = []
    for i in range(k):
        parts = [f"id[{' * '.join(['A'] * i)}]"] if i else []
        layers.append(" * ".join(parts + ["u"] + ["id[A]"] * (k - i - 1)))
    return " ; ".join(layers)


def test_long_chain_parses_and_types(default_recursion_limit):
    term = parse_expr(" ; ".join(["u"] * 1000), DEPTH_SIG)
    assert typecheck(term, DEPTH_SIG) == MorType(ObjGen("A"), ObjGen("A"))


def test_wide_tensor_parses_and_types(default_recursion_limit):
    term = parse_expr(" * ".join(["u"] * 1200), DEPTH_SIG)
    ty = typecheck(term, DEPTH_SIG)
    assert ty.dom is ty.cod and _depth(ty.dom) == 1199


def test_wide_staircase_parses_and_types(default_recursion_limit):
    term = parse_expr(_staircase(512), DEPTH_SIG)
    ty = typecheck(term, DEPTH_SIG)
    assert ty.dom is ty.cod and _depth(ty.dom) == 511


def test_two_parses_of_a_wide_tensor_are_equal(default_recursion_limit):
    text = " * ".join(["u"] * 1200)
    lhs, rhs = parse_expr(text, DEPTH_SIG), parse_expr(text, DEPTH_SIG)
    assert isinstance(monoidal_eq(lhs, rhs, DEPTH_SIG), Equal)
    assert isinstance(cat_easy(lhs, rhs, DEPTH_SIG), Proved)


def test_wide_declared_boundary(default_recursion_limit):
    wide = " * ".join(["A"] * 1200)
    sig = parse_signature(f"category symmetric\nobject A\nmor v : {wide} -> A\n")
    assert _depth(sig.morphism("v").dom) == 1199
    assert isinstance(monoidal_eq(parse_expr("v", sig), parse_expr(f"id[{wide}] ; v", sig), sig),
                      Equal)


def test_wide_objects_from_two_parses_hash_and_compare(default_recursion_limit):
    wide = " * ".join(["A"] * 1200)
    first, second = parse_obj(wide, DEPTH_SIG), parse_obj(wide, DEPTH_SIG)
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("op", [" * ", " ; "], ids=["wide", "chain"])
def test_two_parses_of_a_deep_term_compare_and_hash(default_recursion_limit, op):
    text = op.join(["u"] * 1200)
    lhs, rhs = parse_expr(text, DEPTH_SIG), parse_expr(text, DEPTH_SIG)
    assert lhs is not rhs and lhs == rhs and not lhs != rhs and hash(lhs) == hash(rhs)
    deep_leaf = parse_expr(op.join(["id[A]"] + ["u"] * 1199), DEPTH_SIG)  # the leftmost leaf
    assert deep_leaf != lhs and not deep_leaf == lhs and lhs != deep_leaf


@pytest.mark.parametrize("op", [" * ", " ; "], ids=["wide", "chain"])
def test_deep_term_and_object_repr(default_recursion_limit, op):
    cls, first, second = ("Tensor", "top", "bottom") if op == " * " else \
        ("Comp", "first", "second")
    expected = "MorGen(name='u')"
    for _ in range(1199):  # both operators parse left-associated
        expected = f"{cls}({first}={expected}, {second}=MorGen(name='u'))"
    assert repr(parse_expr(op.join(["u"] * 1200), DEPTH_SIG)) == expected
    obj = parse_obj(" * ".join(["A"] * 1200), DEPTH_SIG)
    expected = "ObjGen(name='A')"
    for _ in range(1199):
        expected = f"ObjTensor(left={expected}, right=ObjGen(name='A'))"
    assert repr(obj) == expected


def test_wide_object_copies_are_itself(default_recursion_limit):
    obj = parse_obj(" * ".join(["A"] * 1200), DEPTH_SIG)
    assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
    assert copy.deepcopy([obj, obj]) == [obj, obj]


def test_term_equality_hash_repr_and_fields_unchanged():
    f, A = MorGen("u"), ObjGen("A")
    term = Comp(Tensor(f, Id(A)), Inv("u"))
    assert term == Comp(Tensor(MorGen("u"), Id(ObjGen("A"))), Inv("u"))
    assert hash(term) == hash(Comp(Tensor(MorGen("u"), Id(ObjGen("A"))), Inv("u")))
    assert term != Comp(Tensor(f, Id(A)), MorGen("u")) and term != Comp(Id(A), Inv("u"))
    assert MorGen("u") != Inv("u") and Tensor(f, f) != Comp(f, f) and f != "u"
    assert len({MorGen("u"), MorGen("u"), Inv("u"), Comp(f, f), Comp(f, f)}) == 3
    assert repr(term) == "Comp(first=Tensor(top=MorGen(name='u'), bottom=Id(obj=ObjGen(" \
        "name='A'))), second=Inv(name='u'))"
    assert [[f.name for f in dataclasses.fields(cls)] for cls in (Comp, Tensor, Id, Inv)] == \
        [["first", "second"], ["top", "bottom"], ["obj"], ["name"]]


def test_long_constructed_chain_types(default_recursion_limit):
    term = MorGen("u")
    for _ in range(1500):
        term = Comp(term, MorGen("u"))
    assert typecheck(term, DEPTH_SIG).cod == ObjGen("A")


# ---------------------------------------------------------------------------
# The word-list lexer: aliases, Unicode operators, comments and lexical
# errors, which a full lex must report before any parse or type error
# ---------------------------------------------------------------------------

ALIASED = parse_signature(STD_SIG_TEXT + 'alias "then" = compose\nalias "par" = tensor\n'
                          'alias "ident" = id\nalias "⊸" = compose\nalias "-" = tensor\n'
                          'alias "2x" = id\nalias "::" = compose\nalias ":::" = tensor\n')
# declared names that are not lexical names: they can never be used.  A signature
# file rejects them, so the constructors, which do not check lexical form, build it
ODD_NAMES = Signature("symmetric", ("A", "$"), tuple(
    MorDecl(name, ObjGen("A"), ObjGen("A")) for name in ("$x", "²f", '"q"', "?m")))
LEXICAL_SIGS = {**SIGS, "alias": ALIASED, "odd": ODD_NAMES}

LEXICAL_CORPUS = [
    ("alias", "f then g"), ("alias", "f ⊸ g"), ("alias", "u par u"), ("alias", "u - u"),
    ("alias", "u-u--u"), ("alias", "ident[A] then u"), ("alias", "2x[A] ; u"),
    ("alias", "2x[A]2x[A]"), ("alias", "f :: g"), ("alias", "u ::: u :: u"), ("alias", "f ∘ g"),
    ("alias", "(u ⊗ u) ∘ (u * u)"), ("alias", "id[A ⊗ A] then (u par u)"), ("alias", "u then"),
    ("alias", "then u"), ("alias", "u par"), ("alias", "ident"), ("alias", "ident[Z]"),
    ("alias", "inv(then)"), ("alias", "id[ident]"), ("alias", "f then f then ²"),
    ("alias", "f then f ; $"), ("alias", "nosuch - ?"), ("alias", "(u - u) ⊸ id[A * $]"),
    ("std", "f ∘ g"), ("std", "u ⊗ u ∘ id[A ⊗ A]"), ("std", "id[A ⊗ (B ⊗ C)] ∘ f"),
    ("std", "u ⊗ f ∘ f"), ("std", "f ∘ f ∘ ²"), ("std", "Ωmega ; 名前"), ("std", "u ; é"),
    ("std", "u ; # comment\n u"), ("std", "u # trailing"), ("std", "u ;\n# only\n  nosuch"),
    ("std", "f ;\n f ; f"), ("std", "f ; f\n# c\n"), ("std", "u\n\n ; f ; f ; $"),
    ("std", "u ; u # \"unterminated in a comment"), ("std", "u ; ?"), ("std", "?"),
    ("std", "u ; 2"), ("std", "u2 ; u"), ("std", "u ; ²"), ("std", "u ; u²"), ("std", "²u"),
    ("std", "u ; \"open"), ("std", '"'), ("std", 'u ; "s t"'), ("std", '"u"'), ("std", "$"),
    ("std", "u ; \x00"), ("std", "u ; !"), ("std", "u ; '"), ("std", "u ; x'"), ("std", "_u"),
    ("std", "f ; f ; )"), ("std", "f ; f ; ?"), ("std", "f ; f ; $"), ("std", "f ; f ; \"x\""),
    ("std", "nosuch * $"), ("std", "(((u ; ²"), ("std", "id[²]"), ("std", "id[A * $]"),
    ("std", "inv(²)"), ("std", "inv(?x)"), ("std", "inv(\"k\")"), ("std", "?x ; u"),
    ("std", "id[?x]"), ("std", "id[A * ?]"), ("std", "f ; f ; ?x"), ("std", "id[Z] ; ?x"),
    ("std", ""), ("std", "   "), ("std", "# only a comment"), ("std", "u ; ;"),
    ("std", "u ->"), ("std", "u => u"), ("std", "id[A, B]"), ("std", "braid[A B]"),
    ("std", "id[I]"), ("std", "I"), ("std", "id[id]"), ("std", "id[(A * B]"),
    ("odd", "$x"), ("odd", "²f"), ("odd", '"q"'), ("odd", "?m"), ("odd", "id[$]"),
    ("odd", "id[A * $]"), ("odd", "$x ; u"), ("odd", "id[A] ; ²f"), ("odd", "id[$,]"),
]


@pytest.mark.parametrize("sig_name,text", LEXICAL_CORPUS)
def test_lexical_corpus_matches_reference(sig_name, text):
    sig = LEXICAL_SIGS[sig_name]
    assert _outcome(parse_expr, text, sig) == _outcome(reference_parse_expr, text, sig)


def test_random_aliased_and_unicode_texts_match_reference():
    rng = Random(20261019)
    spell = {" ; ": (" ; ", " then ", " ⊸ ", " :: ", " ∘ ", ";"),
             " * ": (" * ", " par ", " - ", " ::: ", " ⊗ ", "*")}
    kinds = set()
    for _, text in _random_corpus(600):
        text = re.sub(r" [;*] ", lambda m: rng.choice(spell[m.group()]), text)
        if rng.random() < 0.3:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(["# note\n", "\n", " ²", " ?", ' "', " 2", " $"]) + \
                text[at:]
        got = _outcome(parse_expr, text, ALIASED)
        assert got == _outcome(reference_parse_expr, text, ALIASED), text
        kinds.add(got[0])
    assert {"ok", "ParseError", "UndeclaredName", "CompositionMismatch"} <= kinds


def test_lexical_error_wins_over_earlier_parse_and_type_errors():
    for text, bad in (("f ; f ; ) ²", "²"), ("nosuch ; ) $", "$"), ("f ; f ; ?", "?"),
                      ('u ; ) "open', '"')):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, STD)
        assert exc.value.span.start == text.index(bad)


# ---------------------------------------------------------------------------
# Parentheses at any depth, at the default recursion limit
# ---------------------------------------------------------------------------


def test_deep_parenthesized_chain_parses_and_prints(default_recursion_limit):
    text = "u ; (" * 9998 + "u ; u" + ")" * 9998  # 10k elements
    term = parse_expr(text, DEPTH_SIG)
    assert typecheck(term, DEPTH_SIG) == MorType(ObjGen("A"), ObjGen("A"))
    assert print_expr(term) == text


def test_deep_parenthesized_object_parses_and_prints(default_recursion_limit):
    text = "id[" + "A * (" * 1198 + "A * A" + ")" * 1198 + "]"
    term = parse_expr(text, DEPTH_SIG)
    obj, depth = term.obj, 0
    while isinstance(obj, ObjTensor):
        obj, depth = obj.right, depth + 1
    assert depth == 1199 and typecheck(term, DEPTH_SIG).dom is term.obj
    assert print_expr(term) == text


def test_deep_chain_probe_pairs_are_equal(perfbench_gen, default_recursion_limit):
    pool = perfbench_gen.prove_pool(1)
    sig = parse_signature(pool["sig"])
    assert len(pool["probe"]) == 8
    for pair in pool["probe"]:
        lhs, rhs = parse_expr(pair["lhs"], sig), parse_expr(pair["rhs"], sig)
        assert isinstance(monoidal_eq(lhs, rhs, sig), Equal), pair["shape"]


def test_mismatch_on_a_wide_object_is_reported(default_recursion_limit):
    label = "A"
    for _ in range(1199):
        label = f"({label} * A)"
    with pytest.raises(CompositionMismatch) as exc:
        parse_expr("(" + " * ".join(["u"] * 1200) + ") ; f", STD)
    assert str(exc.value) == f"cannot compose: codomain {label} does not match domain A"
