"""The regex lexer against the per-character reference lexer."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_lexer
from monocat.parser import ParseError, _words, parse_signature, tokenize

# Symbol aliases (one overlaps "->", one starts with a digit, one is a
# prefix of another) and word aliases, one of them to ``id``.
ALIAS_SIG = parse_signature(
    "category symmetric\nobject A\n"
    'alias "⊸" = compose\nalias "-" = tensor\nalias "2x" = id\nalias "::" = compose\n'
    'alias ":::" = tensor\nalias "then" = compose\nalias "par" = tensor\nalias "ident" = id\n')
ALIAS_SETS = [None, {}, ALIAS_SIG.aliases]

FRAGMENTS = [
    "id", "alpha_inv", "braid", "inv", "f", "g1", "x'", "_t", "I", "A * B", "then", "par",
    "ident", "thenx", ";", "∘", "*", "⊗", "[", "]", "(", ")", ",", ":", "=", "->", "=>", "-",
    "⊸", "::", ":::", "2x", "2", "?", "?m", "?1'", '"', '"s t"', '"a\nb"', "#", "# note",
    "\n", " ", "\t", "\r", "\x0b", " ", "\x85", "é", "Ωmega", "名前", "²", "½", "Ⅷ", "a²",
    "$", "!", "\x00",
]

texts = st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                           st.text(alphabet=st.characters(codec="utf-8"), max_size=3)),
                 max_size=25).map("".join)


def _outcome(lex, text, aliases):
    try:
        tokens = lex(text, aliases)
    except ParseError as err:
        return ("error", str(err), err.span)
    return ("ok", [t if isinstance(t, tuple) else t.as_tuple() for t in tokens])


@settings(max_examples=1500, deadline=None)
@given(texts, st.sampled_from(ALIAS_SETS))
def test_tokens_and_errors_match_reference(text, aliases):
    assert _outcome(tokenize, text, aliases) == _outcome(reference_lexer.tokenize, text, aliases)


@pytest.mark.parametrize("text", [
    "f ; g # trailing comment", "f # comment\ngg hh", '"multi\nline" f', "f ?", 'f "open',
    "f ² g", "\n\n", "", "   ", "a -> b => c", "x ⊸ y - z 2x ::: w :: v",
])
@pytest.mark.parametrize("aliases", ALIAS_SETS)
def test_edge_cases_match_reference(text, aliases):
    assert _outcome(tokenize, text, aliases) == _outcome(reference_lexer.tokenize, text, aliases)


# ---------------------------------------------------------------------------
# The parser's word list: the tokens' words without positions
# ---------------------------------------------------------------------------

_OPERATOR_WORD = {"COMPOSE": ";", "TENSOR": "*", "EOF": ""}


def _token_words(text, aliases):
    """The words ``_words`` must give, rebuilt from ``tokenize``'s tokens."""

    return [_OPERATOR_WORD.get(kind, "?" + word if kind == "METAVAR"
                               else f'"{word}"' if kind == "STRING" else word)
            for kind, word, *_ in tokenize(text, aliases)]


def _assert_words_match(text, aliases):
    expected = _token_words(text, aliases)
    words = _words(text, aliases or {})
    assert words[:len(expected)] == expected and set(words[len(expected):]) <= {""}


@settings(max_examples=500, deadline=None)
@given(texts, st.sampled_from(ALIAS_SETS))
def test_words_are_the_tokens_words(text, aliases):
    try:
        tokenize(text, aliases)
    except ParseError:
        return
    _assert_words_match(text, aliases)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_words_on_prove_pools(perfbench_gen, seed):
    pool = perfbench_gen.prove_pool(seed)
    requests = pool["requests"] + pool["probe"]
    texts = [r[side] for r in requests for side in ("lhs", "rhs", "expr") if side in r]
    assert len(texts) > 150
    for text in texts:
        _assert_words_match(text, {})
