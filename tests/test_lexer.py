"""The regex lexer against the per-character reference lexer, and the
parser's word lists, split from plain text or matched by the regex, against
the regex and the tokens."""

import pytest
from hypothesis import event, given, settings, strategies as st

import reference_lexer
from monocat.parser import ParseError, _builtins, _lexer, _words, parse_signature, tokenize

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


def _regex_words(text, aliases):
    """The regex's words up to the first "", with aliases mapped."""

    builtins = _builtins(aliases or {})
    words = [builtins.get(w, w) for w in _lexer(tuple(aliases or {})).findall(text)]
    return words[:words.index("") + 1]


def _assert_regex_words(text, aliases):
    # past the first "", where no parse reads, the regex may give one more "" than the split
    expected = _regex_words(text, aliases)
    words = _words(text, aliases or {})
    assert words[:len(expected)] == expected and set(words[len(expected):]) <= {""}


# ---------------------------------------------------------------------------
# Plain text, which ``_words`` splits without the regex
# ---------------------------------------------------------------------------

PLAIN = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_ \t\n\r;*[](),")
#: A symbol alias made only of plain characters, which the regex takes as one word
STAR_SIG = parse_signature('category symmetric\nobject A\nalias "**" = tensor\n'
                           'alias "then" = compose\n')
PLAIN_ALIAS_SETS = ALIAS_SETS + [STAR_SIG.aliases]

PLAIN_FRAGMENTS = [
    "f", "g", "u", "_t", "A", "B", "I", "id", "inv", "then", "par", "ident", "id[A]",
    "braid[A, B]", "alpha_inv[A,B,C]", "id[(A*B)]", "f;g", "(f*g)", "inv(k)", "**", ";", "*",
    "[", "]", "(", ")", ",", " ", "   ", "\t", "\n", "\r\n",
]
NEAR_MISSES = ["1", "'", "#", "-", ":", "\x0b", "é"]


@st.composite
def plain_texts(draw):
    """Plain text, with a near-miss character put in about one time in three."""

    text = "".join(draw(st.lists(st.one_of(st.sampled_from(PLAIN_FRAGMENTS),
                                           st.text(alphabet=sorted(PLAIN), max_size=4)),
                                 max_size=25)))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(NEAR_MISSES)) + text[k:]
    return text


def _is_plain(text, aliases):
    """Whether ``_words`` may split ``text``: plain, under no plain symbol alias."""

    return set(text) <= PLAIN and not any(
        set(tok) <= PLAIN and not (tok[:1].isalpha() or tok[:1] == "_") for tok in aliases or {})


@settings(max_examples=600, deadline=None)
@given(plain_texts(), st.sampled_from(PLAIN_ALIAS_SETS))
def test_plain_words_are_the_regex_words(text, aliases):
    # time budget: 4 s (the 600 examples take about 2.6 s on one shared vCPU)
    event("split" if _is_plain(text, aliases) else "regex")
    _assert_regex_words(text, aliases)
    try:
        tokenize(text, aliases)
    except ParseError:
        return
    _assert_words_match(text, aliases)


#: Value options of the ``cli`` pool's argument lists; every other argument
#: after the command is an expression
_CLI_OPTIONS = {"--sig", "--method", "--rules", "--rule", "--format", "-o", "--batch"}


def _pool_texts(pool):
    """Every expression text a perfbench pool's requests parse."""

    texts = []
    for r in pool["requests"] + pool.get("probe", []):
        texts += [r[side] for side in ("lhs", "rhs", "expr") if side in r]
        argv = r.get("argv", [])
        texts += [a for k, a in enumerate(argv[1:], 1)
                  if not a.startswith("-") and argv[k - 1] not in _CLI_OPTIONS]
        for body in r.get("files", {}).values():  # check --batch files: one pair a line
            texts += [side for line in body.splitlines() for side in line.split(" == ")]
    return texts


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 311])
def test_words_on_prove_pools(perfbench_gen, seed):
    # the request texts of all three workloads; the prove pool's against the tokens too
    for workload, least in (("prove", 150), ("oracle", 190), ("cli", 2000)):
        texts = _pool_texts(perfbench_gen.POOLS[workload](seed))
        assert len(texts) > least
        for text in texts:
            _assert_regex_words(text, {})
            if workload == "prove":
                _assert_words_match(text, {})
