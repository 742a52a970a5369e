"""``terms.fold`` and the walkers built on it: the same outputs as the
recursive walkers they replaced, and no recursion on deep or wide terms."""

from random import Random

import pytest

from gen import random_term, std_sig, struct_sig
from monocat.coherence import Equal, monoidal_eq, sheet_of_term
from monocat.parser import parse_expr, parse_signature, print_expr
from monocat.tactics import (
    _remove_ids,
    cancel_isos,
    cat_simpl,
    foliate,
    right_associate,
    weak_foliate,
)
from monocat.terms import MorGen, Tensor, fold, right_comp
from reference_walkers import (
    reference_cancel_isos,
    reference_foliate,
    reference_print_expr,
    reference_remove_ids,
    reference_right_associate,
    reference_sheet,
)


def test_fold_visits_leaves_left_to_right_and_nodes_after_their_children(sig):
    term = parse_expr("(f * u) ; (g * f) ; (h * g)", sig)
    calls = []
    text = fold(term, lambda t: calls.append(t.name) or t.name,
                lambda t, a, b: calls.append(";") or f"[{a};{b}]",
                lambda t, a, b: calls.append("*") or f"<{a}*{b}>")
    assert text == "[[<f*u>;<g*f>];<h*g>]"
    assert calls == ["f", "u", "*", "g", "f", "*", ";", "h", "g", "*", ";"]


def test_fold_without_tensor_treats_tensors_as_leaves(sig):
    term = parse_expr("(u * u) ; (f * u) ; (g * f)", sig)
    leaves = []
    fold(term, leaves.append, lambda t, a, b: None)
    assert [print_expr(t) for t in leaves] == ["u * u", "f * u", "g * f"]


# ---------------------------------------------------------------------------
# Against the recursive reference walkers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_terms():
    """600 seeded terms: half over the symmetric signature (scalars,
    braidings, isos), half structural-only over a monoidal one."""

    out = []
    for i, make in enumerate((std_sig, struct_sig)):
        s = make()
        for seed in range(300):
            rng = Random(1000 * i + seed)
            out.append((random_term(rng, s, max_leaves=rng.randint(1, 14)), s))
    return out


def test_print_expr_matches_reference(random_terms):
    for term, _ in random_terms:
        assert print_expr(term) == reference_print_expr(term)


def test_sheet_matches_reference(random_terms):
    for term, s in random_terms:
        assert sheet_of_term(term, s) == reference_sheet(term, s)


def test_tactic_walkers_match_reference(random_terms):
    for term, s in random_terms:
        for got, ref in (
            (foliate(term, s), reference_foliate(term, s)),
            (weak_foliate(term, s), reference_foliate(term, s, weak=True)),
            (cancel_isos(term, s), reference_cancel_isos(term, s)),
            (_remove_ids(term), reference_remove_ids(term)),
            (right_associate(term), reference_right_associate(term)),
        ):
            assert print_expr(got) == print_expr(ref)


def test_cancel_isos_keeps_untouched_terms(random_terms):
    for term, s in random_terms:
        if print_expr(reference_cancel_isos(term, s)) == print_expr(term):
            assert cancel_isos(term, s) is term


# ---------------------------------------------------------------------------
# Depth and width, at the default recursion limit
# ---------------------------------------------------------------------------

DEPTH_SIG = parse_signature("category symmetric\nobject A\nmor u : A -> A\n")
N = 10_000


def _right_nested_text(n: int) -> str:
    return "u ; (" * (n - 2) + "u ; u" + ")" * (n - 2)


@pytest.fixture(scope="module")
def chain_text():
    return " ; ".join(["u"] * N)


@pytest.fixture(scope="module")
def chain(chain_text):
    return parse_expr(chain_text, DEPTH_SIG)


@pytest.fixture(scope="module")
def right_chain():
    return right_comp([MorGen("u")] * N, None)


def test_long_chain_prints(default_recursion_limit, chain, chain_text):
    assert print_expr(chain) == chain_text


def test_long_chain_sheet(default_recursion_limit, chain):
    sheet = sheet_of_term(chain, DEPTH_SIG)
    assert sheet.input == ("A",) and len(sheet.layers) == N


def test_long_chain_monoidal_eq(default_recursion_limit, chain, right_chain):
    verdict = monoidal_eq(chain, right_chain, DEPTH_SIG)
    assert isinstance(verdict, Equal) and len(verdict.normal_form.layers) == N


@pytest.mark.parametrize("tactic", [foliate, weak_foliate])
def test_long_chain_foliates(default_recursion_limit, chain, tactic):
    assert print_expr(tactic(chain, DEPTH_SIG)) == _right_nested_text(N)


@pytest.mark.parametrize("tactic", [cancel_isos, cat_simpl])
def test_long_chain_simplifies_to_itself(default_recursion_limit, chain, tactic):
    assert tactic(chain, DEPTH_SIG) is chain


def test_right_nested_chain_sheet(default_recursion_limit, right_chain):
    assert len(sheet_of_term(right_chain, DEPTH_SIG).layers) == N


def test_right_nested_chain_prints(default_recursion_limit, right_chain):
    assert print_expr(right_chain) == _right_nested_text(N)


def test_right_nested_chain_foliates(default_recursion_limit, right_chain):
    assert print_expr(foliate(right_chain, DEPTH_SIG)) == _right_nested_text(N)


@pytest.mark.parametrize("text", [" * ".join(["u"] * 1200), f"id[{' * '.join(['A'] * 1200)}]"],
                         ids=["tensor", "identity"])
def test_wide_terms_print_and_flatten(default_recursion_limit, text):
    term = parse_expr(text, DEPTH_SIG)
    assert print_expr(term) == text
    sheet = sheet_of_term(term, DEPTH_SIG)
    assert sheet.input == ("A",) * 1200
    assert [len(layer) for layer in sheet.layers] == ([1200] if isinstance(term, Tensor) else [])
