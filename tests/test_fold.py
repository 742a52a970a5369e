"""The iterative walkers (``terms.fold`` and the walkers built on it, the
tactics' chain-rewrite engine, the evaluators' chain loops): the same
outputs as the recursive walkers they replaced, and no recursion on deep or
wide terms."""

import copy
import pickle
from random import Random

import numpy as np
import pytest

from gen import (
    STD_SIG_TEXT,
    interchange_pair,
    interchange_rewrite,
    random_term,
    random_term_with_dom,
    std_sig,
    struct_sig,
)
from monocat import coherence
from monocat.coherence import Equal, monoidal_eq, sheet_of_term
from monocat.parser import RewriteRule, parse_expr, parse_rules, parse_signature, print_expr
from monocat.semantics import MatrixInstance, RelInstance, eval_matrix, eval_rel
from monocat.tactics import (
    InconsistentBinding,
    NoMatch,
    NotAdjacent,
    NotProved,
    Proved,
    _remove_ids,
    assoc_rw,
    cancel_isos,
    cat_easy,
    cat_simpl,
    foliate,
    partner,
    right_associate,
    weak_foliate,
)
from monocat.terms import (
    Braid,
    BraidInv,
    CatError,
    Comp,
    Id,
    Inv,
    MorGen,
    MorType,
    MorVar,
    ObjGen,
    ObjTensor,
    ObjVar,
    Tensor,
    comp_chain,
    fold,
    node_fields,
    right_comp,
    structural_atoms,
    tensor_leaves,
    typecheck,
)
from reference_walkers import (
    OBJECT_ATOMS,
    reference_assoc_rw,
    reference_cancel_isos,
    reference_foliate,
    reference_partner,
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


def _shared_terms(sig):
    """Terms in which one atom, ``Tensor`` or ``Comp`` object sits at several
    positions: built by hand, and parsed from texts whose repeated bracketed
    atoms the parser shares."""

    A, B = ObjGen("A"), ObjGen("B")  # objects are interned: these are the signature's
    u, k, s, e, ida = MorGen("u"), MorGen("k"), MorGen("s"), MorGen("e"), Id(A)
    uu = Tensor(u, u)
    twice = Comp(uu, uu)  # one Tensor at two positions
    tall = Comp(u, Comp(u, u))
    br = Braid(A, B)
    terms = [
        twice,
        Tensor(twice, ida),
        Tensor(Tensor(tall, ida), Tensor(ida, twice)),  # one Comp and one Id at several positions
        Comp(Tensor(s, ida), Tensor(e, ida)),
        Tensor(Comp(k, Inv("k")), Comp(k, Inv("k"))),
        Comp(Tensor(br, br), Tensor(BraidInv(A, B), BraidInv(A, B))),
        Tensor(Comp(twice, twice), Tensor(tall, Comp(ida, u))),
    ]
    texts = [
        "(id[A * B] * braid[A, B]) ; (braid[A, B] * id[B * A]) ; (id[B * A] * id[B * A])",
        "(id[A] * u * id[A]) ; (id[A] * u * id[A]) ; alpha[A, A, A] ; alpha_inv[A, A, A]"
        " ; alpha[A, A, A]",
        "(s * id[A] * s) ; (id[A] * e * id[A]) ; (runit[A] * id[A]) ; (u * u) ; (id[A] * e)"
        " ; runit[A] ; runit_inv[A] ; (u * id[I])",
        "runit_inv[A] ; (u * id[I]) ; (id[A] * s) ; (u * u) ; (id[A] * e) ; runit[A]",
    ]
    return terms + [parse_expr(text, sig) for text in texts]


def test_sheet_matches_reference_on_shared_subterms(sig):
    for term in _shared_terms(sig):
        atoms = structural_atoms(term)
        assert len({id(a) for a in atoms}) < len(atoms), print_expr(term)
        assert sheet_of_term(term, sig) == reference_sheet(term, sig), print_expr(term)


def test_sheet_reads_each_distinct_atom_once(sig, monkeypatch):
    calls = []
    read = coherence.atom_wires
    monkeypatch.setattr(coherence, "atom_wires", lambda t, s: calls.append(id(t)) or read(t, s))
    for term in _shared_terms(sig):
        calls.clear()
        sheet_of_term(term, sig)
        assert sorted(calls) == sorted({id(a) for a in structural_atoms(term)}), print_expr(term)


NO_EFFECT_SIG = parse_signature(STD_SIG_TEXT.replace("mor e : A -> I\n", ""))
NO_SCALAR_SIG = parse_signature(STD_SIG_TEXT.replace("mor s : I -> A\n", ""))


@pytest.mark.parametrize("sig_name", ["std", "no-effect", "no-scalar"])
def test_sheet_matches_reference_on_interchange_pairs(sig_name):
    s = {"std": std_sig(), "no-effect": NO_EFFECT_SIG, "no-scalar": NO_SCALAR_SIG}[sig_name]
    for seed in range(200):
        for term in interchange_pair(seed, s):
            assert sheet_of_term(term, s) == reference_sheet(term, s), (seed, print_expr(term))


@pytest.mark.parametrize("rows", [1, 2, 3, 8, 21, 40])
def test_sheet_matches_reference_on_interchanged_grids(sig, rows):
    # a row of boxes, one per wire, and the same row after 1-4 interchange
    # rewrites; boxes with wires on both sides, scalars, effects, and a mix
    rng = Random(rows)
    for boxes in (["u"], ["(f ; g ; h)"], ["s"], ["e"], ["(s ; e)"], ["u", "s", "e", "(k ; inv(k))"]):
        grid = parse_expr(" * ".join(rng.choice(boxes) for _ in range(rows)), sig)
        other = grid
        for _ in range(rng.randint(1, 4)):
            other = interchange_rewrite(rng, other, sig)
        for term in (grid, other):
            assert sheet_of_term(term, sig) == reference_sheet(term, sig), print_expr(term)


def _grown_term(rng, s, leaves):
    """A random term of about ``leaves`` atoms: random terms composed after it
    or tensored on either side, until it has that many."""

    term = random_term(rng, s, max_leaves=6)
    while len(structural_atoms(term)) < leaves:
        if rng.random() < 0.5:
            cod = typecheck(term, s).cod
            term = Comp(term, random_term_with_dom(rng, s, cod, rng.randint(1, 8)))
        else:
            piece = random_term(rng, s, max_leaves=rng.randint(1, 8))
            term = Tensor(piece, term) if rng.random() < 0.5 else Tensor(term, piece)
    return term


def test_sheet_matches_reference_on_larger_random_terms():
    for i, make in enumerate((std_sig, struct_sig)):
        s = make()
        for seed in range(100):
            rng = Random(7000 + 1000 * i + seed)
            term = _grown_term(rng, s, rng.randint(10, 60))
            assert sheet_of_term(term, s) == reference_sheet(term, s), print_expr(term)


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
# partner and assoc_rw against the recursive search and matchers
# ---------------------------------------------------------------------------


def _chains(term):
    """Every composition chain of ``term``: the outermost, then those inside
    its elements' tensor factors."""

    chains, todo = [], [term]
    while todo:
        chain = comp_chain(todo.pop())
        chains.append(chain)
        todo += [f for el in chain if isinstance(el, Tensor) for f in (el.bottom, el.top)]
    return chains


def _obj_pattern(rng, obj):
    # "x" names a morphism metavariable too: the two kinds bind apart
    if rng.random() < 0.25:
        return ObjVar(rng.choice("abx"))
    if isinstance(obj, ObjTensor):
        return ObjTensor(_obj_pattern(rng, obj.left), _obj_pattern(rng, obj.right))
    return obj


def _element_pattern(rng, el, sig, declared):
    """A pattern that ``el`` may match: some subterms become morphism
    metavariables (typed with ``el``'s type, a generalized one, the reversed
    one, or untyped), some objects of identities and structural atoms object
    metavariables.  Elements holding a composition always become metavariables,
    as a parsed rule's lhs elements are composition-free."""

    if tensor_leaves(el) is None or rng.random() < 0.3:
        name = rng.choice("xyz")
        if name not in declared:
            ty = typecheck(el, sig)
            declared[name] = rng.choice(
                [ty, MorType(_obj_pattern(rng, ty.dom), _obj_pattern(rng, ty.cod)),
                 MorType(ty.cod, ty.dom), None])
        return MorVar(name)
    if isinstance(el, Tensor):
        return Tensor(_element_pattern(rng, el.top, sig, declared),
                      _element_pattern(rng, el.bottom, sig, declared))
    if isinstance(el, OBJECT_ATOMS):
        return type(el)(*(_obj_pattern(rng, o) for o in node_fields(el)))
    return el


def _random_rule(rng, term, sig):
    """A rule whose lhs is drawn from a window of one of ``term``'s chains, and
    whose rhs composes and tensors lhs elements, sometimes with an identity
    on an object metavariable or a morphism metavariable that may be unbound;
    and whether that chain lies inside a tensor."""

    chains = _chains(term)
    chain = rng.choice(chains)
    k = rng.randint(1, min(3, len(chain)))
    start = rng.randrange(len(chain) - k + 1)
    declared: dict = {}
    window = [_element_pattern(rng, el, sig, declared) for el in chain[start:start + k]]
    pieces = [rng.choice(window) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        pieces.append(Id(ObjVar(rng.choice("abxc"))))
    if rng.random() < 0.2:
        pieces.append(MorVar(rng.choice("xyzw")))
    rng.shuffle(pieces)
    rhs = pieces[0]
    for piece in pieces[1:]:
        rhs = rng.choice([Comp, Tensor])(rhs, piece)
    metavars = tuple((n, ty) for n, ty in declared.items() if ty is not None)
    return RewriteRule("r", metavars, right_comp(window, None), rhs), chain is not chains[0]


def _outcome(fn, *args):
    try:
        return print_expr(fn(*args))
    except CatError as err:
        return type(err), str(err)


def test_assoc_rw_matches_reference(random_terms):
    rng = Random(5)
    kinds = {"rewritten": 0, "rewritten_inside": 0, NoMatch: 0, InconsistentBinding: 0}
    same_sig: dict = {}
    for term, s in random_terms:
        same_sig.setdefault(id(s), []).append(term)
    for term, s in random_terms:
        for _ in range(3):
            # mostly a window of the term itself, sometimes of another term
            source = term if rng.random() < 0.8 else rng.choice(same_sig[id(s)])
            rule, inside = _random_rule(rng, source, s)
            got = _outcome(assoc_rw, term, rule, s)
            assert got == _outcome(reference_assoc_rw, term, rule, s), (print_expr(term), rule)
            if isinstance(got, str):
                kinds["rewritten"] += 1
                kinds["rewritten_inside"] += inside
            else:
                kinds[got[0]] += 1
    assert min(kinds.values()) >= 20, kinds


def test_partner_matches_reference(random_terms):
    rng = Random(6)
    kinds = {"grouped": 0, NotAdjacent: 0}
    for term, s in random_terms:
        chains = _chains(term)
        chain = rng.choice(chains)
        if len(chain) > 1 and rng.random() < 0.7:
            i = rng.randrange(len(chain) - 1)
            p, q = chain[i], chain[i + 1]
        else:
            p, q = (rng.choice(rng.choice(chains + [[term]])) for _ in range(2))
        got = _outcome(partner, term, p, q, s)
        assert got == _outcome(reference_partner, term, p, q, s), print_expr(term)
        kinds["grouped" if isinstance(got, str) else got[0]] += 1
    assert min(kinds.values()) >= 50, kinds


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


def _right_tensor(atoms):
    term = atoms[-1]
    for atom in reversed(atoms[:-1]):
        term = Tensor(atom, term)
    return term


@pytest.mark.parametrize("shape", ["tensor-left", "tensor-right", "chain-left", "chain-right",
                                   "identity-right"])
def test_deep_terms_flatten(default_recursion_limit, shape):
    n, u = 1200, MorGen("u")
    term = {
        "tensor-left": lambda: parse_expr(" * ".join(["u"] * n), DEPTH_SIG),
        "tensor-right": lambda: _right_tensor([u] * n),
        "chain-left": lambda: parse_expr(" ; ".join(["u"] * n), DEPTH_SIG),
        "chain-right": lambda: right_comp([u] * n, None),
        "identity-right": lambda: parse_expr(f"id[{'A * (' * (n - 1)}A{')' * (n - 1)}]", DEPTH_SIG),
    }[shape]()
    for same in (pickle.loads(pickle.dumps(term)), copy.deepcopy(term)):
        assert same == term
    sheet = sheet_of_term(term, DEPTH_SIG)
    box = coherence.BoxSlot("u", ("A",), ("A",))
    if shape.startswith("tensor"):
        assert sheet == coherence.Sheet(("A",) * n, ((box,) * n,))
    elif shape.startswith("chain"):
        assert sheet == coherence.Sheet(("A",), ((box,),) * n)
    else:
        assert sheet == coherence.Sheet(("A",) * n, ())


WIDE_TEXT = " * ".join(["u"] * 1200)


@pytest.fixture(scope="module")
def wide():
    return parse_expr(WIDE_TEXT, DEPTH_SIG)


def test_wide_tensor_assoc_rw(default_recursion_limit, wide):
    grow, shrink = parse_rules("rule grow : u => u ; u\nrule shrink : u ; u => u\n",
                               DEPTH_SIG).rules
    out = assoc_rw(wide, grow, DEPTH_SIG)
    assert print_expr(out) == "(u ; u) * " + " * ".join(["u"] * 1199)
    assert print_expr(assoc_rw(out, shrink, DEPTH_SIG)) == WIDE_TEXT
    with pytest.raises(NoMatch):
        assoc_rw(wide, shrink, DEPTH_SIG)


def test_wide_tensor_partner(default_recursion_limit, wide):
    u = MorGen("u")
    term = parse_expr("(u ; (u ; u)) * " + " * ".join(["u"] * 1199), DEPTH_SIG)
    out = partner(term, u, u, DEPTH_SIG)
    assert print_expr(out) == "(u ; u ; u) * " + " * ".join(["u"] * 1199)
    with pytest.raises(NotAdjacent):
        partner(wide, u, u, DEPTH_SIG)


@pytest.mark.parametrize("n", [500, N])
def test_long_chain_cat_easy(default_recursion_limit, n):
    chain = parse_expr(" ; ".join(["u"] * n), DEPTH_SIG)
    assert isinstance(cat_easy(chain, right_comp([MorGen("u")] * n, None), DEPTH_SIG), Proved)
    shorter = parse_expr(" ; ".join(["u"] * (n - 1)), DEPTH_SIG)
    assert isinstance(cat_easy(chain, shorter, DEPTH_SIG), NotProved)


@pytest.mark.parametrize("n", [1000, N])
@pytest.mark.parametrize("nested", ["left", "right"])
def test_long_chain_evaluates(default_recursion_limit, n, nested):
    term = (parse_expr(" ; ".join(["u"] * n), DEPTH_SIG) if nested == "left"
            else right_comp([MorGen("u")] * n, None))
    flip = np.array([[0, 1], [1, 0]])
    mat = eval_matrix(term, MatrixInstance(DEPTH_SIG, {"A": 2}, {"u": flip}))
    assert (mat == np.linalg.matrix_power(flip, n)).all()
    rel = eval_rel(term, RelInstance(DEPTH_SIG, {"A": 2}, {"u": {(0, 1), (1, 0)}}))
    assert rel == ({(0, 0), (1, 1)} if n % 2 == 0 else {(0, 1), (1, 0)})
