"""Matrix and relation oracles: evaluation, laws, coherence checking."""

from random import Random

import numpy as np
import pytest

from gen import (
    random_matrix_instance,
    random_rel_instance,
    random_term,
    random_term_with_dom,
    std_sig,
    struct_sig,
)
from monocat.parser import parse_expr, parse_signature
from monocat.semantics import (
    InvalidBackendData,
    MatrixInstance,
    MissingBackendData,
    NotBijective,
    braid_matrix,
    check_coherence,
    dim_flat,
    eval_matrix,
    eval_rel,
    mat_equiv,
    matrix_instance,
    rel_instance,
)
from monocat.terms import Comp, MorGen, Tensor, UndeclaredName, typecheck
from reference_semantics import dense_eval_matrix


def test_braid_matrix_unit_factor():
    for n in (1, 2, 5):
        assert np.array_equal(braid_matrix(1, n), np.eye(n, dtype=complex))
        assert np.array_equal(braid_matrix(n, 1), np.eye(n, dtype=complex))


def test_braid_matrix_2x2_by_enumeration():
    # independent oracle: act on every basis product vector
    K = braid_matrix(2, 2)
    assert sorted(map(tuple, np.argwhere(K.real == 1))) == [(0, 0), (1, 2), (2, 1), (3, 3)]
    for i in range(2):
        for j in range(2):
            ei, ej = np.eye(2)[i], np.eye(2)[j]
            assert np.allclose(K @ np.kron(ei, ej), np.kron(ej, ei))


def test_commutation_law_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p, n, q, m = rng.integers(1, 5, size=4)
        A = rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))
        B = rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))
        lhs = braid_matrix(p, q) @ np.kron(A, B)
        rhs = np.kron(B, A) @ braid_matrix(n, m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_braid_matrix_involution():
    for m in range(1, 5):
        for n in range(1, 5):
            prod = braid_matrix(n, m) @ braid_matrix(m, n)
            assert np.array_equal(prod, np.eye(m * n, dtype=complex))


def test_mat_equiv():
    a = np.array([[1.0, 2.0]])
    assert mat_equiv(a, a.copy(), 0.0)
    assert not mat_equiv(a, np.zeros((2, 1)), 1.0)
    assert mat_equiv(a, a + 1e-12, 1e-9)
    assert not mat_equiv(a, a + 1e-6, 1e-9)


BACKEND_SIG = parse_signature("""
category symmetric
object A
object B
object C
mor f : A -> B
iso k : A -> A

backend matrix
tolerance 1e-9
dim A = 2
dim B = 3
dim C = 4
mat f = [[1+2i, 0], [0.5, 1i], [0, 3]]
mat k = [[0, 1], [1, 0]]
inv k = [[0, 1], [1, 0]]

backend rel
size A = 3
size B = 2
size C = 2
rel f = {(0,1), (2,0)}
rel k = {(0,1),(1,0),(2,2)}
""")


def test_matrix_instance_from_signature():
    inst = matrix_instance(BACKEND_SIG)
    assert inst.dim == {"A": 2, "B": 3, "C": 4}
    assert inst.mat["f"][0, 0] == 1 + 2j
    assert inst.tolerance == 1e-9


def test_eval_identity_dimension():
    inst = matrix_instance(BACKEND_SIG)
    m = eval_matrix(parse_expr("id[A]", BACKEND_SIG), inst)
    assert np.array_equal(m, np.eye(2, dtype=complex))
    m = eval_matrix(parse_expr("id[I]", BACKEND_SIG), inst)
    assert m.shape == (1, 1)


def test_eval_structural_identity():
    inst = matrix_instance(BACKEND_SIG)
    m = eval_matrix(parse_expr("alpha[A,B,C]", BACKEND_SIG), inst)
    assert np.array_equal(m, np.eye(24, dtype=complex))


def test_kronecker_mixed_product_figure():
    # (A (x) C) ; (B (x) D)  ==  (A ; B) (x) (C ; D), with the concrete A and C
    sig = parse_signature("""
category symmetric
object X
mor a : X -> X
mor b : X -> X
mor c : X -> X
mor d : X -> X
backend matrix
dim X = 2
mat a = [[1, 2], [3, 4]]
mat b = [[0.3+1i, 0.7], [0.2, 0.9-2i]]
mat c = [[0, 1], [1, 0]]
mat d = [[0.5, 0.25], [1, 0]]
""")
    inst = matrix_instance(sig)
    lhs = eval_matrix(parse_expr("(a * c) ; (b * d)", sig), inst)
    rhs = eval_matrix(parse_expr("(a ; b) * (c ; d)", sig), inst)
    assert mat_equiv(lhs, rhs, 1e-12)


def test_eval_composition_is_reversed_product():
    inst = matrix_instance(BACKEND_SIG)
    t = parse_expr("k ; f", BACKEND_SIG)
    expected = inst.mat["f"] @ inst.mat["k"]
    assert np.array_equal(eval_matrix(t, inst), expected)


def test_eval_braid_shapes():
    inst = matrix_instance(BACKEND_SIG)
    m = eval_matrix(parse_expr("braid[A,B]", BACKEND_SIG), inst)
    assert m.shape == (6, 6)
    assert np.array_equal(m, braid_matrix(2, 3))


@pytest.mark.parametrize("make_sig", [std_sig, struct_sig])
def test_eval_matches_dense_reference(make_sig):
    """Local contraction agrees with the kron/matmul evaluator on random terms."""

    sig = make_sig()
    rng = Random(53)
    for _ in range(300):
        inst = random_matrix_instance(rng, sig, max_dim=3)
        # compose and stack random terms so that apply meets tensors and
        # braidings away from the top wire
        term = random_term(rng, sig, max_leaves=rng.randint(2, 16))
        term = Comp(term, random_term_with_dom(rng, sig, typecheck(term, sig).cod, 8))
        other = random_term(rng, sig, max_leaves=6)
        stacked = Tensor(other, term) if rng.random() < 0.5 else Tensor(term, other)
        ty = typecheck(stacked, sig)
        if max(dim_flat(ty.dom, inst.dim), dim_flat(ty.cod, inst.dim)) <= 243:
            term = stacked
        got, want = eval_matrix(term, inst), dense_eval_matrix(term, inst)
        assert got.shape == want.shape, term
        assert got.size == 0 or np.max(np.abs(got - want)) <= 1e-10, term


WIDE_SIG = parse_signature("""
category symmetric
object A
mor e : I -> A
mor x : A -> A
backend matrix
dim A = 2
mat e = [[1], [2i]]
mat x = [[0, 1], [1, 0.5]]
""")


def test_eval_wide_state():
    """16 wires: the column has 65536 entries, while a dense layer would
    need a 65536 x 65536 matrix."""

    inst = matrix_instance(WIDE_SIG)
    wires = 16
    layers = [0, 5, 15, 0, 9]

    def layer(wire):
        return " * ".join("x" if w == wire else "id[A]" for w in range(wires))

    text = " ; ".join([" * ".join(["e"] * wires)] + [layer(w) for w in layers])
    want = np.ones((1, 1), dtype=complex)
    for w in range(wires):
        vec = np.linalg.matrix_power(inst.mat["x"], layers.count(w)) @ inst.mat["e"]
        want = np.kron(want, vec)
    got = eval_matrix(parse_expr(text, WIDE_SIG), inst)
    assert got.shape == (2 ** wires, 1)
    assert mat_equiv(got, want, 1e-12)


def test_eval_missing_matrix():
    inst = matrix_instance(BACKEND_SIG)
    del inst.inv_mat["k"]
    for text in ("k ; inv(k)", "inv(k) * id[A]"):
        with pytest.raises(MissingBackendData):
            eval_matrix(parse_expr(text, BACKEND_SIG), inst)


def test_missing_backend_data():
    sig = parse_signature("category symmetric\nobject A\nmor f : A -> A\n")
    with pytest.raises(MissingBackendData):
        matrix_instance(sig)
    with pytest.raises(MissingBackendData):
        rel_instance(sig)


def test_invalid_backend_data():
    bad = parse_signature(
        "category symmetric\nobject A\nmor f : A -> A\n"
        "backend matrix\ndim A = 2\nmat f = [[1, 0, 0], [0, 1, 0]]\n")
    with pytest.raises(InvalidBackendData):
        matrix_instance(bad)
    bad_inv = parse_signature(
        "category symmetric\nobject A\niso k : A -> A\n"
        "backend matrix\ndim A = 2\nmat k = [[1, 0], [0, 1]]\ninv k = [[2, 0], [0, 2]]\n")
    with pytest.raises(InvalidBackendData):
        matrix_instance(bad_inv)


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

UNCLE_SIG = parse_signature("""
category symmetric
object person
mor parent : person -> person
mor brother : person -> person
backend rel
size person = 3
rel parent = {(0,2)}
rel brother = {(2,1)}
""")


def test_uncle_example():
    # carriers: 0 = alice, 1 = bob, 2 = carol
    inst = rel_instance(UNCLE_SIG)
    assert eval_rel(parse_expr("parent ; brother", UNCLE_SIG), inst) == {(0, 1)}


def test_rel_identity_and_braid():
    inst = rel_instance(BACKEND_SIG)
    assert eval_rel(parse_expr("id[A]", BACKEND_SIG), inst) == {(0, 0), (1, 1), (2, 2)}
    braid = eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), inst)
    assert len(braid) == 6
    assert braid == {(i * 2 + j, j * 3 + i) for i in range(3) for j in range(2)}


def test_rel_inverse_requires_bijection():
    inst = rel_instance(BACKEND_SIG)
    assert eval_rel(parse_expr("inv(k)", BACKEND_SIG), inst) == {(1, 0), (0, 1), (2, 2)}
    broken = parse_signature(
        "category symmetric\nobject A\niso k : A -> A\n"
        "backend rel\nsize A = 2\nrel k = {(0,0),(1,0)}\n")
    with pytest.raises(NotBijective):
        eval_rel(parse_expr("inv(k)", broken), rel_instance(broken))


def test_rel_composition_exactly_associative():
    rng = Random(23)
    sig = std_sig()
    for _ in range(200):
        inst = random_rel_instance(rng, sig, max_size=3)
        f, g, h = MorGen("f"), MorGen("g"), MorGen("h")
        from monocat.terms import Comp

        lhs = eval_rel(Comp(Comp(f, g), h), inst)
        rhs = eval_rel(Comp(f, Comp(g, h)), inst)
        assert lhs == rhs


def test_rel_matches_boolean_matrix_semantics(sig):
    """Dual-route check: a relation is the support of its 0/1 matrix."""

    rng = Random(29)
    for _ in range(40):
        ri = random_rel_instance(rng, sig, max_size=2)
        mats = {}
        invs = {}
        for decl in sig.morphisms:
            src = dim_flat(decl.dom, ri.size)
            tgt = dim_flat(decl.cod, ri.size)
            m = np.zeros((tgt, src), dtype=complex)
            for x, y in ri.rel[decl.name]:
                m[y, x] = 1.0
            mats[decl.name] = m
            if decl.iso:
                invs[decl.name] = m.conj().T  # permutation matrix
        mi = MatrixInstance(sig, dict(ri.size), mats, invs)
        term = random_term(rng, sig, max_leaves=7)
        rel = eval_rel(term, ri)
        mat = eval_matrix(term, mi)
        support = {(int(x), int(y)) for y, x in np.argwhere(np.abs(mat) > 1e-12)}
        assert support == set(rel)


# ---------------------------------------------------------------------------
# check_coherence
# ---------------------------------------------------------------------------


def test_check_coherence_matrix_passes(sig):
    rng = Random(37)
    inst = random_matrix_instance(rng, sig, max_dim=3)
    results = check_coherence(inst, sig, rng=rng)
    names = {r.name for r in results}
    assert {"triangle", "pentagon", "hexagon_1", "hexagon_2", "symmetry",
            "lunit_naturality", "runit_naturality", "interchange",
            "iso_inverses"} <= names
    for r in results:
        assert r.passed, f"{r.name}: deviation {r.deviation}"
        assert r.deviation <= 1e-12


def test_check_coherence_rel_exact(sig):
    rng = Random(41)
    inst = random_rel_instance(rng, sig, max_size=3)
    for r in check_coherence(inst, sig, rng=rng):
        assert r.passed and r.deviation == 0.0, r


def test_check_coherence_negative_control(sig):
    rng = Random(43)
    inst = random_matrix_instance(rng, sig, max_dim=2)
    # sabotage one inverse after validation
    inst.inv_mat["k"] = inst.inv_mat["k"] * 2.0
    results = check_coherence(inst, sig, rng=rng)
    failed = {r.name for r in results if not r.passed}
    assert "iso_inverses" in failed
    passed = {r.name for r in results if r.passed}
    assert "triangle" in passed  # unrelated conditions unaffected


def test_undeclared_generator_eval(sig):
    inst = random_matrix_instance(Random(47), sig, max_dim=2)
    with pytest.raises(UndeclaredName):
        eval_matrix(MorGen("nope"), inst)
