"""Matrix and relation oracles: evaluation, laws, coherence checking."""

import copy
import itertools
import operator
import pickle
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gen import (
    interchange_pair,
    random_matrix_instance,
    random_rel_instance,
    random_term,
    random_term_with_dom,
    std_sig,
    struct_sig,
)
from monocat import semantics
from monocat.coherence import Equal, monoidal_eq
from monocat.parser import parse_expr, parse_signature
from monocat.semantics import (
    InvalidBackendData,
    MatrixInstance,
    MissingBackendData,
    NotBijective,
    Rel,
    braid_matrix,
    check_coherence,
    dim_flat,
    eval_matrix,
    eval_rel,
    mat_equiv,
    matrix_instance,
    rel_instance,
)
from monocat.terms import (
    Braid,
    CatError,
    Comp,
    MorGen,
    ObjTensor,
    Tensor,
    UndeclaredName,
    typecheck,
)
from reference_semantics import dense_eval_matrix, reference_eval_rel


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


def _peak(fn):
    """``fn()`` and the most memory it held at once beyond what it started with."""

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_braid_matrix_allocates_only_its_result():
    result, peak = _peak(lambda: braid_matrix(32, 32))
    assert peak <= 1.1 * result.nbytes, peak / result.nbytes


def test_mat_equiv():
    a = np.array([[1.0, 2.0]])
    assert mat_equiv(a, a.copy(), 0.0)
    assert not mat_equiv(a, np.zeros((2, 1)), 1.0)
    assert mat_equiv(a, a + 1e-12, 1e-9)
    assert not mat_equiv(a, a + 1e-6, 1e-9)


@pytest.mark.parametrize("block", [1 << 16, 1, 3])
def test_mat_equiv_verdicts(block, monkeypatch):
    monkeypatch.setattr(semantics, "_EQUIV_BLOCK", block)
    a = np.arange(24, dtype=complex).reshape(6, 4)
    # a shape mismatch, even of equal size
    assert not mat_equiv(a, a.reshape(4, 6), 1.0)
    # an empty matrix
    assert mat_equiv(np.zeros((0, 3)), np.zeros((0, 3)), 0.0)
    # any NaN, in either matrix, in the first or the last row, or in both
    for i, j in ((0, 0), (5, 3)):
        nan = a.copy()
        nan[i, j] = np.nan
        assert not mat_equiv(a, nan, np.inf)
        assert not mat_equiv(nan, a, np.inf)
        assert not mat_equiv(nan, nan.copy(), np.inf)
    # equal blocks deviate by 0, a zero's sign included, but an infinity
    # minus itself is NaN
    zeros = np.zeros((6, 4), dtype=complex)
    assert set(semantics._block_deviations(zeros, -zeros)) == {0.0}
    inf = a.copy()
    inf[5, 3] = np.inf
    with np.errstate(invalid="ignore"):
        assert not mat_equiv(inf, inf.copy(), np.inf)
    # a difference in the imaginary part only
    assert not mat_equiv(a, a + 1j * (a == 23), 0.5)
    # a difference equal to tol is within it (|3+4i| is exactly 5)
    for i, j in ((0, 0), (5, 3)):
        off = a.copy()
        off[i, j] += 3 + 4j
        assert mat_equiv(a, off, 5.0)
        assert not mat_equiv(a, off, np.nextafter(5.0, 0.0))
    # vectors and scalars
    assert mat_equiv(np.ones(7), np.ones(7), 0.0)
    assert not mat_equiv(np.ones(7), np.r_[np.ones(6), 2.0], 0.5)
    assert mat_equiv(np.array(2.0), np.array(2.25), 0.25)


def test_mat_equiv_has_no_large_temporaries():
    a = np.ones((1024, 1024), dtype=complex)
    b = a.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert mat_equiv(a, b, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


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


FACTOR_SIG = parse_signature("""
category symmetric
object A
object C
object B
mor s : I -> I
mor e : I -> A
mor d : A -> I
mor x : A -> A
mor m : A * A -> C
mor n : C -> A * A
mor c : C -> C
mor u : B -> B
backend matrix
dim A = 2
dim C = 4
dim B = 1
mat s = [[2i]]
mat e = [[1], [2i]]
mat d = [[0.6, 0.4]]
mat x = [[0, 1], [1, 0.5]]
mat m = [[1, 2, 0, 1i], [0, 1, 3, 0], [2i, 0, 1, 1], [1, 1, 0, 2]]
mat n = [[0, 1, 0, 0], [1, 0, 2, 0], [0, 1i, 0, 1], [3, 0, 0, 1]]
mat c = [[1, 0, 0, 2], [0, 0, 1i, 0], [0, 1, 0, 0], [1, 0, 0, 1]]
mat u = [[0.6+0.8i]]
""")


# 70 scalars of modulus 1 on dimension-1 wires; 70 scalars 2i and their objects
U70, S70, I70 = " * ".join(["u"] * 70), " * ".join(["s"] * 70), " * ".join(["I"] * 70)


@pytest.mark.parametrize("text", [
    # chains that start with a tensor of identities
    "id[A] * id[C] * id[A] ; x * c * x",
    "id[A] * id[A] * id[C] ; m * c ; n * c",
    "id[C] * id[A * A] ; id[C] * m ; braid[C, C] ; c * n",
    "id[I] * id[A] ; lunit[A] ; lunit_inv[A]",
    # scalars, states and effects (one-row or one-column factors) at factor boundaries
    "e * s * x ; d * s * x",
    "x * e * s * d ; m * s * s",
    "x * e ; m",
    "(d * x) ; lunit[A] ; x",
    "d * e",
    "s * s ; lunit[I] ; s",
    # dimensions 2 and 4, a box's rows spanning factors whose sizes divide each other
    "x * c * x ; alpha[A, C, A] ; id[A] * (n * id[A]) ; id[A] * alpha[A, A, A]"
    " ; id[A] * (id[A] * m)",
    "c * (x * x) ; id[C] * m ; n * c",
    # a braiding spanning several factors
    "x * c * e ; braid[A * C, A]",
    "e * (x * c) ; braid[A, A * C] ; (x * c) * x",
    "id[A] * c * x ; alpha[A, C, A] ; id[A] * braid[C, A] ; braid_inv[A * C, A]",
    # a swap on factor boundaries: only the factor list is reordered
    "x * (x * c) ; braid[A, A * C] ; (x * c) * x",
    "(e * c) * d ; runit[A * C] ; braid[A, C] ; c * x",
    # a swap that cuts a dense factor: its rows are transposed densely
    "n * x ; alpha[A, A, A] ; braid[A, A * A] ; m * x",
    "c ; n ; braid[A, A] ; m",
    # a swap that splits an identity across its halves
    "id[A * (A * A)] ; braid[A, A * A] ; (x * x) * id[A]",
    "id[A * C] * x ; alpha[A, C, A] ; braid[A, C * A] ; (c * x) * x",
    # a braid followed by boxes on both halves
    "x * c ; braid[A, C] ; c * x",
    "braid[A * A, C] ; c * m ; n * c",
    "id[A] * c ; braid[A, C] ; (c ; c) * (x ; x)",
    # braid ; braid returns to the original order
    "x * c ; braid[A, C] ; braid[C, A]",
    "id[A * C] ; braid[A, C] ; braid_inv[A, C] ; x * c",
    "(e * s) * (x * c) ; runit[A] * id[A * C] ; braid[A, A * C] ; braid[A * C, A]",
    # more than 64 dense factors, nearly all 1 x 1, some inside a braid
    f"(x * x) * ({U70}) ; braid[A, A] * ({U70}) ; (x * id[A]) * ({U70})",
    f"x * ({S70} * c) ; braid[A, {I70} * C] ; ({S70} * c) * x",
])
def test_eval_factored_values_match_dense_reference(text):
    inst = matrix_instance(FACTOR_SIG)
    term = parse_expr(text, FACTOR_SIG)
    got, want = eval_matrix(term, inst), dense_eval_matrix(term, inst)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_eval_1200_factors(default_recursion_limit):
    """1200 factors, of dimension 1 and of dimension 2 as states, are
    multiplied out without recursing."""

    inst = matrix_instance(FACTOR_SIG)
    ones = " * ".join(["u"] * 1200)
    term = parse_expr(f"({ones}) ; id[{' * '.join(['B'] * 1200)}] ; ({ones})", FACTOR_SIG)
    assert mat_equiv(eval_matrix(term, inst), np.array([[(0.6 + 0.8j) ** 2400]]), 1e-9)
    states = " * ".join(["e"] * 1200)
    term = parse_expr(f"({states}) ; ({' * '.join(['d'] * 1200)})", FACTOR_SIG)
    scalar = (inst.mat["d"] @ inst.mat["e"])[0, 0]  # 0.6 + 0.8i, of modulus 1
    assert mat_equiv(eval_matrix(term, inst), np.array([[scalar ** 1200]]), 1e-9)


def test_eval_interchange_side_peaks_near_its_result():
    """One side of a 10-wire interchange pair allocates little beyond its
    1024 x 1024 result: the matrix is formed once, from two small halves."""

    inst = matrix_instance(WIDE_SIG)
    half = " * ".join(["A"] * 5)
    top = " * ".join(["id[A]", "id[A]", "x", "id[A]", "id[A]"])
    bottom = " * ".join(["id[A]", "id[A]", "id[A]", "x", "id[A]"])
    for text in (f"({top}) * id[{half}] ; id[{half}] * ({bottom})",
                 f"id[{half}] * ({bottom}) ; ({top}) * id[{half}]"):
        term = parse_expr(text, WIDE_SIG)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = eval_matrix(term, inst)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.shape == (1024, 1024)
        assert peak < 1.25 * result.nbytes, peak / result.nbytes


def test_eval_braided_sides_peak_near_their_result():
    """A 10-wire naturality side, on each side of the braid, and a symmetry
    left-hand side allocate little beyond their 1024 x 1024 result: a braid
    on whole factor runs only reorders them."""

    inst = matrix_instance(WIDE_SIG)
    half = " * ".join(["A"] * 5)
    x = " * ".join(["id[A]", "x", "id[A]", "id[A]", "id[A]"])
    y = " * ".join(["id[A]", "id[A]", "id[A]", "x", "id[A]"])
    for text in (f"({x}) * ({y}) ; braid[{half}, {half}]",
                 f"braid[{half}, {half}] ; ({y}) * ({x})",
                 f"({x}) * ({y}) ; braid[{half}, {half}] ; braid[{half}, {half}]"):
        term = parse_expr(text, WIDE_SIG)
        result, peak = _peak(lambda: eval_matrix(term, inst))
        assert result.shape == (1024, 1024)
        assert peak <= 1.25 * result.nbytes, (text, peak / result.nbytes)
        assert mat_equiv(result, dense_eval_matrix(term, inst), 1e-12), text


def test_eval_braided_sides_write_once(monkeypatch):
    """Boxes on lone wires and braids on whole factor runs form no dense
    factor: the matrix is written once, at the end."""

    writes = []
    write = semantics._write
    monkeypatch.setattr(semantics, "_write", lambda *a, **k: writes.append(a) or write(*a, **k))
    inst = matrix_instance(WIDE_SIG)
    half = " * ".join(["A"] * 4)
    x = " * ".join(["id[A]", "x", "id[A]", "id[A]"])
    y = " * ".join(["x", "id[A]", "id[A]", "x"])
    for text in (f"({x}) * ({y}) ; braid[{half}, {half}] ; braid[{half}, {half}]",
                 f"({x}) * ({y}) ; braid[{half}, {half}]",
                 f"braid[{half}, {half}] ; ({y}) * ({x})"):
        writes.clear()
        eval_matrix(parse_expr(text, WIDE_SIG), inst)
        assert len(writes) == 1, text


SYMMETRIC_STRUCT_SIG = parse_signature("category symmetric\nobject A\nobject B\nobject C")
PROPERTY_SIGS = {"std": std_sig(), "struct": struct_sig(), "symmetric struct": SYMMETRIC_STRUCT_SIG}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(sorted(PROPERTY_SIGS)))
def test_eval_matches_dense_reference_on_braided_terms(seed, which):
    """A random term, then a braid on its whole target where the level has
    one, then a random term from there, evaluates as the dense reference does."""

    sig = PROPERTY_SIGS[which]
    rng = Random(seed)
    inst = random_matrix_instance(rng, sig, max_dim=3)
    term = random_term(rng, sig, max_leaves=rng.randint(2, 10))
    cod = typecheck(term, sig).cod
    if sig.has_level("braided") and isinstance(cod, ObjTensor):
        term = Comp(term, Braid(cod.left, cod.right))
    term = Comp(term, random_term_with_dom(rng, sig, typecheck(term, sig).cod, 8))
    got, want = eval_matrix(term, inst), dense_eval_matrix(term, inst)
    assert got.shape == want.shape
    assert got.size == 0 or np.max(np.abs(got - want)) <= 1e-12


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), -float("inf")])
def test_tolerance_must_be_finite_and_at_least_0(tol):
    # a NaN tolerance would make every matrix verdict "unequal" and fail a coherence
    # condition at deviation 0.0; an infinite one would make every pair equal
    with pytest.raises(InvalidBackendData, match="^tolerance must be finite and at least 0"):
        matrix_instance(BACKEND_SIG, tol)
    with pytest.raises(InvalidBackendData, match="^tolerance must be finite and at least 0"):
        MatrixInstance(BACKEND_SIG, {"A": 2, "B": 3, "C": 4}, {}, tolerance=tol)
    assert matrix_instance(BACKEND_SIG, 0.0).tolerance == 0.0


@pytest.mark.parametrize("line, message", [
    ("tolerance nan", "line 5: tolerance must be finite and at least 0, not nan"),
    ("tolerance -1e-9", "line 5: tolerance must be finite and at least 0, not -1e-09"),
    ("tolerance abc", "line 5: tolerance must be a number, not 'abc'"),
    ("dim A = abc", "line 5: dim A must be an integer, not 'abc'"),
    ("dim A = 1.5", "line 5: dim A must be an integer, not '1.5'"),
    ("size A = x", "line 5: size A must be an integer, not 'x'"),
    # a NaN or infinite entry made every check of a term against itself "unequal"
    *((f"mat f = [[{x}]]", f"bad complex number {x!r} in mat f (line 5)")
      for x in ("nan", "1e999", "-1e999i", "1 + nani")),
    ("mat f = [[abc]]", "bad complex number 'abc' in mat f (line 5)"),
    ("mat f = []", "empty matrix literal in mat f (line 5)"),
])
def test_unreadable_backend_number_names_its_line(line, message):
    kind = "rel" if line.startswith("size") else "matrix"
    sig = parse_signature(f"category symmetric\nobject A\nmor f : A -> A\n"
                          f"backend {kind}\n{line}\n")
    with pytest.raises(InvalidBackendData) as err:
        (rel_instance if kind == "rel" else matrix_instance)(sig)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, lines, message", [
    ("matrix", "dim A = 2\nmat f = [[1, 0], [0, 1]]\nmat f = [[2, 0], [0, 1]]",
     "line 7: mat 'f' declared more than once"),
    ("matrix", "dim A = 2\ndim A = 1\nmat f = [[1]]", "line 6: dim 'A' declared more than once"),
    ("matrix", "dim A = 1\nmat f = [[1]]\ninv f = [[1]]\ninv f = [[1]]",
     "line 8: inv 'f' declared more than once"),
    ("matrix", "tolerance 1e-9\ndim A = 1\nmat f = [[1]]\ntolerance 1e-3",
     "line 8: tolerance declared more than once"),
    ("rel", "size A = 1\nrel f = {(0,0)}\nrel f = {}", "line 7: rel 'f' declared more than once"),
    ("rel", "size A = 1\nsize A = 2\nrel f = {}", "line 6: size 'A' declared more than once"),
])
def test_repeated_backend_entry_names_its_line(kind, lines, message):
    sig = parse_signature(f"category symmetric\nobject A\nmor f : A -> A\n"
                          f"backend {kind}\n{lines}\n")
    with pytest.raises(InvalidBackendData) as err:
        (rel_instance if kind == "rel" else matrix_instance)(sig)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, lines, error, message", [
    ("matrix", "dim A = 1\nsize A = 1", InvalidBackendData,
     "line 7: 'size' not valid in a matrix block"),
    ("matrix", "dim A = 0\nmat f = [[1]]\nmat k = [[1]]\ninv k = [[1]]", InvalidBackendData,
     "dimension of 'A' must be positive"),
    ("rel", "size A = 0\nrel f = {}\nrel k = {}", InvalidBackendData,
     "carrier of 'A' must be nonempty"),
    ("matrix", "dim A = 1\nmat f = [[1]]\nmat k = [[1]]", MissingBackendData,
     "no inverse matrix for iso 'k'"),
])
def test_invalid_backend_block_is_refused(kind, lines, error, message):
    sig = parse_signature(f"category symmetric\nobject A\nmor f : A -> A\niso k : A -> A\n"
                          f"backend {kind}\n{lines}\n")
    with pytest.raises(error) as err:
        (rel_instance if kind == "rel" else matrix_instance)(sig)
    assert str(err.value) == message


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


@pytest.mark.parametrize("make_sig", [std_sig, struct_sig])
def test_eval_rel_matches_reference(make_sig):
    """Local application agrees with the pair-by-pair evaluator on random
    terms, errors included."""

    sig = make_sig()
    rng = Random(59)
    raised = set()
    for i in range(300):
        inst = random_rel_instance(rng, sig, max_size=3, density=(0.2, 0.5, 0.9)[i % 3])
        if sig.morphisms and i % 4 == 0:
            # a missing relation, or an iso's that may not be a bijection
            if i % 8:
                del inst.rel[rng.choice(sig.morphisms).name]
            else:
                decl = rng.choice([d for d in sig.morphisms if d.iso])
                src, tgt = dim_flat(decl.dom, inst.size), dim_flat(decl.cod, inst.size)
                inst.rel[decl.name] = frozenset(
                    (x, y) for x in range(src) for y in range(tgt) if rng.random() < 0.5)
        term = random_term(rng, sig, max_leaves=rng.randint(2, 16))
        term = Comp(term, random_term_with_dom(rng, sig, typecheck(term, sig).cod, 8))
        other = random_term(rng, sig, max_leaves=6)
        stacked = Tensor(other, term) if rng.random() < 0.5 else Tensor(term, other)
        ty = typecheck(stacked, sig)
        if max(dim_flat(ty.dom, inst.size), dim_flat(ty.cod, inst.size)) <= 243:
            term = stacked
        try:
            want = reference_eval_rel(term, inst)
        except CatError as err:
            raised.add(type(err))
            with pytest.raises(CatError) as got:
                eval_rel(term, inst)
            assert got.type is type(err), term
            continue
        assert eval_rel(term, inst) == want, term
    assert raised == ({MissingBackendData, NotBijective} if sig.morphisms else set())


def test_rel_difference_matches_set_difference():
    """Sorted int64 keys give the pairs in exactly one relation, as ``^`` of
    the two ``Rel`` sets does."""

    sig = parse_signature("category symmetric\nobject A\nmor p : A -> A\nmor q : A -> A\n")
    rng = Random(61)
    atoms = ("p", "q", "id[A]")
    for _ in range(200):
        inst = semantics.RelInstance(sig, {"A": 3}, {
            g: frozenset((x, y) for x in range(3) for y in range(3) if rng.random() < 0.4)
            for g in "pq"})
        t1, t2 = (parse_expr(" ; ".join(
            rng.choice(("braid[A, A]", f"{rng.choice(atoms)} * {rng.choice(atoms)}"))
            for _ in range(rng.randint(1, 4))), sig) for _ in range(2))
        got = semantics.rel_difference(t1, t2, inst)
        assert got == sorted(eval_rel(t1, inst) ^ eval_rel(t2, inst)), (t1, t2)
    with pytest.raises(CatError, match="relations on 3 x 3 and 9 x 9 elements"):
        semantics.rel_difference(parse_expr("p", sig), parse_expr("p * p", sig), inst)


def test_eval_rel_drops_repeated_pairs():
    """Each of the 60 boxes maps every source to every target: kept per
    path, the pairs would number 3^61; per box they stay at 9."""

    sig = parse_signature("category symmetric\nobject A\nmor t : A -> A\n"
                          "backend rel\nsize A = 3\n"
                          "rel t = {(0,0),(0,1),(0,2),(1,0),(1,1),(1,2),(2,0),(2,1),(2,2)}\n")
    term = parse_expr(" ; ".join(["t"] * 60), sig)
    assert eval_rel(term, rel_instance(sig)) == {(x, y) for x in range(3) for y in range(3)}


def test_eval_rel_merged_factors_stay_boolean():
    """``m`` relates each of elements 0 and 1 of ``A * A`` to both.  Its first
    copy acts on the merge of two identity factors, and every later copy on
    that merged factor; counted as paths, the entries would pass 2^1024
    and overflow, and ``0 * inf`` would add pairs that are not there."""

    sig = parse_signature("category symmetric\nobject A\nmor m : A * A -> A * A\n"
                          "backend rel\nsize A = 2\nrel m = {(0,0),(0,1),(1,0),(1,1)}\n")
    inst = rel_instance(sig)
    term = parse_expr("(id[A] * id[A]) ; " + " ; ".join(["m"] * 1100), sig)
    assert eval_rel(term, inst) == eval_rel(parse_expr("m", sig), inst) == {
        (0, 0), (0, 1), (1, 0), (1, 1)}


def test_eval_rel_wide_product():
    """14 wires of 3 elements: one state per wire, then a layer of boxes.
    The relation is the product of the per-wire relations, while an
    identity on all the wires would alone hold 3^14 = 4,782,969 pairs."""

    wires = 14
    rng = Random(60)
    states = [sorted(rng.sample(range(3), rng.choice((1, 2, 2)))) for _ in range(wires)]
    boxes = {"u": {(0, 1), (1, 2), (2, 0)},          # a bijection
             "w": {(0, 0), (1, 0), (2, 2)},          # merges 0 and 1
             "z": {(0, 1), (0, 2), (1, 1), (2, 0)}}  # branches and merges
    sig = parse_signature("\n".join(
        ["category symmetric", "object A", "iso k : A -> A"]
        + [f"mor b{i} : I -> A" for i in range(wires)]
        + [f"mor {name} : A -> A" for name in boxes]
        + ["backend rel", "size A = 3", "rel k = {(0,2),(1,0),(2,1)}"]
        + [f"rel b{i} = {{{', '.join(f'(0,{s})' for s in state)}}}"
           for i, state in enumerate(states)]
        + [f"rel {name} = {{{', '.join(map(str, sorted(pairs)))}}}"
           for name, pairs in boxes.items()]))
    boxes["id[A]"] = {(a, a) for a in range(3)}
    boxes["inv(k)"] = {(0, 1), (1, 2), (2, 0)}
    layer = [rng.choice(sorted(boxes)) for _ in range(wires)]
    per_wire = [{y for s in state for x, y in boxes[box] if x == s}
                for state, box in zip(states, layer)]
    # a braiding on wires 6 and 7 exchanges their states
    layer[6:8] = ["braid[A,A]"]
    per_wire[6:8] = [set(states[7]), set(states[6])]
    top = [f"b{i}" for i in range(wires)]
    top[6:8] = ["(b6 * b7)"]
    text = f"({' * '.join(top)}) ; ({' * '.join(layer)})"
    want = {(0, sum(y * 3 ** (wires - 1 - w) for w, y in enumerate(ys)))
            for ys in itertools.product(*map(sorted, per_wire))}
    got = eval_rel(parse_expr(text, sig), rel_instance(sig))
    assert 1000 < len(want) < 100_000
    assert got == want


def test_eval_rel_rebuilds_a_replaced_relation():
    """A generator's arrays are built once per relation, and built again
    when the instance's relation is replaced."""

    inst = rel_instance(BACKEND_SIG)
    term = parse_expr("inv(k) ; f", BACKEND_SIG)
    assert eval_rel(term, inst) == {(1, 1), (2, 0)}
    inst.rel["k"] = frozenset({(0, 0), (1, 1), (2, 2)})
    assert eval_rel(term, inst) == {(0, 1), (2, 0)}
    inst.rel["f"] = frozenset({(1, 0)})
    assert eval_rel(term, inst) == {(1, 0)}
    inst.rel["k"] = frozenset({(0, 0), (1, 0), (2, 2)})
    with pytest.raises(NotBijective):
        eval_rel(term, inst)


def test_eval_rel_too_large_to_index():
    """A relation whose carriers multiply to 2^63 or more would overflow
    int64 indices; it is refused rather than evaluated wrongly."""

    sig = parse_signature("category symmetric\nobject A\nmor e : I -> A\n"
                          "backend rel\nsize A = 2\nrel e = {(0,1)}\n")
    inst = rel_instance(sig)
    assert eval_rel(parse_expr(" * ".join(["e"] * 62), sig), inst) == {(0, 2 ** 62 - 1)}
    with pytest.raises(CatError, match="too large to index"):
        eval_rel(parse_expr(" * ".join(["e"] * 63), sig), inst)


BRAID_AB = frozenset((i * 2 + j, j * 3 + i) for i in range(3) for j in range(2))


def test_rel_equality():
    """A ``Rel`` equals exactly the sets of its pairs, both ways round, and
    another ``Rel`` of the same pairs, on the same carrier or not."""

    inst = rel_instance(BACKEND_SIG)
    rel = eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), inst)
    assert type(rel) is Rel and len(rel) == 6
    with pytest.raises(ValueError):
        rel.keys[0] = 0
    same = (BRAID_AB, set(BRAID_AB), eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), inst),
            Rel(np.array(sorted(x * 7 + y for x, y in BRAID_AB)), 7))
    other = (BRAID_AB - {(5, 5)}, BRAID_AB | {(5, 0)}, set(BRAID_AB ^ {(0, 0), (0, 1)}),
             Rel(rel.keys, 5), eval_rel(parse_expr("id[A * B]", BACKEND_SIG), inst))
    for x in same:
        assert rel == x and x == rel and not rel != x and not x != rel, x
    for x in other:
        assert rel != x and x != rel and not rel == x and not x == rel, x
    for x in (sorted(BRAID_AB), None, 6):
        assert rel != x and not rel == x
    # the same keys on another carrier are other pairs; the same pairs are other keys
    assert Rel(np.array([1, 5]), 4) == Rel(np.array([1, 3]), 2) == {(0, 1), (1, 1)}
    assert Rel(np.array([1, 5]), 4) != Rel(np.array([1, 5]), 3)
    assert Rel(np.array([1, 5]), 4) != Rel(np.array([1, 2]), 2)


def test_rel_hash_iteration_and_membership():
    rel = eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), rel_instance(BACKEND_SIG))
    assert hash(rel) == hash(BRAID_AB) == hash(Rel(np.array(sorted(
        x * 9 + y for x, y in BRAID_AB)), 9))
    assert list(rel) == sorted(BRAID_AB)
    assert all(type(x) is int for pair in rel for x in pair)
    for probe in ((1, 3), (3, 1), (np.int64(1), np.int64(3)), (np.int32(3), 4), (1.0, 3),
                  (1.5, 3), (1, 3, 0), 1.0, "(1, 3)", None):
        assert (probe in rel) is (probe in BRAID_AB), probe
    for probe in ([1, 3], np.array([1, 3]), {1: 3}):
        with pytest.raises(TypeError):
            probe in BRAID_AB
        with pytest.raises(TypeError):
            probe in rel


def test_rel_set_operations_give_frozensets():
    inst = rel_instance(BACKEND_SIG)
    rel = eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), inst)
    ident = eval_rel(parse_expr("id[A * B]", BACKEND_SIG), inst)
    for x in (set(), {(0, 0), (9, 9)}, frozenset(BRAID_AB), {(5, 5)}, ident, rel):
        fx = frozenset(x)
        for op in (operator.xor, operator.or_, operator.and_, operator.sub):
            got, want = op(rel, x), op(BRAID_AB, fx)
            assert type(got) is frozenset and got == want, (op, x)
            assert op(x, rel) == op(fx, BRAID_AB), (op, x)
        for op in (operator.le, operator.lt, operator.ge, operator.gt):
            assert op(rel, x) is op(BRAID_AB, fx) and op(x, rel) is op(fx, BRAID_AB), (op, x)
        assert rel.isdisjoint(x) is BRAID_AB.isdisjoint(fx)
    with pytest.raises(TypeError):
        rel <= sorted(BRAID_AB)


def test_rel_pickle_and_copy_drop_the_frozenset():
    rel = eval_rel(parse_expr("braid[A,B]", BACKEND_SIG), rel_instance(BACKEND_SIG))
    data = pickle.dumps(rel)
    hash(rel)  # builds and keeps the frozenset
    assert rel._set == BRAID_AB and pickle.dumps(rel) == data
    for back in (pickle.loads(data), copy.deepcopy(rel), copy.copy(rel)):
        assert type(back) is Rel and back._set is None and back.cod == rel.cod
        assert np.array_equal(back.keys, rel.keys) and back == rel and back == BRAID_AB


def test_empty_rel():
    inst = rel_instance(UNCLE_SIG)
    empty = eval_rel(parse_expr("brother ; parent", UNCLE_SIG), inst)
    assert type(empty) is Rel and len(empty) == 0 and list(empty) == []
    assert empty == frozenset() == empty and empty == set() and set() == empty
    assert empty == Rel(np.array([], dtype=np.int64), 1) and hash(empty) == hash(frozenset())
    assert empty != eval_rel(parse_expr("parent ; brother", UNCLE_SIG), inst)
    assert (0, 0) not in empty and empty <= set() and not empty
    assert pickle.loads(pickle.dumps(empty)) == empty


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["std", "struct"]))
def test_interchange_pairs_agree_in_both_oracles(seed, which):
    """A term and its interchange rewrite that ``monoidal_eq`` calls Equal
    (some with scalar boxes are NotDecided) have equal relations, each the
    reference evaluator's, and equal matrices.  About 1 ms an example, so
    300 take under 3 s."""

    sig = PROPERTY_SIGS[which]
    t1, t2 = interchange_pair(seed, sig)
    assume(isinstance(monoidal_eq(t1, t2, sig), Equal))
    rng = Random(seed)
    ri = random_rel_instance(rng, sig, max_size=3)
    r1, r2 = eval_rel(t1, ri), eval_rel(t2, ri)
    assert type(r1) is type(r2) is Rel and r1 == r2
    assert r1 == reference_eval_rel(t1, ri) and r2 == reference_eval_rel(t2, ri)
    mi = random_matrix_instance(rng, sig, max_dim=3)
    assert mat_equiv(eval_matrix(t1, mi), eval_matrix(t2, mi), mi.tolerance)


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


@pytest.mark.parametrize("block", [1, 3])
def test_check_coherence_deviation_by_row_blocks(block, sig, monkeypatch):
    """The matrix compare reports the same maximum deviation, whatever the
    row blocks it takes it over."""

    inst = random_matrix_instance(Random(43), sig, max_dim=3)
    inst.inv_mat["k"] = inst.inv_mat["k"] * 2.0
    want = check_coherence(inst, sig, rng=Random(5))
    assert any(r.deviation > 0 for r in want)
    monkeypatch.setattr(semantics, "_EQUIV_BLOCK", block)
    assert check_coherence(inst, sig, rng=Random(5)) == want


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
