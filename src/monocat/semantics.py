"""Concrete semantic backends: complex matrices and finite relations.

Both backends are ground-truth oracles for the symbolic layer.  Matrices
use the column-vector convention: a term ``dom -> cod`` evaluates to a
``dimflat(cod) x dimflat(dom)`` matrix, so ``f ; g`` is ``mat(g) @ mat(f)``.
Relations are sets of (source, target) pairs of elements indexed row-major
over the flattened object, so a relation is the support of its 0/1 matrix.
Both evaluators walk the term, never its normal form, so the normalizer is
checked by independent oracles.  They share one walk by local application,
as DisCoPy contracts diagrams (arXiv:2005.02975): a tensor is a Kronecker
product (of matrices, or of pair sets), and ``f ; g`` applies each box of
``g`` at its wire offset to the value of ``f``.  A matrix box is one batched
``matmul`` on the rows its wires index.  A relation box splits each target
into the digits ``pre / k / post`` around its wires, joins ``k`` with the
box's pairs and writes ``(p * k' + b) * post + q`` back, dropping repeated
pairs only after a box that maps two sources to one target.  A braiding
permutes two row blocks or target digits; identities, associators and
unitors move no wire and cost nothing.
"""

from __future__ import annotations

import math
import re
from dataclasses import field
from functools import partial
from random import Random
from typing import NamedTuple

import numpy as np

from .coherence import flatten_object
from .terms import (
    Assoc,
    AssocInv,
    Braid,
    CatError,
    Comp,
    Id,
    Inv,
    LUnit,
    MorExpr,
    MorGen,
    ObjExpr,
    ObjGen,
    ObjTensor,
    RUnit,
    STRUCTURAL,
    Signature,
    Tensor,
    UNIT,
    comp_chain,
    node_fields,
    record,
    typecheck,
)


class MissingBackendData(CatError):
    """The instance lacks data for a generator or the block is absent."""


class NotBijective(CatError):
    """``Inv`` evaluated on a relation that is not a bijection."""


class InvalidBackendData(CatError):
    """Backend payload violates a shape or inverse invariant."""


def dim_flat(obj: ObjExpr, dim: dict[str, int]) -> int:
    """Product of the dimensions of the flattened object (empty = 1)."""

    try:
        return math.prod(dim[name] for name in flatten_object(obj))
    except KeyError as err:
        raise MissingBackendData(f"no dimension for object {err.args[0]!r}") from None


def braid_matrix(m: int, n: int) -> np.ndarray:
    """The (n*m) x (m*n) permutation sending e_i (x) e_j to e_j (x) e_i.

    Column index i*n+j (i < m, j < n) maps to row index j*m+i.
    """

    return np.eye(m * n, dtype=complex).reshape(m, n, m * n).transpose(1, 0, 2).reshape(n * m, -1)


_EQUIV_BLOCK = 1 << 16  # entries per row block compared by mat_equiv


def _block_deviations(a: np.ndarray, b: np.ndarray):
    """The largest entrywise absolute difference (NaN if any is) of each row
    block of equal-shaped ``a`` and ``b``, lazily; none when they are empty."""

    if a.size:
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        step = max(1, _EQUIV_BLOCK * len(a) // a.size)
        for i in range(0, len(a), step):
            yield np.max(np.abs(a[i:i + step] - b[i:i + step]))


def mat_equiv(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Shapes equal and every entrywise absolute difference at most ``tol``
    (a NaN never is); compares row blocks, stopping at the first over it."""

    return a.shape == b.shape and all(d <= tol for d in _block_deviations(a, b))


@record
class MatrixInstance:
    """Complex-matrix semantics for a signature's generators."""

    sig: Signature
    dim: dict[str, int]
    mat: dict[str, np.ndarray]
    inv_mat: dict[str, np.ndarray] = field(default_factory=dict)
    tolerance: float = 1e-9

    def __post_init__(self):
        for name in self.sig.objects:
            if name not in self.dim:
                raise MissingBackendData(f"no dimension for object {name!r}")
            if self.dim[name] < 1:
                raise InvalidBackendData(f"dimension of {name!r} must be positive")
        for decl in self.sig.morphisms:
            if decl.name not in self.mat:
                raise MissingBackendData(f"no matrix for morphism {decl.name!r}")
            rows = dim_flat(decl.cod, self.dim)
            cols = dim_flat(decl.dom, self.dim)
            m = np.asarray(self.mat[decl.name], dtype=complex)
            if m.shape != (rows, cols):
                raise InvalidBackendData(
                    f"matrix for {decl.name!r} has shape {m.shape}, expected {(rows, cols)}")
            self.mat[decl.name] = m
            if decl.iso:
                if decl.name not in self.inv_mat:
                    raise MissingBackendData(f"no inverse matrix for iso {decl.name!r}")
                inv = np.asarray(self.inv_mat[decl.name], dtype=complex)
                if inv.shape != (cols, rows):
                    raise InvalidBackendData(
                        f"inverse for {decl.name!r} has shape {inv.shape}, "
                        f"expected {(cols, rows)}")
                self.inv_mat[decl.name] = inv
                if not (mat_equiv(m @ inv, np.eye(rows, dtype=complex), self.tolerance)
                        and mat_equiv(inv @ m, np.eye(cols, dtype=complex), self.tolerance)):
                    raise InvalidBackendData(
                        f"inverse for {decl.name!r} is not an inverse within tolerance")


def _evaluate(term: MorExpr, sig: Signature, dims: dict[str, int], gen, eye, kron, box, swap):
    """Evaluate ``term`` by local application; returns its value and type.

    ``ev`` builds a subterm's value on its own boundary.  ``apply(t, v, pre)``
    acts with ``t`` on the targets of ``v`` (top wire most significant) below
    wires of total size ``pre``, and returns ``t``'s total output size too.
    Both walk the term on an explicit stack, so neither depth nor width
    recurses: ``ev`` joins a tensor's factor values with ``kron`` and hands
    a chain's first value to its other elements; ``apply`` acts with a
    tensor's bottom below its top's output size.  The backend gives
    ``gen(t)`` for a generator or inverse, ``eye``, ``kron``,
    ``box(gen(t), v, pre)`` and ``swap(v, pre, a, b)`` of two target blocks.
    """

    ty = typecheck(term, sig)
    dim = partial(dim_flat, dim=dims)

    def size(t: MorExpr) -> int:
        # an identity, structural atom or braiding spans all its object fields
        return math.prod(dim(obj) for obj in node_fields(t))

    def ev(t: MorExpr):
        values = []  # valued subterms, each popped by the step that takes it over
        todo = [("value", t)]
        while todo:
            step, t = todo.pop()
            if step == "kron":  # both factors of a tensor are valued
                bottom = values.pop()
                values.append(kron(values.pop(), bottom))
            elif step == "chain":  # a chain's first element is valued: apply the rest
                for el in t:
                    values.append(apply(el, values.pop(), 1)[0])
            elif isinstance(t, Comp):
                first, *rest = comp_chain(t)
                todo += (("chain", rest), ("value", first))
            elif isinstance(t, Tensor):
                todo += (("kron", None), ("value", t.bottom), ("value", t.top))
            elif isinstance(t, (MorGen, Inv)):
                values.append(gen(t))
            else:
                values.append(apply(t, eye(size(t)), 1)[0])
        return values.pop()

    def apply(t: MorExpr, v, pre: int) -> tuple:
        out = 1  # output size of the last subterm that acted
        todo = [("act", t, pre)]
        while todo:
            step, t, n = todo.pop()
            if step == "bottom":  # the tensor t's top has acted below n
                todo += (("times", None, out), ("act", t.bottom, n * out))
            elif step == "times":  # a tensor's bottom has acted; n is its top's size
                out = n * out
            elif isinstance(t, Comp):
                todo += [("act", el, n) for el in reversed(comp_chain(t))]
            elif isinstance(t, Tensor):
                todo += (("bottom", t, n), ("act", t.top, n))
            elif isinstance(t, (MorGen, Inv)):
                v, out = box(gen(t), v, n)
            elif (halves := STRUCTURAL[t.__class__][5]) is not None:
                a, b = map(dim, halves(*node_fields(t)))
                v, out = swap(v, n, a, b), a * b
            else:
                out = size(t)  # identities, associators and unitors move no wire
        return v, out

    return ev(term), ty


def eval_matrix(term: MorExpr, inst: MatrixInstance) -> np.ndarray:
    """Evaluate a well-typed term to its matrix (cod x dom)."""

    def gen(t: MorGen | Inv) -> np.ndarray:
        table = inst.mat if isinstance(t, MorGen) else inst.inv_mat
        if t.name not in table:
            kind = "matrix" if isinstance(t, MorGen) else "inverse matrix"
            raise MissingBackendData(f"no {kind} for {t.name!r}")
        return table[t.name]

    def box(s: np.ndarray, m: np.ndarray, pre: int) -> tuple[np.ndarray, int]:
        return np.matmul(s, m.reshape(pre, s.shape[1], -1)).reshape(-1, m.shape[1]), s.shape[0]

    def swap(m: np.ndarray, pre: int, a: int, b: int) -> np.ndarray:
        return m.reshape(pre, a, b, -1).transpose(0, 2, 1, 3).reshape(-1, m.shape[1])

    result, ty = _evaluate(term, inst.sig, inst.dim, gen, partial(np.eye, dtype=complex),
                           np.kron, box, swap)
    assert result.shape == (dim_flat(ty.cod, inst.dim), dim_flat(ty.dom, inst.dim)), ty
    return result


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

Rel = frozenset  # of (source index, target index) pairs


class _Pairs(NamedTuple):
    """Distinct pairs as int64 arrays on carriers of ``dom`` and ``cod``
    elements.  A generator's are sorted by source, those of source ``a``
    start at ``first[a]`` and number ``count[a]``, and ``merges`` says
    that two sources share a target."""

    src: np.ndarray
    tgt: np.ndarray
    dom: int
    cod: int
    first: np.ndarray | None = None
    count: np.ndarray | None = None
    merges: bool = False


def _pairs(src: np.ndarray, tgt: np.ndarray, dom: int, cod: int) -> _Pairs:
    # an int64 index, or src * cod + tgt, may have wrapped around otherwise
    if dom * cod >= 1 << 63:
        raise CatError(f"a relation on {dom} x {cod} elements is too large to index")
    return _Pairs(src, tgt, dom, cod)


@record
class RelInstance:
    """Finite-relation semantics: carriers {0..size-1} per object generator."""

    sig: Signature
    size: dict[str, int]
    rel: dict[str, Rel]
    # generator or inverse -> (the Rel its pairs were built from, the pairs,
    # or None for the inverse of a relation that is not a bijection)
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in self.sig.objects:
            if name not in self.size:
                raise MissingBackendData(f"no carrier size for object {name!r}")
            if self.size[name] < 1:
                raise InvalidBackendData(f"carrier of {name!r} must be nonempty")
        for decl in self.sig.morphisms:
            if decl.name not in self.rel:
                raise MissingBackendData(f"no relation for morphism {decl.name!r}")
            src = dim_flat(decl.dom, self.size)
            tgt = dim_flat(decl.cod, self.size)
            pairs = frozenset(tuple(p) for p in self.rel[decl.name])
            for (x, y) in pairs:
                if not (0 <= x < src and 0 <= y < tgt):
                    raise InvalidBackendData(
                        f"relation for {decl.name!r} has pair ({x},{y}) outside "
                        f"carriers {src}x{tgt}")
            self.rel[decl.name] = pairs

    def _generator(self, t: MorGen | Inv) -> _Pairs:
        """The pairs of a generator or an iso's inverse, built once per relation."""

        try:
            pairs = self.rel[t.name]
        except KeyError:
            raise MissingBackendData(f"no relation for {t.name!r}") from None
        if self._built.get(t, (None,))[0] is not pairs:
            decl = self.sig.morphism(t.name)
            dom, cod = dim_flat(decl.dom, self.size), dim_flat(decl.cod, self.size)
            src, tgt = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
            if isinstance(t, Inv):
                order = np.argsort(tgt)
                src, tgt, dom, cod = tgt[order], src[order], cod, dom
            count = np.bincount(src, minlength=dom)
            merges = bool(np.bincount(tgt, minlength=cod).max() > 1)
            bijective = dom == cod == len(src) and count.max() == 1 and not merges
            built = _Pairs(src, tgt, dom, cod, np.cumsum(count) - count, count, merges)
            self._built[t] = (pairs, built if bijective or isinstance(t, MorGen) else None)
        if self._built[t][1] is None:
            raise NotBijective(f"relation for {t.name!r} is not a bijection")
        return self._built[t][1]


def _rel_kron(r: _Pairs, s: _Pairs) -> _Pairs:
    return _pairs(np.add.outer(r.src * s.dom, s.src).ravel(),
                  np.add.outer(r.tgt * s.cod, s.tgt).ravel(), r.dom * s.dom, r.cod * s.cod)


def _rel_box(g: _Pairs, v: _Pairs, pre: int) -> tuple[_Pairs, int]:
    # split each target into pre / k / post digits and join k with g's sources
    post = v.cod // (pre * g.dom)
    p, rest = np.divmod(v.tgt, g.dom * post)
    k, q = np.divmod(rest, post)
    count = g.count[k]
    at = np.repeat(g.first[k] - np.cumsum(count) + count, count) + np.arange(count.sum())
    src = np.repeat(v.src, count)
    tgt = np.repeat(p * (g.cod * post) + q, count) + g.tgt[at] * post
    cod = pre * g.cod * post
    if g.merges:  # two paths may now reach the same pair: keep one
        key = np.sort(src * cod + tgt)
        src, tgt = np.divmod(key[np.diff(key, prepend=-1) > 0], cod)
    return _pairs(src, tgt, v.dom, cod), g.cod


def _rel_swap(v: _Pairs, pre: int, a: int, b: int) -> _Pairs:
    post = v.cod // (pre * a * b)
    p, rest = np.divmod(v.tgt, a * b * post)
    i, rest = np.divmod(rest, b * post)
    j, q = np.divmod(rest, post)
    return _Pairs(v.src, ((p * b + j) * a + i) * post + q, v.dom, v.cod)


def eval_rel(term: MorExpr, inst: RelInstance) -> Rel:
    """Evaluate a well-typed term to its relation on flattened carriers."""

    v, _ = _evaluate(term, inst.sig, inst.size, inst._generator,
                     lambda n: _pairs(np.arange(n), np.arange(n), n, n), _rel_kron,
                     _rel_box, _rel_swap)
    return frozenset(zip(v.src.tolist(), v.tgt.tolist()))


# ---------------------------------------------------------------------------
# Backend payload parsing (signature file blocks)
# ---------------------------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def _parse_complex(text: str, where: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise InvalidBackendData(f"bad complex number {text.strip()!r} in {where}") from None


def _parse_matrix(text: str, where: str) -> np.ndarray:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvalidBackendData(f"matrix literal must be [[...],...] in {where}")
    rows = re.findall(r"\[([^\[\]]*)\]", body[1:-1])
    if not rows:
        raise InvalidBackendData(f"empty matrix literal in {where}")
    data = [[_parse_complex(cell, where) for cell in row.split(",")] if row.strip() else []
            for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InvalidBackendData(f"ragged matrix rows in {where}")
    return np.array(data, dtype=complex)


def _block_entries(sig: Signature, kind: str, words: tuple[str, ...]):
    """(word, name, value, line number) per line of the ``backend kind``
    block; a ``tolerance`` line has no name and its number as the value."""

    block = next((b for b in sig.backend_blocks if b.kind == kind), None)
    if block is None:
        raise MissingBackendData(f"signature has no 'backend {kind}' block")
    for line_no, line in block.entries:
        word = line.split(None, 1)[0]
        if word not in words:
            raise InvalidBackendData(f"line {line_no}: {word!r} not valid in a {kind} block")
        rest = line[len(word):].strip()
        if word == "tolerance":
            yield word, "", rest, line_no
            continue
        if "=" not in rest:
            raise InvalidBackendData(f"line {line_no}: expected '{word} NAME = VALUE'")
        name, value = rest.split("=", 1)
        yield word, name.strip(), value.strip(), line_no


def matrix_instance(sig: Signature, tolerance: float | None = None) -> MatrixInstance:
    """Build the matrix backend from the signature's ``backend matrix`` block."""

    tables: dict[str, dict] = {"dim": {}, "mat": {}, "inv": {}}
    tol = 1e-9
    for word, name, value, line_no in _block_entries(sig, "matrix", (*tables, "tolerance")):
        if word == "tolerance":
            tol = float(value)
        else:
            tables[word][name] = int(value) if word == "dim" else \
                _parse_matrix(value, f"{word} {name} (line {line_no})")
    return MatrixInstance(sig, tables["dim"], tables["mat"], tables["inv"],
                          tol if tolerance is None else tolerance)


def rel_instance(sig: Signature) -> RelInstance:
    """Build the relation backend from the signature's ``backend rel`` block."""

    size: dict[str, int] = {}
    rel: dict[str, Rel] = {}
    for word, name, value, line_no in _block_entries(sig, "rel", ("size", "rel")):
        if word == "size":
            size[name] = int(value)
        elif not (value.startswith("{") and value.endswith("}")):
            raise InvalidBackendData(f"line {line_no}: relation literal must be {{(i,j),...}}")
        else:
            rel[name] = frozenset((int(a), int(b)) for a, b in _PAIR_RE.findall(value))
    return RelInstance(sig, size, rel)


# ---------------------------------------------------------------------------
# Coherence-condition checking
# ---------------------------------------------------------------------------


@record(frozen=True)
class ConditionResult:
    """One coherence condition checked on sampled objects: its worst deviation."""

    name: str
    passed: bool
    deviation: float


def _random_objects(rng: Random, names: tuple[str, ...], count: int,
                    dims: dict[str, int], cap: int) -> list[ObjExpr]:
    """Sample ``count`` objects whose flattened dimensions multiply to <= cap."""

    objs: list[ObjExpr] = []
    budget = cap
    for _ in range(count):
        choices: list[ObjExpr] = [UNIT] + [ObjGen(n) for n in names if dims[n] <= budget]
        obj = rng.choice(choices)
        if isinstance(obj, ObjGen) and rng.random() < 0.3:
            partner_choices = [n for n in names if dims[n] * dims[obj.name] <= budget]
            if partner_choices:
                other = ObjGen(rng.choice(partner_choices))
                obj = ObjTensor(obj, other) if rng.random() < 0.5 else ObjTensor(other, obj)
        objs.append(obj)
        budget = max(1, budget // dim_flat(obj, dims))
    return objs


def _composable_pairs(sig: Signature) -> list[tuple[MorGen, MorGen]]:
    return [
        (MorGen(f.name), MorGen(g.name))
        for f in sig.morphisms
        for g in sig.morphisms
        if f.cod == g.dom
    ]


def check_coherence(inst: MatrixInstance | RelInstance, sig: Signature,
                    rng: Random | None = None, rounds: int = 2) -> list[ConditionResult]:
    """Evaluate both sides of every coherence condition the signature's
    level calls for, on randomly sampled objects and generators.

    Returns one result per condition with the maximum deviation seen
    (always exactly 0.0 or a set-difference count for relations).
    Failures are reported, never raised.
    """

    rng = rng or Random(0)
    is_matrix = isinstance(inst, MatrixInstance)
    sizes = inst.dim if is_matrix else inst.size
    tol = inst.tolerance if is_matrix else 0.0

    def compare(t1: MorExpr, t2: MorExpr) -> float:
        if is_matrix:
            m1, m2 = eval_matrix(t1, inst), eval_matrix(t2, inst)
            if m1.shape != m2.shape:
                return float("inf")
            return float(np.max([*_block_deviations(m1, m2)], initial=0.0))
        r1, r2 = eval_rel(t1, inst), eval_rel(t2, inst)
        return float(len(r1 ^ r2))

    conditions: dict[str, list[tuple[MorExpr, MorExpr]]] = {}

    def add(name: str, t1: MorExpr, t2: MorExpr) -> None:
        conditions.setdefault(name, []).append((t1, t2))

    names = tuple(sig.objects)
    for _ in range(rounds):
        if sig.has_level("monoidal"):
            a, b = _random_objects(rng, names, 2, sizes, 16)
            add("triangle",
                Comp(Assoc(a, UNIT, b), Tensor(Id(a), LUnit(b))),
                Tensor(RUnit(a), Id(b)))
            a, b, c, d = _random_objects(rng, names, 4, sizes, 64)
            add("pentagon",
                Comp(Comp(Tensor(Assoc(a, b, c), Id(d)), Assoc(a, ObjTensor(b, c), d)),
                     Tensor(Id(a), Assoc(b, c, d))),
                Comp(Assoc(ObjTensor(a, b), c, d), Assoc(a, b, ObjTensor(c, d))))
        if sig.has_level("braided"):
            a, b, c = _random_objects(rng, names, 3, sizes, 32)
            add("hexagon_1",
                Comp(Comp(Assoc(a, b, c), Braid(a, ObjTensor(b, c))), Assoc(b, c, a)),
                Comp(Comp(Tensor(Braid(a, b), Id(c)), Assoc(b, a, c)),
                     Tensor(Id(b), Braid(a, c))))
            add("hexagon_2",
                Comp(Comp(AssocInv(a, b, c), Braid(ObjTensor(a, b), c)), AssocInv(c, a, b)),
                Comp(Comp(Tensor(Id(a), Braid(b, c)), AssocInv(a, c, b)),
                     Tensor(Braid(a, c), Id(b))))
        if sig.level == "symmetric":
            a, b = _random_objects(rng, names, 2, sizes, 16)
            add("symmetry",
                Comp(Braid(a, b), Braid(b, a)),
                Id(ObjTensor(a, b)))
    for decl in sig.morphisms:
        f = MorGen(decl.name)
        if sig.has_level("monoidal"):
            add("lunit_naturality",
                Comp(Tensor(Id(UNIT), f), LUnit(decl.cod)),
                Comp(LUnit(decl.dom), f))
            add("runit_naturality",
                Comp(Tensor(f, Id(UNIT)), RUnit(decl.cod)),
                Comp(RUnit(decl.dom), f))
        if decl.iso:
            add("iso_inverses",
                Comp(f, Inv(decl.name)), Id(decl.dom))
            add("iso_inverses",
                Comp(Inv(decl.name), f), Id(decl.cod))
    pairs = _composable_pairs(sig)
    if pairs and sig.has_level("monoidal"):
        for _ in range(rounds):
            f, g = rng.choice(pairs)
            h, t = rng.choice(pairs)
            add("interchange",
                Tensor(Comp(f, g), Comp(h, t)),
                Comp(Tensor(f, h), Tensor(g, t)))

    results = []
    for name, instances in conditions.items():
        worst = 0.0
        for t1, t2 in instances:
            worst = max(worst, compare(t1, t2))
        results.append(ConditionResult(name, worst <= tol, worst))
    return results
