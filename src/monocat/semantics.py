"""Concrete semantic backends: complex matrices and finite relations.

Both backends are ground-truth oracles for the symbolic layer.  Matrices
use the column-vector convention: a term with boundary ``dom -> cod``
evaluates to a matrix of shape ``dimflat(cod) x dimflat(dom)``, so
diagrammatic composition ``f ; g`` evaluates to ``mat(g) @ mat(f)``.
Tensoring is the Kronecker product and the braiding is the commutation
(perfect-shuffle) permutation matrix.  :func:`eval_matrix` never forms
``mat(g)``: it applies each box of ``g`` to the rows of ``mat(f)`` its
wires index, as DisCoPy contracts diagrams (arXiv:2005.02975), walking
the term and never its normal form, so the normalizer is checked by an
independent oracle.  Relations mirror the same flattening: elements of a
flattened object are indexed row-major, so a relation backend and a 0/1
matrix backend agree slot for slot.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from random import Random

import numpy as np

from .coherence import flatten_object
from .terms import (
    Assoc,
    AssocInv,
    Braid,
    BraidInv,
    CatError,
    Comp,
    Id,
    Inv,
    LUnit,
    LUnitInv,
    MorExpr,
    MorGen,
    ObjExpr,
    ObjGen,
    ObjTensor,
    RUnit,
    RUnitInv,
    Signature,
    Tensor,
    UNIT,
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


def mat_equiv(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Shapes equal and entrywise absolute difference at most ``tol``."""

    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return float(np.max(np.abs(a - b))) <= tol


@dataclass
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


def eval_matrix(term: MorExpr, inst: MatrixInstance) -> np.ndarray:
    """Evaluate a well-typed term to its matrix (cod x dom).

    ``ev`` builds a subterm's matrix on its own boundary.  ``apply(t, m, pre)``
    acts with ``t`` on the rows of ``m`` (row index over the current wires,
    top wire most significant) below wires of total dimension ``pre``, and
    also returns the total dimension of ``t``'s outputs.
    """

    ty = typecheck(term, inst.sig)
    dim = partial(dim_flat, dim=inst.dim)

    def size(t: MorExpr) -> int:
        # an identity, structural atom or braiding spans all its object fields
        return math.prod(dim(obj) for obj in vars(t).values())

    def gen(t: MorGen | Inv) -> np.ndarray:
        table = inst.mat if isinstance(t, MorGen) else inst.inv_mat
        if t.name not in table:
            kind = "matrix" if isinstance(t, MorGen) else "inverse matrix"
            raise MissingBackendData(f"no {kind} for {t.name!r}")
        return table[t.name]

    def ev(t: MorExpr) -> np.ndarray:
        if isinstance(t, Comp):
            return apply(t.second, ev(t.first), 1)[0]
        if isinstance(t, Tensor):
            return np.kron(ev(t.top), ev(t.bottom))
        if isinstance(t, (MorGen, Inv)):
            return gen(t)
        return apply(t, np.eye(size(t), dtype=complex), 1)[0]

    def apply(t: MorExpr, m: np.ndarray, pre: int) -> tuple[np.ndarray, int]:
        if isinstance(t, Comp):
            m, _ = apply(t.first, m, pre)
            return apply(t.second, m, pre)
        if isinstance(t, Tensor):
            m, top = apply(t.top, m, pre)
            m, bottom = apply(t.bottom, m, pre * top)
            return m, top * bottom
        cols = m.shape[1]
        if isinstance(t, (MorGen, Inv)):
            s = gen(t)
            return np.matmul(s, m.reshape(pre, s.shape[1], -1)).reshape(-1, cols), s.shape[0]
        if isinstance(t, (Braid, BraidInv)):  # swap two blocks of rows
            blocks = (dim(t.a), dim(t.b)) if isinstance(t, Braid) else (dim(t.b), dim(t.a))
            m = m.reshape(pre, *blocks, -1).transpose(0, 2, 1, 3)
            return m.reshape(-1, cols), blocks[0] * blocks[1]
        return m, size(t)  # identities, associators and unitors move no wire

    result = ev(term)
    assert result.shape == (dim(ty.cod), dim(ty.dom)), f"shape {result.shape} for {ty}"
    return result


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

Rel = frozenset  # of (source index, target index) pairs


@dataclass
class RelInstance:
    """Finite-relation semantics: carriers {0..size-1} per object generator."""

    sig: Signature
    size: dict[str, int]
    rel: dict[str, Rel]

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


def _diag(n: int) -> Rel:
    return frozenset((x, x) for x in range(n))


def eval_rel(term: MorExpr, inst: RelInstance) -> Rel:
    """Evaluate a well-typed term to its relation on flattened carriers."""

    sig = inst.sig
    typecheck(term, sig)

    def ev(t: MorExpr) -> tuple[Rel, int, int]:
        """Returns (pairs, source size, target size)."""

        if isinstance(t, MorGen):
            decl = sig.morphism(t.name)
            try:
                pairs = inst.rel[t.name]
            except KeyError:
                raise MissingBackendData(f"no relation for {t.name!r}") from None
            return pairs, dim_flat(decl.dom, inst.size), dim_flat(decl.cod, inst.size)
        if isinstance(t, Inv):
            decl = sig.morphism(t.name)
            pairs, src, tgt = ev(MorGen(t.name))
            if (src != tgt or len(pairs) != src
                    or len({x for x, _ in pairs}) != src
                    or len({y for _, y in pairs}) != src):
                raise NotBijective(f"relation for {t.name!r} is not a bijection")
            return frozenset((y, x) for x, y in pairs), tgt, src
        if isinstance(t, Id):
            n = dim_flat(t.obj, inst.size)
            return _diag(n), n, n
        if isinstance(t, (Assoc, AssocInv, LUnit, LUnitInv, RUnit, RUnitInv)):
            n = dim_flat(typecheck(t, sig).dom, inst.size)
            return _diag(n), n, n
        if isinstance(t, Braid):
            da, db = dim_flat(t.a, inst.size), dim_flat(t.b, inst.size)
            pairs = frozenset((i * db + j, j * da + i) for i in range(da) for j in range(db))
            return pairs, da * db, db * da
        if isinstance(t, BraidInv):
            da, db = dim_flat(t.a, inst.size), dim_flat(t.b, inst.size)
            pairs = frozenset((j * da + i, i * db + j) for i in range(da) for j in range(db))
            return pairs, db * da, da * db
        if isinstance(t, Comp):
            r1, src, mid = ev(t.first)
            r2, _, tgt = ev(t.second)
            by_mid: dict[int, list[int]] = {}
            for y, z in r2:
                by_mid.setdefault(y, []).append(z)
            pairs = frozenset((x, z) for x, y in r1 for z in by_mid.get(y, ()))
            return pairs, src, tgt
        if isinstance(t, Tensor):
            r1, s1, t1 = ev(t.top)
            r2, s2, t2 = ev(t.bottom)
            pairs = frozenset(
                (x1 * s2 + x2, y1 * t2 + y2) for x1, y1 in r1 for x2, y2 in r2)
            return pairs, s1 * s2, t1 * t2
        raise TypeError(f"cannot evaluate {t!r}")

    pairs, _, _ = ev(term)
    return pairs


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


def _split_assignment(line: str, keyword: str, line_no: int) -> tuple[str, str]:
    rest = line[len(keyword):].strip()
    if "=" not in rest:
        raise InvalidBackendData(f"line {line_no}: expected '{keyword} NAME = VALUE'")
    name, value = rest.split("=", 1)
    return name.strip(), value.strip()


def matrix_instance(sig: Signature, tolerance: float | None = None) -> MatrixInstance:
    """Build the matrix backend from the signature's ``backend matrix`` block."""

    block = next((b for b in sig.backend_blocks if b.kind == "matrix"), None)
    if block is None:
        raise MissingBackendData("signature has no 'backend matrix' block")
    dim: dict[str, int] = {}
    mat: dict[str, np.ndarray] = {}
    inv: dict[str, np.ndarray] = {}
    tol = 1e-9
    for line_no, line in block.entries:
        word = line.split(None, 1)[0]
        if word == "dim":
            name, value = _split_assignment(line, "dim", line_no)
            dim[name] = int(value)
        elif word == "mat":
            name, value = _split_assignment(line, "mat", line_no)
            mat[name] = _parse_matrix(value, f"mat {name} (line {line_no})")
        elif word == "inv":
            name, value = _split_assignment(line, "inv", line_no)
            inv[name] = _parse_matrix(value, f"inv {name} (line {line_no})")
        elif word == "tolerance":
            tol = float(line.split(None, 1)[1])
        else:
            raise InvalidBackendData(f"line {line_no}: {word!r} not valid in a matrix block")
    if tolerance is not None:
        tol = tolerance
    return MatrixInstance(sig, dim, mat, inv, tol)


def rel_instance(sig: Signature) -> RelInstance:
    """Build the relation backend from the signature's ``backend rel`` block."""

    block = next((b for b in sig.backend_blocks if b.kind == "rel"), None)
    if block is None:
        raise MissingBackendData("signature has no 'backend rel' block")
    size: dict[str, int] = {}
    rel: dict[str, Rel] = {}
    for line_no, line in block.entries:
        word = line.split(None, 1)[0]
        if word == "size":
            name, value = _split_assignment(line, "size", line_no)
            size[name] = int(value)
        elif word == "rel":
            name, value = _split_assignment(line, "rel", line_no)
            if not (value.startswith("{") and value.endswith("}")):
                raise InvalidBackendData(f"line {line_no}: relation literal must be {{(i,j),...}}")
            rel[name] = frozenset(
                (int(a), int(b)) for a, b in _PAIR_RE.findall(value))
        else:
            raise InvalidBackendData(f"line {line_no}: {word!r} not valid in a rel block")
    return RelInstance(sig, size, rel)


# ---------------------------------------------------------------------------
# Coherence-condition checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    deviation: float
    detail: str = ""


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
            return float(np.max(np.abs(m1 - m2))) if m1.size else 0.0
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
