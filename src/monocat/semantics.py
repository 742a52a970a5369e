"""Concrete semantic backends: complex matrices and finite relations.

Both backends are ground-truth oracles for the symbolic layer.  Matrices
use the column-vector convention: a term ``dom -> cod`` evaluates to a
``dimflat(cod) x dimflat(dom)`` matrix, so ``f ; g`` is ``mat(g) @ mat(f)``.
Relations are sets of (source, target) pairs of elements indexed row-major
over the flattened object, so a relation is the support of its 0/1 matrix:
both backends share one evaluator, the relation one on ``bool`` matrices,
whose products never count paths.  It imports no ``coherence`` and walks
no normal form, so it checks the normalizer independently.  It applies
locally, as DisCoPy contracts diagrams (arXiv:2005.02975): a tensor is a
Kronecker product, and ``f ; g`` applies each box of ``g`` at its wire
offset to the value of ``f``.  By the mixed-product property (Van Loan,
2000) a value stays a list of Kronecker factors, dense or identity, each
with its row count and column axes: a box is one batched ``matmul`` on the
merge of only the factors its rows fall in, and a braiding of two whole
runs of factors only reorders them, P (X (x) Y) = (Y (x) X) Q, with Q kept
in their column axes (one that cuts a dense factor transposes its rows).
Identities, associators and unitors move no wire and cost nothing.  A
matrix is written once, at the end, into zeros through one strided view,
and ``mat_equiv`` compares two in row blocks small enough to need no large
temporary.  A relation is listed from its factors as the int64 keys
``source * cod + target`` of their entries, one outer sum per factor, with
no ``dom x cod`` matrix formed.  ``eval_rel`` returns a :class:`Rel` over
the sorted keys: ``==`` of two is one array compare, iteration is in sorted
pair order, and every other set operation builds a frozenset of the pairs
on first use.
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Set
from dataclasses import field
from functools import partial
from random import Random

import numpy as np

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
    flatten_object,
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

    Column index i*n+j (i < m, j < n) maps to row index j*m+i: the m*n
    ones are scattered into zeros, so nothing but the result is allocated.
    """

    out = np.zeros((n * m, m * n), dtype=complex)
    i, j = np.divmod(np.arange(m * n), n)
    out[j * m + i, i * n + j] = 1
    return out


_EQUIV_BLOCK = 1 << 12  # entries per row block compared by mat_equiv


def _largest_abs(d: np.ndarray) -> float:
    """The largest absolute entry of ``d`` (NaN if any is).  Most blocks of two
    equal sides differ by exact zeros, so ``abs`` is skipped when none is
    nonzero; a NaN is, and so is an infinity minus itself.  A function, not
    a line of the generator, so each block's ``d`` is freed before the next."""

    return np.max(np.abs(d)) if d.any() else 0.0


def _block_deviations(a: np.ndarray, b: np.ndarray):
    """The largest entrywise absolute difference (NaN if any is) of each row
    block of equal-shaped ``a`` and ``b``, lazily; none when they are empty."""

    if a.size:
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        step = max(1, _EQUIV_BLOCK * len(a) // a.size)
        for i in range(0, len(a), step):
            yield _largest_abs(a[i:i + step] - b[i:i + step])


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
        _tolerance(self.tolerance)
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


def _evaluate(term: MorExpr, sig: Signature, dims: dict[str, int], gen):
    """Evaluate ``term`` by local application to a list of Kronecker factors;
    returns it and the term's type.  ``gen(t)`` gives the one factor of a
    generator or inverse: a complex matrix, or a relation's 0/1 ``bool``
    matrix, whose products stay ``bool`` and so never count paths.

    ``ev`` builds a subterm's value on its own boundary.  ``apply(t, v, pre)``
    acts with ``t`` on the rows of ``v`` (top wire most significant) below
    rows of total size ``pre``, and returns ``t``'s total output size too.
    Both walk the term on an explicit stack, so neither depth nor width
    recurses: ``ev`` joins a tensor's factor lists and hands a chain's first
    value to its other elements; ``apply`` acts with a tensor's bottom below
    its top's output size, with a box through ``_act`` and a braiding
    through ``_swap``.
    """

    ty = typecheck(term, sig)
    dim = partial(dim_flat, dim=dims)

    def size(t: MorExpr) -> int:
        # an identity, structural atom or braiding spans all its object fields
        return math.prod(dim(obj) for obj in node_fields(t))

    def ev(t: MorExpr) -> list:
        values = []  # valued subterms, each popped by the step that takes it over
        todo = [("value", t)]
        while todo:
            step, t = todo.pop()
            if step == "kron":  # both factors of a tensor are valued
                bottom = values.pop()
                values.append(values.pop() + bottom)
            elif step == "chain":  # a chain's first element is valued: apply the rest
                for el in t:
                    values.append(apply(el, values.pop(), 1)[0])
            elif isinstance(t, Comp):
                first, *rest = comp_chain(t)
                todo += (("chain", rest), ("value", first))
            elif isinstance(t, Tensor):
                todo += (("kron", None), ("value", t.bottom), ("value", t.top))
            elif isinstance(t, (MorGen, Inv)):
                values.append([gen(t)])
            else:
                n = size(t)
                values.append(apply(t, [(n, n, None, ((n, 1, 1),))] if n > 1 else [], 1)[0])
        return values.pop()

    def apply(t: MorExpr, v: list, pre: int) -> tuple[list, int]:
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
                out, k, s, _ = gen(t)
                v = _act(v, n, k, lambda m, p: s if m is None else np.matmul(
                    s, m.reshape(p, k, -1)).reshape(-1, m.shape[1]))
            elif (halves := STRUCTURAL[t.__class__][5]) is not None:
                a, b = map(dim, halves(*node_fields(t)))
                v, out = _swap(v, n, a, b), a * b
            else:
                out = size(t)  # identities, associators and unitors move no wire
        return v, out

    return ev(term), ty


# A value is a list of Kronecker factors (rows, cols, mat, axes): ``mat`` is
# dense, or None for the rows x rows identity, and each column axis
# (size, num, den) is a digit of the domain's column index whose stride is
# num / den times the columns of the factors after it.  So a tensor joins two
# lists unchanged, and a braiding may reorder one.


def _factor(m: np.ndarray) -> tuple:
    """A generator's cod x dom matrix as one factor, its columns one axis."""

    return (*m.shape, m, ((m.shape[1], 1, 1),) if m.shape[1] > 1 else ())


def _write(run: list, rows: int, cols: int, dtype) -> np.ndarray:
    """The rows x cols Kronecker product of the factor ``run``, written once
    into zeros of ``dtype``: the outer product of the dense factors (1 x 1
    ones folded in as a scalar) is assigned to one strided view of the
    result, which takes each dense factor's row and column axes and one
    diagonal axis (row plus column stride) per identity."""

    def push(dims: list, size: int, stride: int) -> None:  # joins an axis it continues
        if size > 1 and dims and dims[-1][1] == size * stride:
            dims[-1] = (dims[-1][0] * size, stride)
        elif size > 1:
            dims.append((size, stride))

    out = np.zeros((rows, cols), dtype=dtype)
    diag, dims, dense, scalar = [], [], [], 1  # (size, byte stride) axes
    r = c = cols * out.itemsize  # the row and column strides of the factors after this one
    r *= rows
    for n, k, m, axes in run:
        r, c = r // n, c // k
        if m is None:
            push(diag, n, r + axes[0][1] * c // axes[0][2])
        elif m.size == 1:
            scalar *= m[0, 0]
        else:
            push(dims, n, r)
            for size, num, den in axes:
                push(dims, size, num * c // den)
            dense.append(m)
    value = scalar
    if dense:
        value = dense[0] * scalar if scalar != 1 else dense[0]
        for m in dense[1:]:
            value = np.multiply.outer(value, m).ravel()
        value = value.reshape([size for size, _ in dims])
    shape, strides = zip(*diag, *dims) if diag or dims else ((), ())
    np.ndarray(shape, out.dtype, out, 0, strides)[...] = value
    return out


def _cut(v: list, i: int, n: int) -> tuple[int, int]:
    """Pass the factors from ``v[i]`` on while their rows divide ``n``, and
    split in place an identity the cut falls in; returns the index reached and
    the rows still wanted, over 1 only if the cut falls in the dense ``v[i]``."""

    while n > 1:
        rows, _, m, axes = v[i]
        if n % rows == 0:
            n, i = n // rows, i + 1
        elif m is None:  # both parts keep its stride ratio
            v[i:i + 1] = [(p, p, None, ((p, *axes[0][1:]),)) for p in (n, rows // n)]
            return i + 1, 1
        else:
            break
    return i, n


def _act(v: list, pre: int, k: int, op) -> list:
    """The factor list ``v`` acted on at rows ``pre / k / post``: ``op(m, n)``
    acts on the middle block of the rows of ``m`` split as ``n / k / rest``,
    where ``m`` merges the fewest factors holding those rows, or is None for
    one identity of k rows.  Rows are read only as far as the block."""

    i, pre = _cut(v, 0, pre)
    j, post = _cut(v, i, pre * k)
    run = v[i:j + (post > 1)]
    _, cols, m, axes = run[0] if len(run) == 1 else _merge(run)
    m = op(m, pre)
    v[i:i + len(run)] = [(len(m), cols, m, axes)]
    return v


def _merge(run: list) -> tuple:
    """The factor ``run`` as one dense factor, in its factors' dtype (so a
    relation's stays ``bool``); boxes multiply on the left, so it keeps every
    column axis of the run."""

    rows, cols = math.prod(f[0] for f in run), math.prod(f[1] for f in run)
    axes, after = [], cols
    for _, c, _, f_axes in run:
        after //= c
        axes += [(size, num * after, den) for size, num, den in f_axes]
    m = _write([(n, c, f, ((c, 1, 1),)) for n, c, f, _ in run], rows, cols,
               np.result_type(bool, *{f[2].dtype for f in run if f[2] is not None}))
    return rows, cols, m, tuple(axes)


def _swap(v: list, pre: int, a: int, b: int) -> list:
    """Swap the target blocks ``a`` and ``b`` below rows ``pre``.  If they are
    runs of whole factors X and Y, P (X (x) Y) = (Y (x) X) Q only reorders the
    list, Q going into the moved axes' stride ratios; else it acts densely."""

    i, n = _cut(v, 0, pre)
    h, n = _cut(v, i, a) if n == 1 else (i, n)
    j, n = _cut(v, h, b) if n == 1 else (h, n)
    if n > 1:
        return _act(v, pre, a * b, lambda m, n: m.reshape(n, a, b, -1).transpose(
            0, 2, 1, 3).reshape(-1, m.shape[1]))

    def scaled(run: list, p: int, q: int) -> list:  # each stride ratio times p / q, reduced
        return [(n, c, m, tuple((size, num * p // g, den * q // g) for size, num, den in axes
                                for g in [math.gcd(num * p, den * q)])) for n, c, m, axes in run]

    x, y = v[i:h], v[h:j]
    v[i:j] = scaled(y, 1, math.prod(f[1] for f in x)) + scaled(x, math.prod(f[1] for f in y), 1)
    return v


def eval_matrix(term: MorExpr, inst: MatrixInstance) -> np.ndarray:
    """Evaluate a well-typed term to its matrix (cod x dom): its value is a
    list of Kronecker factors that boxes act on and braidings reorder,
    written into one complex matrix at the end."""

    def gen(t: MorGen | Inv) -> tuple:
        table = inst.mat if isinstance(t, MorGen) else inst.inv_mat
        if t.name not in table:
            kind = "matrix" if isinstance(t, MorGen) else "inverse matrix"
            raise MissingBackendData(f"no {kind} for {t.name!r}")
        return _factor(table[t.name])

    factors, ty = _evaluate(term, inst.sig, inst.dim, gen)
    return _write(factors, dim_flat(ty.cod, inst.dim), dim_flat(ty.dom, inst.dim), complex)


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

class Rel(Set):
    """An immutable set of (source, target) index pairs, held as the sorted
    int64 keys ``source * cod + target``.  Sorted keys are the pairs in
    lexicographic order for any ``cod``, so ``==`` of two is one array
    compare (of the keys, or of their digits when the ``cod`` differ), and
    iteration yields the pairs sorted.  Every other use (``in``,
    ``hash``, ``<=``, ``==`` against another set, and ``^ | & -``, which give
    frozensets) goes through one frozenset of the pairs, built on first use."""

    __slots__ = ("keys", "cod", "_set")

    def __init__(self, keys: np.ndarray, cod: int):
        keys.flags.writeable = False  # the hash and the frozenset must stay true
        self.keys, self.cod, self._set = keys, cod, None

    def __reduce__(self):  # the frozenset is rebuilt on demand, never pickled
        return Rel, (self.keys, self.cod)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        src, tgt = np.divmod(self.keys, self.cod)
        return zip(src.tolist(), tgt.tolist())

    def __repr__(self) -> str:
        return f"Rel({list(self)})"

    def _frozen(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self)
        return self._set

    def __eq__(self, other):
        if other.__class__ is not Rel:
            return self._frozen().__eq__(other)
        if self.cod == other.cod:
            return np.array_equal(self.keys, other.keys)
        return all(map(np.array_equal, np.divmod(self.keys, self.cod),
                       np.divmod(other.keys, other.cod)))

    def __contains__(self, pair) -> bool:
        return pair in self._frozen()

    def __hash__(self) -> int:
        return hash(self._frozen())

    def __le__(self, other):
        return self._frozen().__le__(other)

    _from_iterable = frozenset


@record
class RelInstance:
    """Finite-relation semantics: carriers {0..size-1} per object generator."""

    sig: Signature
    size: dict[str, int]
    rel: dict[str, frozenset]
    # generator or inverse -> (the pair set its factor was built from, the factor,
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

    def _generator(self, t: MorGen | Inv) -> tuple:
        """The factor of a generator or an iso's inverse: its cod x dom 0/1
        ``bool`` matrix, or the transpose for an inverse; built once per
        relation."""

        try:
            pairs = self.rel[t.name]
        except KeyError:
            raise MissingBackendData(f"no relation for {t.name!r}") from None
        if self._built.get(t, (None,))[0] is not pairs:
            decl = self.sig.morphism(t.name)
            m = np.zeros((dim_flat(decl.cod, self.size), dim_flat(decl.dom, self.size)), bool)
            src, tgt = np.array([*pairs], dtype=np.int64).reshape(-1, 2).T
            m[tgt, src] = True
            if isinstance(t, Inv):  # a bijection has one pair in each row and column
                m = m.T.copy() if (m.sum(0) == 1).all() and (m.sum(1) == 1).all() else None
            self._built[t] = (pairs, None if m is None else _factor(m))
        if self._built[t][1] is None:
            raise NotBijective(f"relation for {t.name!r} is not a bijection")
        return self._built[t][1]


def _rel_keys(term: MorExpr, inst: RelInstance) -> tuple[np.ndarray, int, int]:
    """The int64 keys ``src * cod + tgt`` of the term's pairs, unsorted, and
    its ``dom`` and ``cod``.  Each factor of its value adds the row and column
    offsets of its entries, at the strides ``_write`` takes, through an outer
    sum, so no dom x cod matrix is formed; a relation on 2^63 elements or
    more is refused, as its keys could overflow."""

    factors, ty = _evaluate(term, inst.sig, inst.size, inst._generator)
    cod, dom = dim_flat(ty.cod, inst.size), dim_flat(ty.dom, inst.size)
    if dom * cod >= 1 << 63:
        raise CatError(f"a relation on {dom} x {cod} elements is too large to index")
    keys, r, c = np.zeros(1, dtype=np.int64), cod, dom  # r, c: rows and columns from a factor on
    for n, k, m, axes in factors:
        r, c = r // n, c // k
        col = np.zeros(1, dtype=np.int64)  # the source offset of each of the factor's columns
        for size, num, den in axes:
            col = np.add.outer(col, np.arange(size) * (num * c // den)).ravel()
        if m is None:
            offsets = np.arange(n) * r + col * cod
        else:
            i, j = np.nonzero(m)
            offsets = i * r + col[j] * cod
        keys = np.add.outer(keys, offsets).ravel()
    return keys, dom, cod


def eval_rel(term: MorExpr, inst: RelInstance) -> Rel:
    """Evaluate a well-typed term to its relation on flattened carriers."""

    keys, _, cod = _rel_keys(term, inst)
    return Rel(np.sort(keys), cod)


def rel_difference(t1: MorExpr, t2: MorExpr, inst: RelInstance) -> list[tuple[int, int]]:
    """The sorted pairs in exactly one of the two terms' relations, found
    from their int64 keys; no ``Rel`` is built."""

    (a, dom, cod), (b, *other) = _rel_keys(t1, inst), _rel_keys(t2, inst)
    if [dom, cod] != other:
        raise CatError(f"relations on {dom} x {cod} and {other[0]} x {other[1]} elements")
    src, tgt = np.divmod(np.setxor1d(a, b, assume_unique=True), cod)
    return list(zip(src.tolist(), tgt.tolist()))


# ---------------------------------------------------------------------------
# Backend payload parsing (signature file blocks)
# ---------------------------------------------------------------------------

_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def _parse_complex(text: str, where: str) -> complex:
    try:  # a NaN or infinite entry would make a term unequal to itself
        value = complex(text.strip().replace(" ", "").replace("i", "j"))
        if cmath.isfinite(value):
            return value
    except ValueError:
        pass
    raise InvalidBackendData(f"bad complex number {text.strip()!r} in {where}")


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


def _tolerance(tol: float, where: str = "") -> float:
    if not 0.0 <= tol < float("inf"):  # a NaN fails every comparison
        raise InvalidBackendData(f"{where}tolerance must be finite and at least 0, not {tol}")
    return tol


def _number(read, text: str, line_no: int, what: str):
    try:
        return read(text)
    except ValueError:
        kind = "an integer" if read is int else "a number"
        raise InvalidBackendData(f"line {line_no}: {what} must be {kind}, not {text!r}") from None


def _block_entries(sig: Signature, kind: str, words: tuple[str, ...]):
    """(word, name, value, line number) per line of the ``backend kind``
    block; a ``tolerance`` line has no name and its number as the value.
    A word repeated for one name, or a second ``tolerance``, is an error."""

    block = next((b for b in sig.backend_blocks if b.kind == kind), None)
    if block is None:
        raise MissingBackendData(f"signature has no 'backend {kind}' block")
    seen = set()
    for line_no, line in block.entries:
        word = line.split(None, 1)[0]
        if word not in words:
            raise InvalidBackendData(f"line {line_no}: {word!r} not valid in a {kind} block")
        name, value = "", line[len(word):].strip()
        if word != "tolerance":
            if "=" not in value:
                raise InvalidBackendData(f"line {line_no}: expected '{word} NAME = VALUE'")
            name, value = (part.strip() for part in value.split("=", 1))
        if (word, name) in seen:
            what = f"{word} {name!r}" if name else word
            raise InvalidBackendData(f"line {line_no}: {what} declared more than once")
        seen.add((word, name))
        yield word, name, value, line_no


def matrix_instance(sig: Signature, tolerance: float | None = None) -> MatrixInstance:
    """Build the matrix backend from the signature's ``backend matrix`` block."""

    tables: dict[str, dict] = {"dim": {}, "mat": {}, "inv": {}}
    tol = 1e-9
    for word, name, value, line_no in _block_entries(sig, "matrix", (*tables, "tolerance")):
        if word == "tolerance":
            tol = _tolerance(_number(float, value, line_no, word), f"line {line_no}: ")
        else:
            tables[word][name] = _number(int, value, line_no, f"dim {name}") if word == "dim" \
                else _parse_matrix(value, f"{word} {name} (line {line_no})")
    return MatrixInstance(sig, tables["dim"], tables["mat"], tables["inv"],
                          tol if tolerance is None else tolerance)


def rel_instance(sig: Signature) -> RelInstance:
    """Build the relation backend from the signature's ``backend rel`` block."""

    size: dict[str, int] = {}
    rel: dict[str, frozenset] = {}
    for word, name, value, line_no in _block_entries(sig, "rel", ("size", "rel")):
        if word == "size":
            size[name] = _number(int, value, line_no, f"size {name}")
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
        return float(len(rel_difference(t1, t2, inst)))

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
    pairs = [(MorGen(f.name), MorGen(g.name)) for f in sig.morphisms for g in sig.morphisms
             if f.cod == g.dom]
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
