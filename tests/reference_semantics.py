"""Dense reference evaluators for the matrix and relation backends.

Every ``f * g`` is a Kronecker product and every ``f ; g`` a full matrix
product, so a term on wires of total dimension ``dim`` costs O(dim^3).
The relation evaluator builds the full diagonal of every identity and
structural atom, joins composites through a dict and forms all
|r1|·|r2| pairs of each tensor.  Both are kept only as independent
oracles for ``monocat.semantics.eval_matrix`` and ``eval_rel``.
"""

from __future__ import annotations

import math

import numpy as np

from monocat.semantics import (
    MatrixInstance,
    MissingBackendData,
    NotBijective,
    RelInstance,
    braid_matrix,
    dim_flat,
)
from monocat.terms import (
    Assoc,
    AssocInv,
    Braid,
    BraidInv,
    Comp,
    Id,
    Inv,
    LUnit,
    LUnitInv,
    MorExpr,
    MorGen,
    RUnit,
    RUnitInv,
    Tensor,
    typecheck,
)


def dense_eval_matrix(term: MorExpr, inst: MatrixInstance) -> np.ndarray:
    """Evaluate a well-typed term to its matrix (cod x dom)."""

    sig = inst.sig
    ty = typecheck(term, sig)

    def ev(t: MorExpr) -> np.ndarray:
        if isinstance(t, MorGen):
            try:
                return inst.mat[t.name]
            except KeyError:
                raise MissingBackendData(f"no matrix for {t.name!r}") from None
        if isinstance(t, Inv):
            try:
                return inst.inv_mat[t.name]
            except KeyError:
                raise MissingBackendData(f"no inverse matrix for {t.name!r}") from None
        if isinstance(t, Id):
            return np.eye(dim_flat(t.obj, inst.dim), dtype=complex)
        if isinstance(t, (Assoc, AssocInv, LUnit, LUnitInv, RUnit, RUnitInv)):
            return np.eye(dim_flat(typecheck(t, sig).dom, inst.dim), dtype=complex)
        if isinstance(t, Braid):
            return braid_matrix(dim_flat(t.a, inst.dim), dim_flat(t.b, inst.dim))
        if isinstance(t, BraidInv):
            return braid_matrix(dim_flat(t.b, inst.dim), dim_flat(t.a, inst.dim))
        if isinstance(t, Comp):
            return ev(t.second) @ ev(t.first)
        if isinstance(t, Tensor):
            return np.kron(ev(t.top), ev(t.bottom))
        raise TypeError(f"cannot evaluate {t!r}")

    result = ev(term)
    expected = (dim_flat(ty.cod, inst.dim), dim_flat(ty.dom, inst.dim))
    assert result.shape == expected, f"shape {result.shape} != {expected}"
    return result


def _diag(n: int) -> frozenset:
    return frozenset((x, x) for x in range(n))


def reference_eval_rel(term: MorExpr, inst: RelInstance) -> frozenset:
    """Evaluate a well-typed term to its relation on flattened carriers."""

    sig = inst.sig
    typecheck(term, sig)

    def ev(t: MorExpr) -> tuple[frozenset, int, int]:
        """Returns (pairs, source size, target size)."""

        if isinstance(t, MorGen):
            decl = sig.morphism(t.name)
            try:
                pairs = inst.rel[t.name]
            except KeyError:
                raise MissingBackendData(f"no relation for {t.name!r}") from None
            return pairs, dim_flat(decl.dom, inst.size), dim_flat(decl.cod, inst.size)
        if isinstance(t, Inv):
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
            n = math.prod(dim_flat(o, inst.size) for o in vars(t).values())
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
