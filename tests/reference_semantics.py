"""Dense reference evaluator for the matrix backend.

Every ``f * g`` is a Kronecker product and every ``f ; g`` a full matrix
product, so a term on wires of total dimension ``dim`` costs O(dim^3).
It is kept only as an independent oracle for ``monocat.semantics.eval_matrix``.
"""

from __future__ import annotations

import numpy as np

from monocat.semantics import MatrixInstance, MissingBackendData, braid_matrix, dim_flat
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
