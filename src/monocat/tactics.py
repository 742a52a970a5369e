"""Term-to-term transformations: foliation, partnering, rewriting modulo
associativity, isomorphism cancellation and the composite closer.

Every tactic preserves the boundary type of its input and its semantics
in every lawful backend.  Chain surgery (grouping, window replacement,
cancellation) rebuilds the affected composition chain right-associated;
chains that are merely traversed keep their shape.

Rewriting matches modulo associativity of composition only; tensor
associativity and the interchange law are out of scope here, so a
window never crosses a tensor boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parser import RewriteRule, print_expr
from .terms import (
    CatError,
    Comp,
    Id,
    Inv,
    MorExpr,
    MorGen,
    MorVar,
    NotInvertible,
    OBJECT_ATOMS,
    ObjExpr,
    ObjGen,
    ObjTensor,
    ObjVar,
    Signature,
    Tensor,
    Typer,
    TypeMismatch,
    Unit,
    comp_chain,
    iso_inverse,
    is_atom,
    node_fields,
    rebuild_chain,
    replace_chain_element,
    right_comp,
    tensor_leaves,
    typecheck,
)


class NotAdjacent(CatError):
    """``partner`` found no chain with the two terms adjacent in order."""


class NoMatch(CatError):
    """``assoc_rw`` found no window matching the rule's lhs chain."""


class InconsistentBinding(CatError):
    """Metavariable bindings conflict or leave the rhs incomplete."""


# ---------------------------------------------------------------------------
# Stacks and foliation
# ---------------------------------------------------------------------------


def is_stack(term: MorExpr, mode: str = "strong") -> bool:
    """Whether ``term`` is a stack.

    strong: a tensor tree of identities and atoms with at most one
    non-identity atom.  weak: a tensor tree with no composition
    anywhere inside (any number of non-identity atoms).
    """

    ls = tensor_leaves(term)
    if ls is None:
        return False
    if mode == "weak":
        return True
    if mode == "strong":
        return sum(1 for l in ls if not isinstance(l, Id)) <= 1
    raise ValueError(f"unknown stack mode {mode!r}")


def _foliate(term: MorExpr, sig: Signature, weak: bool) -> MorExpr:
    """The stacks of ``term`` composed right-associated (see :func:`foliate`).

    ``term``'s domain comes from :func:`typecheck`; every subterm's domain
    is the last boundary recorded before it, so only atoms are typed again.
    """

    atom_type = Typer(sig)

    def go(t: MorExpr, stacks: list[MorExpr], bounds: list[ObjExpr]) -> None:
        """Append ``t``'s stacks to ``stacks`` and the object after each to
        ``bounds``, whose last entry is ``t``'s domain."""

        if isinstance(t, Comp):
            go(t.first, stacks, bounds)
            go(t.second, stacks, bounds)
        elif isinstance(t, Tensor):
            xs, a = [], [bounds[-1].left]
            ys, b = [], [bounds[-1].right]
            go(t.top, xs, a)
            go(t.bottom, ys, b)
            m, n = len(xs), len(ys)
            if weak:
                pairs = [(xs[i], ys[i], i + 1, i + 1) for i in range(min(m, n))]
                pairs += [(xs[i], None, i + 1, n) for i in range(n, m)]
                pairs += [(None, ys[i], m, i + 1) for i in range(m, n)]
            else:
                pairs = []
                for i in range(1, max(m, n) + 1):
                    if i <= m:
                        pairs.append((xs[i - 1], None, i, min(i - 1, n)))
                    if i <= n:
                        pairs.append((None, ys[i - 1], min(i, m), i))
            for x, y, ia, ib in pairs:
                # a missing factor is the identity on the other side's boundary
                stacks.append(Tensor(x or Id(a[ia]), y or Id(b[ib])))
                bounds.append(ObjTensor(a[ia], b[ib]))
        elif not isinstance(t, Id):
            stacks.append(t)
            bounds.append(atom_type.atom(t)[1])

    stacks: list[MorExpr] = []
    dom = typecheck(term, sig).dom
    go(term, stacks, [dom])
    return right_comp(stacks, dom)


def foliate(term: MorExpr, sig: Signature) -> MorExpr:
    """Rewrite ``term`` as a right-associated composition of strong stacks.

    Tensors interleave the two factors' stacks round-robin starting with
    the top factor, padding each stack with the identity on the other
    factor's current boundary.  An empty stack list collapses to the
    identity on the domain.
    """

    return _foliate(term, sig, weak=False)


def weak_foliate(term: MorExpr, sig: Signature) -> MorExpr:
    """Like :func:`foliate` but tensors zip stacks pairwise, so stacks may
    hold several non-identity atoms while still containing no composition."""

    return _foliate(term, sig, weak=True)


# ---------------------------------------------------------------------------
# Chain search shared by partner and assoc_rw
# ---------------------------------------------------------------------------


def _rewrite_leftmost(term: MorExpr, attempt) -> MorExpr | None:
    """Apply ``attempt`` to the leftmost-outermost matching chain.

    ``attempt(elements)`` returns the new element list or ``None``.  The
    matched chain is rebuilt right-associated; enclosing structure keeps
    its shape.  Chains are searched outermost first, then inside each
    element's tensor factors, left to right (top before bottom).
    """

    chain = comp_chain(term)
    new = attempt(chain)
    if new is not None:
        return right_comp(new, None)  # window surgery always leaves an element
    for idx, el in enumerate(chain):
        replacement = _rewrite_in_element(el, attempt)
        if replacement is not None:
            return replace_chain_element(term, idx, replacement)
    return None


def _rewrite_in_element(el: MorExpr, attempt) -> MorExpr | None:
    if isinstance(el, Tensor):
        top = _rewrite_leftmost(el.top, attempt)
        if top is not None:
            return Tensor(top, el.bottom)
        bottom = _rewrite_leftmost(el.bottom, attempt)
        if bottom is not None:
            return Tensor(el.top, bottom)
    return None


def partner(term: MorExpr, p: MorExpr, q: MorExpr, sig: Signature) -> MorExpr:
    """Reassociate so that ``p ; q`` appears as one grouped element.

    Searches maximal composition chains (recursing under tensors); in
    the leftmost chain with adjacent elements equal to ``p`` then ``q``,
    groups them and rebuilds that chain right-associated.
    """

    typecheck(term, sig)
    typecheck(p, sig)
    typecheck(q, sig)

    def attempt(chain: list[MorExpr]) -> list[MorExpr] | None:
        for i in range(len(chain) - 1):
            if chain[i] == p and chain[i + 1] == q:
                return chain[:i] + [Comp(p, q)] + chain[i + 2:]
        return None

    result = _rewrite_leftmost(term, attempt)
    if result is None:
        raise NotAdjacent(
            f"no chain contains {print_expr(p)} immediately followed by {print_expr(q)}")
    return result


# ---------------------------------------------------------------------------
# Pattern matching for assoc_rw
# ---------------------------------------------------------------------------


@dataclass
class _Bindings:
    mor: dict[str, MorExpr]
    obj: dict[str, ObjExpr]

    def copy(self) -> "_Bindings":
        return _Bindings(dict(self.mor), dict(self.obj))


def _match_obj(pattern: ObjExpr, obj: ObjExpr, b: _Bindings) -> bool:
    if isinstance(pattern, ObjVar):
        if pattern.name in b.obj:
            return b.obj[pattern.name] == obj
        b.obj[pattern.name] = obj
        return True
    if isinstance(pattern, Unit):
        return isinstance(obj, Unit)
    if isinstance(pattern, ObjGen):
        return isinstance(obj, ObjGen) and pattern.name == obj.name
    if isinstance(pattern, ObjTensor):
        return (isinstance(obj, ObjTensor)
                and _match_obj(pattern.left, obj.left, b)
                and _match_obj(pattern.right, obj.right, b))
    return False


def _match_element(pattern: MorExpr, el: MorExpr, b: _Bindings,
                   metavar_types, sig: Signature) -> bool:
    if isinstance(pattern, MorVar):
        declared = metavar_types.get(pattern.name)
        if declared is not None:
            ty = typecheck(el, sig)
            if not (_match_obj(declared.dom, ty.dom, b) and _match_obj(declared.cod, ty.cod, b)):
                return False
        if pattern.name in b.mor:
            return b.mor[pattern.name] == el
        b.mor[pattern.name] = el
        return True
    if isinstance(pattern, MorGen):
        return isinstance(el, MorGen) and pattern.name == el.name
    if isinstance(pattern, Inv):
        return isinstance(el, Inv) and pattern.name == el.name
    if isinstance(pattern, OBJECT_ATOMS):
        return type(el) is type(pattern) and all(
            _match_obj(p, o, b) for p, o in zip(node_fields(pattern), node_fields(el)))
    if isinstance(pattern, Tensor):
        return (isinstance(el, Tensor)
                and _match_element(pattern.top, el.top, b, metavar_types, sig)
                and _match_element(pattern.bottom, el.bottom, b, metavar_types, sig))
    return False


def _instantiate_obj(pattern: ObjExpr, b: _Bindings) -> ObjExpr:
    if isinstance(pattern, ObjVar):
        if pattern.name not in b.obj:
            raise InconsistentBinding(f"object metavariable ?{pattern.name} left unbound")
        return b.obj[pattern.name]
    if isinstance(pattern, ObjTensor):
        return ObjTensor(_instantiate_obj(pattern.left, b), _instantiate_obj(pattern.right, b))
    return pattern


def _instantiate(pattern: MorExpr, b: _Bindings) -> MorExpr:
    if isinstance(pattern, MorVar):
        if pattern.name not in b.mor:
            raise InconsistentBinding(f"metavariable ?{pattern.name} left unbound")
        return b.mor[pattern.name]
    if isinstance(pattern, Comp):
        return Comp(_instantiate(pattern.first, b), _instantiate(pattern.second, b))
    if isinstance(pattern, Tensor):
        return Tensor(_instantiate(pattern.top, b), _instantiate(pattern.bottom, b))
    if isinstance(pattern, OBJECT_ATOMS):
        return type(pattern)(*(_instantiate_obj(o, b) for o in node_fields(pattern)))
    return pattern


def assoc_rw(term: MorExpr, rule: RewriteRule, sig: Signature) -> MorExpr:
    """Rewrite the leftmost chain window matching ``rule``'s lhs.

    Composition chains are searched outermost first, recursing into
    tensor factors; the first contiguous window whose elements unify
    with the lhs chain (concrete atoms syntactically, metavariables
    binding one element each, bindings consistent) is replaced by the
    instantiated rhs and the chain is rebuilt right-associated.
    """

    typecheck(term, sig)
    lhs_chain = rule.lhs_chain
    metavar_types = rule.metavar_types()
    k = len(lhs_chain)

    def attempt(chain: list[MorExpr]) -> list[MorExpr] | None:
        for start in range(len(chain) - k + 1):
            b = _Bindings({}, {})
            if all(_match_element(lhs_chain[j], chain[start + j], b, metavar_types, sig)
                   for j in range(k)):
                replacement = _instantiate(rule.rhs, b)
                return chain[:start] + [replacement] + chain[start + k:]
        return None

    result = _rewrite_leftmost(term, attempt)
    if result is None:
        raise NoMatch(f"rule {rule.name!r} matches nothing in {print_expr(term)}")
    return result


# ---------------------------------------------------------------------------
# Cancellation and simplification
# ---------------------------------------------------------------------------


def _inverse_pair(s: MorExpr, s2: MorExpr, sig: Signature) -> bool:
    if not (is_atom(s) and is_atom(s2)):
        return False
    try:
        return s2 in iso_inverse(s, sig)
    except NotInvertible:
        return False


def cancel_isos(term: MorExpr, sig: Signature) -> MorExpr:
    """Delete adjacent inverse pairs in every composition chain, to fixpoint.

    A chain that empties becomes the identity on its domain.  Chains in
    which something was deleted are rebuilt right-associated; untouched
    chains keep their shape, and a subterm in which nothing changed is
    returned as it is.  Recurses under tensors.
    """

    typecheck(term, sig)

    def go(t: MorExpr) -> MorExpr:
        if isinstance(t, Tensor):
            top, bottom = go(t.top), go(t.bottom)
            return t if top is t.top and bottom is t.bottom else Tensor(top, bottom)
        if not isinstance(t, Comp):
            return t
        chain = [go(el) for el in comp_chain(t)]
        kept: list[MorExpr] = []
        for el in chain:
            if kept and _inverse_pair(kept[-1], el, sig):
                kept.pop()
            else:
                kept.append(el)
        if len(kept) == len(chain):
            return rebuild_chain(t, chain)
        return right_comp(kept, None) if kept else Id(typecheck(t, sig).dom)

    return go(term)


def _remove_ids(term: MorExpr) -> MorExpr:
    if isinstance(term, Comp):
        first = _remove_ids(term.first)
        second = _remove_ids(term.second)
        if isinstance(first, Id):
            return second
        if isinstance(second, Id):
            return first
        return term if first is term.first and second is term.second else Comp(first, second)
    if isinstance(term, Tensor):
        top = _remove_ids(term.top)
        bottom = _remove_ids(term.bottom)
        if isinstance(top, Id) and isinstance(bottom, Id):
            return Id(ObjTensor(top.obj, bottom.obj))
        return term if top is term.top and bottom is term.bottom else Tensor(top, bottom)
    return term


def cat_simpl(term: MorExpr, sig: Signature) -> MorExpr:
    """Cancel adjacent inverses and strip identities, to a joint fixpoint.

    Identity removal can expose new adjacent inverse pairs (and vice
    versa), so the two passes alternate until the term stops changing;
    this is what makes the tactic idempotent.
    """

    current = term
    while True:
        step = _remove_ids(cancel_isos(current, sig))
        if step == current:
            return step
        current = step


def right_associate(term: MorExpr) -> MorExpr:
    """Rebuild every composition chain right-associated, everywhere."""

    if isinstance(term, Comp):
        return right_comp([right_associate(el) for el in comp_chain(term)], None)
    if isinstance(term, Tensor):
        return Tensor(right_associate(term.top), right_associate(term.bottom))
    return term


@dataclass(frozen=True)
class TraceStep:
    tactic: str
    term: str


@dataclass(frozen=True)
class Proved:
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class NotProved:
    trace: tuple[TraceStep, ...]


def cat_easy(t1: MorExpr, t2: MorExpr, sig: Signature) -> Proved | NotProved:
    """Close a structural goal: simplify, right-associate and weakly
    foliate both sides, then compare syntactically."""

    ty1 = typecheck(t1, sig)
    ty2 = typecheck(t2, sig)
    if ty1 != ty2:
        raise TypeMismatch("cat_easy goals must share a boundary type")

    trace: list[TraceStep] = []

    def pipeline(t: MorExpr, side: str) -> MorExpr:
        for name, fn in (
            ("cat_simpl", lambda x: cat_simpl(x, sig)),
            ("right_associate", right_associate),
            ("weak_foliate", lambda x: weak_foliate(x, sig)),
        ):
            t = fn(t)
            trace.append(TraceStep(f"{name}({side})", print_expr(t)))
        return t

    left = pipeline(t1, "lhs")
    right = pipeline(t2, "rhs")
    steps = tuple(trace)
    return Proved(steps) if left == right else NotProved(steps)
