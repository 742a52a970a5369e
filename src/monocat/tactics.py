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
    fold,
    iso_inverse,
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

    Each subterm folds to the index of its first stack in one list of
    stacks, and to its domain; only atoms are typed again.
    """

    dom = typecheck(term, sig).dom
    atom_type = Typer(sig)
    stacks: list[MorExpr] = []
    bounds: list[ObjExpr] = []  # the object after each stack

    def atom(t: MorExpr) -> tuple[int, ObjExpr]:
        if type(t) is Id:
            return len(stacks), t.obj
        t_dom, cod = atom_type.atom(t)
        stacks.append(t)
        bounds.append(cod)
        return len(stacks) - 1, t_dom

    def tensor(t: Tensor, top, bottom) -> tuple[int, ObjExpr]:
        (i, top_dom), (j, bottom_dom) = top, bottom
        xs, a = stacks[i:j], [top_dom] + bounds[i:j]  # a[k]: the top's boundary after k stacks
        ys, b = stacks[j:], [bottom_dom] + bounds[j:]
        del stacks[i:], bounds[i:]
        m, n = len(xs), len(ys)
        if weak:
            pairs = [(xs[k], ys[k], k + 1, k + 1) for k in range(min(m, n))]
            pairs += [(xs[k], None, k + 1, n) for k in range(n, m)]
            pairs += [(None, ys[k], m, k + 1) for k in range(m, n)]
        else:
            pairs = []
            for k in range(1, max(m, n) + 1):
                if k <= m:
                    pairs.append((xs[k - 1], None, k, min(k - 1, n)))
                if k <= n:
                    pairs.append((None, ys[k - 1], min(k, m), k))
        for x, y, ia, ib in pairs:
            # a missing factor is the identity on the other side's boundary
            stacks.append(Tensor(x or Id(a[ia]), y or Id(b[ib])))
            bounds.append(ObjTensor(a[ia], b[ib]))
        return i, ObjTensor(top_dom, bottom_dom)

    fold(term, atom, lambda t, first, second: first, tensor)
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
    try:  # a tensor is no atom's inverse, and iso_inverse rejects it
        return s2 in iso_inverse(s, sig)
    except NotInvertible:
        return False


def _map_chains(term: MorExpr, chain) -> MorExpr:
    """``term`` with each maximal composition chain ``t`` replaced by
    ``chain(t, elements)``, where ``elements`` are ``t``'s chain elements
    with their own chains replaced first; a tensor whose factors come back
    unchanged (``is``) is reused."""

    out: list[MorExpr] = []  # every subterm's chain elements, in order, from its first index on

    def finish(r: tuple[int, Comp | None]) -> MorExpr:  # the last subterm's result, taken off out
        start, node = r
        elements = out[start:]
        del out[start:]
        return elements[0] if node is None else chain(node, elements)

    def atom(t: MorExpr) -> tuple[int, None]:
        out.append(t)
        return len(out) - 1, None

    def tensor(t: Tensor, top, bottom) -> tuple[int, None]:
        b, a = finish(bottom), finish(top)
        out.append(t if a is t.top and b is t.bottom else Tensor(a, b))
        return top[0], None

    return finish(fold(term, atom, lambda t, first, second: (first[0], t), tensor))


def cancel_isos(term: MorExpr, sig: Signature) -> MorExpr:
    """Delete adjacent inverse pairs in every composition chain, to fixpoint.

    A chain that empties becomes the identity on its domain.  Chains in
    which something was deleted are rebuilt right-associated; untouched
    chains keep their shape, and a subterm in which nothing changed is
    returned as it is.  Recurses under tensors.
    """

    typecheck(term, sig)

    def cancel(t: Comp, chain: list[MorExpr]) -> MorExpr:
        kept: list[MorExpr] = []
        for el in chain:
            if kept and _inverse_pair(kept[-1], el, sig):
                kept.pop()
            else:
                kept.append(el)
        if len(kept) == len(chain):
            return rebuild_chain(t, chain)
        return right_comp(kept, None) if kept else Id(typecheck(t, sig).dom)

    return _map_chains(term, cancel)


def _remove_ids(term: MorExpr) -> MorExpr:
    def comp(t: Comp, first: MorExpr, second: MorExpr) -> MorExpr:
        if type(first) is Id:
            return second
        if type(second) is Id:
            return first
        return t if first is t.first and second is t.second else Comp(first, second)

    def tensor(t: Tensor, top: MorExpr, bottom: MorExpr) -> MorExpr:
        if type(top) is Id and type(bottom) is Id:
            return Id(ObjTensor(top.obj, bottom.obj))
        return t if top is t.top and bottom is t.bottom else Tensor(top, bottom)

    return fold(term, lambda t: t, comp, tensor)


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

    return _map_chains(term, lambda t, elements: right_comp(elements, None))


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
