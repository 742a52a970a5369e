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

from .parser import RewriteRule, print_expr
from .terms import (
    CatError,
    Comp,
    Id,
    MorExpr,
    MorVar,
    NotInvertible,
    ObjExpr,
    ObjTensor,
    ObjVar,
    Signature,
    Tensor,
    Typer,
    _rebuild,
    comp_chain,
    fold,
    iso_inverse,
    node_fields,
    postorder,
    rebuild_chain,
    record,
    replace_chain_element,
    right_comp,
    shared_boundary,
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
        t_dom, cod = atom_type.atom(t, True)  # typecheck above checked every object
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
# Chain rewriting shared by partner and assoc_rw
# ---------------------------------------------------------------------------


def _match(pattern, value, binds: dict, metavars: dict, sig: Signature) -> bool:
    """Whether ``value`` is ``pattern`` with its metavariables replaced.

    Objects and morphisms are compared node by node over their fields,
    names by ``==``.  Each ``MorVar``/``ObjVar`` node is bound in ``binds``
    to the value it meets first and must meet an equal value again; a
    morphism metavariable with a declared type also matches that type's
    objects against the value's boundary.
    """

    todo = [(pattern, value)]
    while todo:
        p, v = todo.pop()
        cls = p.__class__
        if cls is MorVar or cls is ObjVar:
            declared = metavars.get(p.name) if cls is MorVar else None
            if declared is not None:
                ty = typecheck(v, sig)
                todo += ((declared.dom, ty.dom), (declared.cod, ty.cod))
            todo.append((binds.setdefault(p, v), v))  # a bound value holds no metavariable
        elif cls is not v.__class__:
            return False
        elif cls is str:
            if p != v:
                return False
        elif p is not v:
            todo += zip(node_fields(p), node_fields(v))
    return True


def _instantiate(pattern, binds: dict):
    """``pattern`` rebuilt with each metavariable replaced by its binding;
    the leftmost one left unbound is an error."""

    items = postorder(pattern)  # a metavariable is its class after its name
    for i, x in enumerate(items):
        if (x is MorVar or x is ObjVar) and x(items[i - 1]) not in binds:
            kind = "object metavariable" if x is ObjVar else "metavariable"
            raise InconsistentBinding(f"{kind} ?{items[i - 1]} left unbound")
    return _rebuild(items, binds)


def _rewrite(term: MorExpr, window: list[MorExpr], make, metavars: dict,
             sig: Signature) -> MorExpr | None:
    """Replace the leftmost-outermost chain window matching ``window``.

    Composition chains are searched outermost first, then inside each
    element's tensor factors, left to right (top before bottom).  The
    first window whose elements match ``window`` (see :func:`_match`) is
    replaced by ``make(binds)``; that chain is rebuilt right-associated and
    the structure around it keeps its shape.  ``None`` if nothing matches.
    """

    k = len(window)
    todo = [(term, None)]  # a chain's term and its way up: (way up, term, index, element, top)
    while todo:
        t, up = todo.pop()
        chain = comp_chain(t)
        for start in range(len(chain) - k + 1):
            binds: dict = {}
            if all(_match(p, el, binds, metavars, sig)
                   for p, el in zip(window, chain[start:start + k])):
                new = right_comp(chain[:start] + [make(binds)] + chain[start + k:], None)
                while up is not None:
                    up, t, i, el, top = up
                    new = replace_chain_element(
                        t, i, Tensor(new, el.bottom) if top else Tensor(el.top, new))
                return new
        for i, el in reversed([*enumerate(chain)]):
            if el.__class__ is Tensor:
                todo += ((el.bottom, (up, t, i, el, False)), (el.top, (up, t, i, el, True)))
    return None


def partner(term: MorExpr, p: MorExpr, q: MorExpr, sig: Signature) -> MorExpr:
    """Reassociate so that ``p ; q`` appears as one grouped element.

    Searches maximal composition chains (and inside tensors); in the
    leftmost chain with adjacent elements equal to ``p`` then ``q``,
    groups them and rebuilds that chain right-associated.
    """

    for t in (term, p, q):
        typecheck(t, sig)
    result = _rewrite(term, [p, q], lambda binds: Comp(p, q), {}, sig)
    if result is None:
        raise NotAdjacent(
            f"no chain contains {print_expr(p)} immediately followed by {print_expr(q)}")
    return result


def assoc_rw(term: MorExpr, rule: RewriteRule, sig: Signature) -> MorExpr:
    """Rewrite the leftmost chain window matching ``rule``'s lhs.

    Composition chains are searched outermost first, then inside tensor
    factors; the first contiguous window whose elements unify with the
    lhs chain (concrete atoms syntactically, metavariables binding one
    element each, bindings consistent) is replaced by the instantiated
    rhs and the chain is rebuilt right-associated.
    """

    typecheck(term, sig)
    result = _rewrite(term, rule.lhs_chain, lambda binds: _instantiate(rule.rhs, binds),
                      dict(rule.metavars), sig)
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

    # a pass returns its input itself or a term with fewer atoms
    while (step := _remove_ids(cancel_isos(term, sig))) is not term:
        term = step
    return term


def right_associate(term: MorExpr) -> MorExpr:
    """Rebuild every composition chain right-associated, everywhere."""

    return _map_chains(term, lambda t, elements: right_comp(elements, None))


@record(frozen=True)
class TraceStep:
    """One tactic applied to one side, and the printed term it left."""

    tactic: str
    term: str


@record(frozen=True)
class Proved:
    """Both sides reached one term; ``trace`` shows how."""

    trace: tuple[TraceStep, ...]


@record(frozen=True)
class NotProved:
    """The sides stayed apart (not a disproof); ``trace`` shows how far they got."""

    trace: tuple[TraceStep, ...]


def cat_easy(t1: MorExpr, t2: MorExpr, sig: Signature) -> Proved | NotProved:
    """Close a structural goal: simplify, right-associate and weakly
    foliate both sides, then compare syntactically (by printed text, which
    parses back to exactly its term)."""

    shared_boundary(t1, t2, sig)
    trace: list[TraceStep] = []

    def pipeline(t: MorExpr, side: str) -> str:
        for name, fn in (
            ("cat_simpl", lambda x: cat_simpl(x, sig)),
            ("right_associate", right_associate),
            ("weak_foliate", lambda x: weak_foliate(x, sig)),
        ):
            t = fn(t)
            trace.append(TraceStep(f"{name}({side})", print_expr(t)))
        return trace[-1].term

    proved = pipeline(t1, "lhs") == pipeline(t2, "rhs")
    return (Proved if proved else NotProved)(tuple(trace))
