"""The recursive term walkers that ``monocat.terms.fold`` and the tactics'
iterative chain-rewrite engine replaced.

Each recurses once per nesting level of ``Comp``/``Tensor``, so it fails
on deep terms at the default recursion limit; on the shallow random terms
of the tests it is the reference the iterative walker must match exactly:
``print_expr`` texts by ``==``, sheets by ``==`` and terms by their printed
text.  ``reference_partner`` and ``reference_assoc_rw`` keep the
hand-dispatched matchers (bindings in two dicts, one for morphism and one
for object metavariables) that ``tactics._match`` replaced.
"""

from __future__ import annotations

from monocat.coherence import (
    BoxSlot,
    Layer,
    Sheet,
    WireList,
    flatten_object,
    layer_output,
)
from monocat.parser import RewriteRule, print_expr, print_obj
from monocat.terms import (
    STRUCTURAL,
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
    MorVar,
    NotInvertible,
    ObjExpr,
    ObjGen,
    ObjTensor,
    ObjVar,
    RUnit,
    RUnitInv,
    Signature,
    Tensor,
    Typer,
    Unit,
    comp_chain,
    iso_inverse,
    node_fields,
    replace_chain_element,
    right_comp,
    typecheck,
)
from monocat.tactics import InconsistentBinding, NoMatch, NotAdjacent

#: Atoms whose fields are all objects.
OBJECT_ATOMS = (Id, *STRUCTURAL)


def reference_print_expr(term: MorExpr) -> str:
    def atom_text(t: MorExpr) -> str:
        if isinstance(t, MorGen):
            return t.name
        if isinstance(t, MorVar):
            return "?" + t.name
        if isinstance(t, Id):
            return f"id[{print_obj(t.obj)}]"
        if isinstance(t, Inv):
            return f"inv({t.name})"
        if type(t) in STRUCTURAL:
            return f"{STRUCTURAL[type(t)][0]}[{','.join(map(print_obj, node_fields(t)))}]"
        raise TypeError(f"not an atom: {t!r}")

    def go(t: MorExpr, parent: str | None, side: str) -> str:
        if isinstance(t, Comp):
            body = f"{go(t.first, 'comp', 'left')} ; {go(t.second, 'comp', 'right')}"
            plain = parent is None or (parent == "comp" and side == "left")
            return body if plain else f"({body})"
        if isinstance(t, Tensor):
            body = f"{go(t.top, 'tensor', 'left')} * {go(t.bottom, 'tensor', 'right')}"
            plain = parent is None or (parent == "tensor" and side == "left")
            return body if plain else f"({body})"
        return atom_text(t)

    return go(term, None, "left")


def _wire_layer(wires: WireList) -> Layer:
    return tuple(wires)


def reference_sheet(term: MorExpr, sig: Signature) -> Sheet:
    typecheck(term, sig)

    def build(t: MorExpr) -> tuple[WireList, list[Layer]]:
        if isinstance(t, Id):
            return flatten_object(t.obj), []
        if isinstance(t, (Assoc, AssocInv, LUnit, LUnitInv, RUnit, RUnitInv)):
            return tuple(w for obj in node_fields(t) for w in flatten_object(obj)), []
        if isinstance(t, MorGen):
            decl = sig.morphism(t.name)
            ins, outs = flatten_object(decl.dom), flatten_object(decl.cod)
            return ins, [(BoxSlot(t.name, ins, outs),)]
        if isinstance(t, Inv):
            decl = sig.morphism(t.name)
            ins, outs = flatten_object(decl.cod), flatten_object(decl.dom)
            return ins, [(BoxSlot(f"inv:{t.name}", ins, outs),)]
        if isinstance(t, (Braid, BraidInv)):
            fa, fb = flatten_object(t.a), flatten_object(t.b)
            ins, outs = (fa + fb, fb + fa) if isinstance(t, Braid) else (fb + fa, fa + fb)
            if not fa or not fb:
                return ins, []
            kind = "braid" if isinstance(t, Braid) else "braid_inv"
            label = f"{kind}([{','.join(fa)}],[{','.join(fb)}])"
            return ins, [(BoxSlot(label, ins, outs),)]
        if isinstance(t, Comp):
            ins, layers = build(t.first)
            layers += build(t.second)[1]
            return ins, layers
        if isinstance(t, Tensor):
            top_in, t_layers = build(t.top)
            bottom_in, b_layers = build(t.bottom)
            while len(t_layers) < len(b_layers):
                t_layers.append(_wire_layer(layer_output(t_layers[-1]) if t_layers else top_in))
            while len(b_layers) < len(t_layers):
                b_layers.append(_wire_layer(layer_output(b_layers[-1]) if b_layers else bottom_in))
            return top_in + bottom_in, [ta + tb for ta, tb in zip(t_layers, b_layers)]
        raise TypeError(f"cannot build a sheet from {t!r}")

    ins, layers = build(term)
    return Sheet(ins, tuple(layers))


def reference_foliate(term: MorExpr, sig: Signature, weak: bool = False) -> MorExpr:
    atom_type = Typer(sig)

    def go(t: MorExpr, stacks: list[MorExpr], bounds: list[ObjExpr]) -> None:
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
                stacks.append(Tensor(x or Id(a[ia]), y or Id(b[ib])))
                bounds.append(ObjTensor(a[ia], b[ib]))
        elif not isinstance(t, Id):
            stacks.append(t)
            bounds.append(atom_type.atom(t)[1])

    stacks: list[MorExpr] = []
    dom = typecheck(term, sig).dom
    go(term, stacks, [dom])
    return right_comp(stacks, dom)


def reference_rebuild_chain(term: MorExpr, elements: list[MorExpr]) -> MorExpr:
    it = iter(elements)

    def go(t: MorExpr) -> MorExpr:
        if not isinstance(t, Comp):
            return next(it)
        first, second = go(t.first), go(t.second)
        return t if first is t.first and second is t.second else Comp(first, second)

    return go(term)


def _inverse_pair(s: MorExpr, s2: MorExpr, sig: Signature) -> bool:
    if isinstance(s, (Comp, Tensor)) or isinstance(s2, (Comp, Tensor)):
        return False
    try:
        return s2 in iso_inverse(s, sig)
    except NotInvertible:
        return False


def reference_cancel_isos(term: MorExpr, sig: Signature) -> MorExpr:
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
            return reference_rebuild_chain(t, chain)
        return right_comp(kept, None) if kept else Id(typecheck(t, sig).dom)

    return go(term)


def reference_remove_ids(term: MorExpr) -> MorExpr:
    if isinstance(term, Comp):
        first = reference_remove_ids(term.first)
        second = reference_remove_ids(term.second)
        if isinstance(first, Id):
            return second
        if isinstance(second, Id):
            return first
        return term if first is term.first and second is term.second else Comp(first, second)
    if isinstance(term, Tensor):
        top = reference_remove_ids(term.top)
        bottom = reference_remove_ids(term.bottom)
        if isinstance(top, Id) and isinstance(bottom, Id):
            return Id(ObjTensor(top.obj, bottom.obj))
        return term if top is term.top and bottom is term.bottom else Tensor(top, bottom)
    return term


def reference_right_associate(term: MorExpr) -> MorExpr:
    if isinstance(term, Comp):
        return right_comp([reference_right_associate(el) for el in comp_chain(term)], None)
    if isinstance(term, Tensor):
        return Tensor(reference_right_associate(term.top),
                      reference_right_associate(term.bottom))
    return term


def _rewrite_leftmost(term: MorExpr, attempt) -> MorExpr | None:
    chain = comp_chain(term)
    new = attempt(chain)
    if new is not None:
        return right_comp(new, None)
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


def reference_partner(term: MorExpr, p: MorExpr, q: MorExpr, sig: Signature) -> MorExpr:
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


def _match_obj(pattern: ObjExpr, obj: ObjExpr, b: dict) -> bool:
    if isinstance(pattern, ObjVar):
        if pattern.name in b["obj"]:
            return b["obj"][pattern.name] == obj
        b["obj"][pattern.name] = obj
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


def _match_element(pattern: MorExpr, el: MorExpr, b: dict, metavar_types, sig: Signature) -> bool:
    if isinstance(pattern, MorVar):
        declared = metavar_types.get(pattern.name)
        if declared is not None:
            ty = typecheck(el, sig)
            if not (_match_obj(declared.dom, ty.dom, b) and _match_obj(declared.cod, ty.cod, b)):
                return False
        if pattern.name in b["mor"]:
            return b["mor"][pattern.name] == el
        b["mor"][pattern.name] = el
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


def _instantiate_obj(pattern: ObjExpr, b: dict) -> ObjExpr:
    if isinstance(pattern, ObjVar):
        if pattern.name not in b["obj"]:
            raise InconsistentBinding(f"object metavariable ?{pattern.name} left unbound")
        return b["obj"][pattern.name]
    if isinstance(pattern, ObjTensor):
        return ObjTensor(_instantiate_obj(pattern.left, b), _instantiate_obj(pattern.right, b))
    return pattern


def _instantiate(pattern: MorExpr, b: dict) -> MorExpr:
    if isinstance(pattern, MorVar):
        if pattern.name not in b["mor"]:
            raise InconsistentBinding(f"metavariable ?{pattern.name} left unbound")
        return b["mor"][pattern.name]
    if isinstance(pattern, Comp):
        return Comp(_instantiate(pattern.first, b), _instantiate(pattern.second, b))
    if isinstance(pattern, Tensor):
        return Tensor(_instantiate(pattern.top, b), _instantiate(pattern.bottom, b))
    if isinstance(pattern, OBJECT_ATOMS):
        return type(pattern)(*(_instantiate_obj(o, b) for o in node_fields(pattern)))
    return pattern


def reference_assoc_rw(term: MorExpr, rule: RewriteRule, sig: Signature) -> MorExpr:
    typecheck(term, sig)
    lhs_chain = rule.lhs_chain
    metavar_types = dict(rule.metavars)
    k = len(lhs_chain)

    def attempt(chain: list[MorExpr]) -> list[MorExpr] | None:
        for start in range(len(chain) - k + 1):
            b = {"mor": {}, "obj": {}}
            if all(_match_element(lhs_chain[j], chain[start + j], b, metavar_types, sig)
                   for j in range(k)):
                replacement = _instantiate(rule.rhs, b)
                return chain[:start] + [replacement] + chain[start + k:]
        return None

    result = _rewrite_leftmost(term, attempt)
    if result is None:
        raise NoMatch(f"rule {rule.name!r} matches nothing in {print_expr(term)}")
    return result
