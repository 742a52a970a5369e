"""Canonical layered normal forms deciding equality up to monoidal structure.

A term is flattened into a :class:`Sheet`: a list of layers over a list
of wires, with associators and unitors erased (their flattened domain
and codomain coincide) and generators, inverses and braidings kept as
opaque boxes.  :func:`canonicalize` slides every box as far left as the
wires allow and drops wire-only layers; two terms with the same
boundary are equal up to monoidal structure whenever their normal forms
are structurally identical.

``Equal`` results are sound for every lawful backend.  ``NotDecided``
results carry no information: the procedure is complete for equalities
following from monoidal structure plus identity sliding, except between
terms holding both a box with no input wires (a "scalar") and a box
with no output wires (an "effect").

A braiding's box is keyed by its two flattened halves, so braidings
over differently bracketed but identically flattened objects are
identified, while braidings that split the same wire list at different
points stay distinct (they denote different permutations).  A braiding
with a unit-like half permutes nothing and is erased like the unitors.

Every sheet is canonicalized in one left-to-right sweep (:func:`_sweep`),
in time linear in the input plus the output, plus one sort of the
scalars.  A scalar has no input to wait for; by planar isotopy (Joyal &
Street, "The geometry of tensor calculus I", 1991) it slides left within
the gap between its neighbouring wires until a box closes that gap: a
box it would land among the outputs of, or an effect ending a wire at
its point.  An effect and a scalar meeting at one point (``e ; s``
against ``s * e``) form a floating piece whose side is not canonical;
placing those needs Delpeuch & Vicary's quadratic algorithm
(arXiv:1804.07832), which is not implemented here.
"""

from __future__ import annotations

from .terms import (
    STRUCTURAL,
    Inv,
    MorExpr,
    MorGen,
    ObjExpr,
    ObjGen,
    ObjTensor,
    Signature,
    Tensor,
    TypeMismatch,
    Unit,
    _set_wires,
    fold,
    node_fields,
    print_obj,
    record,
    typecheck,
)

WireList = tuple[str, ...]


@record(frozen=True)
class WireSlot:
    """One wire passing through a layer unchanged."""

    obj: str


@record(frozen=True)
class BoxSlot:
    """A box consuming ``ins`` and producing ``outs`` inside one layer."""

    label: str
    ins: WireList
    outs: WireList


Slot = WireSlot | BoxSlot
Layer = tuple[Slot, ...]


@record(frozen=True)
class Sheet:
    """Flattened diagram: layers of slots over an input wire list."""

    input: WireList
    layers: tuple[Layer, ...]


@record(frozen=True)
class NormalForm:
    """Canonical sheet: every box at its earliest layer, no wire-only layers."""

    input: WireList
    output: WireList
    layers: tuple[Layer, ...]


@record(frozen=True)
class Equal:
    """Decided equal; carries the shared normal form."""

    normal_form: NormalForm


@record(frozen=True)
class NotDecided:
    """Not decided (NOT a disproof); carries both normal forms."""

    left: NormalForm
    right: NormalForm


def flatten_object(obj: ObjExpr) -> WireList:
    """Erase bracketing and units: the ordered generator names of ``obj``.

    Objects are interned, so the list is computed once per object and kept
    on it (``ObjExpr._wires``); the walk reuses the lists kept on the
    sub-objects asked before.
    """

    wires = obj._wires
    if wires is not None:
        return wires
    names: list[str] = []
    todo = [obj]
    while todo:
        o = todo.pop()
        kept = o._wires
        cls = type(o)
        if kept is not None:
            names += kept
        elif cls is ObjTensor:
            todo += (o.right, o.left)
        elif cls is ObjGen:
            names.append(o.name)
        elif cls is not Unit:
            raise TypeError(f"cannot flatten {o!r}")
    wires = tuple(names)
    _set_wires(obj, wires)
    return wires


def slot_out(slot: Slot) -> WireList:
    return (slot.obj,) if isinstance(slot, WireSlot) else slot.outs


def layer_output(layer: Layer) -> WireList:
    out: tuple[str, ...] = ()
    for slot in layer:
        out += slot_out(slot)
    return out


def sheet_output(sheet: Sheet) -> WireList:
    return layer_output(sheet.layers[-1]) if sheet.layers else sheet.input


def atom_wires(t: MorExpr, sig: Signature) -> tuple[WireList, WireList]:
    """The flat input and output wires of the atom ``t``."""

    cls = type(t)
    if cls is MorGen or cls is Inv:
        decl = sig.morphism(t.name)
        dom, cod = (decl.dom, decl.cod) if cls is MorGen else (decl.cod, decl.dom)
    else:
        dom, cod = STRUCTURAL[cls][3](*node_fields(t))
    return flatten_object(dom), flatten_object(cod)


def sheet_of_term(term: MorExpr, sig: Signature) -> Sheet:
    """Flatten a well-typed term into a sheet.

    Identities and structural isomorphisms contribute no layers;
    generators, declared-iso inverses and braidings become single-box
    layers; composition concatenates layers and tensoring pads the
    shorter sheet with wire layers at its end, then joins layers
    sidewise (top slots first).  Each wire list's pad layer is built once
    per call and shared by every pad over it.
    """

    ty = typecheck(term, sig)
    layers: list[Layer] = []  # every subterm's layers, in order, from its first index on
    pads: dict[WireList, Layer] = {}  # wire list -> its wire-only layer

    def atom(t: MorExpr) -> tuple[int, WireList]:
        ins, outs = atom_wires(t, sig)
        cls = type(t)
        if cls is MorGen or cls is Inv:
            label = t.name if cls is MorGen else f"inv:{t.name}"
        elif STRUCTURAL[cls][5] is not None:  # a crossing
            fa, fb = map(flatten_object, node_fields(t))
            # a unit-like half permutes nothing in any lawful backend: no box
            label = fa and fb and f"{STRUCTURAL[cls][0]}([{','.join(fa)}],[{','.join(fb)}])"
        else:
            label = None
        start = len(layers)
        if label:
            layers.append((BoxSlot(label, ins, outs),))
        return start, ins

    def tensor(t: Tensor, top, bottom) -> tuple[int, WireList]:
        (i, top_in), (j, bottom_in) = top, bottom
        t_layers, b_layers = layers[i:j], layers[j:]
        del layers[i:]
        if len(t_layers) != len(b_layers):  # pad the shorter side with its output wires
            short, short_in = ((t_layers, top_in) if len(t_layers) < len(b_layers)
                               else (b_layers, bottom_in))
            wires = layer_output(short[-1]) if short else short_in
            if wires not in pads:
                pads[wires] = tuple(WireSlot(w) for w in wires)
            short += [pads[wires]] * abs(len(t_layers) - len(b_layers))
        layers.extend(map(tuple.__add__, t_layers, b_layers))
        return i, top_in + bottom_in

    ins = fold(term, atom, lambda t, first, second: first, tensor)[1]
    assert ins == flatten_object(ty.dom)
    return Sheet(ins, tuple(layers))


def canonicalize(sheet: Sheet) -> NormalForm:
    """Slide every box as far left as possible, then drop wire-only layers.

    A box lands one layer after the latest producer of its inputs or
    zero-output box between them; a box without inputs lands one layer
    after the latest box that closes the gap it sits in.
    """

    return NormalForm(sheet.input, sheet_output(sheet), _sweep(sheet))


def _sweep(sheet: Sheet) -> tuple[Layer, ...]:
    """Canonical layers of a sheet, in one pass.

    Each wire id keeps its producer's layer (-1 for inputs), and each gap
    between neighbouring wires a bound: the latest zero-output box consumed
    in it, or the box whose outputs it lies between.  A box lands one layer
    after the latest producer of its inputs and bound between them, a box
    without inputs one layer after its gap's bound, so every layer up to
    the deepest holds a box.  All ids also take one left-to-right order,
    built only when the sheet holds a box without inputs: a box's outputs
    (or, without any, a placeholder) follow its last input, or without
    inputs the last id before it in its layer.  Each layer is then rebuilt
    once along its input boundary, a box replacing its run of input wires
    and a box without inputs going just before the first boundary wire
    after it in that order.
    """

    names = list(sheet.input)  # wire id -> object name
    produced = [-1] * len(names)  # wire id -> layer of its producer
    links = [(-1, range(len(names)))]  # (id, run of ids ordered right after it); -1 heads the order
    holes = -1  # placeholder ids of zero-output boxes: -2, -3, ...
    placed: dict[int, tuple[int, BoxSlot, range]] = {}  # first input id -> (layer, box, output ids)
    scalars: list[tuple[int, int, BoxSlot, range]] = []  # (layer, first id, box, output ids)
    boundary = list(range(len(names)))
    gaps = [-1] * (len(names) + 1)  # gaps[p]: bound of the gap just before boundary[p]
    for layer in sheet.layers:
        nxt: list[int] = []
        nxt_gaps = gaps[:1]
        pos = 0
        last = -1  # the last id (or placeholder) placed in this layer so far
        for slot in layer:
            if isinstance(slot, WireSlot):
                last = boundary[pos]
                nxt.append(last)
                nxt_gaps.append(gaps[pos + 1])
                pos += 1
                continue
            n = len(slot.ins)
            ins = boundary[pos:pos + n]
            outs = range(len(names), len(names) + len(slot.outs))
            if not outs:
                holes -= 1
            run = outs or (holes,)
            if n:
                at = 1 + max([produced[w] for w in ins] + gaps[pos + 1:pos + n])
                placed[ins[0]] = (at, slot, outs)
                prior = ins[-1]
            else:  # bounded by its gap alone, ordered after its left neighbour
                at = 1 + gaps[pos]
                scalars.append((at, run[0], slot, outs))
                prior = last
            links.append((prior, run))
            last = run[-1]
            names += slot.outs
            produced += [at] * len(outs)
            nxt += outs
            if outs:
                nxt_gaps += [at] * (len(outs) - 1) + [gaps[pos + n]]
            else:
                nxt_gaps[-1] = max(nxt_gaps[-1], at, gaps[pos + n])
            pos += n
        boundary, gaps = nxt, nxt_gaps

    rank: dict[int, int] = {}  # id -> its place in the order, once a scalar needs it
    if scalars:
        after = {-1: None}  # id -> the next id in order
        for prior, run in links:
            after.update(zip((prior, *run), (*run, after[prior])))
        w = after[-1]
        while w is not None:
            rank[w] = len(rank)
            w = after[w]
    due: dict[int, list[tuple[int, BoxSlot, range]]] = {}  # layer -> (rank, box, output ids), last first
    for at, first, slot, outs in sorted(scalars, key=lambda s: rank[s[1]], reverse=True):
        due.setdefault(at, []).append((rank[first], slot, outs))
    wire_slot = {name: WireSlot(name) for name in set(names)}
    kept = []
    boundary = list(range(len(sheet.input)))
    depth = max([at for at, _, _ in placed.values()] + [at for at, *_ in scalars], default=-1)
    for k in range(1 + depth):
        slots: list[Slot] = []
        nxt = []
        queue = due.get(k, [])
        i = 0
        while i < len(boundary) or queue:
            if queue and (i == len(boundary) or queue[-1][0] < rank[boundary[i]]):
                _, slot, outs = queue.pop()
                slots.append(slot)
                nxt += outs
                continue
            w = boundary[i]
            box = placed.get(w)
            if box is not None and box[0] == k:
                slots.append(box[1])
                nxt += box[2]
                i += len(box[1].ins)
            else:
                slots.append(wire_slot[names[w]])
                nxt.append(w)
                i += 1
        kept.append(tuple(slots))
        boundary = nxt
    return tuple(kept)


def monoidal_eq(t1: MorExpr, t2: MorExpr, sig: Signature) -> Equal | NotDecided:
    """Decide equality of two same-boundary terms up to monoidal structure."""

    ty1 = typecheck(t1, sig)
    ty2 = typecheck(t2, sig)
    if ty1 != ty2:
        raise TypeMismatch(
            "terms do not share a boundary type: "
            f"{_ty_text(ty1)} vs {_ty_text(ty2)}"
        )
    nf1 = canonicalize(sheet_of_term(t1, sig))
    nf2 = canonicalize(sheet_of_term(t2, sig))
    if nf1 == nf2:
        return Equal(nf1)
    return NotDecided(nf1, nf2)


def _ty_text(ty) -> str:
    return f"{print_obj(ty.dom, True)} -> {print_obj(ty.cod, True)}"


def dump_normal_form(nf: NormalForm) -> str:
    """Stable one-line textual dump, used by the CLI and golden tests."""

    def slot_text(slot: Slot) -> str:
        if isinstance(slot, WireSlot):
            return f"wire({slot.obj})"
        return f"{slot.label}([{','.join(slot.ins)}]->[{','.join(slot.outs)}])"

    layers = ", ".join("[" + "|".join(slot_text(s) for s in layer) + "]" for layer in nf.layers)
    return (f"in=[{','.join(nf.input)}]; layers=[{layers}]; out=[{','.join(nf.output)}]")
