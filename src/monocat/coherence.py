"""Canonical layered normal forms deciding equality up to monoidal structure.

A term is flattened into a :class:`Sheet`: a list of layers over a list
of wires, with associators and unitors erased (their flattened domain
and codomain coincide) and generators, inverses and braidings kept as
opaque boxes.  :func:`canonicalize` slides every box as far left as the
wires allow and drops wire-only layers; two terms with the same
boundary are equal up to monoidal structure whenever their normal forms
are structurally identical.

``Equal`` results are sound for every lawful backend.  ``NotDecided``
results carry no information: the procedure is complete only for
equalities following from monoidal structure plus identity sliding.

Braiding boxes are keyed by their two flattened halves, so braidings
over differently bracketed but identically flattened objects are
identified, while braidings that split the same wire list at different
points stay distinct (they denote different permutations).  A braiding
with a unit-like half permutes nothing and is erased like the unitors.

Boxes with no input wires ("scalar" states) have no wire dependencies;
they slide left only through layers consisting entirely of wires, and
where one stops depends on the order in which the pass loop of
single-layer slides (:func:`_slide_to_fixpoint`) visits passes and
slots.  A sheet holding one takes that loop; any other sheet is
canonicalized in one left-to-right sweep (:func:`_sweep`), in time
linear in the input plus the output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    STRUCTURAL,
    Braid,
    BraidInv,
    Id,
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
    obj_label,
    typecheck,
)

WireList = tuple[str, ...]


@dataclass(frozen=True)
class WireSlot:
    """One wire passing through a layer unchanged."""

    obj: str


@dataclass(frozen=True)
class BoxSlot:
    """A box consuming ``ins`` and producing ``outs`` inside one layer."""

    label: str
    ins: WireList
    outs: WireList


Slot = WireSlot | BoxSlot
Layer = tuple[Slot, ...]


@dataclass(frozen=True)
class Sheet:
    """Flattened diagram: layers of slots over an input wire list."""

    input: WireList
    layers: tuple[Layer, ...]


@dataclass(frozen=True)
class NormalForm:
    """Canonical sheet: every box at its earliest layer, no wire-only layers."""

    input: WireList
    output: WireList
    layers: tuple[Layer, ...]


@dataclass(frozen=True)
class Equal:
    """Decided equal; carries the shared normal form."""

    normal_form: NormalForm


@dataclass(frozen=True)
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


def slot_in(slot: Slot) -> WireList:
    return (slot.obj,) if isinstance(slot, WireSlot) else slot.ins


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
    if cls is Id:
        wires = flatten_object(t.obj)
        return wires, wires
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
        elif cls is Braid or cls is BraidInv:
            fa, fb = flatten_object(t.a), flatten_object(t.b)
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


def _try_move(layers: list[list[Slot]], k: int, i: int) -> bool:
    """Move the box at ``layers[k][i]`` into layer ``k-1`` if wires permit."""

    box = layers[k][i]
    prev = layers[k - 1]
    start = sum(len(slot_in(s)) for s in layers[k][:i])
    width = len(box.ins)

    if width == 0:
        # scalar state: only a pure wire layer can absorb it
        if any(isinstance(s, BoxSlot) for s in prev):
            return False
        prev.insert(start, box)
        layers[k][i:i + 1] = [WireSlot(w) for w in box.outs]
        return True

    covering: list[int] = []
    pos = 0
    for j, slot in enumerate(prev):
        w = len(slot_out(slot))
        if pos < start + width and pos + w > start:
            if not isinstance(slot, WireSlot):
                return False
            covering.append(j)
        pos += w
    if len(covering) != width:
        return False
    j0 = covering[0]
    prev[j0:j0 + width] = [box]
    layers[k][i:i + 1] = [WireSlot(w) for w in box.outs]
    return True


def canonicalize(sheet: Sheet) -> NormalForm:
    """Slide every box as far left as possible, then drop wire-only layers.

    A wire-consuming box lands one layer after the latest producer of its
    inputs or zero-output box between them; a scalar box stops at the
    first layer holding another box.
    """

    scalar = any(isinstance(slot, BoxSlot) and not slot.ins
                 for layer in sheet.layers for slot in layer)
    layers = _slide_to_fixpoint(sheet) if scalar else _sweep(sheet)
    return NormalForm(sheet.input, sheet_output(sheet), layers)


def _sweep(sheet: Sheet) -> tuple[Layer, ...]:
    """Canonical layers of a sheet without scalar boxes, in one pass.

    Each wire id keeps its producer's layer (-1 for inputs) and each gap
    between neighbouring wires the latest zero-output box consumed in it;
    a box lands one layer after the latest of both among its inputs, so
    every layer up to the deepest holds a box.  Each layer is then rebuilt
    once along its input boundary, a box replacing its run of input wires.
    """

    names = list(sheet.input)  # wire id -> object name
    produced = [-1] * len(names)  # wire id -> layer of its producer
    placed: dict[int, tuple[int, BoxSlot, range]] = {}  # first input id -> (layer, box, output ids)
    boundary = list(range(len(names)))
    gaps = [-1] * (len(names) + 1)  # gaps[p]: latest zero-output box just before boundary[p]
    for layer in sheet.layers:
        nxt: list[int] = []
        nxt_gaps = gaps[:1]
        pos = 0
        for slot in layer:
            if isinstance(slot, WireSlot):
                nxt.append(boundary[pos])
                nxt_gaps.append(gaps[pos + 1])
                pos += 1
                continue
            n = len(slot.ins)
            ins = boundary[pos:pos + n]
            at = 1 + max([produced[w] for w in ins] + gaps[pos + 1:pos + n])
            outs = range(len(names), len(names) + len(slot.outs))
            names += slot.outs
            produced += [at] * len(outs)
            placed[ins[0]] = (at, slot, outs)
            nxt += outs
            if outs:
                nxt_gaps += [-1] * (len(outs) - 1) + [gaps[pos + n]]
            else:
                nxt_gaps[-1] = max(nxt_gaps[-1], at, gaps[pos + n])
            pos += n
        boundary, gaps = nxt, nxt_gaps

    wire_slot = {name: WireSlot(name) for name in set(names)}
    kept = []
    boundary = list(range(len(sheet.input)))
    for k in range(1 + max((at for at, _, _ in placed.values()), default=-1)):
        slots: list[Slot] = []
        nxt = []
        i = 0
        while i < len(boundary):
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


def _slide_to_fixpoint(sheet: Sheet) -> tuple[Layer, ...]:
    """Canonical layers by passes of single-layer slides until none moves;
    the definition for sheets holding scalar boxes."""

    layers: list[list[Slot]] = [list(layer) for layer in sheet.layers]
    moved = True
    while moved:
        moved = False
        for k in range(1, len(layers)):
            i = 0
            while i < len(layers[k]):
                slot = layers[k][i]
                if isinstance(slot, BoxSlot) and _try_move(layers, k, i):
                    moved = True
                    i += len(slot.outs)
                else:
                    i += 1
    return tuple(tuple(layer) for layer in layers if any(isinstance(s, BoxSlot) for s in layer))


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
    return f"{obj_label(ty.dom)} -> {obj_label(ty.cod)}"


def dump_normal_form(nf: NormalForm) -> str:
    """Stable one-line textual dump, used by the CLI and golden tests."""

    def slot_text(slot: Slot) -> str:
        if isinstance(slot, WireSlot):
            return f"wire({slot.obj})"
        return f"{slot.label}([{','.join(slot.ins)}]->[{','.join(slot.outs)}])"

    layers = ", ".join("[" + "|".join(slot_text(s) for s in layer) + "]" for layer in nf.layers)
    return (f"in=[{','.join(nf.input)}]; layers=[{layers}]; out=[{','.join(nf.output)}]")


def check_normal_form(nf: NormalForm) -> None:
    """Assert the structural invariants of a normal form (test support).

    Checks boundary consistency layer by layer, absence of wire-only
    layers, and that every wire-consuming box sits exactly one layer
    after the latest box producing one of its inputs, unless the layer
    before it holds a zero-output box between its inputs (earliest-possible
    placement).  Scalar boxes must be at layer 0 or behind a layer
    containing some box.
    """

    boundary = nf.input
    produced = [-1] * len(boundary)  # boundary position -> layer of its producer
    ends: set[int] = set()  # boundary positions of the last layer's zero-output boxes
    for k, layer in enumerate(nf.layers):
        if not any(isinstance(s, BoxSlot) for s in layer):
            raise AssertionError(f"layer {k} is wire-only")
        ins = tuple(w for slot in layer for w in slot_in(slot))
        if ins != boundary:
            raise AssertionError(f"layer {k} consumes {ins}, boundary is {boundary}")
        nxt: list[int] = []
        nxt_ends: set[int] = set()
        pos = 0
        for slot in layer:
            n = len(slot_in(slot))
            if isinstance(slot, WireSlot):
                nxt.append(produced[pos])
            elif n:
                latest = max(produced[pos:pos + n])
                if k != latest + 1 and not any(pos < p < pos + n for p in ends):
                    raise AssertionError(f"box {slot.label} at layer {k}, expected {latest + 1}")
            elif k > 0 and not any(isinstance(s, BoxSlot) for s in nf.layers[k - 1]):
                raise AssertionError(f"scalar box {slot.label} behind wire-only layer")
            if isinstance(slot, BoxSlot):
                if not slot.outs:
                    nxt_ends.add(len(nxt))
                nxt += [k] * len(slot.outs)
            pos += n
        boundary, produced, ends = layer_output(layer), nxt, nxt_ends
    if boundary != nf.output:
        raise AssertionError(f"final boundary {boundary} != output {nf.output}")
