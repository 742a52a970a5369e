"""Reference canonicalization by single-layer slides, and the normal-form
invariants, kept as the definition that ``coherence._sweep`` is tested
against.

:func:`_try_move` is the one slide: a box enters the layer before its own
when the wires allow.  A wire-consuming box needs its whole input run to be
wires there.  A box without inputs needs its position to be a slot edge of
that layer with no zero-output slot on it, so it never lands inside a box's
outputs and never passes a zero-output box at its own point.
:func:`_slide_to_fixpoint` repeats slides pass by pass until none moves.
"""

from __future__ import annotations

from itertools import accumulate

from monocat.coherence import (
    BoxSlot,
    Layer,
    NormalForm,
    Sheet,
    Slot,
    layer_output,
    slot_out,
)


def slot_in(slot: Slot):
    return (slot,) if isinstance(slot, str) else slot.ins


def _scalar_edge(prev: list[Slot] | Layer, start: int) -> int | None:
    """The slot index of ``prev`` where a box without inputs at output
    position ``start`` may enter, or ``None``."""

    edges = list(accumulate((len(slot_out(s)) for s in prev), initial=0))
    return edges.index(start) if edges.count(start) == 1 else None


def _try_move(layers: list[list[Slot]], k: int, i: int) -> bool:
    """Move the box at ``layers[k][i]`` into layer ``k-1`` if wires permit."""

    box = layers[k][i]
    prev = layers[k - 1]
    start = sum(len(slot_in(s)) for s in layers[k][:i])
    width = len(box.ins)

    if width == 0:
        j = _scalar_edge(prev, start)
        if j is None:
            return False
        prev.insert(j, box)
        layers[k][i:i + 1] = list(box.outs)
        return True

    covering: list[int] = []
    pos = 0
    for j, slot in enumerate(prev):
        w = len(slot_out(slot))
        if pos < start + width and pos + w > start:
            if not isinstance(slot, str):
                return False
            covering.append(j)
        pos += w
    if len(covering) != width:
        return False
    j0 = covering[0]
    prev[j0:j0 + width] = [box]
    layers[k][i:i + 1] = list(box.outs)
    return True


def _slide_to_fixpoint(sheet: Sheet) -> tuple[Layer, ...]:
    """Canonical layers by passes of single-layer slides until none moves."""

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


def check_normal_form(nf: NormalForm) -> None:
    """Assert the structural invariants of a normal form.

    Checks boundary consistency layer by layer, absence of wire-only
    layers, and that every wire-consuming box sits exactly one layer
    after the latest box producing one of its inputs, unless the layer
    before it holds a zero-output box between its inputs (earliest-possible
    placement).  A box without inputs must be at layer 0 or unable to
    enter the layer before (:func:`_try_move`'s rule).
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
            if isinstance(slot, str):
                nxt.append(produced[pos])
            elif n:
                latest = max(produced[pos:pos + n])
                if k != latest + 1 and not any(pos < p < pos + n for p in ends):
                    raise AssertionError(f"box {slot.label} at layer {k}, expected {latest + 1}")
            elif k > 0 and _scalar_edge(nf.layers[k - 1], pos) is not None:
                raise AssertionError(f"box {slot.label} without inputs could enter layer {k - 1}")
            if isinstance(slot, BoxSlot):
                if not slot.outs:
                    nxt_ends.add(len(nxt))
                nxt += [k] * len(slot.outs)
            pos += n
        boundary, produced, ends = layer_output(layer), nxt, nxt_ends
    if boundary != nf.output:
        raise AssertionError(f"final boundary {boundary} != output {nf.output}")
