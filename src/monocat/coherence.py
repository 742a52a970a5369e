"""Canonical layered normal forms deciding equality up to monoidal structure.

A term is flattened into a :class:`Sheet`: a list of layers over a list
of wires (each object's from :func:`terms.flatten_object`), with associators and unitors erased (their flattened domain
and codomain coincide) and generators, inverses and braidings kept as
opaque boxes, in two flat passes over the term (:func:`sheet_of_term`).
A layer holds its boxes and the names of the wires passing through it.
:func:`canonicalize` slides every box as far left as the wires allow
and drops wire-only layers; two terms with the same boundary are equal
up to monoidal structure whenever their normal forms are structurally
identical.

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
    Comp,
    Inv,
    MorExpr,
    MorGen,
    Signature,
    Tensor,
    WireList,
    atom_wires,
    flatten_object,
    node_fields,
    record,
    shared_boundary,
    typecheck,
)


@record(frozen=True)
class BoxSlot:
    """A box consuming ``ins`` and producing ``outs``; a layer's other slots are wire names."""

    label: str
    ins: WireList
    outs: WireList


Slot = str | BoxSlot  # a wire is its name
Layer = tuple[Slot, ...]


@record(frozen=True)
class Sheet:
    """Flattened diagram: layers of boxes and wire names over an input wire list."""

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


def slot_out(slot: Slot) -> WireList:
    return slot.outs if slot.__class__ is BoxSlot else (slot,)


def layer_output(layer: Layer) -> WireList:
    return tuple([w for slot in layer for w in slot_out(slot)])


def sheet_output(sheet: Sheet) -> WireList:
    return layer_output(sheet.layers[-1]) if sheet.layers else sheet.input


def sheet_of_term(term: MorExpr, sig: Signature) -> Sheet:
    """Flatten a well-typed term into a sheet, in two passes over its nodes.

    Generators, declared-iso inverses and braidings hold one one-box layer,
    identities and structural isomorphisms none.  The first pass, children
    first, counts each node's layers: the sum for ``;``, the larger for
    ``*``.  The second, parents first, hands each node its first layer and
    extent: ``*`` gives both factors its own, ``;`` its first factor that
    one's count and its second the rest.  Each atom appends its box, then
    its output wire names to each layer left, top factor first, so a sheet
    takes time linear in its slots.  Each distinct atom is looked up once.
    """

    ty = typecheck(term, sig)
    nodes, kids = [term], []  # node positions, each before its factors; first factor's position
    for t in nodes:
        kids.append(len(nodes) if t.__class__ is Comp or t.__class__ is Tensor else 0)
        if kids[-1]:
            nodes += t.__dict__.values()
    counts, leaves = [0] * len(nodes), [None] * len(nodes)  # layer count; an atom's (ins, box, outs)
    atoms = {}  # atom -> its leaf
    for i in range(len(nodes) - 1, -1, -1):
        t, k = nodes[i], kids[i]
        if k:
            a, b = counts[k], counts[k + 1]
            counts[i] = a + b if t.__class__ is Comp else max(a, b)
            continue
        leaf = atoms.get(t)
        if leaf is None:
            (ins, outs), cls, label = atom_wires(t, sig), t.__class__, None
            if cls is MorGen or cls is Inv:
                label = t.name if cls is MorGen else f"inv:{t.name}"
            elif STRUCTURAL[cls][5] is not None:  # a crossing
                fa, fb = map(flatten_object, node_fields(t))
                # a unit-like half permutes nothing in any lawful backend: no box
                label = fa and fb and f"{STRUCTURAL[cls][0]}([{','.join(fa)}],[{','.join(fb)}])"
            leaf = atoms[t] = ins, BoxSlot(label, ins, outs) if label else None, outs
        leaves[i], counts[i] = leaf, 0 if leaf[1] is None else 1
    layers: list[list[Slot]] = [[] for _ in range(counts[0])]
    front: list[str] = []  # inputs of the atoms reached through no ';''s second factor
    todo = [(0, 0, counts[0], True)]  # (position, first layer, extent, on the input front)
    while todo:
        i, first, extent, on_front = todo.pop()
        while kids[i]:  # down the first factors, leaving each second for later
            k = kids[i]
            if nodes[i].__class__ is Comp:
                todo.append((k + 1, first + counts[k], extent - counts[k], False))
                extent = counts[k]
            else:
                todo.append((k + 1, first, extent, on_front))
            i = k
        ins, box, outs = leaves[i]
        if on_front:
            front += ins
        if box is not None:
            layers[first].append(box)
            first, extent = first + 1, extent - 1
        for k in range(first, first + extent):
            layers[k] += outs
    assert tuple(front) == flatten_object(ty.dom)
    return Sheet(tuple(front), tuple(map(tuple, layers)))


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
            if slot.__class__ is not BoxSlot:
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
                slots.append(names[w])
                nxt.append(w)
                i += 1
        kept.append(tuple(slots))
        boundary = nxt
    return tuple(kept)


def monoidal_eq(t1: MorExpr, t2: MorExpr, sig: Signature) -> Equal | NotDecided:
    """Decide equality of two same-boundary terms up to monoidal structure."""

    shared_boundary(t1, t2, sig)
    nf1 = canonicalize(sheet_of_term(t1, sig))
    nf2 = canonicalize(sheet_of_term(t2, sig))
    if nf1 == nf2:
        return Equal(nf1)
    return NotDecided(nf1, nf2)


def dump_normal_form(nf: NormalForm) -> str:
    """Stable one-line textual dump, used by the CLI and golden tests."""

    def slot_text(slot: Slot) -> str:
        if slot.__class__ is BoxSlot:
            return f"{slot.label}([{','.join(slot.ins)}]->[{','.join(slot.outs)}])"
        return f"wire({slot})"

    layers = ", ".join("[" + "|".join(slot_text(s) for s in layer) + "]" for layer in nf.layers)
    return (f"in=[{','.join(nf.input)}]; layers=[{layers}]; out=[{','.join(nf.output)}]")
