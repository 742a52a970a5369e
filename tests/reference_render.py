"""The shift-based layout that ``monocat.render.layout`` replaced.

Each child is built at the origin and then moved into place by
``_shift``, which walks the child's whole subtree, so a left-nested
chain of n atoms costs O(n²) and recurses once per nesting level.  Kept
as the reference the offset-based layout is tested against: under the
default config both must give byte-identical SVG and TikZ, and under
any config the same tree with coordinates equal up to rounding.
"""

from __future__ import annotations

from monocat.coherence import flatten_object
from monocat.parser import print_obj
from monocat.render import LayoutNode, RenderConfig, _box, _connect, _spread
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
    RUnit,
    RUnitInv,
    Signature,
    Tensor,
    typecheck,
)


def _shift(node: LayoutNode, dx: float, dy: float) -> None:
    node.x += dx
    node.y += dy
    node.in_ports = [(y + dy, s) for y, s in node.in_ports]
    node.out_ports = [(y + dy, s) for y, s in node.out_ports]
    node.wires = [[(px + dx, py + dy) for px, py in line] for line in node.wires]
    for child in node.children:
        _shift(child, dx, dy)


def reference_layout(term: MorExpr, sig: Signature,
                     cfg: RenderConfig | None = None) -> LayoutNode:
    cfg = cfg or RenderConfig()
    typecheck(term, sig)

    def build(t: MorExpr, depth: int) -> LayoutNode:
        if isinstance(t, MorGen):
            decl = sig.morphism(t.name)
            kind = "isobox" if decl.iso else "genbox"
            return _box(cfg, kind, t.name, flatten_object(decl.dom),
                        flatten_object(decl.cod), emphasized=decl.iso)
        if isinstance(t, Inv):
            decl = sig.morphism(t.name)
            gen = _box(cfg, "isobox", t.name, flatten_object(decl.cod),
                       flatten_object(decl.dom), emphasized=True)
            marker = LayoutNode("marker", 0.0, 0.0, cfg.unit * 0.6, cfg.unit * 0.6,
                                label="-1")
            node = LayoutNode("invbox", 0.0, 0.0, marker.w + gen.w, gen.h)
            _shift(gen, marker.w, 0.0)
            _shift(marker, 0.0, (gen.h - marker.h) / 2.0)
            node.children = [marker, gen]
            node.in_ports = [(y, s) for y, s in gen.in_ports]
            node.out_ports = gen.out_ports
            node.wires = [_connect((0.0, y), (gen.x, y)) for y, _ in gen.in_ports]
            return node
        if isinstance(t, Id):
            wires = flatten_object(t.obj)
            h = cfg.unit * max(len(wires), 1)
            node = LayoutNode("idwire", 0.0, 0.0, cfg.box_min_width, h,
                              label="" if wires else "I",
                              in_ports=_spread(h, wires), out_ports=_spread(h, wires))
            node.wires = [[(0.0, y), (node.w, y)] for y, _ in node.in_ports]
            return node
        if isinstance(t, (Assoc, AssocInv, LUnit, LUnitInv, RUnit, RUnitInv)):
            label = f"{STRUCTURAL[type(t)][4]}[{','.join(map(print_obj, vars(t).values()))}]"
            wires = tuple(w for o in vars(t).values() for w in flatten_object(o))
            return _box(cfg, "structbox", label, wires, wires, emphasized=True)
        if isinstance(t, (Braid, BraidInv)):
            if isinstance(t, Braid):
                first, second = flatten_object(t.a), flatten_object(t.b)
            else:
                first, second = flatten_object(t.b), flatten_object(t.a)
            ins = first + second
            outs = second + first
            h = cfg.unit * max(len(ins), 1)
            node = LayoutNode("braidcross", 0.0, 0.0, cfg.box_min_width * 1.2, h,
                              in_ports=_spread(h, ins), out_ports=_spread(h, outs))
            p, q = len(first), len(second)
            for i in range(p):
                node.wires.append([(0.0, node.in_ports[i][0]),
                                   (node.w, node.out_ports[q + i][0])])
            for j in range(q):
                node.wires.append([(0.0, node.in_ports[p + j][0]),
                                   (node.w, node.out_ports[j][0])])
            return node
        if isinstance(t, Comp):
            children = [build(c, depth + 1) for c in (t.first, t.second)]
            pad = cfg.box_padding
            maxh = max(c.h for c in children)
            x = pad
            for child in children:
                _shift(child, x, pad + (maxh - child.h) / 2.0)
                x += child.w + cfg.hgap
            w = x - cfg.hgap + pad
            node = LayoutNode("compgroup", 0.0, 0.0, w, maxh + 2 * pad,
                              children=children, depth=depth)
            a, b = children
            for (ya, sa), (yb, _sb) in zip(a.out_ports, b.in_ports):
                node.wires.append(_connect((a.x + a.w, ya), (b.x, yb)))
            node.in_ports = [(y, s) for y, s in a.in_ports]
            node.out_ports = [(y, s) for y, s in b.out_ports]
            node.wires += [_connect((0.0, y), (a.x, y)) for y, _ in a.in_ports]
            node.wires += [_connect((b.x + b.w, y), (w, y)) for y, _ in b.out_ports]
            return node
        if isinstance(t, Tensor):
            children = [build(c, depth + 1) for c in (t.top, t.bottom)]
            pad = cfg.box_padding
            maxw = max(c.w for c in children)
            y = pad
            for child in children:
                _shift(child, pad + (maxw - child.w) / 2.0, y)
                y += child.h + cfg.vgap
            h = y - cfg.vgap + pad
            node = LayoutNode("tensorgroup", 0.0, 0.0, maxw + 2 * pad, h,
                              children=children, depth=depth)
            for child in children:
                node.in_ports += [(py, s) for py, s in child.in_ports]
                node.out_ports += [(py, s) for py, s in child.out_ports]
                node.wires += [_connect((0.0, py), (child.x, py)) for py, _ in child.in_ports]
                node.wires += [_connect((child.x + child.w, py), (node.w, py))
                               for py, _ in child.out_ports]
            return node
        raise TypeError(f"cannot lay out {t!r}")

    inner = build(term, 1)
    stub = cfg.boundary_stub
    root = LayoutNode("diagram", 0.0, 0.0, inner.w + 2 * stub + 2 * cfg.margin,
                      inner.h + 2 * cfg.margin, children=[inner])
    _shift(inner, cfg.margin + stub, cfg.margin)
    root.in_ports = [(y, s) for y, s in inner.in_ports]
    root.out_ports = [(y, s) for y, s in inner.out_ports]
    root.wires = [_connect((cfg.margin, y), (inner.x, y)) for y, _ in inner.in_ports]
    root.wires += [_connect((inner.x + inner.w, y), (inner.x + inner.w + stub, y))
                   for y, _ in inner.out_ports]
    return root
