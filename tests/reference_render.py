"""The shift-based layout and the per-number emitters that
``monocat.render`` replaced.

Each child is built at the origin and then moved into place by
``_shift``, which walks the child's whole subtree, so a left-nested
chain of n atoms costs O(n²) and recurses once per nesting level.  Kept
as the reference the offset-based layout is tested against: under the
default config both must give byte-identical SVG and TikZ, and under
any config the same tree with coordinates equal up to rounding.

The reference emitters format one number per call and build a record per
rect and text; the emitters of ``monocat.render`` format each element with
one template and must print the same bytes under any config.
"""

from __future__ import annotations

from typing import NamedTuple

from monocat.coherence import flatten_object
from monocat.parser import print_obj
from monocat.render import LayoutNode, RenderConfig, _box, _spread
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


def _connect(a: tuple[float, float], b: tuple[float, float]) -> list[tuple[float, float]]:
    (x1, y1), (x2, y2) = a, b
    if y1 == y2:
        return [(x1, y1), (x2, y2)]
    midx = (x1 + x2) / 2.0
    return [(x1, y1), (midx, y1), (midx, y2), (x2, y2)]


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


# ---------------------------------------------------------------------------
# Per-number emitters
# ---------------------------------------------------------------------------


class _Rect(NamedTuple):
    x: float
    y: float
    w: float
    h: float
    style: str
    depth: int = 0


class _Text(NamedTuple):
    x: float
    y: float
    s: str
    anchor: str  # start middle end
    small: bool = False


def _primitives(root: LayoutNode, cfg: RenderConfig):
    rects: list[_Rect] = []
    lines: list[list[tuple[float, float]]] = []  # wire polylines
    texts: list[_Text] = []

    # iterative post-order: children first, each node after its subtree
    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        if not ready:
            todo.append((node, True))
            todo += [(child, False) for child in reversed(node.children)]
            continue
        lines += node.wires
        if node.kind in ("genbox", "isobox", "structbox", "marker"):
            if cfg.atom_boxes or node.kind == "marker":
                style = "isobox" if node.emphasized and node.kind != "marker" else node.kind
                rects.append(_Rect(node.x, node.y, node.w, node.h, style))
            texts.append(_Text(node.x + node.w / 2.0, node.y + node.h / 2.0,
                               node.label, "middle"))
            for y, s in node.in_ports:
                texts.append(_Text(node.x - 3.0, y - 3.0, s, "end", small=True))
            for y, s in node.out_ports:
                texts.append(_Text(node.x + node.w + 3.0, y - 3.0, s, "start", small=True))
            if not node.in_ports and node.kind != "marker":
                texts.append(_Text(node.x - 3.0, node.y + node.h / 2.0, "I", "end", small=True))
            if not node.out_ports and node.kind != "marker":
                texts.append(_Text(node.x + node.w + 3.0, node.y + node.h / 2.0, "I",
                                   "start", small=True))
        elif node.kind == "idwire":
            for y, s in node.in_ports:
                texts.append(_Text(node.x - 3.0, y - 3.0, s, "end", small=True))
            for y, s in node.out_ports:
                texts.append(_Text(node.x + node.w + 3.0, y - 3.0, s, "start", small=True))
            if node.label:
                texts.append(_Text(node.x + node.w / 2.0, node.y + node.h / 2.0,
                                   node.label, "middle", small=True))
        elif node.kind in ("compgroup", "tensorgroup"):
            rects.append(_Rect(node.x, node.y, node.w, node.h, "group", depth=node.depth))
        elif node.kind == "diagram":
            for (y, s), wire in zip(node.in_ports, node.wires[:len(node.in_ports)]):
                texts.append(_Text(wire[0][0] - 3.0, y - 3.0, s, "end", small=True))
            for (y, s), wire in zip(node.out_ports, node.wires[len(node.in_ports):]):
                texts.append(_Text(wire[-1][0] + 3.0, y - 3.0, s, "start", small=True))
            if not node.in_ports:
                texts.append(_Text(node.x + 3.0, node.y + node.h / 2.0, "I", "start",
                                   small=True))
            if not node.out_ports:
                texts.append(_Text(node.x + node.w - 3.0, node.y + node.h / 2.0, "I", "end",
                                   small=True))
    return rects, lines, texts


_PALETTE = ("#7e57c2", "#1e88e5", "#43a047", "#fb8c00", "#d81b60")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def reference_emit_svg(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    cfg = cfg or RenderConfig()
    rects, lines, texts = _primitives(root, cfg)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(root.w)}" height="{_fmt(root.h)}" '
        f'viewBox="0 0 {_fmt(root.w)} {_fmt(root.h)}">',
    ]
    for line in lines:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in line)
        out.append(f'<polyline class="wire" points="{pts}" fill="none" '
                   f'stroke="#000" stroke-width="{_fmt(cfg.stroke_width)}"/>')
    for rect in rects:
        if rect.style == "group":
            stroke = _PALETTE[rect.depth % len(_PALETTE)] if cfg.color else "#999999"
            extra = (f'fill="none" stroke="{stroke}" '
                     f'stroke-width="{_fmt(cfg.group_stroke_width)}" stroke-dasharray="4,3"')
        elif rect.style == "isobox":
            extra = f'fill="#ffffff" stroke="#000" stroke-width="{_fmt(cfg.stroke_width * 2)}"'
        else:  # genbox, marker
            extra = f'fill="#ffffff" stroke="#000" stroke-width="{_fmt(cfg.stroke_width)}"'
        out.append(f'<rect class="{rect.style}" x="{_fmt(rect.x)}" y="{_fmt(rect.y)}" '
                   f'width="{_fmt(rect.w)}" height="{_fmt(rect.h)}" {extra}/>')
    for text in texts:
        size = cfg.font_size * (0.75 if text.small else 1.0)
        baseline = ' dominant-baseline="middle"' if text.anchor == "middle" else ""
        out.append(f'<text class="label" x="{_fmt(text.x)}" y="{_fmt(text.y)}" '
                   f'font-family="monospace" font-size="{_fmt(size)}" '
                   f'text-anchor="{"middle" if text.anchor == "middle" else text.anchor}"'
                   f'{baseline}>{_xml_escape(text.s)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_TEX_MAP = {"α": r"$\alpha$", "λ": r"$\lambda$", "ρ": r"$\rho$", "⁻¹": r"$^{-1}$", "_": r"\_"}


def _tex_escape(s: str) -> str:
    for k, v in _TEX_MAP.items():
        s = s.replace(k, v)
    return s.replace("$$", "")


def reference_emit_tikz(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    cfg = cfg or RenderConfig()
    rects, lines, texts = _primitives(root, cfg)
    scale = 1.0 / cfg.unit

    def pt(x: float, y: float) -> str:
        return f"({x * scale:.3f},{-y * scale:.3f})"

    out = [r"\begin{tikzpicture}[every node/.style={font=\small}]"]
    for line in lines:
        path = " -- ".join(pt(x, y) for x, y in line)
        out.append(rf"\draw {path};")
    for rect in rects:
        style = {
            "group": "densely dashed, gray",
            "isobox": "very thick, fill=white",
            "marker": "fill=white",
            "genbox": "fill=white",
        }[rect.style]
        out.append(rf"\draw[{style}] {pt(rect.x, rect.y)} rectangle "
                   rf"{pt(rect.x + rect.w, rect.y + rect.h)};")
    for text in texts:
        anchor = {"start": "west", "end": "east", "middle": "center"}[text.anchor]
        out.append(rf"\node[anchor={anchor}] at {pt(text.x, text.y)} "
                   rf"{{{_tex_escape(text.s)}}};")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"
