"""String-diagram layout and emission (SVG and TikZ).

Geometry is computed once into a tree of :class:`LayoutNode`; both
emitters serialize the same primitives, so their coordinates agree up
to unit scaling.  Composition places children side by side inside a
circumscribing group box, tensoring stacks them vertically in one, and
every group box is drawn, so the parenthesization of the source term is
always visible in the picture.  Children are placed by offsets relative
to their parent, which are resolved to absolute coordinates once, so
layout takes time linear in the size of the tree.  All arithmetic is
deterministic and floats are emitted with fixed precision: the same
term, signature and config produce byte-identical output.

Wires run as straight horizontal segments with a single vertical jog
between children whose port heights differ.  Boundary sides with no
wires (unit objects) are labeled ``I``.
"""

from __future__ import annotations

from dataclasses import field as dc_field
from typing import NamedTuple

from .coherence import atom_wires, flatten_object
from .parser import print_obj
from .terms import (
    STRUCTURAL,
    CatError,
    Comp,
    Id,
    Inv,
    MorExpr,
    MorGen,
    Signature,
    fold,
    node_fields,
    record,
    typecheck,
)


class RenderConfigError(CatError):
    """Bad render configuration value."""


@record
class RenderConfig:
    """Geometry and styling knobs; every dimension must be positive."""

    unit: float = 28.0           # vertical pitch per wire
    box_min_width: float = 54.0
    box_padding: float = 12.0    # inner padding of group boxes
    hgap: float = 34.0           # gap between composed children
    vgap: float = 16.0           # gap between tensored children
    font_size: float = 12.0
    stroke_width: float = 1.4
    group_stroke_width: float = 1.0
    boundary_stub: float = 26.0  # dangling boundary wire length
    margin: float = 10.0
    color: bool = False
    atom_boxes: bool = True      # draw the quadrilateral around atoms

    def __post_init__(self):
        for name in ("unit", "box_min_width", "box_padding", "hgap", "vgap",
                     "font_size", "stroke_width", "group_stroke_width",
                     "boundary_stub", "margin"):
            if getattr(self, name) <= 0:
                raise RenderConfigError(f"render config {name} must be positive")

    @classmethod
    def from_file(cls, path: str) -> "RenderConfig":
        """Read ``key = value`` lines (booleans: true/false)."""

        values: dict[str, object] = {}
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise RenderConfigError(f"bad config line {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in cls.__dataclass_fields__:
                    raise RenderConfigError(f"unknown config key {key!r}")
                if key in ("color", "atom_boxes"):
                    values[key] = value.lower() in ("true", "1", "yes", "on")
                else:
                    values[key] = float(value)
        return cls(**values)


Port = tuple[float, str]  # (y coordinate, wire label)


@record
class LayoutNode:
    """A positioned diagram element; coordinates are absolute after layout."""

    kind: str  # genbox isobox invbox idwire structbox braidcross compgroup tensorgroup diagram marker
    x: float
    y: float
    w: float
    h: float
    label: str = ""
    in_ports: list[Port] = dc_field(default_factory=list)
    out_ports: list[Port] = dc_field(default_factory=list)
    children: list["LayoutNode"] = dc_field(default_factory=list)
    wires: list[list[tuple[float, float]]] = dc_field(default_factory=list)
    emphasized: bool = False
    depth: int = 0


def _spread(h: float, labels: tuple[str, ...]) -> list[Port]:
    n = len(labels)
    return [(h * (i + 1) / (n + 1), labels[i]) for i in range(n)]


def _box(cfg: RenderConfig, kind: str, label: str,
         ins: tuple[str, ...], outs: tuple[str, ...], emphasized: bool = False) -> LayoutNode:
    h = cfg.unit * max(len(ins), len(outs), 1)
    w = max(cfg.box_min_width, cfg.font_size * 0.62 * len(label) + 2 * cfg.box_padding)
    return LayoutNode(kind, 0.0, 0.0, w, h, label, _spread(h, ins), _spread(h, outs), [], [],
                      emphasized, 0)


def _connect(a: tuple[float, float], b: tuple[float, float]) -> list[tuple[float, float]]:
    (x1, y1), (x2, y2) = a, b
    if y1 == y2:
        return [(x1, y1), (x2, y2)]
    midx = (x1 + x2) / 2.0
    return [(x1, y1), (midx, y1), (midx, y2), (x2, y2)]


def layout(term: MorExpr, sig: Signature, cfg: RenderConfig | None = None) -> LayoutNode:
    """Compute the layout tree of a well-typed term.

    The root is a ``diagram`` node holding the term's node plus dangling
    boundary wires and their object labels.  Nodes are built bottom-up,
    each in its own frame with its children's ``x``/``y`` their offsets
    inside it; one top-down pass then makes every coordinate absolute.
    """

    cfg = cfg or RenderConfig()
    typecheck(term, sig)

    def atom(t: MorExpr) -> LayoutNode:
        ins, outs = atom_wires(t, sig)
        cls = type(t)
        if cls is MorGen:
            iso = sig.morphism(t.name).iso
            return _box(cfg, "isobox" if iso else "genbox", t.name, ins, outs, emphasized=iso)
        if cls is Inv:
            gen = _box(cfg, "isobox", t.name, ins, outs, emphasized=True)
            side = cfg.unit * 0.6
            marker = LayoutNode("marker", 0.0, (gen.h - side) / 2.0, side, side, "-1", [], [], [],
                                [], False, 0)
            gen.x = marker.w
            return LayoutNode("invbox", 0.0, 0.0, marker.w + gen.w, gen.h, "", gen.in_ports,
                              gen.out_ports, [marker, gen],
                              [_connect((0.0, y), (gen.x, y)) for y, _ in gen.in_ports], False, 0)
        if cls is Id:
            h, w = cfg.unit * max(len(ins), 1), cfg.box_min_width
            ports = _spread(h, ins)
            return LayoutNode("idwire", 0.0, 0.0, w, h, "" if ins else "I", ports, _spread(h, ins),
                              [], [[(0.0, y), (w, y)] for y, _ in ports], False, 0)
        halves = STRUCTURAL[cls][5]
        if halves is not None:
            h, w = cfg.unit * max(len(ins), 1), cfg.box_min_width * 1.2
            in_ports, out_ports = _spread(h, ins), _spread(h, outs)
            # straight diagonals: input i leaves at output i + len(second half), cyclically
            shift = len(flatten_object(halves(*node_fields(t))[1]))
            wires = [[(0.0, in_ports[i][0]), (w, out_ports[(i + shift) % len(ins)][0])]
                     for i in range(len(ins))]
            return LayoutNode("braidcross", 0.0, 0.0, w, h, "", in_ports, out_ports, [], wires,
                              False, 0)
        label = f"{STRUCTURAL[cls][4]}[{','.join(map(print_obj, node_fields(t)))}]"
        return _box(cfg, "structbox", label, ins, outs, emphasized=True)

    def group(t: MorExpr, a: LayoutNode, b: LayoutNode) -> LayoutNode:
        pad = cfg.box_padding
        if isinstance(t, Comp):
            maxh = max(a.h, b.h)
            a.x, a.y = pad, pad + (maxh - a.h) / 2.0
            b.x, b.y = pad + (a.w + cfg.hgap), pad + (maxh - b.h) / 2.0
            w = b.x + (b.w + cfg.hgap) - cfg.hgap + pad
            in_ports = [(y + a.y, s) for y, s in a.in_ports]
            out_ports = [(y + b.y, s) for y, s in b.out_ports]
            wires = [_connect((a.x + a.w, ya + a.y), (b.x, yb + b.y))
                     for (ya, _), (yb, _) in zip(a.out_ports, b.in_ports)]
            wires += [_connect((0.0, y), (a.x, y)) for y, _ in in_ports]
            wires += [_connect((b.x + b.w, y), (w, y)) for y, _ in out_ports]
            return LayoutNode("compgroup", 0.0, 0.0, w, maxh + 2 * pad, "", in_ports, out_ports,
                              [a, b], wires, False, 0)
        maxw = max(a.w, b.w)
        y = pad
        for child in (a, b):
            child.x, child.y = pad + (maxw - child.w) / 2.0, y
            y += child.h + cfg.vgap
        node = LayoutNode("tensorgroup", 0.0, 0.0, maxw + 2 * pad, y - cfg.vgap + pad, "", [], [],
                          [a, b], [], False, 0)
        for child in (a, b):
            ins = [(py + child.y, s) for py, s in child.in_ports]
            outs = [(py + child.y, s) for py, s in child.out_ports]
            node.in_ports += ins
            node.out_ports += outs
            node.wires += [_connect((0.0, py), (child.x, py)) for py, _ in ins]
            node.wires += [_connect((child.x + child.w, py), (node.w, py)) for py, _ in outs]
        return node

    inner = fold(term, atom, group, group)

    stub = cfg.boundary_stub
    inner.x, inner.y = cfg.margin + stub, cfg.margin
    in_ports = [(y + inner.y, s) for y, s in inner.in_ports]
    out_ports = [(y + inner.y, s) for y, s in inner.out_ports]
    wires = [_connect((cfg.margin, y), (inner.x, y)) for y, _ in in_ports]
    wires += [_connect((inner.x + inner.w, y), (inner.x + inner.w + stub, y))
              for y, _ in out_ports]
    root = LayoutNode("diagram", 0.0, 0.0, inner.w + 2 * stub + 2 * cfg.margin,
                      inner.h + 2 * cfg.margin, "", in_ports, out_ports, [inner], wires, False, 0)

    # resolve offsets once: each node's origin is its parent's plus its
    # offset; a group's depth counts it and the groups around it
    frames = [(inner, 0.0, 0.0, 1)]
    while frames:
        node, px, py, depth = frames.pop()
        x = node.x = px + node.x
        y = node.y = py + node.y
        node.in_ports = [(v + y, s) for v, s in node.in_ports]
        node.out_ports = [(v + y, s) for v, s in node.out_ports]
        node.wires = [[(u + x, v + y) for u, v in line] for line in node.wires]
        if node.kind in ("compgroup", "tensorgroup"):
            node.depth = depth
        frames += [(child, x, y, depth + 1) for child in node.children]
    return root


# ---------------------------------------------------------------------------
# Shared primitive extraction
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


def emit_svg(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    """Serialize a layout to a standalone SVG 1.1 document."""

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
        elif rect.style == "structbox":
            extra = f'fill="#f2f2f2" stroke="#000" stroke-width="{_fmt(cfg.stroke_width)}"'
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


def emit_tikz(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    """Serialize a layout to standalone TikZ picture source.

    Coordinates are the SVG ones divided by the configured unit (and the
    y axis flipped), so the two outputs agree up to scaling.
    """

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
            "structbox": "fill=black!5",
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
