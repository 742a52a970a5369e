"""String-diagram layout and emission (SVG and TikZ).

Geometry is computed once into a tree of :class:`LayoutNode`; both
emitters serialize the same primitives, so their coordinates agree up
to unit scaling.  Composition places children side by side inside a
circumscribing group box, tensoring stacks them vertically in one, and
every group box is drawn, so the parenthesization of the source term is
always visible in the picture.  Layout takes two passes, each linear in
the size of the tree: shapes go up (each subterm's size, port heights and
children's offsets in its own frame, each distinct atom shaped once per
call), then nodes come down, each built once in absolute coordinates
with its ports and wires.  All arithmetic is deterministic and floats
are emitted with fixed precision: the same term, signature and config
produce byte-identical output.  Each SVG or TikZ element is formatted
once, by one ``%`` over a template whose constant parts are formatted
once per call.

Wires run as straight horizontal segments with a single vertical jog
between children whose port heights differ.  Boundary sides with no
wires (unit objects) are labeled ``I``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import field as dc_field

from .terms import (
    STRUCTURAL,
    CatError,
    Id,
    Inv,
    MorExpr,
    MorGen,
    Signature,
    atom_wires,
    flatten_object,
    fold,
    node_fields,
    print_obj,
    record,
    typecheck,
)


class RenderConfigError(CatError):
    """Bad render configuration value."""


_FLAGS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


@record
class RenderConfig:
    """Geometry and styling knobs; every dimension must be positive and finite."""

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
        for name, spec in self.__dataclass_fields__.items():  # sizes have float defaults
            if type(spec.default) is float and not 0 < getattr(self, name) < float("inf"):
                raise RenderConfigError(f"render config {name} must be positive and finite")

    @classmethod
    def from_file(cls, path: str) -> "RenderConfig":
        """Read ``key = value`` lines (booleans: true/false, 1/0, yes/no or
        on/off, in any case)."""

        values: dict[str, object] = {}
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                raise RenderConfigError(f"render config {path} is not UTF-8 text") from None
            for raw in text.split("\n"):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise RenderConfigError(f"bad config line {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in cls.__dataclass_fields__:
                    raise RenderConfigError(f"unknown config key {key!r}")
                if type(cls.__dataclass_fields__[key].default) is bool:
                    values[key] = _FLAGS.get(value.lower())
                    if values[key] is None:
                        raise RenderConfigError(f"render config {key} must be true or false "
                                                "(or 1/0, yes/no, on/off)")
                else:
                    try:
                        values[key] = float(value)
                    except ValueError:
                        raise RenderConfigError(f"render config {key} must be a number") from None
        return cls(**values)


Port = tuple[float, str]  # (y coordinate, wire label)


@record
class LayoutNode:
    """A positioned diagram element; its coordinates, ports and wires are absolute."""

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


# A subterm's layout in its own frame, never changed once made: ports are heights in it, wires
# an atom's own polylines, children ``(shape, dx, dy)`` triples placing each child shape in it
_Shape = namedtuple("_Shape", "kind w h label in_ports out_ports emphasized wires children")


def layout(term: MorExpr, sig: Signature, cfg: RenderConfig | None = None) -> LayoutNode:
    """Compute the layout tree of a well-typed term.

    The root is a ``diagram`` node holding the term's node plus dangling
    boundary wires and their object labels.  Children first, each subterm
    gets a shape; a repeated atom gets its first one back, so each distinct
    atom is sized once.  Then parents first, each node is made once, with
    absolute coordinates, ports and wires; a group's wires are drawn from
    its children's shapes and offsets.
    """

    cfg = cfg or RenderConfig()
    typecheck(term, sig)
    seen: dict[MorExpr, _Shape] = {}  # atom -> its shape

    def atom(t: MorExpr) -> _Shape:  # a shape is a nonempty tuple, so never false
        return seen.get(t) or seen.setdefault(t, atom_shape(t))

    def boxed(kind: str, label: str, ins, outs, emphasized: bool) -> _Shape:
        box = _box(cfg, kind, label, ins, outs, emphasized)
        return _Shape(kind, box.w, box.h, label, box.in_ports, box.out_ports, emphasized, [], ())

    def atom_shape(t: MorExpr) -> _Shape:
        ins, outs = atom_wires(t, sig)
        cls = type(t)
        if cls is MorGen:
            iso = sig.morphism(t.name).iso
            return boxed("isobox" if iso else "genbox", t.name, ins, outs, iso)
        if cls is Inv:
            gen = boxed("isobox", t.name, ins, outs, True)
            side = cfg.unit * 0.6
            marker = _Shape("marker", side, side, "-1", [], [], False, [], ())
            return _Shape("invbox", side + gen.w, gen.h, "", gen.in_ports, gen.out_ports, False,
                          [[(0.0, y), (side, y)] for y, _ in gen.in_ports],
                          ((marker, 0.0, (gen.h - side) / 2.0), (gen, side, 0.0)))
        if cls is Id:
            h, w = cfg.unit * max(len(ins), 1), cfg.box_min_width
            ports = _spread(h, ins)
            return _Shape("idwire", w, h, "" if ins else "I", ports, ports, False,
                          [[(0.0, y), (w, y)] for y, _ in ports], ())
        halves = STRUCTURAL[cls][5]
        if halves is not None:
            h, w = cfg.unit * max(len(ins), 1), cfg.box_min_width * 1.2
            in_ports, out_ports = _spread(h, ins), _spread(h, outs)
            # straight diagonals: input i leaves at output i + len(second half), cyclically
            shift = len(flatten_object(halves(*node_fields(t))[1]))
            wires = [[(0.0, in_ports[i][0]), (w, out_ports[(i + shift) % len(ins)][0])]
                     for i in range(len(ins))]
            return _Shape("braidcross", w, h, "", in_ports, out_ports, False, wires, ())
        label = f"{STRUCTURAL[cls][4]}[{','.join(map(print_obj, node_fields(t)))}]"
        return boxed("structbox", label, ins, outs, True)

    pad, hgap, vgap = cfg.box_padding, cfg.hgap, cfg.vgap

    def comp(t: MorExpr, a: _Shape, b: _Shape) -> _Shape:
        maxh = max(a.h, b.h)
        ay, bx, by = pad + (maxh - a.h) / 2.0, pad + (a.w + hgap), pad + (maxh - b.h) / 2.0
        return _Shape("compgroup", bx + (b.w + hgap) - hgap + pad, maxh + 2 * pad, "",
                      [(y + ay, s) for y, s in a.in_ports], [(y + by, s) for y, s in b.out_ports],
                      False, [], ((a, pad, ay), (b, bx, by)))

    def tensor(t: MorExpr, a: _Shape, b: _Shape) -> _Shape:
        maxw = max(a.w, b.w)
        by = pad + (a.h + vgap)  # the top factor sits at pad
        ins = [(y + pad, s) for y, s in a.in_ports] + [(y + by, s) for y, s in b.in_ports]
        outs = [(y + pad, s) for y, s in a.out_ports] + [(y + by, s) for y, s in b.out_ports]
        kids = ((a, pad + (maxw - a.w) / 2.0, pad), (b, pad + (maxw - b.w) / 2.0, by))
        return _Shape("tensorgroup", maxw + 2 * pad, by + (b.h + vgap) - vgap + pad, "",
                      ins, outs, False, [], kids)

    inner = fold(term, atom, comp, tensor)
    margin, stub = cfg.margin, cfg.boundary_stub
    diagram = _Shape("diagram", inner.w + 2 * stub + 2 * margin, inner.h + 2 * margin, "",
                     [(y + margin, s) for y, s in inner.in_ports],
                     [(y + margin, s) for y, s in inner.out_ports], False, [],
                     ((inner, margin + stub, margin),))

    # each node once, at its parent's origin plus its offset; a group's depth
    # counts it and the groups around it
    top: list[LayoutNode] = []
    todo = [(diagram, 0.0, 0.0, top, 0)]
    while todo:
        shape, x, y, siblings, depth = todo.pop()
        kind, w, h, label, ins, outs, emphasized, own, kids = shape
        in_ports, out_ports = [(v + y, s) for v, s in ins], [(v + y, s) for v, s in outs]
        if kind == "compgroup":
            (a, ax, ay), (b, bx, by) = kids
            x1 = ax + a.w  # a wire between ports at different heights jogs at mid
            mid, x1, x2 = (x1 + bx) / 2.0 + x, x1 + x, bx + x
            wires = []
            for (ya, _), (yb, _) in zip(a.out_ports, b.in_ports):
                y1, y2 = ya + ay, yb + by  # compared in the frame, where rounding set them
                v1, v2 = y1 + y, y2 + y
                wires.append([(x1, v1), (x2, v2)] if y1 == y2 else
                             [(x1, v1), (mid, v1), (mid, v2), (x2, v2)])
            wires += [[(x, v), (ax + x, v)] for v, _ in in_ports]
            wires += [[(bx + b.w + x, v), (w + x, v)] for v, _ in out_ports]
        elif kind == "tensorgroup":
            wires = []
            for c, cx, cy in kids:
                left, right = cx + x, cx + c.w + x
                wires += [[(x, v), (left, v)] for v in [py + cy + y for py, _ in c.in_ports]]
                wires += [[(right, v), (w + x, v)] for v in [py + cy + y for py, _ in c.out_ports]]
        elif kind == "diagram":  # at the origin, so its frame values are absolute
            ((c, cx, _),) = kids
            right = cx + c.w
            wires = [[(margin, v), (cx, v)] for v, _ in in_ports]
            wires += [[(right, v), (right + stub, v)] for v, _ in out_ports]
        else:
            wires = [[(u + x, v + y) for u, v in line] for line in own]
        node = LayoutNode(kind, x, y, w, h, label, in_ports, out_ports, [], wires, emphasized,
                          depth if kind == "compgroup" or kind == "tensorgroup" else 0)
        siblings.append(node)
        for c, dx, dy in reversed(kids):
            todo.append((c, x + dx, y + dy, node.children, depth + 1))
    return top[0]


# ---------------------------------------------------------------------------
# Shared primitive extraction
# ---------------------------------------------------------------------------


def _primitives(root: LayoutNode, cfg: RenderConfig):
    """The wire polylines, rects ``(x, y, w, h, style, depth)`` and texts
    ``(x, y, label, anchor, small)`` of a layout, each node's after its
    subtree's; ``anchor`` is start, middle or end."""

    nodes, todo = [], [root]
    while todo:  # parents first, last child first: the post-order reversed
        node = todo.pop()
        nodes.append(node)
        todo += node.children
    lines: list[list[tuple[float, float]]] = []
    rects: list[tuple] = []
    texts: list[tuple] = []
    for node in reversed(nodes):
        kind, x, y, w, h = node.kind, node.x, node.y, node.w, node.h
        lines += node.wires
        if kind in ("compgroup", "tensorgroup"):
            rects.append((x, y, w, h, "group", node.depth))
        elif kind == "diagram":
            ins = node.in_ports
            texts += [(wire[0][0] - 3.0, py - 3.0, s, "end", True)
                      for (py, s), wire in zip(ins, node.wires[:len(ins)])]
            texts += [(wire[-1][0] + 3.0, py - 3.0, s, "start", True)
                      for (py, s), wire in zip(node.out_ports, node.wires[len(ins):])]
            if not ins:
                texts.append((x + 3.0, y + h / 2.0, "I", "start", True))
            if not node.out_ports:
                texts.append((x + w - 3.0, y + h / 2.0, "I", "end", True))
        elif kind in ("genbox", "isobox", "structbox", "marker", "idwire"):
            wired = kind == "idwire"
            if not wired:
                if cfg.atom_boxes or kind == "marker":
                    style = "isobox" if node.emphasized and kind != "marker" else kind
                    rects.append((x, y, w, h, style, 0))
                texts.append((x + w / 2.0, y + h / 2.0, node.label, "middle", False))
            texts += [(x - 3.0, py - 3.0, s, "end", True) for py, s in node.in_ports]
            texts += [(x + w + 3.0, py - 3.0, s, "start", True) for py, s in node.out_ports]
            if wired:
                if node.label:
                    texts.append((x + w / 2.0, y + h / 2.0, node.label, "middle", True))
            elif kind != "marker":
                if not node.in_ports:
                    texts.append((x - 3.0, y + h / 2.0, "I", "end", True))
                if not node.out_ports:
                    texts.append((x + w + 3.0, y + h / 2.0, "I", "start", True))
    return lines, rects, texts


_PALETTE = ("#7e57c2", "#1e88e5", "#43a047", "#fb8c00", "#d81b60")


def emit_svg(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    """Serialize a layout to a standalone SVG 1.1 document."""

    cfg = cfg or RenderConfig()
    lines, rects, texts = _primitives(root, cfg)
    stroke = "%.2f" % cfg.stroke_width
    wire = {n: f'<polyline class="wire" points="{" ".join(["%.2f,%.2f"] * n)}" fill="none" '
               f'stroke="#000" stroke-width="{stroke}"/>' for n in set(map(len, lines))}

    def rect(style: str, extra: str) -> str:
        return f'<rect class="{style}" x="%.2f" y="%.2f" width="%.2f" height="%.2f" {extra}/>'

    groups = [rect("group", f'fill="none" stroke="{color}" stroke-width='
                            f'"{"%.2f" % cfg.group_stroke_width}" stroke-dasharray="4,3"')
              for color in (_PALETTE if cfg.color else ("#999999",))]
    boxes = {style: rect(style, f'fill="#ffffff" stroke="#000" stroke-width="{width}"')
             for style, width in (("isobox", "%.2f" % (cfg.stroke_width * 2)),
                                  ("genbox", stroke), ("marker", stroke))}
    labels = {(anchor, small): f'<text class="label" x="%.2f" y="%.2f" font-family="monospace" '
                               f'font-size="{"%.2f" % (cfg.font_size * (0.75 if small else 1.0))}" '
                               f'text-anchor="{anchor}"{baseline}>%s</text>'
              for anchor, baseline in (("start", ""), ("end", ""),
                                       ("middle", ' dominant-baseline="middle"'))
              for small in (False, True)}
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="%.2f" height="%.2f" '
           'viewBox="0 0 %.2f %.2f">' % (root.w, root.h, root.w, root.h)]
    out += [wire[len(line)] % sum(line, ()) for line in lines]
    out += [(groups[depth % len(groups)] if style == "group" else boxes[style]) % (x, y, w, h)
            for x, y, w, h, style, depth in rects]
    out += [labels[anchor, small] % (x, y, _xml_escape(s)) for x, y, s, anchor, small in texts]
    out += ("</svg>", "")  # the empty last line ends the text, and the text is built once
    return "\n".join(out)


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_TEX_MAP = {"α": r"$\alpha$", "λ": r"$\lambda$", "ρ": r"$\rho$", "⁻¹": r"$^{-1}$", "_": r"\_"}


def _tex_escape(s: str) -> str:
    if s.isascii() and "_" not in s and "$" not in s:  # nothing to map, no "$$" to drop
        return s
    for k, v in _TEX_MAP.items():
        s = s.replace(k, v)
    return s.replace("$$", "")


_TIKZ_STYLES = {
    "group": "densely dashed, gray",
    "isobox": "very thick, fill=white",
    "marker": "fill=white",
    "genbox": "fill=white",
}


def emit_tikz(root: LayoutNode, cfg: RenderConfig | None = None) -> str:
    """Serialize a layout to standalone TikZ picture source.

    Coordinates are the SVG ones divided by the configured unit (and the
    y axis flipped), so the two outputs agree up to scaling.
    """

    cfg = cfg or RenderConfig()
    lines, rects, texts = _primitives(root, cfg)
    scale = 1.0 / cfg.unit
    path = {n: rf"\draw {' -- '.join(['(%.3f,%.3f)'] * n)};" for n in set(map(len, lines))}
    boxes = {style: rf"\draw[{words}] (%.3f,%.3f) rectangle (%.3f,%.3f);"
             for style, words in _TIKZ_STYLES.items()}
    labels = {anchor: rf"\node[anchor={word}] at (%.3f,%.3f) {{%s}};"
              for anchor, word in (("start", "west"), ("end", "east"), ("middle", "center"))}
    out = [r"\begin{tikzpicture}[every node/.style={font=\small}]"]
    out += [path[len(line)] % tuple([v for x, y in line for v in (x * scale, -y * scale)])
            for line in lines]
    out += [boxes[style] % (x * scale, -y * scale, (x + w) * scale, -(y + h) * scale)
            for x, y, w, h, style, _ in rects]
    out += [labels[anchor] % (x * scale, -y * scale, _tex_escape(s))
            for x, y, s, anchor, _ in texts]
    out += (r"\end{tikzpicture}", "")
    return "\n".join(out)
