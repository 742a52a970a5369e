"""Renderer: golden files, determinism, geometry invariants."""

import re
from functools import reduce
from random import Random

import pytest

from gen import random_term, std_sig, struct_sig
from monocat.coherence import flatten_object
from monocat.parser import parse_expr, parse_signature
import monocat.render as render
from monocat.render import RenderConfig, RenderConfigError, emit_svg, emit_tikz, layout
from monocat.terms import Comp, MorGen, typecheck
from reference_render import reference_emit_svg, reference_emit_tikz, reference_layout

RENDER_SIG_TEXT = """
category symmetric
object A
object B
object C
object D
mor f : A -> B
mor g : B -> C
mor h : C -> D
iso k : A -> B
"""
RENDER_SIG = parse_signature(RENDER_SIG_TEXT)

GOLDEN_TERMS = {
    "compose_assoc_left": "(f ; g) ; h",
    "compose_assoc_right": "f ; (g ; h)",
    "braid": "braid[A,B]",
    "tensor_of_composite": "(f ; g) * h",
    "inverse_iso": "k ; inv(k)",
    "triangle_lhs": "alpha[A,I,B] ; (id[A] * lunit[B])",
}


def _render(text, fmt="svg", cfg=None):
    cfg = cfg or RenderConfig()
    node = layout(parse_expr(text, RENDER_SIG), RENDER_SIG, cfg)
    return emit_svg(node, cfg) if fmt == "svg" else emit_tikz(node, cfg)


@pytest.mark.parametrize("name", sorted(GOLDEN_TERMS))
@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_golden(name, fmt, golden_dir):
    got = _render(GOLDEN_TERMS[name], fmt)
    expected = (golden_dir / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert got == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_TERMS))
def test_byte_identical_across_runs(name):
    assert _render(GOLDEN_TERMS[name]) == _render(GOLDEN_TERMS[name])


def test_assoc_variants_differ_only_in_group_nesting():
    s1 = _render(GOLDEN_TERMS["compose_assoc_left"])
    s2 = _render(GOLDEN_TERMS["compose_assoc_right"])
    assert s1 != s2

    def boxes(svg):
        return sorted(re.findall(r'class="(genbox|isobox|structbox)"', svg))

    def labels(svg):
        return sorted(re.findall(r">([^<]+)</text>", svg))

    def group_count(svg):
        return len(re.findall(r'class="group"', svg))

    assert boxes(s1) == boxes(s2)
    assert labels(s1) == labels(s2)
    assert group_count(s1) == group_count(s2)


def test_identity_is_a_labeled_wire():
    svg = _render("id[A]")
    assert 'class="genbox"' not in svg and "<rect" not in svg
    # object annotated at input and output positions
    assert svg.count(">A</text>") >= 2
    assert svg.count("<polyline") >= 1


def test_braid_is_a_cross():
    svg = _render("braid[A,B]")
    # two crossing diagonals, no box rects
    assert 'class="genbox"' not in svg
    wires = re.findall(r'points="([^"]+)"', svg)
    diagonals = [w for w in wires if len(w.split()) == 2
                 and w.split()[0].split(",")[1] != w.split()[1].split(",")[1]]
    assert len(diagonals) == 2


def test_inverse_marker_attached_left():
    svg = _render("inv(k)")
    assert ">-1</text>" in svg
    markers = re.findall(r'<rect class="marker" x="([\d.]+)"', svg)
    boxes = re.findall(r'<rect class="isobox" x="([\d.]+)"', svg)
    assert markers and boxes
    assert float(markers[0]) < float(boxes[0])


def test_iso_box_emphasized():
    svg = _render("k")
    assert 'class="isobox"' in svg
    plain = _render("f")
    assert 'class="genbox"' in plain and 'class="isobox"' not in plain


def test_structural_box_symbols():
    svg = _render("alpha[A,B,C]")
    assert "α[A,B,C]" in svg
    tikz = _render("alpha[A,B,C]", fmt="tikz")
    assert r"$\alpha$[A,B,C]" in tikz


def test_unit_boundary_labeled():
    sig = parse_signature("category symmetric\nobject A\nmor s : I -> A\n")
    cfg = RenderConfig()
    svg = emit_svg(layout(parse_expr("s", sig), sig, cfg), cfg)
    assert ">I</text>" in svg


def _sibling_rects(node):
    yield [(c.x, c.y, c.w, c.h) for c in node.children]
    for c in node.children:
        yield from _sibling_rects(c)


def _overlap(r1, r2, tol=0.0):
    x1, y1, w1, h1 = r1
    x2, y2, w2, h2 = r2
    return (x1 + tol < x2 + w2 and x2 + tol < x1 + w1
            and y1 + tol < y2 + h2 and y2 + tol < y1 + h1)


def _check_geometry(term, sig, cfg, tol=0.0):
    # ``tol`` lets siblings that abut (an inverse's marker and box) touch
    # up to rounding
    node = layout(term, sig, cfg)
    ty = typecheck(term, sig)
    assert len(node.in_ports) == len(flatten_object(ty.dom))
    assert len(node.out_ports) == len(flatten_object(ty.cod))
    assert [s for _, s in node.in_ports] == list(flatten_object(ty.dom))
    assert [s for _, s in node.out_ports] == list(flatten_object(ty.cod))
    for siblings in _sibling_rects(node):
        for i in range(len(siblings)):
            for j in range(i + 1, len(siblings)):
                assert not _overlap(siblings[i], siblings[j], tol)

    def walk(n):
        if n.kind == "compgroup":
            a, b = n.children
            assert abs(n.w - (a.w + b.w + cfg.hgap + 2 * cfg.box_padding)) < 1e-9
            assert abs(n.h - (max(a.h, b.h) + 2 * cfg.box_padding)) < 1e-9
            # connected ports carry equal wire labels
            assert [s for _, s in a.out_ports] == [s for _, s in b.in_ports]
        if n.kind == "tensorgroup":
            a, b = n.children
            assert abs(n.h - (a.h + b.h + cfg.vgap + 2 * cfg.box_padding)) < 1e-9
            assert abs(n.w - (max(a.w, b.w) + 2 * cfg.box_padding)) < 1e-9
        for c in n.children:
            walk(c)

    walk(node)


@pytest.mark.parametrize("text", sorted(GOLDEN_TERMS.values()))
def test_geometry_invariants(text):
    _check_geometry(parse_expr(text, RENDER_SIG), RENDER_SIG, RenderConfig())


# ---------------------------------------------------------------------------
# The offset-based layout against the shift-based reference
# ---------------------------------------------------------------------------

ODD_CFG = RenderConfig(unit=17.3, hgap=9.1, vgap=5.7, box_padding=3.3, box_min_width=41.9,
                       boundary_stub=13.7, margin=7.9, font_size=10.1)


@pytest.fixture(scope="module")
def random_terms():
    """600 seeded random terms, alternating over ``std_sig`` and ``struct_sig``."""

    sigs = (std_sig(), struct_sig())
    out = []
    for seed in range(600):
        rng = Random(seed)
        sig = sigs[seed % 2]
        out.append((random_term(rng, sig, max_leaves=rng.randint(2, 16)), sig))
    return out


def _nodes(root):
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(node.children))


def test_random_geometry_invariants(random_terms):
    for term, sig in random_terms:
        _check_geometry(term, sig, RenderConfig(), tol=1e-9)
        _check_geometry(term, sig, ODD_CFG, tol=1e-9)


def test_matches_reference_bytes_under_default_config(random_terms):
    cfg = RenderConfig()
    for term, sig in random_terms:
        got, ref = layout(term, sig, cfg), reference_layout(term, sig, cfg)
        assert emit_svg(got, cfg) == emit_svg(ref, cfg)
        assert emit_tikz(got, cfg) == emit_tikz(ref, cfg)


@pytest.mark.parametrize("cfg", [RenderConfig(), ODD_CFG, RenderConfig(color=True),
                                 RenderConfig(atom_boxes=False)],
                         ids=["default", "odd", "color", "no-atom-boxes"])
def test_emitters_match_reference_emitters(random_terms, cfg):
    # one template per element prints the bytes of one format call per number
    for term, sig in random_terms:
        root = layout(term, sig, cfg)
        assert emit_svg(root, cfg) == reference_emit_svg(root, cfg)
        assert emit_tikz(root, cfg) == reference_emit_tikz(root, cfg)


def test_repeated_atoms_get_nodes_of_their_own(monkeypatch):
    sig = parse_signature("category monoidal\nobject A\nmor f : A -> A\nmor g : A -> A\n"
                          "iso k : A -> A\n")
    sized, box = [], render._box
    monkeypatch.setattr(render, "_box", lambda cfg, kind, label, *rest, **kw:
                        sized.append(label) or box(cfg, kind, label, *rest, **kw))
    for text, kind, count, labels in (("f ; f ; f", "genbox", 3, ["f"]),
                                      ("inv(k) ; inv(k)", "invbox", 2, ["k"]),
                                      ("(f * f) ; (g * g)", "genbox", 4, ["f", "g"])):
        sized.clear()
        nodes = list(_nodes(layout(parse_expr(text, sig), sig)))
        assert sized == labels  # each distinct atom is sized once per call
        assert len({id(n) for n in nodes}) == len(nodes)
        same = [n for n in nodes if n.kind == kind]
        assert len({(n.x, n.y) for n in same}) == len(same) == count  # each in its own place
        lists = [v for n in nodes for v in (n.in_ports, n.out_ports, n.wires, *n.wires)]
        assert len({id(v) for v in lists}) == len(lists)  # no port or wire list is shared


def test_matches_reference_tree_under_odd_config(random_terms):
    # offsets are summed root-down instead of leaf-up, so under an arbitrary
    # config coordinates may differ in the last bits, never in the tree
    def close(u, v):
        return abs(u - v) <= 1e-9

    for term, sig in random_terms:
        got = list(_nodes(layout(term, sig, ODD_CFG)))
        ref = list(_nodes(reference_layout(term, sig, ODD_CFG)))
        assert len(got) == len(ref)
        for n, r in zip(got, ref):
            assert (n.kind, n.label, n.depth, n.emphasized, len(n.children)) == \
                (r.kind, r.label, r.depth, r.emphasized, len(r.children))
            assert all(map(close, (n.x, n.y, n.w, n.h), (r.x, r.y, r.w, r.h)))
            for mine, theirs in ((n.in_ports, r.in_ports), (n.out_ports, r.out_ports)):
                assert [s for _, s in mine] == [s for _, s in theirs]
                assert all(close(y1, y2) for (y1, _), (y2, _) in zip(mine, theirs))
            assert [len(line) for line in n.wires] == [len(line) for line in r.wires]
            for line, ref_line in zip(n.wires, r.wires):
                for (x1, y1), (x2, y2) in zip(line, ref_line):
                    assert close(x1, x2) and close(y1, y2)


CHAIN_SIG = parse_signature("category monoidal\nobject A\nmor f : A -> A\n")


def _chain(n):
    """``f ; f ; … ; f`` with n elements, left-nested as the parser builds it."""

    return reduce(Comp, [MorGen("f")] * n)


def test_deep_chain_renders_without_recursion():
    node = layout(_chain(800), CHAIN_SIG)
    assert sum(1 for _ in _nodes(node)) == 2 * 800
    assert emit_svg(node).count('class="genbox"') == 800
    assert emit_tikz(node).count("fill=white") == 800


def test_chain_node_count_matches_reference():
    term = _chain(400)
    got = sum(1 for _ in _nodes(layout(term, CHAIN_SIG)))
    assert got == sum(1 for _ in _nodes(reference_layout(term, CHAIN_SIG)))


def test_svg_tikz_coordinate_agreement():
    cfg = RenderConfig()
    node = layout(parse_expr("(f ; g) * h", RENDER_SIG), RENDER_SIG, cfg)
    svg = emit_svg(node, cfg)
    tikz = emit_tikz(node, cfg)
    rect = re.search(r'<rect class="genbox" x="([\d.]+)" y="([\d.]+)"', svg)
    x, y = float(rect.group(1)), float(rect.group(2))
    scaled = f"({x / cfg.unit:.3f},{-y / cfg.unit:.3f})"
    assert scaled in tikz


def test_config_file_and_validation(tmp_path):
    path = tmp_path / "render.cfg"
    path.write_text("unit = 40\ncolor = true\n# comment\nvgap = 20\n", encoding="utf-8")
    cfg = RenderConfig.from_file(str(path))
    assert cfg.unit == 40 and cfg.color and cfg.vgap == 20
    for size in (-1, 0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(RenderConfigError, match="unit must be positive and finite"):
            RenderConfig(unit=size)
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 3\n", encoding="utf-8")
    with pytest.raises(RenderConfigError):
        RenderConfig.from_file(str(bad))
    for text, flags in (("color = YES\natom_boxes = 0\n", (True, False)),
                        ("color = on\natom_boxes = Off\n", (True, False)),
                        ("color = 1\natom_boxes = no\n", (True, False)),
                        ("color = false\natom_boxes = True\n", (False, True))):
        path.write_text(text, encoding="utf-8")
        cfg = RenderConfig.from_file(str(path))
        assert (cfg.color, cfg.atom_boxes) == flags
    for text, key in (("atom_boxes = flase\n", "atom_boxes"), ("color = ture\n", "color"),
                      ("color =\n", "color"), ("color = 2\n", "color")):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(RenderConfigError, match=f"render config {key} must be true or false"):
            RenderConfig.from_file(str(bad))


def test_color_flag_changes_group_strokes():
    cfg = RenderConfig(color=True)
    node = layout(parse_expr("(f ; g) ; h", RENDER_SIG), RENDER_SIG, cfg)
    svg = emit_svg(node, cfg)
    assert "#999999" not in svg
    plain = _render("(f ; g) ; h")
    assert "#999999" in plain
