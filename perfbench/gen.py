"""Seeded, sized benchmark inputs whose answers are known by construction.

Every input is text in monocat's expression language, built from a
``random.Random`` seeded by the caller, with an exact atom count and a
stated shape.  Sizes follow a fixed schedule per workload, so two seeds
give the same size mix with different content; that keeps run-to-run
spread small.  Known answers come from how an input was built (the
interchange, naturality or symmetry law, associativity, cancelling an
inserted inverse pair, or two non-commuting generators swapped), never
from monocat itself: this module does not import monocat.

Wire objects are written left-nested (``A * A * A`` parses as
``(A * A) * A``), so a layer with one box on wire ``i`` of ``n`` is
``id[A * ... * A] * box * id[A] * ... * id[A]`` and every layer of a
staircase has the same boundary syntactically.
"""

from __future__ import annotations

import re
from random import Random

# ---------------------------------------------------------------------------
# Signatures and rules
# ---------------------------------------------------------------------------

#: Symbolic signature of the ``prove`` and ``cli`` workloads.  The walk
#: graph is A -f-> B -g-> C -h-> A with loops u, v on A and the iso k.
SYMBOLIC_SIG = """\
category symmetric
object A
object B
object C
mor f : A -> B
mor g : B -> C
mor h : C -> A
mor u : A -> A
mor v : A -> A
mor m : A * A -> A * A
iso k : A -> B
"""

#: Rules of the ``assoc_rw`` requests: concrete, metavariable and
#: two-element left-hand sides.  Each right-hand side is one atom.
RULES = """\
var ?y : B -> C
rule fgh : f ; g ; h => u
rule fyh : f ; ?y ; h => v
rule uu : u ; u => v
"""
RULE_LHS = {"fgh": ("f", "g", "h"), "fyh": ("f", "g", "h"), "uu": ("u", "u")}
RULE_RHS = {"fgh": "u", "fyh": "v", "uu": "v"}

# Atoms of the walk graph, by domain: (atom text, codomain).
_WALK = {
    "A": (("f", "B"), ("u", "A"), ("v", "A"), ("k", "B")),
    "B": (("g", "C"),),
    "C": (("h", "A"),),
}
# Adjacent inverse pairs that may be inserted where the chain sits at an object.
_INVERSE_PAIRS = {
    "A": (("k", "inv(k)"), ("lunit_inv[A]", "lunit[A]"), ("runit_inv[A]", "runit[A]")),
    "B": (("inv(k)", "k"),),
    "C": (),
}


def _complex_text(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _mat_text(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(_complex_text(z) for z in row) + "]"
                           for row in rows) + "]"


def _rel_text(pairs) -> str:
    return "{" + ", ".join(f"({a},{b})" for a, b in sorted(pairs)) + "}"


def _scalar(rng: Random) -> complex:
    return complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))


def _random_matrix(rng: Random, n: int) -> list[list[complex]]:
    # diagonally dominant, hence invertible: tensoring or composing with it
    # never hides the difference between two unequal sides
    return [[complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) + (n if i == j else 0)
             for j in range(n)] for i in range(n)]


def _random_function(rng: Random, n: int, m: int) -> set[tuple[int, int]]:
    # a total function: never empty, so products with it keep differences
    return {(a, rng.randrange(m)) for a in range(n)}


def _random_bijection(rng: Random, n: int) -> set[tuple[int, int]]:
    image = list(range(n))
    rng.shuffle(image)
    return set(enumerate(image))


def _branching(rng: Random, n: int) -> set[tuple[int, int]]:
    # total, and source 0 has two targets: joins through it grow
    pairs = _random_bijection(rng, n)
    image = dict(pairs)
    pairs.add((0, (image[0] + 1) % n))
    pairs.add((n - 1, rng.randrange(n)))
    return pairs


def _const(n: int, c: int) -> set[tuple[int, int]]:
    return {(a, c) for a in range(n)}


def backend_blocks(rng: Random, dims: dict[str, int], gens: dict[str, tuple[list, list]],
                   noncommuting: dict[str, tuple[str, str]], branching=()) -> str:
    """Matrix and relation blocks for ``gens`` (name -> (dom wires, cod wires)).

    Each pair in ``noncommuting`` (object -> two loop names) gets upper and
    lower bidiagonal matrices and constant relations onto different
    elements, so the two compose differently in either order in both
    backends.  Every other generator gets an invertible matrix and a total
    relation; those named in ``branching`` relate one element to two.
    """

    special: dict[str, tuple[list, set]] = {}
    for obj, (a, b) in noncommuting.items():
        n = dims[obj]
        upper = [[_scalar(rng) * (1 if i == j or j == i + 1 else 0) for j in range(n)]
                 for i in range(n)]
        lower = [[_scalar(rng) * (1 if i == j or i == j + 1 else 0) for j in range(n)]
                 for i in range(n)]
        special[a] = (upper, _const(n, n - 1))
        special[b] = (lower, _const(n, 0))

    def size(wires):
        total = 1
        for w in wires:
            total *= dims[w]
        return total

    mats, rels, isos = [], [], []
    for name, (dom, cod) in gens.items():
        if name in special:
            mat, rel = special[name]
        elif name == "k":
            n = size(dom)
            rel = _random_bijection(rng, n)
            # scalars whose inverses print exactly, so ``inv k`` is exact too
            mat = [[rng.choice((2, 0.5, -1, 1j, -0.5j)) if (j, i) in rel else 0j
                    for j in range(n)] for i in range(n)]
            inv = [[1 / mat[j][i] if (i, j) in rel else 0j for j in range(n)] for i in range(n)]
            isos.append(f"inv k = {_mat_text(inv)}")
        else:
            n, m = size(dom), size(cod)
            if n == m:
                mat = _random_matrix(rng, n)
            else:
                mat = [[complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
                        for _ in range(n)] for _ in range(m)]
            if n != m:
                rel = _random_function(rng, n, m)
            else:
                rel = (_branching if name in branching else _random_bijection)(rng, n)
        mats.append(f"mat {name} = {_mat_text(mat)}")
        rels.append(f"rel {name} = {_rel_text(rel)}")
    lines = ["backend matrix", "tolerance 1e-6"]
    lines += [f"dim {o} = {d}" for o, d in dims.items()]
    lines += mats + isos
    lines += ["", "backend rel"]
    lines += [f"size {o} = {d}" for o, d in dims.items()]
    lines += rels
    return "\n".join(lines) + "\n"


_SYMBOLIC_GENS = {
    "f": (["A"], ["B"]), "g": (["B"], ["C"]), "h": (["C"], ["A"]),
    "u": (["A"], ["A"]), "v": (["A"], ["A"]), "m": (["A", "A"], ["A", "A"]),
    "k": (["A"], ["B"]),
}


def symbolic_sig_with_backends(rng: Random) -> str:
    """:data:`SYMBOLIC_SIG` plus seeded matrix (dims 2, 2, 3) and relation blocks."""

    dims = {"A": 2, "B": 2, "C": 3}
    return SYMBOLIC_SIG + "\n" + backend_blocks(rng, dims, _SYMBOLIC_GENS, {"A": ("u", "v")})


#: Signature of the ``oracle`` workload; backends are added per seed.
ORACLE_SIG = """\
category symmetric
object A
object B
mor x : A -> A
mor y : A -> A
mor z : A -> A
mor p : B -> B
mor q : B -> B
mor m : A * A -> A * A
"""
_ORACLE_GENS = {
    "x": (["A"], ["A"]), "y": (["A"], ["A"]), "z": (["A"], ["A"]),
    "p": (["B"], ["B"]), "q": (["B"], ["B"]), "m": (["A", "A"], ["A", "A"]),
}
ORACLE_DIMS = {"A": 2, "B": 3}


def oracle_sig(rng: Random) -> str:
    return ORACLE_SIG + "\n" + backend_blocks(rng, ORACLE_DIMS, _ORACLE_GENS,
                                              {"A": ("x", "y"), "B": ("p", "q")}, ("z", "m"))


# ---------------------------------------------------------------------------
# Text builders.  Each returns (text, atom count).
# ---------------------------------------------------------------------------


def obj(wires) -> str:
    """Left-nested object text of a wire list (``I`` when empty)."""

    return " * ".join(wires) if wires else "I"


def layer(wires, i: int, box: str, width: int = 1) -> tuple[str, int]:
    """One box of ``width`` input wires at wire ``i``, identities elsewhere.

    A two-wire box below the top is reached through ``alpha`` and
    ``alpha_inv``, because the left-nested object groups wire ``i + 1``
    with the wires above it, not with wire ``i``.
    """

    parts = []
    atoms = 0
    if width == 1 or i == 0:
        if i > 0:
            parts.append(f"id[{obj(wires[:i])}]")
        parts.append(box)
        atoms = len(parts)
    else:
        pre = obj(wires[:i])
        a, b = wires[i], wires[i + 1]
        parts.append(f"(alpha[{pre},{a},{b}] ; (id[{pre}] * {box}) ; alpha_inv[{pre},{a},{b}])")
        atoms = 4
    rest = [f"id[{w}]" for w in wires[i + width:]]
    return " * ".join(parts + rest), atoms + len(rest)


def compose(parts: list[tuple[str, int]]) -> tuple[str, int]:
    """Left-associated composition; tensor expressions need no parentheses."""

    return " ; ".join(t for t, _ in parts), sum(n for _, n in parts)


def group(parts: list[tuple[str, int]], rng: Random, max_chunk: int) -> tuple[str, int]:
    """Compose ``parts`` in order, grouped into parenthesized chunks (depth 2)."""

    chunks = []
    i = 0
    while i < len(parts):
        size = rng.randint(1, max_chunk)
        chunk = parts[i:i + size]
        text, n = compose(chunk)
        chunks.append((f"({text})" if len(chunk) > 1 else text, n))
        i += size
    return compose(chunks)


def right_nested(atoms: list[str]) -> str:
    """``a ; (b ; (c ; d))`` -- how monocat prints a right-associated chain."""

    text = atoms[-1]
    for a in reversed(atoms[:-1]):
        text = f"{a} ; ({text})" if " " in text else f"{a} ; {text}"
    return text


def walk(rng: Random, n: int, start: str = "A", allow=None) -> tuple[list[str], list[str]]:
    """Random walk of exactly ``n`` atoms; returns atoms and the objects
    before each atom plus the final one (``len == n + 1``)."""

    atoms, objs = [], [start]
    here = start
    for _ in range(n):
        steps = [s for s in _WALK[here] if allow is None or s[0] in allow]
        atom, here = rng.choice(steps)
        atoms.append(atom)
        objs.append(here)
    return atoms, objs


def _loop_walk(rng: Random, n: int, allow=None) -> tuple[list[str], list[str]]:
    """A walk of exactly ``n`` atoms from A back to A (ends padded with loops)."""

    atoms, objs = walk(rng, n, "A", allow)
    # walk back to A: drop the tail after the last visit of A, refill with loops
    last_a = max(i for i, o in enumerate(objs) if o == "A")
    atoms, objs = atoms[:last_a], objs[:last_a + 1]
    while len(atoms) < n:
        atoms.append(rng.choice(("u", "v")))
        objs.append("A")
    return atoms, objs


def gen_counts(text: str) -> dict[str, int]:
    """How many atoms of each generator a text holds (``inv(k)`` counts as k)."""

    counts: dict[str, int] = {}
    for name in re.findall(r"(?<![\w\[,])([a-z]\w*)\b(?![\[(])", text):
        counts[name] = counts.get(name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Shapes with known answers
# ---------------------------------------------------------------------------


def staircase_pair(rng: Random, k: int, law: str) -> dict:
    """A ``monoidal_eq`` pair on a staircase over ``k`` wires of A.

    ``interchange``: k one-wire boxes, one per wire, in slide-heavy order
    (box i in layer i) against a random order of the same layers; equal by
    interchange and decided by the normalizer.
    ``normal``: k-1 two-wire boxes on wires (i, i+1), already normal,
    against the same layers grouped differently; equal by associativity.
    ``naturality``: an interchange staircase with u*v then braid on wires
    0,1 against braid then v*u; equal, but braid naturality is outside the
    normalizer's scope, so ``NotDecided`` is expected and ``Equal`` allowed.
    ``swap``: u then v on one wire against v then u; unequal in both
    backends, so any verdict but ``Equal`` is right.
    """

    wires = ["A"] * k
    if law == "normal":
        layers = [layer(wires, i, "m", 2) for i in range(k - 1)]
        lhs = compose(layers)
        rhs = group(layers, rng, 4)
        return _pair("monoidal_eq", lhs, rhs, "equal", f"staircase-normal k={k}")
    boxes = [rng.choice(("u", "v")) for _ in range(k)]
    layers = [layer(wires, i, boxes[i]) for i in range(k)]
    if law == "interchange":
        shuffled = layers[:]
        rng.shuffle(shuffled)
        return _pair("monoidal_eq", compose(layers), compose(shuffled), "equal",
                     f"staircase-interchange k={k}")
    ids = "".join(" * id[A]" for _ in range(k - 2))
    if law == "naturality":
        at = rng.randint(0, k)
        ins_l = [("u * v" + ids, k), ("braid[A,A]" + ids, k - 1)]
        ins_r = [ins_l[1], ("v * u" + ids, k)]
        expect = "equal_or_undecided"
    elif law == "swap":
        # last, so no later box on the wire can hide the difference
        at = k
        w = rng.randrange(k)
        ins_l = [layer(wires, w, "u"), layer(wires, w, "v")]
        ins_r = [ins_l[1], ins_l[0]]
        expect = "not_equal"
    else:
        raise ValueError(law)
    lhs = compose(layers[:at] + ins_l + layers[at:])
    rhs = compose(layers[:at] + ins_r + layers[at:])
    return _pair("monoidal_eq", lhs, rhs, expect, f"staircase-{law} k={k}")


def _pair(kind, lhs, rhs, expect, shape) -> dict:
    return {"kind": kind, "lhs": lhs[0], "rhs": rhs[0], "expect": expect,
            "atoms": lhs[1] + rhs[1], "shape": shape}


def deep_pair(rng: Random, n: int) -> dict:
    """A left-associated chain of ``n`` loops against the same atoms
    right-nested; equal by associativity of composition."""

    atoms = [rng.choice(("u", "v")) for _ in range(n)]
    return {"kind": "monoidal_eq", "lhs": " ; ".join(atoms), "rhs": right_nested(atoms),
            "expect": "equal", "atoms": 2 * n, "shape": f"deep-chain n={n}"}


def inverse_pair_chain(rng: Random, n: int, swap: bool) -> dict:
    """``cat_easy`` goal: a loop walk with inverse pairs inserted, against
    the walk itself (``proved``).  With ``swap`` the right side has one
    adjacent ``u ; v`` turned into ``v ; u`` (``not_proved``)."""

    pairs = max(1, n // 8)
    base_n = n - 2 * pairs
    atoms, objs = _loop_walk(rng, base_n - (2 if swap else 0),
                             allow=("f", "g", "h", "u", "v", "k"))
    if swap:
        # last, so no later atom can hide the difference in a backend
        atoms += ["u", "v"]
        objs += ["A", "A"]
    inserted = list(atoms)
    spots = [i for i, o in enumerate(objs) if _INVERSE_PAIRS[o]]
    for pos in sorted(rng.sample(spots, pairs), reverse=True):
        inserted[pos:pos] = rng.choice(_INVERSE_PAIRS[objs[pos]])
    lhs = " ; ".join(inserted)
    rhs = " ; ".join(atoms[:-2] + ["v", "u"] if swap else atoms)
    return {"kind": "cat_easy", "lhs": lhs, "rhs": rhs,
            "expect": "not_proved" if swap else "proved", "atoms": n + base_n,
            "shape": f"inverse-pairs n={n} pairs={pairs}" + (" swapped" if swap else "")}


def plain_chain(rng: Random, n: int, kind: str) -> dict:
    """``foliate`` or ``cancel_isos`` on a walk with nothing to cancel.

    Foliating a chain of atoms right-associates it; cancelling returns it
    unchanged (printed left-associated)."""

    atoms, _ = walk(rng, n, "A")
    text = " ; ".join(atoms)
    expect = right_nested(atoms) if kind == "foliate" else text
    return {"kind": kind, "expr": text, "expect": expect, "atoms": n,
            "shape": f"chain n={n}"}


def rewrite_chain(rng: Random, n: int, rule: str) -> dict:
    """``assoc_rw`` on a chunk-grouped walk holding the rule's left side.

    The expected result replaces the leftmost window equal to the left
    side by the right side and right-associates the chain."""

    lhs = list(RULE_LHS[rule])
    atoms, objs = _loop_walk(rng, n - len(lhs), allow=("f", "g", "h", "u", "v", "k"))
    at = rng.choice([i for i, o in enumerate(objs) if o == "A"])
    atoms[at:at] = lhs
    start = next(i for i in range(len(atoms)) if tuple(atoms[i:i + len(lhs)]) == RULE_LHS[rule])
    result = atoms[:start] + [RULE_RHS[rule]] + atoms[start + len(lhs):]
    text, _ = group([(a, 1) for a in atoms], rng, 6)
    return {"kind": "assoc_rw", "rule": rule, "expr": text, "expect": right_nested(result),
            "atoms": n, "shape": f"grouped-chain n={n} rule={rule}"}


def render_term(rng: Random, n: int, fmt: str, rows: int) -> dict:
    """``layout`` then ``emit_svg``/``emit_tikz`` on ``rows`` parallel loop walks.

    Known from the term: one group box per ``;`` or ``*`` node (atoms - 1)
    and one label per generator atom."""

    sizes = [n // rows + (1 if r < n % rows else 0) for r in range(rows)]
    chains = []
    for size in sizes:
        atoms, _ = _loop_walk(rng, size)
        chains.append(" ; ".join(atoms))
    text = " * ".join(f"({c})" if rows > 1 else c for c in chains)
    return {"kind": "render_" + fmt, "expr": text, "atoms": n,
            "expect": {"groups": n - 1, "labels": gen_counts(text)},
            "shape": f"{rows} parallel chains n={n}"}


# ---------------------------------------------------------------------------
# Oracle pairs: two halves L * R of 4-5 wires each
# ---------------------------------------------------------------------------


def _half_layer(rng: Random, half: list[str], wire=None, box=None) -> tuple[str, int]:
    """One box on a random (or given) wire of a half, identities elsewhere."""

    if wire is None:
        wire = rng.randrange(len(half))
        if half[wire] == "A" and wire + 1 < len(half) and half[wire + 1] == "A" \
                and rng.random() < 0.3:
            return layer(half, wire, "m", 2)
    if box is None:
        box = rng.choice(("x", "y", "z") if half[wire] == "A" else ("p", "q"))
    return layer(half, wire, box)


def _paren(t: tuple[str, int]) -> tuple[str, int]:
    return (f"({t[0]})", t[1])


def _tensor(a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int]:
    return f"{_paren(a)[0]} * {_paren(b)[0]}", a[1] + b[1]


def oracle_pair(rng: Random, left: list[str], right: list[str], law: str,
                method: str) -> dict:
    """A pair on ``left * right`` evaluated by the ``matrix`` or ``rel`` backend.

    ``interchange``: (X * id) ; (id * Y) against (id * Y) ; (X * id).
    ``symmetry``: (X * Y) ; braid[L,R] ; braid[R,L] against X * Y.
    ``naturality``: (X * Y) ; braid[L,R] against braid[L,R] ; (Y * X).
    ``swap``: (X1 ; X2) * Y against (X2 ; X1) * Y, where X1 and X2 put the
    two non-commuting loops on the same wire; unequal in both backends.
    """

    L, R = obj(left), obj(right)
    X = _half_layer(rng, left)
    Y = _half_layer(rng, right)
    idL, idR = (f"id[{L}]", 1), (f"id[{R}]", 1)
    if law == "interchange":
        lhs = compose([_tensor(X, idR), _tensor(idL, Y)])
        rhs = compose([_tensor(idL, Y), _tensor(X, idR)])
        expect = "equal"
    elif law == "symmetry":
        lhs = compose([_tensor(X, Y), (f"braid[{L},{R}]", 1), (f"braid[{R},{L}]", 1)])
        rhs = _tensor(X, Y)
        expect = "equal"
    elif law == "naturality":
        lhs = compose([_tensor(X, Y), (f"braid[{L},{R}]", 1)])
        rhs = compose([(f"braid[{L},{R}]", 1), _tensor(Y, X)])
        expect = "equal"
    elif law == "swap":
        wire = rng.randrange(len(left))
        a, b = ("x", "y") if left[wire] == "A" else ("p", "q")
        X1 = _half_layer(rng, left, wire, a)
        X2 = _half_layer(rng, left, wire, b)
        lhs = _tensor(compose([_paren(X1), _paren(X2)]), Y)
        rhs = _tensor(compose([_paren(X2), _paren(X1)]), Y)
        expect = "not_equal"
    else:
        raise ValueError(law)
    return {"kind": method, "lhs": lhs[0], "rhs": rhs[0], "expect": expect,
            "atoms": lhs[1] + rhs[1],
            "shape": f"{law} wires={len(left)}+{len(right)} {obj(left + right)}"}


# ---------------------------------------------------------------------------
# Workload pools
# ---------------------------------------------------------------------------


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes evenly spaced over [lo, hi] (a fixed schedule)."""

    if count == 1:
        return [lo]
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _cycle(items, count):
    return [items[i % len(items)] for i in range(count)]


def prove_pool(seed: int) -> dict:
    """152 library requests, and a probe of 8 monoidal_eq pairs on
    1200-2000-element chains that the worker sends once, untimed, after the
    timed loop: they end in RecursionError today, and a workload's requests
    must all succeed."""

    rng = Random(seed)
    reqs = []
    laws = _cycle(("interchange", "normal", "interchange", "swap", "naturality", "normal"), 28)
    for k, law in zip(_spread(16, 64, 28), laws):
        reqs.append(staircase_pair(rng, k, law))
    for i, n in enumerate(_spread(40, 160, 12)):
        reqs.append(inverse_pair_chain(rng, n, swap=(i % 4 == 3)))
    for n in _spread(60, 200, 18):
        reqs.append(plain_chain(rng, n, "foliate"))
    for n in _spread(40, 100, 12):
        reqs.append(plain_chain(rng, n, "cancel_isos"))
    for n, rule in zip(_spread(40, 200, 46), _cycle(tuple(RULE_LHS), 46)):
        reqs.append(rewrite_chain(rng, n, rule))
    for n, fmt, rows in zip(_spread(50, 250, 36), _cycle(("svg", "tikz"), 36),
                            _cycle((1, 2, 3, 3, 2, 1), 36)):
        reqs.append(render_term(rng, n, fmt, rows))
    probe = [deep_pair(rng, n) for n in _spread(1200, 2000, 8)]
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = f"prove-{i:03d}"
    for i, r in enumerate(probe):
        r["id"] = f"prove-deep-{i}"
    return {"sig": SYMBOLIC_SIG, "rules": RULES, "requests": reqs, "probe": probe}


def _halves(rng: Random, wires: int, b_wires: int) -> tuple[list[str], list[str]]:
    """Split ``wires`` A wires, ``b_wires`` of them B, into two shuffled halves."""

    nl = wires // 2
    ws = ["A"] * (wires - b_wires) + ["B"] * b_wires
    rng.shuffle(ws)
    return ws[:nl], ws[nl:]


def oracle_pool(seed: int) -> dict:
    """190 backend pairs: matrix pairs on 8-10 wires of at most 1024
    dimensions, relation pairs on 10 wires of 3456 elements.

    Braided matrix pairs use two halves of A wires only, so at 10 wires the
    braid is a dense 1024x1024 permutation."""

    rng = Random(seed)
    reqs = []
    plan = ([("matrix", 8)] * 100 + [("matrix", 9)] * 24 + [("matrix", 10)] * 8
            + [("rel", 10)] * 58)
    laws = ("interchange", "symmetry", "naturality", "swap")
    for i, (method, wires) in enumerate(plan):
        law = laws[i % 4]
        braided = law in ("symmetry", "naturality")
        if method == "rel":
            b_wires = 3
        else:
            b_wires = 0 if braided else {8: 2, 9: 1, 10: 0}[wires]
        left, right = _halves(rng, wires, b_wires)
        reqs.append(oracle_pair(rng, left, right, law, method))
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = f"oracle-{i:03d}"
    return {"sig": oracle_sig(rng), "requests": reqs}


def cli_pool(seed: int) -> dict:
    """80 one-shot invocations on terms of at most ~20 atoms and 20
    ``check --batch`` invocations over files of 100-400 pairs.

    With 100 requests the tail percentile is p90: the median falls among
    the one-shot calls and p90 among the batches, both well away from the
    boundary between the two.

    Argument lists name files relative to the run directory: ``sig.txt``,
    ``rules.txt``, ``batch-NN.txt`` and ``out-NN.svg``/``.tikz``."""

    rng = Random(seed)
    shots = []

    def small_stair(k, law):
        return staircase_pair(rng, k, law)

    def shot(argv, expect, files=None):
        shots.append({"argv": argv, "expect": expect, "files": files or {}})

    for i in range(80):
        kind = i % 10
        if kind == 0:
            p = small_stair(4, "interchange")
            shot(["normalize", "--sig", "sig.txt", p["lhs"]], {"exit": 0, "library": "normalize"})
        elif kind == 1:
            p = small_stair(3, ("interchange", "swap")[(i // 10) % 2])
            shot(["check", "--sig", "sig.txt", "--method", "monoidal", p["lhs"], p["rhs"]],
                 {"exit": 0 if p["expect"] == "equal" else 1})
        elif kind == 2:
            p = inverse_pair_chain(rng, 16, swap=(i % 20 == 12))
            shot(["check", "--sig", "sig.txt", "--method", "cat_easy", p["lhs"], p["rhs"]],
                 {"exit": 0 if p["expect"] == "proved" else 1})
        elif kind == 3:
            p = small_stair(3, ("naturality", "swap")[(i // 10) % 2])
            shot(["check", "--sig", "sig.txt", "--method", "matrix", p["lhs"], p["rhs"]],
                 {"exit": 0 if p["expect"] != "not_equal" else 1})
        elif kind == 4:
            p = small_stair(3, ("interchange", "swap")[(i // 10) % 2])
            shot(["check", "--sig", "sig.txt", "--method", "rel", p["lhs"], p["rhs"]],
                 {"exit": 0 if p["expect"] != "not_equal" else 1})
        elif kind in (5, 6):
            p = plain_chain(rng, 18, "foliate")
            argv = ["foliate", "--sig", "sig.txt"] + (["--weak"] if kind == 6 else [])
            shot(argv + [p["expr"]], {"exit": 0, "library": "foliate"})
        elif kind == 7:
            rule = tuple(RULE_LHS)[(i // 10) % 3]
            p = rewrite_chain(rng, 18, rule)
            shot(["rewrite", "--sig", "sig.txt", "--rules", "rules.txt", "--rule", rule,
                  p["expr"]], {"exit": 0, "stdout": p["expect"] + "\n"})
        else:
            fmt = ("svg", "tikz")[kind - 8]
            p = render_term(rng, 20, fmt, rows=1 + (i // 10) % 3)
            out = f"out-{i:02d}.{fmt}"
            shot(["render", "--sig", "sig.txt", "--format", fmt, "-o", out, p["expr"]],
                 {"exit": 0, "library": "render", "out": out, "stdout": f"wrote {out}\n"})
    batches = []
    for j, size in enumerate(_spread(100, 400, 20)):
        method = ("monoidal", "matrix")[j % 2]
        pairs, statuses = [], []
        for t in range(size):
            law = ("interchange", "naturality", "interchange")[t % 3] if method == "matrix" \
                else "interchange"
            p = small_stair(rng.randint(2, 4), law)
            pairs.append(p)
        # one known-unequal pair in every third batch: the batch must FAIL it
        if j % 3 == 2:
            pairs[rng.randrange(size)] = small_stair(3, "swap")
        lines = []
        for p in pairs:
            lines.append(f"{p['lhs']} == {p['rhs']}")
            statuses.append("FAIL" if p["expect"] == "not_equal" else "ok")
        name = f"batch-{j:02d}.txt"
        batches.append({"argv": ["check", "--sig", "sig.txt", "--method", method,
                                 "--batch", name],
                        "expect": {"exit": 1 if "FAIL" in statuses else 0, "lines": statuses},
                        "files": {name: "\n".join(lines) + "\n"}})
    reqs = shots + batches
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = f"cli-{i:03d}"
    return {"sig": symbolic_sig_with_backends(rng), "rules": RULES, "requests": reqs}


POOLS = {"prove": prove_pool, "oracle": oracle_pool, "cli": cli_pool}
