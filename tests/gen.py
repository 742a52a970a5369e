"""Random generators used across the test suite.

Everything here is deterministic given the supplied ``random.Random``,
so tests pin seeds and stay reproducible.
"""

from __future__ import annotations

from random import Random

import numpy as np

from monocat.coherence import flatten_object
from monocat.parser import parse_signature
from monocat.semantics import MatrixInstance, RelInstance, dim_flat
from monocat.terms import (
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
    ObjExpr,
    ObjGen,
    ObjTensor,
    RUnit,
    RUnitInv,
    Signature,
    Tensor,
    UNIT,
    Unit,
    structural_atoms,
    typecheck,
)

STD_SIG_TEXT = """
category symmetric
object A
object B
object C
mor f : A -> B
mor g : B -> C
mor h : C -> A
mor u : A -> A
mor p : A * B -> C
mor q : C -> B * A
iso k : A -> B
iso w : B * C -> C * B
mor s : I -> A
mor e : A -> I
"""


#: Boxes with both inputs and outputs only; tests add ``s : I -> A`` or ``e : A -> I``
TWO_SIDED_SIG_TEXT = """
category symmetric
object A
object B
object C
mor f : A -> B
mor g : B -> C
mor h : C -> A
mor u : A -> A
mor p : A * B -> C
mor q : C -> B * A
iso k : A -> B
"""


def std_sig() -> Signature:
    return parse_signature(STD_SIG_TEXT)


def struct_sig(names=("A", "B", "C")) -> Signature:
    return parse_signature("category monoidal\n" + "\n".join(f"object {n}" for n in names))


# ---------------------------------------------------------------------------
# Objects and structural terms
# ---------------------------------------------------------------------------


def random_object(rng: Random, names, max_leaves: int = 3, unit_p: float = 0.15) -> ObjExpr:
    if max_leaves <= 1 or rng.random() < 0.5:
        if rng.random() < unit_p:
            return UNIT
        return ObjGen(rng.choice(list(names)))
    split = rng.randint(1, max_leaves - 1)
    return ObjTensor(
        random_object(rng, names, split, unit_p),
        random_object(rng, names, max_leaves - split, unit_p),
    )


def random_structural_step(rng: Random, obj: ObjExpr, allow_braid: bool = False) -> MorExpr:
    """One structural atom applied at a random position of ``obj``."""

    builders = []
    if isinstance(obj, ObjTensor):
        l, r = obj.left, obj.right
        if isinstance(l, ObjTensor):
            builders.append(lambda: Assoc(l.left, l.right, r))
        if isinstance(r, ObjTensor):
            builders.append(lambda: AssocInv(l, r.left, r.right))
        if isinstance(l, Unit):
            builders.append(lambda: LUnit(r))
        if isinstance(r, Unit):
            builders.append(lambda: RUnit(l))
        if allow_braid:
            builders.append(lambda: Braid(l, r))
            builders.append(lambda: BraidInv(r, l))
        builders.append(lambda: Tensor(random_structural_step(rng, l, allow_braid), Id(r)))
        builders.append(lambda: Tensor(Id(l), random_structural_step(rng, r, allow_braid)))
        builders = builders * 2  # prefer these over unit introduction
    builders.append(lambda: LUnitInv(obj))
    builders.append(lambda: RUnitInv(obj))
    return rng.choice(builders)()


def random_comp_tree(rng: Random, elements: list[MorExpr]) -> MorExpr:
    """Compose ``elements`` in order under a random parenthesization."""

    if len(elements) == 1:
        return elements[0]
    split = rng.randint(1, len(elements) - 1)
    return Comp(random_comp_tree(rng, elements[:split]),
                random_comp_tree(rng, elements[split:]))


def random_structural_term(rng: Random, obj: ObjExpr, sig: Signature,
                           steps: int, max_leaves: int | None = None) -> MorExpr:
    """A structural-only term starting at ``obj`` (random walk)."""

    for _ in range(20):
        elements = []
        current = obj
        for _ in range(steps):
            step = random_structural_step(rng, current)
            elements.append(step)
            current = typecheck(step, sig).cod
        term = random_comp_tree(rng, elements) if elements else Id(obj)
        if max_leaves is None or len(structural_atoms(term)) <= max_leaves:
            return term
        steps = max(steps - 1, 0)
    return Id(obj)


def _smart_comp(a: MorExpr, b: MorExpr) -> MorExpr:
    if isinstance(a, Id):
        return b
    if isinstance(b, Id):
        return a
    return Comp(a, b)


def to_canonical(obj: ObjExpr) -> tuple[MorExpr, ObjExpr]:
    """Structural term from ``obj`` to its right-nested unit-free form."""

    if isinstance(obj, (Unit, ObjGen)):
        return Id(obj), obj
    lterm, lcan = to_canonical(obj.left)
    rterm, rcan = to_canonical(obj.right)
    mterm, merged = _merge(lcan, rcan)
    step = Tensor(lterm, rterm)
    if isinstance(lterm, Id) and isinstance(rterm, Id):
        return mterm, merged
    return _smart_comp(step, mterm), merged


def _merge(x: ObjExpr, y: ObjExpr) -> tuple[MorExpr, ObjExpr]:
    if isinstance(x, Unit):
        return LUnit(y), y
    if isinstance(y, Unit):
        return RUnit(x), x
    if isinstance(x, ObjGen):
        return Id(ObjTensor(x, y)), ObjTensor(x, y)
    head, rest = x.left, x.right
    inner, merged = _merge(rest, y)
    return Comp(Assoc(head, rest, y), Tensor(Id(head), inner)), ObjTensor(head, merged)


def invert_structural(term: MorExpr) -> MorExpr:
    """Reverse a term built from structural atoms, identities, ; and tensor."""

    if isinstance(term, Comp):
        return Comp(invert_structural(term.second), invert_structural(term.first))
    if isinstance(term, Tensor):
        return Tensor(invert_structural(term.top), invert_structural(term.bottom))
    if isinstance(term, Id):
        return term
    pairs = {Assoc: AssocInv, AssocInv: Assoc, LUnit: LUnitInv, LUnitInv: LUnit,
             RUnit: RUnitInv, RUnitInv: RUnit, Braid: BraidInv, BraidInv: Braid}
    cls = pairs[type(term)]
    args = [getattr(term, f) for f in ("a", "b", "c") if hasattr(term, f)]
    return cls(*args)


def structural_connector(src: ObjExpr, dst: ObjExpr) -> MorExpr:
    """A structural term src -> dst (flattenings must agree)."""

    t1, c1 = to_canonical(src)
    t2, c2 = to_canonical(dst)
    assert c1 == c2, "objects do not share a flattening"
    return _smart_comp(t1, invert_structural(t2))


# ---------------------------------------------------------------------------
# General random terms
# ---------------------------------------------------------------------------


def _gens_by_dom(sig: Signature) -> dict[ObjExpr, list]:
    index: dict[ObjExpr, list] = {}
    for decl in sig.morphisms:
        index.setdefault(decl.dom, []).append(decl)
    return index


def random_term_with_dom(rng: Random, sig: Signature, dom: ObjExpr,
                         fuel: int, width_cap: int = 5,
                         _index=None) -> MorExpr:
    """A random well-typed term whose domain is exactly ``dom``."""

    index = _index if _index is not None else _gens_by_dom(sig)

    def width(obj: ObjExpr) -> int:
        return len(flatten_object(obj))

    def go(obj: ObjExpr, fuel: int) -> MorExpr:
        if fuel <= 0:
            return Id(obj)
        choices = ["id", "struct"]
        usable = [d for d in index.get(obj, []) if width(d.cod) <= width_cap]
        if usable:
            choices += ["gen"] * 3
            if any(d.iso for d in usable):
                choices.append("inv_after_gen")
        if fuel >= 2:
            choices += ["comp"] * 3
        if isinstance(obj, ObjTensor) and fuel >= 2:
            choices += ["tensor"] * 2
            if sig.has_level("braided"):
                choices.append("braid")
        kind = rng.choice(choices)
        if kind == "id":
            return Id(obj)
        if kind == "gen":
            return MorGen(rng.choice(usable).name)
        if kind == "inv_after_gen":
            decl = rng.choice([d for d in usable if d.iso])
            return Comp(MorGen(decl.name), Inv(decl.name))
        if kind == "struct":
            return random_structural_step(rng, obj, allow_braid=sig.has_level("braided"))
        if kind == "braid":
            return Braid(obj.left, obj.right)
        if kind == "tensor":
            split = rng.randint(1, fuel - 1)
            return Tensor(go(obj.left, split), go(obj.right, fuel - split))
        first = go(obj, fuel // 2 if fuel > 1 else 1)
        used = len(structural_atoms(first))
        second = go(typecheck(first, sig).cod, max(fuel - used, 0))
        return Comp(first, second)

    for _ in range(10):
        term = go(dom, fuel)
        if len(structural_atoms(term)) <= max(fuel, 1) + 4:
            return term
    return Id(dom)


def random_term(rng: Random, sig: Signature, max_leaves: int = 8,
                names=None) -> MorExpr:
    names = names or sig.objects
    dom = random_object(rng, names, max_leaves=2)
    return random_term_with_dom(rng, sig, dom, max_leaves)


def interchange_rewrite(rng: Random, term: MorExpr, sig: Signature) -> MorExpr:
    """``term`` with one random tensor ``f * g`` rewritten by the interchange
    law, to ``(f * id) ; (id * g)`` or ``(id * g) ; (f * id)``; ``term``
    itself if it holds no tensor."""

    def tensors(t: MorExpr):
        if isinstance(t, Tensor):
            yield t
        if isinstance(t, (Comp, Tensor)):
            for child in (t.first, t.second) if isinstance(t, Comp) else (t.top, t.bottom):
                yield from tensors(child)

    found = list(tensors(term))
    if not found:
        return term
    target = rng.choice(found)
    tf, tg = typecheck(target.top, sig), typecheck(target.bottom, sig)
    if rng.random() < 0.5:
        rewritten = Comp(Tensor(target.top, Id(tg.dom)), Tensor(Id(tf.cod), target.bottom))
    else:
        rewritten = Comp(Tensor(Id(tf.dom), target.bottom), Tensor(target.top, Id(tg.cod)))

    def rebuild(t: MorExpr) -> MorExpr:
        if t is target:
            return rewritten
        if isinstance(t, Comp):
            return Comp(rebuild(t.first), rebuild(t.second))
        if isinstance(t, Tensor):
            return Tensor(rebuild(t.top), rebuild(t.bottom))
        return t

    return rebuild(term)


def interchange_pair(seed: int, sig: Signature) -> tuple[MorExpr, MorExpr]:
    """A seeded ``random_term`` and the same term after 1-4 interchange
    rewrites: equal in every monoidal category."""

    rng = Random(seed)
    term = random_term(rng, sig, max_leaves=rng.randint(2, 12))
    other = term
    for _ in range(rng.randint(1, 4)):
        other = interchange_rewrite(rng, other, sig)
    return term, other


# ---------------------------------------------------------------------------
# Random backend instances
# ---------------------------------------------------------------------------


def _force_iso_sizes(sig: Signature, sizes: dict[str, int]) -> None:
    for decl in sig.morphisms:
        if not decl.iso:
            continue
        if dim_flat(decl.dom, sizes) == dim_flat(decl.cod, sizes):
            continue
        if isinstance(decl.cod, ObjGen):
            sizes[decl.cod.name] = dim_flat(decl.dom, sizes)
        elif isinstance(decl.dom, ObjGen):
            sizes[decl.dom.name] = dim_flat(decl.cod, sizes)
        assert dim_flat(decl.dom, sizes) == dim_flat(decl.cod, sizes), (
            f"cannot align carrier sizes for iso {decl.name}")


def _unit_disk(nprng: np.random.Generator, shape) -> np.ndarray:
    mag = np.sqrt(nprng.uniform(0, 1, shape))
    phase = nprng.uniform(0, 2 * np.pi, shape)
    return mag * np.exp(1j * phase)


def random_matrix_instance(rng: Random, sig: Signature, max_dim: int = 4,
                           tolerance: float = 1e-9) -> MatrixInstance:
    nprng = np.random.default_rng(rng.getrandbits(64))
    dims = {name: rng.randint(1, max_dim) for name in sig.objects}
    _force_iso_sizes(sig, dims)
    mats: dict[str, np.ndarray] = {}
    invs: dict[str, np.ndarray] = {}
    for decl in sig.morphisms:
        rows, cols = dim_flat(decl.cod, dims), dim_flat(decl.dom, dims)
        if decl.iso:
            gauss = nprng.normal(size=(rows, rows)) + 1j * nprng.normal(size=(rows, rows))
            q, _ = np.linalg.qr(gauss)
            mats[decl.name] = q
            invs[decl.name] = q.conj().T
        else:
            mats[decl.name] = _unit_disk(nprng, (rows, cols))
    return MatrixInstance(sig, dims, mats, invs, tolerance)


def random_rel_instance(rng: Random, sig: Signature, max_size: int = 3,
                        density: float = 0.3) -> RelInstance:
    sizes = {name: rng.randint(1, max_size) for name in sig.objects}
    _force_iso_sizes(sig, sizes)
    rels: dict[str, frozenset] = {}
    for decl in sig.morphisms:
        src, tgt = dim_flat(decl.dom, sizes), dim_flat(decl.cod, sizes)
        if decl.iso:
            perm = list(range(src))
            rng.shuffle(perm)
            rels[decl.name] = frozenset((x, perm[x]) for x in range(src))
        else:
            rels[decl.name] = frozenset(
                (x, y) for x in range(src) for y in range(tgt) if rng.random() < density)
    return RelInstance(sig, sizes, rels)
