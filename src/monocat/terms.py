"""Typed object and morphism terms with a structural typechecker.

Objects and morphisms are immutable trees.  Parenthesization is
significant: ``ObjTensor(ObjTensor(a, b), c)`` and
``ObjTensor(a, ObjTensor(b, c))`` are different values, and composition
is stored as a binary node so the association of a chain stays
observable.  ``Comp(f, g)`` is diagrammatic order: ``f`` happens first.

Every value is immutable after construction; all operations here are
pure and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LEVELS = ("plain", "monoidal", "braided", "symmetric")

#: Names with built-in meaning in the expression grammar; they can never
#: be declared as object or morphism generators.
RESERVED_NAMES = frozenset(
    {
        "I",
        "id",
        "inv",
        "alpha",
        "alpha_inv",
        "lunit",
        "lunit_inv",
        "runit",
        "runit_inv",
        "braid",
        "braid_inv",
    }
)


class CatError(Exception):
    """Base class for every error raised by this package.

    ``span`` (when set) locates the offending source text; ``term``
    points at the offending subterm when the error came from a
    typechecking pass.
    """

    def __init__(self, message: str, *, span=None, term=None):
        super().__init__(message)
        self.span = span
        self.term = term


class UndeclaredName(CatError):
    """A generator name is not declared in the active signature."""


class CompositionMismatch(CatError):
    """``Comp(f, g)`` where ``cod(f)`` differs from ``dom(g)``."""


class LevelViolation(CatError):
    """A structural atom above the signature's category level."""


class NotAnIso(CatError):
    """``Inv`` applied to a generator not declared ``iso``."""


class NotInvertible(CatError):
    """``iso_inverse`` applied to an atom with no inverse."""


class TypeMismatch(CatError):
    """Two terms compared as equivalent do not share a boundary type."""


class DuplicateName(CatError):
    """A name declared twice (or clashing with a built-in name)."""


class UnknownLevel(CatError):
    """Category level outside plain/monoidal/braided/symmetric."""


# ---------------------------------------------------------------------------
# Object expressions
# ---------------------------------------------------------------------------


class ObjExpr:
    """Base class of object expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Unit(ObjExpr):
    """The distinguished unit object ``I`` (not a declarable generator)."""

    def __repr__(self):
        return "Unit()"


@dataclass(frozen=True)
class ObjGen(ObjExpr):
    """A declared object generator."""

    name: str


@dataclass(frozen=True)
class ObjTensor(ObjExpr):
    """Tensor of two objects; the tree shape is never reassociated."""

    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True)
class ObjVar(ObjExpr):
    """Object metavariable (legal only inside rewrite-rule patterns)."""

    name: str


UNIT = Unit()


# ---------------------------------------------------------------------------
# Morphism expressions
# ---------------------------------------------------------------------------


class MorExpr:
    """Base class of morphism expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class MorGen(MorExpr):
    """A declared morphism generator."""

    name: str


@dataclass(frozen=True)
class Id(MorExpr):
    """Identity on an object."""

    obj: ObjExpr


@dataclass(frozen=True)
class Comp(MorExpr):
    """Diagrammatic composition: ``first`` then ``second``."""

    first: MorExpr
    second: MorExpr


@dataclass(frozen=True)
class Tensor(MorExpr):
    """Tensor (vertical stacking): ``top`` above ``bottom``."""

    top: MorExpr
    bottom: MorExpr


@dataclass(frozen=True)
class Assoc(MorExpr):
    """Associator: (a tensor b) tensor c -> a tensor (b tensor c)."""

    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class AssocInv(MorExpr):
    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@dataclass(frozen=True)
class LUnit(MorExpr):
    """Left unitor: I tensor a -> a."""

    a: ObjExpr


@dataclass(frozen=True)
class LUnitInv(MorExpr):
    a: ObjExpr


@dataclass(frozen=True)
class RUnit(MorExpr):
    """Right unitor: a tensor I -> a."""

    a: ObjExpr


@dataclass(frozen=True)
class RUnitInv(MorExpr):
    a: ObjExpr


@dataclass(frozen=True)
class Braid(MorExpr):
    """Braiding: a tensor b -> b tensor a."""

    a: ObjExpr
    b: ObjExpr


@dataclass(frozen=True)
class BraidInv(MorExpr):
    a: ObjExpr
    b: ObjExpr


@dataclass(frozen=True)
class Inv(MorExpr):
    """Inverse of a generator declared ``iso``."""

    name: str


@dataclass(frozen=True)
class MorVar(MorExpr):
    """Morphism metavariable (legal only inside rewrite-rule patterns)."""

    name: str


#: Atom node classes: the leaves enumerated by :func:`structural_atoms`.
ATOM_TYPES = (
    MorGen,
    Id,
    Assoc,
    AssocInv,
    LUnit,
    LUnitInv,
    RUnit,
    RUnitInv,
    Braid,
    BraidInv,
    Inv,
    MorVar,
)

STRUCTURAL_MONOIDAL = (Assoc, AssocInv, LUnit, LUnitInv, RUnit, RUnitInv)
STRUCTURAL_BRAIDED = (Braid, BraidInv)


@dataclass(frozen=True)
class MorType:
    """Domain and codomain of a morphism term."""

    dom: ObjExpr
    cod: ObjExpr


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorDecl:
    """A declared morphism generator."""

    name: str
    dom: ObjExpr
    cod: ObjExpr
    iso: bool = False


@dataclass(frozen=True)
class BackendBlock:
    """Raw backend payload lines; parsed by the semantics module only."""

    kind: str
    entries: tuple[tuple[int, str], ...]  # (line number, text)


@dataclass
class Signature:
    """Declared objects and morphisms plus category level and notation.

    Treated as immutable after construction.  ``aliases`` maps a
    notation token to one of the builtins ``compose``, ``tensor`` or
    ``id``; ``backend_blocks`` are opaque payloads owned by the
    semantics module.
    """

    level: str = "symmetric"
    objects: tuple[str, ...] = ()
    morphisms: tuple[MorDecl, ...] = ()
    aliases: dict[str, str] = field(default_factory=dict)
    backend_blocks: tuple[BackendBlock, ...] = ()

    def __post_init__(self):
        if self.level not in LEVELS:
            raise UnknownLevel(
                f"unknown category level {self.level!r}; expected one of {', '.join(LEVELS)}"
            )
        seen: set[str] = set()
        for name in list(self.objects) + [m.name for m in self.morphisms]:
            if name in RESERVED_NAMES:
                raise DuplicateName(f"{name!r} is a reserved built-in name")
            if name in seen:
                raise DuplicateName(f"{name!r} declared more than once")
            seen.add(name)
        self._by_name = {m.name: m for m in self.morphisms}
        objset = set(self.objects)
        for decl in self.morphisms:
            for obj in (decl.dom, decl.cod):
                _check_obj(obj, objset, allow_vars=False)
        for token, target in self.aliases.items():
            if target not in ("compose", "tensor", "id"):
                raise UnknownLevel(
                    f"alias {token!r} must map to compose, tensor or id, not {target!r}"
                )

    def morphism(self, name: str) -> MorDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UndeclaredName(f"undeclared morphism {name!r}") from None

    def is_object(self, name: str) -> bool:
        return name in self.objects

    def has_level(self, wanted: str) -> bool:
        return LEVELS.index(self.level) >= LEVELS.index(wanted)


def _check_obj(obj: ObjExpr, objset: set[str], allow_vars: bool) -> None:
    if isinstance(obj, Unit):
        return
    if isinstance(obj, ObjGen):
        if obj.name not in objset:
            raise UndeclaredName(f"undeclared object {obj.name!r}", term=obj)
        return
    if isinstance(obj, ObjTensor):
        _check_obj(obj.left, objset, allow_vars)
        _check_obj(obj.right, objset, allow_vars)
        return
    if isinstance(obj, ObjVar):
        if not allow_vars:
            raise UndeclaredName(
                f"object metavariable ?{obj.name} outside a rule pattern", term=obj
            )
        return
    raise TypeError(f"not an object expression: {obj!r}")


def obj_label(obj: ObjExpr) -> str:
    """Fully parenthesized object text, used in error messages."""

    if isinstance(obj, Unit):
        return "I"
    if isinstance(obj, ObjGen):
        return obj.name
    if isinstance(obj, ObjVar):
        return "?" + obj.name
    return f"({obj_label(obj.left)} * {obj_label(obj.right)})"


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


def typecheck(term: MorExpr, sig: Signature, metavars: dict[str, MorType] | None = None) -> MorType:
    """Compute the (dom, cod) boundary of ``term`` against ``sig``.

    Composition requires the codomain of the first factor to equal the
    domain of the second *syntactically*; there is no matching up to
    associators here.  ``metavars`` supplies declared types for
    metavariables when checking rule patterns.
    """

    return typer(sig, metavars)(term)


def typer(sig: Signature, metavars: dict[str, MorType] | None = None):
    """The function behind :func:`typecheck`, set up once for ``sig``, for
    callers that type many atoms of one term."""

    objset = set(sig.objects)
    pattern_mode = metavars is not None

    def obj_ok(obj: ObjExpr) -> ObjExpr:
        _check_obj(obj, objset, allow_vars=pattern_mode)
        return obj

    def need_level(t: MorExpr, wanted: str) -> None:
        if not sig.has_level(wanted):
            raise LevelViolation(
                f"{type(t).__name__} needs a {wanted} signature; this one is {sig.level}",
                term=t,
            )

    def decl_of(t: MorExpr, name: str) -> MorDecl:
        try:
            return sig.morphism(name)
        except UndeclaredName as err:
            err.term = t
            raise

    def ty(t: MorExpr) -> MorType:
        if isinstance(t, MorGen):
            decl = decl_of(t, t.name)
            return MorType(decl.dom, decl.cod)
        if isinstance(t, MorVar):
            if not pattern_mode or t.name not in metavars:
                raise UndeclaredName(f"undeclared metavariable ?{t.name}", term=t)
            return metavars[t.name]
        if isinstance(t, Id):
            obj_ok(t.obj)
            return MorType(t.obj, t.obj)
        if isinstance(t, Comp):
            fst = ty(t.first)
            snd = ty(t.second)
            if fst.cod != snd.dom:
                raise CompositionMismatch(
                    f"cannot compose: codomain {obj_label(fst.cod)} "
                    f"does not match domain {obj_label(snd.dom)}",
                    term=t,
                )
            return MorType(fst.dom, snd.cod)
        if isinstance(t, Tensor):
            top = ty(t.top)
            bot = ty(t.bottom)
            return MorType(ObjTensor(top.dom, bot.dom), ObjTensor(top.cod, bot.cod))
        if isinstance(t, Assoc):
            need_level(t, "monoidal")
            a, b, c = obj_ok(t.a), obj_ok(t.b), obj_ok(t.c)
            return MorType(ObjTensor(ObjTensor(a, b), c), ObjTensor(a, ObjTensor(b, c)))
        if isinstance(t, AssocInv):
            need_level(t, "monoidal")
            a, b, c = obj_ok(t.a), obj_ok(t.b), obj_ok(t.c)
            return MorType(ObjTensor(a, ObjTensor(b, c)), ObjTensor(ObjTensor(a, b), c))
        if isinstance(t, LUnit):
            need_level(t, "monoidal")
            a = obj_ok(t.a)
            return MorType(ObjTensor(UNIT, a), a)
        if isinstance(t, LUnitInv):
            need_level(t, "monoidal")
            a = obj_ok(t.a)
            return MorType(a, ObjTensor(UNIT, a))
        if isinstance(t, RUnit):
            need_level(t, "monoidal")
            a = obj_ok(t.a)
            return MorType(ObjTensor(a, UNIT), a)
        if isinstance(t, RUnitInv):
            need_level(t, "monoidal")
            a = obj_ok(t.a)
            return MorType(a, ObjTensor(a, UNIT))
        if isinstance(t, Braid):
            need_level(t, "braided")
            a, b = obj_ok(t.a), obj_ok(t.b)
            return MorType(ObjTensor(a, b), ObjTensor(b, a))
        if isinstance(t, BraidInv):
            need_level(t, "braided")
            a, b = obj_ok(t.a), obj_ok(t.b)
            return MorType(ObjTensor(b, a), ObjTensor(a, b))
        if isinstance(t, Inv):
            decl = decl_of(t, t.name)
            if not decl.iso:
                raise NotAnIso(f"{t.name!r} is not declared iso", term=t)
            return MorType(decl.cod, decl.dom)
        raise TypeError(f"not a morphism expression: {t!r}")

    return ty


def structural_atoms(term: MorExpr) -> list[MorExpr]:
    """All leaf atoms in left-to-right, top-to-bottom order."""

    out: list[MorExpr] = []

    def walk(t: MorExpr) -> None:
        if isinstance(t, Comp):
            walk(t.first)
            walk(t.second)
        elif isinstance(t, Tensor):
            walk(t.top)
            walk(t.bottom)
        else:
            out.append(t)

    walk(term)
    return out


def tensor_leaves(term: MorExpr) -> list[MorExpr] | None:
    """Leaves of the tensor tree of ``term``, or ``None`` if it holds a ``Comp``."""

    if isinstance(term, Tensor):
        top, bottom = tensor_leaves(term.top), tensor_leaves(term.bottom)
        return None if top is None or bottom is None else top + bottom
    return None if isinstance(term, Comp) else [term]


def is_atom(term: MorExpr) -> bool:
    return isinstance(term, ATOM_TYPES)


def iso_inverse(atom: MorExpr, sig: Signature) -> tuple[MorExpr, ...]:
    """All atoms whose composite with ``atom`` (either order) is an identity.

    The canonical inverse comes first.  At the symmetric level the
    reversed braiding is reported as an additional inverse of a
    braiding, so the result can have two entries.
    """

    if isinstance(atom, Assoc):
        return (AssocInv(atom.a, atom.b, atom.c),)
    if isinstance(atom, AssocInv):
        return (Assoc(atom.a, atom.b, atom.c),)
    if isinstance(atom, LUnit):
        return (LUnitInv(atom.a),)
    if isinstance(atom, LUnitInv):
        return (LUnit(atom.a),)
    if isinstance(atom, RUnit):
        return (RUnitInv(atom.a),)
    if isinstance(atom, RUnitInv):
        return (RUnit(atom.a),)
    if isinstance(atom, Id):
        return (atom,)
    if isinstance(atom, Braid):
        base = (BraidInv(atom.a, atom.b),)
        if sig.level == "symmetric":
            base += (Braid(atom.b, atom.a),)
        return base
    if isinstance(atom, BraidInv):
        base = (Braid(atom.a, atom.b),)
        if sig.level == "symmetric":
            base += (BraidInv(atom.b, atom.a),)
        return base
    if isinstance(atom, MorGen):
        if sig.morphism(atom.name).iso:
            return (Inv(atom.name),)
        raise NotInvertible(f"generator {atom.name!r} is not an iso", term=atom)
    if isinstance(atom, Inv):
        return (MorGen(atom.name),)
    raise NotInvertible(f"{type(atom).__name__} is not an invertible atom", term=atom)


# ---------------------------------------------------------------------------
# Composition-chain helpers shared by the tactic and CLI layers
# ---------------------------------------------------------------------------


def comp_chain(term: MorExpr) -> list[MorExpr]:
    """Flatten nested compositions into the list of non-``Comp`` elements."""

    out: list[MorExpr] = []

    def walk(t: MorExpr) -> None:
        if isinstance(t, Comp):
            walk(t.first)
            walk(t.second)
        else:
            out.append(t)

    walk(term)
    return out


def right_comp(elements: list[MorExpr], dom_if_empty: ObjExpr) -> MorExpr:
    """Right-associated composition of ``elements`` (identity when empty)."""

    if not elements:
        return Id(dom_if_empty)
    result = elements[-1]
    for el in reversed(elements[:-1]):
        result = Comp(el, result)
    return result


def rebuild_chain(term: MorExpr, elements: list[MorExpr]) -> MorExpr:
    """``term``'s composition tree with its chain elements replaced, in
    order, by ``elements``; subtrees whose elements are unchanged (``is``)
    are reused, so an unchanged chain comes back as ``term`` itself."""

    it = iter(elements)

    def go(t: MorExpr) -> MorExpr:
        if not isinstance(t, Comp):
            return next(it)
        first, second = go(t.first), go(t.second)
        return t if first is t.first and second is t.second else Comp(first, second)

    return go(term)


def replace_chain_element(term: MorExpr, index: int, new_el: MorExpr) -> MorExpr:
    """Replace the ``index``-th chain element of ``term``, keeping its shape."""

    chain = comp_chain(term)
    if not 0 <= index < len(chain):
        raise IndexError(index)
    chain[index] = new_el
    return rebuild_chain(term, chain)
