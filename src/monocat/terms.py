"""Typed object and morphism terms with a structural typechecker.

Objects and morphisms are immutable trees.  Parenthesization is
significant: ``ObjTensor(ObjTensor(a, b), c)`` and
``ObjTensor(a, ObjTensor(b, c))`` are different values, and composition
is stored as a binary node so the association of a chain stays
observable.  ``Comp(f, g)`` is diagrammatic order: ``f`` happens first.

Every value is immutable after construction; the operations here are
pure but for a signature's record of known boundaries (see keep_type).
"""

from __future__ import annotations

import weakref
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
    """Base class of object expressions, which are hash-consed (Filliâtre &
    Conchon, "Type-Safe Modular Hash-Consing", 2006): a constructor call
    looks its class and already interned fields up in one table of weak
    references, so equal objects are one object, ``==`` is ``is`` and
    ``hash`` never walks the tree.  Copies and pickles rebuild through it.
    The table has no lock: objects are built by one thread at a time.

    What is derived from an object is kept on it once computed: the one
    slot ``_wires`` holds the flat wire list (``None`` until
    ``coherence.flatten_object`` first asks).  It lives on this base
    class, outside the dataclass fields, so ``vars()``, ``repr``, ``==``,
    copies and pickles never see it.
    """

    __slots__ = ("_wires",)
    _interned: dict = {}  # (class, fields) -> weak reference to the one live object

    def __new__(cls, *args, **kwargs):
        names = cls.__dataclass_fields__
        if kwargs:  # keywords go in field order after the positional fields
            args += tuple(kwargs.pop(name) for name in list(names)[len(args):] if name in kwargs)
        key = (cls, args)
        ref = ObjExpr._interned.get(key)
        obj = ref and ref()
        if obj is not None and not kwargs:
            return obj
        if kwargs or len(args) != len(names):  # a live object's key has the right fields
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)})")
        obj = object.__new__(cls)
        obj.__dict__.update(zip(names, args))
        _set_wires(obj, None)
        ObjExpr._interned[key] = weakref.ref(obj, lambda ref: (
            ObjExpr._interned.get(key) is ref and ObjExpr._interned.pop(key)))
        return obj

    def __reduce__(self):
        return type(self), node_fields(self)


_set_wires = ObjExpr._wires.__set__  # past the frozen dataclasses' __setattr__


@dataclass(frozen=True, eq=False, init=False)
class Unit(ObjExpr):
    """The distinguished unit object ``I`` (not a declarable generator)."""


@dataclass(frozen=True, eq=False, init=False)
class ObjGen(ObjExpr):
    """A declared object generator."""

    name: str


@dataclass(frozen=True, eq=False, init=False)
class ObjTensor(ObjExpr):
    """Tensor of two objects; the tree shape is never reassociated."""

    left: ObjExpr
    right: ObjExpr


@dataclass(frozen=True, eq=False, init=False)
class ObjVar(ObjExpr):
    """Object metavariable (legal only inside rewrite-rule patterns)."""

    name: str


UNIT = Unit()


# ---------------------------------------------------------------------------
# Morphism expressions
# ---------------------------------------------------------------------------


class MorExpr:
    """Base class of morphism expressions.

    Atoms compare and hash by their fields, as dataclasses do; their
    fields are names and interned objects, so that never recurses.
    ``Comp`` and ``Tensor`` take ``==`` and ``hash`` from here: the same
    structural ones, walked on an explicit stack, so no depth recurses.
    """

    __slots__ = ()

    def __eq__(self, other):
        if self.__class__ is not other.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            cls = a.__class__
            if a is b:
                continue
            if cls is not b.__class__:
                return False
            if cls is Comp or cls is Tensor:
                todo += zip(a.__dict__.values(), b.__dict__.values())
            elif a != b:
                return False
        return True

    def __hash__(self):
        return fold(self, hash, _node_hash, _node_hash)


def _node_hash(t: MorExpr, first: int, second: int) -> int:
    return hash((t.__class__, first, second))


@dataclass(frozen=True)
class MorGen(MorExpr):
    """A declared morphism generator."""

    name: str


@dataclass(frozen=True)
class Id(MorExpr):
    """Identity on an object."""

    obj: ObjExpr


@dataclass(frozen=True, eq=False)
class Comp(MorExpr):
    """Diagrammatic composition: ``first`` then ``second``."""

    first: MorExpr
    second: MorExpr


@dataclass(frozen=True, eq=False)
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


#: Each structural atom class: its keyword, the level it needs, its inverse,
#: its (dom, cod) from its object fields, and the glyph a diagram labels it
#: with (``None``: drawn as a crossing).
STRUCTURAL = {
    Assoc: ("alpha", "monoidal", AssocInv,
            lambda a, b, c: (ObjTensor(ObjTensor(a, b), c), ObjTensor(a, ObjTensor(b, c))), "α"),
    AssocInv: ("alpha_inv", "monoidal", Assoc,
               lambda a, b, c: (ObjTensor(a, ObjTensor(b, c)), ObjTensor(ObjTensor(a, b), c)),
               "α⁻¹"),
    LUnit: ("lunit", "monoidal", LUnitInv, lambda a: (ObjTensor(UNIT, a), a), "λ"),
    LUnitInv: ("lunit_inv", "monoidal", LUnit, lambda a: (a, ObjTensor(UNIT, a)), "λ⁻¹"),
    RUnit: ("runit", "monoidal", RUnitInv, lambda a: (ObjTensor(a, UNIT), a), "ρ"),
    RUnitInv: ("runit_inv", "monoidal", RUnit, lambda a: (a, ObjTensor(a, UNIT)), "ρ⁻¹"),
    Braid: ("braid", "braided", BraidInv, lambda a, b: (ObjTensor(a, b), ObjTensor(b, a)), None),
    BraidInv: ("braid_inv", "braided", Braid,
               lambda a, b: (ObjTensor(b, a), ObjTensor(a, b)), None),
}


def node_fields(node) -> tuple:
    """The fields of a term or object node, in declaration order."""

    return tuple(getattr(node, f) for f in node.__dataclass_fields__)


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
        self._gens = {name: ObjGen(name) for name in self.objects}  # declared name -> object
        for decl in self.morphisms:
            for obj in (decl.dom, decl.cod):
                _check_obj(obj, self._gens, allow_vars=False)
        self._kept: dict[int, tuple] = {}  # see keep_type
        for token, target in self.aliases.items():
            if target not in ("compose", "tensor", "id"):
                raise UnknownLevel(
                    f"alias {token!r} must map to compose, tensor or id, not {target!r}"
                )

    def __reduce__(self):
        # copies and pickles start with no kept boundaries: those are keyed by id
        return Signature, (self.level, self.objects, self.morphisms, self.aliases,
                           self.backend_blocks)

    def morphism(self, name: str) -> MorDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UndeclaredName(f"undeclared morphism {name!r}") from None

    def is_object(self, name: str) -> bool:
        return name in self._gens

    def has_level(self, wanted: str) -> bool:
        return LEVELS.index(self.level) >= LEVELS.index(wanted)


def _check_obj(obj: ObjExpr, declared, allow_vars: bool) -> None:
    """Raise at the leftmost generator not in ``declared`` or disallowed metavariable."""

    todo = [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, ObjTensor):
            todo += (o.right, o.left)
        elif isinstance(o, ObjGen):
            if o.name not in declared:
                raise UndeclaredName(f"undeclared object {o.name!r}", term=o)
        elif isinstance(o, ObjVar):
            if not allow_vars:
                raise UndeclaredName(f"object metavariable ?{o.name} outside a rule pattern",
                                     term=o)
        elif not isinstance(o, Unit):
            raise TypeError(f"not an object expression: {o!r}")


def obj_label(obj: ObjExpr) -> str:
    """Fully parenthesized object text, used in error messages."""

    parts: list[str] = []
    todo: list = [obj]  # objects still to label, and text to emit as it is
    while todo:
        o = todo.pop()
        if isinstance(o, str):
            parts.append(o)
        elif isinstance(o, ObjTensor):
            todo += (")", o.right, " * ", o.left, "(")
        else:
            parts.append("I" if isinstance(o, Unit) else "?" + o.name if isinstance(o, ObjVar)
                         else o.name)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


def keep_type(term: MorExpr, sig: Signature, ty: MorType) -> MorType:
    """Record ``ty`` as ``term``'s boundary under ``sig`` and return it.

    The record lives in the signature, keyed by ``id(term)`` next to a weak
    reference that removes it when the term goes, so ``==``, ``hash``,
    ``repr`` and ``vars()`` of the term never see it.
    """

    key, kept = id(term), sig._kept
    kept[key] = (weakref.ref(term, lambda _: kept.pop(key, None)), ty)
    return ty


def typecheck(term: MorExpr, sig: Signature, metavars: dict[str, MorType] | None = None) -> MorType:
    """Compute the (dom, cod) boundary of ``term`` against ``sig``.

    Composition requires the codomain of the first factor to equal the
    domain of the second *syntactically*; there is no matching up to
    associators here.  ``metavars`` supplies declared types for
    metavariables when checking rule patterns.  A term's boundary is kept
    per signature once known (:func:`parse_expr` keeps every root's), so
    typing it again is a lookup; pattern checks neither read nor keep it.
    """

    if metavars is not None:
        return Typer(sig, metavars)(term)
    kept = sig._kept.get(id(term))
    if kept is not None and kept[0]() is term:
        return kept[1]
    return keep_type(term, sig, Typer(sig)(term))


class Typer:
    """The typechecker behind :func:`typecheck`, set up once for ``sig``:
    call it on a term, or type nodes one at a time as the parser does.

    Boundaries are ``(dom, cod)`` pairs of interned objects, so a
    composition check is an ``is`` test.
    """

    def __init__(self, sig: Signature, metavars: dict[str, MorType] | None = None):
        self.sig = sig
        self.metavars = metavars

    def atom(self, t: MorExpr, checked: bool = False) -> tuple[ObjExpr, ObjExpr]:
        """``t``'s boundary; ``checked`` says its objects are known declared."""

        cls = type(t)
        if cls is MorGen or cls is Inv:
            decl = self.sig._by_name.get(t.name)
            if decl is None:
                raise UndeclaredName(f"undeclared morphism {t.name!r}", term=t)
            if cls is MorGen:
                return decl.dom, decl.cod
            if not decl.iso:
                raise NotAnIso(f"{t.name!r} is not declared iso", term=t)
            return decl.cod, decl.dom
        if cls is MorVar:
            if self.metavars is None or t.name not in self.metavars:
                raise UndeclaredName(f"undeclared metavariable ?{t.name}", term=t)
            ty = self.metavars[t.name]
            return ty.dom, ty.cod
        spec = STRUCTURAL.get(cls)
        if spec is None and cls is not Id:
            raise TypeError(f"not a morphism expression: {t!r}")
        if spec is not None and not self.sig.has_level(spec[1]):
            raise LevelViolation(f"{cls.__name__} needs a {spec[1]} signature; "
                                 f"this one is {self.sig.level}", term=t)
        args = (t.obj,) if spec is None else node_fields(t)
        if not checked:
            for obj in args:
                _check_obj(obj, self.sig._gens, allow_vars=self.metavars is not None)
        return (t.obj, t.obj) if spec is None else spec[3](*args)

    def comp(self, t: Comp, fst, snd) -> tuple[ObjExpr, ObjExpr]:
        if fst[1] is not snd[0]:
            raise CompositionMismatch(f"cannot compose: codomain {obj_label(fst[1])} "
                                      f"does not match domain {obj_label(snd[0])}", term=t)
        return fst[0], snd[1]

    def tensor(self, t: Tensor, top, bottom) -> tuple[ObjTensor, ObjTensor]:
        dom = ObjTensor(top[0], bottom[0])
        if top[0] is top[1] and bottom[0] is bottom[1]:  # both endomorphic
            return dom, dom
        return dom, ObjTensor(top[1], bottom[1])

    def __call__(self, term: MorExpr) -> MorType:
        return MorType(*fold(term, self.atom, self.comp, self.tensor))


def fold(term: MorExpr, atom, comp, tensor=None):
    """Fold ``term`` bottom-up with an explicit stack, never recursing.

    ``atom(t)`` is called on each leaf, left to right (top before bottom),
    and ``comp(t, first, second)`` or ``tensor(t, top, bottom)`` on each
    ``Comp`` or ``Tensor`` node with its children's results, after both.
    With ``tensor`` left out, tensors are leaves.
    """

    todo: list = []  # nodes whose first child is being folded; (combine, node, first result)
    t = term
    while True:
        cls = t.__class__
        while cls is Comp or cls is Tensor and tensor is not None:  # down to the leftmost leaf
            todo.append(t)
            t = t.first if cls is Comp else t.top
            cls = t.__class__
        result = atom(t)
        while todo:  # up to the next node whose second child is still to fold
            t = todo.pop()
            cls = t.__class__
            if cls is tuple:
                combine, node, first = t
                result = combine(node, first, result)
            else:
                todo.append((comp if cls is Comp else tensor, t, result))
                t = t.second if cls is Comp else t.bottom
                break
        else:
            return result


def _ignore(t: MorExpr, first, second) -> None:
    return None


def structural_atoms(term: MorExpr) -> list[MorExpr]:
    """All leaf atoms in left-to-right, top-to-bottom order."""

    atoms: list[MorExpr] = []
    fold(term, atoms.append, _ignore, _ignore)
    return atoms


def tensor_leaves(term: MorExpr) -> list[MorExpr] | None:
    """Leaves of the tensor tree of ``term``, or ``None`` if it holds a ``Comp``."""

    leaves: list[MorExpr] = []
    has_comp = fold(term, leaves.append, lambda t, f, g: True, lambda t, f, g: f or g)
    return None if has_comp else leaves


def iso_inverse(atom: MorExpr, sig: Signature) -> tuple[MorExpr, ...]:
    """All atoms whose composite with ``atom`` (either order) is an identity.

    The canonical inverse comes first.  At the symmetric level the
    reversed braiding is reported as an additional inverse of a
    braiding, so the result can have two entries.
    """

    cls = type(atom)
    if cls in STRUCTURAL:
        args = node_fields(atom)
        base = (STRUCTURAL[cls][2](*args),)
        if cls in (Braid, BraidInv) and sig.level == "symmetric":
            base += (cls(*args[::-1]),)
        return base
    if cls is Id:
        return (atom,)
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

    chain: list[MorExpr] = []
    fold(term, chain.append, _ignore)
    return chain


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
    return fold(term, lambda t: next(it), lambda t, first, second: (
        t if first is t.first and second is t.second else Comp(first, second)))


def replace_chain_element(term: MorExpr, index: int, new_el: MorExpr) -> MorExpr:
    """Replace the ``index``-th chain element of ``term``, keeping its shape."""

    chain = comp_chain(term)
    if not 0 <= index < len(chain):
        raise IndexError(index)
    chain[index] = new_el
    return rebuild_chain(term, chain)
