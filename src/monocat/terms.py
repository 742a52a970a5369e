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

import inspect
import weakref
from _thread import get_ident
from dataclasses import MISSING, FrozenInstanceError, dataclass, field
from operator import attrgetter

LEVELS = ("plain", "monoidal", "braided", "symmetric")


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
# Records
# ---------------------------------------------------------------------------


def record(cls=None, /, *, frozen=False, eq=True, init=True):
    """``@dataclass(frozen=..., eq=..., init=...)`` that compiles no code.

    ``dataclass`` only collects the fields, so ``fields``, ``replace`` and
    ``__match_args__`` work.  The methods it would generate are closures over
    the field names, with the same results and errors; ``__repr__`` walks
    nested records on an explicit stack.
    """

    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq, init=init)
    dataclass(cls, init=False, repr=False, eq=False)
    fields, names = cls.__dataclass_fields__.values(), tuple(cls.__dataclass_fields__)
    cls.__repr__, methods = _record_repr, []
    if init:
        methods.append(_init(cls, frozen))
        cls.__signature__ = inspect.Signature([  # what help() shows for a generated __init__
            inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                              default=_FACTORY if f.default_factory is not MISSING
                              else inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields if f.init], return_annotation=None)
    if eq:
        cmp = [f.name for f in fields if f.compare]
        get = attrgetter(*cmp) if cmp else lambda self: ()
        one = len(cmp) == 1  # then get gives the value, not a tuple

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return (get(self),) == (get(other),) if one else get(self) == get(other)

        def __hash__(self):
            return hash((get(self),) if one else get(self))
        cls.__hash__ = None
        methods += (__eq__, __hash__) if frozen else (__eq__,)
    if frozen:
        def __setattr__(self, name, value):
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self, name):
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)
        methods += (__setattr__, __delattr__)
    for fn in methods:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls


_MISSING = object()  # an argument left out
_FACTORY = type("_Factory", (), {"__repr__": lambda self: "<factory>"})()  # a signature's default


def _init(cls, frozen: bool):
    """``cls.__init__``: a closure of the class's arity for one or two
    fields and no ``__post_init__``, else one update of the instance dict;
    a call that does not give every field positionally binds through
    :func:`_bind`."""

    fields = cls.__dataclass_fields__.values()
    names = [f.name for f in fields if f.init or f.default_factory is not MISSING]
    n, post = sum(f.init for f in fields), hasattr(cls, "__post_init__")
    fast = n if n == len(names) else -1  # -1: always bind
    set_, M = object.__setattr__ if frozen else setattr, _MISSING
    if fast == 1 and not post:
        (a,) = names

        def __init__(self, x=M, /, *more, **kw):
            if x is M or more or kw:
                (x,) = _bind(cls, (x, *more), kw)
            set_(self, a, x)
    elif fast == 2 and not post:
        a, b = names

        def __init__(self, x=M, y=M, /, *more, **kw):
            if y is M or more or kw:
                x, y = _bind(cls, (x, y, *more), kw)
            set_(self, a, x)
            set_(self, b, y)
    else:
        def __init__(self, *args, **kw):
            if kw or len(args) != fast:
                args = _bind(cls, args, kw)
            self.__dict__.update(zip(names, args))
            if post:
                self.__post_init__()
    return __init__


def _bind(cls, args: tuple, kw: dict) -> tuple:
    """What a dataclass ``__init__`` sets for ``cls(*args, **kw)``, in field
    order, or the ``TypeError`` it raises for that argument list."""

    args = args[:next((i for i, v in enumerate(args) if v is _MISSING), len(args))]
    fields = [f for f in cls.__dataclass_fields__.values() if f.init]
    where, names = f"{cls.__qualname__}.__init__()", [f.name for f in fields]
    values = dict(zip(names, args))
    for name in kw:
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values.update(kw)
    required = [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING]
    if len(args) > len(names):
        least, most = len(required) + 1, len(names) + 1
        takes = f"from {least} to {most}" if least < most else most
        plural = "s" * (least < most or most > 1)
        raise TypeError(f"{where} takes {takes} positional argument{plural} but {len(args) + 1} were given")
    missing = [repr(name) for name in required if name not in values]
    if missing:
        listed = " and ".join(missing) if len(missing) < 3 else \
            ", ".join(missing[:-1]) + ", and " + missing[-1]
        raise TypeError(f"{where} missing {len(missing)} required positional "
                        f"argument{'s' * (len(missing) > 1)}: {listed}")
    return tuple(values[f.name] if f.name in values else f.default if f.default is not MISSING
                 else f.default_factory() for f in cls.__dataclass_fields__.values()
                 if f.init or f.default_factory is not MISSING)


_repr_running: set = set()  # (id, thread) of each record being printed


def _record_repr(self) -> str:
    """``Class(field=value, ...)`` as a dataclass prints it.  Nested records
    are printed from an explicit stack, so no depth recurses; a record met
    again inside its own text prints as ``...``."""

    thread, parts, todo = get_ident(), [], [self]
    try:
        while todo:
            x = todo.pop()
            if x.__class__ is str:
                parts.append(x)
            elif x.__class__ is tuple:  # the end of a record's text
                _repr_running.discard(x)
            elif (id(x), thread) in _repr_running:
                parts.append("...")
            else:
                _repr_running.add((id(x), thread))
                todo += ((id(x), thread), ")")
                shown = [f.name for f in x.__dataclass_fields__.values() if f.repr]
                for i in range(len(shown) - 1, -1, -1):
                    v = getattr(x, shown[i])
                    todo += (v if v.__class__.__repr__ is _record_repr else repr(v),
                             f"{', ' if i else ''}{shown[i]}=")
                todo.append(f"{x.__class__.__qualname__}(")
    finally:  # the records still open when a repr raised
        _repr_running.difference_update(t for t in todo if t.__class__ is tuple)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Object expressions
# ---------------------------------------------------------------------------


class ObjExpr:
    """Base class of object expressions, which are hash-consed (Filliâtre &
    Conchon, "Type-Safe Modular Hash-Consing", 2006): a constructor call
    looks its class and already interned fields up in one table of weak
    references, so equal objects are one object, ``==`` is ``is`` and
    ``hash`` never walks the tree.  A copy is the object itself, so even a
    deep copy walks nothing; pickles rebuild through the table.
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
        if kwargs or len(args) != len(names):
            args = _bind(cls, args, kwargs)
        key = (cls, args)
        ref = ObjExpr._interned.get(key)
        obj = ref and ref()
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        obj.__dict__.update(zip(names, args))
        _set_wires(obj, None)
        ObjExpr._interned[key] = weakref.ref(obj, lambda ref: (
            ObjExpr._interned.get(key) is ref and ObjExpr._interned.pop(key)))
        return obj

    def __reduce__(self):
        return type(self), node_fields(self)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__


_set_wires = ObjExpr._wires.__set__  # past the frozen records' __setattr__


@record(frozen=True, eq=False, init=False)
class Unit(ObjExpr):
    """The distinguished unit object ``I`` (not a declarable generator)."""


@record(frozen=True, eq=False, init=False)
class ObjGen(ObjExpr):
    """A declared object generator."""

    name: str


@record(frozen=True, eq=False, init=False)
class ObjTensor(ObjExpr):
    """Tensor of two objects; the tree shape is never reassociated."""

    left: ObjExpr
    right: ObjExpr


@record(frozen=True, eq=False, init=False)
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


@record(frozen=True)
class MorGen(MorExpr):
    """A declared morphism generator."""

    name: str


@record(frozen=True)
class Id(MorExpr):
    """Identity on an object."""

    obj: ObjExpr


@record(frozen=True, eq=False)
class Comp(MorExpr):
    """Diagrammatic composition: ``first`` then ``second``."""

    first: MorExpr
    second: MorExpr


@record(frozen=True, eq=False)
class Tensor(MorExpr):
    """Tensor (vertical stacking): ``top`` above ``bottom``."""

    top: MorExpr
    bottom: MorExpr


@record(frozen=True)
class Assoc(MorExpr):
    """Associator: (a tensor b) tensor c -> a tensor (b tensor c)."""

    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@record(frozen=True)
class AssocInv(MorExpr):
    """Inverse associator: a tensor (b tensor c) -> (a tensor b) tensor c."""

    a: ObjExpr
    b: ObjExpr
    c: ObjExpr


@record(frozen=True)
class LUnit(MorExpr):
    """Left unitor: I tensor a -> a."""

    a: ObjExpr


@record(frozen=True)
class LUnitInv(MorExpr):
    """Inverse left unitor: a -> I tensor a."""

    a: ObjExpr


@record(frozen=True)
class RUnit(MorExpr):
    """Right unitor: a tensor I -> a."""

    a: ObjExpr


@record(frozen=True)
class RUnitInv(MorExpr):
    """Inverse right unitor: a -> a tensor I."""

    a: ObjExpr


@record(frozen=True)
class Braid(MorExpr):
    """Braiding: a tensor b -> b tensor a."""

    a: ObjExpr
    b: ObjExpr


@record(frozen=True)
class BraidInv(MorExpr):
    """Inverse braiding: b tensor a -> a tensor b."""

    a: ObjExpr
    b: ObjExpr


@record(frozen=True)
class Inv(MorExpr):
    """Inverse of a generator declared ``iso``."""

    name: str


@record(frozen=True)
class MorVar(MorExpr):
    """Morphism metavariable (legal only inside rewrite-rule patterns)."""

    name: str


#: Each atom class whose fields are objects: its keyword, the level it needs,
#: its inverse, its (dom, cod) from its object fields, the glyph a diagram
#: labels it with (``None``: drawn as wires or a crossing), and for a crossing
#: the two halves it swaps, in input order (``None``: it swaps nothing).
STRUCTURAL = {
    Id: ("id", "plain", Id, lambda a: (a, a), None, None),
    Assoc: ("alpha", "monoidal", AssocInv,
            lambda a, b, c: (ObjTensor(ObjTensor(a, b), c), ObjTensor(a, ObjTensor(b, c))), "α",
            None),
    AssocInv: ("alpha_inv", "monoidal", Assoc,
               lambda a, b, c: (ObjTensor(a, ObjTensor(b, c)), ObjTensor(ObjTensor(a, b), c)),
               "α⁻¹", None),
    LUnit: ("lunit", "monoidal", LUnitInv, lambda a: (ObjTensor(UNIT, a), a), "λ", None),
    LUnitInv: ("lunit_inv", "monoidal", LUnit, lambda a: (a, ObjTensor(UNIT, a)), "λ⁻¹", None),
    RUnit: ("runit", "monoidal", RUnitInv, lambda a: (ObjTensor(a, UNIT), a), "ρ", None),
    RUnitInv: ("runit_inv", "monoidal", RUnit, lambda a: (a, ObjTensor(a, UNIT)), "ρ⁻¹", None),
    Braid: ("braid", "braided", BraidInv, lambda a, b: (ObjTensor(a, b), ObjTensor(b, a)), None,
            lambda a, b: (a, b)),
    BraidInv: ("braid_inv", "braided", Braid,
               lambda a, b: (ObjTensor(b, a), ObjTensor(a, b)), None, lambda a, b: (b, a)),
}

#: Names with built-in meaning in the expression grammar; they can never
#: be declared as object or morphism generators.
RESERVED_NAMES = frozenset({"I", "inv", *(spec[0] for spec in STRUCTURAL.values())})


def node_fields(node) -> tuple:
    """The fields of a term or object node, in declaration order: records
    fill their instance dict in field order and take no other attribute."""

    return tuple(node.__dict__.values())


@record(frozen=True)
class MorType:
    """Domain and codomain of a morphism term."""

    dom: ObjExpr
    cod: ObjExpr


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------


@record(frozen=True)
class MorDecl:
    """A declared morphism generator."""

    name: str
    dom: ObjExpr
    cod: ObjExpr
    iso: bool = False


@record(frozen=True)
class BackendBlock:
    """Raw backend payload lines; parsed by the semantics module only."""

    kind: str
    entries: tuple[tuple[int, str], ...]  # (line number, text)


@record
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


def print_obj(obj: ObjExpr, full: bool = False) -> str:
    """Canonical object text, which parses back to exactly ``obj``: only a
    compound right factor is bracketed.  ``full`` brackets every tensor, as
    error messages print objects."""

    parts: list[str] = []
    todo: list = [obj]  # objects still to print, and text to emit as it is
    while todo:
        o = todo.pop()
        cls = o.__class__
        if cls is str:
            parts.append(o)
        elif cls is ObjTensor:
            todo += (")", o.right, " * ", o.left, "(") if full else \
                (")", o.right, "(", " * ", o.left) if o.right.__class__ is ObjTensor else \
                (o.right, " * ", o.left)
        else:
            parts.append("I" if cls is Unit else "?" + o.name if cls is ObjVar else o.name)
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
        if spec is None:
            raise TypeError(f"not a morphism expression: {t!r}")
        if not self.sig.has_level(spec[1]):
            raise LevelViolation(f"{cls.__name__} needs a {spec[1]} signature; "
                                 f"this one is {self.sig.level}", term=t)
        args = node_fields(t)
        if not checked:
            for obj in args:
                _check_obj(obj, self.sig._gens, allow_vars=self.metavars is not None)
        return spec[3](*args)

    def comp(self, t: Comp, fst, snd) -> tuple[ObjExpr, ObjExpr]:
        if fst[1] is not snd[0]:
            raise CompositionMismatch(f"cannot compose: codomain {print_obj(fst[1], True)} "
                                      f"does not match domain {print_obj(snd[0], True)}", term=t)
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
        spec, args = STRUCTURAL[cls], node_fields(atom)
        base = (spec[2](*args),)
        if spec[5] is not None and sig.level == "symmetric":
            base += (cls(*args[::-1]),)
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
