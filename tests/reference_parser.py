"""The untyped expression parser that ``monocat.parser.parse_expr`` replaced.

It builds the whole term first, recording every node's span by
``id(node)`` (an interned object's at its first occurrence), and only
then typechecks it in a separate recursive walk
(the typechecker as it was, restated here); a type error gets the span of
the node it names.  Kept as the reference the typing parser is tested
against: on any text both must return equal terms, or raise the same
exception class with the same message and span.  ``reference_strip_comment``
is the character loop that the signature and rule-file comment stripper
replaced with one regex match.
"""

from __future__ import annotations

from monocat.parser import STRUCTURAL_KEYWORDS, ParseError, SourceSpan, tokenize
from monocat.terms import (
    UNIT,
    Assoc,
    AssocInv,
    Braid,
    BraidInv,
    CatError,
    Comp,
    CompositionMismatch,
    Id,
    Inv,
    LevelViolation,
    LUnit,
    LUnitInv,
    MorExpr,
    MorGen,
    MorType,
    MorVar,
    NotAnIso,
    ObjExpr,
    ObjGen,
    ObjTensor,
    ObjVar,
    RESERVED_NAMES,
    RUnit,
    Signature,
    Tensor,
    UndeclaredName,
    print_obj,
)


class ReferenceParser:
    """Recursive-descent parser; ``spans`` maps ``id(node)`` to its span."""

    def __init__(self, tokens, allow_metavars: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.allow_metavars = allow_metavars
        self.spans: dict[int, tuple[int, int, int, int]] = {}

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str | None = None):
        t = self.tokens[self.pos]
        if t[0] != kind:
            raise self._error(f"expected {what or kind}, found {t[1]!r}" if t[0] != "EOF"
                              else f"expected {what or kind}, found end of input", t)
        self.pos += 1
        return t

    def _error(self, message: str, t) -> ParseError:
        return ParseError(message, span=SourceSpan(*t[2:]))

    def _note(self, term, start):
        """Record ``term``'s span from token ``start`` to the last consumed
        token, unless an earlier occurrence of the same node (objects are
        interned) has one: an error names a node's first occurrence."""
        end = self.tokens[self.pos - 1]
        self.spans.setdefault(id(term), (start[-4], start[-3], start[-2], end[-1]))
        return term

    def _widen(self, term, lparen, inner):
        """Widen ``term``'s span over the parentheses just consumed when it
        is the occurrence just parsed: its span starts at token ``inner``."""
        span = self.spans.get(id(term))
        if span is not None and span[2] == inner[-2]:
            self.spans[id(term)] = (*lparen[-4:-1], self.tokens[self.pos - 1][-1])
        return term

    def parse_expr(self) -> MorExpr:
        start = self.tokens[self.pos]
        term = self.parse_tensor()
        while self.tokens[self.pos][0] == "COMPOSE":
            self.pos += 1
            rhs = self.parse_tensor()
            term = self._note(Comp(term, rhs), start)
        return term

    def parse_tensor(self) -> MorExpr:
        start = self.tokens[self.pos]
        term = self.parse_atom()
        while self.tokens[self.pos][0] == "TENSOR":
            self.pos += 1
            rhs = self.parse_atom()
            term = self._note(Tensor(term, rhs), start)
        return term

    def parse_atom(self) -> MorExpr:
        t = self.next()
        kind, name = t[0], t[1]
        if kind == "LPAREN":
            inner = self.tokens[self.pos]
            term = self.parse_expr()
            self.expect("RPAREN", "')'")
            return self._widen(term, t, inner)
        if kind == "METAVAR":
            if not self.allow_metavars:
                raise self._error("metavariables are only allowed in rule files", t)
            return self._note(MorVar(name), t)
        if kind != "NAME":
            raise self._error(f"expected a morphism, found {name!r}", t)
        if name == "id":
            self.expect("LBRACK", "'['")
            obj = self.parse_obj()
            self.expect("RBRACK", "']'")
            return self._note(Id(obj), t)
        if name in STRUCTURAL_KEYWORDS:
            cls, arity = STRUCTURAL_KEYWORDS[name]
            self.expect("LBRACK", "'['")
            args = [self.parse_obj()]
            for _ in range(arity - 1):
                self.expect("COMMA", "','")
                args.append(self.parse_obj())
            self.expect("RBRACK", "']'")
            return self._note(cls(*args), t)
        if name == "inv":
            self.expect("LPAREN", "'('")
            inner = self.expect("NAME", "a generator name")
            self.expect("RPAREN", "')'")
            return self._note(Inv(inner[1]), t)
        if name == "I":
            raise self._error("'I' is an object, not a morphism", t)
        return self._note(MorGen(name), t)

    def parse_obj(self) -> ObjExpr:
        start = self.tokens[self.pos]
        obj = self.parse_objatom()
        while self.tokens[self.pos][0] == "TENSOR":
            self.pos += 1
            rhs = self.parse_objatom()
            obj = self._note(ObjTensor(obj, rhs), start)
        return obj

    def parse_objatom(self) -> ObjExpr:
        t = self.next()
        kind, name = t[0], t[1]
        if kind == "LPAREN":
            inner = self.tokens[self.pos]
            obj = self.parse_obj()
            self.expect("RPAREN", "')'")
            return self._widen(obj, t, inner)
        if kind == "METAVAR":
            if not self.allow_metavars:
                raise self._error("metavariables are only allowed in rule files", t)
            return self._note(ObjVar(name), t)
        if kind != "NAME":
            raise self._error(f"expected an object, found {name!r}", t)
        if name == "I":
            return self._note(UNIT, t)
        if name in RESERVED_NAMES:
            raise self._error(f"{name!r} cannot be used as an object", t)
        return self._note(ObjGen(name), t)


def reference_typecheck(term: MorExpr, sig: Signature) -> MorType:
    """The recursive post-order typechecker, comparing boundaries by ``==``."""

    def obj_ok(obj: ObjExpr) -> ObjExpr:
        if isinstance(obj, ObjTensor):
            obj_ok(obj.left)
            obj_ok(obj.right)
        elif isinstance(obj, ObjGen) and not sig.is_object(obj.name):
            raise UndeclaredName(f"undeclared object {obj.name!r}", term=obj)
        elif isinstance(obj, ObjVar):
            raise UndeclaredName(f"object metavariable ?{obj.name} outside a rule pattern",
                                 term=obj)
        return obj

    def need_level(t: MorExpr, wanted: str) -> None:
        if not sig.has_level(wanted):
            raise LevelViolation(
                f"{type(t).__name__} needs a {wanted} signature; this one is {sig.level}", term=t)

    def decl_of(t: MorExpr, name: str):
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
            raise UndeclaredName(f"undeclared metavariable ?{t.name}", term=t)
        if isinstance(t, Id):
            return MorType(obj_ok(t.obj), t.obj)
        if isinstance(t, Comp):
            fst, snd = ty(t.first), ty(t.second)
            if fst.cod != snd.dom:
                raise CompositionMismatch(
                    f"cannot compose: codomain {print_obj(fst.cod, True)} "
                    f"does not match domain {print_obj(snd.dom, True)}", term=t)
            return MorType(fst.dom, snd.cod)
        if isinstance(t, Tensor):
            top, bot = ty(t.top), ty(t.bottom)
            return MorType(ObjTensor(top.dom, bot.dom), ObjTensor(top.cod, bot.cod))
        if isinstance(t, Inv):
            decl = decl_of(t, t.name)
            if not decl.iso:
                raise NotAnIso(f"{t.name!r} is not declared iso", term=t)
            return MorType(decl.cod, decl.dom)
        need_level(t, "braided" if isinstance(t, (Braid, BraidInv)) else "monoidal")
        if isinstance(t, (Assoc, AssocInv)):
            a, b, c = obj_ok(t.a), obj_ok(t.b), obj_ok(t.c)
            left, right = ObjTensor(ObjTensor(a, b), c), ObjTensor(a, ObjTensor(b, c))
            return MorType(left, right) if isinstance(t, Assoc) else MorType(right, left)
        if isinstance(t, (Braid, BraidInv)):
            a, b = obj_ok(t.a), obj_ok(t.b)
            ab, ba = ObjTensor(a, b), ObjTensor(b, a)
            return MorType(ab, ba) if isinstance(t, Braid) else MorType(ba, ab)
        a = obj_ok(t.a)
        unit = ObjTensor(UNIT, a) if isinstance(t, (LUnit, LUnitInv)) else ObjTensor(a, UNIT)
        return MorType(unit, a) if isinstance(t, (LUnit, RUnit)) else MorType(a, unit)

    return ty(term)


def reference_parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse, check for the end of input, then typecheck in a separate walk."""

    parser = ReferenceParser(tokenize(text, sig.aliases))
    term = parser.parse_expr()
    parser.expect("EOF", "end of expression")
    try:
        reference_typecheck(term, sig)
    except CatError as err:
        if err.span is None and err.term is not None and id(err.term) in parser.spans:
            err.span = SourceSpan(*parser.spans[id(err.term)])
        raise
    return term


def reference_strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out).rstrip()
