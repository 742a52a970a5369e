"""Text formats: signature files, morphism expressions, rewrite rules.

Expression grammar (ASCII core, Unicode synonyms in parentheses)::

    expr    := tensor { (";" | "∘" | compose-alias) tensor }      # left-assoc
    tensor  := atom { ("*" | "⊗" | tensor-alias) atom }           # left-assoc
    atom    := "id" "[" obj "]"
             | "alpha" "[" obj "," obj "," obj "]"   (also alpha_inv)
             | "lunit" "[" obj "]" | "runit" "[" obj "]" (and _inv forms)
             | "braid" "[" obj "," obj "]"           (also braid_inv)
             | "inv" "(" name ")"
             | "?" name          # metavariable, rule files only
             | name | "(" expr ")"
    obj     := objatom { ("*" | "⊗") objatom }                    # left-assoc
    objatom := "I" | "?" name | name | "(" obj ")"

Composition binds looser than tensor; both default to the left.
Comments run from ``#`` to end of line.  ``print_expr`` emits text whose
parse is exactly the input term: parentheses appear around any compound
subterm except a same-operator chain extending to the left, so mixed
operators are always bracketed explicitly.

``parse_expr`` typechecks during the parse: each node is typed as it is
built, chains in loops, and the root's boundary is kept with the term, so
a later ``typecheck(term, sig)`` reads it instead of walking the term.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from dataclasses import dataclass

from .coherence import flatten_object
from .terms import (
    BackendBlock,
    CatError,
    Comp,
    Id,
    Inv,
    LEVELS,
    MorDecl,
    MorExpr,
    MorGen,
    MorType,
    MorVar,
    ObjExpr,
    ObjGen,
    ObjTensor,
    ObjVar,
    RESERVED_NAMES,
    STRUCTURAL,
    Signature,
    Tensor,
    Typer,
    UNIT,
    UndeclaredName,
    Unit,
    UnknownLevel,
    comp_chain,
    fold,
    keep_type,
    node_fields,
    tensor_leaves,
    typecheck,
)


class ParseError(CatError):
    """Malformed source text (lexical or grammatical)."""


class IllTypedRule(CatError):
    """A rewrite rule whose sides do not typecheck to a shared boundary."""


class FreeMetavarInRhs(CatError):
    """A rule rhs mentions a metavariable absent from lhs and declarations."""


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or phrase in its source text."""

    line: int
    column: int
    start: int
    end: int

    def __str__(self):
        return f"line {self.line}, column {self.column}"


#: A token: kind, text, line, column, start offset, end offset.  Kinds are
#: NAME METAVAR COMPOSE TENSOR LBRACK RBRACK LPAREN RPAREN COMMA ARROW
#: DARROW COLON EQUALS STRING EOF.
Token = tuple[str, str, int, int, int, int]

#: Keyword -> (structural atom class, number of object arguments).
STRUCTURAL_KEYWORDS = {spec[0]: (cls, len(cls.__dataclass_fields__))
                       for cls, spec in STRUCTURAL.items()}

# Each match is optional blanks, then the first rule that fits, in order.
# ``\w`` is exactly ``str.isalnum()`` plus "_", so names are ``[\w']`` runs;
# a name starts with a letter or "_", and the few non-decimal numerals that
# ``[^\W\d]`` also admits are turned away in :func:`tokenize`.  Symbol
# aliases are spliced in after comments; END ends the text.
_HEAD = r"[^\S\n]*(?:(?P<NL>\n)|(?P<COMMENT>#[^\n]*)|"
_TAIL = (r"(?P<ARROW>->)|(?P<DARROW>=>)|(?P<COMPOSE>[;∘])|(?P<TENSOR>[*⊗])|(?P<LBRACK>\[)"
         r"|(?P<RBRACK>\])|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<COLON>:)|(?P<EQUALS>=)"
         r"|(?P<METAVAR>\?[\w']*)|(?P<STRING>\"[^\"]*\")|(?P<NAME>[^\W\d][\w']*)|(?P<BAD>.)"
         r"|(?P<END>\Z))")
_SPECIAL = frozenset({"NL", "COMMENT", "ALIAS", "METAVAR", "STRING", "BAD", "END"})
_ALIAS_KIND = {"compose": "COMPOSE", "tensor": "TENSOR", "id": "NAME"}


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() and ch not in "∘⊗" or ch == "_"


@functools.lru_cache(maxsize=32)
def _lexer(symbol_aliases: tuple[str, ...]) -> re.Pattern:
    alias = "|".join(map(re.escape, symbol_aliases))
    return re.compile(_HEAD + (f"(?P<ALIAS>{alias})|" if alias else "") + _TAIL)


def tokenize(text: str, aliases: dict[str, str] | None = None) -> list[Token]:
    """Lex ``text``; alias tokens are rewritten to their builtins.

    Columns count characters from the last newline outside a string, so a
    string spanning lines does not start a new line; the EOF token after
    a trailing comment sits at the comment's column.
    """

    aliases = aliases or {}
    symbols = tuple(sorted((tok for tok in aliases if not _is_name_start(tok[0])),
                           key=len, reverse=True))
    check_names = bool(aliases) or not text.isascii()
    tokens: list[Token] = []
    line, line_start, eof_col = 1, 0, None
    for m in _lexer(symbols).finditer(text):
        kind = m.lastgroup
        i, j = m.span(kind)
        word = m.group(kind)
        if kind == "NAME" and check_names:
            target = aliases.get(word)
            if not _is_name_start(word[0]):
                kind = "BAD"
            elif target is not None:
                kind, word = _ALIAS_KIND[target], "id" if target == "id" else word
        if kind in _SPECIAL:
            if kind == "NL":
                line, line_start, eof_col = line + 1, j, None
                continue
            if kind == "COMMENT":
                eof_col = i - line_start + 1
                continue
            if kind == "END":
                break
            if kind == "ALIAS":
                kind = _ALIAS_KIND[aliases[word]]
                word = "id" if kind == "NAME" else word
            elif kind == "METAVAR" and len(word) > 1:
                word = word[1:]
            elif kind == "STRING":
                word = word[1:-1]
            else:
                span = SourceSpan(line, i - line_start + 1, i, len(text) if word == '"' else i + 1)
                raise ParseError("'?' must be followed by a metavariable name" if word == "?"
                                 else "unterminated string" if word == '"'
                                 else f"unexpected character {word[0]!r}", span=span)
        tokens.append((kind, word, line, i - line_start + 1, i, j))
    n = len(text)
    tokens.append(("EOF", "", line, eof_col or n - line_start + 1, n, n))
    return tokens


Span = tuple[int, int, int, int]  # line, column, start, end


class _ExprParser:
    """Recursive-descent parser for morphism and object expressions.

    Given a :class:`Typer`, it types each morphism node as it builds it
    (``parse_*`` return the node and its ``(dom, cod)``, else ``None``) and
    makes objects through the typer, so equal boundaries are one object.
    Nodes are built in the post-order a typecheck walks them, so the first
    type error met is the one that walk would raise.  It is recorded, not
    raised, with the span of the node it names (``spans`` holds those of
    undeclared object names), and typing stops; the caller raises it once
    the text has parsed.
    """

    def __init__(self, tokens: list[Token], allow_metavars: bool = False,
                 typer: Typer | None = None):
        self.tokens = tokens
        self.pos = 0
        self.allow_metavars = allow_metavars
        self.typer = typer
        self.objs = typer.objs if typer else {}
        self.tensor_obj = typer.tensor_obj if typer else ObjTensor
        self.undeclared = 0  # fresh generators made for names ``objs`` lacks
        self.spans: dict[int, Span] = {}
        self.error: CatError | None = None

    def next(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t[0] != kind:
            raise self._error(f"expected {what or kind}, found {t[1]!r}" if t[0] != "EOF"
                              else f"expected {what or kind}, found end of input", t)
        self.pos += 1
        return t

    def _error(self, message: str, t: Token) -> ParseError:
        return ParseError(message, span=SourceSpan(*t[2:]))

    def _span(self, start: Token) -> Span:
        """From ``start`` to the end of the last token consumed."""

        return start[2], start[3], start[4], self.tokens[self.pos - 1][5]

    def _type(self, fn, node, start: Token, *args):
        """``fn(node, *args)``; a type error is recorded and typing stops."""

        try:
            return fn(node, *args)
        except CatError as err:
            self.typer, self.error = None, err
            span = self._span(start) if err.term is node else self.spans.get(id(err.term))
            err.span = span and SourceSpan(*span)
            return None

    def _parens(self, node, start: Token) -> None:
        """Close the parentheses opened at ``start`` around ``node``, which
        widens ``node``'s span if it has one."""

        self.expect("RPAREN", "')'")
        if self.error is not None and node is self.error.term:
            self.error.span = SourceSpan(*self._span(start))
        elif id(node) in self.spans:
            self.spans[id(node)] = self._span(start)

    def parse_expr(self) -> tuple[MorExpr, tuple | None]:
        start = self.tokens[self.pos]
        term, ty = self.parse_tensor()
        while self.tokens[self.pos][0] == "COMPOSE":
            self.pos += 1
            rhs, rty = self.parse_tensor()
            term = Comp(term, rhs)
            if self.typer:
                ty = (ty[0], rty[1]) if ty[1] is rty[0] else \
                    self._type(self.typer.comp, term, start, ty, rty)
        return term, ty

    def parse_tensor(self) -> tuple[MorExpr, tuple | None]:
        term, ty = self.parse_atom()
        while self.tokens[self.pos][0] == "TENSOR":
            self.pos += 1
            rhs, rty = self.parse_atom()
            term = Tensor(term, rhs)
            if self.typer:
                ty = self.typer.tensor(term, ty, rty)
        return term, ty

    def parse_atom(self) -> tuple[MorExpr, tuple | None]:
        t = self.next()
        kind, name = t[0], t[1]
        if kind == "LPAREN":
            term, ty = self.parse_expr()
            self._parens(term, t)
            return term, ty
        undeclared = self.undeclared
        if kind == "METAVAR":
            if not self.allow_metavars:
                raise self._error("metavariables are only allowed in rule files", t)
            term = MorVar(name)
        elif kind != "NAME":
            raise self._error(f"expected a morphism, found {name!r}", t)
        elif name == "id":
            self.expect("LBRACK", "'['")
            term = Id(self.parse_obj())
            self.expect("RBRACK", "']'")
        elif name in STRUCTURAL_KEYWORDS:
            cls, arity = STRUCTURAL_KEYWORDS[name]
            self.expect("LBRACK", "'['")
            args = [self.parse_obj()]
            for _ in range(arity - 1):
                self.expect("COMMA", "','")
                args.append(self.parse_obj())
            self.expect("RBRACK", "']'")
            term = cls(*args)
        elif name == "inv":
            self.expect("LPAREN", "'('")
            term = Inv(self.expect("NAME", "a generator name")[1])
            self.expect("RPAREN", "')'")
        elif name == "I":
            raise self._error("'I' is an object, not a morphism", t)
        else:
            term = MorGen(name)
        return term, self.typer and self._type(self.typer.atom, term, t,
                                               undeclared == self.undeclared)

    def parse_obj(self) -> ObjExpr:
        obj = self.parse_objatom()
        while self.tokens[self.pos][0] == "TENSOR":
            self.pos += 1
            obj = self.tensor_obj(obj, self.parse_objatom())
        return obj

    def parse_objatom(self) -> ObjExpr:
        t = self.next()
        kind, name = t[0], t[1]
        if kind == "LPAREN":
            obj = self.parse_obj()
            self._parens(obj, t)
            return obj
        if kind == "METAVAR":
            if not self.allow_metavars:
                raise self._error("metavariables are only allowed in rule files", t)
            return ObjVar(name)
        if kind != "NAME":
            raise self._error(f"expected an object, found {name!r}", t)
        if name == "I":
            return UNIT
        obj = self.objs.get(name)
        if obj is not None:
            return obj
        if name in RESERVED_NAMES:
            raise self._error(f"{name!r} cannot be used as an object", t)
        obj = ObjGen(name)
        if self.typer:
            self.undeclared += 1
            self.spans[id(obj)] = self._span(t)
        return obj


def parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse a morphism expression and typecheck it against ``sig``.

    The term is typed as it is parsed, and its boundary is kept, so a
    later ``typecheck(term, sig)`` is a lookup.
    """

    parser = _ExprParser(tokenize(text, sig.aliases), typer=Typer(sig))
    term, ty = parser.parse_expr()
    parser.expect("EOF", "end of expression")
    if parser.error is not None:
        raise parser.error
    keep_type(term, sig, MorType(*ty))
    return term


def parse_obj(text: str, sig: Signature) -> ObjExpr:
    """Parse an object expression (generator names checked against ``sig``)."""

    parser = _ExprParser(tokenize(text, sig.aliases))
    obj = parser.parse_obj()
    parser.expect("EOF", "end of expression")
    for name in flatten_object(obj):
        if not sig.is_object(name):
            raise UndeclaredName(f"undeclared object {name!r}")
    return obj


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_obj(obj: ObjExpr) -> str:
    """Canonical object text; parses back to exactly ``obj``."""

    parts: list[str] = []
    todo: list = [obj]  # objects still to print, and text to emit as it is
    while todo:
        o = todo.pop()
        cls = type(o)
        if cls is str:
            parts.append(o)
        elif cls is ObjTensor:  # a compound right factor is bracketed
            todo += (")", o.right, "(", " * ", o.left) if type(o.right) is ObjTensor \
                else (o.right, " * ", o.left)
        else:
            parts.append("I" if cls is Unit else "?" + o.name if cls is ObjVar else o.name)
    return "".join(parts)


def print_expr(term: MorExpr) -> str:
    """Canonical expression text; parses back to exactly ``term``.

    Every compound child is parenthesized unless it continues a chain of
    the same operator to the left, so association and the comp/tensor
    nesting are always visible in the output.
    """

    parts: list[str] = []  # per atom: the operator before it, then its text; and ")"s
    opens: dict[int, int] = defaultdict(int)  # by index of a text: the "("s before it

    def atom(t: MorExpr) -> tuple[int, type | None]:
        cls = type(t)
        if cls is MorGen:
            text = t.name
        elif cls is MorVar:
            text = "?" + t.name
        elif cls is Id:
            text = f"id[{print_obj(t.obj)}]"
        elif cls is Inv:
            text = f"inv({t.name})"
        elif cls in STRUCTURAL:
            text = f"{STRUCTURAL[cls][0]}[{','.join(map(print_obj, node_fields(t)))}]"
        else:
            raise TypeError(f"not an atom: {t!r}")
        parts.append("")
        parts.append(text)
        return len(parts) - 1, None  # a subterm's first text and its operator

    def node(op: type, sep: str):
        def combine(t, left, right):
            if left[1] is not None and left[1] is not op:
                opens[left[0]] += 1
                parts[right[0] - 2] += ")"  # the left child's last part
            if right[1] is not None:
                opens[right[0]] += 1
                parts.append(")")
            parts[right[0] - 1] = sep
            return left[0], op
        return combine

    fold(term, atom, node(Comp, " ; "), node(Tensor, " * "))
    for i, n in opens.items():
        parts[i] = "(" * n + parts[i]
    return "".join(parts)


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

_TOP_KEYWORDS = {"category", "object", "mor", "iso", "alias", "backend"}
_BLOCK_KEYWORDS = {"dim", "mat", "inv", "size", "rel", "tolerance"}


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out).rstrip()


def _logical_lines(text: str):
    """Yield (line_no, text) with bracket-continuation joining."""

    raw = text.split("\n")
    i = 0
    while i < len(raw):
        line = _strip_comment(raw[i])
        start = i + 1
        depth = sum(line.count(b) for b in "[({") - sum(line.count(b) for b in "])}")
        while depth > 0 and i + 1 < len(raw):
            i += 1
            nxt = _strip_comment(raw[i])
            line += " " + nxt.strip()
            depth += sum(nxt.count(b) for b in "[({") - sum(nxt.count(b) for b in "])}")
        i += 1
        if line.strip():
            yield start, line.strip()


def parse_signature(text: str) -> Signature:
    """Parse a line-oriented signature file.

    Recognized forms::

        category symmetric
        object A
        mor f : A -> B
        iso g : A * B -> B * A
        alias "x" = compose          # or tensor, id
        backend matrix               # opens an opaque backend block
        dim A = 2                    # block content, owned by semantics

    Backend block content is collected verbatim and interpreted by the
    semantics module.
    """

    level = "plain"
    level_seen = False
    objects: list[str] = []
    morphisms: list[MorDecl] = []
    aliases: dict[str, str] = {}
    blocks: list[tuple[str, list[tuple[int, str]]]] = []
    current_block: list[tuple[int, str]] | None = None

    for line_no, line in _logical_lines(text):
        word = line.split(None, 1)[0]
        span = SourceSpan(line_no, 1, 0, len(line))
        if word in _TOP_KEYWORDS:
            current_block = None
        if word == "category":
            level = line.split(None, 1)[1].strip() if " " in line else ""
            level_seen = True
            if level not in LEVELS:
                raise UnknownLevel(f"unknown category level {level!r}", span=span)
        elif word == "object":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected: object NAME", span=span)
            objects.append(parts[1])
        elif word in ("mor", "iso"):
            rest = line[len(word):].strip()
            if ":" not in rest:
                raise ParseError(f"expected: {word} NAME : OBJ -> OBJ", span=span)
            name, typ = rest.split(":", 1)
            name = name.strip()
            if "->" not in typ:
                raise ParseError("morphism type needs '->'", span=span)
            dom_s, cod_s = typ.split("->", 1)
            dom = _parse_obj_raw(dom_s.strip(), span)
            cod = _parse_obj_raw(cod_s.strip(), span)
            morphisms.append(MorDecl(name, dom, cod, iso=(word == "iso")))
        elif word == "alias":
            toks = tokenize(line[len(word):].strip())
            if [t[0] for t in toks] != ["STRING", "EQUALS", "NAME", "EOF"]:
                raise ParseError('expected: alias "TOKEN" = compose|tensor|id', span=span)
            target = toks[2][1]
            if target not in ("compose", "tensor", "id"):
                raise ParseError(f"alias target must be compose, tensor or id, not {target!r}",
                                 span=span)
            aliases[toks[0][1]] = target
        elif word == "backend":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected: backend matrix|rel", span=span)
            blocks.append((parts[1], []))
            current_block = blocks[-1][1]
        elif current_block is not None and word in _BLOCK_KEYWORDS:
            current_block.append((line_no, line))
        else:
            raise ParseError(f"unrecognized declaration {word!r}", span=span)

    if not level_seen:
        raise ParseError("signature file must declare a category level")
    sig = Signature(
        level=level,
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        aliases=aliases,
        backend_blocks=tuple(BackendBlock(kind, tuple(entries)) for kind, entries in blocks),
    )
    return sig


def _parse_obj_raw(text: str, span: SourceSpan) -> ObjExpr:
    parser = _ExprParser(tokenize(text))
    try:
        obj = parser.parse_obj()
        parser.expect("EOF", "end of object")
    except ParseError as err:
        err.span = err.span or span
        raise
    return obj


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    """One rewrite rule: a composition-chain pattern and a replacement."""

    name: str
    metavars: tuple[tuple[str, MorType], ...]
    lhs: MorExpr
    rhs: MorExpr

    @property
    def lhs_chain(self) -> list[MorExpr]:
        return comp_chain(self.lhs)

    def metavar_types(self) -> dict[str, MorType]:
        return dict(self.metavars)


@dataclass(frozen=True)
class RuleFile:
    rules: tuple[RewriteRule, ...]

    def rule(self, name: str) -> RewriteRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise CatError(f"no rule named {name!r} in rule file")


def _collect_metavars(term) -> set[str]:
    found: set[str] = set()
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, (MorVar, ObjVar)):
            found.add(t.name)
        elif not isinstance(t, (MorGen, Inv, ObjGen)):
            todo += node_fields(t)
    return found


def parse_rules(text: str, sig: Signature) -> RuleFile:
    """Parse a rule file against ``sig``.

    Format::

        var ?x : A -> B
        rule r : ?x ; g => h

    ``var`` declarations accumulate and scope over all later rules.  Each
    rule's sides must typecheck under the declarations with the same
    boundary, its lhs must be a chain of composition-free elements, and
    every metavariable on the rhs must appear on the lhs or be declared.
    """

    declared: dict[str, MorType] = {}
    decl_order: list[tuple[str, MorType]] = []
    rules: list[RewriteRule] = []

    for line_no, line in _logical_lines(text):
        word = line.split(None, 1)[0]
        span = SourceSpan(line_no, 1, 0, len(line))
        if word == "var":
            parser = _ExprParser(tokenize(line[len(word):].strip()), allow_metavars=True)
            mv = parser.expect("METAVAR", "a metavariable")
            parser.expect("COLON", "':'")
            dom = parser.parse_obj()
            parser.expect("ARROW", "'->'")
            cod = parser.parse_obj()
            parser.expect("EOF", "end of declaration")
            if mv[1] in declared:
                raise ParseError(f"metavariable ?{mv[1]} declared twice", span=span)
            declared[mv[1]] = MorType(dom, cod)
            decl_order.append((mv[1], declared[mv[1]]))
        elif word == "rule":
            rest = line[len(word):].strip()
            if ":" not in rest:
                raise ParseError("expected: rule NAME : LHS => RHS", span=span)
            name, body = rest.split(":", 1)
            name = name.strip()
            toks = tokenize(body, sig.aliases)
            parser = _ExprParser(toks, allow_metavars=True)
            lhs = parser.parse_expr()[0]
            parser.expect("DARROW", "'=>'")
            rhs = parser.parse_expr()[0]
            parser.expect("EOF", "end of rule")
            if any(tensor_leaves(el) is None for el in comp_chain(lhs)):
                raise ParseError("rule lhs chain elements must be composition-free", span=span)
            free = _collect_metavars(rhs) - _collect_metavars(lhs) - set(declared)
            if free:
                raise FreeMetavarInRhs(
                    f"rule {name!r}: metavariable(s) {', '.join(sorted(free))} "
                    f"unbound on the rhs", span=span)
            try:
                lt = typecheck(lhs, sig, metavars=declared)
                rt = typecheck(rhs, sig, metavars=declared)
            except CatError as err:
                raise IllTypedRule(f"rule {name!r}: {err}", span=err.span or span) from err
            if lt != rt:
                raise IllTypedRule(
                    f"rule {name!r}: lhs has boundary "
                    f"{print_obj(lt.dom)} -> {print_obj(lt.cod)} but rhs has "
                    f"{print_obj(rt.dom)} -> {print_obj(rt.cod)}", span=span)
            rules.append(RewriteRule(name, tuple(decl_order), lhs, rhs))
        else:
            raise ParseError(f"unrecognized rule-file declaration {word!r}", span=span)

    return RuleFile(tuple(rules))

