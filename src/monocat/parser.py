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
Within one parse, an annotation repeated word for word is parsed and typed
once (``_ExprParser.memo``), and its occurrences are one shared atom.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from typing import NoReturn

from .terms import (
    BackendBlock,
    CatError,
    Comp,
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
    UnknownLevel,
    _check_obj,
    comp_chain,
    fold,
    keep_type,
    node_fields,
    print_obj,
    record,
    tensor_leaves,
    typecheck,
)


class ParseError(CatError):
    """Malformed source text (lexical or grammatical)."""


class IllTypedRule(CatError):
    """A rewrite rule whose sides do not typecheck to a shared boundary."""


class FreeMetavarInRhs(CatError):
    """A rule rhs mentions a metavariable absent from lhs and declarations."""


@record(frozen=True)
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

#: Keyword -> (atom class of a ``STRUCTURAL`` row, number of object arguments).
STRUCTURAL_KEYWORDS = {spec[0]: (cls, len(cls.__dataclass_fields__))
                       for cls, spec in STRUCTURAL.items()}

# Each match skips blanks and comments, then takes one word: the first
# alternative that fits, in order, or "" at the end of the text.  ``\w`` is
# exactly ``str.isalnum()`` plus "_", so names are ``[\w']`` runs; a name
# starts with a letter or "_", and the few non-decimal numerals that
# ``[^\W\d]`` also admits are lexical errors.  Symbol aliases go first.
# After the skip, "." or "\Z" always fits, so the skip is never undone.
_SKIP = r"\s*(?:#[^\n]*\s*)*"
_WORD = r"->|=>|[;∘*⊗\[\](),:=]|\?[\w']*|\"[^\"]*\"|[^\W\d][\w']*|.|\Z"
_KINDS = {"->": "ARROW", "=>": "DARROW", ";": "COMPOSE", "*": "TENSOR", "[": "LBRACK",
          "]": "RBRACK", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ":": "COLON", "=": "EQUALS"}
_BUILTIN = {"compose": ";", "tensor": "*", "id": "id"}  # the word for each alias target


def _builtins(aliases: dict[str, str]) -> dict[str, str]:  # for aliases and ∘ ⊗
    return {"∘": ";", "⊗": "*"} | {tok: _BUILTIN[target] for tok, target in aliases.items()}


def _is_name(word: str) -> bool:  # starts with a letter or "_"
    return word[:1].isalpha() or word[:1] == "_"


def _is_metavar(word: str) -> bool:
    return word[:1] == "?" and len(word) > 1


@functools.lru_cache(maxsize=32)
def _lexer(alias_words: tuple[str, ...]) -> re.Pattern:
    symbols = sorted((tok for tok in alias_words if not _is_name(tok)), key=len, reverse=True)
    return re.compile(f"{_SKIP}({''.join(re.escape(tok) + '|' for tok in symbols)}{_WORD})")


def tokenize(text: str, aliases: dict[str, str] | None = None) -> list[Token]:
    """Lex ``text``; alias tokens are rewritten to their builtins.

    Columns count characters from the last newline outside a string, so a
    string spanning lines does not start a new line; the EOF token after
    a trailing comment sits at the comment's column.
    """

    aliases = aliases or {}
    builtins = _builtins(aliases)
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _lexer(tuple(aliases)).finditer(text):
        skipped, (i, j) = m.start(), m.span(1)
        newline = text.rfind("\n", skipped, i)
        if newline >= 0:
            line += text.count("\n", skipped, i)
            line_start = newline + 1
        word = m.group(1)
        if not word:
            break
        builtin = builtins.get(word, word)
        kind = _KINDS.get(builtin)
        if kind is None:
            head = word[0]
            if builtin == "id" or _is_name(word):
                kind, word = "NAME", builtin
            elif _is_metavar(word):
                kind, word = "METAVAR", word[1:]
            elif head == '"' and len(word) > 1:
                kind, word = "STRING", word[1:-1]
            else:
                span = SourceSpan(line, i - line_start + 1, i, len(text) if word == '"' else i + 1)
                raise ParseError("'?' must be followed by a metavariable name" if word == "?"
                                 else "unterminated string" if word == '"'
                                 else f"unexpected character {head!r}", span=span)
        tokens.append((kind, word, line, i - line_start + 1, i, j))
    comment = text.find("#", max(skipped, line_start), i)  # on the last line
    tokens.append(("EOF", "", line, (i if comment < 0 else comment) - line_start + 1, i, i))
    return tokens


def _words(text: str, aliases: dict[str, str]) -> list[str]:
    """The words of ``text`` as :func:`tokenize` would lex them, without
    positions, checks or kinds: alias words and ``∘``/``⊗`` become the
    builtin they stand for, metavariables keep their "?" and strings their
    quotes, and "" marks the end.  Lexical errors are words no grammar rule
    accepts."""

    words = _lexer(tuple(aliases)).findall(text)
    if aliases or not text.isascii():
        builtins = _builtins(aliases)
        words = [builtins.get(w, w) for w in words]
    return words


class _ExprParser:
    """Parser for morphism and object expressions over :func:`_words`;
    parentheses wait on an explicit stack, so no nesting depth recurses.

    Given a :class:`Typer`, it types each morphism node as it builds it
    (``parse_*`` return the node and its ``(dom, cod)``, else ``None``).
    Nodes are built in the post-order a typecheck walks them, so the first
    type error met is the one that walk would raise.  It is recorded, and
    typing stops; the caller raises it once the text has parsed, with the
    span of the node it names (``spans`` holds the first and last word of
    that node and of each undeclared object name's first occurrence, as
    one name is one object).  Source positions come from :func:`tokenize`,
    only for an error, so a lexical error is first.

    ``memo`` lives for one parse.  It maps the words of a bracketed atom
    (keyword to "]") to the atom and its boundary, and those of each object
    argument to the object, so repeated atoms come back shared.  It never
    stores what recorded an error or made an undeclared generator, so each
    error and its span come from a first occurrence parsed word by word.
    """

    def __init__(self, text: str, aliases: dict[str, str] | None = None,
                 allow_metavars: bool = False, typer: Typer | None = None):
        self.text = text
        self.aliases = aliases or {}
        self.words = _words(text, self.aliases)
        self.pos = 0
        self.allow_metavars = allow_metavars
        self.typer = typer
        self.gens = typer.sig._gens if typer else {}
        self.undeclared = 0  # generators made for names the signature lacks
        self.spans: dict[int, tuple[int, int]] = {}  # by id: first and last word
        self.error: CatError | None = None
        self.memo: dict[tuple, object] = {}  # see the class docstring

    def _span(self, first: int, last: int) -> tuple[str, SourceSpan]:
        """The text of word ``first`` and the span of words ``first`` to ``last``."""

        tokens = tokenize(self.text, self.aliases)
        return tokens[first][1], SourceSpan(*tokens[first][2:5], tokens[last][5])

    def fail(self, message: str, k: int) -> NoReturn:
        """Raise a ParseError at word ``k``; ``{!r}`` in ``message`` is its token text."""

        word, span = self._span(k, k)
        raise ParseError(message.format(word), span=span)

    def take(self, want, what: str) -> str:
        """The next word, which must equal ``want`` or, if callable, satisfy it."""

        w = self.words[self.pos]
        if w != want and (type(want) is str or not want(w)):
            self.fail(f"expected {what}, found {'{!r}' if w else 'end of input'}", self.pos)
        self.pos += 1
        return w

    def raise_error(self) -> None:
        """Raise the recorded type error, if any, with its source span."""

        if self.error is not None:
            if id(self.error.term) in self.spans:
                self.error.span = self._span(*self.spans[id(self.error.term)])[1]
            raise self.error

    def _type(self, fn, node, start: int, *args):
        """``fn(node, *args)``; a type error is recorded and typing stops."""

        try:
            return fn(node, *args)
        except CatError as err:
            self.typer, self.error = None, err
            if err.term is node:
                self.spans[id(node)] = (start, self.pos - 1)
            return None

    def _chains(self, atom, tensor, comp=None):
        """``atom { "*" atom }`` chains, joined by ";" when ``comp`` is given,
        where an atom may be a parenthesized group; both operators associate
        to the left.  ``tensor(left, right)`` and ``comp(left, right, start)``
        join two results.  Open groups wait on an explicit stack."""

        words = self.words
        groups = [[self.pos, None, None]]  # per open group: its first word, chain, tensor
        while True:
            if words[self.pos] == "(":
                self.pos += 1
                groups.append([self.pos, None, None])
                continue
            item = atom()
            while True:
                group = groups[-1]
                group[2] = item if group[2] is None else tensor(group[2], item)
                w = words[self.pos]
                if w == "*":
                    self.pos += 1
                    break
                group[1] = group[2] if group[1] is None else comp(group[1], group[2], group[0])
                group[2] = None
                if w == ";" and comp:
                    self.pos += 1
                    break
                if len(groups) == 1:
                    return group[1]
                groups.pop()
                item = group[1]
                self.take(")", "')'")
                node = id(item[0] if comp else item)  # widen its span over the parentheses
                if self.spans.get(node, (None,))[0] == group[0]:
                    self.spans[node] = (group[0] - 1, self.pos - 1)

    def parse_expr(self) -> tuple[MorExpr, tuple | None]:
        return self._chains(self.parse_atom, self._tensor, self._comp)

    def _tensor(self, top, bottom) -> tuple[MorExpr, tuple | None]:
        term = Tensor(top[0], bottom[0])
        return term, self.typer and self.typer.tensor(term, top[1], bottom[1])

    def _comp(self, first, second, start: int) -> tuple[MorExpr, tuple | None]:
        term, ty, rty = Comp(first[0], second[0]), first[1], second[1]
        if self.typer:
            ty = (ty[0], rty[1]) if ty[1] is rty[0] else \
                self._type(self.typer.comp, term, start, ty, rty)
        return term, ty

    def parse_atom(self) -> tuple[MorExpr, tuple | None]:
        """A morphism atom other than a parenthesized expression."""

        k, words = self.pos, self.words
        w = words[k]
        self.pos = k + 1
        undeclared, key = self.undeclared, None
        if w in STRUCTURAL_KEYWORDS:
            try:
                key = tuple(words[k:words.index("]", k) + 1])
            except ValueError:  # no "]": the parse below fails
                pass
            hit = self.memo.get(key)
            if hit is not None:
                self.pos = k + len(key)
                return hit
            cls, arity = STRUCTURAL_KEYWORDS[w]
            self.take("[", "'['")
            stop = k + len(key) - 1 if key else 0
            args = [self.parse_obj(stop)]
            for _ in range(arity - 1):
                self.take(",", "','")
                args.append(self.parse_obj(stop))
            self.take("]", "']'")
            term = cls(*args)
        elif w == "inv":
            self.take("(", "'('")
            term = Inv(self.take(_is_name, "a generator name"))
            self.take(")", "')'")
        elif w == "I":
            self.fail("'I' is an object, not a morphism", k)
        elif _is_name(w):
            term = MorGen(w)
        elif _is_metavar(w) and self.allow_metavars:
            term = MorVar(w[1:])
        else:
            self.fail("metavariables are only allowed in rule files" if _is_metavar(w)
                      else "expected a morphism, found {!r}", k)
        result = term, self.typer and self._type(self.typer.atom, term, k,
                                                 undeclared == self.undeclared)
        if key and self.error is None:  # an undeclared name is an error here
            self.memo[key] = result
        return result

    def parse_obj(self, stop: int = 0) -> ObjExpr:
        """An object; inside a bracketed atom, whose "]" is word ``stop``,
        its words are memoized."""

        k, words = self.pos, self.words
        # one word before "]" or "," is an object atom; "" is only ever the last word
        if words[k] not in ("(", "") and words[k + 1] in ("]", ","):
            return self.parse_objatom()
        if not stop:
            return self._chains(self.parse_objatom, ObjTensor)
        try:
            end = words.index(",", k, stop)
        except ValueError:
            end = stop
        key, memo, undeclared = tuple(words[k:end]), self.memo, self.undeclared
        obj = memo.get(key)
        if obj is not None:
            self.pos = end
            return obj
        left = memo.get(key[:-2]) if words[end - 2] == "*" and words[end - 1] != "(" else None
        if left is not None:  # "*" is left-associative: a known run, "*" and one atom
            self.pos = end - 1
            obj = ObjTensor(left, self.parse_objatom())
        else:
            obj = self._chains(self.parse_objatom, ObjTensor)
        if self.pos == end and self.error is None and undeclared == self.undeclared:
            memo[key] = obj
        return obj

    def parse_objatom(self) -> ObjExpr:
        """An object atom other than a parenthesized object."""

        k = self.pos
        w = self.words[k]
        self.pos = k + 1
        if not _is_name(w):
            if _is_metavar(w) and self.allow_metavars:
                return ObjVar(w[1:])
            self.fail("metavariables are only allowed in rule files" if _is_metavar(w)
                      else "expected an object, found {!r}", k)
        if w == "I":
            return UNIT
        obj = self.gens.get(w)
        if obj is not None:
            return obj
        if w in RESERVED_NAMES:
            self.fail("{!r} cannot be used as an object", k)
        obj = ObjGen(w)
        if self.typer:
            self.undeclared += 1
            self.spans.setdefault(id(obj), (k, k))
        return obj


def parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse a morphism expression and typecheck it against ``sig``.

    The term is typed as it is parsed, and its boundary is kept, so a
    later ``typecheck(term, sig)`` is a lookup.
    """

    parser = _ExprParser(text, sig.aliases, typer=Typer(sig))
    term, ty = parser.parse_expr()
    parser.take("", "end of expression")
    parser.raise_error()
    keep_type(term, sig, MorType(*ty))
    return term


def parse_obj(text: str, sig: Signature) -> ObjExpr:
    """Parse an object expression (generator names checked against ``sig``)."""

    parser = _ExprParser(text, sig.aliases)
    obj = parser.parse_obj()
    parser.take("", "end of expression")
    _check_obj(obj, sig._gens, allow_vars=False)
    return obj


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


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


_COMMENT_FREE = re.compile(r'(?:[^"#]+|"[^"]*"?)*')  # a line up to its first '#' outside quotes


def _strip_comment(line: str) -> str:
    return _COMMENT_FREE.match(line).group().rstrip()


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
            dom = _parse_obj_raw(dom_s.strip())
            cod = _parse_obj_raw(cod_s.strip())
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


def _parse_obj_raw(text: str) -> ObjExpr:
    parser = _ExprParser(text)
    obj = parser.parse_obj()
    parser.take("", "end of object")
    return obj


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------


@record(frozen=True)
class RewriteRule:
    """One rewrite rule: a composition-chain pattern and a replacement."""

    name: str
    metavars: tuple[tuple[str, MorType], ...]
    lhs: MorExpr
    rhs: MorExpr

    @property
    def lhs_chain(self) -> list[MorExpr]:
        return comp_chain(self.lhs)


@record(frozen=True)
class RuleFile:
    """The rules of one rule file, in file order."""

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
            parser = _ExprParser(line[len(word):].strip(), allow_metavars=True)
            mv = parser.take(_is_metavar, "a metavariable")[1:]
            parser.take(":", "':'")
            dom = parser.parse_obj()
            parser.take("->", "'->'")
            cod = parser.parse_obj()
            parser.take("", "end of declaration")
            if mv in declared:
                raise ParseError(f"metavariable ?{mv} declared twice", span=span)
            declared[mv] = MorType(dom, cod)
            decl_order.append((mv, declared[mv]))
        elif word == "rule":
            rest = line[len(word):].strip()
            if ":" not in rest:
                raise ParseError("expected: rule NAME : LHS => RHS", span=span)
            name, body = rest.split(":", 1)
            name = name.strip()
            parser = _ExprParser(body, sig.aliases, allow_metavars=True)
            lhs = parser.parse_expr()[0]
            parser.take("=>", "'=>'")
            rhs = parser.parse_expr()[0]
            parser.take("", "end of rule")
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

