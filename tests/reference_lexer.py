"""The per-character lexer that ``monocat.parser.tokenize`` replaced.

It scans one character at a time and builds a frozen ``Token`` with a
``SourceSpan`` per token.  Kept as the reference the regex lexer is
tested against: both must yield the same tokens, and raise the same
``ParseError`` messages at the same spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from monocat.parser import ParseError, SourceSpan


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan

    def as_tuple(self) -> tuple[str, str, int, int, int, int]:
        """The token as ``monocat.parser.tokenize`` yields it."""

        s = self.span
        return (self.kind, self.text, s.line, s.column, s.start, s.end)


_SIMPLE = {
    ";": "COMPOSE",
    "∘": "COMPOSE",
    "*": "TENSOR",
    "⊗": "TENSOR",
    "[": "LBRACK",
    "]": "RBRACK",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ":": "COLON",
    "=": "EQUALS",
}


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() and ch not in "∘⊗" or ch == "_"


def _is_name_char(ch: str) -> bool:
    return (ch.isalnum() and ch not in "∘⊗") or ch in "_'"


def tokenize(text: str, aliases: dict[str, str] | None = None) -> list[Token]:
    """Lex ``text``; alias tokens are rewritten to their builtins."""

    aliases = aliases or {}
    symbol_aliases = sorted(
        (tok for tok in aliases if not _is_name_start(tok[0])), key=len, reverse=True
    )
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span_start = (line, col, i)

        def tok(kind: str, text_: str, width: int) -> None:
            nonlocal i, col
            tokens.append(Token(kind, text_, SourceSpan(span_start[0], span_start[1],
                                                        span_start[2], span_start[2] + width)))
            i += width
            col += width

        matched = False
        for alias in symbol_aliases:
            if text.startswith(alias, i):
                kind = {"compose": "COMPOSE", "tensor": "TENSOR", "id": "NAME"}[aliases[alias]]
                tok(kind, "id" if aliases[alias] == "id" else alias, len(alias))
                matched = True
                break
        if matched:
            continue
        if text.startswith("->", i):
            tok("ARROW", "->", 2)
            continue
        if text.startswith("=>", i):
            tok("DARROW", "=>", 2)
            continue
        if ch in _SIMPLE:
            tok(_SIMPLE[ch], ch, 1)
            continue
        if ch == "?":
            j = i + 1
            while j < n and _is_name_char(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("'?' must be followed by a metavariable name",
                                 span=SourceSpan(line, col, i, i + 1))
            tok("METAVAR", text[i + 1:j], j - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ParseError("unterminated string", span=SourceSpan(line, col, i, n))
            tok("STRING", text[i + 1:j], j - i + 1)
            continue
        if _is_name_start(ch):
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            word = text[i:j]
            target = aliases.get(word)
            if target == "compose":
                tok("COMPOSE", word, len(word))
            elif target == "tensor":
                tok("TENSOR", word, len(word))
            elif target == "id":
                tok("NAME", "id", len(word))
            else:
                tok("NAME", word, len(word))
            continue
        raise ParseError(f"unexpected character {ch!r}", span=SourceSpan(line, col, i, i + 1))
    tokens.append(Token("EOF", "", SourceSpan(line, col, n, n)))
    return tokens
