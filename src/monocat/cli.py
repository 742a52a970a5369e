"""Command-line surface and interactive REPL.

Exit codes are the machine contract: 0 = success / equal / proved,
1 = not proved / unequal, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import field, replace
from functools import cache

from . import coherence, render, semantics, tactics
from .coherence import dump_normal_form, monoidal_eq
from .parser import (_logical_lines, parse_expr, parse_rules, parse_signature, print_expr,
                     print_obj)
from .tactics import cancel_isos, cat_easy, cat_simpl, foliate, partner, weak_foliate
from .terms import CatError, MorExpr, Signature, record, shared_boundary, typecheck

CONFIG_ENV_VAR = "MONOCAT_CONFIG"


def _read(path: str, kind: str) -> str:
    """The text of the ``kind`` file ``path``; one that is not UTF-8 is an input error."""

    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise CatError(f"{kind} {path} is not UTF-8 text") from None


def _load_signature(path: str) -> Signature:
    return parse_signature(_read(path, "signature file"))


def _check_pair(method: str, sig: Signature, text1: str, text2: str,
                backend: Callable[[], semantics.MatrixInstance | semantics.RelInstance]
                ) -> tuple[bool, str]:
    """Returns (equal, human-readable report); terms of different boundaries
    are an error under every method."""

    t1 = parse_expr(text1, sig)
    t2 = parse_expr(text2, sig)
    shared_boundary(t1, t2, sig)
    if method == "monoidal":
        verdict = monoidal_eq(t1, t2, sig)
        if isinstance(verdict, coherence.Equal):
            return True, f"equal (monoidal)\n  {dump_normal_form(verdict.normal_form)}"
        return False, ("not decided (monoidal)\n"
                       f"  lhs {dump_normal_form(verdict.left)}\n"
                       f"  rhs {dump_normal_form(verdict.right)}")
    if method == "cat_easy":
        verdict = cat_easy(t1, t2, sig)
        trace = "\n".join(f"  {s.tactic}: {s.term}" for s in verdict.trace)
        if isinstance(verdict, tactics.Proved):
            return True, f"proved (cat_easy)\n{trace}"
        return False, f"not proved (cat_easy)\n{trace}"
    if method == "matrix":
        inst = backend()
        m1, m2 = semantics.eval_matrix(t1, inst), semantics.eval_matrix(t2, inst)
        if semantics.mat_equiv(m1, m2, inst.tolerance):
            return True, "equal (matrix backend)"
        return False, "unequal (matrix backend)"
    if method == "rel":
        inst = backend()
        difference = semantics.rel_difference(t1, t2, inst)
        if not difference:
            return True, "equal (relation backend)"
        return False, f"unequal (relation backend): symmetric difference {difference}"
    raise CatError(f"unknown check method {method!r}")


def _cmd_check(args) -> int:
    sig = _load_signature(args.sig)
    # one backend instance per run, built for the first pair to need it (once that pair has
    # parsed, outside a batch); ``semantics`` (and numpy) loads on its first attribute access
    backend = cache(lambda: semantics.matrix_instance(sig, args.tolerance)
                    if args.method == "matrix" else semantics.rel_instance(sig))
    if args.batch:
        text = _read(args.batch, "batch file")
        code = 0  # the worst outcome so far: 1 a pair unequal, 2 a pair erred
        for line_no, line in _logical_lines(text, ()):
            if args.method in ("matrix", "rel"):
                backend()  # one for every pair: an error building it ends the run
            left, eq, right = (side.strip() for side in line.partition("=="))
            try:
                if not eq:
                    raise CatError(f"batch line needs 'EXPR == EXPR': {line!r}")
                equal = _check_pair(args.method, sig, left, right, backend)[0]
            except Exception as err:  # reported in its place; the batch goes on
                print(f"[error] {args.batch}:{line_no}: {_error_text(err)}")
                code = 2
            else:
                print(f"[{'ok' if equal else 'FAIL'}] {left} == {right}")
                if not equal:
                    code = max(code, 1)
        return code
    if len(args.exprs) != 2:
        raise CatError("check needs exactly two expressions (or --batch FILE)")
    equal, report = _check_pair(args.method, sig, args.exprs[0], args.exprs[1], backend)
    print(report)
    return 0 if equal else 1


# ---------------------------------------------------------------------------
# Operations of both the subcommands and the REPL, each on a term and its signature
# ---------------------------------------------------------------------------


def _normal_form(term: MorExpr, sig: Signature) -> str:
    return dump_normal_form(coherence.canonicalize(coherence.sheet_of_term(term, sig)))


_TACTICS = {
    "foliate": foliate,
    "weak_foliate": weak_foliate,
    "cancel_isos": cancel_isos,
    "cat_simpl": cat_simpl,
}


def _rewrite(term: MorExpr, sig: Signature, rules_path: str, rule_name: str | None) -> MorExpr:
    rules = parse_rules(_read(rules_path, "rule file"), sig)
    if rule_name is not None:
        return tactics.assoc_rw(term, rules.rule(rule_name), sig)
    # no rule named: apply the first rule in file order that matches
    for rule in rules.rules:
        try:
            return tactics.assoc_rw(term, rule, sig)
        except tactics.NoMatch:
            continue
    raise tactics.NoMatch("no rule in the file matches")


def _render(term: MorExpr, sig: Signature, out: str, fmt: str = "svg",
            config: str | None = None, color: bool = False) -> str:
    path = config or os.environ.get(CONFIG_ENV_VAR)
    cfg = render.RenderConfig.from_file(path) if path else render.RenderConfig()
    if color:
        cfg = replace(cfg, color=True)
    node = render.layout(term, sig, cfg)
    text = render.emit_svg(node, cfg) if fmt == "svg" else render.emit_tikz(node, cfg)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return f"wrote {out}"


def _cmd_on_term(args) -> int:
    """A subcommand on one expression: prints what ``args.op`` makes of it."""

    sig = _load_signature(args.sig)
    print(args.op(parse_expr(args.expr, sig), sig, args))
    return 0


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------


@record
class ReplState:
    """Interactive session state; every term on the stack typechecks."""

    sig: Signature
    term: MorExpr | None = None
    undo_stack: list[MorExpr] = field(default_factory=list)
    transcript: list[str] = field(default_factory=list)
    done: bool = False


REPL_HELP = f"""commands:
  load <expr>        set the current term
  show               print the current term and its type
  apply <tactic>     {' | '.join(_TACTICS)}
  partner <p> <q>    group adjacent p ; q by reassociation
  rw <file> <rule>   rewrite with a named rule from a rule file
  normalize          print the canonical normal form
  render <path>      write an SVG of the current term
  undo               restore the term before the last tactic
  quit               leave the REPL"""


def _show(term: MorExpr, sig: Signature) -> str:
    ty = typecheck(term, sig)
    return f"{print_expr(term)} : {print_obj(ty.dom)} -> {print_obj(ty.cod)}"


def _apply(term: MorExpr, sig: Signature, name: str) -> MorExpr:
    if name not in _TACTICS:
        raise CatError(f"unknown tactic {name!r}; see help")
    return _TACTICS[name](term, sig)


#: The REPL commands that need a current term, as functions of the term, the signature
#: and their operands: a view returns a line to print, a step the term that replaces it
_REPL_VIEWS = {"show": lambda t, s, rest: _show(t, s),
               "normalize": lambda t, s, rest: _normal_form(t, s), "render": _render}
_REPL_STEPS = {"apply": _apply, "rw": lambda t, s, ops: _rewrite(t, s, *ops),
               "partner": lambda t, s, ops: partner(t, *(parse_expr(x, s) for x in ops), s)}
#: Steps whose operands are two shell-quoted words, with their usage line
_REPL_USAGE = {"partner": "usage: partner <p> <q>", "rw": "usage: rw <rulefile> <rule>"}


def repl_step(state: ReplState, line: str) -> ReplState:
    """Execute one REPL line, returning the (possibly updated) state.

    An error of any kind is printed as the one ``error:`` line ``run``
    prints, and leaves the state unchanged.
    """

    line = line.strip()
    if not line:
        return state
    state.transcript.append("> " + line)

    def say(text: str) -> None:
        print(text)
        state.transcript.append(text)

    parts = line.split(None, 1)
    cmd, rest = parts[0], (parts[1] if len(parts) > 1 else "")
    try:
        if cmd in _REPL_VIEWS or cmd in _REPL_STEPS:
            term = state.term
            if term is None:
                raise CatError("no current term; use: load <expr>")
            if cmd in _REPL_VIEWS:
                say(_REPL_VIEWS[cmd](term, state.sig, rest))
                return state
            if cmd in _REPL_USAGE:
                import shlex

                try:
                    rest = shlex.split(rest)
                except ValueError as err:  # an unclosed quote
                    raise CatError(str(err)) from None
                if len(rest) != 2:
                    raise CatError(_REPL_USAGE[cmd])
            state.term = _REPL_STEPS[cmd](term, state.sig, rest)
            state.undo_stack.append(term)
            say(print_expr(state.term))
        elif cmd == "load":
            state.term = parse_expr(rest, state.sig)
            state.undo_stack.clear()
            say(print_expr(state.term))
        elif cmd == "undo":
            if not state.undo_stack:
                raise CatError("nothing to undo")
            state.term = state.undo_stack.pop()
            say(print_expr(state.term))
        elif cmd == "help":
            say(REPL_HELP)
        elif cmd == "quit":
            state.done = True
        else:
            raise CatError(f"unknown command {cmd!r}; try help")
    except Exception as err:  # reported in its place; the session goes on
        say(_error_line(err))
    return state


def _cmd_repl(args) -> int:
    state = ReplState(sig=_load_signature(args.sig))
    print("monocat repl; 'help' lists commands")
    while not state.done:
        try:
            line = input("> ")
        except EOFError:
            break
        repl_step(state, line)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write("\n".join(state.transcript) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _ArgParser(argparse.ArgumentParser):  # subcommand parsers are of the same class
    def error(self, message: str):  # one "error:" line and exit code 2, as any other error
        self.exit(2, f"error: {' '.join(message.split())} (see {self.prog} --help)\n")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgParser(
        prog="monocat",
        description="monoidal-category terms: normalize, rewrite, check, draw")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_sig(p):
        p.add_argument("--sig", required=True, help="signature file")

    p = sub.add_parser("check", help="decide whether two expressions are equivalent")
    add_sig(p)
    p.add_argument("--method", required=True,
                   choices=["monoidal", "cat_easy", "matrix", "rel"])
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--batch", help="file of 'EXPR == EXPR' lines")
    p.add_argument("exprs", nargs="*", help="two expressions")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("normalize", help="print the canonical normal form")
    add_sig(p)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_on_term, op=lambda t, s, a: _normal_form(t, s))

    p = sub.add_parser("foliate", help="rewrite as a composition of stacks")
    add_sig(p)
    p.add_argument("--weak", action="store_true")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_on_term,
                   op=lambda t, s, a: print_expr((weak_foliate if a.weak else foliate)(t, s)))

    p = sub.add_parser("rewrite", help="rewrite modulo associativity with a rule file")
    add_sig(p)
    p.add_argument("--rules", required=True)
    p.add_argument("--rule", default=None, help="rule name (default: first that matches)")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_on_term,
                   op=lambda t, s, a: print_expr(_rewrite(t, s, a.rules, a.rule)))

    p = sub.add_parser("render", help="write a string diagram")
    add_sig(p)
    p.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--color", action="store_true")
    p.add_argument("--config", default=None, help=f"render config (or ${CONFIG_ENV_VAR})")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_on_term,
                   op=lambda t, s, a: _render(t, s, a.out, a.format, a.config, a.color))

    p = sub.add_parser("repl", help="interactive tactic session")
    add_sig(p)
    p.add_argument("--transcript", default=None, help="write session transcript on quit")
    p.set_defaults(fn=_cmd_repl)

    return ap


def run(argv: list[str] | None = None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""

    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except Exception as err:  # a crash is an error (2), never "unequal" (1)
        print(_error_line(err), file=sys.stderr)
        return 2


def _error_text(err: Exception) -> str:
    """An error as one line: the message of an input error, else its type too."""

    if isinstance(err, (CatError, OSError)):
        return str(err)
    return f"{type(err).__name__}: {' '.join(str(err).split())}"


def _error_line(err: Exception) -> str:
    """The one ``error:`` line of a failed run or REPL command, with the
    error's span when it has one (only a ``CatError`` does)."""

    return f"error: {_error_text(err)}" + (f" ({err.span})" if getattr(err, "span", None) else "")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
