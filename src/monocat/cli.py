"""Command-line surface and interactive REPL.

Exit codes are the machine contract: 0 = success / equal / proved,
1 = not proved / unequal, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, partial

from . import coherence, render, tactics
from .coherence import dump_normal_form, monoidal_eq
from .parser import parse_expr, parse_rules, parse_signature, print_expr, print_obj
from .semantics import (MatrixInstance, RelInstance, eval_matrix, eval_rel, mat_equiv,
                        matrix_instance, rel_instance)
from .tactics import cancel_isos, cat_easy, cat_simpl, foliate, partner, weak_foliate
from .terms import CatError, MorExpr, Signature, typecheck

CONFIG_ENV_VAR = "MONOCAT_CONFIG"


def _load_signature(path: str) -> Signature:
    with open(path, encoding="utf-8") as fh:
        return parse_signature(fh.read())


def _render_config(args) -> render.RenderConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    cfg = render.RenderConfig.from_file(path) if path else render.RenderConfig()
    if getattr(args, "color", False):
        cfg = replace(cfg, color=True)
    return cfg


def _check_pair(method: str, sig: Signature, text1: str, text2: str,
                backend: Callable[[], MatrixInstance | RelInstance]) -> tuple[bool, str]:
    """Returns (equal, human-readable report)."""

    t1 = parse_expr(text1, sig)
    t2 = parse_expr(text2, sig)
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
        m1, m2 = eval_matrix(t1, inst), eval_matrix(t2, inst)
        if mat_equiv(m1, m2, inst.tolerance):
            return True, "equal (matrix backend)"
        return False, "unequal (matrix backend)"
    if method == "rel":
        inst = backend()
        r1, r2 = eval_rel(t1, inst), eval_rel(t2, inst)
        if r1 == r2:
            return True, "equal (relation backend)"
        return False, f"unequal (relation backend): symmetric difference {sorted(r1 ^ r2)}"
    raise CatError(f"unknown check method {method!r}")


def _cmd_check(args) -> int:
    sig = _load_signature(args.sig)
    # one backend instance per run, built once the first pair to need it has parsed
    backend = cache(partial(matrix_instance, sig, args.tolerance) if args.method == "matrix"
                    else partial(rel_instance, sig))
    if args.batch:
        with open(args.batch, encoding="utf-8") as fh:
            pairs = []
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "==" not in line:
                    raise CatError(f"batch line needs 'EXPR == EXPR': {line!r}")
                left, right = line.split("==", 1)
                pairs.append((left.strip(), right.strip()))
        verdicts = [_check_pair(args.method, sig, left, right, backend)[0]
                    for left, right in pairs]
        for (left, right), equal in zip(pairs, verdicts):
            print(f"[{'ok' if equal else 'FAIL'}] {left} == {right}")
        return 0 if all(verdicts) else 1
    if len(args.exprs) != 2:
        raise CatError("check needs exactly two expressions (or --batch FILE)")
    equal, report = _check_pair(args.method, sig, args.exprs[0], args.exprs[1], backend)
    print(report)
    return 0 if equal else 1


def _cmd_normalize(args) -> int:
    sig = _load_signature(args.sig)
    term = parse_expr(args.expr, sig)
    nf = coherence.canonicalize(coherence.sheet_of_term(term, sig))
    print(dump_normal_form(nf))
    return 0


def _cmd_foliate(args) -> int:
    sig = _load_signature(args.sig)
    term = parse_expr(args.expr, sig)
    result = weak_foliate(term, sig) if args.weak else foliate(term, sig)
    print(print_expr(result))
    return 0


def _cmd_rewrite(args) -> int:
    sig = _load_signature(args.sig)
    term = parse_expr(args.expr, sig)
    with open(args.rules, encoding="utf-8") as fh:
        rules = parse_rules(fh.read(), sig)
    if args.rule:
        result = tactics.assoc_rw(term, rules.rule(args.rule), sig)
    else:
        # no rule named: apply the first rule in file order that matches
        result = None
        for rule in rules.rules:
            try:
                result = tactics.assoc_rw(term, rule, sig)
                break
            except tactics.NoMatch:
                continue
        if result is None:
            raise tactics.NoMatch("no rule in the file matches")
    print(print_expr(result))
    return 0


def _cmd_render(args) -> int:
    sig = _load_signature(args.sig)
    term = parse_expr(args.expr, sig)
    cfg = _render_config(args)
    node = render.layout(term, sig, cfg)
    text = render.emit_svg(node, cfg) if args.format == "svg" else render.emit_tikz(node, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------


@dataclass
class ReplState:
    """Interactive session state; every term on the stack typechecks."""

    sig: Signature
    term: MorExpr | None = None
    undo_stack: list[MorExpr] = field(default_factory=list)
    transcript: list[str] = field(default_factory=list)
    done: bool = False


_REPL_TACTICS = {
    "foliate": foliate,
    "weak_foliate": weak_foliate,
    "cancel_isos": cancel_isos,
    "cat_simpl": cat_simpl,
}

REPL_HELP = """commands:
  load <expr>        set the current term
  show               print the current term and its type
  apply <tactic>     foliate | weak_foliate | cancel_isos | cat_simpl
  partner <p> <q>    group adjacent p ; q by reassociation
  rw <file> <rule>   rewrite with a named rule from a rule file
  normalize          print the canonical normal form
  render <path>      write an SVG of the current term
  undo               restore the term before the last tactic
  quit               leave the REPL"""


def repl_step(state: ReplState, line: str) -> ReplState:
    """Execute one REPL line, returning the (possibly updated) state.

    Errors are printed and leave the state unchanged.
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
        if cmd == "load":
            state.term = parse_expr(rest, state.sig)
            state.undo_stack.clear()
            say(print_expr(state.term))
        elif cmd == "show":
            _need_term(state)
            ty = typecheck(state.term, state.sig)
            say(f"{print_expr(state.term)} : {print_obj(ty.dom)} -> {print_obj(ty.cod)}")
        elif cmd == "apply":
            _need_term(state)
            name = rest.strip()
            if name not in _REPL_TACTICS:
                raise CatError(f"unknown tactic {name!r}; see help")
            new = _REPL_TACTICS[name](state.term, state.sig)
            state.undo_stack.append(state.term)
            state.term = new
            say(print_expr(new))
        elif cmd == "partner":
            _need_term(state)
            import shlex

            args = shlex.split(rest)
            if len(args) != 2:
                raise CatError("usage: partner <p> <q>")
            p = parse_expr(args[0], state.sig)
            q = parse_expr(args[1], state.sig)
            new = partner(state.term, p, q, state.sig)
            state.undo_stack.append(state.term)
            state.term = new
            say(print_expr(new))
        elif cmd == "rw":
            _need_term(state)
            import shlex

            args = shlex.split(rest)
            if len(args) != 2:
                raise CatError("usage: rw <rulefile> <rule>")
            with open(args[0], encoding="utf-8") as fh:
                rules = parse_rules(fh.read(), state.sig)
            new = tactics.assoc_rw(state.term, rules.rule(args[1]), state.sig)
            state.undo_stack.append(state.term)
            state.term = new
            say(print_expr(new))
        elif cmd == "normalize":
            _need_term(state)
            nf = coherence.canonicalize(coherence.sheet_of_term(state.term, state.sig))
            say(dump_normal_form(nf))
        elif cmd == "render":
            _need_term(state)
            cfg = render.RenderConfig()
            node = render.layout(state.term, state.sig, cfg)
            with open(rest.strip(), "w", encoding="utf-8") as fh:
                fh.write(render.emit_svg(node, cfg))
            say(f"wrote {rest.strip()}")
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
    except CatError as err:
        say(f"error: {err}" + (f" ({err.span})" if err.span else ""))
    except OSError as err:
        say(f"error: {err}")
    return state


def _need_term(state: ReplState) -> None:
    if state.term is None:
        raise CatError("no current term; use: load <expr>")


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


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("foliate", help="rewrite as a composition of stacks")
    add_sig(p)
    p.add_argument("--weak", action="store_true")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_foliate)

    p = sub.add_parser("rewrite", help="rewrite modulo associativity with a rule file")
    add_sig(p)
    p.add_argument("--rules", required=True)
    p.add_argument("--rule", default=None, help="rule name (default: first that matches)")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("render", help="write a string diagram")
    add_sig(p)
    p.add_argument("--format", choices=["svg", "tikz"], default="svg")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--color", action="store_true")
    p.add_argument("--config", default=None, help=f"render config (or ${CONFIG_ENV_VAR})")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_render)

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
    except CatError as err:
        where = f" ({err.span})" if err.span else ""
        print(f"error: {err}{where}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
