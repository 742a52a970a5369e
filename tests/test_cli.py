"""Command-line surface: exit codes, output format, REPL stepping."""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import event, given, settings, strategies as st

from gen import STD_SIG_TEXT, random_term
from monocat import semantics
from monocat.cli import ReplState, repl_step, run
from monocat.parser import parse_expr, parse_signature, print_expr
from monocat.terms import typecheck

SIG_TEXT = """
category symmetric
object N
object A
object B
object C
object M
mor f : N -> B
mor g : B -> C
mor h : A -> M
iso k : A -> B
mor u : A -> A

backend matrix
dim N = 2
dim A = 2
dim B = 2
dim C = 3
dim M = 2
mat f = [[1, 0], [0, 1i]]
mat g = [[1, 0], [0, 1], [1, 1]]
mat h = [[0.5, 0], [0, 0.5]]
mat k = [[0, 1], [1, 0]]
inv k = [[0, 1], [1, 0]]
mat u = [[1, 1], [0, 1]]

backend rel
size N = 2
size A = 2
size B = 2
size C = 3
size M = 2
rel f = {(0,0), (1,1)}
rel g = {(0,2)}
rel h = {(0,1)}
rel k = {(0,1), (1,0)}
rel u = {(0,0), (0,1)}
"""


@pytest.fixture(scope="module")
def sig_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sig.txt"
    path.write_text(SIG_TEXT, encoding="utf-8")
    return str(path)


def test_check_monoidal_equal_exit_0(sig_path, capsys):
    code = run(["check", "--sig", sig_path, "--method", "monoidal",
                "alpha[A,I,B] ; (id[A] * lunit[B])", "runit[A] * id[B]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "equal (monoidal)" in out
    assert "in=[A,B]; layers=[]; out=[A,B]" in out


def test_check_monoidal_not_decided_exit_1(sig_path, capsys):
    code = run(["check", "--sig", sig_path, "--method", "monoidal", "u ; u", "u"])
    assert code == 1
    assert "not decided" in capsys.readouterr().out


def test_check_cat_easy(sig_path, capsys):
    code = run(["check", "--sig", sig_path, "--method", "cat_easy",
                "u ; k ; inv(k)", "u"])
    assert code == 0
    assert "proved" in capsys.readouterr().out


def test_check_matrix_and_rel(sig_path):
    assert run(["check", "--sig", sig_path, "--method", "matrix",
                "k ; inv(k)", "id[A]"]) == 0
    assert run(["check", "--sig", sig_path, "--method", "rel",
                "k ; inv(k)", "id[A]"]) == 0
    assert run(["check", "--sig", sig_path, "--method", "matrix",
                "u ; u", "u"]) == 1


@pytest.mark.parametrize("method", ["monoidal", "cat_easy", "matrix", "rel"])
def test_check_different_boundaries_is_an_error(sig_path, tmp_path, capsys, method):
    # u ; k : A -> B and u : A -> A have the same sizes in both backends, so a
    # backend alone would call them equal
    code = run(["check", "--sig", sig_path, "--method", method, "u ; k", "u"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: terms do not share a boundary type: A -> B vs A -> A\n"
    batch = tmp_path / "pairs.txt"
    batch.write_text("u == u\nu ; k == u\nk == u ; k\n", encoding="utf-8")
    assert run(["check", "--sig", sig_path, "--method", method, "--batch", str(batch)]) == 2
    assert capsys.readouterr().out == (
        "[ok] u == u\n"
        f"[error] {batch}:2: terms do not share a boundary type: A -> B vs A -> A\n"
        "[FAIL] k == u ; k\n")


def test_check_usage_and_input_errors(sig_path, capsys):
    assert run(["check", "--sig", sig_path, "--method", "monoidal", "f"]) == 2
    assert run(["check", "--sig", sig_path, "--method", "monoidal",
                "f ; nosuch", "f"]) == 2
    assert run(["check", "--sig", "/nonexistent/sig", "--method", "monoidal",
                "f", "f"]) == 2
    capsys.readouterr()


def test_usage_error_exit_2(capsys):
    # an argparse usage error is one "error:" line on stderr, as every other error
    check, top = re.escape(" (see monocat check --help)"), re.escape(" (see monocat --help)")
    for argv, pattern in [
        (["check"], re.escape("the following arguments are required: --sig, --method") + check),
        # Python versions write the list of choices differently
        (["frobnicate"], re.escape("argument command: invalid choice: 'frobnicate' (choose from ")
         + r"[^\n]*\)" + top),
        (["check", "--sig", "s", "--method", "matrix", "--tolerance", "-inf", "u", "u"],
         re.escape("argument --tolerance: expected one argument") + check),
        ([], re.escape("the following arguments are required: command") + top),
    ]:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and re.fullmatch(f"error: {pattern}\n", captured.err), captured.err
    assert run(["check", "--help"]) == 0  # help is no error
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: monocat check") and captured.err == ""


def test_foliate_worked_example(sig_path, capsys):
    code = run(["foliate", "--sig", sig_path, "(f ; g) * h"])
    assert code == 0
    assert capsys.readouterr().out.strip() == \
        "(f * id[A]) ; ((id[B] * h) ; (g * id[M]))"
    code = run(["foliate", "--sig", sig_path, "--weak", "(f ; g) * h"])
    assert capsys.readouterr().out.strip() == "(f * h) ; (g * id[M])"


def test_normalize(sig_path, capsys):
    code = run(["normalize", "--sig", sig_path, "(f * id[A]) ; (id[B] * h)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == \
        "in=[N,A]; layers=[[f([N]->[B])|h([A]->[M])]]; out=[B,M]"


def test_crash_exits_2_with_one_line(sig_path, capsys, monkeypatch):
    # a crash inside the library is an error (2), never "unequal" (1), and no traceback
    def overflow(*_args):
        raise RecursionError("maximum recursion depth exceeded\n while calling a Python object")

    monkeypatch.setattr("monocat.coherence.sheet_of_term", overflow)
    code = run(["check", "--sig", sig_path, "--method", "monoidal", "u", "u"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: RecursionError: maximum recursion depth exceeded while calling a Python object\n"


def test_deep_parentheses_normalize(sig_path, capsys, default_recursion_limit):
    code = run(["normalize", "--sig", sig_path, "u ; (" * 1499 + "u" + ")" * 1499])
    assert code == 0
    assert capsys.readouterr().out == \
        f"in=[A]; layers=[{', '.join(['[u([A]->[A])]'] * 1500)}]; out=[A]\n"


DEEP = 5000
DEEP_CHAINS = {"left-nested": " ; ".join(["u"] * DEEP),
               "right-nested": "u ; (" * (DEEP - 1) + "u" + ")" * (DEEP - 1)}


@pytest.mark.parametrize("shape", sorted(DEEP_CHAINS))
def test_deep_chains_check_and_normalize(sig_path, capsys, default_recursion_limit, shape):
    # a 5000-element chain, against the other nesting and alone, at the default recursion
    # limit (about 0.3 s a shape on one shared vCPU)
    (other,) = DEEP_CHAINS.keys() - {shape}
    text, other = DEEP_CHAINS[shape], DEEP_CHAINS[other]
    normal_form = f"in=[A]; layers=[{', '.join(['[u([A]->[A])]'] * DEEP)}]; out=[A]"
    assert run(["check", "--sig", sig_path, "--method", "monoidal", text, other]) == 0
    assert capsys.readouterr().out == f"equal (monoidal)\n  {normal_form}\n"
    assert run(["check", "--sig", sig_path, "--method", "cat_easy", text, other]) == 0
    assert capsys.readouterr().out.startswith("proved (cat_easy)\n")
    assert run(["normalize", "--sig", sig_path, text]) == 0
    assert capsys.readouterr().out == normal_form + "\n"


def test_check_wide_declared_boundary(tmp_path, capsys, default_recursion_limit):
    wide = " * ".join(["A"] * 1200)
    path = tmp_path / "wide.txt"
    path.write_text(f"category symmetric\nobject A\nmor v : {wide} -> A\n", encoding="utf-8")
    assert run(["check", "--sig", str(path), "--method", "monoidal", "v", f"id[{wide}] ; v"]) == 0
    assert "equal (monoidal)" in capsys.readouterr().out


def test_signature_error_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "sig.txt"
    path.write_text("category symmetric\nobject A\n\nmor f : A -> Z\n", encoding="utf-8")
    assert run(["check", "--sig", str(path), "--method", "monoidal", "f", "f"]) == 2
    assert capsys.readouterr().err == "error: undeclared object 'Z' (line 4, column 14)\n"


@pytest.mark.parametrize("method", ["matrix", "rel"])
def test_check_wide_tensor_by_backend(tmp_path, capsys, default_recursion_limit, method):
    # 1200 factors of dimension 1: both evaluators walk tensors without recursing
    path = tmp_path / "one.txt"
    path.write_text("category symmetric\nobject A\nmor u : A -> A\n"
                    "backend matrix\ndim A = 1\nmat u = [[-1]]\n"
                    "backend rel\nsize A = 1\nrel u = {(0,0)}\n", encoding="utf-8")
    wide = " * ".join(["u"] * 1200)
    ident = f"id[{' * '.join(['A'] * 1200)}]"
    assert run(["check", "--sig", str(path), "--method", method, wide, f"({wide}) ; {ident}"]) == 0
    assert capsys.readouterr().out.startswith("equal (")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_matrix_tolerance_must_be_finite_and_at_least_0(sig_path, capsys, tol):
    code = run(["check", "--sig", sig_path, "--method", "matrix", "--tolerance", tol, "u", "u"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: tolerance must be finite and at least 0, not {float(tol)}\n"


@pytest.mark.parametrize("line, message", [
    ("tolerance nan", "tolerance must be finite and at least 0, not nan"),
    ("dim A = abc", "dim A must be an integer, not 'abc'"),
])
def test_check_unreadable_backend_line_names_it(tmp_path, capsys, line, message):
    path = tmp_path / "sig.txt"
    path.write_text("category symmetric\nobject A\nmor u : A -> A\n"
                    f"backend matrix\n{line}\ndim A = 1\nmat u = [[1]]\n", encoding="utf-8")
    assert run(["check", "--sig", str(path), "--method", "matrix", "u", "u"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: line 5: {message}\n"


@pytest.mark.parametrize("method, block, message", [
    # the last entry used to win: "u" against "u ; u" was unequal, then equal
    ("matrix", "backend matrix\ndim A = 1\nmat u = [[1]]\nmat u = [[2]]\n",
     "line 7: mat 'u' declared more than once"),
    ("rel", "backend rel\nsize A = 1\nrel u = {(0,0)}\nrel u = {}\n",
     "line 7: rel 'u' declared more than once"),
    ("rel", "backend rel\nsize A = 1\nrel u = {(0,0)}\nbackend rel\nrel u = {}\n",
     "'backend rel' declared more than once (line 7, column 9)"),
])
def test_check_repeated_backend_entry_is_an_error(tmp_path, capsys, method, block, message):
    path = tmp_path / "sig.txt"
    path.write_text(f"category symmetric\nobject A\nmor u : A -> A\n{block}", encoding="utf-8")
    assert run(["check", "--sig", str(path), "--method", method, "u", "u ; u"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_check_rel_unequal_reports_sorted_difference(sig_path, capsys):
    # k ; inv(k) is {(0,0), (1,1)} and u is {(0,0), (0,1)}
    assert run(["check", "--sig", sig_path, "--method", "rel", "u ; k ; inv(k)", "u"]) == 0
    assert run(["check", "--sig", sig_path, "--method", "rel", "k ; inv(k)", "u"]) == 1
    assert capsys.readouterr().out == (
        "equal (relation backend)\n"
        "unequal (relation backend): symmetric difference [(0, 1), (1, 1)]\n")


def test_import_leaves_numpy_out():
    # only the matrix and relation oracles need numpy; it is imported on their first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, monocat.cli; assert 'numpy' not in sys.modules; "
            "from monocat import eval_matrix; assert 'numpy' in sys.modules")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


#: Every name ``monocat.__all__`` exports: classes, functions and constants, no submodule
PUBLIC_NAMES = """
Assoc AssocInv Braid BraidInv CatError Comp CompositionMismatch DuplicateName Equal Id Inv
LUnit LUnitInv LayoutNode LevelViolation MatrixInstance MorDecl MorExpr MorGen MorType
NormalForm NotAnIso NotDecided NotInvertible NotProved ObjExpr ObjGen ObjTensor ParseError
Proved RUnit RUnitInv RelInstance RenderConfig RewriteRule RuleFile Sheet Signature SourceSpan
Tensor TypeMismatch UNIT UndeclaredName Unit UnknownLevel assoc_rw braid_matrix cancel_isos
canonicalize cat_easy cat_simpl check_coherence dump_normal_form emit_svg emit_tikz eval_matrix
eval_rel flatten_object foliate is_stack iso_inverse layout mat_equiv matrix_instance
monoidal_eq parse_expr parse_rules parse_signature partner print_expr print_obj rel_instance
sheet_of_term structural_atoms typecheck weak_foliate
""".split()


def test_all_names_no_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, types, monocat; assert 'numpy' not in sys.modules; "
            "print(' '.join(monocat.__all__)); "
            "assert not any(isinstance(getattr(monocat, n), types.ModuleType) "
            "for n in monocat.__all__)")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == PUBLIC_NAMES


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/*.py"),
                        *root.glob("perfbench/*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


#: The package modules that each module imports: term structure has one owner, and the
#: oracles and the renderer stay apart from the normalizer they check or draw beside
LAYERS = {"terms": set(), "parser": {"terms"}, "coherence": {"terms"}, "semantics": {"terms"},
          "render": {"terms"}, "tactics": {"parser", "terms"}}


def test_module_layers():
    root = Path(__file__).resolve().parents[1] / "src" / "monocat"
    for name, layer in LAYERS.items():
        tree = ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ... or from . import x
                imported |= {node.module} if node.module else {a.name for a in node.names}
        assert imported == layer, name


def test_long_chain_normalizes(sig_path, capsys):
    code = run(["normalize", "--sig", sig_path, " ; ".join(["u"] * 1500)])
    assert code == 0
    assert capsys.readouterr().out == \
        f"in=[A]; layers=[{', '.join(['[u([A]->[A])]'] * 1500)}]; out=[A]\n"


def test_memory_error_exits_2_with_one_line(sig_path, capsys, monkeypatch):
    def exhausted(*_args):
        raise MemoryError("cannot allocate\n 64 GiB")

    monkeypatch.setattr("monocat.coherence.canonicalize", exhausted)
    code = run(["normalize", "--sig", sig_path, "u"])
    assert code == 2
    assert capsys.readouterr().err == "error: MemoryError: cannot allocate 64 GiB\n"


def test_rewrite(sig_path, tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule cancel : k ; inv(k) => id[A]\n", encoding="utf-8")
    code = run(["rewrite", "--sig", sig_path, "--rules", str(rules),
                "--rule", "cancel", "u ; k ; inv(k)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "u ; id[A]"
    # default: first matching rule
    code = run(["rewrite", "--sig", sig_path, "--rules", str(rules), "u ; k ; inv(k)"])
    assert code == 0
    capsys.readouterr()
    # no match is an input error
    code = run(["rewrite", "--sig", sig_path, "--rules", str(rules), "u"])
    assert code == 2
    capsys.readouterr()


DUP_RULES = "rule r : k ; inv(k) => id[A]\nrule r : u ; u => u\n"
DUP_ERROR = "error: rule 'r' declared more than once (line 2, column 1)"


def test_rewrite_duplicate_rule_name(sig_path, tmp_path, capsys):
    # the second "r" would match "u ; u": a repeated name is an error, not the first rule
    rules = tmp_path / "dup.txt"
    rules.write_text(DUP_RULES, encoding="utf-8")
    code = run(["rewrite", "--sig", sig_path, "--rules", str(rules), "--rule", "r", "u ; u"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == DUP_ERROR + "\n"


def test_render_deterministic(sig_path, tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(["render", "--sig", sig_path, "-o", str(out1), "f ; g"]) == 0
    assert run(["render", "--sig", sig_path, "-o", str(out2), "f ; g"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    tikz = tmp_path / "a.tikz"
    assert run(["render", "--sig", sig_path, "--format", "tikz",
                "-o", str(tikz), "f ; g"]) == 0
    assert tikz.read_text(encoding="utf-8").startswith(r"\begin{tikzpicture}")
    capsys.readouterr()


def test_render_config_file(sig_path, tmp_path, capsys):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("unit = 50\n", encoding="utf-8")
    out = tmp_path / "c.svg"
    assert run(["render", "--sig", sig_path, "--config", str(cfg),
                "-o", str(out), "f"]) == 0
    assert 'height="70.00"' in out.read_text(encoding="utf-8")  # unit 50 + margins
    capsys.readouterr()


def test_batch_check(sig_path, tmp_path, capsys):
    batch = tmp_path / "pairs.txt"
    batch.write_text(
        "alpha[A,I,B] ; (id[A] * lunit[B]) == runit[A] * id[B]\n"
        "# a comment line\n"
        "u ; id[A] == id[A] ; u\n",
        encoding="utf-8")
    code = run(["check", "--sig", sig_path, "--method", "monoidal",
                "--batch", str(batch)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[ok]") == 2
    batch.write_text("u ; id[A] == id[A] ; u\nu ; u == u\n", encoding="utf-8")
    code = run(["check", "--sig", sig_path, "--method", "monoidal",
                "--batch", str(batch)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[ok]" in out and "[FAIL]" in out
    # results printed in input order
    assert out.index("[ok]") < out.index("[FAIL]")


@pytest.mark.parametrize("method", ["matrix", "rel"])
def test_batch_check_backends(sig_path, tmp_path, capsys, method):
    batch = tmp_path / "pairs.txt"
    batch.write_text(
        "k ; inv(k) == id[A]\n"
        "u == id[A]\n"
        "(u * k) ; braid[A,B] == braid[A,A] ; (k * u)\n",
        encoding="utf-8")
    code = run(["check", "--sig", sig_path, "--method", method, "--batch", str(batch)])
    assert code == 1
    assert capsys.readouterr().out == (
        "[ok] k ; inv(k) == id[A]\n"
        "[FAIL] u == id[A]\n"
        "[ok] (u * k) ; braid[A,B] == braid[A,A] ; (k * u)\n")


def test_batch_check_error_and_empty(sig_path, tmp_path, capsys):
    # each failing pair is reported in its place, at its line of the file, and the batch goes on
    batch = tmp_path / "pairs.txt"
    batch.write_text("u == u\n\n# a comment\nu ; nosuch == u\nk ; u == u\nu\nu == u # ok\n",
                     encoding="utf-8")
    assert run(["check", "--sig", sig_path, "--method", "matrix", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "[ok] u == u\n"
        f"[error] {batch}:4: undeclared morphism 'nosuch'\n"
        f"[error] {batch}:5: cannot compose: codomain B does not match domain A\n"
        f"[error] {batch}:6: batch line needs 'EXPR == EXPR': 'u'\n"
        "[ok] u == u\n")
    assert captured.err == ""
    batch.write_text("u == u\nu ; u == u\n", encoding="utf-8")  # unequal, not erred: 1
    assert run(["check", "--sig", sig_path, "--method", "matrix", "--batch", str(batch)]) == 1
    assert capsys.readouterr().out == "[ok] u == u\n[FAIL] u ; u == u\n"
    # an empty batch needs no backend block
    bare = tmp_path / "bare.txt"
    bare.write_text("category symmetric\nobject A\nmor u : A -> A\n", encoding="utf-8")
    batch.write_text("# nothing to check\n", encoding="utf-8")
    for method in ("matrix", "rel"):
        assert run(["check", "--sig", str(bare), "--method", method,
                    "--batch", str(batch)]) == 0
    assert capsys.readouterr().out == ""


def test_batch_builds_the_backend_once_and_stops_when_it_cannot(sig_path, tmp_path, capsys,
                                                                 monkeypatch):
    # the backend is the same for every pair: a batch builds it at most once, and
    # when it cannot be built the run ends on one "error:" line, not one per pair
    calls = []
    built = semantics.matrix_instance
    monkeypatch.setattr(semantics, "matrix_instance", lambda *a: calls.append(a) or built(*a))
    batch = tmp_path / "pairs.txt"
    batch.write_text("u == u\nu ; u == u\nk == k\n", encoding="utf-8")
    argv = ["check", "--sig", sig_path, "--method", "matrix", "--batch", str(batch)]
    assert run([*argv, "--tolerance", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be finite and at least 0, not nan\n"
    assert len(calls) == 1
    assert run(argv) == 1
    assert capsys.readouterr().out == "[ok] u == u\n[FAIL] u ; u == u\n[ok] k == k\n"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------


@pytest.fixture()
def repl(sig_path):
    return ReplState(sig=parse_signature(Path(sig_path).read_text(encoding="utf-8")))


def test_repl_cancel_isos_session(repl, capsys):
    repl_step(repl, "load u ; k ; inv(k)")
    repl_step(repl, "apply cancel_isos")
    repl_step(repl, "show")
    out = capsys.readouterr().out
    assert "u : A -> A" in out
    assert print_expr(repl.term) == "u"


def test_repl_undo_restores(repl, capsys):
    repl_step(repl, "load (f ; g) * h")
    before = repl.term
    repl_step(repl, "apply foliate")
    assert repl.term != before
    repl_step(repl, "undo")
    assert repl.term == before
    capsys.readouterr()


def test_repl_error_leaves_state(repl, capsys):
    repl_step(repl, "load f ; g")
    term = repl.term
    repl_step(repl, "apply nosuchtactic")
    out = capsys.readouterr().out
    assert "error" in out
    assert repl.term == term
    # rw with a non-matching rule leaves state unchanged and reports
    repl_step(repl, "rw /nonexistent/rules.txt cancel")
    assert "error" in capsys.readouterr().out
    assert repl.term == term


def test_repl_partner_and_normalize(repl, capsys):
    repl_step(repl, "load u ; (u ; (u ; u))")
    repl_step(repl, "partner u u")
    assert capsys.readouterr().out == "u ; (u ; (u ; u))\nu ; u ; (u ; u)\n"
    assert repl.term == parse_expr("u ; u ; (u ; u)", repl.sig)
    repl_step(repl, "normalize")
    assert capsys.readouterr().out == \
        f"in=[A]; layers=[{', '.join(['[u([A]->[A])]'] * 4)}]; out=[A]\n"


def test_repl_rw(repl, tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule cancel : k ; inv(k) => id[A]\n", encoding="utf-8")
    repl_step(repl, "load u ; k ; inv(k)")
    repl_step(repl, f"rw {rules} cancel")
    assert print_expr(repl.term) == "u ; id[A]"
    capsys.readouterr()


def test_repl_rw_duplicate_rule_name(repl, tmp_path, capsys):
    rules = tmp_path / "dup.txt"
    rules.write_text(DUP_RULES, encoding="utf-8")
    repl_step(repl, "load u ; u")
    capsys.readouterr()
    term, transcript = repl.term, list(repl.transcript)
    repl_step(repl, f"rw {rules} r")
    assert capsys.readouterr().out == DUP_ERROR + "\n"
    assert repl.term is term and repl.undo_stack == []
    assert repl.transcript == transcript + [f"> rw {rules} r", DUP_ERROR]


def test_repl_quit_and_transcript(repl, capsys):
    repl_step(repl, "load f")
    repl_step(repl, "quit")
    assert repl.done
    assert any(line.startswith("> load") for line in repl.transcript)
    capsys.readouterr()


def test_repl_session_from_stdin(sig_path, tmp_path, capsys, monkeypatch):
    transcript = tmp_path / "session.txt"
    monkeypatch.setattr("sys.stdin", io.StringIO("load u ; k ; inv(k)\napply cancel_isos\n\nshow\n"))
    assert run(["repl", "--sig", sig_path, "--transcript", str(transcript)]) == 0
    # end of input ends the session like quit; the prompt is written before each read
    assert capsys.readouterr().out == ("monocat repl; 'help' lists commands\n"
                                       "> u ; k ; inv(k)\n> u\n> > u : A -> A\n> ")
    assert transcript.read_text(encoding="utf-8") == (
        "> load u ; k ; inv(k)\nu ; k ; inv(k)\n> apply cancel_isos\nu\n> show\nu : A -> A\n")
    # quit stops reading: the line after it is never run
    monkeypatch.setattr("sys.stdin", io.StringIO("load f\nquit\nload nosuch\n"))
    assert run(["repl", "--sig", sig_path, "--transcript", str(transcript)]) == 0
    assert transcript.read_text(encoding="utf-8") == "> load f\nf\n> quit\n"
    capsys.readouterr()


def test_repl_unclosed_quote_is_an_error(sig_path, tmp_path, capsys, monkeypatch):
    # a word with no closing quote is reported, and the session goes on
    transcript = tmp_path / "session.txt"
    monkeypatch.setattr("sys.stdin", io.StringIO('load u ; u\npartner "u u\nrw "F R\nshow\n'))
    assert run(["repl", "--sig", sig_path, "--transcript", str(transcript)]) == 0
    assert transcript.read_text(encoding="utf-8").splitlines() == [
        "> load u ; u", "u ; u", '> partner "u u', "error: No closing quotation",
        '> rw "F R', "error: No closing quotation", "> show", "u ; u : A -> A"]
    capsys.readouterr()


@pytest.mark.parametrize("expr, rule", [("(f ; g) * h", "fg"), ("u ; k ; inv(k) ; u", "cancel"),
                                        ("(k * u) ; braid[B,A]", "swap"),
                                        ("u ; k ; inv(k) ; u", "")])
def test_repl_commands_match_subcommands(sig_path, repl, tmp_path, capsys, monkeypatch, expr,
                                         rule):
    # each REPL command runs its subcommand's code: same text printed, same bytes written
    monkeypatch.delenv("MONOCAT_CONFIG", raising=False)
    rules = tmp_path / "rules.txt"
    rules.write_text("rule cancel : k ; inv(k) => id[A]\nrule fg : f ; g => f ; g\n"
                     "rule swap : (k * u) ; braid[B,A] => braid[A,A] ; (u * k)\n"
                     "rule : u ; k => u ; k\n",  # a rule named "", after one that matches
                     encoding="utf-8")

    def repl_says(command: str) -> str:
        repl_step(repl, f"load {expr}")
        capsys.readouterr()
        repl_step(repl, command)
        return capsys.readouterr().out

    def cli_says(*argv: str) -> str:
        assert run([argv[0], "--sig", sig_path, *argv[1:], expr]) == 0
        return capsys.readouterr().out

    assert repl_says("normalize") == cli_says("normalize")
    assert repl_says("apply foliate") == cli_says("foliate")
    assert repl_says("apply weak_foliate") == cli_says("foliate", "--weak")
    assert repl_says(f"rw {rules} {shlex.quote(rule)}") == \
        cli_says("rewrite", "--rules", str(rules), "--rule", rule)
    p, q = tmp_path / "repl.svg", tmp_path / "cli.svg"
    assert repl_says(f"render {p}") == f"wrote {p}\n"
    assert cli_says("render", "-o", str(q)) == f"wrote {q}\n"
    assert p.read_bytes() == q.read_bytes()


def test_repl_render_reads_config_env(sig_path, repl, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "render.cfg"
    cfg.write_text("unit = 40\n", encoding="utf-8")
    monkeypatch.setenv("MONOCAT_CONFIG", str(cfg))
    p, q = tmp_path / "repl.svg", tmp_path / "cli.svg"
    repl_step(repl, "load f")
    repl_step(repl, f"render {p}")
    assert run(["render", "--sig", sig_path, "-o", str(q), "f"]) == 0
    assert 'height="60.00"' in q.read_text(encoding="utf-8")  # unit 40 + margins
    assert p.read_bytes() == q.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    (b"unit = big\n", "render config unit must be a number"),
    (b"# \xff\nunit = 40\n", "is not UTF-8 text"),
    (b"unit = nan\n", "render config unit must be positive and finite"),
    (b"hgap = inf\n", "render config hgap must be positive and finite"),
])
def test_bad_render_config_is_an_error(sig_path, tmp_path, capsys, monkeypatch, text, message):
    # a config the variable names cannot end a REPL session, and the subcommand reports it
    cfg, out, transcript = tmp_path / "render.cfg", tmp_path / "f.svg", tmp_path / "session.txt"
    cfg.write_bytes(text)
    monkeypatch.setenv("MONOCAT_CONFIG", str(cfg))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"load f\nrender {out}\nshow\n"))
    assert run(["repl", "--sig", sig_path, "--transcript", str(transcript)]) == 0
    said = transcript.read_text(encoding="utf-8").splitlines()
    assert said[:3] == ["> load f", "f", f"> render {out}"]
    assert said[3].startswith("error: ") and message in said[3]
    assert said[4:] == ["> show", "f : N -> B"]
    assert not out.exists()
    capsys.readouterr()
    assert run(["render", "--sig", sig_path, "-o", str(out), "f"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_repl_reports_any_error_as_run_does(sig_path, repl, tmp_path, capsys, monkeypatch):
    # an error that is not an input error (a crash inside the rewrite) is the one line
    # ``run`` prints for it; the session goes on, and its transcript is written
    rules, transcript = tmp_path / "r.rules", tmp_path / "session.txt"
    rules.write_text("rule r : f => f\n", encoding="utf-8")

    def crash(*_args):
        raise RuntimeError("rewrite\n crashed")

    monkeypatch.setattr("monocat.tactics.assoc_rw", crash)
    assert run(["rewrite", "--sig", sig_path, "--rules", str(rules), "--rule", "r", "f"]) == 2
    error = capsys.readouterr().err.rstrip("\n")
    assert error == "error: RuntimeError: rewrite crashed"
    repl_step(repl, "load f")
    repl_step(repl, f"rw {rules} r")
    assert repl.term == parse_expr("f", repl.sig) and repl.transcript[-1] == error
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(f"load f\nrw {rules} r\nshow\nquit\n"))
    assert run(["repl", "--sig", sig_path, "--transcript", str(transcript)]) == 0
    assert capsys.readouterr().out.count("error:") == 1
    assert transcript.read_text(encoding="utf-8").splitlines() == [
        "> load f", "f", f"> rw {rules} r", error, "> show", "f : N -> B", "> quit"]


@pytest.mark.parametrize("kind", ["signature", "rule", "batch"])
def test_file_that_is_not_utf8_is_named(sig_path, repl, tmp_path, capsys, kind):
    # one error line naming the file and its kind, from the subcommand and the REPL alike
    path = tmp_path / f"bin.{kind}"
    path.write_bytes(b"\xff\xfe u == u\n")
    argv = {"signature": ["normalize", "--sig", str(path), "u"],
            "rule": ["rewrite", "--sig", sig_path, "--rules", str(path), "--rule", "r", "u"],
            "batch": ["check", "--sig", sig_path, "--method", "monoidal", "--batch", str(path)]}
    assert run(argv[kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind} file {path} is not UTF-8 text\n"
    if kind == "rule":
        repl_step(repl, "load u")
        repl_step(repl, f"rw {path} r")
        assert repl.transcript[-1] == captured.err.rstrip("\n")
        assert repl.term == parse_expr("u", repl.sig)


def test_module_entry_point_exits_2():
    # ``python -m monocat.cli`` runs the CLI: an unreadable signature is an error (2)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "monocat.cli", "normalize", "--sig",
                           "/nonexistent/sig", "f"], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


# ---------------------------------------------------------------------------
# The exit-code contract on damaged input
# ---------------------------------------------------------------------------

CONTRACT_SIG_TEXT = STD_SIG_TEXT + """
backend matrix
dim A = 2
dim B = 2
dim C = 1
mat f = [[1, 0], [0, 1i]]
mat g = [[1, 1]]
mat h = [[1], [0.5]]
mat u = [[1, 1], [0, 1]]
mat p = [[1, 0, 0, 1]]
mat q = [[1], [0], [0], [1]]
mat k = [[0, 1], [1, 0]]
inv k = [[0, 1], [1, 0]]
mat w = [[0, 1], [1, 0]]
inv w = [[0, 1], [1, 0]]
mat s = [[1], [1]]
mat e = [[1, 0]]

backend rel
size A = 2
size B = 2
size C = 1
rel f = {(0,0), (1,1)}
rel g = {(0,0)}
rel h = {(0,1)}
rel u = {(0,0), (0,1)}
rel p = {(0,0), (3,0)}
rel q = {(0,2)}
rel k = {(0,1), (1,0)}
rel w = {(0,1), (1,0)}
rel s = {(0,1)}
rel e = {(1,0)}
"""
CONTRACT_SIG = parse_signature(CONTRACT_SIG_TEXT)
METHODS = ("monoidal", "cat_easy", "matrix", "rel")
DAMAGE = ("none", "cut", "extra (", "extra )", "missing paren", "undeclared name")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "sig.txt").write_text(CONTRACT_SIG_TEXT, encoding="utf-8")
    return path


def _damaged(text: str, how: str, at: float) -> str:
    """``text`` damaged as ``how`` says, at the place that ``at`` in [0, 1) picks."""

    if how == "missing paren":
        spots = [i for i, c in enumerate(text) if c in "()"]
    elif how == "undeclared name":
        spots = [m.span() for m in re.finditer(r"[A-Za-z_]\w*", text)]
    else:
        spots = range(len(text) + 1)
    if how == "none" or not spots:
        return text
    spot = spots[int(at * len(spots))]
    if how == "cut":
        return text[:spot]
    if how == "missing paren":
        return text[:spot] + text[spot + 1:]
    if how == "undeclared name":
        return text[:spot[0]] + "nosuch" + text[spot[1]:]
    return text[:spot] + how[-1] + text[spot:]  # an extra "(" or ")"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str, batch: Path | None = None) -> list[int]:
    """Whatever the input, the exit code is 0, 1 or 2 and no traceback is printed; a
    failed run says why on one "error:" line; a batch that runs to its end prints one
    verdict per pair and names each failing line.  Returns the batch lines that erred."""

    assert code in (0, 1, 2)
    assert "Traceback" not in out and "Traceback" not in err
    if batch is None or err:
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert err == ""
        return []
    verdicts = [re.match(r"\[(ok|FAIL)\] |\[error\] (.*?):(\d+): ", line) for line in
                out.splitlines()]
    assert all(verdicts) and len(verdicts) == 3
    erred = [int(m[3]) for m in verdicts if m[2] is not None]
    assert all(m[2] == str(batch) for m in verdicts if m[2] is not None)
    assert code == (2 if erred else 1 if "[FAIL]" in out else 0)
    return erred


COMMANDS = [*METHODS, *(f"batch {m}" for m in METHODS), "normalize", "render"]


def _argv(command: str, path: Path, lhs: str, rhs: str) -> list[str]:
    """The argv of ``command`` on the signature and batch file in ``path``."""

    sig = str(path / "sig.txt")
    if command.startswith("batch"):
        batch = path / "pairs.txt"
        batch.write_text(f"{lhs} == {rhs}\n{rhs} == {rhs}\n{rhs} == {lhs}\n", encoding="utf-8")
        return ["check", "--sig", sig, "--method", command.split()[1], "--batch", str(batch)]
    if command == "normalize":
        return ["normalize", "--sig", sig, lhs]
    if command == "render":
        return ["render", "--sig", sig, "-o", str(path / "out.svg"), lhs]
    return ["check", "--sig", sig, "--method", command, lhs, rhs]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(DAMAGE), st.floats(0, 1, exclude_max=True),
       st.sampled_from(COMMANDS))
def test_cli_contract_on_damaged_input(contract_dir, seed, how, at, command):
    # time budget: 3 s (the 300 examples take about 1.1 s on one Xeon core)
    rng = Random(seed)
    good = print_expr(random_term(rng, CONTRACT_SIG, max_leaves=rng.randint(1, 5)))
    argv = _argv(command, contract_dir, _damaged(good, how, at), good)
    code, out, err = _run(argv)
    event(f"{command.split()[0]} exits {code}")  # see --hypothesis-show-statistics
    batch = contract_dir / "pairs.txt" if command.startswith("batch") else None
    erred = _assert_contract(code, out, err, batch)
    if batch is not None:
        assert err == ""
        assert set(erred) <= {1, 3}  # only the damaged lines can err


ARGV_DAMAGE = ("drop option", "drop value", "unknown option", "repeat option", "drop expression",
               "extra expression", "tolerance nan", "tolerance -inf", "tolerance -1")


def _damaged_argv(argv: list[str], how: str, rng: Random, path: Path) -> list[str]:
    """``argv`` with one option or operand missing, unknown or repeated, or with
    ``--tolerance`` set out of range, at the place that ``rng`` picks."""

    argv = list(argv)
    options = [i for i, a in enumerate(argv) if a.startswith("-")]  # each takes a value here
    operands = [i for i in range(1, len(argv)) if i not in options and i - 1 not in options]
    missing = str(path / "missing")
    if how == "drop option":
        i = rng.choice(options)
        del argv[i:i + 2]
    elif how == "drop value":
        del argv[rng.choice(options) + 1]
    elif how == "unknown option":
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--json", "--stats", "-x", "--"]))
    elif how == "repeat option":
        i = rng.choice(options)
        value = rng.choice({"--sig": [missing], "--method": [*METHODS, "bogus"],
                            "--batch": [missing], "-o": [str(path)]}.get(argv[i], [argv[i + 1]]))
        j = rng.choice(options)  # before an option, so that no option loses its value
        argv[j:j] = [argv[i], value]
    elif how == "drop expression":
        del argv[rng.choice(operands or options)]  # a batch has none: its flag goes
    elif how == "extra expression":
        argv.insert(rng.randint(1, len(argv)), rng.choice(["u", "f ; g", "nosuch"]))
    else:  # argparse takes "-inf" for an option unless it is joined to its flag
        value = how.split()[1]
        argv[1:1] = rng.choice([["--tolerance", value], [f"--tolerance={value}"]])
    return argv


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(ARGV_DAMAGE), st.sampled_from(COMMANDS))
def test_cli_contract_on_damaged_argv(contract_dir, seed, how, command):
    # missing, unknown or repeated options and operands, and tolerances out of range;
    # time budget: 3 s (the 200 examples take about 0.7 s on one Xeon core)
    rng = Random(seed)
    lhs, rhs = (print_expr(random_term(rng, CONTRACT_SIG, max_leaves=rng.randint(1, 5)))
                for _ in range(2))
    rhs = rng.choice([lhs, rhs])
    argv = _damaged_argv(_argv(command, contract_dir, lhs, rhs), how, rng, contract_dir)
    code, out, err = _run(argv)
    event(f"{how} exits {code}")
    _assert_contract(code, out, err, contract_dir / "pairs.txt" if "--batch" in argv else None)


SIG_DAMAGE = ("drop line", "repeat line", "garble line", "bad level", "bad matrix")
#: Garbling writes no digit, so no dimension grows
GARBLE = "()[]{},;:=*#?!x_ ->\t\u00e9"
BAD_ENTRIES = ("nan", "1e999", "-1e999i", "1 + nani", "x", "")


def _bad_matrix(literal: str, rng: Random) -> str:
    """``literal`` with one entry made bad, one row dropped or lengthened, or cut short."""

    how = rng.choice(["entry", "entry", "entry", "drop row", "long row", "cut"])
    if how == "cut":
        return literal[:rng.randrange(len(literal))]
    spot = rng.choice(list(re.finditer(r"[^][,\s][^][,]*" if how == "entry" else r"\[[^][]*\]",
                                       literal)))
    new = {"entry": rng.choice(BAD_ENTRIES), "drop row": "", "long row": spot[0][:-1] + ", 0]"}
    return literal[:spot.start()] + new[how] + literal[spot.end():]


def _mutated_lines(text: str, how: str, rng: Random) -> str:
    """``text`` with the line that ``rng`` picks dropped, repeated or garbled."""

    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if how == "drop line":
        del lines[i]
    elif how == "repeat line":
        lines.insert(i, lines[i])
    else:
        line, at = lines[i], rng.randint(0, len(lines[i]))
        lines[i] = rng.choice([line[:at], line[:at] + rng.choice(GARBLE) + line[at:],
                               line[:at] + rng.choice(GARBLE) + line[at + 1:],
                               line[:at] + line[at + 1:]])
    return "\n".join(lines)


def _mutated_signature(text: str, how: str, rng: Random, used: str) -> str:
    """``text`` with one line dropped, repeated or garbled, its category level
    changed, or one matrix literal made bad (of a morphism named in ``used``, if any)."""

    if how in ("bad level", "bad matrix"):
        lines = text.splitlines()
        prefix = "category " if how == "bad level" else rng.choice(["mat ", "mat ", "inv "])
        spots = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        i = rng.choice([i for i in spots if lines[i].split()[1] in used.split()] or spots)
        if how == "bad level":
            lines[i] = prefix + rng.choice(["", "frobenius", "symmetric braided", "Symmetric",
                                            "plain", "monoidal", "braided"])
        else:
            head, eq, literal = lines[i].partition("=")
            lines[i] = head + eq + _bad_matrix(literal, rng)
        return "\n".join(lines)
    return _mutated_lines(text, how, rng)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(SIG_DAMAGE), st.sampled_from(COMMANDS))
def test_cli_contract_on_mutated_signature(tmp_path_factory, seed, how, command):
    # signature texts with lines dropped, repeated or garbled, bad levels and bad
    # matrices; time budget: 3 s (the 200 examples take about 0.8 s on one Xeon core)
    rng = Random(seed)
    path = tmp_path_factory.getbasetemp() / "mutated"
    path.mkdir(exist_ok=True)
    good = print_expr(random_term(rng, CONTRACT_SIG, max_leaves=rng.randint(1, 5)))
    used = re.sub(r"\W", " ", good)
    (path / "sig.txt").write_text(_mutated_signature(CONTRACT_SIG_TEXT, how, rng, used),
                                  encoding="utf-8")
    code, out, err = _run(_argv(command, path, good, good))
    event(f"{how} exits {code}")
    _assert_contract(code, out, err, path / "pairs.txt" if command.startswith("batch") else None)
    assert code != 1  # every pair is a term and itself: whatever the signature, never unequal


#: Rules over the contract signature: "any" matches every chain element, and "loose"
#: leaves ?w unbound when it matches, which rewriting reports as an error
CONTRACT_RULES = """var ?x : A -> A
var ?w : A -> A
rule cancel : k ; inv(k) => id[A]
rule twice : ?x ; ?x => ?x
rule fg : f ; g => f ; g
rule idl : id[A] ; ?x => ?x
rule loose : u ; ?x => ?w
var ?y : ?a -> ?b
rule any : ?y => ?y
"""
RULE_NAMES = (None, "cancel", "twice", "fg", "idl", "loose", "any", "nosuch")
RULE_DAMAGE = ("none", "drop line", "repeat line", "garble line")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from(RULE_DAMAGE), st.sampled_from(RULE_NAMES))
def test_cli_contract_on_mutated_rules(contract_dir, seed, how, rule):
    # rule files with lines dropped, repeated or garbled, through rewrite --rules;
    # time budget: 3 s (the 200 examples take about 0.6 s on one Xeon core)
    rng = Random(seed)
    rules = contract_dir / "rules.txt"
    rules.write_text(CONTRACT_RULES if how == "none" else
                     _mutated_lines(CONTRACT_RULES, how, rng), encoding="utf-8")
    good = print_expr(random_term(rng, CONTRACT_SIG, max_leaves=rng.randint(1, 5)))
    argv = ["rewrite", "--sig", str(contract_dir / "sig.txt"), "--rules", str(rules),
            *(["--rule", rule] if rule is not None else []), good]
    code, out, err = _run(argv)
    event(f"{how} exits {code}")
    _assert_contract(code, out, err)
    assert code != 1  # rewriting has no verdict
    if how == "repeat line":  # a rule or var declared twice
        assert code == 2 and "declared" in err


# ---------------------------------------------------------------------------
# The REPL contract on random transcripts
# ---------------------------------------------------------------------------

#: ``MONOCAT_CONFIG`` contents for a transcript's renders: none, good, and bad ones
REPL_CONFIGS = (None, b"unit = 40\n", b"unit = big\n", b"# \xff\n", b"hgap = inf\n", "missing")
REPL_ATOMS = ("u", "k", "inv(k)", "f", "g", "id[A]", '"u ; u"', "(u", "nosuch")


def _repl_line(kind: str, rng: Random, path: Path) -> str:
    """A REPL line of ``kind``, its operands drawn from ``rng``: good ones, and
    damaged terms, unknown names, missing or binary files and unclosed quotes."""

    if kind == "load":
        text = rng.choice(["u ; (u ; (u ; u))", "u ; k ; inv(k) ; u", print_expr(
            random_term(rng, CONTRACT_SIG, max_leaves=rng.randint(1, 6)))])
        damaged = _damaged(text, rng.choice(DAMAGE), rng.random())
        return f"load {damaged if rng.random() < 0.4 else text}"
    if kind == "apply":
        return f"apply {rng.choice(['foliate', 'weak_foliate', 'cancel_isos', 'cat_simpl', 'x'])}"
    if kind == "partner":
        return "partner " + rng.choice(["u u", "k inv(k)", " ".join(
            rng.sample(REPL_ATOMS, rng.choice((1, 2, 2, 3))))])
    if kind == "rw":
        rules = rng.choice(["repl.rules"] * 4 + ["binary.rules", "missing.rules"])
        quote = rng.choice(['', '', '', '"'])
        return f"rw {quote}{path / rules} {rng.choice(RULE_NAMES[1:])}"
    if kind == "render":
        return rng.choice([f"render {path / 'repl.svg'}", "render", f"render {path}"])
    return rng.choice({"blank": ["", "  "], "unknown": ["frobnicate", "Load u"]}.get(kind, [kind]))


REPL_KINDS = ("load", "load", "apply", "partner", "rw", "undo", "render", "show", "normalize",
              "blank", "unknown")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 16), st.lists(st.sampled_from(REPL_KINDS), max_size=16),
       st.sampled_from(REPL_CONFIGS))
def test_repl_contract_on_random_transcripts(contract_dir, seed, kinds, config):
    # transcripts of load, apply, partner, rw, undo and render lines, good and damaged;
    # time budget: 3 s (the 300 examples take about 0.7 s on one shared vCPU)
    (contract_dir / "repl.rules").write_text(CONTRACT_RULES, encoding="utf-8")
    (contract_dir / "binary.rules").write_bytes(b"\xff\xfe" + CONTRACT_RULES.encode())
    cfg = contract_dir / ("repl.cfg" if config != "missing" else "missing.cfg")
    if config not in (None, "missing"):
        cfg.write_bytes(config)
    state = ReplState(sig=CONTRACT_SIG)
    with pytest.MonkeyPatch.context() as mp:
        if config is None:
            mp.delenv("MONOCAT_CONFIG", raising=False)
        else:
            mp.setenv("MONOCAT_CONFIG", str(cfg))
        rng = Random(seed)
        for i, kind in enumerate(["load", *kinds]):  # first a term partner and rw can act on
            line = _repl_line(kind, rng, contract_dir) if i else "load u ; u ; (u ; k ; inv(k))"
            term, stack = state.term, list(state.undo_stack)
            out = io.StringIO()
            with redirect_stdout(out):
                repl_step(state, line)  # nothing escapes it
            said = out.getvalue().splitlines()
            errors = [s for s in said if s.startswith("error:")]
            event(f"{kind} {'errs' if errors else 'runs'}")
            assert "Traceback" not in out.getvalue()
            for t in filter(None, (state.term, *state.undo_stack)):
                typecheck(t, CONTRACT_SIG)
            if errors or kind == "unknown":
                assert said == errors and len(errors) == 1, (line, said)
                assert state.term is term and state.undo_stack == stack, line
            elif kind == "load":
                assert state.undo_stack == [], line
            elif kind in ("apply", "partner", "rw"):
                assert state.undo_stack == [*stack, term], line
            elif kind == "undo":  # restores the term before the last step
                assert state.term is stack[-1] and state.undo_stack == stack[:-1], line
            else:
                assert state.term is term and state.undo_stack == stack, line
