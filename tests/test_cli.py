"""Command-line surface: exit codes, output format, REPL stepping."""

from pathlib import Path

import pytest

from monocat.cli import ReplState, repl_step, run
from monocat.parser import parse_expr, parse_signature, print_expr

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


def test_check_usage_and_input_errors(sig_path, capsys):
    assert run(["check", "--sig", sig_path, "--method", "monoidal", "f"]) == 2
    assert run(["check", "--sig", sig_path, "--method", "monoidal",
                "f ; nosuch", "f"]) == 2
    assert run(["check", "--sig", "/nonexistent/sig", "--method", "monoidal",
                "f", "f"]) == 2
    capsys.readouterr()


def test_usage_error_exit_2():
    assert run(["check"]) == 2       # missing required args
    assert run(["frobnicate"]) == 2  # unknown subcommand


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
    batch = tmp_path / "pairs.txt"
    batch.write_text("u == u\nu ; nosuch == u\nu ; k == u\n", encoding="utf-8")
    assert run(["check", "--sig", sig_path, "--method", "matrix", "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nosuch" in captured.err
    # an empty batch needs no backend block
    bare = tmp_path / "bare.txt"
    bare.write_text("category symmetric\nobject A\nmor u : A -> A\n", encoding="utf-8")
    batch.write_text("# nothing to check\n", encoding="utf-8")
    for method in ("matrix", "rel"):
        assert run(["check", "--sig", str(bare), "--method", method,
                    "--batch", str(batch)]) == 0
    assert capsys.readouterr().out == ""


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
    assert repl.term == parse_expr("(u ; u) ; u ; u", repl.sig) or repl.term is not None
    repl_step(repl, "normalize")
    out = capsys.readouterr().out
    assert "layers=" in out


def test_repl_rw(repl, tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("rule cancel : k ; inv(k) => id[A]\n", encoding="utf-8")
    repl_step(repl, "load u ; k ; inv(k)")
    repl_step(repl, f"rw {rules} cancel")
    assert print_expr(repl.term) == "u ; id[A]"
    capsys.readouterr()


def test_repl_quit_and_transcript(repl, capsys):
    repl_step(repl, "load f")
    repl_step(repl, "quit")
    assert repl.done
    assert any(line.startswith("> load") for line in repl.transcript)
    capsys.readouterr()
