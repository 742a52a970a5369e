"""Tests of the benchmark's input generator (``gen.py``).

    PYTHONPATH=src python3 perfbench/selftest.py      # or: python -m pytest perfbench/selftest.py

Checks that atom counts are exact, that every input typechecks, that every
known-equal pair agrees in both semantic backends and every known-unequal
pair differs in both, at small sizes built by the same code as the
benchmark's inputs.  The file name keeps it out of the repository's default
test collection.
"""

from __future__ import annotations

import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import monocat as mc  # noqa: E402
import worker  # noqa: E402

EQUAL = {"equal", "equal_or_undecided", "proved"}
UNEQUAL = {"not_equal", "not_proved"}


def _texts(req: dict) -> list[str]:
    if "expr" in req:
        return [req["expr"]]
    if "argv" in req:
        return [a for a in req["argv"] if " " in a and not a.endswith(".txt")]
    return [req["lhs"], req["rhs"]]


def _atoms(text: str, sig) -> int:
    term = mc.parse_expr(text, sig)
    mc.typecheck(term, sig)
    return len(mc.structural_atoms(term))


def _small_pairs(seed: int):
    """Small instances of every pair shape, with a signature carrying backends."""

    rng = Random(seed)
    sym = mc.parse_signature(gen.symbolic_sig_with_backends(rng))
    ora = mc.parse_signature(gen.oracle_sig(rng))
    pairs = []
    for law in ("interchange", "normal", "naturality", "swap"):
        for k in (2, 3, 4):
            pairs.append((sym, gen.staircase_pair(rng, k, law)))
    for n in (12, 20):
        pairs.append((sym, gen.inverse_pair_chain(rng, n, swap=False)))
        pairs.append((sym, gen.inverse_pair_chain(rng, n, swap=True)))
    pairs.append((sym, gen.deep_pair(rng, 12)))
    for law in ("interchange", "symmetry", "naturality", "swap"):
        for b_wires in (0, 1, 2):
            left, right = gen._halves(rng, 4, b_wires)
            pairs.append((ora, gen.oracle_pair(rng, left, right, law, "matrix")))
    return pairs


def test_pools_typecheck_with_exact_atom_counts():
    for name, build in gen.POOLS.items():
        pool = build(7)
        sig = mc.parse_signature(pool["sig"])
        if "rules" in pool:
            mc.parse_rules(pool["rules"], sig)
        for req in pool["requests"] + pool.get("probe", []):
            if req.get("shape", "").startswith("deep"):
                lhs_atoms = len(req["lhs"].split(" ; "))
                rhs_atoms = len(req["rhs"].replace("(", "").replace(")", "").split(" ; "))
                assert lhs_atoms + rhs_atoms == req["atoms"], req["id"]
                continue
            counted = sum(_atoms(t, sig) for t in _texts(req))
            if "atoms" in req:
                assert counted == req["atoms"], (req["id"], counted, req["atoms"])


def test_small_pairs_have_exact_atom_counts():
    for sig, req in _small_pairs(1):
        assert _atoms(req["lhs"], sig) + _atoms(req["rhs"], sig) == req["atoms"], req["shape"]


def test_known_answers_hold_in_both_backends():
    for seed in (1, 2, 3):
        for sig, req in _small_pairs(seed):
            minst, rinst = mc.matrix_instance(sig), mc.rel_instance(sig)
            t1, t2 = mc.parse_expr(req["lhs"], sig), mc.parse_expr(req["rhs"], sig)
            same_matrix = mc.mat_equiv(mc.eval_matrix(t1, minst), mc.eval_matrix(t2, minst),
                                       minst.tolerance)
            same_rel = mc.eval_rel(t1, rinst) == mc.eval_rel(t2, rinst)
            if req["expect"] in EQUAL:
                assert same_matrix and same_rel, req
            else:
                assert req["expect"] in UNEQUAL
                assert not same_matrix and not same_rel, req


def test_expected_outputs_match_small_library_calls():
    rng = Random(5)
    sig = mc.parse_signature(gen.SYMBOLIC_SIG)
    rules = mc.parse_rules(gen.RULES, sig)
    for n in (3, 8):
        req = gen.plain_chain(rng, n, "foliate")
        assert mc.print_expr(mc.foliate(mc.parse_expr(req["expr"], sig), sig)) == req["expect"]
        req = gen.plain_chain(rng, n, "cancel_isos")
        assert mc.print_expr(mc.cancel_isos(mc.parse_expr(req["expr"], sig), sig)) == req["expect"]
    for rule in gen.RULE_LHS:
        req = gen.rewrite_chain(rng, 12, rule)
        term = mc.parse_expr(req["expr"], sig)
        assert mc.print_expr(mc.assoc_rw(term, rules.rule(rule), sig)) == req["expect"]
    for fmt, emit in (("svg", mc.emit_svg), ("tikz", mc.emit_tikz)):
        req = gen.render_term(rng, 9, fmt, rows=2)
        text = emit(mc.layout(mc.parse_expr(req["expr"], sig), sig))
        worker.check_render(fmt, text, req["expect"])


def test_pools_depend_only_on_the_seed():
    for build in gen.POOLS.values():
        assert build(3) == build(3)
        assert build(3)["requests"] != build(4)["requests"]


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
