"""SHA-256 digests over monocat's observable outputs, for checking that a
refactor changed none of them.

Run from the root of a checkout::

    PYTHONPATH=src python tests/output_digest.py

It prints two lines, ``full <digest>`` and ``scalar-free <digest>``.

It hashes, for every request of the benchmark's ``prove`` pools of seeds
1-3 (built by ``perfbench/gen.py``), each parsed side's ``print_expr``
text, normal-form dump and ``foliate``/``weak_foliate``/``cancel_isos``/
``cat_simpl`` texts; each render request's SVG and TikZ; each pair's
``monoidal_eq`` and ``cat_easy`` verdicts (with the trace); and each
rule's rewrite.  Then it hashes the same term outputs, SVG and TikZ
included, for 2,000 seeded ``gen.random_term``s over the standard
signature, whose ``s : I -> A`` and ``e : A -> I`` give scalar boxes.
The pools' deep-chain probe is left out: it is about depth, not output.
The scalar-free digest hashes the same texts, leaving out every random
term whose sheet holds a box without inputs; the ``prove`` pools have none.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path
from random import Random

import monocat as m
from monocat.coherence import BoxSlot

import gen as testgen  # tests/gen.py: the script's own directory is on sys.path


def _load(path: Path):
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfgen = _load(Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")


def _term_outputs(term: m.MorExpr, sig: m.Signature):
    yield m.print_expr(term)
    yield m.dump_normal_form(m.canonicalize(m.sheet_of_term(term, sig)))
    for tactic in (m.foliate, m.weak_foliate, m.cancel_isos, m.cat_simpl):
        yield m.print_expr(tactic(term, sig))


def _render_outputs(term: m.MorExpr, sig: m.Signature):
    root = m.layout(term, sig)
    yield m.emit_svg(root)
    yield m.emit_tikz(root)


def _pair_outputs(lhs: m.MorExpr, rhs: m.MorExpr, sig: m.Signature):
    verdict = m.monoidal_eq(lhs, rhs, sig)
    yield type(verdict).__name__
    easy = m.cat_easy(lhs, rhs, sig)
    yield type(easy).__name__
    for step in easy.trace:
        yield f"{step.tactic}: {step.term}"


def prove_outputs(seed: int):
    pool = perfgen.prove_pool(seed)
    sig = m.parse_signature(pool["sig"])
    rules = m.parse_rules(pool["rules"], sig)
    for req in pool["requests"]:
        yield req["id"]
        sides = [m.parse_expr(req[k], sig) for k in ("lhs", "rhs", "expr") if k in req]
        for term in sides:
            yield from _term_outputs(term, sig)
        if req["kind"].startswith("render_"):
            yield from _render_outputs(sides[0], sig)
        if len(sides) == 2:
            yield from _pair_outputs(*sides, sig)
        if "rule" in req:
            yield m.print_expr(m.assoc_rw(sides[0], rules.rule(req["rule"]), sig))


def _has_scalar(term: m.MorExpr, sig: m.Signature) -> bool:
    return any(isinstance(slot, BoxSlot) and not slot.ins
               for layer in m.sheet_of_term(term, sig).layers for slot in layer)


def random_outputs(count: int):
    """Each random term's outputs, and whether its sheet holds a scalar box."""

    sig = testgen.std_sig()
    for i in range(count):
        rng = Random(i)
        term = testgen.random_term(rng, sig, max_leaves=rng.randint(1, 12))
        yield [*_term_outputs(term, sig), *_render_outputs(term, sig)], _has_scalar(term, sig)


def digests() -> tuple[str, str]:
    """The full and the scalar-free digest."""

    full, scalar_free = hashlib.sha256(), hashlib.sha256()
    for seed in (1, 2, 3):
        for text in prove_outputs(seed):
            full.update(text.encode() + b"\0")
            scalar_free.update(text.encode() + b"\0")
    for texts, scalar in random_outputs(2000):
        for text in texts:
            full.update(text.encode() + b"\0")
            if not scalar:
                scalar_free.update(text.encode() + b"\0")
    return full.hexdigest(), scalar_free.hexdigest()


if __name__ == "__main__":
    full, scalar_free = digests()
    print(f"full {full}\nscalar-free {scalar_free}")
