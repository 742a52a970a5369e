"""One workload run in a fresh interpreter, started by ``run.py``.

The worker imports monocat from the checkout, does the workload's set-up,
prints ``ready`` (the runner times set-up up to that line), then sends the
pool's requests one at a time (a closed loop with one client) in passes
until ``--seconds`` have elapsed, always finishing the first pass.  Every
result is checked against the answer its input was built with, outside the
timed region.  Results go to ``result.json`` in the run directory.

Usage (normally only through run.py):
    python worker.py --workload prove|oracle|cli --run-dir DIR --seconds S
                     [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

from speed import matrix_speed, python_speed, run_child

HERE = Path(__file__).resolve().parent

CLI_MAIN = "import sys; from monocat.cli import main; main()"


class Contradiction(Exception):
    """A result contradicts the answer its input was built with."""


# ---------------------------------------------------------------------------
# In-process requests: each starts from text and returns the raw result
# ---------------------------------------------------------------------------


def _parse(ctx, text):
    return ctx.m.parse_expr(text, ctx.sig)


def _monoidal_eq(ctx, r):
    return ctx.m.monoidal_eq(_parse(ctx, r["lhs"]), _parse(ctx, r["rhs"]), ctx.sig)


def _cat_easy(ctx, r):
    return ctx.m.cat_easy(_parse(ctx, r["lhs"]), _parse(ctx, r["rhs"]), ctx.sig)


def _foliate(ctx, r):
    return ctx.m.print_expr(ctx.m.foliate(_parse(ctx, r["expr"]), ctx.sig))


def _cancel_isos(ctx, r):
    return ctx.m.print_expr(ctx.m.cancel_isos(_parse(ctx, r["expr"]), ctx.sig))


def _assoc_rw(ctx, r):
    rules = ctx.m.parse_rules(ctx.rules_text, ctx.sig)
    term = _parse(ctx, r["expr"])
    return ctx.m.print_expr(ctx.m.assoc_rw(term, rules.rule(r["rule"]), ctx.sig))


def _render_svg(ctx, r):
    return ctx.m.emit_svg(ctx.m.layout(_parse(ctx, r["expr"]), ctx.sig))


def _render_tikz(ctx, r):
    return ctx.m.emit_tikz(ctx.m.layout(_parse(ctx, r["expr"]), ctx.sig))


def _matrix(ctx, r):
    m1 = ctx.m.eval_matrix(_parse(ctx, r["lhs"]), ctx.minst)
    m2 = ctx.m.eval_matrix(_parse(ctx, r["rhs"]), ctx.minst)
    return ctx.m.mat_equiv(m1, m2, ctx.minst.tolerance)


def _rel(ctx, r):
    return ctx.m.eval_rel(_parse(ctx, r["lhs"]), ctx.rinst) == \
        ctx.m.eval_rel(_parse(ctx, r["rhs"]), ctx.rinst)


EXECUTORS = {
    "monoidal_eq": _monoidal_eq, "cat_easy": _cat_easy, "foliate": _foliate,
    "cancel_isos": _cancel_isos, "assoc_rw": _assoc_rw, "render_svg": _render_svg,
    "render_tikz": _render_tikz, "matrix": _matrix, "rel": _rel,
}


def check(ctx, r, result) -> None:
    """Raise :class:`Contradiction` unless ``result`` is ``r``'s known answer."""

    kind, expect = r["kind"], r["expect"]
    if kind == "monoidal_eq":
        equal = isinstance(result, ctx.m.Equal)
        if not equal and not isinstance(result, ctx.m.NotDecided):
            raise Contradiction(f"verdict {type(result).__name__}")
        if (expect == "equal" and not equal) or (expect == "not_equal" and equal):
            raise Contradiction(f"{type(result).__name__}, expected {expect}")
    elif kind == "cat_easy":
        proved = isinstance(result, ctx.m.Proved)
        if proved != (expect == "proved"):
            raise Contradiction(f"{type(result).__name__}, expected {expect}")
    elif kind in ("matrix", "rel"):
        if result is not (expect == "equal"):
            raise Contradiction(f"{kind} backend says equal={result}, expected {expect}")
    elif kind.startswith("render_"):
        check_render(kind[7:], result, expect)
    elif result != expect:
        raise Contradiction(f"output {result[:80]!r}... differs from the expected text")


def check_render(fmt: str, text: str, expect: dict) -> None:
    """One group box per composite node and one label per generator atom."""

    if fmt == "svg":
        groups = text.count('<rect class="group"')
        label = lambda name: text.count(f'font-size="12.00" text-anchor="middle" '
                                        f'dominant-baseline="middle">{name}</text>')
    else:
        groups = text.count(r"\draw[densely dashed, gray]")
        label = lambda name: text.count(f"{{{name}}};")
    if groups != expect["groups"]:
        raise Contradiction(f"{groups} group boxes, expected {expect['groups']}")
    for name, count in expect["labels"].items():
        if label(name) != count:
            raise Contradiction(f"{label(name)} labels {name!r}, expected {count}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Context:
    """What a request needs: the monocat package, signature and backends."""

    def __init__(self, workload: str, run_dir: Path):
        import monocat

        self.m = monocat
        self.sig = monocat.parse_signature((run_dir / "sig.txt").read_text())
        self.rules_text = None
        if workload == "prove":
            self.rules_text = (run_dir / "rules.txt").read_text()
            monocat.parse_rules(self.rules_text, self.sig)
        elif workload == "oracle":
            self.minst = monocat.matrix_instance(self.sig)
            self.rinst = monocat.rel_instance(self.sig)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Outcomes:
    """Every request of one run: when it started, its wall time, whether it
    was right, and exceptions by type."""

    def __init__(self, n: int):
        self.n = n
        self.records: list[tuple[int, float, float, bool]] = []
        self.errors: dict[str, int] = {}
        self.contradictions: dict[str, str] = {}

    def add(self, i: int, rid: str, t0: float, seconds: float,
            error: BaseException | None, contradiction: str | None) -> None:
        self.records.append((i, t0, seconds, error is None and contradiction is None))
        if error is not None:
            name = type(error).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        elif contradiction is not None:
            self.contradictions.setdefault(rid, contradiction)

    def total(self, speed) -> float:
        return sum(s * speed.factor(t0) for _, t0, s, _ in self.records)

    def summary(self, speed) -> dict:
        """Per request of the pool, over its passes: the median time (scaled
        by ``speed`` and raw), the median latency, where a failed or wrong
        attempt is infinitely slow, and the share of attempts that were ok.
        Summarising per request keeps a partly done last pass from shifting
        the mix of requests the metrics are taken over."""

        inf = float("inf")
        out: dict = {name: [[] for _ in range(self.n)] for name in
                     ("item_time_s", "raw_item_time_s", "item_latency_s", "raw_item_latency_s",
                      "item_ok_share")}
        for i, t0, seconds, ok in self.records:
            scaled = seconds * speed.factor(t0)
            out["item_time_s"][i].append(scaled)
            out["raw_item_time_s"][i].append(seconds)
            out["item_latency_s"][i].append(scaled if ok else inf)
            out["raw_item_latency_s"][i].append(seconds if ok else inf)
            out["item_ok_share"][i].append(1.0 if ok else 0.0)
        samples = sorted({len(xs) for xs in out["item_time_s"]})
        for name, lists in out.items():
            reduce = (lambda xs: sum(xs) / len(xs)) if name == "item_ok_share" else _median
            out[name] = [reduce(xs) for xs in lists]
        out.update({"attempted": len(self.records), "ok": sum(r[3] for r in self.records),
                    "samples_per_item": samples,
                    "errors": self.errors,
                    "contradictions": [f"{rid}: {why}"
                                       for rid, why in self.contradictions.items()]})
        return out


def _median(xs: list[float]) -> float:
    ys = sorted(xs)
    n = len(ys)
    if n == 0:
        return float("nan")
    return ys[n // 2] if n % 2 else (ys[n // 2 - 1] + ys[n // 2]) / 2


def run_passes(pool: list, one, seconds: float, speed, whole: bool = False,
               max_passes: int | None = None) -> tuple[Outcomes, int]:
    """Send ``pool`` in passes until ``seconds`` have elapsed, always
    finishing the first pass; with ``whole``, only whole passes.

    ``one(request)`` performs and times one request and returns
    (start, seconds, error, contradiction).  The speed kernel is sampled
    between requests, outside their timing."""

    out = Outcomes(len(pool))
    deadline = time.perf_counter() + seconds
    passes = 0
    while max_passes is None or passes < max_passes:
        pass_start = time.perf_counter()
        for i, req in enumerate(pool):
            if passes and not whole and time.perf_counter() >= deadline:
                return out, passes
            speed.tick()
            out.add(i, req["id"], *one(req))
        passes += 1
        now = time.perf_counter()
        if now >= deadline or (whole and now + (now - pass_start) > deadline):
            break
    speed.tick()
    return out, passes


def library_one(ctx, tracer=None):
    def one(req):
        fn = EXECUTORS[req["kind"]]
        error = result = None
        if tracer is not None:
            tracer.begin_request(req["id"])
        t0 = time.perf_counter()
        try:
            result = fn(ctx, req)
        except Exception as exc:  # counted by type
            error = exc
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_request()
        contradiction = None
        if error is None:
            try:
                check(ctx, req, result)
            except Contradiction as exc:
                contradiction = str(exc)
        return t0, seconds, error, contradiction
    return one


def run_probe(probe: list, one, speed) -> dict:
    """Send each probe request once, after the timed loop and outside every
    metric: how many were right, exceptions by type, and contradictions."""

    out, _ = run_passes(probe, one, 0.0, speed, max_passes=1)
    return {"attempted": len(out.records), "ok": sum(r[3] for r in out.records),
            "errors": out.errors,
            "contradictions": [f"{rid}: {why}" for rid, why in out.contradictions.items()]}


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------


def cli_expectations(ctx, pool: list) -> None:
    """Fill in the outputs of normalize, foliate and render from the same
    library calls made in-process: this checks the CLI plumbing only."""

    m = ctx.m
    for req in pool:
        exp = req["expect"]
        if "library" not in exp:
            continue
        argv = req["argv"]
        term = m.parse_expr(argv[-1], ctx.sig)
        if exp["library"] == "normalize":
            nf = m.canonicalize(m.sheet_of_term(term, ctx.sig))
            exp["stdout"] = m.dump_normal_form(nf) + "\n"
        elif exp["library"] == "foliate":
            fol = m.weak_foliate if "--weak" in argv else m.foliate
            exp["stdout"] = m.print_expr(fol(term, ctx.sig)) + "\n"
        else:
            node = m.layout(term, ctx.sig, m.RenderConfig())
            fmt = argv[argv.index("--format") + 1]
            exp["file"] = m.emit_svg(node) if fmt == "svg" else m.emit_tikz(node)


def check_cli(req, code: int, stdout: str, run_dir: Path) -> str | None:
    exp = req["expect"]
    if code != exp["exit"]:
        return f"exit code {code}, expected {exp['exit']}"
    if "stdout" in exp and stdout != exp["stdout"]:
        return f"stdout {stdout[:80]!r} differs from the library's"
    if "lines" in exp:
        got = [line[1:line.index("]")] for line in stdout.splitlines() if line.startswith("[")]
        if got != exp["lines"]:
            return f"batch statuses {got[:8]}... differ from the known answers"
    if "file" in exp:
        out = run_dir / exp["out"]
        if not out.exists() or out.read_text(encoding="utf-8") != exp["file"]:
            return f"{exp['out']} differs from the library's output"
    return None


class CliChildren:
    """Runs invocations one at a time through ``spawn.py`` and keeps the
    largest child's peak RSS, as ``getrusage(RUSAGE_CHILDREN)`` of that
    small process reports it."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.peak_rss_kb = 0
        self.spawner = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py")],
                                        cwd=run_dir, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def __call__(self, req):
        out = req["expect"].get("out")
        if out:
            (self.run_dir / out).unlink(missing_ok=True)
        t0 = time.perf_counter()
        argv = [sys.executable, "-c", CLI_MAIN, *req["argv"]]
        self.spawner.stdin.write(json.dumps({"argv": argv, "stdout": "stdout.txt"}) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        text = (self.run_dir / "stdout.txt").read_text(encoding="utf-8")
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        return t0, reply["seconds"], None, check_cli(req, reply["exit"], text, self.run_dir)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)


def replay_one(run_dir: Path, tracer=None):
    """Replay an invocation's argv in-process through ``monocat.cli.run``."""

    from monocat import cli

    def one(req):
        out = req["expect"].get("out")
        if out:
            (run_dir / out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_request(req["id"])
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(list(req["argv"]))
        seconds = time.perf_counter() - t0
        text = stdout.getvalue()
        if tracer is not None:
            tracer.end_request()
            if "lines" in req["expect"]:
                tracer.add("cli.batch_pairs", sum(1 for l in text.splitlines()
                                                  if l.startswith("[")))
        return t0, seconds, None, check_cli(req, code, text, run_dir)
    return one


# ---------------------------------------------------------------------------
# Child-process probes for the cli layer
# ---------------------------------------------------------------------------


def _child_seconds(argv: list[str], cwd: Path) -> tuple[float, str]:
    with open(cwd / "stderr.txt", "w+", encoding="utf-8") as stderr:
        seconds, code, _ = run_child(argv, cwd, stderr=stderr)
        stderr.seek(0)
        err = stderr.read()
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code}: {err[-400:]}")
    return seconds, err


def cli_probes(run_dir: Path, repeats: int = 5) -> dict[str, float]:
    """Interpreter start (``python -c pass``) and the import of monocat.cli
    and numpy as ``-X importtime`` reports them; medians of ``repeats``."""

    interp, imp, numpy = [], [], []
    for _ in range(repeats):
        interp.append(_child_seconds([sys.executable, "-c", "pass"], run_dir)[0])
        _, err = _child_seconds([sys.executable, "-X", "importtime", "-c", "import monocat.cli"],
                                run_dir)
        cumulative = {}
        for line in err.splitlines():
            found = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)", line)
            if found and found.group(3) not in cumulative:
                cumulative[found.group(3)] = int(found.group(1)) / 1e6
        imp.append(cumulative.get("monocat", 0.0) + cumulative.get("monocat.cli", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_s": _median(interp), "cli.import_s": _median(imp),
            "cli.import.numpy_s": _median(numpy)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["prove", "oracle", "cli"])
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    run_dir = Path(args.run_dir)

    tracer = None
    if args.trace:
        import monocat.cli  # noqa: F401  (the wrappers rebind names in every module)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_request("setup")
    ctx = Context(args.workload, run_dir)
    if tracer is not None:
        tracer.end_request()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    inputs = json.loads((run_dir / "pool.json").read_text())
    pool = inputs["requests"]
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result: dict = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                    "blas": f"{blas.get('name')} {blas.get('version')}",
                    "recursion_limit": sys.getrecursionlimit()}
    if args.workload == "cli":
        cli_expectations(ctx, pool)
    if args.workload == "oracle":
        speed = matrix_speed()
    else:
        speed = python_speed()
    # the pool and everything imported so far live for the whole run: keep the
    # cyclic collector from rescanning them, so requests pay only for their own
    gc.collect()
    gc.freeze()
    if tracer is None:
        one = CliChildren(run_dir) if args.workload == "cli" else library_one(ctx)
        try:
            outcomes, passes = run_passes(pool, one, args.seconds, speed)
        finally:
            if args.workload == "cli":
                one.close()
        peak_kb = (one.peak_rss_kb if args.workload == "cli"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result["peak_rss_mb"] = peak_kb / 1024.0
        if inputs["probe"]:
            result["probe"] = run_probe(inputs["probe"], library_one(ctx), speed)
    else:
        if args.workload == "cli":
            plain, traced = replay_one(run_dir), replay_one(run_dir, tracer)
        else:
            plain, traced = library_one(ctx), library_one(ctx, tracer)
        # one untraced pass first: it warms up and gives the tracing overhead
        tracer.uninstall()
        started = time.perf_counter()
        base, _ = run_passes(pool, plain, 0.0, speed, max_passes=1)
        tracer.install()
        remaining = max(args.seconds - (time.perf_counter() - started), 0.0)
        outcomes, passes = run_passes(pool, traced, remaining, speed, whole=True)
        tracer.uninstall()
        result["trace"] = tracer.report(passes, base.total(speed),
                                        outcomes.total(speed) / passes)
        result["trace"]["metrics"].update(cli_probes(run_dir))
        tracer.write(run_dir / "spans.json.gz")
    result.update(outcomes.summary(speed))
    result["contradictions"] += result.get("probe", {}).get("contradictions", [])
    result["passes"] = passes
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
