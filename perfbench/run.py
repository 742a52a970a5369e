"""Benchmark for monocat: workloads ``prove``, ``oracle`` and ``cli``.

    python3 perfbench/run.py --workload prove|oracle|cli --seed N --seconds S --trace 0|1

Run from the root of a monocat checkout; monocat is imported from its
``src/`` directory, nothing is installed.  The runner builds the seeded
inputs (``gen.py``), starts a fresh worker interpreter with a pinned
environment (``worker.py``), checks that every result matches the answer
its input was built with, and prints a metadata line and then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, from a separate run that
wraps monocat's public functions in spans (``spans.py``).

Workloads are closed loops with one client.  Each sends a fixed pool of
requests in passes until ``--seconds`` have elapsed (the first pass always
completes).  Every metric is taken per request of the pool first (median
time over its passes, share of its attempts that were ok), then over the
pool, so neither a partly done last pass nor a faster program changes the
sample count or the tail percentile:

- ``ok_per_s``: summed ok shares over summed per-request median times;
- ``latency_p50_ms``, ``latency_tail_ms``: percentiles of per-request median
  latencies (trimmed Harrell-Davis estimates, see :func:`percentile`); the tail is the highest of 99.9/99/95/90/75 with at least 10
  requests beyond it (p90 for all three pools).  A failed or wrong attempt
  is infinitely slow; JSON cannot carry infinity, so it reads 1e9 ms;
- ``ok_share``: mean of the per-request ok shares;
- ``peak_rss_mb``: the worker's peak RSS (``cli``: the largest child's);
- ``setup_s``: median over several fresh interpreters of the time until
  the first request could be sent (``cli``: ``python -c "import monocat.cli"``).

The workloads are chosen so that every request succeeds.  ``prove`` also
sends a probe of 1200-2000-element chains once, after the timed loop and
outside every metric: they end in RecursionError today.  The metadata line
reports the probe as ``deep_chain_probe``; a wrong answer there still fails
the run.

Wall times are scaled by a reference task timed next to them, because the
machine's speed drifts far more than the spread this benchmark must keep;
see speed.py.  The raw figures are in the metadata line (``raw_metrics``).

Exit codes: 0 when every result matches its known answer, 1 when one
contradicts it (the offending requests are named on stderr), 2 when the
benchmark cannot run.  Scratch files go to ``.perfbench_run/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from speed import process_speed, run_child  # noqa: E402

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Candidate tail percentiles; the highest with at least 10 requests beyond it is used.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
INFINITE_MS = 1e9
#: Every process a run starts must be done by then.
TIME_LIMIT_S = 170.0
#: One BLAS thread: with two, a 512x512 complex product took 11 ms or 40 ms
#: from run to run.  A fixed malloc mmap threshold: the default one moves
#: with the history of frees, which made peak RSS differ between runs.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "1048576"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "MONOCAT_CONFIG"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values: list[float], q: float) -> float:
    """Trimmed Harrell-Davis estimate of the ``q``-th percentile.

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    density, p = q/100, restricted to its highest-density interval of width
    1/sqrt(n) (A. Akinshin, "Trimmed Harrell-Davis quantile estimator based
    on the highest density interval of the given width", 2022).  One or two
    order statistics jitter with every request's timing noise; averaging the
    dozen ranks around the percentile gave p50 a run-to-run spread about 40%
    smaller on ``prove``.  An infinite value inside the interval makes the
    estimate infinite.
    """

    xs = sorted(values)
    n = len(xs)
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_c = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(log_c + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    width = min(1.0, 1.0 / math.sqrt(n))
    mode = (a - 1) / (a + b - 2)
    lo, hi = max(0.0, mode - width), min(mode, 1.0 - width)
    for _ in range(60):  # the interval's ends have equal density
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if pdf(mid) < pdf(mid + width) else (lo, mid)
    left, right = lo, lo + width
    total = weighted = 0.0
    for i in range(int(left * n), min(n, math.ceil(right * n))):
        x0, x1 = max(i / n, left), min((i + 1) / n, right)
        step = (x1 - x0) / 16
        w = sum(pdf(x0 + (j + 0.5) * step) for j in range(16)) * step
        if w > 0.0:
            total += w
            weighted += w * xs[i]
    return weighted / total


def tail_percentile(n: int) -> float:
    # 100 - q, not 1 - q/100: 100 * (1 - 0.9) is just below 10 in binary floating point
    return next(q for q in TAIL_GRID if n * (100.0 - q) >= 1000.0 or q == TAIL_GRID[-1])


def write_inputs(workload: str, seed: int, run_dir: Path) -> dict:
    pool = gen.POOLS[workload](seed)
    (run_dir / "sig.txt").write_text(pool["sig"], encoding="utf-8")
    if "rules" in pool:
        (run_dir / "rules.txt").write_text(pool["rules"], encoding="utf-8")
    for req in pool["requests"]:
        for name, text in req.pop("files", {}).items():
            (run_dir / name).write_text(text, encoding="utf-8")
    (run_dir / "pool.json").write_text(
        json.dumps({"requests": pool["requests"], "probe": pool.get("probe", [])}),
        encoding="utf-8")
    return pool


def kill(proc: subprocess.Popen) -> None:
    """Stop a worker and every child it started (they share its session)."""

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def timed_ready(argv: list[str], run_dir: Path, env: dict, deadline: float):
    """Start ``argv`` and return (process, seconds until it printed ``ready``)."""

    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        kill(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        kill(proc)
        raise RuntimeError("set-up ran past the time limit")
    return proc, seconds


def measure_setup(args, run_dir: Path, env: dict, worker: list[str], deadline: float):
    """Median wall time for a fresh interpreter to get ready, over several,
    each scaled by the reference process starts around it (see speed.py)."""

    speed = process_speed(env, run_dir)
    reference = [speed.kernel()]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        if args.workload == "cli":
            seconds, code, _ = run_child([sys.executable, "-c", "import monocat.cli"], run_dir, env)
            if code != 0:
                raise RuntimeError(f"importing monocat.cli exited with {code}")
        else:
            proc, seconds = timed_ready(worker + ["--setup-only"], run_dir, env, deadline)
            proc.communicate(timeout=60)
        reference.append(speed.kernel())
        raw.append(seconds)
        scaled.append(seconds * speed.nominal_s * 2 / (reference[-2] + reference[-1]))
    return sorted(scaled)[len(scaled) // 2], sorted(raw)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(result: dict, setup_s: float, raw: bool = False) -> dict[str, float]:
    prefix = "raw_" if raw else ""
    latency = result[prefix + "item_latency_s"]
    ok = sum(result["item_ok_share"])
    ms = lambda s: min(s * 1000.0, INFINITE_MS)
    return {
        "setup_s": setup_s,
        "ok_per_s": ok / sum(result[prefix + "item_time_s"]),
        "latency_p50_ms": ms(percentile(latency, 50.0)),
        "latency_tail_ms": ms(percentile(latency, tail_percentile(len(latency)))),
        "ok_share": ok / len(latency),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S

    if not (ROOT / "src" / "monocat" / "__init__.py").is_file():
        return fail(f"no monocat sources under {ROOT / 'src'}; run from a monocat checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".perfbench_run"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, run_dir, out_dir, wanted, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path, out_dir: Path, wanted: list, deadline: float) -> int:
    env = worker_env()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--run-dir", str(run_dir), "--seconds", str(args.seconds)]
    if args.trace:
        worker.append("--trace")
    try:
        pool = write_inputs(args.workload, args.seed, run_dir)
        # byte-compile monocat once, so no timed process pays for it
        subprocess.run([sys.executable, "-c", "import monocat.cli"], cwd=run_dir, env=env,
                       check=True, timeout=60)
        setup_s, setup_samples = (None, [])
        if not args.trace:
            setup_s, setup_samples = measure_setup(args, run_dir, env, worker, deadline)
        proc, _ = timed_ready(worker, run_dir, env, deadline)
        try:
            proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            kill(proc)
            return fail(f"worker ran past {TIME_LIMIT_S:.0f} s")
        if proc.returncode != 0:
            return fail(f"worker exited with {proc.returncode}")
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))

    if args.trace:
        metrics = result["trace"]["metrics"]
    else:
        metrics = end_to_end(result, setup_s)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")

    n = len(pool["requests"])
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": result["python"],
        "numpy": result["numpy"], "blas": result["blas"], "nproc": os.cpu_count(),
        "thread_env": {k: env[k] for k in PINNED}, "recursion_limit": result["recursion_limit"],
        "requests_in_pool": n, "passes": result["passes"],
        "samples_per_request": result["samples_per_item"],
        "tail_percentile": tail_percentile(n), "tail_n": n,
        "raw_setup_samples_s": setup_samples, "errors_by_type": result["errors"],
        "contradictions": result["contradictions"], "deep_chain_probe": result.get("probe"),
    }
    if not args.trace:
        meta["raw_metrics"] = end_to_end(result, setup_samples[len(setup_samples) // 2], raw=True)
    if args.trace:
        meta["spans_file"] = str((out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
                                 .relative_to(ROOT))
        shutil.move(run_dir / "spans.json.gz", ROOT / meta["spans_file"])
    correct = not result["contradictions"]
    summary = {
        "correct": correct, "attempted": result["attempted"],
        "failed": result["attempted"] - result["ok"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **summary}, indent=1), encoding="utf-8")
    for line in result["contradictions"]:
        print(f"perfbench: WRONG ANSWER {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
