"""Machine-speed calibration for the benchmark's timings.

On a machine whose cores are shared, speed drifts by a quarter or more over
tens of seconds, about equally for all work of one kind; that drift swamps
the run-to-run spread the benchmark needs.  So a reference task that does
not involve monocat is timed between requests, and each request's wall
time is scaled by the reference's nominal time over its median time
sampled near the request.  Reported times are thus wall times on a machine
where the reference takes its nominal time: a change to monocat moves them,
a change in the machine's speed mostly does not.  The unscaled figures are
reported beside them in each run's metadata.

Each workload gets the reference that tracked its own work best when both
were timed side by side on the machine named below (windowed spread of
work over reference, against that of the raw work time):

- ``prove`` and ``cli``, interpreted Python: building, sorting and joining
  a dict of 10,000 small tuples and strings, then building and walking a
  tree of 600 frozen dataclass leaves, the kind of work monocat's term
  code does.  Over eight recorded ``prove`` runs the tree part cut the
  spread of ok_per_s from 5.0% to 3.9% (9.1% raw).  On ``cli`` the dict
  part alone tracked the invocations at least as well as a reference child
  process did (spread of ok_per_s 5% against 6%, 14% raw), at a fortieth of
  the cost, because batch invocations are mostly interpreted Python;
- ``oracle``, dense complex linear algebra: a 280x280 complex matrix
  product (5% against 43% raw);
- set-up, fresh processes: starting an interpreter that imports numpy
  (3% against 25% raw; a bare ``python -c pass`` gave 10%).

The nominal times are typical values on the machine the benchmark was defined on
(2 shared x86-64 vCPUs, Python 3.11.7, numpy 2.4.6, one BLAS thread).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import perf_counter


def run_child(argv: list[str], cwd, env: dict | None = None, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL, timeout_s: float = 60.0):
    """Run ``argv`` to completion; return (wall seconds, exit code, rusage).

    Waits with a blocking ``wait4``: ``subprocess.run(timeout=...)`` polls
    instead, in steps that grow to 50 ms, which rounds a child's time up to
    the next step.  A timer kills a child that outlives ``timeout_s``.
    """

    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


class Speed:
    """Samples ``kernel`` (returns its own duration) at most every
    ``interval_s`` and scales times by ``nominal_s`` over the median sample
    within ``window_s`` of them."""

    def __init__(self, kernel, nominal_s: float, interval_s: float, window_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.window_s = window_s
        self.times: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        now = perf_counter()
        if now >= self._due:
            self.times.append(now)
            self.samples.append(self.kernel())
            self._due = perf_counter() + self.interval_s

    def factor(self, t: float) -> float:
        """Scale for a wall time measured at ``t``."""

        lo = bisect_left(self.times, t - self.window_s)
        hi = bisect_right(self.times, t + self.window_s)
        if hi - lo < 3:
            mid = bisect_left(self.times, t)
            lo, hi = max(mid - 2, 0), min(mid + 2, len(self.times))
        local = sorted(self.samples[lo:hi])
        return self.nominal_s / local[len(local) // 2]


@dataclass(frozen=True)
class _Node:
    left: object
    right: object
    tag: str


def _leaves(node: _Node) -> int:
    return 1 if node.left is None else _leaves(node.left) + _leaves(node.right)


def python_speed() -> Speed:
    def kernel() -> float:
        t0 = perf_counter()
        table = {}
        for i in range(10000):
            table[(i, i % 7)] = str(i)
        ordered = sorted(table.items(), key=lambda kv: kv[1])
        "".join(v for _, v in ordered)
        nodes = [_Node(None, None, str(i % 13)) for i in range(600)]
        while len(nodes) > 1:
            odd = nodes[len(nodes) - len(nodes) % 2:]
            nodes = [_Node(nodes[i], nodes[i + 1], "c") for i in range(0, len(nodes) - 1, 2)] + odd
        for _ in range(3):
            _leaves(nodes[0])
        ",".join(sorted(str(i) for i in range(3000)))
        return perf_counter() - t0

    return Speed(kernel, nominal_s=0.0050, interval_s=0.15, window_s=0.75)


def matrix_speed() -> Speed:
    import numpy as np

    n = 280
    matrix = (np.arange(n * n).reshape(n, n) % 7 + 1j).astype(complex)

    def kernel() -> float:
        t0 = perf_counter()
        matrix @ matrix
        return perf_counter() - t0

    for _ in range(5):  # the first products pay for page faults and BLAS start-up
        kernel()
    return Speed(kernel, nominal_s=0.0028, interval_s=0.3, window_s=1.5)


def process_speed(env: dict, cwd) -> Speed:
    def kernel() -> float:
        seconds, code, _ = run_child([sys.executable, "-c", "import numpy"], cwd, env)
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}")
        return seconds

    return Speed(kernel, nominal_s=0.160, interval_s=0.6, window_s=1.2)
