"""Starts the ``cli`` workload's invocations for ``worker.py``, one at a time.

A child's peak RSS as ``wait4`` reports it includes the memory of the
process that spawned it (Linux keeps the larger of the pre-exec image and
the child's own peak), so the worker, which holds monocat, numpy and the
request pool, would hide the invocations' own peaks.  This process imports
nothing beyond the standard library's core, so its RSS stays below any
invocation's.

Protocol: one JSON line per invocation on stdin, ``{"argv": [...],
"stdout": file}``; one JSON line back, ``{"seconds", "exit", "maxrss_kb"}``.
The invocation runs in this process's working directory with its
environment, stdout to ``file`` and stderr discarded.
"""

import json
import os
import sys
import time

STDOUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], STDOUT_FLAGS, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
        reply = {"seconds": seconds, "exit": os.waitstatus_to_exitcode(status),
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
