"""Spans around monocat's public functions, for the benchmark's traced run.

:meth:`Tracer.install` rebinds each function in :data:`TRACED` in its
defining module and in every monocat module that imported it, so nested
calls become child spans.  A span records name, start, end, parent,
request and thread; spans stay in memory (compact arrays) and are written
out at the end.  Counts come from returned values, computed after the span
closes, and the time spent counting is itself a ``bench.count`` span that
is excluded from request time.

A span's self time is its duration minus what its child spans cover.
When a request runs monocat code in several threads at once (the CLI's
batch thread pool), each instant is shared equally among the threads that
are running a span and are not waiting for another thread's spans, so
self times still add up to the request's wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from array import array
from time import perf_counter

#: Wrapped functions per monocat module.  Helpers left out (``slot_in``,
#: ``flatten_object``, ``dim_flat``, ...) count toward their caller.
TRACED = {
    "parser": ("parse_expr", "print_expr", "print_obj", "parse_signature", "parse_rules"),
    "terms": ("typecheck", "comp_chain", "replace_chain_element", "right_comp", "iso_inverse"),
    "coherence": ("sheet_of_term", "canonicalize", "monoidal_eq", "dump_normal_form"),
    "tactics": ("foliate", "weak_foliate", "cancel_isos", "cat_simpl", "cat_easy", "assoc_rw",
                "partner", "right_associate"),
    "render": ("layout", "emit_svg", "emit_tikz"),
    "semantics": ("eval_matrix", "eval_rel", "mat_equiv", "braid_matrix", "matrix_instance",
                  "rel_instance"),
    "cli": ("run",),
}
LAYERS = tuple(TRACED)
REQUEST, COUNT = "request", "bench.count"


def _count_sheet(tr, sheet):
    tr.add("coherence.layers_in", len(sheet.layers))
    tr.add("coherence.boxes", sum(1 for layer in sheet.layers for s in layer
                                  if type(s).__name__ == "BoxSlot"))


def _count_layout(tr, root):
    nodes, todo = 0, [root]
    while todo:
        node = todo.pop()
        nodes += 1
        todo.extend(node.children)
    tr.add("render.nodes", nodes)


def _count_matrix(tr, mat):
    tr.maximum("semantics.max_dim", max(mat.shape))


COUNTERS = {
    "coherence.sheet_of_term": _count_sheet,
    "coherence.canonicalize": lambda tr, nf: tr.add("coherence.layers_out", len(nf.layers)),
    "render.layout": _count_layout,
    "semantics.eval_matrix": _count_matrix,
    "semantics.eval_rel": lambda tr, rel: tr.add("semantics.rel_pairs", len(rel)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [REQUEST, COUNT]
        self.requests: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.thread = array("i")
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._main_ident = threading.get_ident()
        self._threads: dict[int, int] = {self._main_ident: 0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._req = -1
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            ident = threading.get_ident()
            stack = self._main_stack if ident == self._main_ident else []
            self._local.stack = stack
            self._threads.setdefault(ident, len(self._threads))
        return stack

    def _open(self, name_id: int, stack: list[int], t: float) -> int:
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its spans hang under the main thread's current span
            parent = self._main_stack[-1] if self._main_stack else -1
        thread = self._threads[threading.get_ident()]
        with self._lock:  # the CLI's batch pool opens spans from several threads
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(t)
            self.end.append(t)
            self.parent.append(parent)
            self.request.append(self._req)
            self.thread.append(thread)
        stack.append(idx)
        return idx

    def begin_request(self, rid: str) -> None:
        self.requests.append(rid)
        self._req = len(self.requests) - 1
        self._open(0, self._stack(), perf_counter())

    def end_request(self) -> None:
        self.end[self._main_stack.pop()] = perf_counter()
        self._req = -1

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _wrap(self, key: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        counter = COUNTERS.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._req < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            idx = tracer._open(name_id, stack, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                c = tracer._open(1, stack, perf_counter())
                counter(tracer, result)
                tracer.end[c] = perf_counter()
                stack.pop()
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever monocat refers to it."""

        if self._saved:
            return
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "monocat" or n.startswith("monocat."))]
        for layer, fns in TRACED.items():
            home = sys.modules[f"monocat.{layer}"]
            for fn_name in fns:
                key = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(key, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, self._wrappers[key])

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        threaded: set[int] = set()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
                if self.thread[i] != self.thread[p]:
                    threaded.add(self.request[i])
        if threaded:
            by_req: dict[int, list[int]] = {}
            for i in range(n):
                if self.request[i] in threaded:
                    by_req.setdefault(self.request[i], []).append(i)
            for spans in by_req.values():
                self._share_threads(spans, own)
        return own

    def _share_threads(self, spans: list[int], own: list[float]) -> None:
        """Processor-sharing self time for one request that used threads."""

        cross: dict[int, int] = {}
        for i in spans:  # parents precede children, so this is top-down
            p = self.parent[i]
            if p < 0:
                cross[i] = -1
            else:
                cross[i] = p if self.thread[p] != self.thread[i] else cross[p]
        for i in spans:
            own[i] = 0.0
        events = sorted([(self.start[i], 1, i) for i in spans]
                        + [(self.end[i], 0, i) for i in spans])
        active: dict[int, list[int]] = {}
        last = None
        for t, is_start, i in events:
            if last is not None and t > last and active:
                inner = {th: st[-1] for th, st in active.items() if st}
                waiting = {cross[s] for s in inner.values()}
                running = [s for s in inner.values() if s not in waiting]
                for s in running:
                    own[s] += (t - last) / len(running)
            last = t
            stack = active.setdefault(self.thread[i], [])
            if is_start:
                stack.append(i)
            else:
                stack.remove(i)

    def report(self, passes: int, plain_request_s: float, traced_pass_s: float) -> dict:
        """Per-layer metrics per traced pass of the pool (set-up spans,
        recorded once, are added to their function's totals as they are)."""

        own = self.self_times()
        setup = {i for i, r in enumerate(self.requests) if r == "setup"}
        fn_self: dict[str, float] = {}
        fn_calls: dict[str, int] = {}  # in passes: a set-up call counts ``passes``
        layer_self = dict.fromkeys(LAYERS, 0.0)
        request_s = 0.0
        for i in range(len(self.name)):
            key = self.names[self.name[i]]
            in_setup = self.request[i] in setup
            if key in (REQUEST, COUNT):
                if not in_setup:
                    span_s = self.end[i] - self.start[i] if key == REQUEST else -own[i]
                    request_s += span_s / passes
                continue
            fn_self[key] = fn_self.get(key, 0.0) + (own[i] if in_setup else own[i] / passes)
            fn_calls[key] = fn_calls.get(key, 0) + (passes if in_setup else 1)
            if not in_setup:
                layer_self[key.split(".")[0]] += own[i] / passes
        metrics: dict[str, float] = {}
        for layer, fns in TRACED.items():
            for fn_name in fns:
                key = f"{layer}.{fn_name}"
                metrics[f"{key}.self_s"] = fn_self.get(key, 0.0)
                metrics[f"{key}.calls"] = fn_calls.get(key, 0) / passes
        for layer in LAYERS:
            metrics[f"{layer}.share"] = layer_self[layer] / request_s if request_s else 0.0
        for key in ("coherence.boxes", "coherence.layers_in", "coherence.layers_out",
                    "render.nodes", "semantics.rel_pairs", "cli.batch_pairs"):
            metrics[key] = self.counts.get(key, 0) / passes
        metrics["semantics.max_dim"] = self.maxima.get("semantics.max_dim", 0)
        metrics["trace.request_s"] = request_s
        metrics["trace.coverage"] = sum(metrics[f"{layer}.share"] for layer in LAYERS)
        metrics["trace.overhead"] = traced_pass_s / plain_request_s - 1 if plain_request_s else 0.0
        metrics["trace.spans"] = len(self.name) / passes
        return {"metrics": metrics, "passes": passes}

    def write(self, path) -> None:
        data = {"names": self.names, "requests": self.requests, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "request": self.request.tolist(),
                "thread": self.thread.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)
