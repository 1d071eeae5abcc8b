"""Span tracing for traced benchmark runs (``--trace 1``).

:class:`Tracer` installs wrappers around the public calls into each
``repro`` layer — from the benchmark's own files, without touching the
program — and records one span per call: name, start, end, parent span,
operation id.  Spans stay in memory and are written out at the end.

A span's *self time* is its duration minus the part of it covered by its
child spans.  A layer's time is the sum of its spans' self times, or,
for the layers whose metric is an inclusive call time, the sum of the
durations of its outermost spans.

Calls made inside pool workers never reach these wrappers.  The
worker-side share of simulation time and counts is taken from the
``RunResult.stats`` blocks the pool returns (``wall_time``, ``events``,
``extra["block_reps"]``) and reported as such, next to the parent-side
span numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: per-layer metrics: name -> unit (the order of the printed table)
LAYER_METRICS: dict[str, str] = {
    "directsim.kernel_s": "s",
    "directsim.calls": "count",
    "directsim.assignments": "count",
    "directsim.us_per_assignment": "us",
    "directsim.reps_per_call": "count",
    "directsim.scalar_s": "s",
    "workloads.draw_s": "s",
    "workloads.values": "count",
    "core.schedule_s": "s",
    "core.schedules": "count",
    "core.chunks": "count",
    "simgrid.fast_s": "s",
    "simgrid.events": "count",
    "simgrid.us_per_event": "us",
    "backends.resolve_s": "s",
    "backends.resolves": "count",
    "backends.fallbacks": "count",
    "runner.call_s": "s",
    "runner.sim_busy_s": "s",
    "runner.overhead_s": "s",
    "runner.pool_utilisation": "ratio",
    "runner.items": "count",
    "runner.results": "count",
    "cache.key_s": "s",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cache.corrupt": "count",
    "figures.produce_s": "s",
    "figures.emit_s": "s",
    "figures.files": "count",
    "figures.bytes_written": "bytes",
    "serve.parse_s": "s",
    "serve.advise_s": "s",
    "serve.http_s": "s",
    "metrics.summarize_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

#: backend stamped on a worker-side result -> the layer it belongs to
_WORKER_LAYERS = {"direct-batch": "directsim.kernel",
                  "direct": "directsim.scalar", "msg-fast": "simgrid.fast"}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (id, parent id or -1, name, start, end, operation id)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.workers = 1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[int, object] = {}

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once the
        span has ended, so its bookkeeping is not counted as layer time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, tracer.op)
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def operation(self, index: int, kind: str):
        """The benchmark's own span around one timed operation."""
        self.op = index
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, -1, f"op.{kind}", start, end, index))

    # -- installation ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def patch_everywhere(self, original, name: str, after=None) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        imported it by name (call sites resolve module globals at call
        time, so every caller sees the wrapper)."""
        wrapped = self.wrap(name, original, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self, workers: int) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from repro.backends import ReplicationBlock
        from repro.backends.registry import resolve_backend
        from repro.cache import ResultCache
        from repro.core.schedule import precompute_schedule
        from repro.directsim.batch import BatchDirectSimulator
        from repro.directsim.simulator import DirectSimulator
        from repro.experiments import runner
        from repro.figures import pipeline
        from repro.figures.registry import ArtifactSpec
        from repro.metrics.summary import summarize
        from repro.serve.advisor import Advisor
        from repro.simgrid.fastpath import FastMasterWorkerSimulation
        from repro.workloads import distributions

        self.workers = workers
        self.patch(BatchDirectSimulator, "run_batch", "directsim.kernel",
                   self._after_kernel)
        self.patch(DirectSimulator, "run", "directsim.scalar")
        for cls in vars(distributions).values():
            if isinstance(cls, type) and "chunk_times_batch" in vars(cls):
                self.patch(cls, "chunk_times_batch", "workloads.draw",
                           self._after_draw)
        self.patch_everywhere(precompute_schedule, "core.schedule",
                              self._after_schedule)
        self.patch(FastMasterWorkerSimulation, "run", "simgrid.fast",
                   self._after_simgrid)
        self.patch(FastMasterWorkerSimulation, "run_many", "simgrid.fast",
                   self._after_simgrid)
        self.patch_everywhere(resolve_backend, "backends.resolve",
                              self._after_resolve)
        for fn in (runner.run_replicated, runner.run_replicated_batch,
                   runner.run_campaign):
            self.patch_everywhere(fn, "runner.call", self._after_call)
        self.patch(runner, "_run_pooled", "runner.pool", self._after_pool)
        self.patch(runner, "_uncached_execute", "runner.item",
                   self._after_parent_item)
        self.patch(ReplicationBlock, "execute", "runner.item",
                   self._after_parent_item)
        self.patch(ResultCache, "task_key", "cache.key")
        self.patch(ResultCache, "sweep_key", "cache.key")
        self.patch(ResultCache, "get", "cache.get", self._after_get)
        self.patch(ResultCache, "put", "cache.put", self._after_put)
        self.patch(ArtifactSpec, "produce", "figures.produce")
        self.patch(pipeline, "generate_artifacts", "figures.pass",
                   self._after_pass)
        self.patch(Advisor, "parse", "serve.parse")
        self.patch(Advisor, "advise", "serve.advise")
        self.patch_everywhere(summarize, "metrics.summarize")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-call bookkeeping (runs after the span ends) -------------------
    def _after_kernel(self, args, results) -> None:
        self.count("directsim.reps", len(results))
        self.count("directsim.assignments",
                   sum(r.stats.events for r in results if r.stats))

    def _after_draw(self, args, values) -> None:
        self.count("workloads.values", values.size)

    def _after_schedule(self, args, schedule) -> None:
        self.count("core.chunks", len(schedule.sizes))

    def _after_simgrid(self, args, result) -> None:
        group = result if isinstance(result, list) else [result]
        self.count("simgrid.events",
                   sum(r.stats.events for r in group if r.stats))

    def _after_resolve(self, args, backend) -> None:
        if backend.name != args[0].simulator:
            self.count("backends.fallbacks")

    def _after_call(self, args, results) -> None:
        self.count("runner.results", sum(
            len(r) if isinstance(r, list) else 1 for r in results
        ))

    def _fresh(self, group, where: str) -> None:
        for r in group:
            if r.stats is None:
                continue
            self.count(f"busy.{where}", r.stats.wall_time)
            if where == "worker":
                layer = _WORKER_LAYERS.get(r.stats.backend, "other")
                self.count(f"worker.{layer}.s", r.stats.wall_time)
                self.count(f"worker.{layer}.events", r.stats.events)
                self.count(f"worker.{layer}.reps")
                self.count(f"worker.{layer}.values", r.num_chunks)

    def _after_pool(self, args, outputs) -> None:
        self.count("runner.items.pooled", len(outputs))
        for output in outputs:
            group = output if isinstance(output, list) else [output]
            if isinstance(output, list) and group and group[0].stats:
                layer = _WORKER_LAYERS.get(group[0].stats.backend, "other")
                self.count(f"worker.{layer}.calls")
            self._fresh(group, "worker")

    def _after_parent_item(self, args, output) -> None:
        self.count("runner.items.parent")
        self._fresh(output if isinstance(output, list) else [output],
                    "parent")

    def _after_get(self, args, entry) -> None:
        self._caches[id(args[0])] = args[0]
        if entry is not None:
            self.count("cache.hits")

    def _after_put(self, args, written) -> None:
        self._caches[id(args[0])] = args[0]

    def _after_pass(self, args, run_manifest) -> None:
        files = [p for p in Path(args[0]).iterdir() if p.is_file()]
        self.count("figures.files", len(files))
        self.count("figures.bytes_written", sum(p.stat().st_size
                                                for p in files))

    # -- aggregation -------------------------------------------------------
    def layer_times(self) -> tuple[dict, dict, dict]:
        """Per span name: summed self time, outermost inclusive time, and
        call count."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span_id, parent, name, start, end, op in self.spans:
            self_time[name] += (end - start) - child_time[span_id]
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and by_id[ancestor][2] != name:
                ancestor = by_id[ancestor][1]
            if ancestor < 0:
                inclusive[name] += end - start
        return self_time, inclusive, calls

    def layer_metrics(self, overhead_per_span: float) -> dict[str, tuple]:
        """Every :data:`LAYER_METRICS` entry as ``(value, base, source)``:
        ``base`` is the count a ratio or time rests on, ``source`` says
        where the number came from."""
        self_t, incl, calls = self.layer_times()
        c = self.counts
        w = self.workers

        def worker(layer: str, what: str) -> float:
            return c.get(f"worker.{layer}.{what}", 0.0)

        kernel_s = self_t["directsim.kernel"] + worker("directsim.kernel", "s")
        kernel_calls = calls["directsim.kernel"] + worker(
            "directsim.kernel", "calls")
        assignments = c["directsim.assignments"] + worker(
            "directsim.kernel", "events")
        reps = c["directsim.reps"] + worker("directsim.kernel", "reps")
        simgrid_s = self_t["simgrid.fast"] + worker("simgrid.fast", "s")
        simgrid_events = c["simgrid.events"] + worker("simgrid.fast", "events")
        busy_parent, busy_worker = c["busy.parent"], c["busy.worker"]
        pooled_wall = incl["runner.pool"]
        gets = calls["cache.get"]
        caches = list(self._caches.values())
        ops = [(name, e - s) for _, parent, name, s, e, _ in self.spans
               if name.startswith("op.")]
        http_s = 0.0
        if calls["serve.advise"]:
            http_s = (sum(d for _, d in ops) - incl["serve.parse"]
                      - incl["serve.advise"])
        split = "parent spans + worker RunResult.stats"
        parent = "parent spans (pool workers untraced)"
        return {
            "directsim.kernel_s": (kernel_s, kernel_calls, split),
            "directsim.calls": (kernel_calls, None, split),
            "directsim.assignments": (assignments, kernel_calls, split),
            "directsim.us_per_assignment": (
                _ratio(kernel_s * 1e6, assignments), assignments, split),
            "directsim.reps_per_call": (_ratio(reps, kernel_calls),
                                        kernel_calls, split),
            "directsim.scalar_s": (
                self_t["directsim.scalar"] + worker("directsim.scalar", "s"),
                calls["directsim.scalar"] + worker("directsim.scalar", "reps"),
                split),
            "workloads.draw_s": (self_t["workloads.draw"],
                                 calls["workloads.draw"], parent),
            "workloads.values": (
                c["workloads.values"] + worker("directsim.kernel", "values"),
                calls["workloads.draw"],
                "parent draws + worker reps x chunks"),
            "core.schedule_s": (self_t["core.schedule"],
                                calls["core.schedule"], parent),
            "core.schedules": (calls["core.schedule"], None, parent),
            "core.chunks": (c["core.chunks"], calls["core.schedule"],
                            parent),
            "simgrid.fast_s": (simgrid_s, simgrid_events, split),
            "simgrid.events": (simgrid_events, None, split),
            "simgrid.us_per_event": (_ratio(simgrid_s * 1e6, simgrid_events),
                                     simgrid_events, split),
            "backends.resolve_s": (incl["backends.resolve"],
                                   calls["backends.resolve"], parent),
            "backends.resolves": (calls["backends.resolve"], None, parent),
            "backends.fallbacks": (c["backends.fallbacks"],
                                   calls["backends.resolve"], parent),
            "runner.call_s": (incl["runner.call"], calls["runner.call"],
                              parent),
            "runner.sim_busy_s": (busy_parent + busy_worker,
                                  c["runner.items.parent"]
                                  + c["runner.items.pooled"], split),
            "runner.overhead_s": (
                self_t["runner.call"] + self_t["runner.item"]
                + pooled_wall - busy_worker / w, calls["runner.call"],
                "runner self time + pooled wall - worker busy / workers"),
            "runner.pool_utilisation": (
                _ratio(busy_worker, w * pooled_wall), calls["runner.pool"],
                f"worker busy / ({w} workers x pooled wall)"),
            "runner.items": (c["runner.items.parent"]
                             + c["runner.items.pooled"], None, split),
            "runner.results": (c["runner.results"], calls["runner.call"],
                               parent),
            "cache.key_s": (self_t["cache.key"], calls["cache.key"], parent),
            "cache.get_s": (self_t["cache.get"], gets, parent),
            "cache.gets": (gets, None, parent),
            "cache.hit_ratio": (_ratio(c["cache.hits"], gets), gets, parent),
            "cache.put_s": (self_t["cache.put"], calls["cache.put"], parent),
            "cache.puts": (calls["cache.put"], None, parent),
            "cache.bytes_read": (sum(x.stats.bytes_read for x in caches),
                                 c["cache.hits"], "ResultCache.stats"),
            "cache.bytes_written": (sum(x.stats.bytes_written for x in caches),
                                    calls["cache.put"], "ResultCache.stats"),
            "cache.corrupt": (sum(x.stats.corrupt for x in caches), gets,
                              "ResultCache.stats"),
            "figures.produce_s": (incl["figures.produce"],
                                  calls["figures.produce"], parent),
            "figures.emit_s": (self_t["figures.pass"], calls["figures.pass"],
                               "pass wall - produce and other layers"),
            "figures.files": (c["figures.files"], calls["figures.pass"],
                              "files in each pass directory"),
            "figures.bytes_written": (c["figures.bytes_written"],
                                      c["figures.files"],
                                      "sizes of those files"),
            "serve.parse_s": (incl["serve.parse"], calls["serve.parse"],
                              "server-thread spans"),
            "serve.advise_s": (incl["serve.advise"], calls["serve.advise"],
                               "server-thread spans"),
            "serve.http_s": (http_s, len(ops),
                             "client latency - parse - advise"),
            "metrics.summarize_s": (incl["metrics.summarize"],
                                    calls["metrics.summarize"], parent),
            "trace.spans": (len(self.spans), None, "recorded spans"),
            "trace.overhead_s": (len(self.spans) * overhead_per_span,
                                 len(self.spans),
                                 f"spans x {overhead_per_span * 1e6:.2f} us "
                                 "calibrated wrapper cost"),
        }

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans as JSON lines, in start order, after a header
        line naming the fields of each span array."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "id", "parent", "name", "start", "end", "op"]}) + "\n")
            for span in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps(span) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def calibrate_span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call (wrapped minus bare no-op)."""

    def bare():
        return None

    wrapped = Tracer().wrap("calibrate", bare)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
