"""The benchmark's three workloads: seeded inputs, closed loops, checks.

Each workload drives the program through its public Python entry
points from this one process, with a pinned pool size:

* ``figures-quick`` — cold and warm ``generate_artifacts(..., "quick")``
  passes (the researcher's headline command);
* ``advise-mix`` — a seeded stream of SimAS advisor queries over HTTP
  against ``make_server`` on 127.0.0.1 (about 3/4 repeats, 1/4 new
  cells of one cost class);
* ``sweep-deep`` — ``run_replicated`` sweeps of the BOLD cells at the
  paper's own scale (n=1024, R=1000), every one a cache miss plus store.

Every operation is timed on its own and checked for correctness after
its timer stops; the checks feed ``ok_share``.  A workload never
changes its inputs to dodge a failure: a failing operation is counted.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

from repro import cache as repro_cache
from repro.cache import ResultCache
from repro.core.registry import technique_names
from repro.experiments import runner
from repro.experiments.bold_experiments import (
    BOLD_PAPER_RUNS,
    BOLD_PE_COUNTS,
    BOLD_TECHNIQUES,
    scheduling_params,
)
from repro.experiments.published import (
    bold_reference,
    bold_reference_metadata,
)
from repro.figures import pipeline
from repro.figures.drift import check_against_reference
from repro.metrics.wasted_time import OverheadModel
from repro.serve.advisor import Advisor
from repro.serve.http import make_server, serve_forever_in_thread
from repro.workloads import ExponentialWorkload

#: ``op_span(index, kind)`` wraps one timed operation (tracing hook)
OpSpan = Callable[[int, str], ContextManager]

#: fewest latency samples a run may end with: the p90 needs 10 beyond it
MIN_LATENCY_SAMPLES = 100


def no_span(index: int, kind: str) -> ContextManager:
    return nullcontext()


@dataclass
class Outcome:
    """Everything one measured loop produced."""

    #: seconds per timed operation (the latency samples)
    latencies: list[float] = field(default_factory=list)
    #: seconds of operations that started from an empty cache entry
    cold: list[float] = field(default_factory=list)
    #: seconds of operations answered entirely from the cache
    warm: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: the first few failure descriptions (printed, never hidden)
    failures: list[str] = field(default_factory=list)
    #: sample counts and other run facts printed next to the numbers
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Workload:
    """One benchmark workload: set up, measure, close."""

    name = ""
    #: pool size, pinned explicitly and exported as ``REPRO_WORKERS``
    workers = 1

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.seed = seed

    def setup(self) -> None:
        """Fork the pool, bind servers, and run one throwaway operation
        on a scratch cache, so lazy set-up is paid here."""

    def measure(self, seconds: float, op_span: OpSpan = no_span) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        repro_cache.clear_cache()
        runner.shutdown_pool()


# -- figures-quick ------------------------------------------------------------
class FiguresQuick(Workload):
    """Cold then warm ``figures --quick`` passes, each in a new directory.

    A round is one cold pass on a new empty cache followed by
    ``warm_per_cold`` warm passes on the cache it filled; rounds repeat
    until ``seconds`` of pass time is spent.  The committed references
    pin the quick parameters, so the seed is recorded but does not change
    the inputs.
    """

    name = "figures-quick"
    workers = 2
    #: the set-up operation: cheap, but it forks the pool (robustness
    #: runs its direct-simulator cells as a pooled campaign)
    warmup_artifacts = ("table2", "fig5", "robustness")

    def __init__(self, root: Path, seed: int,
                 only: tuple[str, ...] | None = None,
                 reference_dir: Path | None = None,
                 warm_per_cold: int = MIN_LATENCY_SAMPLES - 1):
        super().__init__(root, seed)
        self.only = only
        self.reference_dir = reference_dir
        #: enough warm passes per cold pass for a p90 over pass latencies
        self.warm_per_cold = warm_per_cold
        self._passes = 0

    def setup(self) -> None:
        with repro_cache.cache_to(self.root / "warmup-cache"):
            pipeline.generate_artifacts(
                self.root / "warmup-out", "quick",
                only=self.warmup_artifacts, plot=False,
            )

    def _pass(self, cache: ResultCache, cold: bool, out: Outcome,
              op_span: OpSpan) -> None:
        index = self._passes
        self._passes += 1
        target = self.root / f"pass-{index}"
        empty = cache.entry_count() == 0
        misses, stores = cache.stats.misses, cache.stats.stores
        kind = "cold" if cold else "warm"
        with op_span(index, kind):
            t0 = time.perf_counter()
            pipeline.generate_artifacts(
                target, "quick", only=self.only, plot=False
            )
            elapsed = time.perf_counter() - t0
        out.latencies.append(elapsed)
        (out.cold if cold else out.warm).append(elapsed)
        drift = check_against_reference(
            target, self.reference_dir, artifacts=self.only
        )
        problems = [f.describe() for f in drift.fatal]
        if cold and not empty:
            problems.append("cold pass started from a non-empty store")
        if not cold:
            if cache.stats.misses != misses:
                problems.append(
                    f"{cache.stats.misses - misses} cache miss(es)"
                )
            if cache.stats.stores != stores:
                problems.append(
                    f"{cache.stats.stores - stores} cache store(s)"
                )
        out.check(not problems,
                  f"{kind} pass {index}: " + "; ".join(problems[:3]))
        shutil.rmtree(target, ignore_errors=True)

    def measure(self, seconds: float, op_span: OpSpan = no_span) -> Outcome:
        out = Outcome()
        rounds = 0
        while rounds == 0 or sum(out.latencies) < seconds:
            with repro_cache.cache_to(self.root / f"cache-{rounds}") as cache:
                self._pass(cache, True, out, op_span)
                for _ in range(self.warm_per_cold):
                    self._pass(cache, False, out, op_span)
            shutil.rmtree(self.root / f"cache-{rounds}", ignore_errors=True)
            rounds += 1
        out.notes.update(cold_passes=len(out.cold),
                         warm_passes=len(out.warm), rounds=rounds)
        return out


# -- advise-mix ---------------------------------------------------------------
#: the single cost class of every new advisor cell
ADVISE_CELL = {"n": 8192, "p": 64, "runs": 5, "simulator": "direct-batch"}
ADVISE_DISTS = ("exponential", "constant", "uniform", "gamma")
ADVISE_HS = (0.0, 0.5)
#: one new cell per round of this many queries (the rest are repeats)
ADVISE_ROUND = 4
#: rounds generated per run: far more than any run can ask
ADVISE_ROUNDS_CAP = 2000


def advise_queries(seed: int, rounds: int,
                   cell: dict = ADVISE_CELL) -> list[tuple[str, dict]]:
    """The seeded query stream: ``(kind, payload)`` with kind cold/warm.

    Each round of :data:`ADVISE_ROUND` queries holds exactly one new cell
    (so the cold share is exactly 1/4 at every round boundary) at a
    seeded position; the others repeat a cell asked earlier in the run.
    New cells cycle through every (dist, h) pair in a seeded order, each
    with a fresh seed.
    """
    rng = random.Random(seed)
    cells: list[dict] = []
    combos: list[tuple[str, float]] = []
    stream: list[tuple[str, dict]] = []
    for round_index in range(rounds):
        if not combos:
            combos = [(d, h) for d in ADVISE_DISTS for h in ADVISE_HS]
            rng.shuffle(combos)
        dist, h = combos.pop()
        new = {**cell, "dist": dist, "h": h,
               "seed": rng.randrange(2**31)}
        slot = 0 if round_index == 0 else rng.randrange(ADVISE_ROUND)
        for position in range(ADVISE_ROUND):
            if position == slot:
                stream.append(("cold", new))
            else:
                pool = cells if position < slot else cells + [new]
                stream.append(("warm", rng.choice(pool)))
        cells.append(new)
    return stream


def check_answer(status: int, body: dict, first: dict | None,
                 expected_rows: int) -> list[str]:
    """Problems with one advisor answer (empty when it is correct).

    ``first`` is the earlier answer to the same query for a repeat, whose
    ranking must come back unchanged and without a single cache miss.
    """
    if status != 200:
        return [f"HTTP {status}: {body.get('message', '')}"]
    problems = []
    ranking = body.get("ranking", [])
    if len(ranking) != expected_rows:
        problems.append(f"{len(ranking)} ranked rows, not {expected_rows}")
    means = [row.get("makespan_mean") for row in ranking]
    if any(a > b for a, b in zip(means, means[1:])):
        problems.append("ranking is not in non-decreasing makespan_mean")
    if first is not None:
        if ranking != first.get("ranking"):
            problems.append("repeat ranking differs from the first answer")
        misses = body.get("cache", {}).get("misses")
        if misses != 0:
            problems.append(f"repeat had {misses} cache miss(es)")
    return problems


class AdviseMix(Workload):
    """One HTTP client in a closed loop against the advisor service."""

    name = "advise-mix"
    workers = 1

    def __init__(self, root: Path, seed: int, cell: dict = ADVISE_CELL,
                 min_samples: int = MIN_LATENCY_SAMPLES):
        super().__init__(root, seed)
        self.queries = advise_queries(seed, ADVISE_ROUNDS_CAP, cell)
        self.min_samples = min_samples
        self.expected_rows = len(technique_names())
        self.server = None
        self.thread = None

    def setup(self) -> None:
        self.server = make_server("127.0.0.1", 0,
                                  Advisor(processes=self.workers))
        self.thread = serve_forever_in_thread(self.server)
        with repro_cache.cache_to(self.root / "warmup-cache"):
            status, body, _ = self._post({
                **ADVISE_CELL, "n": 1024, "p": 8,
                "dist": "exponential", "seed": 1,
            })
        if status != 200:
            raise RuntimeError(f"advisor warm-up answered HTTP {status}")

    def _post(self, payload: dict) -> tuple[int, dict, float]:
        """One query on a new connection.

        A keep-alive connection would stall every answer on the
        delayed-ACK timer (about 40 ms here), because the server writes
        the headers and the body of a response in two sends; that timer
        would swamp the cost of a warm answer.
        """
        data = json.dumps(payload).encode()
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=120
        )
        try:
            t0 = time.perf_counter()
            conn.request("POST", "/advise", body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        return response.status, json.loads(raw), elapsed

    def measure(self, seconds: float, op_span: OpSpan = no_span) -> Outcome:
        out = Outcome()
        first: dict[str, dict] = {}
        repro_cache.set_cache(ResultCache(self.root / "cache"))
        try:
            for index, (kind, payload) in enumerate(self.queries):
                at_round_end = index % ADVISE_ROUND == 0
                if at_round_end and len(out.latencies) >= \
                        self.min_samples and sum(out.latencies) >= seconds:
                    break
                with op_span(index, kind):
                    status, body, elapsed = self._post(payload)
                out.latencies.append(elapsed)
                (out.cold if kind == "cold" else out.warm).append(elapsed)
                key = json.dumps(payload, sort_keys=True)
                earlier = first.get(key) if kind == "warm" else None
                problems = check_answer(
                    status, body, earlier, self.expected_rows
                )
                if kind == "warm" and earlier is None:
                    problems.append("repeat of a query never answered")
                if kind == "cold" and status == 200:
                    first[key] = body
                out.check(not problems,
                          f"{kind} query {index}: " + "; ".join(problems))
            else:
                raise RuntimeError("advise-mix ran out of generated queries")
        finally:
            repro_cache.clear_cache()
        out.notes.update(cold_queries=len(out.cold),
                         repeat_queries=len(out.warm))
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        super().close()


# -- sweep-deep ---------------------------------------------------------------
SWEEP_N = 1024
SWEEP_PES = (2, 8, 64, 256, 1024)
#: the paper's reproduction band for cell means against the reference
SWEEP_BAND = 0.15
#: combined standard errors a cell mean may sit from the reference when
#: it falls outside the band (both are finite-sample means; see README)
SWEEP_MAX_Z = 4.0
#: read-backs are spread over this many leading passes
REREAD_PASSES = 3
#: passes generated per run: far more than any run can ask
SWEEP_PASSES_CAP = 200


def sweep_passes(seed: int, passes: int) -> list[list[tuple[str, int, int]]]:
    """Per pass, every (technique, p, campaign_seed) cell in seeded order."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        cells = [(t, p) for t in BOLD_TECHNIQUES for p in SWEEP_PES]
        rng.shuffle(cells)
        out.append([(t, p, rng.randrange(2**32)) for t, p in cells])
    return out


def sweep_task(technique: str, p: int, n: int = SWEEP_N) -> runner.RunTask:
    return runner.RunTask(
        technique=technique.lower(),
        params=scheduling_params(n, p),
        workload=ExponentialWorkload(1.0),
        simulator="direct-batch",
        overhead_model=OverheadModel.POST_HOC,
    )


def check_sweep(results, technique: str, p: int, runs: int,
                reference: dict, reference_runs: int) -> list[str]:
    """Problems with one sweep (empty when it is correct).

    Every replication must account for all its chunks and respect the
    work bound ``makespan >= total_task_time / p``.  The cell mean of the
    wasted time must lie within :data:`SWEEP_BAND` of the reference, or,
    failing that, within :data:`SWEEP_MAX_Z` standard errors of the
    difference of the two means (the reference is itself a mean of
    ``reference_runs`` replications, estimated with this sample's spread).
    """
    problems = []
    if len(results) != runs:
        problems.append(f"{len(results)} results, not {runs}")
    for r in results:
        if sum(r.chunks_per_worker) != r.num_chunks:
            problems.append("chunks_per_worker does not sum to num_chunks")
            break
        if r.makespan < r.total_task_time / r.p * (1 - 1e-12):
            problems.append("makespan below total_task_time / p")
            break
    if results:
        expected = reference[technique][BOLD_PE_COUNTS.index(p)]
        wasted = [r.average_wasted_time for r in results]
        mean = sum(wasted) / len(wasted)
        spread = math.sqrt(
            sum((w - mean) ** 2 for w in wasted) / max(1, len(wasted) - 1)
        )
        error = spread * math.sqrt(
            1 / len(wasted) + 1 / max(1, reference_runs)
        )
        z = abs(mean - expected) / error if error > 0 else math.inf
        if abs(mean - expected) > SWEEP_BAND * abs(expected) and \
                z > SWEEP_MAX_Z:
            problems.append(
                f"mean wasted time {mean:.4g} outside {SWEEP_BAND:.0%} "
                f"of reference {expected:.4g} and {z:.1f} standard errors "
                "away"
            )
    return problems


class SweepDeep(Workload):
    """Paper-scale BOLD replication sweeps, each on a new empty cache.

    Whole passes over the 40 cells repeat until ``seconds`` of sweep time
    is spent and at least :data:`MIN_LATENCY_SAMPLES` sweeps ran (so at
    least :data:`REREAD_PASSES` passes).  Each cell is read back once
    right after it is stored, in one of the first :data:`REREAD_PASSES`
    passes, so the read-backs spread over the run (a cache hit, timed
    separately as ``warm``, not a latency sample).
    """

    name = "sweep-deep"
    workers = 2

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.passes = sweep_passes(seed, SWEEP_PASSES_CAP)
        self.reference = bold_reference(SWEEP_N)
        self.reference_runs = int(
            bold_reference_metadata()["runs"][str(SWEEP_N)]
        )
        cells = sorted((t, p) for t, p, _ in self.passes[0])
        self.reread_pass = {
            cell: i % REREAD_PASSES for i, cell in enumerate(cells)
        }

    def setup(self) -> None:
        with repro_cache.cache_to(self.root / "warmup-cache"):
            runner.run_replicated(sweep_task("FAC", 8), BOLD_PAPER_RUNS,
                                  campaign_seed=1, processes=self.workers)

    def _sweep(self, cell, index: int, kind: str, op_span: OpSpan):
        technique, p, campaign_seed = cell
        task = sweep_task(technique, p)
        with op_span(index, kind):
            t0 = time.perf_counter()
            results = runner.run_replicated(
                task, BOLD_PAPER_RUNS, campaign_seed=campaign_seed,
                processes=self.workers,
            )
            elapsed = time.perf_counter() - t0
        return results, elapsed

    def measure(self, seconds: float, op_span: OpSpan = no_span) -> Outcome:
        out = Outcome()
        index = 0
        for pass_index, cells in enumerate(self.passes):
            if pass_index >= REREAD_PASSES and \
                    len(out.latencies) >= MIN_LATENCY_SAMPLES and \
                    sum(out.latencies) >= seconds:
                break
            with repro_cache.cache_to(self.root / f"cache-{pass_index}"):
                for cell in cells:
                    results, elapsed = self._sweep(cell, index, "cold",
                                                   op_span)
                    index += 1
                    out.latencies.append(elapsed)
                    out.cold.append(elapsed)
                    technique, p, _ = cell
                    problems = check_sweep(results, technique, p,
                                           BOLD_PAPER_RUNS, self.reference,
                                           self.reference_runs)
                    out.check(not problems, f"sweep {technique} p={p}: "
                              + "; ".join(problems))
                    if self.reread_pass[(technique, p)] == pass_index:
                        again, elapsed = self._sweep(cell, index, "warm",
                                                     op_span)
                        index += 1
                        out.warm.append(elapsed)
                        out.check(again == results,
                                  f"re-read {technique} p={p} differs")
            shutil.rmtree(self.root / f"cache-{pass_index}",
                          ignore_errors=True)
        else:
            raise RuntimeError("sweep-deep ran out of generated passes")
        out.notes.update(sweeps=len(out.latencies), re_reads=len(out.warm),
                         passes=len(out.latencies) // len(self.passes[0]))
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FiguresQuick, AdviseMix, SweepDeep)
}
