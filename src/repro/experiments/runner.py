"""Replication campaign runner.

A campaign is a set of independent simulation runs (technique x parameters
x replication).  Runs are described by picklable :class:`RunTask` objects
so campaigns can be distributed over processes with
:mod:`multiprocessing` — the role the HPC cluster *taurus* played for the
original measurement campaign ("the individual measurements were
performed in parallel", Section V).  On a single-core machine the runner
degrades to a sequential loop.

Which simulator executes a task is *not* decided here: every task names a
registered backend (:mod:`repro.backends`), and dispatch resolves it
through the capability-checked fallback chain —
``resolve_backend(task)`` returns the backend that will actually run,
recording a :class:`~repro.backends.FallbackEvent` for every explicit
degradation (e.g. ``direct-batch`` -> ``direct`` for an adaptive
technique).  Campaign reports drain and surface those events.

Two throughput layers compose here:

* **Process-level parallelism** — tasks fan out over a persistent worker
  pool (created once, reused across calls) via ``imap_unordered`` with a
  tuned chunksize.  The pool size defaults to ``os.cpu_count()`` and can
  be overridden with the ``REPRO_WORKERS`` environment variable or the
  ``processes`` argument (CLI: ``repro-dls campaign --workers``).
* **Block-level batching** — backends declaring ``pooled_blocks``
  (``direct-batch``, ``msg-fast``) split whole replication sweeps into
  :class:`~repro.backends.ReplicationBlock` objects that amortise the
  chunk-schedule precomputation (and, for the batch kernel, sample chunk
  times in bulk) instead of paying one Python event loop per replication.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..backends import (
    BATCH_BLOCK_RUNS,
    FallbackEvent,
    ReplicationBlock,
    SimulationBackend,
    get_backend,
    peek_fallback_events,
    record_fallback,
    resolve_backend,
)
from ..cache import ResultCache, active_cache
from ..cache import suspended as cache_suspended
from ..core.params import SchedulingParams
from ..metrics.wasted_time import OverheadModel
from ..obs import core as obs_core
from ..obs import metrics as obs_metrics
from ..obs import progress as obs_progress
from ..obs.journal import RunJournal, active_journal
from ..results import RunResult
from ..simgrid.platform import Platform
from ..workloads.distributions import Workload

if TYPE_CHECKING:
    from ..scenarios import Scenario

__all__ = [
    "BATCH_BLOCK_RUNS",
    "RunTask",
    "expand_replications",
    "resolve_workers",
    "run_campaign",
    "run_replicated",
    "run_replicated_batch",
    "shutdown_pool",
]


@dataclass(frozen=True)
class RunTask:
    """One independent simulation run, fully described by data.

    ``simulator`` names a registered backend (see
    ``repro.backends.backend_names()``); execution resolves it through
    the capability-checked fallback chain.

    Seeding: ``seed_entropy`` holds the entropy of the run's
    ``numpy.random.SeedSequence``.  When it is left empty the seed is
    *derived deterministically from the task's own fields* (technique,
    params, workload, backend, platform, ...), so executing the same
    task twice always reproduces the same result — there is no silent
    fallback to OS entropy.  Distinct replications of one cell must
    therefore carry distinct explicit entropy (see
    :func:`expand_replications`).
    """

    technique: str
    params: SchedulingParams
    workload: Workload
    simulator: str = "msg"
    overhead_model: OverheadModel = OverheadModel.POST_HOC
    platform: Platform | None = None
    speeds: tuple[float, ...] | None = None
    start_times: tuple[float, ...] | None = None
    technique_kwargs: dict = field(default_factory=dict)
    seed_entropy: tuple[int, ...] = ()
    #: populate ``RunResult.chunk_log`` (timeline export); backends that
    #: cannot record one (direct-batch) degrade along their fallback
    #: chain with a recorded event.  Excluded from seed derivation, so a
    #: traced run reproduces the untraced run bit-for-bit.
    collect_chunk_log: bool = False
    #: perturbation scenario (``repro.scenarios.Scenario``) or ``None``
    #: for a clean system.  A set scenario enters seed derivation and
    #: the cache key (perturbed results differ from clean ones); the
    #: backend registry checks the fault/fluctuation capability axes and
    #: degrades with a recorded event where a backend lacks the models.
    scenario: "Scenario | None" = None

    def _platform_key(self) -> str:
        """A content-based key for the platform (stable across processes).

        The default ``object`` repr would embed a memory address, so the
        platform enters the seed key through its XML serialisation.
        """
        if self.platform is None:
            return "None"
        from ..simgrid.xmlio import platform_to_xml

        return platform_to_xml(self.platform)

    def derived_entropy(self) -> tuple[int, ...]:
        """Deterministic seed entropy from the task's own fields.

        Used when ``seed_entropy`` is empty; stable across processes and
        interpreter restarts (content hash, not ``hash()``).  The
        backend enters through its ``entropy_namespace`` — backends that
        are bit-identical to another (msg-fast to msg) share its
        namespace, so the equality is visible even for single un-seeded
        tasks.
        """
        parts = [
            self.technique,
            repr(self.params),
            repr(self.workload),
            get_backend(self.simulator).entropy_namespace,
            self.overhead_model.value,
            self._platform_key(),
            repr(self.speeds),
            repr(self.start_times),
            repr(sorted(self.technique_kwargs.items())),
        ]
        # Appended only when set, so every clean task keeps its
        # pre-scenario seed (and cache key) bit for bit.
        if self.scenario is not None:
            parts.append(repr(self.scenario))
        key = "|".join(parts)
        digest = hashlib.sha256(key.encode()).digest()
        return tuple(
            int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)
        )

    def seed_sequence(self) -> np.random.SeedSequence:
        """The run's seed (explicit entropy, else derived from fields)."""
        entropy = self.seed_entropy or self.derived_entropy()
        return np.random.SeedSequence(entropy=list(entropy))

    def execute(self) -> RunResult:
        """Run this task on its resolved backend and return the result.

        While a result cache is active (:func:`repro.cache.set_cache` /
        ``--cache``), the run is served from the cache when its content
        key hits, and stored after simulating when it misses.
        """
        cache = active_cache()
        if cache is None:
            return _uncached_execute(self)
        return _cached_execute(cache, self)


def _uncached_execute(task: RunTask) -> RunResult:
    """Resolve and run ``task``, bypassing any active result cache."""
    backend = resolve_backend(task)
    return backend.run(task, task.seed_sequence())


def _cache_describe(task: RunTask, runs: int,
                    campaign_seed: int | None = None) -> dict:
    """The human-readable identity block of a task's cache records."""
    describe = {
        "technique": task.technique,
        "n": task.params.n,
        "p": task.params.p,
        "simulator": task.simulator,
        "runs": runs,
    }
    if campaign_seed is not None:
        describe["campaign_seed"] = campaign_seed
    return describe


def _stats_wall(results: Sequence[RunResult]) -> float:
    """Host-seconds of simulation in ``results`` (saved-time estimate)."""
    return sum(r.stats.wall_time for r in results if r.stats is not None)


def _task_fallbacks(task: RunTask) -> list:
    """Every recorded fallback event that names ``task``'s cell.

    The process-wide log deduplicates per (cell, hop), so re-resolving a
    cell records nothing new — a store must therefore scan the whole log
    (not just events after some baseline) or a cell resolved earlier in
    the process would cache an entry with empty fallback provenance.
    """
    key = SimulationBackend.task_key(task)
    return [e for e in peek_fallback_events() if e.task_key == key]


def _replay_entry_fallbacks(entry) -> None:
    """Re-record the fallback events stored in a cache entry's provenance.

    A hit never resolves a backend, so without replay a fully cached
    campaign would report zero degradations even though the stored
    results were produced by a fallback backend.  The process-wide log
    deduplicates, so repeated hits of one cell report once, exactly
    like repeated fresh resolutions.
    """
    for event in entry.provenance.get("fallbacks", ()):
        try:
            record_fallback(FallbackEvent(
                task_key=event["task"],
                requested=event["requested"],
                chosen=event["chosen"],
                reason=event["reason"],
                category=event.get("category", "capability"),
            ))
        except (KeyError, TypeError):  # foreign/legacy provenance shape
            continue


def _cached_execute(cache: ResultCache, task: RunTask) -> RunResult:
    """One run through the cache: serve a hit or simulate-and-store."""
    key = cache.task_key(task)
    describe = _cache_describe(task, runs=1)
    entry = cache.get(key, describe=describe)
    if entry is not None:
        cache.maybe_verify(
            key, entry, lambda: _fresh_results([task]), describe=describe
        )
        _replay_entry_fallbacks(entry)
        return entry.results[0]
    with cache_suspended():
        result = _uncached_execute(task)
    cache.put(
        key,
        [result],
        describe=describe,
        wall_time_s=_stats_wall([result]),
        backend=result.stats.backend if result.stats else "",
        fallbacks=_task_fallbacks(task),
        platform=task.platform,
    )
    return result


def _fresh_results(tasks: Sequence[RunTask]) -> list[RunResult]:
    """Cache-blind re-simulation (the ``--cache-verify`` recompute)."""
    with cache_suspended():
        return [_uncached_execute(task) for task in tasks]


def _execute_task(task: RunTask) -> RunResult:
    return task.execute()


def _execute_indexed(item: tuple[int, RunTask | ReplicationBlock]):
    index, task = item
    return index, task.execute()


def resolve_workers(processes: int | None = None) -> int:
    """The worker-pool size: argument > ``REPRO_WORKERS`` > CPU count.

    A ``REPRO_WORKERS`` value that is not an integer, or is zero or
    negative, fails with an error naming the variable — never a raw
    traceback deep inside the pool machinery, and never a silent clamp.
    """
    if processes is not None:
        return max(1, int(processes))
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if value <= 0:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


# -- persistent worker pool ----------------------------------------------
_POOL: multiprocessing.pool.Pool | None = None
_POOL_SIZE: int = 0
#: guards pool creation/teardown — the serve layer dispatches campaigns
#: from handler threads, so two threads must never race one another into
#: creating (or terminating) the shared pool
_POOL_LOCK = threading.Lock()
#: dispatches currently iterating over the pool (under _POOL_LOCK)
_POOL_ACTIVE: int = 0
#: True inside a pool worker process (set by the initializer); nested
#: campaign calls there must not fork a pool-within-a-pool
_IN_POOL_WORKER: bool = False


def _pool_worker_init() -> None:
    """Per-worker initialisation: drop any inherited active cache.

    Cache traffic is a parent-process concern (lookups partition the
    work before pooling; stores happen after results return), so a
    forked worker must not repeat lookups or flush session stats.  The
    worker is also marked as such, so any campaign entry point reached
    from inside a simulated task degrades to the serial loop instead of
    trying to fork a nested pool (daemonic pool workers cannot have
    children — without the guard that is a crash deep in
    ``multiprocessing``).
    """
    global _IN_POOL_WORKER

    from ..cache import deactivate_in_worker

    deactivate_in_worker()
    _IN_POOL_WORKER = True
    # a terminal Ctrl-C is the parent's to handle: it drains or
    # terminates the pool deliberately, so workers must not die mid-task
    # with their own KeyboardInterrupt tracebacks (the long-running
    # serve process makes this the *normal* shutdown path)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def in_pool_worker() -> bool:
    """True when the calling process is one of the shared pool's workers."""
    return _IN_POOL_WORKER


def _usable_workers(processes: int | None) -> int:
    """The parallelism execution may actually use.

    Inside a pool worker the answer is always 1 — a nested campaign
    call runs serially in-process rather than forking a pool inside
    the pool.
    """
    if _IN_POOL_WORKER:
        return 1
    return resolve_workers(processes)


def _get_pool(processes: int) -> multiprocessing.pool.Pool:
    """The shared pool, (re)created only when the size changes.

    Caller must hold ``_POOL_LOCK``.  While another thread is actively
    dispatching over the pool (``_POOL_ACTIVE > 0``) a differing size
    request reuses the existing pool instead of terminating it out from
    under the other thread — concurrent advisor queries share one pool,
    whatever sizes they ask for.
    """
    global _POOL, _POOL_SIZE
    if _IN_POOL_WORKER:
        raise RuntimeError(
            "cannot create the shared process pool inside one of its own "
            "workers — nested campaign calls must run serially"
        )
    if _POOL is not None and _POOL_SIZE != processes and _POOL_ACTIVE == 0:
        _shutdown_pool_locked()
    if _POOL is None:
        _POOL = multiprocessing.Pool(
            processes=processes, initializer=_pool_worker_init
        )
        _POOL_SIZE = processes
    return _POOL


def _shutdown_pool_locked() -> None:
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_SIZE = 0


def shutdown_pool() -> None:
    """Terminate the persistent pool (tests; end of process via atexit)."""
    with _POOL_LOCK:
        _shutdown_pool_locked()


atexit.register(shutdown_pool)


def _advance_progress(
    tracker: obs_progress.ProgressTracker | None,
    result: "RunResult | list[RunResult]",
) -> None:
    """Count one completed task (or block of replications) as progress."""
    if tracker is None:
        return
    group = result if isinstance(result, list) else [result]
    events = sum(r.stats.events for r in group if r.stats is not None)
    tracker.advance(len(group), events)


def _run_pooled(items: Sequence[RunTask | ReplicationBlock],
                processes: int,
                tracker: obs_progress.ProgressTracker | None = None) -> list:
    """Execute items (in order) over the persistent pool."""
    global _POOL_ACTIVE
    with _POOL_LOCK:
        pool = _get_pool(processes)
        _POOL_ACTIVE += 1
    try:
        chunksize = max(1, len(items) // (processes * 4))
        out: list = [None] * len(items)
        for index, result in pool.imap_unordered(
            _execute_indexed, list(enumerate(items)), chunksize=chunksize
        ):
            out[index] = result
            _advance_progress(tracker, result)
        return out
    finally:
        with _POOL_LOCK:
            _POOL_ACTIVE -= 1


def expand_replications(task: RunTask, runs: int,
                        campaign_seed: int | None) -> list[RunTask]:
    """Clone ``task`` into ``runs`` tasks with independent spawned seeds."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = np.random.SeedSequence(campaign_seed).spawn(runs)
    out = []
    for seq in seeds:
        entropy = tuple(int(v) for v in np.atleast_1d(seq.entropy)) + tuple(
            seq.spawn_key
        )
        out.append(
            RunTask(
                **{
                    **task.__dict__,
                    "seed_entropy": entropy,
                }
            )
        )
    return out


# -- run journal ----------------------------------------------------------
def _journal_task_record(
    task: RunTask,
    results: Sequence[RunResult],
    campaign_seed: int | None = None,
) -> dict:
    """One JSONL ``task`` record: the task's identity plus aggregated
    :class:`~repro.obs.stats.RunStats` over all its replications."""
    stats = [r.stats for r in results if r.stats is not None]
    backend = next((s.backend for s in stats if s.backend), task.simulator)
    # replications per batch kernel ("heap", "lockstep", "stepping");
    # empty for backends that report none
    kernels: dict[str, int] = {}
    for s in stats:
        kernel = s.extra.get("kernel")
        if kernel is not None:
            kernels[kernel] = kernels.get(kernel, 0) + 1
    record = {
        "kind": "task",
        "technique": task.technique,
        "n": task.params.n,
        "p": task.params.p,
        "h": task.params.h,
        "requested": task.simulator,
        "backend": backend,
        "runs": len(results),
        "wall_time_s": sum(s.wall_time for s in stats),
        "events": sum(s.events for s in stats),
        "fast_path_runs": sum(1 for s in stats if s.fast_path),
        "kernels": kernels,
        "seed_entropy": list(task.seed_entropy) or None,
    }
    if task.scenario is not None:
        record["scenario"] = task.scenario.name
        record["lost_chunks"] = sum(
            int(r.extras.get("lost_chunks", 0)) for r in results
        )
        record["lost_tasks"] = sum(
            int(r.extras.get("lost_tasks", 0)) for r in results
        )
    if campaign_seed is not None:
        record["campaign_seed"] = campaign_seed
    return record


def _journal_new_fallbacks(journal: RunJournal, seen_before: int) -> None:
    """Journal the fallback events recorded since ``seen_before``.

    The process-wide fallback log is peeked, not drained, so campaign
    reports still surface the same events afterwards.
    """
    for event in peek_fallback_events()[seen_before:]:
        journal.write({"kind": "fallback", **event.to_json()})


def _execute_tasks(
    tasks: Sequence[RunTask],
    processes: int | None,
    tracker: obs_progress.ProgressTracker | None = None,
) -> list[RunResult]:
    """Resolve every task in the parent, then execute (pooled or serial)."""
    for task in tasks:
        resolve_backend(task)
    processes = _usable_workers(processes)
    if processes <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            result = task.execute()
            results.append(result)
            _advance_progress(tracker, result)
        return results
    return _run_pooled(tasks, processes, tracker)


def _record_campaign_metrics(
    results: Sequence[RunResult], fallbacks_before: int
) -> None:
    """Fold results into the active metrics registry, if one is on."""
    registry = obs_metrics.active_registry()
    if registry is not None:
        obs_metrics.record_results(
            registry,
            results,
            new_fallbacks=len(peek_fallback_events()) - fallbacks_before,
        )


def run_campaign(tasks: Sequence[RunTask],
                 processes: int | None = None) -> list[RunResult]:
    """Execute tasks, parallelising over processes when it helps.

    Every task's backend is resolved in the parent process first, so
    unresolvable tasks fail fast and every capability degradation is
    recorded here (worker processes keep their own, discarded, fallback
    logs).  ``processes`` defaults to ``REPRO_WORKERS`` or the CPU
    count; with one process (or one task) the loop stays in-process,
    avoiding pickling overhead.  Results are returned in task order.

    While a result cache is active (:func:`repro.cache.set_cache` /
    ``--cache``), every task is looked up in the parent process first:
    hits are served from disk (one ``cache`` journal record each) and
    only the misses are simulated — then stored, so the next campaign
    sharing the cache skips them too.

    When a run journal is active (:func:`repro.obs.set_journal`), one
    ``task`` record is written per freshly simulated task, plus a
    ``fallback`` record per new capability degradation observed while
    resolving.  While a progress sink is active
    (:func:`repro.obs.set_progress`, or the journal itself), throttled
    heartbeats report tasks done/total, events/s, ETA and fallback
    count; while a metrics registry is active
    (:func:`repro.obs.set_registry`), freshly simulated results fold
    into its campaign histograms (cache traffic feeds the dedicated
    ``cache_*`` counters instead).
    """
    journal = active_journal()
    cache = active_cache()
    fallbacks_before = len(peek_fallback_events())
    results: list[RunResult | None] = [None] * len(tasks)
    miss_indices = list(range(len(tasks)))
    if cache is not None:
        miss_indices = []
        for index, task in enumerate(tasks):
            key = cache.task_key(task)
            describe = _cache_describe(task, runs=1)
            entry = cache.get(key, describe=describe)
            if entry is None:
                miss_indices.append(index)
                continue
            cache.maybe_verify(
                key, entry,
                lambda task=task: _fresh_results([task]),
                describe=describe,
            )
            _replay_entry_fallbacks(entry)
            results[index] = entry.results[0]
    miss_tasks = [tasks[i] for i in miss_indices]
    tracker = obs_progress.campaign_tracker(
        total=len(miss_tasks), label="campaign", journal=journal,
        fallback_baseline=fallbacks_before,
    ) if miss_tasks else None
    with obs_core.span("run_campaign", tasks=len(tasks)):
        with cache_suspended():
            fresh = _execute_tasks(miss_tasks, processes, tracker)
    if tracker is not None:
        tracker.finish()
    for index, result in zip(miss_indices, fresh):
        results[index] = result
    if cache is not None:
        for index, result in zip(miss_indices, fresh):
            task = tasks[index]
            cache.put(
                cache.task_key(task),
                [result],
                describe=_cache_describe(task, runs=1),
                wall_time_s=_stats_wall([result]),
                backend=result.stats.backend if result.stats else "",
                fallbacks=_task_fallbacks(task),
                platform=task.platform,
            )
    _record_campaign_metrics(fresh, fallbacks_before)
    if journal is not None:
        _journal_new_fallbacks(journal, fallbacks_before)
        for index, result in zip(miss_indices, fresh):
            journal.write(_journal_task_record(tasks[index], [result]))
    return results


def run_replicated(task: RunTask, runs: int, campaign_seed: int | None = None,
                   processes: int | None = None) -> list[RunResult]:
    """Convenience: expand replications of one task and run them.

    The task's backend is resolved once through the registry's fallback
    chain (recording :class:`~repro.backends.FallbackEvent` objects for
    any degradation).  Backends that support pooled block execution
    (``direct-batch``, ``msg-fast``) split the replications into blocks
    of :data:`BATCH_BLOCK_RUNS` (deterministic in the campaign seed,
    independent of the worker count) that each amortise one
    chunk-schedule precomputation; everything else takes the per-run
    scalar path.

    While a result cache is active, the *whole sweep* is one cache
    entry keyed by (task identity, ``runs``, ``campaign_seed``): a hit
    returns every replication from disk (one ``cache`` journal record,
    no ``task`` record) and replays the entry's stored fallback events
    so degradation reporting stays faithful; a miss simulates as usual
    and stores the sweep for the next campaign.

    When a run journal is active, a freshly simulated sweep is one
    ``task`` record (stats aggregated over all replications), plus a
    ``fallback`` record per new degradation.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    cache = active_cache()
    if cache is None:
        return _run_replicated_fresh(task, runs, campaign_seed, processes)
    key = cache.sweep_key(task, runs, campaign_seed)
    describe = _cache_describe(task, runs, campaign_seed)
    entry = cache.get(key, describe=describe)
    if entry is not None:
        cache.maybe_verify(
            key,
            entry,
            lambda: _fresh_sweep(task, runs, campaign_seed, processes),
            describe=describe,
        )
        _replay_entry_fallbacks(entry)
        return list(entry.results)
    with cache_suspended():
        results = _run_replicated_fresh(task, runs, campaign_seed, processes)
    backend = next(
        (r.stats.backend for r in results if r.stats is not None), ""
    )
    cache.put(
        key,
        results,
        kind="sweep",
        describe=describe,
        wall_time_s=_stats_wall(results),
        backend=backend,
        fallbacks=_task_fallbacks(task),
        platform=task.platform,
    )
    return results


def _fresh_sweep(task: RunTask, runs: int, campaign_seed: int | None,
                 processes: int | None) -> list[RunResult]:
    """Cache-blind sweep re-simulation (the ``--cache-verify`` recompute)."""
    with cache_suspended():
        return _run_replicated_fresh(task, runs, campaign_seed, processes)


def _run_replicated_fresh(
    task: RunTask, runs: int, campaign_seed: int | None,
    processes: int | None,
) -> list[RunResult]:
    """Simulate a replication sweep (the pre-cache ``run_replicated``)."""
    journal = active_journal()
    fallbacks_before = len(peek_fallback_events())
    backend = resolve_backend(task)
    tracker = obs_progress.campaign_tracker(
        total=runs, label=f"{task.technique} x{runs}", journal=journal,
        fallback_baseline=fallbacks_before,
    )
    with obs_core.span(
        "run_replicated", technique=task.technique, runs=runs
    ):
        blocks = backend.replication_blocks(task, runs, campaign_seed)
        if blocks is not None:
            processes = _usable_workers(processes)
            if processes <= 1 or len(blocks) <= 1:
                block_results = []
                for block in blocks:
                    group = block.execute()
                    block_results.append(group)
                    _advance_progress(tracker, group)
            else:
                block_results = _run_pooled(blocks, processes, tracker)
            results = [r for group in block_results for r in group]
        else:
            results = _execute_tasks(
                expand_replications(task, runs, campaign_seed),
                processes,
                tracker,
            )
    if tracker is not None:
        tracker.finish()
    _record_campaign_metrics(results, fallbacks_before)
    if journal is not None:
        _journal_new_fallbacks(journal, fallbacks_before)
        journal.write(
            _journal_task_record(task, results, campaign_seed=campaign_seed)
        )
    return results


def run_replicated_batch(
    sweeps: Sequence[tuple[RunTask, int, int | None]],
    processes: int | None = None,
    label: str = "batch",
) -> list[list[RunResult]]:
    """Execute many replication sweeps with *one* pooled dispatch.

    ``sweeps`` is a sequence of ``(task, runs, campaign_seed)`` triples
    — e.g. every candidate technique of one advisor query, or the
    union of several concurrent queries.  Each sweep is bit-identical
    to :func:`run_replicated` on the same triple (same cache keys, same
    seeds, same block partitioning), but the execution items of *all*
    cache misses — replication blocks for pooled-block backends,
    expanded per-run tasks otherwise — fan out over the shared process
    pool in a single ``imap`` pass, amortising pool dispatch across
    the whole batch instead of paying one round-trip per sweep.

    Cache, journal and metrics semantics match ``run_replicated``
    sweep-for-sweep: one sweep cache entry per miss (hits replay their
    stored fallback events), one journal ``task`` record per freshly
    simulated sweep, fresh results folded into the active metrics
    registry.
    """
    journal = active_journal()
    cache = active_cache()
    fallbacks_before = len(peek_fallback_events())
    results: list[list[RunResult] | None] = [None] * len(sweeps)
    misses: list[int] = []
    for index, (task, runs, campaign_seed) in enumerate(sweeps):
        if runs < 1:
            raise ValueError("runs must be >= 1")
        if cache is None:
            misses.append(index)
            continue
        key = cache.sweep_key(task, runs, campaign_seed)
        describe = _cache_describe(task, runs, campaign_seed)
        entry = cache.get(key, describe=describe)
        if entry is None:
            misses.append(index)
            continue
        cache.maybe_verify(
            key,
            entry,
            lambda task=task, runs=runs, seed=campaign_seed: _fresh_sweep(
                task, runs, seed, processes
            ),
            describe=describe,
        )
        _replay_entry_fallbacks(entry)
        results[index] = list(entry.results)
    # Per-sweep items stay contiguous and ordered, and _run_pooled
    # returns results in item order, so regrouping below reproduces the
    # serial run_replicated ordering bit for bit.
    items: list[RunTask | ReplicationBlock] = []
    owners: list[tuple[int, bool]] = []  # (sweep index, item is a block)
    for index in misses:
        task, runs, campaign_seed = sweeps[index]
        backend = resolve_backend(task)
        blocks = backend.replication_blocks(task, runs, campaign_seed)
        if blocks is not None:
            items.extend(blocks)
            owners.extend((index, True) for _ in blocks)
        else:
            expanded = expand_replications(task, runs, campaign_seed)
            items.extend(expanded)
            owners.extend((index, False) for _ in expanded)
    total_runs = sum(sweeps[index][1] for index in misses)
    tracker = obs_progress.campaign_tracker(
        total=total_runs, label=f"{label} x{len(misses)}", journal=journal,
        fallback_baseline=fallbacks_before,
    ) if items else None
    with obs_core.span(
        "run_replicated_batch", sweeps=len(sweeps), items=len(items)
    ):
        with cache_suspended():
            workers = _usable_workers(processes)
            if workers <= 1 or len(items) <= 1:
                outputs: list = []
                for item in items:
                    output = item.execute()
                    outputs.append(output)
                    _advance_progress(tracker, output)
            else:
                outputs = _run_pooled(items, workers, tracker)
    if tracker is not None:
        tracker.finish()
    fresh_groups: dict[int, list[RunResult]] = {i: [] for i in misses}
    for (index, is_block), output in zip(owners, outputs):
        if is_block:
            fresh_groups[index].extend(output)
        else:
            fresh_groups[index].append(output)
    all_fresh: list[RunResult] = []
    for index in misses:
        group = fresh_groups[index]
        results[index] = group
        all_fresh.extend(group)
        if cache is not None:
            task, runs, campaign_seed = sweeps[index]
            backend_name = next(
                (r.stats.backend for r in group if r.stats is not None), ""
            )
            cache.put(
                cache.sweep_key(task, runs, campaign_seed),
                group,
                kind="sweep",
                describe=_cache_describe(task, runs, campaign_seed),
                wall_time_s=_stats_wall(group),
                backend=backend_name,
                fallbacks=_task_fallbacks(task),
                platform=task.platform,
            )
    _record_campaign_metrics(all_fresh, fallbacks_before)
    if journal is not None:
        _journal_new_fallbacks(journal, fallbacks_before)
        for index in misses:
            task, runs, campaign_seed = sweeps[index]
            journal.write(_journal_task_record(
                task, results[index], campaign_seed=campaign_seed
            ))
    return results
