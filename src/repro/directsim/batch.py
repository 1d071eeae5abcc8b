"""Vectorized batch-replication kernel for the direct simulator.

The BOLD reproduction needs up to 1,000 replications per (technique, n,
p) cell; :class:`~repro.directsim.simulator.DirectSimulator` executes
each replication through a pure-Python heap loop with one RNG draw and
one scheduler call per chunk — half a million Python iterations per SS
replication at n = 524,288.  This module simulates all R replications of
one cell from bulk NumPy draws instead, without a scheduler call per
chunk, in three layers:

1. **Chunk-schedule precomputation** — for techniques whose chunk
   sequence is a pure function of ``(n, p, params)``
   (:attr:`~repro.core.base.Scheduler.deterministic_schedule`), the
   ``(start, size)`` sequence is computed once per cell via
   :meth:`~repro.core.base.Scheduler.chunk_schedule` and reused across
   all replications.
2. **Bulk sampling** — :meth:`~repro.workloads.distributions.Workload.
   chunk_times_batch` draws the whole ``(R, C)`` matrix of chunk times
   in one vectorised call per cell (Gamma for exponential, ``k * v``
   for constant, ...).
3. **Worker assignment** — two kernels replay the scalar simulator's
   earliest-ready, lowest-index assignment over the drawn matrix, and
   :meth:`BatchDirectSimulator.run_batch` picks one per replication
   block:

   * the **lock-step kernel** replaces the heap with one argmin over
     the whole ``(R, p)`` ready matrix per chunk, all replications at
     once — cheap per replication when R is large;
   * the **heap kernel** runs the scalar loop itself, one ``(ready,
     worker)`` heap per replication over the pre-drawn row — no
     per-chunk NumPy call overhead, so it wins when R is small.

   Blocks of at most :data:`HEAP_MAX_REPS` (16) replications on an
   unperturbed cell take the heap; everything else takes lock-step.
   Measured µs per chunk at n = 8192, heap vs lock-step (2-vCPU x86-64):

   ====  ===========  ===========  ===========
   R     p = 2        p = 64       p = 1024
   ====  ===========  ===========  ===========
   1     0.6 vs 23    0.9 vs 22    1.3 vs 20
   16    9.8 vs 21    14 vs 22     19 vs 19
   32    17 vs 23     21.5 vs 23   27 vs 28
   64    33 vs 25     38 vs 19     59 vs 32
   ====  ===========  ===========  ===========

   Both kernels take the same single ``chunk_times_batch`` draw per
   block and perform the scalar float operations in the scalar order
   (true division by the speed, then the overhead model's ``begin``,
   then ``end = begin + elapsed``), with ``(time, worker)`` tie-breaking
   — argmin's first occurrence equals the heap's order.  The kernel is
   therefore invisible in the results: the two are bit-identical to
   each other, per-replication results on deterministic workloads are
   *identical* to ``DirectSimulator``, and on stochastic workloads they
   are equal in distribution (the scalar simulator remains the
   reference oracle; see ``tests/test_batch_kernel.py``).  Each result
   names its kernel in ``stats.extra["kernel"]`` (``"heap"``,
   ``"lockstep"`` or ``"stepping"``).  Perturbed cells stay on
   lock-step: lognormal noise draws from the block RNG once per round,
   which a per-replication loop would reorder.

Techniques whose chunk sequence *cannot* be precomputed — the adaptive
feedback loops (AWF family, AF, BOLD) and the worker-dependent
schedules (WF, PLS, RND) — run on the **batched stepping kernel**
instead: all R replications advance in lock-step, one scheduling round
at a time, with each technique's adaptive state held as ``(R,)``/``(R,
p)`` arrays (:mod:`repro.core.stepping`).  One round performs one
argmin worker pop, one deferred completion report, one vectorized
chunk-size update and one bulk chunk-time draw per live replication —
the same fidelity contract as the closed-form path (bit-identical for
deterministic workloads, equal in distribution otherwise; see
``tests/test_stepping_kernel.py`` and docs/simulators.md).

Perturbation scenarios run vectorized too: per-chunk speed-fluctuation
multipliers (triangle waves, step slowdowns, lognormal load noise —
the models a :class:`repro.scenarios.Scenario` compiles to) apply on
both paths, and fail-stop fault injection with work loss runs on the
stepping path (dead PEs are masked out of the argmin pop; lost chunk
regions requeue through the same LIFO stack semantics as the scalar
scheduler).  Deterministic perturbations stay bit-identical to the
scalar simulator; lognormal noise shares the block RNG, so stochastic
scenarios are equal in distribution only.  Fail-stop on a *closed-form*
technique is the one unsupported combination (dynamic requeueing
invalidates a precomputed schedule) — callers fall back to the scalar
simulator there.  Per-chunk execution logs are recorded only on request
(``record_chunks=True``) and only on the stepping path — the
closed-form path keeps its log-free fast lane.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Sequence

import numpy as np

from ..core.base import ChunkRecord, Scheduler
from ..core.params import SchedulingParams
from ..core.schedule import (
    ScheduleUnavailableError,
    closed_form_supported,
    precompute_schedule,
)
from ..core.stepping import stepping_state_for, stepping_supported
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.distributions import Workload
from ..workloads.generator import make_rng
from .accounting import OverheadModel
from .faults import (
    AllWorkersFailedError,
    CompositeFluctuation,
    CyclicFluctuation,
    FailStop,
    Fluctuation,
    LognormalFluctuation,
    StepFluctuation,
)

#: cap on R * C elements per simulated block (~128 MB of float64), so
#: huge cells (SS at n = 524,288) stream through in replication blocks.
DEFAULT_MAX_BLOCK_ELEMENTS = 1 << 24

#: closed-form blocks of at most this many replications run the
#: per-replication heap loop; larger blocks run the lock-step argmin
#: kernel (the measured crossover lies between 16 and 32 replications;
#: see the table in the module docstring)
HEAP_MAX_REPS = 16

#: the heap loop converts a replication's draws to Python floats this
#: many at a time, so a 524,288-chunk SS row never lives as one list
_HEAP_SLICE = 1 << 12

#: the stepping path holds ~this many (R, p) state arrays alive at once
#: (kernel counters plus the technique state), so its replication blocks
#: are sized to keep the total near ``max_block_elements`` elements.
_STEPPING_STATE_ARRAYS = 8


def batch_supported(technique: str | type[Scheduler]) -> bool:
    """True when ``technique`` can run on the batch kernel.

    Either of the two vectorized paths qualifies: a precomputable
    closed-form chunk schedule (:func:`repro.core.schedule.
    closed_form_supported`, shared with the MSG fast path) or a
    registered batched stepping state (:func:`repro.core.stepping.
    stepping_supported`) for the feedback-loop techniques.
    """
    return closed_form_supported(technique) or stepping_supported(technique)


#: backward-compatible alias: the shared precomputation error
BatchScheduleUnavailableError = ScheduleUnavailableError


class _PerturbationArrays:
    """Fault/fluctuation models lowered to per-worker arrays.

    Built once per simulator from the scalar mechanism models in
    :mod:`repro.directsim.faults`; the kernels index the arrays with the
    popped worker vector each round.  Only the model types a
    :class:`repro.scenarios.Scenario` compiles to have an array form —
    an arbitrary :class:`~repro.directsim.faults.Fluctuation` callable
    is rejected at construction time with a pointer to the scalar
    simulator.

    The deterministic models (wave, step) use only exactly-rounded IEEE
    operations in the same order as their scalar counterparts, so the
    multipliers — and everything downstream — are bit-identical to
    :class:`~repro.directsim.simulator.DirectSimulator`.  Lognormal
    noise draws from the shared block RNG instead of one interleaved
    draw per pop, so stochastic scenarios are equal in distribution
    only.
    """

    __slots__ = ("fail_times", "_components")

    def __init__(
        self,
        p: int,
        failures: FailStop | None,
        fluctuation: Fluctuation | None,
    ):
        self.fail_times: np.ndarray | None = None
        if failures is not None:
            if not isinstance(failures, FailStop):
                raise ValueError(
                    f"cannot vectorize failure model "
                    f"{type(failures).__name__}; use the scalar direct "
                    "simulator"
                )
            fail = np.full(p, np.inf)
            for worker, fail_time in failures.fail_times.items():
                if worker < p:  # like the scalar dict: extra PEs never pop
                    fail[worker] = float(fail_time)
            self.fail_times = fail
        self._components: list[tuple] = []
        for component in self._flatten(fluctuation):
            lowered = self._lower(p, component)
            if lowered is not None:
                self._components.append(lowered)

    @staticmethod
    def _flatten(fluctuation: Fluctuation | None) -> tuple:
        if fluctuation is None:
            return ()
        if isinstance(fluctuation, CompositeFluctuation):
            return fluctuation.components
        return (fluctuation,)

    @staticmethod
    def _lower(p: int, component) -> tuple | None:
        if isinstance(component, CyclicFluctuation):
            phase = np.zeros(p)
            mask = np.zeros(p, dtype=bool)
            for worker, value in component.phases.items():
                if worker < p:
                    phase[worker] = float(value)
                    mask[worker] = True
            return ("wave", component.period, component.amplitude,
                    phase, mask)
        if isinstance(component, StepFluctuation):
            times = np.full(p, np.inf)
            factors = np.ones(p)
            for worker, (step_time, factor) in component.factors.items():
                if worker < p:
                    times[worker] = float(step_time)
                    factors[worker] = float(factor)
            return ("step", times, factors)
        if isinstance(component, LognormalFluctuation):
            if component.sigma == 0:  # scalar returns 1.0 without a draw
                return None
            return ("noise", -component.sigma ** 2 / 2.0, component.sigma)
        raise ValueError(
            f"cannot vectorize fluctuation model "
            f"{type(component).__name__}; use the scalar direct simulator"
        )

    @property
    def has_fluctuation(self) -> bool:
        return bool(self._components)

    def speed_multipliers(
        self, w: np.ndarray, t: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | None:
        """The per-pop speed factors for workers ``w`` popped at ``t``.

        Factors multiply in component order — the scalar
        :class:`~repro.directsim.faults.CompositeFluctuation` contract —
        and a leading implicit 1.0 is dropped (``1.0 * x == x`` bitwise).
        Returns ``None`` when no fluctuation component is present.
        """
        mult: np.ndarray | None = None
        for component in self._components:
            kind = component[0]
            if kind == "wave":
                _, period, amplitude, phase, mask = component
                x = t / period + phase[w]
                u = x - np.floor(x)
                m = np.where(
                    mask[w],
                    1.0 + amplitude * (4.0 * np.abs(u - 0.5) - 1.0),
                    1.0,
                )
            elif kind == "step":
                _, times, factors = component
                m = np.where(t >= times[w], factors[w], 1.0)
            else:  # noise
                _, mean, sigma = component
                m = rng.lognormal(mean=mean, sigma=sigma, size=t.shape)
            mult = m if mult is None else mult * m
        return mult


class BatchDirectSimulator:
    """Batch-replication counterpart of :class:`DirectSimulator`.

    Takes the same cell description (params, workload, overhead model,
    speeds, start times, failures, fluctuation) but simulates ``reps``
    independent replications per :meth:`run_batch` call using the
    vectorized kernel.  Fluctuation applies on both paths; fail-stop
    fault injection runs on the stepping path only (a precomputed
    closed-form schedule cannot absorb requeued work — use the scalar
    simulator there).  ``record_chunks`` keeps per-chunk execution logs
    on the stepping path only (the closed-form path has no per-chunk
    loop to log from).
    """

    def __init__(
        self,
        params: SchedulingParams,
        workload: Workload,
        overhead_model: OverheadModel = OverheadModel.POST_HOC,
        speeds: Sequence[float] | None = None,
        start_times: Sequence[float] | None = None,
        max_block_elements: int = DEFAULT_MAX_BLOCK_ELEMENTS,
        record_chunks: bool = False,
        failures: FailStop | None = None,
        fluctuation: Fluctuation | None = None,
    ):
        self.params = params
        self.workload = workload
        self.overhead_model = overhead_model
        if speeds is None:
            speeds = [1.0] * params.p
        if len(speeds) != params.p:
            raise ValueError(f"need {params.p} speeds, got {len(speeds)}")
        if any(s <= 0 for s in speeds):
            raise ValueError("speeds must all be positive")
        self.speeds = np.asarray(speeds, dtype=np.float64)
        if start_times is None:
            start_times = [0.0] * params.p
        if len(start_times) != params.p:
            raise ValueError(
                f"need {params.p} start times, got {len(start_times)}"
            )
        if any(t < 0 for t in start_times):
            raise ValueError("start times must be non-negative")
        self.start_times = np.asarray(start_times, dtype=np.float64)
        if max_block_elements < 1:
            raise ValueError("max_block_elements must be >= 1")
        self.max_block_elements = int(max_block_elements)
        self.record_chunks = record_chunks
        self.failures = failures
        self.fluctuation = fluctuation
        # None for a clean system, so the kernels' per-round perturbation
        # branches reduce to one ``is None`` check (scenario=None is a
        # no-op on the hot path — perfbench's figures-quick workload,
        # whose cells are all unperturbed, guards this).
        self._perturb: _PerturbationArrays | None = None
        if failures is not None or fluctuation is not None:
            self._perturb = _PerturbationArrays(
                params.p, failures, fluctuation
            )

    def run_batch(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        reps: int,
        seed: int | np.random.SeedSequence | None = None,
    ) -> list[RunResult]:
        """Simulate ``reps`` independent replications of the cell.

        ``scheduler`` may be a fresh instance or a factory, exactly as
        for :meth:`DirectSimulator.run`.  Closed-form techniques take
        the schedule-precomputation path — the heap kernel for blocks
        of at most :data:`HEAP_MAX_REPS` unperturbed replications, the
        lock-step kernel otherwise; feedback-loop techniques with
        a registered stepping state take the lock-step round kernel
        (the instance then serves as the never-mutated prototype its
        batched state is built from).  All replications share one RNG
        stream spawned from ``seed`` (how that stream is split over
        internal blocks is an implementation detail — per-replication
        results are equal in distribution to scalar runs, not
        draw-for-draw identical for stochastic workloads).
        """
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        rng = make_rng(seed)
        results: list[RunResult] = []
        done = 0
        if closed_form_supported(scheduler):
            if self._perturb is not None and (
                self._perturb.fail_times is not None
            ):
                raise ScheduleUnavailableError(
                    f"{scheduler.label or scheduler.name} has only a "
                    "precomputed closed-form schedule, which fail-stop "
                    "requeueing would invalidate; use the scalar "
                    "simulator for fault scenarios on this technique"
                )
            schedule = precompute_schedule(scheduler)
            label, starts, sizes = (
                schedule.label, schedule.starts, schedule.sizes
            )
            block = max(1, self.max_block_elements // max(1, sizes.size))
            while done < reps:
                r = min(block, reps - done)
                # Both kernels consume the RNG identically (one
                # chunk_times_batch draw per block) and produce
                # bit-identical results; only their cost differs.
                # Perturbed cells stay on lock-step: lognormal noise
                # draws from the block RNG once per round.
                if r <= HEAP_MAX_REPS and self._perturb is None:
                    kernel = self._run_heap_block
                else:
                    kernel = self._run_block
                results.extend(kernel(label, starts, sizes, r, rng))
                done += r
        elif stepping_supported(scheduler):
            block = max(
                1,
                self.max_block_elements
                // (_STEPPING_STATE_ARRAYS * max(1, self.params.p)),
            )
            while done < reps:
                r = min(block, reps - done)
                results.extend(self._run_stepping_block(scheduler, r, rng))
                done += r
        else:
            raise ScheduleUnavailableError(
                f"{scheduler.label or scheduler.name} has neither a "
                "precomputable chunk schedule nor a batched stepping "
                "state; use a scalar simulator"
            )
        return results

    # -- the kernel ------------------------------------------------------
    def _run_block(
        self,
        label: str,
        starts: np.ndarray,
        sizes: np.ndarray,
        reps: int,
        rng: np.random.Generator,
    ) -> list[RunResult]:
        t_wall = time.perf_counter()
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        num_chunks = sizes.size

        # Layer 2: one vectorised draw for every (replication, chunk).
        task_times = self.workload.chunk_times_batch(starts, sizes, reps, rng)

        # Layer 3: argmin-over-ready-times assignment, all replications
        # at once.  Matches the scalar heap exactly: the heap holds one
        # entry per worker, pops the (time, worker) minimum — ties break
        # toward the lowest worker index, as argmin does.
        ready = np.tile(self.start_times, (reps, 1))
        compute = np.zeros((reps, p))
        counts = np.zeros((reps, p), dtype=np.int64)
        makespan = np.zeros(reps)
        rows = np.arange(reps)
        if model is OverheadModel.SERIALIZED_MASTER:
            master_free = np.zeros(reps)

        perturb = self._perturb
        for c in range(num_chunks):
            w = np.argmin(ready, axis=1)
            t = ready[rows, w]
            # True division (not multiplication by a reciprocal) so the
            # ready times match the scalar simulator bit-for-bit; the
            # scalar loop multiplies the fluctuation factor into the
            # speed before dividing, so the perturbed branch does too.
            if perturb is None:
                elapsed = task_times[:, c] / self.speeds[w]
            else:
                mult = perturb.speed_multipliers(w, t, rng)
                speed = self.speeds[w] if mult is None else (
                    self.speeds[w] * mult
                )
                elapsed = task_times[:, c] / speed
            if model is OverheadModel.PER_WORKER:
                begin = t + h
            elif model is OverheadModel.SERIALIZED_MASTER:
                np.maximum(master_free, t, out=master_free)
                master_free += h
                begin = master_free
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed
            ready[rows, w] = end
            compute[rows, w] += elapsed
            counts[rows, w] += 1
            np.maximum(makespan, end, out=makespan)

        return self._closed_form_results(
            label, num_chunks, makespan.tolist(), compute.tolist(),
            counts.tolist(), task_times, t_wall, "lockstep",
        )

    def _run_heap_block(
        self,
        label: str,
        starts: np.ndarray,
        sizes: np.ndarray,
        reps: int,
        rng: np.random.Generator,
    ) -> list[RunResult]:
        """The closed-form block as one ``(ready, worker)`` heap loop per
        replication — the scalar simulator's loop over pre-drawn times.

        Draws exactly what :meth:`_run_block` draws and performs the
        scalar ``DirectSimulator``'s float operations in its order, so
        the two kernels are bit-identical; it wins where the lock-step
        kernel's per-chunk NumPy overhead is paid for only a few
        replications (see :data:`HEAP_MAX_REPS`).
        """
        t_wall = time.perf_counter()
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        per_worker = model is OverheadModel.PER_WORKER
        serialized = model is OverheadModel.SERIALIZED_MASTER
        num_chunks = sizes.size
        speeds = self.speeds.tolist()
        start_times = self.start_times.tolist()

        task_times = self.workload.chunk_times_batch(starts, sizes, reps, rng)

        heapreplace = heapq.heapreplace
        makespans: list[float] = []
        computes: list[list[float]] = []
        counts_all: list[list[int]] = []
        for r in range(reps):
            # One entry per worker, (time, worker) ordered: ties break
            # toward the lowest worker index, like the lock-step argmin.
            ready = [(start_times[w], w) for w in range(p)]
            heapq.heapify(ready)
            compute = [0.0] * p
            counts = [0] * p
            makespan = 0.0
            master_free = 0.0
            row = task_times[r]
            for lo in range(0, num_chunks, _HEAP_SLICE):
                for x in row[lo:lo + _HEAP_SLICE].tolist():
                    t, w = ready[0]
                    elapsed = x / speeds[w]
                    if per_worker:
                        begin = t + h
                    elif serialized:
                        master_free = max(master_free, t) + h
                        begin = master_free
                    else:  # POST_HOC
                        begin = t
                    end = begin + elapsed
                    heapreplace(ready, (end, w))
                    compute[w] += elapsed
                    counts[w] += 1
                    if end > makespan:
                        makespan = end
            makespans.append(makespan)
            computes.append(compute)
            counts_all.append(counts)

        return self._closed_form_results(
            label, num_chunks, makespans, computes, counts_all, task_times,
            t_wall, "heap",
        )

    def _closed_form_results(
        self,
        label: str,
        num_chunks: int,
        makespans: list[float],
        computes: list[list[float]],
        counts: list[list[int]],
        task_times: np.ndarray,
        t_wall: float,
        kernel: str,
    ) -> list[RunResult]:
        reps = len(makespans)
        total = task_times.sum(axis=1).tolist()
        # Each replication carries its share of the block's wall time;
        # ``events`` is the chunk-assignment count, as on the scalar path.
        wall_share = (time.perf_counter() - t_wall) / reps
        p = self.params.p
        return [
            RunResult(
                technique=label,
                n=self.params.n,
                p=p,
                h=self.params.h,
                overhead_model=self.overhead_model,
                makespan=makespans[r],
                compute_times=computes[r],
                chunks_per_worker=counts[r],
                num_chunks=num_chunks,
                total_task_time=total[r],
                extras={"lost_chunks": 0, "lost_tasks": 0},
                stats=RunStats(
                    fast_path=True,
                    events=num_chunks,
                    heap_peak=p,
                    live_peak=p,
                    wall_time=wall_share,
                    extra={"block_reps": reps, "kernel": kernel},
                ),
            )
            for r in range(reps)
        ]

    # -- the stepping kernel ---------------------------------------------
    def _run_stepping_block(
        self,
        prototype: Scheduler,
        reps: int,
        rng: np.random.Generator,
    ) -> list[RunResult]:
        """Advance ``reps`` replications in lock-step, one round at a time.

        One round replays one scalar heap pop for every live
        replication, in the scalar loop's exact order: pop the
        earliest-ready worker (argmin; ties break toward the lowest
        index, like the heap), report that worker's pending chunk
        completion to the scheduler state (deferred reporting), compute
        and clip the chunk sizes, then draw the chunk times and advance
        the clocks.  Replications whose tasks are exhausted drop out of
        the round set, exactly as the scalar loop stops popping once
        the scheduler is done (its final pending completions are never
        consulted again, so they are not reported).

        Under a fail-stop model the round additionally mirrors the
        scalar fault semantics: a popped worker that is already dead
        reports its pending completion (the chunk finished before the
        failure) and is masked out of future pops; a worker that dies
        mid-chunk loses the chunk — its task region is pushed onto a
        per-replication LIFO requeue stack that overrides the next
        chunk-size assignments, exactly like the scalar scheduler's
        ``requeue_chunk``/``next_chunk`` pair.  A replication whose
        live workers are all dead while tasks remain raises
        :class:`~repro.directsim.faults.AllWorkersFailedError`, like
        the scalar loop's empty-heap exit.
        """
        t_wall = time.perf_counter()
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        label = prototype.label or prototype.name
        state = stepping_state_for(prototype, reps)

        remaining = np.full(reps, self.params.n, dtype=np.int64)
        outstanding = np.zeros(reps, dtype=np.int64)
        next_task = np.zeros(reps, dtype=np.int64)
        num_chunks = np.zeros(reps, dtype=np.int64)
        ready = np.tile(self.start_times, (reps, 1))
        compute = np.zeros((reps, p))
        counts = np.zeros((reps, p), dtype=np.int64)
        makespan = np.zeros(reps)
        total = np.zeros(reps)
        pend_size = np.zeros((reps, p), dtype=np.int64)
        pend_elapsed = np.zeros((reps, p))
        if model is OverheadModel.SERIALIZED_MASTER:
            master_free = np.zeros(reps)
        logs: list[list[ChunkExecution]] | None = (
            [[] for _ in range(reps)] if self.record_chunks else None
        )

        perturb = self._perturb
        fail_times = perturb.fail_times if perturb is not None else None
        lost_chunks = np.zeros(reps, dtype=np.int64)
        lost_tasks = np.zeros(reps, dtype=np.int64)
        if fail_times is not None:
            # Scalar Scheduler._requeued: one LIFO (start, region) stack
            # per replication, consulted before advancing next_task.
            requeued: list[list[tuple[int, int]]] = [[] for _ in range(reps)]
            has_requeue = np.zeros(reps, dtype=bool)

        while True:
            rows = np.flatnonzero(remaining > 0)
            if rows.size == 0:
                break
            w = np.argmin(ready[rows], axis=1)
            t = ready[rows, w]
            if fail_times is not None and not np.all(np.isfinite(t)):
                # The argmin found only dead (inf-ready) workers for
                # some replication: the scalar loop's empty-heap exit.
                rep = int(rows[np.flatnonzero(~np.isfinite(t))[0]])
                raise AllWorkersFailedError(
                    f"{int(remaining[rep])} tasks remain but no live "
                    f"worker can execute them (replication {rep})"
                )

            # Deferred completion reporting happens before the dead-PE
            # check, like the scalar loop: a chunk that finished before
            # its worker's failure still feeds the adaptive state.
            fin_size = pend_size[rows, w]
            fin = fin_size > 0
            if fin.any():
                fr, fw = rows[fin], w[fin]
                outstanding[fr] -= fin_size[fin]
                state.record_finished(
                    fr, fw, fin_size[fin], pend_elapsed[fr, fw]
                )
                pend_size[fr, fw] = 0

            if fail_times is not None:
                pre_dead = t >= fail_times[w]
                if pre_dead.any():
                    # Dead PEs never request work again: mask them out
                    # of every future argmin pop.
                    ready[rows[pre_dead], w[pre_dead]] = np.inf
                    keep = ~pre_dead
                    rows, w, t = rows[keep], w[keep], t[keep]
                    if rows.size == 0:
                        continue

            sizes = state.chunk_sizes(
                rows, w, remaining[rows], outstanding[rows]
            )
            # The scalar next_chunk clip: never beyond the remaining
            # tasks, and always progress while work remains.
            sizes = np.maximum(
                np.minimum(sizes.astype(np.int64), remaining[rows]), 1
            )
            if fail_times is None or not has_requeue[rows].any():
                starts = next_task[rows]
                next_task[rows] += sizes
            else:
                # Scalar next_chunk: when the requeue stack is
                # non-empty, the clipped size is served from the
                # stack's top region (split or consumed whole) and
                # next_task does not advance.
                starts = next_task[rows].copy()
                advance = sizes.copy()
                for k in np.flatnonzero(has_requeue[rows]):
                    stack = requeued[rows[k]]
                    rstart, region = stack.pop()
                    size_k = int(sizes[k])
                    if size_k < region:
                        stack.append((rstart + size_k, region - size_k))
                    else:
                        sizes[k] = region
                    starts[k] = rstart
                    advance[k] = 0
                    has_requeue[rows[k]] = bool(stack)
                next_task[rows] += advance
            remaining[rows] -= sizes
            outstanding[rows] += sizes
            num_chunks[rows] += 1
            state.after_assignment(rows, w, sizes)

            task_time = self.workload.chunk_times_round(starts, sizes, rng)
            if perturb is None:
                elapsed = task_time / self.speeds[w]
            else:
                # The scalar loop multiplies the fluctuation factor
                # into the speed before the (bit-exact) true division.
                mult = perturb.speed_multipliers(w, t, rng)
                speed = self.speeds[w] if mult is None else (
                    self.speeds[w] * mult
                )
                elapsed = task_time / speed
            if model is OverheadModel.PER_WORKER:
                begin = t + h
            elif model is OverheadModel.SERIALIZED_MASTER:
                # The scalar loop advances master_free before the
                # mid-chunk failure check, so a lost chunk still
                # occupies the master.
                mf = np.maximum(master_free[rows], t) + h
                master_free[rows] = mf
                begin = mf
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed

            if fail_times is not None:
                died = fail_times[w] < end
                if died.any():
                    # The PE dies mid-chunk: work is lost and the task
                    # region requeued; the PE never pops again.
                    dr, dw = rows[died], w[died]
                    dsizes = sizes[died]
                    remaining[dr] += dsizes
                    outstanding[dr] -= dsizes
                    lost_chunks[dr] += 1
                    lost_tasks[dr] += dsizes
                    ready[dr, dw] = np.inf
                    dstarts = starts[died]
                    for k in range(dr.size):
                        requeued[dr[k]].append(
                            (int(dstarts[k]), int(dsizes[k]))
                        )
                        has_requeue[dr[k]] = True
                    keep = ~died
                    rows, w, sizes, starts = (
                        rows[keep], w[keep], sizes[keep], starts[keep]
                    )
                    task_time, elapsed = task_time[keep], elapsed[keep]
                    begin, end = begin[keep], end[keep]
                    if rows.size == 0:
                        continue

            ready[rows, w] = end
            compute[rows, w] += elapsed
            counts[rows, w] += 1
            total[rows] += task_time
            # Per-worker end times only ever grow, so the running max
            # over all chunk ends equals the scalar max(finish).
            makespan[rows] = np.maximum(makespan[rows], end)
            pend_size[rows, w] = sizes
            pend_elapsed[rows, w] = elapsed
            if logs is not None:
                for k in range(rows.size):
                    rep = int(rows[k])
                    logs[rep].append(ChunkExecution(
                        ChunkRecord(
                            index=int(num_chunks[rep]) - 1,
                            worker=int(w[k]),
                            start=int(starts[k]),
                            size=int(sizes[k]),
                        ),
                        float(begin[k]),
                        float(elapsed[k]),
                    ))

        wall_share = (time.perf_counter() - t_wall) / reps
        return [
            RunResult(
                technique=label,
                n=self.params.n,
                p=p,
                h=h,
                overhead_model=model,
                makespan=float(makespan[r]),
                compute_times=compute[r].tolist(),
                chunks_per_worker=counts[r].tolist(),
                num_chunks=int(num_chunks[r]),
                total_task_time=float(total[r]),
                chunk_log=logs[r] if logs is not None else [],
                extras={
                    "lost_chunks": int(lost_chunks[r]),
                    "lost_tasks": int(lost_tasks[r]),
                },
                stats=RunStats(
                    fast_path=True,
                    events=int(num_chunks[r]),
                    heap_peak=p,
                    live_peak=p,
                    wall_time=wall_share,
                    extra={"block_reps": reps, "kernel": "stepping"},
                ),
            )
            for r in range(reps)
        ]


def batch_replicate(
    simulator: BatchDirectSimulator,
    factory: Callable[[SchedulingParams], Scheduler],
    runs: int,
    seed: int | None = None,
) -> list[RunResult]:
    """Batched counterpart of :func:`repro.directsim.simulator.replicate`."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return simulator.run_batch(factory, runs, np.random.SeedSequence(seed))
