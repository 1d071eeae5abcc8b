"""Cross-validation of the vectorized batch kernel against the scalar
direct simulator (the reference oracle), plus the runner integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import chunk_sizes
from repro.core.params import SchedulingParams
from repro.core.registry import get_technique
from repro.directsim import (
    BatchDirectSimulator,
    BatchScheduleUnavailableError,
    DirectSimulator,
    LognormalFluctuation,
    OverheadModel,
    StepFluctuation,
    batch_supported,
)
from repro.experiments.bold_experiments import scheduling_params
from repro.experiments.runner import RunTask, run_replicated
from repro.workloads import ConstantWorkload, ExponentialWorkload
from repro.workloads.distributions import GammaWorkload
from repro.workloads.generator import make_rng

#: every technique on the closed-form fast path
BATCHABLE = (
    "stat", "ss", "css", "fsc", "gss", "tss", "fac", "fac2", "tap",
    "tfss", "fiss", "viss",
)
#: techniques served by the batched stepping kernel (worker-dependent
#: or adaptive — no precomputable schedule, but a vectorized state)
STEPPABLE = ("wf", "pls", "rnd", "bold", "awf", "af")


def params(n=257, p=3, h=0.25):
    return SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)


class TestBatchSupported:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_fast_path_techniques(self, name):
        assert batch_supported(name)

    @pytest.mark.parametrize("name", STEPPABLE)
    def test_stepping_techniques(self, name):
        assert batch_supported(name)

    def test_every_registered_technique_is_batchable(self):
        """Closed form + stepping together cover the whole registry."""
        from repro.core.registry import technique_names

        assert all(batch_supported(name) for name in technique_names())


class TestChunkSchedule:
    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("n,p", [(0, 4), (1, 4), (257, 3), (1024, 8)])
    def test_matches_scalar_drain(self, name, n, p):
        """chunk_schedule() must replay exactly what next_chunk produces."""
        make = get_technique(name)
        pr = SchedulingParams(n=n, p=p, h=0.25, mu=1.0, sigma=1.0)
        closed_form = make(pr).chunk_schedule()
        drained = chunk_sizes(make(pr))
        assert closed_form is not None
        assert closed_form.tolist() == list(drained)
        assert int(closed_form.sum()) == n

    def test_worker_dependent_returns_none(self):
        assert get_technique("wf")(params()).chunk_schedule() is None

    def test_used_scheduler_rejected(self):
        sched = get_technique("ss")(params())
        sched.next_chunk(0)
        with pytest.raises(ValueError):
            sched.chunk_schedule()


class TestKernelIdentity:
    """Per-replication equality with the scalar oracle on deterministic
    workloads: same makespan, compute times, chunk counts — bit for bit."""

    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("model", list(OverheadModel))
    def test_constant_workload(self, name, model):
        pr = params()
        workload = ConstantWorkload(1.0)
        factory = get_technique(name)
        scalar = DirectSimulator(pr, workload, overhead_model=model)
        batch = BatchDirectSimulator(pr, workload, overhead_model=model)
        want = scalar.run(factory, seed=0)
        got = batch.run_batch(factory, 3, seed=0)
        for r in got:
            assert r.makespan == want.makespan
            assert r.compute_times == want.compute_times
            assert r.chunks_per_worker == want.chunks_per_worker
            assert r.num_chunks == want.num_chunks
            assert r.total_task_time == want.total_task_time

    def test_heterogeneous_speeds_and_start_times(self):
        pr = params(n=511, p=4)
        workload = ConstantWorkload(2.0)
        speeds = [1.0, 2.0, 0.5, 1.5]
        starts = [0.0, 3.0, 1.0, 0.0]
        factory = get_technique("fac2")
        scalar = DirectSimulator(pr, workload, speeds=speeds,
                                 start_times=starts)
        batch = BatchDirectSimulator(pr, workload, speeds=speeds,
                                     start_times=starts)
        want = scalar.run(factory, seed=0)
        got = batch.run_batch(factory, 1, seed=0)[0]
        assert got.makespan == want.makespan
        assert got.compute_times == want.compute_times
        assert got.chunks_per_worker == want.chunks_per_worker

    def test_block_streaming_matches_single_block(self):
        """Splitting reps over internal memory blocks must not change
        per-replication results (same rng order per block boundary)."""
        pr = params(n=64, p=2)
        workload = ConstantWorkload(1.0)
        factory = get_technique("gss")
        one = BatchDirectSimulator(pr, workload).run_batch(factory, 5, seed=1)
        tiny = BatchDirectSimulator(
            pr, workload, max_block_elements=1
        ).run_batch(factory, 5, seed=1)
        assert [r.makespan for r in one] == [r.makespan for r in tiny]


def _observables(result):
    return (
        result.makespan, result.compute_times, result.chunks_per_worker,
        result.num_chunks, result.total_task_time,
    )


def _kernels(results):
    return {r.stats.extra["kernel"] for r in results}


class TestHeapKernel:
    """Small closed-form blocks run a per-replication heap loop instead
    of the lock-step argmin kernel; the two are bit-identical on the same
    RNG, and the block size alone picks between them."""

    SPEEDS = [1.0, 2.0, 0.5, 1.5, 3.0]
    STARTS = [0.0, 3.0, 1.0, 0.0, 0.5]

    def simulator(self, workload, model=OverheadModel.POST_HOC, **kwargs):
        return BatchDirectSimulator(
            params(n=389, p=5), workload, overhead_model=model,
            speeds=self.SPEEDS, start_times=self.STARTS, **kwargs,
        )

    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("model", list(OverheadModel))
    @pytest.mark.parametrize(
        "workload", [ConstantWorkload(1.0), ExponentialWorkload(1.0)],
        ids=lambda w: type(w).__name__,
    )
    def test_heap_equals_lockstep(self, name, model, workload):
        from repro.core.schedule import precompute_schedule

        sim = self.simulator(workload, model)
        sched = precompute_schedule(get_technique(name)(sim.params))
        args = (sched.label, sched.starts, sched.sizes, 4)
        heap = sim._run_heap_block(*args, make_rng(7))
        lockstep = sim._run_block(*args, make_rng(7))
        assert _kernels(heap) == {"heap"}
        assert _kernels(lockstep) == {"lockstep"}
        assert [_observables(r) for r in heap] == [
            _observables(r) for r in lockstep
        ]

    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("model", list(OverheadModel))
    def test_heap_equals_scalar_on_constant_workload(self, name, model):
        workload = ConstantWorkload(1.0)
        factory = get_technique(name)
        want = DirectSimulator(
            params(n=389, p=5), workload, overhead_model=model,
            speeds=self.SPEEDS, start_times=self.STARTS,
        ).run(factory, seed=0)
        got = self.simulator(workload, model).run_batch(factory, 2, seed=0)
        assert _kernels(got) == {"heap"}
        for r in got:
            assert _observables(r) == _observables(want)

    @pytest.mark.parametrize("reps,kernel", [
        (1, "heap"), (16, "heap"), (17, "lockstep"), (64, "lockstep"),
    ])
    def test_block_size_picks_the_kernel(self, reps, kernel):
        from repro.directsim.batch import HEAP_MAX_REPS

        assert HEAP_MAX_REPS == 16
        got = self.simulator(ExponentialWorkload(1.0)).run_batch(
            get_technique("fac2"), reps, seed=3
        )
        assert _kernels(got) == {kernel}
        assert {r.stats.extra["block_reps"] for r in got} == {reps}

    @pytest.mark.parametrize(
        "workload", [ConstantWorkload(1.0), ExponentialWorkload(1.0)],
        ids=lambda w: type(w).__name__,
    )
    def test_streamed_heap_blocks_equal_one_lockstep_block(self, workload):
        """20 reps as heap blocks of 7 + 7 + 6 replay the one 20-rep
        lock-step block draw for draw."""
        from repro.core.schedule import precompute_schedule

        factory = get_technique("gss")
        sim = self.simulator(workload)
        num_chunks = precompute_schedule(factory(sim.params)).sizes.size
        one = sim.run_batch(factory, 20, seed=1)
        streamed = self.simulator(
            workload, max_block_elements=7 * num_chunks
        ).run_batch(factory, 20, seed=1)
        assert _kernels(one) == {"lockstep"}
        assert _kernels(streamed) == {"heap"}
        assert [r.stats.extra["block_reps"] for r in streamed] == (
            [7] * 14 + [6] * 6
        )
        assert [_observables(r) for r in streamed] == [
            _observables(r) for r in one
        ]

    @pytest.mark.parametrize("fluctuation", [
        StepFluctuation({1: (2.0, 0.5)}),
        LognormalFluctuation(0.3),
        LognormalFluctuation(0.0),
    ], ids=["step", "lognormal", "lognormal-zero"])
    def test_perturbed_cells_never_take_the_heap(self, fluctuation):
        got = self.simulator(
            ExponentialWorkload(1.0), fluctuation=fluctuation
        ).run_batch(get_technique("fac2"), 3, seed=2)
        assert _kernels(got) == {"lockstep"}

    def test_stepping_blocks_are_labelled(self):
        got = self.simulator(ExponentialWorkload(1.0)).run_batch(
            get_technique("awf"), 3, seed=2
        )
        assert _kernels(got) == {"stepping"}

    def test_paper_scale_sweep_stays_on_lockstep(self):
        """R = 1000 reaches the kernel as 15 blocks of 64 plus one of 40,
        all above the heap threshold."""
        task = RunTask(
            technique="ss",
            params=scheduling_params(16, 2),
            workload=ExponentialWorkload(1.0),
            simulator="direct-batch",
        )
        got = run_replicated(task, 1000, campaign_seed=4, processes=1)
        assert len(got) == 1000
        assert _kernels(got) == {"lockstep"}
        block_reps = [r.stats.extra["block_reps"] for r in got]
        assert sorted(set(block_reps)) == [40, 64]
        assert block_reps.count(40) == 40


class TestKernelDistribution:
    """Stochastic workloads: batch means must agree with scalar means."""

    @pytest.mark.parametrize("name", ("ss", "fac", "gss"))
    def test_exponential_means_agree(self, name):
        pr = SchedulingParams(n=1024, p=8, h=0.5, mu=1.0, sigma=1.0)
        workload = ExponentialWorkload(1.0)
        factory = get_technique(name)
        runs = 200
        rng_seed = np.random.SeedSequence(42)
        batch = BatchDirectSimulator(pr, workload)
        got = batch.run_batch(factory, runs, rng_seed)
        scalar = DirectSimulator(pr, workload)
        want = [scalar.run(factory, seed=1000 + i) for i in range(runs)]
        gm = np.mean([r.average_wasted_time for r in got])
        wm = np.mean([r.average_wasted_time for r in want])
        gs = np.std([r.average_wasted_time for r in got])
        # within ~4 standard errors of each other
        tol = 4 * gs / np.sqrt(runs) + 4 * np.std(
            [r.average_wasted_time for r in want]
        ) / np.sqrt(runs)
        assert abs(gm - wm) <= tol

    def test_unsupported_technique_raises(self):
        """A technique with neither a closed-form schedule nor a
        registered stepping state is rejected with a clear error (wf et
        al. used to be the example; they are steppable now)."""
        from repro.core.base import Scheduler

        class _Opaque(Scheduler):
            name = "opaque-test-only"
            label = "OPAQUE"
            requires = frozenset({"p", "n"})
            deterministic_schedule = False

            def _chunk_size(self, worker: int) -> int:
                return 1

        batch = BatchDirectSimulator(params(), ConstantWorkload(1.0))
        with pytest.raises(BatchScheduleUnavailableError):
            batch.run_batch(_Opaque, 2, seed=0)


class TestChunkTimesBatchDispatch:
    """Satellite: chunk_times_batch and chunk_time share one closed-form
    dispatch — a batch of one must equal the scalar call exactly."""

    @pytest.mark.parametrize(
        "workload",
        [
            ConstantWorkload(1.5),
            ExponentialWorkload(2.0),
            GammaWorkload(2.0, 0.5),
        ],
        ids=lambda w: type(w).__name__,
    )
    @pytest.mark.parametrize("size", [1, 7, 128])
    def test_batch_of_one_equals_scalar(self, workload, size):
        starts = np.asarray([3], dtype=np.int64)
        sizes = np.asarray([size], dtype=np.int64)
        a = workload.chunk_times_batch(starts, sizes, 1, make_rng(9))[0, 0]
        b = workload.chunk_time(3, size, make_rng(9))
        assert a == b

    def test_batch_shape_and_positivity(self):
        workload = ExponentialWorkload(1.0)
        sizes = np.asarray([4, 1, 9], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        out = workload.chunk_times_batch(starts, sizes, 5, make_rng(0))
        assert out.shape == (5, 3)
        assert (out > 0).all()


class TestRunnerIntegration:
    def make_task(self, technique="fac2", simulator="direct-batch"):
        return RunTask(
            technique=technique,
            params=scheduling_params(512, 4),
            workload=ExponentialWorkload(1.0),
            simulator=simulator,
        )

    def test_direct_batch_deterministic(self):
        a = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        b = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]
        assert len({r.makespan for r in a}) == 6

    def test_direct_batch_pool_matches_sequential(self):
        """Block seeding is worker-count independent: 2-process pool and
        the in-process loop must produce identical campaigns."""
        from repro.experiments.runner import BATCH_BLOCK_RUNS

        runs = BATCH_BLOCK_RUNS + 5  # force >1 block
        task = self.make_task()
        seq = run_replicated(task, runs, campaign_seed=11, processes=1)
        pooled = run_replicated(task, runs, campaign_seed=11, processes=2)
        assert [r.makespan for r in pooled] == [r.makespan for r in seq]

    def test_adaptive_runs_natively_on_batch(self):
        """BOLD on direct-batch is served by the stepping kernel — no
        fallback event — and on a deterministic workload it is
        bit-identical to the scalar oracle run-for-run."""
        import dataclasses

        from repro.backends import drain_fallback_events

        drain_fallback_events()
        batch_task = dataclasses.replace(
            self.make_task("bold"), workload=ConstantWorkload(1.0)
        )
        got = run_replicated(batch_task, 3, campaign_seed=5, processes=1)
        assert all(r.stats.backend == "direct-batch" for r in got)
        assert drain_fallback_events() == []
        want = run_replicated(
            dataclasses.replace(batch_task, simulator="direct"), 3,
            campaign_seed=5, processes=1,
        )
        assert [r.makespan for r in got] == [r.makespan for r in want]

    def test_single_run_task_execute(self):
        result = self.make_task().execute()
        assert result.total_task_time > 0
        assert result.num_chunks > 0

    def test_repro_workers_env(self, monkeypatch):
        from repro.experiments.runner import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(7) == 7  # explicit argument wins
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers() >= 1


class TestSeedPlumbing:
    """Satellite: RunTask without explicit entropy must be reproducible
    (seed derived from the task's fields, not OS entropy)."""

    def make_task(self):
        return RunTask(
            technique="fac2",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
        )

    def test_empty_entropy_is_deterministic(self):
        assert self.make_task().execute().makespan == \
            self.make_task().execute().makespan

    def test_derived_entropy_depends_on_fields(self):
        a = self.make_task()
        b = RunTask(**{**a.__dict__, "technique": "gss"})
        assert a.derived_entropy() != b.derived_entropy()

    def test_explicit_entropy_wins(self):
        a = self.make_task()
        b = RunTask(**{**a.__dict__, "seed_entropy": (1, 2, 3)})
        assert b.seed_sequence().entropy == [1, 2, 3]
        assert a.execute().makespan != b.execute().makespan
