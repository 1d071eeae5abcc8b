"""Tests for the workload distributions."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SchedulingParams
from repro.core.registry import get_technique
from repro.workloads import distributions
from repro.workloads import (
    BimodalWorkload,
    ConstantWorkload,
    ExponentialWorkload,
    GammaWorkload,
    HagerupExponentialWorkload,
    LinearWorkload,
    NormalWorkload,
    PerTaskSampling,
    TraceWorkload,
    UniformWorkload,
    decreasing_workload,
    increasing_workload,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstant:
    def test_mean_std(self):
        w = ConstantWorkload(0.5)
        assert w.mean == 0.5
        assert w.std == 0.0

    def test_sample_values(self):
        w = ConstantWorkload(2.0)
        assert (w.sample(0, 10, rng()) == 2.0).all()

    def test_chunk_time_exact(self):
        w = ConstantWorkload(0.25)
        assert w.chunk_time(0, 8, rng()) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantWorkload(0.0)

    def test_serial_time(self):
        assert ConstantWorkload(2.0).serial_time(10) == 20.0


class TestExponential:
    def test_moments(self):
        w = ExponentialWorkload(3.0)
        assert w.mean == 3.0
        assert w.std == 3.0

    def test_sample_statistics(self):
        w = ExponentialWorkload(1.0)
        xs = w.sample(0, 100_000, rng(1))
        assert xs.mean() == pytest.approx(1.0, rel=0.02)
        assert xs.std() == pytest.approx(1.0, rel=0.03)

    def test_chunk_time_gamma_matches_sum_distribution(self):
        """Gamma(k) chunk draws and per-task sums agree statistically."""
        w = ExponentialWorkload(1.0)
        r = rng(2)
        k, m = 50, 4000
        gamma_draws = np.array([w.chunk_time(0, k, r) for _ in range(m)])
        sums = w.sample(0, k * m, rng(3)).reshape(m, k).sum(axis=1)
        assert gamma_draws.mean() == pytest.approx(sums.mean(), rel=0.02)
        assert gamma_draws.std() == pytest.approx(sums.std(), rel=0.1)

    def test_chunk_time_zero_size(self):
        assert ExponentialWorkload(1.0).chunk_time(0, 0, rng()) == 0.0

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            ExponentialWorkload(0.0)


class TestUniform:
    def test_moments(self):
        w = UniformWorkload(1.0, 3.0)
        assert w.mean == 2.0
        assert w.std == pytest.approx(2.0 / np.sqrt(12))

    def test_range(self):
        w = UniformWorkload(1.0, 3.0)
        xs = w.sample(0, 1000, rng())
        assert ((xs >= 1.0) & (xs <= 3.0)).all()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformWorkload(3.0, 1.0)


class TestNormal:
    def test_floor_applied(self):
        w = NormalWorkload(0.1, 5.0, floor=0.0)
        xs = w.sample(0, 1000, rng())
        assert (xs >= 0.0).all()

    def test_moments_declared(self):
        w = NormalWorkload(2.0, 0.5)
        assert w.mean == 2.0
        assert w.std == 0.5


class TestGamma:
    def test_moments(self):
        w = GammaWorkload(4.0, 0.5)
        assert w.mean == 2.0
        assert w.std == 1.0

    def test_chunk_time_closed_form_statistics(self):
        w = GammaWorkload(2.0, 0.5)
        r = rng(5)
        draws = np.array([w.chunk_time(0, 10, r) for _ in range(4000)])
        assert draws.mean() == pytest.approx(10 * w.mean, rel=0.03)


class TestBimodal:
    def test_values_from_modes(self):
        w = BimodalWorkload(1.0, 10.0, p_fast=0.7)
        xs = w.sample(0, 1000, rng())
        assert set(np.unique(xs)) <= {1.0, 10.0}

    def test_mean(self):
        w = BimodalWorkload(1.0, 10.0, p_fast=0.5)
        assert w.mean == 5.5

    def test_std_formula(self):
        w = BimodalWorkload(2.0, 4.0, p_fast=0.5)
        assert w.std == pytest.approx(1.0)

    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            BimodalWorkload(1.0, 2.0, p_fast=1.0)


class TestLinear:
    def test_decreasing(self):
        w = decreasing_workload(10, first=10.0, last=1.0)
        xs = w.sample(0, 10, rng())
        assert xs[0] == 10.0
        assert xs[-1] == 1.0
        assert (np.diff(xs) < 0).all()

    def test_increasing(self):
        w = increasing_workload(10, first=1.0, last=10.0)
        xs = w.sample(0, 10, rng())
        assert (np.diff(xs) > 0).all()

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            decreasing_workload(10, first=1.0, last=10.0)
        with pytest.raises(ValueError):
            increasing_workload(10, first=10.0, last=1.0)

    def test_chunk_time_is_exact_sum(self):
        w = LinearWorkload(100, 5.0, 1.0)
        r = rng()
        assert w.chunk_time(10, 20, r) == w.sample(10, 20, r).sum()

    def test_position_dependent_flag(self):
        assert LinearWorkload(10, 2.0, 1.0).position_dependent

    def test_single_task(self):
        w = LinearWorkload(1, 3.0, 3.0)
        assert w.sample(0, 1, rng())[0] == 3.0


class TestTraceWorkload:
    def test_replays_exact_values(self):
        times = np.array([0.1, 0.2, 0.3, 0.4])
        w = TraceWorkload(times)
        assert w.sample(1, 2, rng()).tolist() == [0.2, 0.3]

    def test_out_of_range_rejected(self):
        w = TraceWorkload(np.ones(4))
        with pytest.raises(IndexError):
            w.sample(2, 3, rng())

    def test_moments_from_data(self):
        w = TraceWorkload(np.array([1.0, 3.0]))
        assert w.mean == 2.0
        assert w.std == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceWorkload(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceWorkload(np.array([1.0, -0.1]))


class TestPerTaskSampling:
    def test_delegates_moments(self):
        w = PerTaskSampling(ExponentialWorkload(2.0))
        assert w.mean == 2.0
        assert w.std == 2.0

    def test_chunk_time_uses_per_task_path(self):
        # With the same generator state, the per-task path consumes k
        # variates while the wrapped gamma path consumes one; the values
        # must still agree in expectation.
        inner = ExponentialWorkload(1.0)
        w = PerTaskSampling(inner)
        draws = [w.chunk_time(0, 20, rng(i)) for i in range(2000)]
        assert np.mean(draws) == pytest.approx(20.0, rel=0.05)


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_all_samples_nonnegative(size, seed):
    workloads = [
        ConstantWorkload(1.0),
        ExponentialWorkload(1.0),
        UniformWorkload(0.5, 2.0),
        NormalWorkload(1.0, 0.5),
        GammaWorkload(2.0, 0.5),
        BimodalWorkload(0.5, 2.0),
        LinearWorkload(500, 2.0, 1.0),
    ]
    r = rng(seed)
    for w in workloads:
        xs = w.sample(0, size, r)
        assert xs.shape == (size,)
        assert (xs >= 0).all(), w


@settings(max_examples=20, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=100),
    size=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_chunk_time_nonnegative(start, size, seed):
    w = ExponentialWorkload(1.0)
    assert w.chunk_time(start, size, rng(seed)) >= 0.0


# ---------------------------------------------------------------------------
# The bulk draw paths equal the per-chunk loops they replaced
# ---------------------------------------------------------------------------
#
# The oracles below are the per-chunk draw loops the workloads used before
# their draw paths went bulk.  Every path must match them value for value
# and leave the generator in the same state.


def oracle_batch(w, starts, sizes, reps, r):
    """The per-chunk ``chunk_times_batch`` of each workload class."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    shapes = np.maximum(sizes, 0).astype(np.float64)
    if isinstance(w, ConstantWorkload):
        return np.broadcast_to(shapes * w.value, (reps, sizes.size))
    if isinstance(w, ExponentialWorkload):
        return r.gamma(shape=shapes, scale=w.mean, size=(reps, sizes.size))
    if isinstance(w, GammaWorkload):
        return r.gamma(w.shape * shapes, w.scale, size=(reps, sizes.size))
    if isinstance(w, TraceWorkload):
        csum = np.concatenate(([0.0], np.cumsum(w.times)))
        row = csum[starts + np.maximum(sizes, 0)] - csum[starts]
        return np.broadcast_to(row, (reps, sizes.size))
    if isinstance(w, LinearWorkload):
        row = np.array([
            w._times(int(st), int(sz)).sum() if sz > 0 else 0.0
            for st, sz in zip(starts, sizes)
        ])
        return np.broadcast_to(row, (reps, sizes.size))
    out = np.zeros((reps, sizes.size), dtype=np.float64)
    for c, (st, sz) in enumerate(zip(starts, sizes)):
        st, sz = int(st), int(sz)
        if sz <= 0:
            continue
        if w.position_dependent:
            for rep in range(reps):
                out[rep, c] = float(w.sample(st, sz, r).sum())
        else:
            flat = w.sample(st, sz * reps, r)
            out[:, c] = flat.reshape(reps, sz).sum(axis=1)
    return out


def oracle_round(w, starts, sizes, r):
    """The per-pair ``chunk_times_round``: one batch draw per pair."""
    out = np.empty(len(sizes), dtype=np.float64)
    for k, (st, sz) in enumerate(zip(starts, sizes)):
        if sz <= 0:
            out[k] = 0.0
        else:
            out[k] = oracle_batch(w, [st], [sz], 1, r)[0, 0]
    return out


N_TASKS = 1200


def every_workload():
    return {
        "constant": ConstantWorkload(0.5),
        "exponential": ExponentialWorkload(1.5),
        "uniform": UniformWorkload(0.5, 2.0),
        "normal": NormalWorkload(1.0, 0.5),
        "gamma": GammaWorkload(2.0, 0.5),
        "bimodal": BimodalWorkload(0.5, 4.0, p_fast=0.3),
        "increasing": increasing_workload(N_TASKS, 1.0, 7.0),
        "decreasing": decreasing_workload(N_TASKS, 9.0, 0.5),
        "trace": TraceWorkload(rng(11).exponential(2.0, N_TASKS)),
        "pertask-exponential": PerTaskSampling(ExponentialWorkload(1.0)),
        "pertask-gamma": PerTaskSampling(GammaWorkload(0.7, 2.0)),
        "pertask-linear": PerTaskSampling(
            decreasing_workload(N_TASKS, 3.0, 1.0)
        ),
    }


WORKLOADS = sorted(every_workload())

#: chunk sizes 1 (SS), 2-7, 8-128 and >128 (STAT, the GSS/FAC2 head)
SCHEDULES = ("ss", "css", "gss", "tss", "fac2", "stat")


def schedule(name, n=N_TASKS, p=8):
    params = SchedulingParams(n=n, p=p, h=0.2, mu=1.0, sigma=1.0)
    sizes = np.asarray(get_technique(name)(params).chunk_schedule())
    return np.cumsum(sizes) - sizes, sizes


def assert_same_draws(got, want, r_got, r_want):
    assert np.array_equal(got, want)
    assert r_got.bit_generator.state == r_want.bit_generator.state


def test_schedules_span_every_size_class():
    sizes = np.concatenate([schedule(name)[1] for name in SCHEDULES])
    assert (sizes == 1).any()
    assert ((sizes >= 2) & (sizes <= 7)).any()
    assert ((sizes >= 8) & (sizes <= 128)).any()
    assert (sizes > 128).any()


@pytest.mark.parametrize("technique", SCHEDULES)
@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("reps", [1, 5, 64])
def test_batch_equals_per_chunk_oracle(name, technique, reps):
    starts, sizes = schedule(technique)
    w = every_workload()[name]
    r_got, r_want = rng(reps), rng(reps)
    got = w.chunk_times_batch(starts, sizes, reps, r_got)
    want = oracle_batch(w, starts, sizes, reps, r_want)
    assert got.shape == (reps, sizes.size)
    assert_same_draws(got, want, r_got, r_want)


@pytest.mark.parametrize("slab", [1, 7, 64])
@pytest.mark.parametrize("name", WORKLOADS)
def test_batch_equals_oracle_across_slab_boundaries(monkeypatch, name, slab):
    """A tiny slab splits columns, chunks and replications across draws."""
    monkeypatch.setattr(distributions, "_SLAB", slab)
    w = every_workload()[name]
    for technique in ("ss", "gss", "fac2"):
        starts, sizes = schedule(technique, n=300, p=4)
        r_got, r_want = rng(3), rng(3)
        got = w.chunk_times_batch(starts, sizes, 5, r_got)
        want = oracle_batch(w, starts, sizes, 5, r_want)
        assert_same_draws(got, want, r_got, r_want)
        r_got, r_want = rng(4), rng(4)
        got = w.chunk_times_round(starts, sizes, r_got)
        want = oracle_round(w, starts, sizes, r_want)
        assert_same_draws(got, want, r_got, r_want)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_equals_per_pair_oracle(name, seed):
    """Random (start, size) pairs, zero sizes and repeats included."""
    gen = rng(100 + seed)
    sizes = np.concatenate([
        gen.integers(0, 8, 40), gen.integers(8, 200, 10), [0, 0, 1, 1, 300],
    ])
    gen.shuffle(sizes)
    starts = gen.integers(0, N_TASKS - sizes + 1)
    w = every_workload()[name]
    r_got, r_want = rng(seed), rng(seed)
    got = w.chunk_times_round(starts, sizes, r_got)
    want = oracle_round(w, starts, sizes, r_want)
    assert got.shape == sizes.shape
    assert_same_draws(got, want, r_got, r_want)


@pytest.mark.parametrize("name", WORKLOADS)
def test_round_of_nothing_draws_nothing(name):
    w = every_workload()[name]
    r = rng(5)
    before = r.bit_generator.state
    empty = np.zeros(0, dtype=np.int64)
    assert w.chunk_times_round(empty, empty, r).shape == (0,)
    assert w.chunk_times_round([3, 9], [0, 0], r).tolist() == [0.0, 0.0]
    assert r.bit_generator.state == before


@pytest.mark.parametrize("name", WORKLOADS)
def test_chunk_time_equals_one_replication_batch(name):
    """The scalar closed forms are the batch closed forms, draw for draw."""
    w = every_workload()[name]
    gen = rng(7)
    sizes = np.concatenate(
        [gen.integers(0, 9, 9000), gen.integers(9, 400, 1000)]
    )
    starts = gen.integers(0, N_TASKS - sizes + 1)
    r_scalar, r_batch = rng(8), rng(8)
    for st, sz in zip(starts.tolist(), sizes.tolist()):
        got = w.chunk_time(st, sz, r_scalar)
        assert isinstance(got, float)
        want = float(w.chunk_times_batch([st], [sz], 1, r_batch)[0, 0])
        assert got == want, (st, sz)
    assert r_scalar.bit_generator.state == r_batch.bit_generator.state


def test_hagerup_rounds_keep_its_scalar_sums():
    """erand48 rounds sum task by task, as its chunk_time does."""
    bulk = HagerupExponentialWorkload(mean=1.5, seed=4)
    scalar = HagerupExponentialWorkload(mean=1.5, seed=4)
    sizes = [3, 0, 1, 17, 9, 200]
    got = bulk.chunk_times_round([0] * len(sizes), sizes, rng())
    want = [scalar.chunk_time(0, k, rng()) for k in sizes]
    assert got.tolist() == want


def test_trace_prefix_sum_stays_out_of_pickles():
    fresh = TraceWorkload(rng(2).exponential(1.0, 5000))
    used = TraceWorkload(fresh.times.copy())
    r = rng(0)
    used.chunk_time(10, 20, r)
    used.chunk_times_batch([0, 100], [100, 50], 3, r)
    used.chunk_times_round([5], [7], r)
    assert used._csum is not None
    assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
    assert repr(used) == repr(fresh)
    clone = pickle.loads(pickle.dumps(used))
    assert clone._csum is None
    assert clone.chunk_time(10, 20, r) == used.chunk_time(10, 20, r)


def test_trace_bounds_checked_on_every_path():
    w = TraceWorkload(np.ones(10))
    r = rng()
    with pytest.raises(IndexError):
        w.chunk_time(8, 3, r)
    with pytest.raises(IndexError):
        w.chunk_times_batch([0, 8], [2, 3], 2, r)
    with pytest.raises(IndexError):
        w.chunk_times_round([-1], [2], r)


def test_drawing_leaves_numpy_ma_unimported():
    """``numpy.ma`` (imported by e.g. ``np.unique``) costs memory."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import tests.test_distributions as t\n"
        "for name, w in t.every_workload().items():\n"
        "    for technique in t.SCHEDULES:\n"
        "        starts, sizes = t.schedule(technique)\n"
        "        r = np.random.default_rng(0)\n"
        "        w.chunk_times_batch(starts, sizes, 5, r)\n"
        "        w.chunk_times_round(starts, sizes, r)\n"
        "        w.chunk_time(int(starts[1]), int(sizes[1]), r)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root}")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
