"""Task execution time distributions (Figure 2: "Task Execution Times").

A :class:`Workload` produces the execution times of tasks ``start ..
start+size-1``.  Four access paths exist:

* :meth:`Workload.sample` — per-task times (faithful path);
* :meth:`Workload.chunk_times_batch` — an ``(reps, C)`` matrix of chunk
  sums for a whole replication batch (the closed-form kernels);
* :meth:`Workload.chunk_times_round` — one chunk sum per ``(start,
  size)`` pair (one round of the stepping kernel);
* :meth:`Workload.chunk_time` — the sum of one chunk's task times (the
  scalar simulators).

Distributions with an exact closed-form sum override the draw paths:
constant → ``k * value``; exponential → ``Gamma(k, mean)``; gamma →
``Gamma(k a, theta)``; linear and trace → exact sums of their known task
times.  The closed forms live in two methods per class — the bulk
``chunk_times_batch``/``chunk_times_round`` pair and the scalar
``chunk_time`` — and ``tests/test_distributions.py`` pins them equal
value for value, with equal generator state afterwards.

Every path is bulk.  Per-task workloads draw ``sample`` for a slab of up
to :data:`_SLAB` values at a time, in chunk order, and sum each chunk with
:func:`_chunk_sums`.  NumPy ``Generator`` draws are sequential, so a slab
draw consumes the same stream as one draw per chunk, and the row sums are
NumPy's pairwise sums, bit-identical to each chunk's own ``.sum()``.  Only
a position-dependent workload without closed forms (``PerTaskSampling``
of a linear or trace workload) is sampled chunk by chunk.

Stationary workloads ignore ``start``; the position-dependent ones
(increasing, decreasing, trace) use it, which is why chunk boundaries are
expressed as ``(start, size)`` pairs everywhere in the simulators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def _validate_batch(
    starts: np.ndarray, sizes: np.ndarray, reps: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Normalise and validate ``chunk_times_batch`` arguments."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if starts.ndim != 1 or sizes.ndim != 1 or starts.size != sizes.size:
        raise ValueError(
            f"starts and sizes must be equal-length 1-D arrays, got "
            f"shapes {starts.shape} and {sizes.shape}"
        )
    if int(reps) < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return starts, sizes, int(reps)


#: Values drawn, generated or gathered per step of the bulk paths.  It
#: amortises the per-call cost of NumPy while keeping every temporary
#: small; only a single chunk larger than this is handled in one piece.
_SLAB = 4096


def _slabs(counts: np.ndarray):
    """Split items into consecutive runs of at most :data:`_SLAB` values.

    ``counts[i]`` is the number of values item ``i`` needs.  Yields ``(i,
    j, m)``: items ``i .. j-1`` need ``m`` values in total.  A run holds at
    least one item, so an item larger than the slab stands alone.
    """
    ends = np.cumsum(counts)
    i, n = 0, counts.size
    while i < n:
        base = int(ends[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(ends, base + _SLAB, side="right")))
        yield i, j, int(ends[j - 1]) - base
        i = j


def _chunk_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-chunk sums of ``values``, laid out chunk after chunk.

    Chunk ``i`` holds the next ``sizes[i] >= 1`` values.  The chunks of
    each size ``k`` are gathered into a ``(rows, k)`` block and summed
    along axis 1: NumPy's pairwise summation row by row, bit-identical to
    each chunk's own 1-D ``.sum()``.  A 1-task chunk's sum is the value.
    """
    k = int(sizes[0])
    if (sizes == k).all():
        return values if k == 1 else values.reshape(-1, k).sum(axis=1)
    offsets = np.cumsum(sizes) - sizes
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order]
    bounds = (np.flatnonzero(np.diff(ordered)) + 1).tolist()
    out = np.empty(sizes.size, dtype=np.float64)
    for lo, hi in zip([0] + bounds, bounds + [sizes.size]):
        k, rows = int(ordered[lo]), order[lo:hi]
        first = offsets[rows]
        if k == 1:
            out[rows] = values[first]
        else:
            out[rows] = values[first[:, None] + np.arange(k)].sum(axis=1)
    return out


class Workload(ABC):
    """Distribution of task execution times, in seconds."""

    #: True when task times depend on the task index.
    position_dependent: bool = False

    #: True when task times are a pure function of the task index — no
    #: RNG is consumed, so every replication (and every simulator path)
    #: produces bit-identical chunk times.  The batch stepping kernel's
    #: bit-identity contract and the result cache's per-task
    #: ``result_version`` both key off this flag.
    deterministic: bool = False

    @property
    @abstractmethod
    def mean(self) -> float:
        """Theoretical mean task time (the paper's ``mu``)."""

    @property
    @abstractmethod
    def std(self) -> float:
        """Theoretical standard deviation (the paper's ``sigma``)."""

    @abstractmethod
    def sample(self, start: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Execution times of tasks ``start .. start+size-1``."""

    def chunk_time(self, start: int, size: int, rng: np.random.Generator) -> float:
        """Total execution time of a chunk (sum of its task times).

        The default sums :meth:`sample`; distributions with a closed-form
        chunk sum override it with one scalar draw or product, equal value
        for value to their bulk paths.
        """
        if size <= 0:
            return 0.0
        return float(self.sample(start, size, rng).sum())

    def chunk_times_batch(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        reps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Chunk sums for ``reps`` independent replications at once.

        Returns an ``(reps, C)`` array whose column ``c`` holds ``reps``
        independent draws of the total time of the chunk ``(starts[c],
        sizes[c])``; an empty chunk takes 0.  The default draws per-task
        times through :meth:`sample` in column order — column ``c``'s
        ``reps`` chunks, then column ``c + 1``'s — one slab of whole
        columns per call, and sums them with :func:`_chunk_sums`.  The
        values and the generator state afterwards equal a :meth:`chunk_time`
        call per column and replication.  Distributions with an exact
        closed-form sum override this method.
        """
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        out = np.zeros((reps, sizes.size), dtype=np.float64)
        cols = np.flatnonzero(sizes > 0)
        if self.position_dependent:
            # No closed form and no shared stream position: chunk by chunk.
            for c in cols.tolist():
                st, sz = int(starts[c]), int(sizes[c])
                for r in range(reps):
                    out[r, c] = float(self.sample(st, sz, rng).sum())
            return out
        ks = sizes[cols]
        for i, j, m in _slabs(ks * reps):
            if m <= _SLAB:
                flat = self.sample(0, m, rng)
                sums = _chunk_sums(flat, np.repeat(ks[i:j], reps))
                out[:, cols[i:j]] = sums.reshape(j - i, reps).T
                continue
            # One column over the slab: draw it a few replications at a time.
            k = int(ks[i])
            step = max(1, _SLAB // k)
            for r in range(0, reps, step):
                rows = min(step, reps - r)
                flat = self.sample(0, rows * k, rng)
                out[r:r + rows, cols[i]] = flat.reshape(rows, k).sum(axis=1)
        return out

    def chunk_times_round(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One independent chunk-sum per ``(starts[k], sizes[k])`` pair.

        The sampling primitive of the batched *stepping* kernel
        (:mod:`repro.directsim.batch`): one scheduling round needs one
        draw per live replication, for replication-specific chunks — a
        ``(K,)`` vector rather than :meth:`chunk_times_batch`'s
        ``(reps, C)`` matrix.  It is that matrix's single row: one bulk
        draw for all ``K`` pairs, equal to a :meth:`chunk_time` call per
        pair.  Distributions with a closed-form chunk sum override it.
        """
        return self.chunk_times_batch(starts, sizes, 1, rng)[0]

    def serial_time(self, n: int) -> float:
        """Expected serial execution time of ``n`` tasks."""
        return n * self.mean

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class ConstantWorkload(Workload):
    """Every task takes exactly ``value`` seconds (TSS experiments)."""

    deterministic = True

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError(f"task time must be positive, got {value}")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def std(self) -> float:
        return 0.0

    def sample(self, start, size, rng) -> np.ndarray:
        return np.full(size, self.value)

    def chunk_time(self, start, size, rng) -> float:
        return float(size) * self.value if size > 0 else 0.0

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        # Exact: a chunk of k tasks always takes k * value seconds.  The
        # broadcast view is read-only but identical across replications.
        row = np.maximum(sizes, 0).astype(np.float64) * self.value
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        return np.maximum(sizes, 0).astype(np.float64) * self.value


class ExponentialWorkload(Workload):
    """Exponential task times (the BOLD experiments: mu = sigma = 1 s)."""

    def __init__(self, mean: float = 1.0):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._mean

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.exponential(self._mean, size=size)

    def chunk_time(self, start, size, rng) -> float:
        # The scalar twin of chunk_times_batch's Gamma(k, mean) draw.
        return float(rng.gamma(float(size), self._mean)) if size > 0 else 0.0

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        # Sum of k iid Exp(mean) is Gamma(k, mean): one draw per chunk,
        # exact; the whole (reps, C) matrix is a single vectorised call.
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        shapes = np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shape=shapes, scale=self._mean,
                         size=(reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        shapes = np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shape=shapes, scale=self._mean)


class UniformWorkload(Workload):
    """Uniform task times on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def std(self) -> float:
        return (self.high - self.low) / math.sqrt(12.0)

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


class NormalWorkload(Workload):
    """Normal task times truncated below at ``floor`` (default 0)."""

    def __init__(self, mean: float, std: float, floor: float = 0.0):
        if mean <= 0 or std < 0:
            raise ValueError("need mean > 0 and std >= 0")
        self._mean = float(mean)
        self._std = float(std)
        self.floor = float(floor)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._std

    def sample(self, start, size, rng) -> np.ndarray:
        return np.maximum(rng.normal(self._mean, self._std, size=size), self.floor)


class GammaWorkload(Workload):
    """Gamma task times (shape ``k``, scale ``theta``) — heavy-ish tails."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("need shape > 0 and scale > 0")
        self.shape = float(shape)
        self.scale = float(scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def std(self) -> float:
        return math.sqrt(self.shape) * self.scale

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=size)

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        return float(rng.gamma(self.shape * float(size), self.scale))

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        # Sum of k iid Gamma(a, theta) is Gamma(k a, theta): exact.
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        shapes = self.shape * np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shapes, self.scale, size=(reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        shapes = self.shape * np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shapes, self.scale)


class BimodalWorkload(Workload):
    """Mixture of two task classes (fast with prob. ``p_fast``, else slow)."""

    def __init__(self, fast: float, slow: float, p_fast: float = 0.5):
        if fast <= 0 or slow <= 0:
            raise ValueError("task times must be positive")
        if not 0 < p_fast < 1:
            raise ValueError("p_fast must be strictly between 0 and 1")
        self.fast = float(fast)
        self.slow = float(slow)
        self.p_fast = float(p_fast)

    @property
    def mean(self) -> float:
        return self.p_fast * self.fast + (1 - self.p_fast) * self.slow

    @property
    def std(self) -> float:
        m = self.mean
        ex2 = self.p_fast * self.fast**2 + (1 - self.p_fast) * self.slow**2
        return math.sqrt(max(0.0, ex2 - m * m))

    def sample(self, start, size, rng) -> np.ndarray:
        choice = rng.random(size) < self.p_fast
        return np.where(choice, self.fast, self.slow)


class LinearWorkload(Workload):
    """Deterministic linearly varying task times (Tzen & Ni's
    "decreasing" / "increasing" workloads).

    Task ``i`` of ``n`` takes ``first + (last - first) * i / (n - 1)``
    seconds.
    """

    position_dependent = True
    deterministic = True

    def __init__(self, n: int, first: float, last: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if first <= 0 or last <= 0:
            raise ValueError("task times must be positive")
        self.n = int(n)
        self.first = float(first)
        self.last = float(last)

    @property
    def mean(self) -> float:
        return (self.first + self.last) / 2.0

    @property
    def std(self) -> float:
        return abs(self.last - self.first) / math.sqrt(12.0)

    def _times_at(self, idx: np.ndarray) -> np.ndarray:
        """Times of the tasks at the (float) indices ``idx``, elementwise."""
        if self.n == 1:
            return np.full(idx.size, self.first)
        frac = np.clip(idx / (self.n - 1), 0.0, 1.0)
        return self.first + (self.last - self.first) * frac

    def _times(self, start: int, size: int) -> np.ndarray:
        return self._times_at(np.arange(start, start + size, dtype=np.float64))

    def _chunk_row(self, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Exact per-chunk sums, one slab of chunks' task times at a time.

        The times of a slab come from one elementwise :meth:`_times_at`
        call over the chunks' task indices, laid out chunk after chunk, so
        each chunk's values equal ``_times(start, size)`` and its sum is
        that array's ``.sum()``.
        """
        out = np.zeros(sizes.size, dtype=np.float64)
        live = np.flatnonzero(sizes > 0)
        ks = sizes[live]
        offsets = np.cumsum(ks) - ks
        # Value q of a slab is task ``start + q - offset`` of its chunk.
        shifts = starts[live] - offsets
        for i, j, m in _slabs(ks):
            idx = np.repeat(shifts[i:j] + offsets[i], ks[i:j]) + np.arange(m)
            times = self._times_at(idx.astype(np.float64))
            out[live[i:j]] = _chunk_sums(times, ks[i:j])
        return out

    def sample(self, start, size, rng) -> np.ndarray:
        return self._times(start, size)

    def chunk_time(self, start, size, rng) -> float:
        return float(self._times(start, size).sum()) if size > 0 else 0.0

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        row = self._chunk_row(starts, sizes)
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        starts, sizes, _ = _validate_batch(starts, sizes, 1)
        return self._chunk_row(starts, sizes)


def decreasing_workload(n: int, first: float, last: float) -> LinearWorkload:
    """Tzen & Ni's decreasing workload: task times fall from first to last."""
    if first < last:
        raise ValueError("decreasing workload needs first >= last")
    return LinearWorkload(n, first, last)


def increasing_workload(n: int, first: float, last: float) -> LinearWorkload:
    """Tzen & Ni's increasing workload: task times rise from first to last."""
    if first > last:
        raise ValueError("increasing workload needs first <= last")
    return LinearWorkload(n, first, last)


class PerTaskSampling(Workload):
    """Force per-task sampling of a wrapped workload.

    Disables the wrapped distribution's closed-form chunk sums (e.g. the
    exponential's Gamma draw) so every task time is drawn individually
    and summed — the faithful path of the chunk-time sampling ablation
    (DESIGN.md §6).  This wrapper inherits the base class's per-task
    ``chunk_time``/``chunk_times_batch``/``chunk_times_round``, which
    route through :meth:`sample`, so the inner closed forms are never
    consulted.
    """

    def __init__(self, inner: Workload):
        self.inner = inner
        self.position_dependent = inner.position_dependent
        self.deterministic = inner.deterministic

    @property
    def mean(self) -> float:
        return self.inner.mean

    @property
    def std(self) -> float:
        return self.inner.std

    def sample(self, start, size, rng) -> np.ndarray:
        return self.inner.sample(start, size, rng)


class TraceWorkload(Workload):
    """Replay recorded per-task execution times (Figure 2's trace input)."""

    position_dependent = True
    deterministic = True

    #: Prefix sums of ``times``, built on first use and never pickled.
    _csum: np.ndarray | None = None

    def __init__(self, times: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trace must be a non-empty 1-D array")
        if np.any(times < 0):
            raise ValueError("trace task times must be non-negative")
        self.times = times

    def __getstate__(self) -> dict:
        # The prefix sum is as large as the trace; pooled tasks rebuild it.
        state = dict(vars(self))
        state.pop("_csum", None)
        return state

    @property
    def mean(self) -> float:
        return float(self.times.mean())

    @property
    def std(self) -> float:
        return float(self.times.std())

    def sample(self, start, size, rng) -> np.ndarray:
        if start < 0 or start + size > self.times.size:
            raise IndexError(
                f"chunk [{start}, {start + size}) outside trace of "
                f"{self.times.size} tasks"
            )
        return self.times[start:start + size]

    def _chunk_row(self, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Chunk sums as prefix-sum differences (every draw path's form)."""
        if sizes.size and (
            starts.min(initial=0) < 0
            or (starts + sizes).max(initial=0) > self.times.size
        ):
            raise IndexError(
                f"chunks outside trace of {self.times.size} tasks"
            )
        if self._csum is None:
            self._csum = np.concatenate(([0.0], np.cumsum(self.times)))
        return self._csum[starts + np.maximum(sizes, 0)] - self._csum[starts]

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        row = self._chunk_row(np.array([start]), np.array([size]))
        return float(row[0])

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        row = self._chunk_row(starts, sizes)
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        starts, sizes, _ = _validate_batch(starts, sizes, 1)
        return self._chunk_row(starts, sizes)
