"""The Hagerup-faithful exponential workload.

Unlike :class:`repro.workloads.distributions.ExponentialWorkload` (which
uses NumPy's generator), this workload draws its variates from the exact
``erand48`` stream Hagerup's 1997 simulator used, in sequential task order.
It exists so the reference ("published") values regenerated by
:mod:`repro.experiments.published` come from the same generator family as
the original study; see DESIGN.md §3.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Workload
from .rand48 import Rand48


class HagerupExponentialWorkload(Workload):
    """Exponential task times from a dedicated ``erand48`` stream.

    The stream is owned by this object and advances with every draw, so
    chunk times depend on the draw *order* (as in the original simulator),
    not on task indices.  Construct one instance per run.
    """

    def __init__(self, mean: float = 1.0, seed: int = 0):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)
        self._rand = Rand48(seed)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._mean

    def sample(self, start, size, rng) -> np.ndarray:
        # ``rng`` is part of the Workload interface but unused: the
        # erand48 stream is the authoritative source.
        out = np.empty(size, dtype=np.float64)
        for i in range(size):
            out[i] = -self._mean * math.log(1.0 - self._rand.erand48())
        return out

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        total = 0.0
        for _ in range(size):
            total += -self._mean * math.log(1.0 - self._rand.erand48())
        return total

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        # Rounds keep chunk_time's left-to-right sum of the stream rather
        # than the base class's pairwise sums of ``sample``.
        sizes = np.asarray(sizes, dtype=np.int64).tolist()
        return np.array(
            [self.chunk_time(0, k, rng) for k in sizes], dtype=np.float64
        )
