"""Weighted Factoring: heterogeneity-aware decreasing chunks.

Plain Factoring hands every worker the same ``remaining/(factor·N)`` chunk
regardless of its speed — on heterogeneous platforms the slow workers then
gate every batch.  Weighted Factoring (after Flynn Hummel et al.'s
follow-up to [14], adapted to the paper's platform model) sizes the chunk
for worker ``i`` proportionally to its compute rate:

    chunk_i = (remaining_now / factor) · S_i / Σ S_j

so every worker's chunk costs roughly the same *time*.  The size is
computed from the remaining workload at dispatch time (continuous decay)
rather than frozen per batch: a fixed per-batch allocation would force a
barrier — the master idling although a fast worker is starved, just
because the batch's slow-worker share is still outstanding — which
measures ~10% worse than plain factoring even on homogeneous platforms.
The chunk floor is weighted the same way (``min_chunk·S_i·N/ΣS``), keeping
its time semantics.

On homogeneous platforms the behaviour coincides with plain Factoring up
to the batch-versus-continuous decay profile (mean makespans agree within
a couple of percent; verified by tests); on heterogeneous platforms it is
strictly better.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.base import Scheduler
from repro.core.factoring import PoolSource, check_factoring
from repro.core.lockstep import ARRAY_OPS, SCALAR_OPS, KernelSpec, PoolKernel, expand_rows
from repro.platform.spec import PlatformSpec

__all__ = [
    "WeightedFactoring",
    "WeightedFactoringSource",
    "WeightedFactoringKernel",
    "WeightedFactoringKernelSpec",
    "speed_weights",
    "survivor_weight",
    "weighted_chunk",
]


def speed_weights(platform: PlatformSpec) -> list[float]:
    """Each worker's share of the platform's compute rate, ``S_i / ΣS``."""
    s_tot = platform.total_compute_rate()
    return [w.S / s_tot for w in platform]


def survivor_weight(ops, weight, live_weights):
    """``weight`` renormalized over the survivors' weights, summed left to right."""
    return weight / ops.fold(live_weights)


def weighted_chunk(ops, remaining, factor, weight, min_chunk, n_live):
    """A worker's speed share of ``remaining / factor``, floored, capped by the pool."""
    share = (remaining / factor) * weight
    return ops.min(ops.max(share, min_chunk * weight * n_live), remaining)


class WeightedFactoringSource(PoolSource):
    """Per-run state: first-idle dispatch with speed-weighted sizes.

    The pool rule (idle-first worker choice, loss absorption, crash
    filtering) is :class:`~repro.core.factoring.PoolSource`'s; after a
    crash the speed weights are renormalized over the survivors.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        total_work: float,
        factor: float,
        min_chunk: float,
        phase: str = "weighted-factoring",
    ):
        super().__init__(platform.N, total_work, factor, min_chunk, phase)
        self._weights = speed_weights(platform)

    def _size(self, worker: int, n_live: int, crashed: "tuple[int, ...]") -> float:
        weight = self._weights[worker]
        if crashed:
            live = [w for i, w in enumerate(self._weights) if i not in crashed]
            weight = survivor_weight(SCALAR_OPS, weight, live)
        return weighted_chunk(
            SCALAR_OPS, self._remaining, self._factor, weight, self._min_chunk, n_live
        )


@dataclasses.dataclass
class WeightedFactoringKernelSpec(KernelSpec):
    """One weighted-factoring run's binding.

    The :class:`WeightedFactoringSource` parameters; the kernel derives
    the speed weights from ``platform`` as the source does.  The
    lookahead is always the classic 1 (see :mod:`repro.core.lockstep`).
    """

    n: int = 0
    total_work: float = 0.0
    factor: float = 2.0
    min_chunk: float = 1.0
    platform: "PlatformSpec | None" = None
    phase: str = "weighted-factoring"

    group_key = ("weighted-factoring",)
    handles_crashes = True

    def make_kernel(self, specs, reps, n_max):
        return WeightedFactoringKernel(specs, reps, n_max)

    def source(self) -> WeightedFactoringSource:
        return WeightedFactoringSource(
            self.platform, self.total_work, self.factor, self.min_chunk, self.phase
        )


class WeightedFactoringKernel(PoolKernel):
    """Lockstep rows of weighted-factoring state.

    The size rules are the scalar source's :func:`weighted_chunk` and
    :func:`survivor_weight`.  Padded worker slots carry weight 0 and are
    never selected (the engine never reports them idle).  On
    rows with observed crashes the fold sums the survivors' weights with
    the crashed and padded slots as exact ``+0.0`` terms, and ``n`` is
    the live count; the rest is the shared
    :class:`~repro.core.lockstep.PoolKernel` step.
    """

    def __init__(self, specs, reps, n_max):
        super().__init__(specs, reps, n_max)
        self._factor = expand_rows([s.factor for s in specs], reps, dtype=float)
        self._min_chunk = expand_rows([s.min_chunk for s in specs], reps, dtype=float)
        padded = np.zeros((len(specs), n_max))
        for i, s in enumerate(specs):
            padded[i, : s.n] = speed_weights(s.platform)
        self._weights = np.repeat(padded, reps, axis=0)

    def compact(self, keep) -> None:
        super().compact(keep)
        self._factor = self._factor[keep]
        self._min_chunk = self._min_chunk[keep]
        self._weights = self._weights[keep]

    def _sizes(self, disp, worker, n_live, crashed):
        wgt = np.take_along_axis(self._weights, worker[:, None], axis=1)[:, 0]
        if crashed is not None:
            hit = np.flatnonzero(disp & (n_live < self._n))
            if hit.size:
                live = np.where(crashed[hit], 0.0, self._weights[hit])
                wgt[hit] = survivor_weight(ARRAY_OPS, wgt[hit], live)
        return weighted_chunk(
            ARRAY_OPS, self._remaining, self._factor, wgt, self._min_chunk, n_live
        )


class WeightedFactoring(Scheduler):
    """Weighted Factoring scheduler (see module docstring)."""

    def __init__(self, factor: float = 2.0, min_chunk: float = 1.0):
        check_factoring(factor, min_chunk)
        self.factor = factor
        self.min_chunk = min_chunk
        self.name = "WeightedFactoring"

    def batch_kernel(
        self, platform: PlatformSpec, total_work: float
    ) -> WeightedFactoringKernelSpec:
        return WeightedFactoringKernelSpec(
            n=platform.N,
            total_work=total_work,
            factor=self.factor,
            min_chunk=self.min_chunk,
            platform=platform,
        )
