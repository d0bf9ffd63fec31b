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

from repro.core.base import WAIT, Dispatch, DispatchSource, MasterView, Scheduler, Wait
from repro.core.lockstep import (
    DISPATCH,
    DONE,
    WAIT_FOR_COMPLETION,
    KernelSpec,
    LockstepKernel,
    drain_rows,
    expand_rows,
    first_idle,
)
from repro.platform.spec import PlatformSpec

__all__ = [
    "WeightedFactoring",
    "WeightedFactoringSource",
    "WeightedFactoringKernel",
    "WeightedFactoringKernelSpec",
]


class WeightedFactoringSource(DispatchSource):
    """Per-run state: first-idle dispatch with speed-weighted sizes.

    Like :class:`~repro.core.factoring.FactoringSource`, a chunk goes only
    to an idle worker, the lowest-index one first; with none idle the
    source waits.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        total_work: float,
        factor: float,
        min_chunk: float,
        phase: str = "weighted-factoring",
    ):
        if factor <= 1.0:
            raise ValueError(f"factoring factor must be > 1, got {factor}")
        if min_chunk < 0:
            raise ValueError(f"min_chunk must be >= 0, got {min_chunk}")
        self._n = platform.N
        s_tot = platform.total_compute_rate()
        self._weights = [w.S / s_tot for w in platform]
        self._remaining = total_work
        self._epsilon = 1e-12 * max(total_work, 1.0)
        self._factor = factor
        self._min_chunk = min_chunk
        self._phase = phase
        self._loss_cursor = 0

    @property
    def remaining(self) -> float:
        """Workload not yet dispatched."""
        return self._remaining

    def _size_for(self, worker: int, weight: float, n_live: int) -> float:
        # The batch-equivalent share is remaining/factor split over the
        # live platform in proportion to speed; for worker i that is
        # remaining/factor * w_i (live weights sum to 1).
        share = (self._remaining / self._factor) * weight
        floor = self._min_chunk * weight * n_live
        return min(max(share, floor), self._remaining)

    def _absorb_losses(self, view: MasterView) -> None:
        losses = view.observed_losses()
        while self._loss_cursor < len(losses):
            self._remaining += losses[self._loss_cursor].size
            self._loss_cursor += 1

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        # Recovery path mirrors FactoringSource: absorb announced losses,
        # drop observed-crashed workers from the candidate set, and
        # renormalize the speed weights over the survivors.
        crashed: tuple[int, ...] = ()
        if view.faults_possible:
            self._absorb_losses(view)
            crashed = view.crashed_workers()
        if self._remaining <= self._epsilon:
            if view.faults_possible and view.any_pending():
                return WAIT
            return None
        if crashed:
            crashed_set = set(crashed)
            live = [i for i in range(self._n) if i not in crashed_set]
            if not live:
                return None
            worker = view.first_idle(crashed)
            if worker is None:
                return WAIT
            live_weight = sum(self._weights[i] for i in live)
            weight = self._weights[worker] / live_weight
            size = self._size_for(worker, weight, len(live))
        else:
            worker = view.first_idle()
            if worker is None:
                return WAIT
            size = self._size_for(worker, self._weights[worker], self._n)
        self._remaining = max(0.0, self._remaining - size)
        return Dispatch(worker=worker, size=size, phase=self._phase)


@dataclasses.dataclass(frozen=True)
class WeightedFactoringKernelSpec(KernelSpec):
    """One cell's :class:`WeightedFactoringSource` parameters, lockstep form.

    The lookahead is always the classic 1 (see :mod:`repro.core.lockstep`).
    """

    n: int = 0
    total_work: float = 0.0
    factor: float = 2.0
    min_chunk: float = 1.0
    weights: tuple = ()

    group_key = ("weighted-factoring",)
    handles_crashes = True

    def make_kernel(self, specs, reps, n_max):
        return WeightedFactoringKernel(specs, reps, n_max)


class WeightedFactoringKernel(LockstepKernel):
    """Lockstep rows of weighted-factoring state.

    The size rule keeps the scalar source's exact evaluation order:
    ``(remaining / factor) · w_i``, ``min_chunk · w_i · n``,
    ``min(max(share, floor), remaining)``.  Padded worker slots carry
    weight 0 and are never selected (the caller reports them as
    maximally pending).

    Crash recovery mirrors :class:`WeightedFactoringSource` bit for bit:
    observed losses are re-absorbed into the pool *before* the finished
    test, observed-crashed workers are excluded from the idle scan, the
    speed weights are renormalized over the survivors — summed worker
    0..n-1 like the scalar ``sum`` so the float is identical — and a row
    whose workers all crashed finishes immediately.  Non-crash fault
    rows only need the scalar drain rule: once the pool is empty, wait
    out the pending set instead of finishing.
    """

    def __init__(self, specs, reps, n_max):
        self._n_float = expand_rows([float(s.n) for s in specs], reps, dtype=float)
        self._remaining = expand_rows([s.total_work for s in specs], reps, dtype=float)
        self._epsilon = np.array(
            [1e-12 * max(s.total_work, 1.0) for s in specs]
        ).repeat(reps)
        self._factor = expand_rows([s.factor for s in specs], reps, dtype=float)
        self._min_chunk = expand_rows([s.min_chunk for s in specs], reps, dtype=float)
        padded = np.zeros((len(specs), n_max))
        for i, s in enumerate(specs):
            padded[i, : s.n] = s.weights
        self._weights = np.repeat(padded, reps, axis=0)

    def compact(self, keep) -> None:
        self._n_float = self._n_float[keep]
        self._remaining = self._remaining[keep]
        self._epsilon = self._epsilon[keep]
        self._factor = self._factor[keep]
        self._min_chunk = self._min_chunk[keep]
        self._weights = self._weights[keep]

    def decide(self, counts, action, worker, size, mask=None, ctx=None):
        if ctx is not None:
            # Observed losses re-enter the pool before anything else, in
            # the scalar observation order (the engine delivers them
            # per-row sorted by (time, chunk_index), and += left-folds
            # exactly like the scalar cursor loop).
            for r, s in ctx.losses:
                self._remaining[r] += s
        fin = self._remaining <= self._epsilon
        if mask is None:
            live = ~fin
        else:
            live = mask & ~fin
            fin = mask & fin
        drain = None
        if ctx is not None and ctx.fault_rows is not None:
            drain = drain_rows(counts, fin & ctx.fault_rows)
            fin = fin & ~drain
        n_crashed = ctx.n_crashed if ctx is not None else None
        hit = None
        if n_crashed is not None and n_crashed.any():
            n_live = self._n_float - n_crashed
            has_crash = live & (n_crashed > 0)
            dead = has_crash & (n_live <= 0.0)
            if dead.any():
                live = live & ~dead
                has_crash = has_crash & ~dead
                action[dead] = DONE
            w, idle = first_idle(counts, ctx.crashed)
            hit = np.flatnonzero(has_crash)
        else:
            w, idle = first_idle(counts)
        disp = live & idle
        wait = live & ~idle
        if drain is not None:
            wait = wait | drain
        action[fin] = DONE
        action[wait] = WAIT_FOR_COMPLETION
        action[disp] = DISPATCH
        worker[disp] = w[disp]
        wgt = np.take_along_axis(self._weights, w[:, None], axis=1)[:, 0]
        n_eff = self._n_float
        if hit is not None and hit.size:
            # live_weight = sum of surviving weights, accumulated worker
            # 0..n-1: the last column of a cumulative sum is the same
            # sequential left fold as the scalar sum (np.sum's pairwise
            # order is not).  Crashed and padded slots add an exact +0.0.
            lw = np.cumsum(
                np.where(ctx.crashed[hit], 0.0, self._weights[hit]), axis=1
            )[:, -1]
            wgt[hit] = wgt[hit] / np.where(lw > 0.0, lw, 1.0)
            n_eff = n_eff.copy()
            n_eff[hit] = n_live[hit]
        share = (self._remaining / self._factor) * wgt
        floor = self._min_chunk * wgt * n_eff
        sz = np.minimum(np.maximum(share, floor), self._remaining)
        size[disp] = sz[disp]
        np.copyto(
            self._remaining, np.maximum(0.0, self._remaining - sz), where=disp
        )


class WeightedFactoring(Scheduler):
    """Weighted Factoring scheduler (see module docstring)."""

    def __init__(self, factor: float = 2.0, min_chunk: float = 1.0):
        if factor <= 1.0:
            raise ValueError(f"factoring factor must be > 1, got {factor}")
        self.factor = factor
        self.min_chunk = min_chunk
        self.name = "WeightedFactoring"

    def create_source(self, platform: PlatformSpec, total_work: float) -> WeightedFactoringSource:
        return WeightedFactoringSource(
            platform=platform,
            total_work=total_work,
            factor=self.factor,
            min_chunk=self.min_chunk,
        )

    def batch_kernel(
        self, platform: PlatformSpec, total_work: float
    ) -> WeightedFactoringKernelSpec:
        s_tot = platform.total_compute_rate()
        return WeightedFactoringKernelSpec(
            n=platform.N,
            total_work=total_work,
            factor=self.factor,
            min_chunk=self.min_chunk,
            weights=tuple(w.S / s_tot for w in platform),
        )
