"""Adaptive RUMR: online error estimation (the paper's future work, §6).

The paper's closing plan for the APST integration: *"This implementation
will make it possible to determine empirical performance prediction error
distributions … as the application runs.  Such information will be used
on-the-fly by RUMR to make relevant scheduling decisions."*  This module
implements that loop inside the simulator:

1. start dispatching the UMR plan for the **whole** workload (as if
   ``error = 0``), out-of-order like RUMR's phase 1;
2. after every observed completion, update an *online error estimate*:
   for a worker that received chunks back to back (never idled — which
   UMR's no-idle construction guarantees under small error), the interval
   between consecutive completion announcements equals the later chunk's
   effective compute duration.  The ratio of that interval to the
   predicted duration ``cLat + size/S`` is a sample of the perturbation
   factor; the estimate is the running standard deviation of the samples;
3. before dispatching each chunk, re-apply RUMR's phase-split heuristic
   with the current estimate: if the not-yet-dispatched plan work has
   shrunk to ``ê · W_total`` (and the threshold admits a phase 2), abandon
   the remaining plan and switch to a factoring tail over exactly the
   remaining workload, with the usual chunk floor evaluated at ``ê``.

The estimator is deliberately simple (no distribution fitting); the
adaptive benchmark compares it against RUMR given the true error and
against UMR, showing it recovers most of the oracle gap without being told
anything.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.base import Dispatch, DispatchSource, MasterView, Scheduler, Wait
from repro.core.factoring import (
    FactoringKernel,
    FactoringKernelSpec,
    FactoringSource,
    check_factoring,
)
from repro.core.lockstep import (
    ARRAY_OPS,
    DISPATCH,
    DONE,
    SCALAR_OPS,
    KernelSpec,
    LockstepKernel,
    PlanCursor,
    PlanRounds,
    expand_rows,
)
from repro.core.rumr import chunk_floor, round_overhead
from repro.core.umr import MAX_ROUNDS, UMRPlan, solve_umr
from repro.platform.spec import PlatformSpec

__all__ = [
    "AdaptiveRUMR",
    "AdaptiveRUMRKernel",
    "AdaptiveRUMRKernelSpec",
    "AdaptiveRUMRSource",
    "OUTLIER_FACTOR",
    "OnlineErrorEstimator",
    "error_estimate",
    "fold_interval",
    "should_switch",
]


#: Completion intervals longer than this many predicted durations are
#: taken as idle-gapped and give no sample.
OUTLIER_FACTOR = 3.0


def fold_interval(stats, interval, predicted):
    """Fold one completion interval into Welford's ``(count, mean, m2)``.

    The sample ``interval / predicted`` is the later chunk's perturbation
    factor; its variance is taken around the *model* mean of 1.  A ratio
    outside ``(0, OUTLIER_FACTOR]`` (a worker's first interval is NaN) or
    a non-positive prediction adds none.  Plain arithmetic, for Python
    floats and one kernel row's numpy scalars alike.
    """
    if predicted <= 0:
        return stats
    ratio = interval / predicted
    if not 0 < ratio <= OUTLIER_FACTOR:
        return stats
    count, mean, m2 = stats
    count += 1
    delta = ratio - mean
    mean += delta / count
    return count, mean, m2 + delta * (ratio - mean)


def error_estimate(ops, m2, count):
    """The samples' standard deviation; 0 before two samples (``m2`` is 0)."""
    return ops.sqrt(m2 / ops.max(count - 1, 1))


def should_switch(ops, remaining, total, estimate, overhead, n, count, min_samples):
    """RUMR's phase split, re-evaluated at the online ``estimate``.

    The plan hands its ``remaining`` work to a factoring tail once
    ``min_samples`` samples are in, ``remaining`` has shrunk to
    ``min(estimate, 1) · total`` and the per-worker threshold admits a
    phase 2.  ``&`` and ``|`` serve Python bools and bool rows alike.
    """
    return (
        (count >= min_samples)
        & (remaining > 0)
        & (estimate > 0)
        & (remaining <= ops.min(estimate, 1.0) * total)
        & ((remaining / n >= overhead) | (overhead == 0.0))
    )


class OnlineErrorEstimator:
    """Running estimate of the error magnitude from completion intervals.

    Consumes :class:`~repro.core.base.CompletionNote` streams; per worker,
    the interval between consecutive notes is the effective compute
    duration of the later chunk *provided the worker never idled in
    between*, which UMR's no-idle plan guarantees while it holds.  Timing
    alone cannot tell an idle gap from a slow chunk, so intervals longer
    than :data:`OUTLIER_FACTOR` times the prediction are discarded as
    idle-gapped (:func:`fold_interval`).
    """

    def __init__(self, platform: PlatformSpec):
        self._platform = platform
        self._last_time: dict[int, float] = {}
        self._stats = (0, 0.0, 0.0)  # Welford's (count, mean, m2)
        self._seen = 0  # notes consumed so far

    @property
    def samples(self) -> int:
        """Number of ratio samples accumulated."""
        return self._stats[0]

    def estimate(self) -> float | None:
        """Current error-magnitude estimate (None before 2 samples)."""
        count, _, m2 = self._stats
        return error_estimate(SCALAR_OPS, m2, count) if count >= 2 else None

    def consume(self, view: MasterView) -> None:
        """Fold all newly observed completions into the estimate."""
        notes = view.observed_completions()
        for note in notes[self._seen:]:
            last = self._last_time.get(note.worker, math.nan)
            self._last_time[note.worker] = note.time
            predicted = self._platform[note.worker].compute_time(note.size)
            self._stats = fold_interval(self._stats, note.time - last, predicted)
        self._seen = len(notes)


class AdaptiveRUMRSource(DispatchSource):
    """Per-run state of the adaptive scheduler (see module docstring).

    The binding's plan rounds are dispatched out of order through a
    :class:`~repro.core.lockstep.PlanCursor`.
    """

    def __init__(self, spec: AdaptiveRUMRKernelSpec):
        self._spec = spec
        self._plan = PlanCursor(spec.rounds, "adaptive-p1-round")
        self._overhead = round_overhead(spec.platform)
        self._dispatched = 0.0
        self._estimator = OnlineErrorEstimator(spec.platform)
        self._phase2: FactoringSource | None = None
        self.switched_at: float | None = None  # diagnostics
        self.final_estimate: float | None = None

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        if self._phase2 is not None:
            return self._phase2.next_dispatch(view)
        self._estimator.consume(view)
        spec, overhead, n = self._spec, self._overhead, self._spec.n
        count, est = self._estimator.samples, self._estimator.estimate() or 0.0
        total, pool = spec.total_work, spec.total_work - self._dispatched
        if should_switch(SCALAR_OPS, pool, total, est, overhead, n, count, spec.min_samples):
            self._phase2 = FactoringSource(
                n=n,
                total_work=pool,
                factor=spec.factor,
                min_chunk=chunk_floor(SCALAR_OPS, overhead, n, est, pool),
                phase="adaptive-p2",
            )
            self.switched_at = view.now
            self.final_estimate = est
            return self._phase2.next_dispatch(view)
        action = self._plan.take(view, True)
        if action is not None:
            self._dispatched += action.size
            return action
        self.final_estimate = self._estimator.estimate()
        return None


@dataclasses.dataclass
class AdaptiveRUMRKernelSpec(KernelSpec):
    """One adaptive-RUMR run's binding, read by both engines.

    ``plan`` is the UMR plan over the *whole* workload, dispatched from
    its :attr:`rounds`.  The kernel derives the per-worker prediction
    model the online estimator evaluates, and the round overhead of the
    switch threshold and chunk floor, from ``platform``, as the scalar
    source does.
    """

    n: int = 0
    total_work: float = 0.0
    plan: "UMRPlan | None" = None
    factor: float = 2.0
    min_samples: int = 8
    platform: "PlatformSpec | None" = None

    group_key = ("adaptive-rumr",)
    wants_notes = True
    handles_crashes = True

    @property
    def rounds(self) -> tuple:
        """The plan's rounds as dense per-worker size rows."""
        return self.plan.dispatch_rounds

    def make_kernel(self, specs, reps, n_max):
        return AdaptiveRUMRKernel(specs, reps, n_max)

    def source(self) -> AdaptiveRUMRSource:
        return AdaptiveRUMRSource(self)


class AdaptiveRUMRKernel(LockstepKernel):
    """Lockstep rows of adaptive-RUMR state.

    Phase 1 mirrors :class:`AdaptiveRUMRSource` exactly: each decision
    first folds the newly observed completion notes (delivered by the
    engine through the step context in scalar observation order) into
    the per-row Welford estimator, then evaluates the switch condition,
    and otherwise dispatches the next planned chunk to the lowest-index
    idle worker holding one (falling back to the lowest-index holder).
    A row that switches re-arms its slot in the embedded factoring
    kernel over exactly the undispatched remainder, with the chunk floor
    evaluated at the estimate — and never consumes notes again.

    Crash behaviour mirrors the scalar source exactly: phase 1 ignores
    crashes outright (the plan keeps dispatching, and a row that
    exhausts it unswitched finishes even with chunks outstanding), so
    losses observed before the switch are *queued* per row and replayed
    into the factoring slot at switch time — the scalar equivalent is
    the fresh :class:`FactoringSource`, whose loss cursor starts at zero
    and therefore absorbs every loss observed since the run began.
    Post-switch rows inherit :class:`FactoringKernel`'s full recovery
    path.  The estimator itself is timing-based and follows pause /
    slowdown / spike faults through the engine's shifted completion
    times.
    """

    def __init__(self, specs, reps, n_max):
        rows = int(np.sum(reps))
        clats = np.zeros((len(specs), n_max))
        speeds = np.ones((len(specs), n_max))
        for i, s in enumerate(specs):
            clats[i, : s.n] = [w.cLat for w in s.platform]
            speeds[i, : s.n] = [w.S for w in s.platform]
        self._plan = PlanRounds(specs, reps, n_max)
        self._clat = np.repeat(clats, reps, axis=0)
        self._speed = np.repeat(speeds, reps, axis=0)
        self._total = expand_rows([s.total_work for s in specs], reps, dtype=float)
        self._n_float = expand_rows([float(s.n) for s in specs], reps, dtype=float)
        self._overhead = expand_rows(
            [round_overhead(s.platform) for s in specs], reps, dtype=float
        )
        self._min_samples = expand_rows(
            [s.min_samples for s in specs], reps, dtype=np.int64
        )
        self._dispatched = np.zeros(rows)
        # Welford's (count, mean, m2) around the model mean of 1, one
        # estimator per row; a float count divides like the scalar int.
        self._stats = np.zeros((rows, 3))
        self._last_time = np.full((rows, n_max), np.nan)
        self._switched = np.zeros(rows, dtype=bool)
        # Losses observed while a row is still on the plan (which ignores
        # them, like the scalar phase 1); replayed in observation order
        # into the factoring slot if and when the row switches.
        self._queued_losses: dict[int, list[float]] = {}
        # Degenerate zero-workload factoring rows, re-armed at switch time.
        self._phase2 = FactoringKernel(
            [FactoringKernelSpec(n=s.n, factor=s.factor) for s in specs], reps, n_max
        )

    def compact(self, keep) -> None:
        self._plan.compact(keep)
        self._clat = self._clat[keep]
        self._speed = self._speed[keep]
        self._total = self._total[keep]
        self._n_float = self._n_float[keep]
        self._overhead = self._overhead[keep]
        self._min_samples = self._min_samples[keep]
        self._dispatched = self._dispatched[keep]
        self._stats = self._stats[keep]
        self._last_time = self._last_time[keep]
        self._switched = self._switched[keep]
        if self._queued_losses:
            remap = {int(old): new for new, old in enumerate(keep)}
            self._queued_losses = {
                remap[r]: sizes
                for r, sizes in self._queued_losses.items()
                if r in remap
            }
        self._phase2.compact(keep)

    def _consume_notes(self, notes) -> None:
        # Sequential per-note Welford updates in observation order: one
        # row's numpy scalars through the scalar estimator's fold.
        stats, last = self._stats, self._last_time
        for r, time, w, sz in notes:
            if self._switched[r]:
                continue
            prev = last[r, w]
            last[r, w] = time
            predicted = self._clat[r, w] + sz / self._speed[r, w]
            stats[r] = fold_interval(tuple(stats[r]), time - prev, predicted)

    def decide(self, idle, action, worker, size, mask=None, ctx=None):
        if ctx is not None and ctx.notes:
            self._consume_notes(ctx.notes)
        if ctx is not None and ctx.losses:
            # The plan ignores losses; hold them back from the factoring
            # slots (whose absorption is unmasked) and replay at switch
            # time.  Losses of already-switched rows pass through.
            kept = []
            for r, s in ctx.losses:
                if self._switched[r]:
                    kept.append((r, s))
                else:
                    self._queued_losses.setdefault(int(r), []).append(s)
            ctx.losses = kept
        p1 = ~self._switched
        if mask is not None:
            p1 = p1 & mask
        if p1.any():
            overhead, n = self._overhead, self._n_float
            count, _, m2 = self._stats.T
            est = error_estimate(ARRAY_OPS, m2, count)
            total, pool = self._total, self._total - self._dispatched
            switch = p1 & should_switch(
                ARRAY_OPS, pool, total, est, overhead, n, count, self._min_samples
            )
            rows = np.flatnonzero(switch)
            if rows.size:
                pools = pool[rows]
                floors = chunk_floor(ARRAY_OPS, overhead[rows], n[rows], est[rows], pools)
                self._phase2.activate_rows(rows, pools, floors)
                # The scalar switch builds a fresh FactoringSource whose
                # loss cursor starts at zero: every loss observed since
                # the run began rejoins the pool, in observation order.
                for r in rows.tolist():
                    for s in self._queued_losses.pop(r, ()):
                        self._phase2.absorb_loss(r, s)
            self._switched |= switch
            p1 = p1 & ~switch
            act = p1 & self._plan.active
            action[p1 & ~act] = DONE
            rows = np.flatnonzero(act)
            if rows.size:
                pick, sz = self._plan.take(rows, idle, True)
                action[rows] = DISPATCH
                worker[rows] = pick
                size[rows] = sz
                self._dispatched[rows] += sz
        p2_mask = self._switched if mask is None else self._switched & mask
        if p2_mask.any():
            self._phase2.decide(idle, action, worker, size, mask=p2_mask, ctx=ctx)


class AdaptiveRUMR(Scheduler):
    """RUMR without a priori error knowledge: estimate online, switch late.

    Parameters
    ----------
    factor:
        Factoring denominator for the tail.
    min_samples:
        Completion-interval samples required before the estimate is
        trusted (default 8).
    umr_method / max_rounds:
        Passed to the UMR solver for the initial plan.
    """

    def __init__(
        self,
        factor: float = 2.0,
        min_samples: int = 8,
        umr_method: str = "search",
        max_rounds: int = MAX_ROUNDS,
    ):
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        check_factoring(factor)
        self.factor = factor
        self.min_samples = min_samples
        self.umr_method = umr_method
        self.max_rounds = max_rounds
        self.name = "AdaptiveRUMR"

    def batch_kernel(
        self, platform: PlatformSpec, total_work: float
    ) -> AdaptiveRUMRKernelSpec:
        return AdaptiveRUMRKernelSpec(
            n=platform.N,
            total_work=total_work,
            plan=solve_umr(platform, total_work, self.max_rounds, self.umr_method),
            factor=self.factor,
            min_samples=self.min_samples,
            platform=platform,
        )
