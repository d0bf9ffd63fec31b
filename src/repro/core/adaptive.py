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
from repro.core.factoring import FactoringKernel, FactoringKernelSpec, FactoringSource
from repro.core.lockstep import (
    DISPATCH,
    DONE,
    KernelSpec,
    LockstepKernel,
    PlanCursor,
    PlanRounds,
    expand_rows,
)
from repro.core.rumr import _chunk_floor, round_overhead
from repro.core.umr import MAX_ROUNDS, UMRPlan, solve_umr
from repro.platform.spec import PlatformSpec

__all__ = [
    "AdaptiveRUMR",
    "AdaptiveRUMRKernel",
    "AdaptiveRUMRKernelSpec",
    "AdaptiveRUMRSource",
    "OnlineErrorEstimator",
]


class OnlineErrorEstimator:
    """Running estimate of the error magnitude from completion intervals.

    Consumes :class:`~repro.core.base.CompletionNote` streams; per worker,
    the interval between consecutive notes is the effective compute
    duration of the later chunk *provided the worker never idled in
    between* — guaranteed while the UMR plan holds, and detected (and the
    sample skipped) otherwise by comparing against the known dispatch
    history isn't possible from timing alone, so intervals longer than
    ``outlier_factor`` times the prediction are discarded as idle-gapped.
    """

    def __init__(self, platform: PlatformSpec, outlier_factor: float = 3.0):
        self._platform = platform
        self._outlier_factor = outlier_factor
        self._last_time: dict[int, float] = {}
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._seen = 0  # notes consumed so far

    @property
    def samples(self) -> int:
        """Number of ratio samples accumulated."""
        return self._count

    def estimate(self) -> float | None:
        """Current error-magnitude estimate (None before 2 samples)."""
        if self._count < 2:
            return None
        return math.sqrt(self._m2 / (self._count - 1))

    def _add_sample(self, ratio: float) -> None:
        # Welford's online variance around the *model* mean of 1.
        self._count += 1
        delta = ratio - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (ratio - self._mean)

    def consume(self, view: MasterView) -> None:
        """Fold all newly observed completions into the estimate."""
        notes = view.observed_completions()
        for note in notes[self._seen:]:
            predicted = self._platform[note.worker].compute_time(note.size)
            last = self._last_time.get(note.worker)
            self._last_time[note.worker] = note.time
            if last is None or predicted <= 0:
                continue
            interval = note.time - last
            ratio = interval / predicted
            if 0 < ratio <= self._outlier_factor:
                self._add_sample(ratio)
        self._seen = len(notes)


class AdaptiveRUMRSource(DispatchSource):
    """Per-run state of the adaptive scheduler (see module docstring).

    ``plan_rounds`` are the UMR plan's dense per-worker size rows
    (:attr:`~repro.core.umr.UMRPlan.dispatch_rounds`), dispatched out of
    order through a :class:`~repro.core.lockstep.PlanCursor`.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        total_work: float,
        plan_rounds,
        factor: float,
        min_samples: int,
    ):
        self._platform = platform
        self._total_work = total_work
        self._plan = PlanCursor(plan_rounds, "adaptive-p1-round")
        self._factor = factor
        self._min_samples = min_samples
        self._overhead = round_overhead(platform)
        self._dispatched = 0.0
        self._estimator = OnlineErrorEstimator(platform)
        self._phase2: FactoringSource | None = None
        self.switched_at: float | None = None  # diagnostics
        self.final_estimate: float | None = None

    def _remaining_plan_work(self) -> float:
        return self._total_work - self._dispatched

    def _should_switch(self, estimate: float) -> bool:
        remaining = self._remaining_plan_work()
        if remaining <= 0:
            return False
        if estimate <= 0:
            return False
        target_tail = min(estimate, 1.0) * self._total_work
        if remaining > target_tail:
            return False
        # RUMR's threshold, evaluated with the estimate.
        overhead = self._overhead
        return remaining / self._platform.N >= overhead or overhead == 0.0

    def _switch_to_phase2(self, view: MasterView, estimate: float) -> None:
        remaining = self._remaining_plan_work()
        self._phase2 = FactoringSource(
            n=self._platform.N,
            total_work=remaining,
            factor=self._factor,
            min_chunk=_chunk_floor(
                self._overhead, self._platform.N, estimate, remaining
            ),
            phase="adaptive-p2",
        )
        self.switched_at = view.now
        self.final_estimate = estimate

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        if self._phase2 is not None:
            return self._phase2.next_dispatch(view)
        self._estimator.consume(view)
        estimate = self._estimator.estimate()
        if (
            estimate is not None
            and self._estimator.samples >= self._min_samples
            and self._should_switch(estimate)
        ):
            self._switch_to_phase2(view, estimate)
            return self._phase2.next_dispatch(view)
        action = self._plan.take(view, True)
        if action is not None:
            self._dispatched += action.size
            return action
        self.final_estimate = estimate
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
        return AdaptiveRUMRSource(
            self.platform, self.total_work, self.rounds, self.factor, self.min_samples
        )


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

    _OUTLIER_FACTOR = 3.0

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
        # Welford state around the model mean of 1, one estimator per row.
        self._est_count = np.zeros(rows, dtype=np.int64)
        self._est_mean = np.zeros(rows)
        self._est_m2 = np.zeros(rows)
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
        self._est_count = self._est_count[keep]
        self._est_mean = self._est_mean[keep]
        self._est_m2 = self._est_m2[keep]
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
        # Sequential per-note Welford updates in observation order —
        # bit-compatible with OnlineErrorEstimator.consume.
        switched = self._switched
        clat = self._clat
        speed = self._speed
        last = self._last_time
        count = self._est_count
        mean = self._est_mean
        m2 = self._est_m2
        for r, time, w, sz in notes:
            if switched[r]:
                continue
            predicted = clat[r, w] + sz / speed[r, w]
            prev = last[r, w]
            last[r, w] = time
            if np.isnan(prev) or predicted <= 0:
                continue
            ratio = (time - prev) / predicted
            if 0 < ratio <= self._OUTLIER_FACTOR:
                c = count[r] + 1
                count[r] = c
                delta = ratio - mean[r]
                mean[r] += delta / c
                m2[r] += delta * (ratio - mean[r])

    def decide(self, counts, action, worker, size, mask=None, ctx=None):
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
            remaining = self._total - self._dispatched
            est = np.sqrt(self._est_m2 / np.maximum(self._est_count - 1, 1))
            switch = (
                p1
                & (self._est_count >= 2)
                & (self._est_count >= self._min_samples)
                & (remaining > 0)
                & (est > 0)
                & (remaining <= np.minimum(est, 1.0) * self._total)
                & (
                    (remaining / self._n_float >= self._overhead)
                    | (self._overhead == 0.0)
                )
            )
            rows = np.flatnonzero(switch)
            if rows.size:
                pools = remaining[rows]
                floors = np.minimum(
                    self._overhead[rows] / est[rows], pools / self._n_float[rows]
                )
                self._phase2.activate_rows(rows, pools, np.maximum(floors, 1.0))
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
                pick, sz = self._plan.take(rows, counts, True)
                action[rows] = DISPATCH
                worker[rows] = pick
                size[rows] = sz
                self._dispatched[rows] += sz
        p2_mask = self._switched if mask is None else self._switched & mask
        if p2_mask.any():
            self._phase2.decide(counts, action, worker, size, mask=p2_mask, ctx=ctx)


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
