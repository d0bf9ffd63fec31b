"""RUMR — Robust Uniform Multi-Round scheduling (the paper's contribution).

RUMR splits the workload into two consecutive phases:

* **Phase 1** (performance): a UMR schedule over ``W_total − W_phase2`` —
  small chunks first, growing geometrically, precomputed.  Chunks are
  dispatched eagerly (the serialized link paces them onto the no-idle
  timeline), and — unless ``out_of_order=False`` — the master may deviate
  from the planned worker order *within a round*, preferring a worker it
  has observed to be idle (§4.2 question (ii): "send a new chunk of data to
  a worker if it finishes prematurely", a greedy component that preserves
  the increasing-chunk-size property).
* **Phase 2** (robustness): Factoring over ``W_phase2``, self-scheduled,
  with decreasing chunks so late prediction errors have small absolute
  impact.

Design choices (§4.2), all reproduced here:

(i) **Phase split.**  With a known error magnitude ``e``:
    ``e ≤ 0`` → pure UMR; ``e ≥ 1`` → pure Factoring; otherwise
    ``W_phase2 = e·W_total`` *unless* the phase-2 share per worker would
    not cover one round of dispatch overhead:
    ``e·W/N < cLat + nLat·N  ⇒  no phase 2``  (homogeneous form; the
    heterogeneous generalization uses the mean ``cLat`` and ``Σ nLat_i``).
    The paper restates this threshold in §5.1 without the ``/N`` — both
    variants are implemented (``threshold_rule="per_worker"`` (default) /
    ``"total"``).  When ``e`` is unknown, a fixed phase-1 fraction is used
    instead (the paper finds 80 % a good practical choice).
(ii) **Out-of-order dispatch** in phase 1 (ablated by Fig 7).
(iii) **Phase-2 chunk floor**: ``(cLat + nLat·N)/e`` when ``e`` is known,
    ``cLat + nLat·N`` otherwise (the Hagerup rule), never below one
    workload unit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.base import Dispatch, DispatchSource, MasterView, Scheduler, Wait
from repro.core.factoring import FactoringKernelSpec, FactoringSource
from repro.core.lockstep import (
    DISPATCH,
    KernelSpec,
    LockstepKernel,
    PlanRounds,
    expand_rows,
)
from repro.core.umr import MAX_ROUNDS, UMRPlan, solve_umr
from repro.platform.spec import PlatformSpec

__all__ = [
    "RUMR",
    "RUMRSource",
    "RUMRKernel",
    "RUMRKernelSpec",
    "round_overhead",
    "phase2_workload",
    "phase2_min_chunk",
    "survivor_min_chunks",
]


def round_overhead(platform: PlatformSpec) -> float:
    """Overhead of one round of (empty) chunks: ``cLat + nLat·N`` homog.

    The non-hidden latencies to send N messages plus the computation
    start-up of the last processor.  Heterogeneous platforms use the mean
    ``cLat`` and the sum of per-worker ``nLat``.
    """
    mean_clat = sum(w.cLat for w in platform) / platform.N
    return mean_clat + sum(w.nLat for w in platform)


def phase2_workload(
    platform: PlatformSpec,
    total_work: float,
    error: float,
    threshold_rule: str = "per_worker",
) -> float:
    """Workload reserved for phase 2 under the §4.2 heuristic."""
    if error <= 0.0:
        return 0.0
    if error >= 1.0:
        return total_work
    w2 = error * total_work
    overhead = round_overhead(platform)
    if threshold_rule == "per_worker":
        if w2 / platform.N < overhead:
            return 0.0
    elif threshold_rule == "total":
        if w2 < overhead:
            return 0.0
    else:
        raise ValueError(f"unknown threshold_rule {threshold_rule!r}")
    return w2


def phase2_min_chunk(
    platform: PlatformSpec,
    error: float | None,
    absolute_floor: float = 1.0,
    phase2_work: float | None = None,
) -> float:
    """Phase-2 chunk floor (§4.2 question (iii)).

    ``(cLat + nLat·N)/error`` when ``error`` is known, ``cLat + nLat·N``
    otherwise, but never below one workload unit.

    When ``phase2_work`` is given the floor is additionally capped at the
    per-worker phase-2 share ``phase2_work / N``.  This cap is an
    implementation-necessary clarification of the paper: at small error the
    uncapped floor ``overhead/error`` can exceed the whole phase-2 pool,
    collapsing phase 2 into one giant tail chunk on a single worker — the
    exact imbalance phase 2 exists to avoid, and contradicting Fig 4(a)'s
    RUMR ≈ UMR behaviour at small error.  See DESIGN.md.
    """
    overhead = round_overhead(platform)
    if error is not None and error > 0:
        floor = overhead / error
    else:
        floor = overhead
    if phase2_work is not None and phase2_work > 0:
        floor = min(floor, phase2_work / platform.N)
    return max(floor, absolute_floor)


def survivor_min_chunks(clats, nlats, n, crashed, known_error, pools) -> np.ndarray:
    """Row-wise :func:`phase2_min_chunk` on each row's surviving workers.

    Row ``r`` equals ``phase2_min_chunk(platform.subset(live),
    known_error, phase2_work=pools[r] if pools[r] > 0 else None)``
    bitwise, where ``live`` are the real workers not marked in
    ``crashed[r]`` (the full platform when every worker is gone).
    ``clats``/``nlats`` are ``(rows, n_max)`` per-worker latencies,
    zero-padded past each row's ``n`` real workers; ``crashed`` is a
    ``(rows, n_max)`` mask or ``None``; ``known_error`` holds one value
    per row, 0 standing for ``None``.  The latency sums are sequential
    left folds — the last column of ``np.cumsum`` — like the scalar
    ``sum()``; ``np.sum``'s pairwise order would change the bits.
    """
    n = np.asarray(n)
    if crashed is None:
        live = np.ones(clats.shape, dtype=bool)
        n_sub = n
    else:
        live = ~crashed
        n_sub = n - crashed.sum(axis=1)
        gone = n_sub == 0
        live[gone] = True
        n_sub = np.where(gone, n, n_sub)
    mean_clat = np.cumsum(np.where(live, clats, 0.0), axis=1)[:, -1] / n_sub
    overhead = mean_clat + np.cumsum(np.where(live, nlats, 0.0), axis=1)[:, -1]
    known = known_error > 0
    floor = np.where(known, overhead / np.where(known, known_error, 1.0), overhead)
    floor = np.where(pools > 0, np.minimum(floor, pools / n_sub), floor)
    return np.maximum(floor, 1.0)


class RUMRSource(DispatchSource):
    """Per-run state: an eager phase-1 plan chained into a factoring tail.

    Fault recovery (active only when the run's view reports
    ``faults_possible``, and only when the binding ``scheduler`` /
    ``platform`` / ``total_work`` references were provided):

    * A crash observed *before anything was dispatched* rebuilds the whole
      schedule on the surviving sub-platform — the run is then equivalent
      to starting on a platform without the dead worker.
    * A crash observed mid-phase-1 abandons the remaining UMR rounds (the
      no-idle construction they implement is void once a worker is gone)
      and falls back to crash-aware factoring over everything not yet
      dispatched — the paper's own robustness mechanism, promoted to the
      whole tail.
    * Crashes observed in phase 2 are handled by the phase-2 source
      itself (:class:`FactoringSource` filters crashed workers and
      re-absorbs announced losses, including losses of phase-1 chunks).
    """

    def __init__(
        self,
        plan: UMRPlan | None,
        phase2: DispatchSource | None,
        out_of_order: bool,
        scheduler: "RUMR | None" = None,
        platform: PlatformSpec | None = None,
        total_work: float = 0.0,
    ):
        self._out_of_order = out_of_order
        self._phase2 = phase2
        # Phase-1 rounds as mutable [round][worker -> size] maps, so the
        # greedy variant can reorder sends within the current round.
        self._rounds: list[dict[int, float]] = []
        if plan is not None:
            for j, row in enumerate(plan.chunk_sizes):
                entries = {i: size for i, size in enumerate(row) if size > 0.0}
                if entries:
                    self._rounds.append(entries)
        self._round_cursor = 0
        self.plan = plan
        self._scheduler = scheduler
        self._platform = platform
        self._total_work = total_work
        self._dispatched_gross = 0.0  # every dispatch, delivered or lost
        self._known_crashed: tuple[int, ...] = ()
        self._fallback: FactoringSource | None = None

    @property
    def in_phase1(self) -> bool:
        """True while phase-1 chunks remain to dispatch."""
        return self._round_cursor < len(self._rounds)

    def _pick_phase1_worker(self, view: MasterView, pending: dict[int, float]) -> int:
        ordered = sorted(pending)
        if self._out_of_order:
            # Prefer an idle worker (no outstanding work) — the lowest
            # index for determinism, so the scan stops at the first one.
            for i in ordered:
                if view.is_idle(i):
                    return i
        return ordered[0]

    def _make_recovery_tail(self, pool: float, live: "list[int]") -> FactoringSource:
        scheduler = self._scheduler
        assert scheduler is not None and self._platform is not None
        sub = self._platform.subset(live) if live else self._platform
        return FactoringSource(
            n=self._platform.N,
            total_work=pool,
            factor=scheduler.factor,
            min_chunk=scheduler.min_chunk(sub, phase2_work=pool if pool > 0 else None),
            phase="rumr-recovery",
            lookahead=1,
        )

    def _on_crash(self, view: MasterView, crashed: tuple[int, ...]) -> None:
        self._known_crashed = crashed
        if not self.in_phase1 or self._scheduler is None or self._platform is None:
            # Phase-2 / fallback sources handle crashes themselves.
            return
        crashed_set = set(crashed)
        live = [i for i in range(self._platform.N) if i not in crashed_set]
        if self._dispatched_gross == 0.0:
            # Nothing committed yet: replan from scratch on the survivors,
            # as if the platform never had the dead workers.
            self._rounds = []
            self._round_cursor = 0
            self._phase2 = None
            if not live:
                return
            sub = self._platform.subset(live)
            scheduler = self._scheduler
            w1, w2 = scheduler.split(sub, self._total_work)
            if w1 > 0:
                plan = solve_umr(sub, w1, scheduler.max_rounds, scheduler.umr_method)
                self.plan = plan
                for row in plan.chunk_sizes:
                    entries = {
                        live[j]: size for j, size in enumerate(row) if size > 0.0
                    }
                    if entries:
                        self._rounds.append(entries)
            if w2 > 0:
                self._phase2 = FactoringSource(
                    n=self._platform.N,
                    total_work=w2,
                    factor=scheduler.factor,
                    min_chunk=scheduler.min_chunk(sub, phase2_work=w2),
                    phase="rumr-p2",
                    lookahead=1,
                )
        else:
            # Mid-phase-1 crash: the UMR rounds assumed the dead worker's
            # throughput, so abandon the plan and fall back to factoring
            # over everything not yet dispatched (announced losses rejoin
            # the fallback's pool as they are observed).
            self._rounds = []
            self._round_cursor = 0
            self._phase2 = None
            pool = max(0.0, self._total_work - self._dispatched_gross)
            self._fallback = self._make_recovery_tail(pool, live)

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        if view.faults_possible:
            crashed = view.crashed_workers()
            if crashed != self._known_crashed:
                self._on_crash(view, crashed)
            if self._fallback is not None:
                action = self._fallback.next_dispatch(view)
                if isinstance(action, Dispatch):
                    self._dispatched_gross += action.size
                return action
        while self._round_cursor < len(self._rounds):
            pending = self._rounds[self._round_cursor]
            if not pending:
                self._round_cursor += 1
                continue
            worker = self._pick_phase1_worker(view, pending)
            size = pending.pop(worker)
            self._dispatched_gross += size
            return Dispatch(
                worker=worker, size=size, phase=f"rumr-p1-round{self._round_cursor}"
            )
        if self._phase2 is not None:
            action = self._phase2.next_dispatch(view)
            if isinstance(action, Dispatch):
                self._dispatched_gross += action.size
            return action
        if view.faults_possible and self._scheduler is not None and self._platform is not None:
            # Pure-UMR tail under faults: keep a zero-pool recovery source
            # alive so work lost after the last planned dispatch is still
            # re-dispatched rather than abandoned.
            crashed_set = set(view.crashed_workers())
            live = [i for i in range(self._platform.N) if i not in crashed_set]
            self._fallback = self._make_recovery_tail(0.0, live)
            action = self._fallback.next_dispatch(view)
            if isinstance(action, Dispatch):
                self._dispatched_gross += action.size
            return action
        return None


@dataclasses.dataclass(frozen=True)
class RUMRKernelSpec(KernelSpec):
    """One cell's RUMR state in lockstep form.

    ``rounds`` holds the phase-1 plan as dense per-round size rows
    (zeros for workers with nothing in that round); ``phase2`` is always
    present — a zero-workload factoring spec stands in for a skipped
    phase 2, so the skip condition does not fracture the group.
    ``total_work`` / ``clats`` / ``nlats`` / ``known_error`` carry the
    scheduler binding the scalar source uses for crash recovery (the
    undispatched pool and the survivor-platform chunk floor).
    """

    n: int = 0
    rounds: tuple = ()
    out_of_order: bool = True
    phase2: "KernelSpec | None" = None
    total_work: float = 0.0
    clats: tuple = ()
    nlats: tuple = ()
    known_error: "float | None" = None

    @property
    def group_key(self):
        return ("rumr", self.phase2.group_key)

    @property
    def handles_crashes(self):
        # The kernelized recovery re-arms the embedded phase-2 rows as
        # plain factoring tails — exactly what the scalar source builds.
        # A weighted phase 2 cannot be re-armed that way, so its crash
        # rows still defer to the scalar engine.
        return isinstance(self.phase2, FactoringKernelSpec)

    def deferred_rows(self, crash_time):
        if not self.handles_crashes:
            return np.isfinite(crash_time).any(axis=1)
        if not self.rounds:
            # No phase 1: every crash lands in the factoring tail, which
            # the embedded kernel replays exactly.
            return None
        # A crash already observable at the first decision (t = 0) hits
        # the scalar source's replan-from-scratch path (nothing was
        # dispatched yet): a fresh UMR solve on the survivors, which is
        # per-row by nature — defer those rows.
        defer = crash_time.min(axis=1) <= 0.0
        return defer if defer.any() else None

    def make_kernel(self, specs, reps, n_max):
        return RUMRKernel(specs, reps, n_max)


class RUMRKernel(LockstepKernel):
    """Lockstep rows of RUMR state: eager phase-1 rounds + factoring tail.

    Phase-1 rows always dispatch (matching :class:`RUMRSource`): the
    worker is the lowest-index one with a chunk left in the current
    round, or — with out-of-order dispatch — the lowest-index such
    worker the master observes idle.  When a row's round empties, its
    cursor advances; past the last round the row is delegated to the
    embedded phase-2 kernel (whose rows with zero workload answer DONE
    immediately — the skipped-phase-2 case).

    Crash recovery follows :class:`RUMRSource` bit for bit on the paths
    a merged group can express.  A crash observed mid-phase-1 abandons
    the row's remaining rounds and re-arms its slot in the embedded
    factoring kernel over everything not yet dispatched, with the chunk
    floor evaluated on the surviving sub-platform — the scalar source's
    fallback tail, built through :meth:`FactoringKernel.activate_rows`
    with floors from :func:`survivor_min_chunks`.
    A fault row that outlives a pure-UMR plan arms the same tail with a
    zero pool, so work lost after the last planned dispatch is still
    re-dispatched.  Only the replan-from-scratch path (a crash already
    observable at ``t = 0``) stays per-row: the spec's
    :meth:`~RUMRKernelSpec.deferred_rows` routes those rows to the
    scalar engine.  Non-crash fault rows only shift observation times,
    which the engine already simulates exactly.
    """

    def __init__(self, specs, reps, n_max):
        rows = int(np.sum(reps))
        self._plan = PlanRounds(specs, reps, n_max)
        self._ooo = expand_rows([s.out_of_order for s in specs], reps, dtype=bool)
        self._any_ooo = bool(self._ooo.any())
        self._total = expand_rows([s.total_work for s in specs], reps, dtype=float)
        self._zero_p2 = expand_rows(
            [s.phase2.total_work <= 0.0 for s in specs], reps, dtype=bool
        )
        # The scheduler binding of the recovery floor, one entry per spec.
        self._spec_of = np.repeat(np.arange(len(specs)), reps)
        self._lat = np.zeros((2, len(specs), n_max))
        for i, s in enumerate(specs):
            self._lat[:, i, : s.n] = s.clats, s.nlats
        self._spec_n = np.array([s.n for s in specs])
        self._spec_error = np.array([s.known_error or 0.0 for s in specs])
        # Gross phase-1 dispatch per row (delivered or lost), the scalar
        # source's ``_dispatched_gross`` at any point where it is read.
        self._gross = np.zeros(rows)
        # Rows whose factoring slot was re-armed as a recovery tail.
        self._armed = np.zeros(rows, dtype=bool)
        # Rows whose previous decision took their last planned chunk: the
        # scalar source's lazy round cursor still counts them as phase 1.
        self._left_p1 = np.zeros(rows, dtype=bool)
        self._phase2 = specs[0].phase2.make_kernel(
            [s.phase2 for s in specs], reps, n_max
        )

    def compact(self, keep) -> None:
        self._plan.compact(keep)
        self._ooo = self._ooo[keep]
        self._any_ooo = bool(self._ooo.any())
        self._total = self._total[keep]
        self._zero_p2 = self._zero_p2[keep]
        self._spec_of = self._spec_of[keep]
        self._gross = self._gross[keep]
        self._armed = self._armed[keep]
        self._left_p1 = self._left_p1[keep]
        self._phase2.compact(keep)

    def _arm(self, rows, crashed, pools) -> None:
        """Re-arm ``rows``' factoring slots as the scalar recovery tail."""
        spec = self._spec_of[rows]
        floors = survivor_min_chunks(
            self._lat[0, spec],
            self._lat[1, spec],
            self._spec_n[spec],
            None if crashed is None else crashed[rows],
            self._spec_error[spec],
            pools,
        )
        self._phase2.activate_rows(rows, pools, floors)
        self._armed[rows] = True

    def decide(self, counts, action, worker, size, mask=None, ctx=None):
        plan = self._plan
        crashed = None
        if ctx is not None and ctx.n_crashed is not None:
            crashed = ctx.crashed
            # Mid-phase-1 crash: abandon the remaining rounds and fall
            # back to factoring over everything not yet dispatched —
            # the scalar source's recovery tail, observed at the same
            # decision point with the same survivor set.
            hit = (plan.active | self._left_p1) & (ctx.n_crashed > 0)
            if mask is not None:
                hit &= mask
            rows = np.flatnonzero(hit)
            if rows.size:
                self._arm(
                    rows, crashed, np.maximum(0.0, self._total[rows] - self._gross[rows])
                )
                plan.cursor[rows] = plan.num_rounds[rows]
        in_p1 = plan.active
        if mask is None:
            p2_mask = ~in_p1
            self._left_p1[:] = False
        else:
            p2_mask = mask & ~in_p1
            in_p1 = mask & in_p1
            self._left_p1[mask] = False
        if ctx is not None and ctx.fault_rows is not None:
            # Pure-UMR tail under faults: the scalar source keeps a
            # zero-pool recovery tail alive past the last planned
            # dispatch, so late losses are re-dispatched (with the chunk
            # floor of the then-surviving sub-platform) instead of
            # abandoned.  Armed exactly once, like the scalar source.
            rows = np.flatnonzero(p2_mask & ctx.fault_rows & self._zero_p2 & ~self._armed)
            if rows.size:
                self._arm(rows, crashed, np.zeros(rows.size))
        rows = np.flatnonzero(in_p1)
        if rows.size:
            pick, sz = plan.take(
                rows, counts, self._ooo[rows] if self._any_ooo else None
            )
            action[rows] = DISPATCH
            worker[rows] = pick
            size[rows] = sz
            self._gross[rows] += sz
            self._left_p1[rows[~plan.active[rows]]] = True
        if p2_mask.any() or (ctx is not None and ctx.losses):
            self._phase2.decide(counts, action, worker, size, mask=p2_mask, ctx=ctx)


class RUMR(Scheduler):
    """The RUMR scheduler (see module docstring).

    Parameters
    ----------
    known_error:
        The error magnitude RUMR assumes (§4.1: estimated from history or
        monitoring services).  ``None`` means unknown: the phase split
        falls back to ``unknown_phase1_fraction`` and the chunk floor to
        the Hagerup rule.
    phase1_fraction:
        Force a fixed phase-1 share (0–1), bypassing the error heuristic
        *and* its threshold — the RUMR_50 … RUMR_90 variants of Fig 6.
    out_of_order:
        Allow greedy within-round reordering in phase 1 (Fig 7 ablates
        this with ``False``).
    threshold_rule:
        ``"per_worker"`` (§4.2, default) or ``"total"`` (§5.1 restatement).
    factor:
        Factoring denominator for phase 2 (2 = halve remaining per batch).
    umr_method / max_rounds:
        Passed through to the UMR solver for phase 1.
    unknown_phase1_fraction:
        Phase-1 share when ``known_error`` is ``None`` (default 0.8, the
        paper's recommended practical choice).
    """

    def __init__(
        self,
        known_error: float | None = None,
        phase1_fraction: float | None = None,
        out_of_order: bool = True,
        threshold_rule: str = "per_worker",
        factor: float = 2.0,
        umr_method: str = "search",
        max_rounds: int = MAX_ROUNDS,
        unknown_phase1_fraction: float = 0.8,
        phase2_weighted: bool = False,
    ):
        if known_error is not None and (known_error < 0 or math.isnan(known_error)):
            raise ValueError(f"known_error must be >= 0, got {known_error}")
        if phase1_fraction is not None and not 0.0 <= phase1_fraction <= 1.0:
            raise ValueError(f"phase1_fraction must be in [0,1], got {phase1_fraction}")
        if not 0.0 <= unknown_phase1_fraction <= 1.0:
            raise ValueError(
                f"unknown_phase1_fraction must be in [0,1], got {unknown_phase1_fraction}"
            )
        if threshold_rule not in ("per_worker", "total"):
            raise ValueError(f"unknown threshold_rule {threshold_rule!r}")
        self.known_error = known_error
        self.phase1_fraction = phase1_fraction
        self.out_of_order = out_of_order
        self.threshold_rule = threshold_rule
        self.factor = factor
        self.umr_method = umr_method
        self.max_rounds = max_rounds
        self.unknown_phase1_fraction = unknown_phase1_fraction
        self.phase2_weighted = phase2_weighted
        if phase1_fraction is not None:
            self.name = f"RUMR_{int(round(phase1_fraction * 100))}"
        elif not out_of_order:
            self.name = "RUMR-plain"
        else:
            self.name = "RUMR"

    def split(self, platform: PlatformSpec, total_work: float) -> tuple[float, float]:
        """Return ``(W_phase1, W_phase2)`` for a run."""
        if self.phase1_fraction is not None:
            w1 = self.phase1_fraction * total_work
            return w1, total_work - w1
        if self.known_error is None:
            w1 = self.unknown_phase1_fraction * total_work
            return w1, total_work - w1
        w2 = phase2_workload(platform, total_work, self.known_error, self.threshold_rule)
        return total_work - w2, w2

    def min_chunk(self, platform: PlatformSpec, phase2_work: float | None = None) -> float:
        """The phase-2 chunk floor for a platform (optionally pool-capped)."""
        return phase2_min_chunk(platform, self.known_error, phase2_work=phase2_work)

    def create_source(self, platform: PlatformSpec, total_work: float) -> RUMRSource:
        w1, w2 = self.split(platform, total_work)
        plan = None
        if w1 > 0:
            plan = solve_umr(platform, w1, self.max_rounds, self.umr_method)
        phase2 = None
        if w2 > 0:
            # Classic self-scheduling lookahead of 1: committing chunks to
            # workers early (double-buffering) was measured to cost more in
            # lost adaptivity than it recovers in overlap — see the
            # lookahead ablation benchmark.
            if self.phase2_weighted:
                from repro.core.weighted_factoring import WeightedFactoringSource

                phase2 = WeightedFactoringSource(
                    platform=platform,
                    total_work=w2,
                    factor=self.factor,
                    min_chunk=self.min_chunk(platform, phase2_work=w2),
                    phase="rumr-p2",
                    lookahead=1,
                )
            else:
                phase2 = FactoringSource(
                    n=platform.N,
                    total_work=w2,
                    factor=self.factor,
                    min_chunk=self.min_chunk(platform, phase2_work=w2),
                    phase="rumr-p2",
                    lookahead=1,
                )
        return RUMRSource(
            plan=plan,
            phase2=phase2,
            out_of_order=self.out_of_order,
            scheduler=self,
            platform=platform,
            total_work=total_work,
        )

    def batch_kernel(self, platform: PlatformSpec, total_work: float) -> RUMRKernelSpec:
        w1, w2 = self.split(platform, total_work)
        rounds = []
        if w1 > 0:
            plan = solve_umr(platform, w1, self.max_rounds, self.umr_method)
            for row in plan.chunk_sizes:
                if any(s > 0.0 for s in row):
                    rounds.append(tuple(s if s > 0.0 else 0.0 for s in row))
        if w2 > 0:
            if self.phase2_weighted:
                from repro.core.weighted_factoring import WeightedFactoringKernelSpec

                s_tot = platform.total_compute_rate()
                phase2 = WeightedFactoringKernelSpec(
                    n=platform.N,
                    total_work=w2,
                    factor=self.factor,
                    min_chunk=self.min_chunk(platform, phase2_work=w2),
                    weights=tuple(w.S / s_tot for w in platform),
                )
            else:
                phase2 = FactoringKernelSpec(
                    n=platform.N,
                    total_work=w2,
                    factor=self.factor,
                    min_chunk=self.min_chunk(platform, phase2_work=w2),
                )
        else:
            # Skipped phase 2: a zero-workload factoring slot that crash
            # recovery can re-arm as the scalar source's fallback tail —
            # it must carry the scheduler's factor for that.
            phase2 = FactoringKernelSpec(
                n=platform.N, total_work=0.0, factor=self.factor
            )
        return RUMRKernelSpec(
            n=platform.N,
            rounds=tuple(rounds),
            out_of_order=self.out_of_order,
            phase2=phase2,
            total_work=total_work,
            clats=tuple(w.cLat for w in platform),
            nlats=tuple(w.nLat for w in platform),
            known_error=self.known_error,
        )
