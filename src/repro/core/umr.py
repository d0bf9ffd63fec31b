"""UMR — Uniform Multi-Round scheduling (Yang & Casanova, IPDPS'03).

UMR dispatches the workload in ``M`` rounds.  Within a round every worker
receives one chunk; chunk sizes are uniform within a round (per worker on
heterogeneous platforms: scaled so all workers compute a round in the same
time) and grow geometrically between rounds so that the master finishes
dispatching round ``j+1`` exactly when the workers finish computing round
``j`` ("no-idle" condition).

Homogeneous recurrence (paper §3.2, with θ = B/(N·S))::

    N·(nLat + chunk_{j+1}/B) = cLat + chunk_j/S
    chunk_{j+1} = θ·chunk_j + γ,     γ = B·cLat/N − B·nLat

The free parameters are the number of rounds ``M`` and the first chunk size
``chunk_0``; they minimize the predicted makespan

    F(M, chunk_0) = N·(nLat + chunk_0/B) + tLat + M·cLat + W/(N·S)

subject to the chunks summing to the workload.  The paper solves the
Lagrange system numerically by bisection; this module implements that
(:func:`solve_umr_lagrange`) and an exact search over integer round counts
(:func:`solve_umr_search`) which is the default because it is immune to the
degenerate corners of the parameter space (e.g. ``cLat = nLat = 0``, where
the Lagrange condition has no finite root).

The heterogeneous generalization replaces the per-round chunk size with the
per-round *compute time* ``T_j`` (uniform across workers within a round,
``chunk_{j,i} = S_i·(T_j − cLat_i)``), giving

    T_{j+1} = θ_h·(T_j − A),   θ_h = 1/Σ(S_i/B_i),   A = Σ nLat_i − Σ S_i·cLat_i/B_i

with the analogous objective.  On a homogeneous platform it reduces exactly
to the homogeneous solution (verified by the test suite).
"""

from __future__ import annotations

import dataclasses
import functools
import math

from repro.core.base import Scheduler
from repro.core.chunks import ChunkPlan, PlannedChunk
from repro.platform.spec import PlatformSpec

__all__ = [
    "UMR",
    "UMRPlan",
    "UMRInfeasibleError",
    "solve_umr",
    "solve_umr_search",
    "solve_umr_lagrange",
    "umr_predicted_makespan",
]

#: Round-count cap for the integer search.  θ ≥ 1.2 makes chunk_0 shrink as
#: θ^-M, so anything beyond ~50 rounds is numerically indistinguishable.
MAX_ROUNDS = 50


class UMRInfeasibleError(ValueError):
    """No valid UMR schedule exists for the given platform and workload."""


@dataclasses.dataclass(frozen=True)
class UMRPlan:
    """A solved UMR schedule.

    Attributes
    ----------
    num_rounds:
        The integer round count ``M``.
    round_times:
        Per-round uniform compute time ``T_j`` (seconds), length ``M``.
    chunk_sizes:
        ``chunk_sizes[j][i]`` — workload units for worker ``i`` in round
        ``j``.  Uniform across ``i`` on homogeneous platforms.
    predicted_makespan:
        The model's objective value ``F`` for this plan.
    theta:
        The geometric growth ratio (``B/(N·S)`` homogeneous).
    method:
        ``"search"`` or ``"lagrange"`` — which solver produced the plan.
    """

    num_rounds: int
    round_times: tuple[float, ...]
    chunk_sizes: tuple[tuple[float, ...], ...]
    predicted_makespan: float
    theta: float
    method: str

    @property
    def chunk0(self) -> float:
        """First-round chunk size of worker 0 (the paper's ``chunk_0``)."""
        return self.chunk_sizes[0][0]

    @property
    def total_work(self) -> float:
        """Sum of all chunks."""
        return sum(sum(row) for row in self.chunk_sizes)

    @functools.cached_property
    def dispatch_rounds(self) -> tuple[tuple[float, ...], ...]:
        """The rows of :attr:`chunk_sizes` that hold a chunk (a size > 0).

        The dense rounds RUMR and AdaptiveRUMR dispatch from, in both
        engines (:class:`~repro.core.lockstep.PlanCursor` and
        :class:`~repro.core.lockstep.PlanRounds`).  Solved plans are
        memoized, so runs on one platform filter them once.
        """
        return tuple(row for row in self.chunk_sizes if any(s > 0.0 for s in row))

    def to_chunk_plan(self) -> ChunkPlan:
        """Round-major dispatch order: round 0 to workers 0..N-1, then 1, …

        One :class:`ChunkPlan` per solved plan, built on the first call
        and returned by every later one (the plan is frozen).
        """
        return self._chunk_plan

    @functools.cached_property
    def _chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(
            PlannedChunk(worker=i, size=size, round_index=j, phase=f"umr-round{j}")
            for j, row in enumerate(self.chunk_sizes)
            for i, size in enumerate(row)
            if size > 0.0
        )


# ---------------------------------------------------------------------------
# Heterogeneous-capable helpers (homogeneous is the N-identical special case)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Derived:
    """Aggregate quantities of the UMR recurrence for a platform."""

    n: int
    beta: float        # Σ S_i/B_i  (= 1/θ)
    theta: float       # growth ratio
    A: float           # Σ nLat_i − Σ S_i·cLat_i/B_i
    t_star: float      # fixed point of the T recurrence (nan when θ == 1)
    s_tot: float       # Σ S_i
    c_sum: float       # Σ S_i·cLat_i
    d_sum: float       # Σ S_i·cLat_i/B_i
    nlat_sum: float    # Σ nLat_i
    clat_max: float    # max_i cLat_i
    tlat_max: float    # max_i tLat_i


def _derive(platform: PlatformSpec) -> _Derived:
    beta = platform.utilization_sum()
    if beta <= 0:
        # All links infinitely fast: chunks can be arbitrarily small; treat
        # as a very large growth ratio so the search degenerates sanely.
        beta = 1e-12
    theta = 1.0 / beta
    A = sum(w.nLat for w in platform) - sum(
        0.0 if math.isinf(w.B) else w.S * w.cLat / w.B for w in platform
    )
    t_star = theta * A / (theta - 1.0) if not math.isclose(theta, 1.0) else math.nan
    return _Derived(
        n=platform.N,
        beta=beta,
        theta=theta,
        A=A,
        t_star=t_star,
        s_tot=sum(w.S for w in platform),
        c_sum=sum(w.S * w.cLat for w in platform),
        d_sum=sum(0.0 if math.isinf(w.B) else w.S * w.cLat / w.B for w in platform),
        nlat_sum=sum(w.nLat for w in platform),
        clat_max=max(w.cLat for w in platform),
        tlat_max=max(w.tLat for w in platform),
    )


def _pow(theta: float, m: float) -> float:
    """θ^m guarded against overflow (returns inf instead of raising)."""
    try:
        return math.pow(theta, m)
    except OverflowError:
        return math.inf


def _t0_for_rounds(d: _Derived, total_work: float, m: int) -> float | None:
    """Round-0 compute time T_0 for an M-round schedule, or None if θ^M blew up."""
    sum_t = (total_work + m * d.c_sum) / d.s_tot
    if math.isclose(d.theta, 1.0):
        # T_j = T_0 − j·A ; Σ = M·T_0 − A·M(M−1)/2
        return (sum_t + d.A * m * (m - 1) / 2.0) / m
    tm = _pow(d.theta, m)
    if math.isinf(tm):
        return None
    return d.t_star + (sum_t - m * d.t_star) * (d.theta - 1.0) / (tm - 1.0)


def _round_times(d: _Derived, t0: float, m: int) -> list[float]:
    """Materialize T_0 … T_{M−1} from the recurrence."""
    times = [t0]
    for _ in range(m - 1):
        times.append(d.theta * (times[-1] - d.A))
    return times


def _objective(d: _Derived, t0: float, sum_t: float) -> float:
    """Predicted makespan F(M, T_0) (see module docstring)."""
    return d.nlat_sum + d.beta * t0 - d.d_sum + d.tlat_max + sum_t


def _plan_from_t0(
    platform: PlatformSpec,
    d: _Derived,
    t0: float,
    m: int,
    method: str,
    total_work: float,
    allow_decreasing: bool = False,
) -> UMRPlan | None:
    """Build and validate a concrete plan.

    Returns None when the plan is invalid: a negative chunk somewhere
    (``T_j < cLat_i``); round sizes *decreasing* (unless
    ``allow_decreasing``) — UMR is defined by nondecreasing chunks, and
    this rejection reproduces the paper's observation that UMR degrades to
    a single round in high-latency configurations; or the materialized
    chunk total drifting from the workload constraint.  The latter happens
    at large round counts where ``T_0`` sits within float-epsilon of the
    recurrence fixed point — the correction term underflows and the
    replayed geometric sequence no longer honours the constraint
    (catastrophic cancellation in θ^M).
    """
    times = _round_times(d, t0, m)
    # Validity: every worker's chunk in every round must be non-negative,
    # i.e. T_j >= cLat_i wherever S_i > 0.  The sequence is monotone, so
    # checking both ends suffices, but rounds are few — check all.
    tol = -1e-12 * max(1.0, abs(t0))
    if any(t - d.clat_max < tol for t in times):
        return None
    if not allow_decreasing:
        mono_tol = 1e-9 * max(1.0, abs(t0))
        if any(b < a - mono_tol for a, b in zip(times, times[1:])):
            return None
    chunk_rows = [
        tuple(max(0.0, w.S * (t - w.cLat)) for w in platform) for t in times
    ]
    total = sum(sum(row) for row in chunk_rows)
    if not math.isclose(total, total_work, rel_tol=1e-7):
        return None
    return UMRPlan(
        num_rounds=m,
        round_times=tuple(times),
        chunk_sizes=tuple(chunk_rows),
        predicted_makespan=_objective(d, t0, sum(times)),
        theta=d.theta,
        method=method,
    )


def _normalize_plan(plan: UMRPlan, platform: PlatformSpec, total_work: float) -> UMRPlan:
    """Adjust the last round so chunks sum to exactly ``total_work``.

    The numerical residual (from the θ^M power arithmetic) is spread over
    the last round in proportion to compute rate, which keeps the round's
    compute time uniform; the predicted makespan shifts by exactly
    ``residual / Σ S_i``.  Workers with a zero chunk (dropped by the
    feasibility fallback) do not participate.
    """
    rows = [list(row) for row in plan.chunk_sizes]
    current = sum(sum(row) for row in rows)
    residual = total_work - current
    if residual == 0.0:
        return plan
    last = rows[-1]
    active = [(i, w) for i, w in enumerate(platform) if last[i] > 0.0 or plan.num_rounds == 1]
    if not active:
        active = list(enumerate(platform))
    s_tot = sum(w.S for _, w in active)
    for i, w in active:
        last[i] = max(0.0, last[i] + residual * w.S / s_tot)
    rows[-1] = last
    # Re-check the invariant; give up on pathological residuals.
    new_total = sum(sum(row) for row in rows)
    if not math.isclose(new_total, total_work, rel_tol=1e-9, abs_tol=1e-9):
        raise UMRInfeasibleError(
            f"could not normalize plan to total work {total_work} (got {new_total})"
        )
    return dataclasses.replace(
        plan,
        chunk_sizes=tuple(tuple(row) for row in rows),
        predicted_makespan=plan.predicted_makespan + residual / s_tot,
    )


def _search_subset(
    platform: PlatformSpec,
    total_work: float,
    max_rounds: int,
    allow_decreasing: bool,
) -> UMRPlan | None:
    """Best valid plan over integer round counts, or None if none exists."""
    d = _derive(platform)
    best: UMRPlan | None = None
    for m in range(1, max_rounds + 1):
        t0 = _t0_for_rounds(d, total_work, m)
        if t0 is None:
            break
        plan = _plan_from_t0(platform, d, t0, m, "search", total_work, allow_decreasing)
        if plan is None:
            continue
        # Strict-improvement threshold: prefer fewer rounds when extra
        # rounds buy only a vanishing (sub-relative-epsilon) improvement,
        # as happens when cLat = nLat = 0 and F(M) is asymptotically flat.
        if best is None or plan.predicted_makespan < best.predicted_makespan * (1.0 - 1e-9):
            best = plan
    return best


def _expand_plan(plan: UMRPlan, indices: list[int], n_full: int) -> UMRPlan:
    """Map a subset plan back to full platform width (zeros for dropped)."""
    rows = []
    for row in plan.chunk_sizes:
        full = [0.0] * n_full
        for sub_i, orig_i in enumerate(indices):
            full[orig_i] = row[sub_i]
        rows.append(tuple(full))
    return dataclasses.replace(plan, chunk_sizes=tuple(rows))


def solve_umr_search(
    platform: PlatformSpec,
    total_work: float,
    max_rounds: int = MAX_ROUNDS,
    allow_decreasing: bool = False,
) -> UMRPlan:
    """Exact minimization of the UMR objective over integer round counts.

    Evaluates ``F(M)`` with ``T_0`` eliminated through the workload
    constraint for every ``M`` in ``1..max_rounds`` and returns the best
    *valid* plan (all chunks non-negative).

    When no round count is feasible for the full worker set — the workload
    is too small to cover the per-round latency of every worker — the
    worker with the largest ``cLat`` is dropped and the search repeats (the
    paper's resource-selection idea applied to the start-up-cost regime).
    A single worker is always feasible, so the search always succeeds.
    """
    if not total_work > 0:
        raise ValueError(f"total_work must be > 0, got {total_work}")
    indices = list(range(platform.N))
    while True:
        sub = platform.subset(indices) if len(indices) < platform.N else platform
        best = _search_subset(sub, total_work, max_rounds, allow_decreasing)
        if best is not None:
            normalized = _normalize_plan(best, sub, total_work)
            if len(indices) < platform.N:
                normalized = _expand_plan(normalized, indices, platform.N)
            return normalized
        if len(indices) == 1:
            raise UMRInfeasibleError(
                "no valid UMR schedule even on a single worker; "
                f"total_work={total_work} cannot cover the latencies"
            )
        drop = max(indices, key=lambda i: (platform[i].cLat, -platform[i].S, i))
        indices.remove(drop)


def _lagrange_phi(d: _Derived, total_work: float, m: float) -> float:
    """The stationarity residual φ(M) of the Lagrange system (paper §3.2).

    φ(M) = ∂F/∂M − λ·∂G/∂M with λ eliminated through the ∂/∂T_0 pair;
    a root of φ is a candidate optimal (continuous) round count.
    """
    theta = d.theta
    tm = _pow(theta, m)
    if math.isinf(tm):
        return math.nan
    e = (tm - 1.0) / (theta - 1.0)
    sum_t = (total_work + m * d.c_sum) / d.s_tot
    t0 = d.t_star + (sum_t - m * d.t_star) / e
    # ∂(Σ T_j)/∂M at fixed T_0:
    dsum_dm = (t0 - d.t_star) * tm * math.log(theta) / (theta - 1.0) + d.t_star
    # λ = (β + E) / (S_tot · E);  stationarity: dsum_dm = λ·(S_tot·dsum_dm − C)
    lam = (d.beta + e) / (d.s_tot * e)
    return dsum_dm - lam * (d.s_tot * dsum_dm - d.c_sum)


def solve_umr_lagrange(
    platform: PlatformSpec,
    total_work: float,
    max_rounds: int = MAX_ROUNDS,
    allow_decreasing: bool = False,
) -> UMRPlan:
    """The paper's solver: bisection on the Lagrange stationarity condition.

    Falls back to :func:`solve_umr_search` when the condition has no root
    in ``(0, max_rounds]`` (which happens at degenerate parameter corners
    such as ``cLat = nLat = 0``, where the continuous optimum is M → ∞).
    """
    if not total_work > 0:
        raise ValueError(f"total_work must be > 0, got {total_work}")
    d = _derive(platform)
    if math.isclose(d.theta, 1.0):
        return solve_umr_search(platform, total_work, max_rounds, allow_decreasing)

    # Bracket a sign change of φ on a geometric grid of M values.
    from scipy.optimize import brentq

    grid = [0.05 * 1.35**k for k in range(40)]
    grid = [m for m in grid if m <= max_rounds] + [float(max_rounds)]
    prev_m, prev_phi = None, None
    root: float | None = None
    for m in grid:
        phi = _lagrange_phi(d, total_work, m)
        if math.isnan(phi):
            break
        if prev_phi is not None and phi == 0.0:
            root = m
            break
        if prev_phi is not None and (prev_phi < 0) != (phi < 0):
            root = float(
                brentq(lambda x: _lagrange_phi(d, total_work, x), prev_m, m, xtol=1e-10)
            )
            break
        prev_m, prev_phi = m, phi
    if root is None:
        return solve_umr_search(platform, total_work, max_rounds, allow_decreasing)

    candidates = sorted({max(1, math.floor(root)), max(1, math.ceil(root))})
    best: UMRPlan | None = None
    for m in candidates:
        t0 = _t0_for_rounds(d, total_work, m)
        if t0 is None:
            continue
        plan = _plan_from_t0(platform, d, t0, m, "lagrange", total_work, allow_decreasing)
        if plan is None:
            continue
        if best is None or plan.predicted_makespan < best.predicted_makespan:
            best = plan
    if best is None:
        return solve_umr_search(platform, total_work, max_rounds, allow_decreasing)
    return _normalize_plan(best, platform, total_work)


@functools.lru_cache(maxsize=16384)
def solve_umr(
    platform: PlatformSpec,
    total_work: float,
    max_rounds: int = MAX_ROUNDS,
    method: str = "search",
    allow_decreasing: bool = False,
) -> UMRPlan:
    """Solve for the UMR schedule; ``method`` is ``"search"`` or ``"lagrange"``.

    ``allow_decreasing=True`` lifts the nondecreasing-rounds restriction
    and admits the (sometimes better) decreasing-chunk solutions of the
    no-idle recurrence — not UMR as published, but a useful upper baseline
    (see the ablation benchmarks).

    Results are memoized: plans are immutable and depend only on the
    (hashable) platform, the workload and the solver options, while the
    experiment harness re-solves the same configuration for every error
    level and repetition.
    """
    if method == "search":
        return solve_umr_search(platform, total_work, max_rounds, allow_decreasing)
    if method == "lagrange":
        return solve_umr_lagrange(platform, total_work, max_rounds, allow_decreasing)
    raise ValueError(f"unknown UMR solver method {method!r}")


def umr_predicted_makespan(platform: PlatformSpec, plan: UMRPlan) -> float:
    """Closed-form predicted makespan for a homogeneous UMR plan.

    ``F = N·(nLat + chunk_0/B) + tLat + M·cLat + W/(N·S)`` — the paper's
    objective.  Used by the test suite as an oracle against the simulators.
    """
    if not platform.is_homogeneous:
        raise ValueError("closed form applies to homogeneous platforms only")
    w = platform[0]
    n = platform.N
    per_worker = plan.total_work / n
    return (
        n * (w.nLat + plan.chunk0 / w.B)
        + w.tLat
        + plan.num_rounds * w.cLat
        + per_worker / w.S
    )


class UMR(Scheduler):
    """The UMR scheduler: a precomputed increasing-chunk multi-round plan.

    Parameters
    ----------
    method:
        ``"search"`` (exact integer optimization, default) or
        ``"lagrange"`` (the paper's bisection on the Lagrange condition).
    max_rounds:
        Upper bound for the round count.
    allow_decreasing:
        Admit decreasing-chunk no-idle schedules (not UMR as published;
        see :func:`solve_umr`).
    """

    def __init__(
        self,
        method: str = "search",
        max_rounds: int = MAX_ROUNDS,
        allow_decreasing: bool = False,
    ):
        if method not in ("search", "lagrange"):
            raise ValueError(f"unknown UMR solver method {method!r}")
        self.method = method
        self.max_rounds = max_rounds
        self.allow_decreasing = allow_decreasing
        self.name = "UMR"

    is_static = True

    def plan(self, platform: PlatformSpec, total_work: float) -> UMRPlan:
        """Solve and return the full :class:`UMRPlan`."""
        return solve_umr(
            platform, total_work, self.max_rounds, self.method, self.allow_decreasing
        )

    def static_plan(self, platform: PlatformSpec, total_work: float) -> ChunkPlan:
        return self.plan(platform, total_work).to_chunk_plan()
