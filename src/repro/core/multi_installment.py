"""Multi-Installment (MI) divisible-load scheduling.

The classic multi-installment strategy (Bharadwaj, Ghose, Mani &
Robertazzi, *Scheduling Divisible Loads in Parallel and Distributed
Systems*, ch. 10) dispatches ``x`` installments to each of the ``N``
workers under an idealized platform model *without latencies*:
transferring ``a`` units takes ``a/B_i`` and computing them takes
``a/S_i``; workers have communication front-ends.

The installment sizes are fixed by three families of conditions:

1. **No idling** — worker ``i`` finishes receiving installment ``j+1``
   exactly when it finishes computing installment ``j``;
2. **Simultaneous completion** — all workers finish their last
   installment at the same instant (the classic DLT optimality principle);
3. **Conservation** — the installments sum to the total workload.

With the master dispatching round-major (installment 0 to workers
``0..N-1``, then installment 1, …) these are ``N·x`` linear equations in
the ``N·x`` unknown sizes, solved here exactly with NumPy.  ``x = 1``
degenerates to the classic single-installment schedule with decreasing
geometric chunks.

Because MI's model ignores ``cLat``/``nLat``/``tLat``, its schedules are
increasingly wrong as latencies grow — this is precisely the gap UMR was
built to close, and the reason MI-x needs the round count ``x`` supplied
by hand (the paper instantiates MI-1 … MI-4).

For some platform/round combinations the no-idle equalities force
*negative* sizes (the model is infeasible for that ``x``).  The solver
then retries with fewer rounds and reports the round count actually used
(:attr:`MISchedule.rounds_used`).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.base import Scheduler
from repro.core.chunks import ChunkPlan, PlannedChunk
from repro.platform.spec import PlatformSpec

__all__ = ["MultiInstallment", "MISchedule", "solve_multi_installment", "MIInfeasibleError"]


class MIInfeasibleError(ValueError):
    """The no-idle system has no non-negative solution for any round count."""


@dataclasses.dataclass(frozen=True)
class MISchedule:
    """A solved multi-installment schedule.

    ``sizes[j][i]`` is the load worker ``i`` receives in installment ``j``.
    """

    sizes: tuple[tuple[float, ...], ...]
    rounds_requested: int
    rounds_used: int

    @property
    def total_work(self) -> float:
        """Sum of all installments."""
        return float(sum(sum(row) for row in self.sizes))

    def to_chunk_plan(self) -> ChunkPlan:
        """Round-major dispatch order.

        One :class:`ChunkPlan` per solved schedule, built on the first
        call and returned by every later one (the schedule is frozen).
        """
        return self._chunk_plan

    @functools.cached_property
    def _chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(
            PlannedChunk(worker=i, size=s, round_index=j, phase=f"mi-round{j}")
            for j, row in enumerate(self.sizes)
            for i, s in enumerate(row)
            if s > 0.0
        )


def _solve_exact(platform: PlatformSpec, total_work: float, rounds: int) -> np.ndarray | None:
    """Solve the MI linear system; None when any size is negative."""
    n = platform.N
    x = rounds
    m = n * x  # unknowns a[j*n + i]
    A = np.zeros((m, m))
    b = np.zeros(m)
    inv_b = np.array([0.0 if np.isinf(w.B) else 1.0 / w.B for w in platform])
    inv_s = np.array([1.0 / w.S for w in platform])

    def var(j: int, i: int) -> int:
        return j * n + i

    row = 0
    # recv_end(j, i) = sum of a[j', i']/B_{i'} over dispatch order up to (j, i).
    # comp_end(j, i) = recv_end(0, i) + sum_{j'<=j} a[j', i]/S_i   (no idling).
    # (1) No idling: recv_end(j, i) == comp_end(j-1, i)  for j >= 1.
    for j in range(1, x):
        for i in range(n):
            coeff = np.zeros(m)
            # recv_end(j, i): all chunks with dispatch position <= (j, i)
            for jj in range(j + 1):
                last_i = i if jj == j else n - 1
                for ii in range(last_i + 1):
                    coeff[var(jj, ii)] += inv_b[ii]
            # minus comp_end(j-1, i)
            for jj in range(j):
                coeff[var(jj, i)] -= inv_s[i]
            # minus recv_end(0, i)
            for ii in range(i + 1):
                coeff[var(0, ii)] -= inv_b[ii]
            A[row] = coeff
            b[row] = 0.0
            row += 1
    # (2) Simultaneous completion: comp_end(x-1, i) == comp_end(x-1, 0).
    for i in range(1, n):
        coeff = np.zeros(m)
        for ii in range(i + 1):
            coeff[var(0, ii)] += inv_b[ii]
        for jj in range(x):
            coeff[var(jj, i)] += inv_s[i]
        coeff[var(0, 0)] -= inv_b[0]
        for jj in range(x):
            coeff[var(jj, 0)] -= inv_s[0]
        A[row] = coeff
        b[row] = 0.0
        row += 1
    # (3) Conservation.
    A[row] = 1.0
    b[row] = total_work
    row += 1
    assert row == m

    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    if np.any(sol < -1e-9 * total_work):
        return None
    sol = np.clip(sol, 0.0, None)
    # Renormalize the numerical residual onto the last installment row.
    residual = total_work - sol.sum()
    sol[-n:] += residual / n
    if np.any(sol < 0):
        return None
    return sol.reshape(x, n)


@functools.lru_cache(maxsize=16384)
def solve_multi_installment(
    platform: PlatformSpec, total_work: float, rounds: int
) -> MISchedule:
    """Solve MI-``rounds``; falls back to fewer rounds when infeasible.

    Memoized: schedules are immutable and depend only on the hashable
    arguments, while the harness re-solves each configuration for every
    error level and repetition.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not total_work > 0:
        raise ValueError(f"total_work must be > 0, got {total_work}")
    for x in range(rounds, 0, -1):
        sol = _solve_exact(platform, total_work, x)
        if sol is not None:
            sizes = tuple(tuple(float(v) for v in rowvals) for rowvals in sol)
            return MISchedule(sizes=sizes, rounds_requested=rounds, rounds_used=x)
    raise MIInfeasibleError(
        f"multi-installment infeasible for N={platform.N} even with a single round"
    )


class MultiInstallment(Scheduler):
    """MI-x scheduler (see module docstring).

    Parameters
    ----------
    rounds:
        The installment count ``x``.  The paper evaluates x = 1 … 4.
    """

    def __init__(self, rounds: int):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self.name = f"MI-{rounds}"

    is_static = True

    def schedule(self, platform: PlatformSpec, total_work: float) -> MISchedule:
        """Solve and return the full installment table."""
        return solve_multi_installment(platform, total_work, self.rounds)

    def static_plan(self, platform: PlatformSpec, total_work: float) -> ChunkPlan:
        return self.schedule(platform, total_work).to_chunk_plan()
