"""Single-installment (one-round) divisible-load schedules.

Two baselines:

* :class:`OneRound` — the classic optimal single-installment schedule
  under the latency-free linear model (the setting of Rosenberg, Cluster
  2001, and Bharadwaj et al. ch. 3): the master sends each worker exactly
  one chunk, sized so that every worker finishes at the same instant given
  sequential distribution.  Identical to MI-1 and implemented as such.
* :class:`EqualSplit` — the naive ``W/N`` equal partition, one chunk per
  worker; a useful lower bar in examples and tests.

Both plans are memoized per ``(platform, total_work)`` like the UMR and
MI-x solvers, so repeated runs replay one plan object.
"""

from __future__ import annotations

import functools

from repro.core.base import Scheduler
from repro.core.chunks import ChunkPlan, PlannedChunk
from repro.core.multi_installment import solve_multi_installment
from repro.platform.spec import PlatformSpec

__all__ = ["OneRound", "EqualSplit"]


class OneRound(Scheduler):
    """Optimal single-installment schedule (simultaneous finish). ≡ MI-1."""

    def __init__(self) -> None:
        self.name = "OneRound"

    is_static = True

    def chunk_sizes(self, platform: PlatformSpec, total_work: float) -> tuple[float, ...]:
        """Per-worker loads, in dispatch order (decreasing on homogeneous)."""
        return solve_multi_installment(platform, total_work, 1).sizes[0]

    def static_plan(self, platform: PlatformSpec, total_work: float) -> ChunkPlan:
        return _one_round_plan(platform, total_work)


class EqualSplit(Scheduler):
    """Naive baseline: every worker gets ``W / N`` in a single round."""

    def __init__(self) -> None:
        self.name = "EqualSplit"

    is_static = True

    def static_plan(self, platform: PlatformSpec, total_work: float) -> ChunkPlan:
        return self.plan(platform, total_work)

    def plan(self, platform: PlatformSpec, total_work: float) -> ChunkPlan:
        """The (trivial) plan, exposed for inspection."""
        return _equal_split_plan(platform, total_work)


@functools.lru_cache(maxsize=16384)
def _one_round_plan(platform: PlatformSpec, total_work: float) -> ChunkPlan:
    return ChunkPlan(
        PlannedChunk(worker=i, size=s, round_index=0, phase="one-round")
        for i, s in enumerate(solve_multi_installment(platform, total_work, 1).sizes[0])
        if s > 0.0
    )


@functools.lru_cache(maxsize=16384)
def _equal_split_plan(platform: PlatformSpec, total_work: float) -> ChunkPlan:
    share = total_work / platform.N
    return ChunkPlan(
        PlannedChunk(worker=i, size=share, round_index=0, phase="equal-split")
        for i in range(platform.N)
    )
