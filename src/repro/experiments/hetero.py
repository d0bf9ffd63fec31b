"""Heterogeneity extension experiments (beyond the paper's §5).

The paper evaluates the homogeneous case and defers heterogeneity to the
UMR papers.  This module provides the missing sweep: platforms whose
worker speeds and bandwidths are spread by a controllable *heterogeneity
level* ``h`` (rates drawn log-uniformly from ``[rate/(1+h), rate·(1+h)]``
around the homogeneous reference, deterministically from the grid seed),
holding the aggregate compute rate and the full-utilization margin fixed
so results stay comparable with the homogeneous baseline.

Two questions it answers (see ``benchmarks/test_bench_hetero.py``):

* does RUMR keep its advantage over UMR and Factoring as heterogeneity
  grows? (it should: the phase split is orthogonal to per-worker sizing);
* does swapping RUMR's phase 2 for Weighted Factoring pay off at high
  heterogeneity? (plain factoring's equal chunks make slow workers the
  stragglers of every batch).
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.base import Scheduler
from repro.errors.models import make_error_model
from repro.errors.rng import StateTable, child_seeds, stream_for
from repro.platform.spec import PlatformSpec, WorkerSpec
from repro.sim.fastsim import simulate_fast

__all__ = ["heterogeneous_platform_family", "HeteroResult", "run_hetero_study"]


def heterogeneous_platform_family(
    n: int,
    heterogeneity: float,
    bandwidth_factor: float = 1.8,
    cLat: float = 0.3,
    nLat: float = 0.1,
    mean_S: float = 1.0,
    seed: int = 0,
) -> PlatformSpec:
    """A platform with controlled speed/bandwidth spread.

    ``heterogeneity = 0`` reproduces the homogeneous Table-1 platform;
    ``h > 0`` draws per-worker speeds log-uniformly in
    ``[mean_S/(1+h), mean_S·(1+h)]`` and then rescales so ``Σ S_i`` equals
    the homogeneous total (results comparable in aggregate capacity).
    Bandwidths are spread the same way around ``bandwidth_factor·n·mean_S``
    and rescaled to preserve ``Σ S_i/B_i`` (the full-utilization margin).
    """
    if heterogeneity < 0:
        raise ValueError(f"heterogeneity must be >= 0, got {heterogeneity}")
    base_b = bandwidth_factor * n * mean_S
    if heterogeneity == 0:
        worker = WorkerSpec(S=mean_S, B=base_b, cLat=cLat, nLat=nLat)
        return PlatformSpec([worker] * n)
    rng = np.random.Generator(np.random.PCG64(stream_for(seed, n).integers(0, 2**63 - 1)))
    spread = 1.0 + heterogeneity
    s = np.exp(rng.uniform(np.log(mean_S / spread), np.log(mean_S * spread), n))
    s *= (mean_S * n) / s.sum()
    b = np.exp(rng.uniform(np.log(base_b / spread), np.log(base_b * spread), n))
    # Rescale bandwidths so the utilization sum matches the homogeneous
    # reference (n*mean_S/base_b = 1/bandwidth_factor).
    target = 1.0 / bandwidth_factor
    b *= (s / b).sum() / target
    return PlatformSpec(
        WorkerSpec(S=float(si), B=float(bi), cLat=cLat, nLat=nLat)
        for si, bi in zip(s, b)
    )


@dataclasses.dataclass(frozen=True)
class HeteroResult:
    """Mean makespans per (heterogeneity level, algorithm)."""

    levels: tuple[float, ...]
    error: float
    means: dict[str, tuple[float, ...]]

    def normalized_to(self, reference: str) -> dict[str, tuple[float, ...]]:
        """Each algorithm's means divided by the reference algorithm's."""
        ref = self.means[reference]
        return {
            name: tuple(v / r for v, r in zip(values, ref))
            for name, values in self.means.items()
            if name != reference
        }


def run_hetero_study(
    schedulers: typing.Mapping[str, typing.Callable[[], Scheduler]],
    levels: typing.Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    n: int = 16,
    total_work: float = 1000.0,
    error: float = 0.3,
    repetitions: int = 10,
    seed: int = 2003,
) -> HeteroResult:
    """Sweep heterogeneity levels for a set of scheduler factories.

    Factories (not instances) because schedulers are bound per platform —
    e.g. ``{"RUMR": lambda: RUMR(known_error=0.3)}``.  Repetition
    ``rep`` of a level runs under the first ``integers(0, 2**63 - 1)``
    draw of ``stream_for(seed, int(level * 1000), rep)``; a level's run
    seeds and their comm/comp stream states are derived in one pass each.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    means: dict[str, list[float]] = {name: [] for name in schedulers}
    for level in levels:
        platform = heterogeneous_platform_family(n, level, seed=seed)
        keys = [(int(level * 1000), rep) for rep in range(repetitions)]
        run_seeds = child_seeds(seed, np.reshape(keys, (-1, 2))).tolist()
        with StateTable(run_seeds).scope():
            for name, factory in schedulers.items():
                total = 0.0
                for run_seed in run_seeds:
                    model = make_error_model("normal", error)
                    result = simulate_fast(
                        platform, total_work, factory(), model, seed=run_seed
                    )
                    total += result.makespan
                means[name].append(total / repetitions)
    return HeteroResult(
        levels=tuple(levels),
        error=error,
        means={k: tuple(v) for k, v in means.items()},
    )
