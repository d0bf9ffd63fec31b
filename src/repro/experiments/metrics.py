"""Metrics over sweep tensors: the quantities the paper reports.

* :func:`outperform_fraction` — "percentage of experiments for which RUMR
  outperforms X (by at least a margin)", Tables 2 and 3;
* :func:`error_buckets` — the paper's five error ranges (0–0.08, 0.1–0.18,
  …, 0.4–0.48);
* :func:`mean_normalized_makespan` — per-error mean of ``makespan(X) /
  makespan(RUMR)``, the quantity plotted in Figs 4–7 (values above 1 mean
  RUMR wins).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import FaultSweepResults, SweepResults

__all__ = [
    "PAPER_BUCKETS",
    "error_buckets",
    "fault_degradation",
    "mean_normalized_makespan",
    "outperform_fraction",
    "overall_outperform_fraction",
]

#: The paper's Table 2/3 error ranges, as (low, high) inclusive bounds.
PAPER_BUCKETS = ((0.0, 0.08), (0.1, 0.18), (0.2, 0.28), (0.3, 0.38), (0.4, 0.48))


def error_buckets(
    errors: tuple[float, ...],
    buckets: tuple[tuple[float, float], ...] = PAPER_BUCKETS,
) -> list[np.ndarray]:
    """Index arrays grouping the error axis into the paper's ranges.

    Error values falling in none of the ranges (possible with a coarse
    axis) are dropped, matching the paper's bucket gaps (e.g. 0.09).
    """
    arr = np.asarray(errors)
    out = []
    for low, high in buckets:
        out.append(np.nonzero((arr >= low - 1e-12) & (arr <= high + 1e-12))[0])
    return out


def outperform_fraction(
    results: SweepResults,
    competitor: str,
    margin: float = 0.0,
    reference: str | None = None,
) -> np.ndarray:
    """Per-error fraction of experiments where the reference beats ``competitor``.

    An experiment is one (platform, repetition) cell.  "Beats by margin"
    means ``makespan(competitor) > (1 + margin) · makespan(reference)`` —
    ``margin=0.1`` reproduces Table 3's "by at least 10%".

    Returns an array over the grid's error axis with values in [0, 1].
    """
    reference = reference or results.reference
    ref = results.makespans[reference]
    comp = results.makespans[competitor]
    wins = comp > (1.0 + margin) * ref
    return wins.mean(axis=(0, 2))


def overall_outperform_fraction(
    results: SweepResults, competitor: str, margin: float = 0.0
) -> float:
    """Fraction over *all* experiments (the paper's "79% overall" number)."""
    ref = results.makespans[results.reference]
    comp = results.makespans[competitor]
    return float((comp > (1.0 + margin) * ref).mean())


def mean_normalized_makespan(
    results: SweepResults,
    competitor: str,
    reference: str | None = None,
) -> np.ndarray:
    """Per-error mean of ``makespan(competitor) / makespan(reference)``.

    The ratio is taken per experiment (same platform, same repetition,
    common random numbers), then averaged — the natural reading of the
    paper's "average makespan … normalized to that achieved by RUMR".
    """
    reference = reference or results.reference
    ratio = results.makespans[competitor] / results.makespans[reference]
    return ratio.mean(axis=(0, 2))


def fault_degradation(
    results: FaultSweepResults,
    algorithm: str,
    baseline_spec: str = "none",
) -> dict[str, float]:
    """Mean makespan degradation per fault scenario, relative to fault-free.

    For each fault spec: the per-experiment ratio ``makespan(under fault) /
    makespan(fault-free)`` averaged over every (platform, error,
    repetition) cell — valid pairing because all scenarios share the grid
    seed.  1.0 means the scenario costs nothing; a recovery-aware
    scheduler's value under crashes measures how much of the lost worker's
    throughput it manages to re-absorb.
    """
    return _scenario_degradation(
        results.sweeps, results.fault_specs, algorithm, baseline_spec, "fault"
    )


def _scenario_degradation(
    sweeps: dict[str, SweepResults],
    specs: tuple[str, ...],
    algorithm: str,
    baseline_spec: str,
    axis: str,
) -> dict[str, float]:
    """Per spec, the mean per-cell makespan ratio to ``baseline_spec``.

    ``axis`` names the scenario axis in the error message.
    """
    if baseline_spec not in sweeps:
        raise ValueError(f"baseline {axis} spec {baseline_spec!r} not in results")
    base = sweeps[baseline_spec].makespans[algorithm]
    return {spec: float((sweeps[spec].makespans[algorithm] / base).mean()) for spec in specs}
