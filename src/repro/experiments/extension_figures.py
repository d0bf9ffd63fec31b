"""FigureResult adapters for the extension studies.

The heterogeneity, adaptive and output/multiport studies print tables from
their own result types; these adapters re-express them as
:class:`~repro.experiments.figures.FigureResult` so the standard report
machinery (ASCII chart + CSV, ``--out`` artifacts) applies uniformly.
The x-axis is reinterpreted per study (heterogeneity level, error level,
output ratio, port count); the normalization reference is stated in the
title.
"""

from __future__ import annotations

import statistics
import typing

from repro.core import RUMR, UMR, AdaptiveRUMR, Factoring
from repro.errors.models import make_error_model
from repro.experiments.figures import FigureResult
from repro.experiments.hetero import HeteroResult, run_hetero_study
from repro.platform.spec import homogeneous_platform
from repro.platform.topology import StarTopology
from repro.sim.fastsim import simulate_fast
from repro.sim.result import simulate

__all__ = [
    "fig_hetero",
    "fig_adaptive",
    "fig_output_ratio",
    "fig_multiport",
    "hetero_to_figure",
]


def hetero_to_figure(study: HeteroResult, reference: str = "UMR") -> FigureResult:
    """Normalize a heterogeneity study's means to one of its algorithms."""
    normalized = study.normalized_to(reference)
    return FigureResult(
        title=f"Heterogeneity study: makespan normalized to {reference} "
        f"(error={study.error:g})",
        xlabel="heterogeneity level (speed/bandwidth spread)",
        ylabel=f"makespan normalized to {reference}",
        errors=study.levels,
        series={k: tuple(v) for k, v in normalized.items()},
    )


def fig_hetero(
    error: float = 0.3,
    n: int = 16,
    repetitions: int = 10,
    levels: typing.Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
) -> FigureResult:
    """The heterogeneity extension study as a figure (reference: UMR)."""
    study = run_hetero_study(
        {
            "UMR": lambda: UMR(),
            "Factoring": lambda: Factoring(),
            "RUMR": lambda: RUMR(known_error=error),
            "RUMR-weighted": lambda: RUMR(known_error=error, phase2_weighted=True),
        },
        levels=tuple(levels),
        n=n,
        error=error,
        repetitions=repetitions,
    )
    return hetero_to_figure(study, reference="UMR")


def _mean_makespan(platform, work, scheduler, error, seeds):
    return statistics.mean(
        simulate_fast(
            platform, work, scheduler, make_error_model("normal", error), seed=s
        ).makespan
        for s in seeds
    )


def fig_adaptive(
    n: int = 20,
    repetitions: int = 15,
    errors: typing.Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
) -> FigureResult:
    """Adaptive study as a figure: makespans normalized to the oracle RUMR."""
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.8, cLat=0.3, nLat=0.1)
    work = 1000.0
    seeds = range(repetitions)
    series: dict[str, list[float]] = {"UMR": [], "AdaptiveRUMR": [], "RUMR_80": []}
    for error in errors:
        oracle = _mean_makespan(platform, work, RUMR(known_error=error), error, seeds)
        series["UMR"].append(
            _mean_makespan(platform, work, UMR(), error, seeds) / oracle
        )
        series["AdaptiveRUMR"].append(
            _mean_makespan(platform, work, AdaptiveRUMR(), error, seeds) / oracle
        )
        series["RUMR_80"].append(
            _mean_makespan(
                platform, work, RUMR(known_error=error, phase1_fraction=0.8), error, seeds
            )
            / oracle
        )
    return FigureResult(
        title="Adaptive study: makespan normalized to RUMR with the true error",
        xlabel="error",
        ylabel="makespan normalized to oracle RUMR",
        errors=tuple(errors),
        series={k: tuple(v) for k, v in series.items()},
    )


def fig_output_ratio(
    error: float = 0.3,
    n: int = 16,
    repetitions: int = 8,
    ratios: typing.Sequence[float] = (0.0, 0.2, 0.5, 1.0),
) -> FigureResult:
    """Output-traffic study as a figure: UMR/Factoring normalized to RUMR."""
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.8, cLat=0.3, nLat=0.1)
    work = 1000.0
    seeds = range(repetitions)

    def mean(sched_factory, ratio):
        return statistics.mean(
            simulate(
                platform, work, sched_factory(), make_error_model("normal", error),
                seed=s, topology=StarTopology(out=ratio),
            ).makespan
            for s in seeds
        )

    series: dict[str, list[float]] = {"UMR": [], "Factoring": []}
    for ratio in ratios:
        rumr = mean(lambda: RUMR(known_error=error), ratio)
        series["UMR"].append(mean(UMR, ratio) / rumr)
        series["Factoring"].append(mean(Factoring, ratio) / rumr)
    return FigureResult(
        title=f"Output-traffic study: relative makespan vs output ratio (error={error:g})",
        xlabel="output ratio (result units per input unit)",
        ylabel="makespan normalized to RUMR",
        errors=tuple(ratios),
        series={k: tuple(v) for k, v in series.items()},
    )


def fig_multiport(
    error: float = 0.3,
    n: int = 16,
    repetitions: int = 8,
    ports: typing.Sequence[int] = (1, 2, 4, 8),
) -> FigureResult:
    """Multi-port study as a figure: makespans normalized to one port."""
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.3, cLat=0.2, nLat=0.3)
    work = 1000.0
    seeds = range(repetitions)

    def mean(sched_factory, k):
        return statistics.mean(
            simulate(
                platform, work, sched_factory(), make_error_model("normal", error),
                seed=s, topology=StarTopology(ports=k),
            ).makespan
            for s in seeds
        )

    series: dict[str, list[float]] = {"UMR": [], "RUMR": []}
    baselines = {
        "UMR": mean(UMR, 1),
        "RUMR": mean(lambda: RUMR(known_error=error), 1),
    }
    for k in ports:
        series["UMR"].append(mean(UMR, k) / baselines["UMR"])
        series["RUMR"].append(
            mean(lambda: RUMR(known_error=error), k) / baselines["RUMR"]
        )
    return FigureResult(
        title=f"Multi-port study: makespan normalized to the one-port master (error={error:g})",
        xlabel="master ports (simultaneous transfers)",
        ylabel="makespan normalized to 1 port",
        errors=tuple(float(k) for k in ports),
        series={k: tuple(v) for k, v in series.items()},
    )
