"""Figure generators: the paper's Figures 4(a), 4(b), 5, 6 and 7.

Each generator returns a :class:`FigureResult` — one labelled series per
algorithm over the error axis — that :mod:`repro.experiments.report`
renders as an ASCII chart or CSV.  Values are mean makespans normalized to
the original RUMR (values above 1.0: RUMR wins).

Figures 4(a)/4(b) reuse the main sweep; Figure 5 runs its own sweep on the
paper's single high-``nLat`` configuration; Figures 6 and 7 sweep the RUMR
variants (fixed phase-1 shares; plain in-order phase 1).  Each of Figures
5–7 is one :class:`SweepFigure`, shared by the CLI and the benchmarks.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.config import PAPER_ALGORITHMS, ExperimentGrid
from repro.experiments.metrics import fault_degradation, mean_normalized_makespan
from repro.experiments.runner import (
    FaultSweepResults,
    SweepResults,
    run_fault_sweep,
    run_sweep,
)

__all__ = [
    "FigureResult",
    "SWEEP_FIGURES",
    "SweepFigure",
    "fig4a",
    "fig4b",
    "fig5",
    "fig5_grid",
    "fig6",
    "fig6_algorithms",
    "fig7",
    "fig7_algorithms",
    "fault_figure",
    "fig_faults",
    "fig_faults_algorithms",
]

#: RUMR variants for the Fig 6 phase-split ablation.
fig6_algorithms = ("RUMR", "RUMR_50", "RUMR_60", "RUMR_70", "RUMR_80", "RUMR_90")

#: RUMR variants for the Fig 7 out-of-order ablation.
fig7_algorithms = ("RUMR", "RUMR-plain")

#: The recovery-aware schedulers compared in the fault-degradation figure.
fig_faults_algorithms = ("RUMR", "Factoring", "WeightedFactoring")


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """One figure: labelled series over the error axis."""

    title: str
    xlabel: str
    ylabel: str
    errors: tuple[float, ...]
    series: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        for label, values in self.series.items():
            if len(values) != len(self.errors):
                raise ValueError(f"series {label!r} length mismatch")


def _normalized_figure(results: SweepResults, title: str) -> FigureResult:
    reference = results.reference
    series = {}
    for algo in results.algorithms:
        if algo == reference:
            continue
        values = mean_normalized_makespan(results, algo)
        series[algo] = tuple(float(v) for v in values)
    return FigureResult(
        title=title,
        xlabel="error",
        ylabel=f"makespan normalized to {reference}",
        errors=results.grid.errors,
        series=series,
    )


def fig4a(results: SweepResults) -> FigureResult:
    """Fig 4(a): normalized makespan vs error, full parameter space."""
    return _normalized_figure(
        results, "Figure 4(a): relative makespan vs error (all parameters)"
    )


def fig4b(results: SweepResults) -> FigureResult:
    """Fig 4(b): same, restricted to ``cLat < 0.3 and nLat < 0.3``."""
    subset = results.select(lambda p: p.cLat < 0.3 and p.nLat < 0.3)
    return _normalized_figure(
        subset, "Figure 4(b): relative makespan vs error (cLat < 0.3, nLat < 0.3)"
    )


def fig5_grid(base: ExperimentGrid) -> ExperimentGrid:
    """The paper's single Fig-5 configuration: N=20, B=36, cLat=0.3, nLat=0.9.

    One platform is cheap, so it runs at no fewer than the paper's 40
    repetitions whatever the base grid's count.
    """
    return base.restrict(
        Ns=(20,),
        bandwidth_factors=(1.8,),
        cLats=(0.3,),
        nLats=(0.9,),
        repetitions=max(base.repetitions, 40),
        name=f"{base.name}-fig5",
    )


def _same_grid(base: ExperimentGrid) -> ExperimentGrid:
    return base


@dataclasses.dataclass(frozen=True)
class SweepFigure:
    """A figure that runs its own sweep, normalized to RUMR (Figs 5–7).

    The one definition of the figure — the grid it sweeps (``grid``, a
    transform of the base grid), its algorithms and its title — read by
    the CLI, which sweeps through the cache, and by direct calls:
    ``fig5(base)`` runs the sweep uncached.
    """

    name: str
    title: str
    algorithms: tuple[str, ...]
    grid: typing.Callable[[ExperimentGrid], ExperimentGrid] = _same_grid

    def render(self, results: SweepResults) -> FigureResult:
        """The figure of ``results``, a sweep of ``self.grid(base)`` over
        ``self.algorithms``."""
        return _normalized_figure(results, self.title)

    def __call__(self, base: ExperimentGrid, n_jobs: int = 1) -> FigureResult:
        """Run the figure's sweep of ``base``, uncached, and render it."""
        results = run_sweep(self.grid(base), algorithms=self.algorithms, n_jobs=n_jobs)
        return self.render(results)


#: Fig 5: the high-nLat single configuration.  The interesting feature is
#: the sharp jump in every competitor's relative makespan at the error
#: value where RUMR's threshold first admits a phase 2.
fig5 = SweepFigure(
    "fig5",
    "Figure 5: relative makespan vs error (cLat=0.3, nLat=0.9, N=20, B=36)",
    PAPER_ALGORITHMS,
    fig5_grid,
)

#: Fig 6: fixed phase-1 shares (50–90%) vs the original RUMR heuristic.
fig6 = SweepFigure(
    "fig6",
    "Figure 6: RUMR with fixed phase-1 percentage, normalized to original RUMR",
    fig6_algorithms,
)

#: Fig 7: plain (in-order) UMR phase 1 vs the out-of-order original.
fig7 = SweepFigure(
    "fig7",
    "Figure 7: RUMR with plain UMR phase 1, normalized to original RUMR",
    fig7_algorithms,
)

#: The figures that run their own sweeps, in CLI order.
SWEEP_FIGURES = (fig5, fig6, fig7)


def fault_figure(
    results: FaultSweepResults, title: str = "Fault study: makespan degradation"
) -> FigureResult:
    """Degradation figure from an existing :class:`FaultSweepResults`.

    One series per algorithm; the x-axis is the fault-scenario *index*
    (0 = fault-free baseline) since specs are strings — the title lists
    the spec for each index so the chart stays self-describing.
    """
    return _scenario_figure(
        results.fault_specs, results.algorithms,
        lambda algo: fault_degradation(results, algo), title, "fault scenario index",
        "makespan normalized to the fault-free run",
    )


def _scenario_figure(
    specs: tuple[str, ...],
    algorithms: tuple[str, ...],
    metric: typing.Callable[[str], dict[str, float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> FigureResult:
    """One series per algorithm of ``metric(algorithm)[spec]`` by spec index.

    Specs are strings, so the x-axis is their index and the title lists
    the spec for each index.
    """
    legend = ", ".join(f"{i}={s}" for i, s in enumerate(specs))
    series = {}
    for algo in algorithms:
        values = metric(algo)
        series[algo] = tuple(values[s] for s in specs)
    return FigureResult(
        title=f"{title} [{legend}]",
        xlabel=xlabel,
        ylabel=ylabel,
        errors=tuple(float(i) for i in range(len(specs))),
        series=series,
    )


def fig_faults(
    base: ExperimentGrid,
    fault_specs: tuple[str, ...],
    algorithms: tuple[str, ...] = fig_faults_algorithms,
    n_jobs: int = 1,
    directory=None,
) -> FigureResult:
    """Fault study: mean makespan degradation per fault scenario.

    Runs the base grid once per scenario (common random numbers pair the
    cells across scenarios) and plots, per algorithm, the mean ratio of
    the faulty to the fault-free makespan.  Values near 1 mean the
    scheduler absorbs the fault; for a crash the informed lower bound is
    roughly ``N/(N-1)`` (the lost worker's share redistributed).
    """
    results = run_fault_sweep(
        base, fault_specs, algorithms=algorithms, n_jobs=n_jobs, directory=directory
    )
    return fault_figure(results)
