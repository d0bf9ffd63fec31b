"""Cross-topology sweeps: how robustness transfers across interconnects.

The paper evaluates RUMR on a serialized star.  This module reruns the
same grid under several interconnect shapes (:mod:`repro.platform.
topology`) with shared seeds — the common-random-numbers pairing the
fault sweep uses, applied to the topology axis — and derives two views:

* *topology degradation*: per algorithm, the mean ratio of each shape's
  makespan to the star baseline's (how much a chain/tree/shared medium
  costs by itself);
* *robustness transfer*: per (algorithm, shape), the mean ratio of the
  highest-error makespan to the zero-error makespan — the paper's
  robustness claim measured on each shape.  RUMR's claim *transfers* to
  a shape when its ratio stays as flat there as on the star.
"""

from __future__ import annotations

import dataclasses
import os
import typing

from repro.experiments.config import PAPER_ALGORITHMS, ExperimentGrid
from repro.experiments.figures import FigureResult, _scenario_figure
from repro.experiments.metrics import _scenario_degradation
from repro.experiments.runner import SweepResults, _sweep_scenarios
from repro.platform.topology import make_topology

__all__ = [
    "TopologySweepResults",
    "run_topology_sweep",
    "topology_degradation",
    "robustness_transfer",
    "topology_figure",
    "fig_topologies",
    "fig_topologies_algorithms",
]

#: The schedulers compared in the robustness-transfer study: the paper's
#: robust algorithm against the strongest dynamic competitor.
fig_topologies_algorithms = ("RUMR", "Factoring")


@dataclasses.dataclass(frozen=True)
class TopologySweepResults:
    """One sweep per topology spec, sharing grid, seeds and algorithms.

    ``sweeps[spec]`` holds the :class:`SweepResults` of the grid with
    ``topology=spec``; the first spec is conventionally ``"star"`` so
    degradation metrics have a baseline.  All scenario grids share the
    base grid's seed, so the (platform, error, repetition) cells are
    paired across shapes.
    """

    base_grid: ExperimentGrid
    topology_specs: tuple[str, ...]
    algorithms: tuple[str, ...]
    sweeps: dict[str, SweepResults]

    def __post_init__(self) -> None:
        missing = [s for s in self.topology_specs if s not in self.sweeps]
        if missing:
            raise ValueError(f"topology specs without results: {missing}")


def run_topology_sweep(
    grid: ExperimentGrid,
    topology_specs: typing.Sequence[str],
    algorithms: typing.Sequence[str] = PAPER_ALGORITHMS,
    n_jobs: int = 1,
    progress: typing.Callable[[int, int], None] | None = None,
    directory: "str | os.PathLike | None" = None,
    resume: bool = False,
) -> TopologySweepResults:
    """Run the same sweep under several interconnect shapes.

    ``topology_specs`` are topology spec strings (see
    :func:`repro.platform.make_topology`); ``"star"`` is prepended when
    absent so the result always carries the paper-baseline shape.  Specs
    are validated (and canonicalized for duplicate detection) up front.
    When ``directory`` is given each scenario goes through the sweep
    cache (scenarios hash to distinct keys because ``topology`` is part
    of the grid) and, with ``resume=True``, picks up surviving
    checkpoint shards of an interrupted run.
    """
    algorithms = tuple(algorithms)
    specs, sweeps = _sweep_scenarios(
        grid, "topology", topology_specs, "star", algorithms, directory, resume,
        is_baseline=_is_star_baseline, canonical=lambda spec: str(make_topology(spec)),
        n_jobs=n_jobs, progress=progress,
    )
    return TopologySweepResults(
        base_grid=grid, topology_specs=specs, algorithms=algorithms, sweeps=sweeps
    )


def _is_star_baseline(spec: str) -> bool:
    """Whether ``spec`` is the paper's star (any ``n``, one port, no returns)."""
    topo = make_topology(spec)
    return topo.kind == "star" and topo.closed_form


def _baseline_spec(results: TopologySweepResults) -> str:
    for spec in results.topology_specs:
        if _is_star_baseline(spec):
            return spec
    raise ValueError("no star baseline among the topology specs")


def topology_degradation(
    results: TopologySweepResults,
    algorithm: str,
    baseline_spec: str | None = None,
) -> dict[str, float]:
    """Mean makespan degradation per shape, relative to the star.

    For each topology spec: the per-experiment ratio ``makespan(on
    shape) / makespan(on star)`` averaged over every (platform, error,
    repetition) cell — valid pairing because all scenarios share the
    grid seed.  1.0 means the shape costs nothing for this algorithm.
    """
    if baseline_spec is None:
        baseline_spec = _baseline_spec(results)
    return _scenario_degradation(
        results.sweeps, results.topology_specs, algorithm, baseline_spec, "topology"
    )


def robustness_transfer(
    results: TopologySweepResults, algorithm: str
) -> dict[str, float]:
    """Error-robustness of one algorithm, measured on each shape.

    For each topology spec: the mean ratio of the makespan at the grid's
    *highest* error level to the makespan at its *lowest* (normally 0),
    cells paired by (platform, repetition).  A flat (near-1) value means
    prediction errors cost little on that shape; comparing an
    algorithm's values across shapes shows whether its robustness story
    survives the interconnect change.
    """
    if len(results.base_grid.errors) < 2:
        raise ValueError("robustness transfer needs at least two error levels")
    out: dict[str, float] = {}
    for spec in results.topology_specs:
        tensor = results.sweeps[spec].makespans[algorithm]
        out[spec] = float((tensor[:, -1, :] / tensor[:, 0, :]).mean())
    return out


def topology_figure(
    results: TopologySweepResults,
    title: str = "Topology study: robustness transfer",
) -> FigureResult:
    """Robustness-transfer figure from :class:`TopologySweepResults`.

    One series per algorithm; the x-axis is the topology *index* (0 =
    star baseline by convention) since specs are strings — the title
    lists the spec for each index so the chart stays self-describing.
    Values are each shape's error-robustness ratio (see
    :func:`robustness_transfer`).
    """
    return _scenario_figure(
        results.topology_specs, results.algorithms,
        lambda algo: robustness_transfer(results, algo), title, "topology index",
        "max-error makespan normalized to the zero-error run",
    )


def fig_topologies(
    base: ExperimentGrid,
    topology_specs: tuple[str, ...],
    algorithms: tuple[str, ...] = fig_topologies_algorithms,
    n_jobs: int = 1,
    directory=None,
) -> FigureResult:
    """Topology study: error-robustness per interconnect shape.

    Runs the base grid once per shape (common random numbers pair the
    cells across shapes) and plots, per algorithm, the mean ratio of the
    highest-error to the zero-error makespan on each shape.  RUMR's
    robustness claim transfers when its series stays flat while the
    error-sensitive competitors' rise.
    """
    results = run_topology_sweep(
        base, topology_specs, algorithms=algorithms, n_jobs=n_jobs,
        directory=directory,
    )
    return topology_figure(results)
