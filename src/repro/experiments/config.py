"""Experiment grids: the paper's Table 1 and decimated presets.

Table 1 (verbatim):

=========================  =====================================
Number of processors       N = 10, 15, 20, …, 50
Workload (unit)            W_total = 1000
Compute rate (unit/s)      S = 1
Transfer rate (unit/s)     B = (1.2, 1.3, …, 2.0) × N
Computation latency (s)    cLat = 0.0, 0.1, …, 1.0
Communication latency (s)  nLat = 0.0, 0.1, …, 1.0
=========================  =====================================

with *error* swept from 0.0 to 0.5 and 40 repetitions per point.  The full
cross product is ~10,900 platforms × 26 error values × 40 repetitions per
algorithm — far beyond a single-core reproduction run, hence the presets.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing

from repro.errors.models import FACTOR_STREAM_FORMAT
from repro.platform.spec import PlatformSpec, homogeneous_platform

__all__ = [
    "PlatformPoint",
    "ExperimentGrid",
    "paper_grid",
    "paper_sample_grid",
    "small_grid",
    "smoke_grid",
    "bench_grid",
    "preset_grid",
    "sweep_key",
    "PAPER_ALGORITHMS",
]

#: The six competitors of §5.1, plus RUMR itself.
PAPER_ALGORITHMS = ("RUMR", "UMR", "MI-1", "MI-2", "MI-3", "MI-4", "Factoring")


@dataclasses.dataclass(frozen=True)
class PlatformPoint:
    """One Table-1 platform configuration (homogeneous)."""

    N: int
    bandwidth_factor: float
    cLat: float
    nLat: float
    S: float = 1.0

    def build(self) -> PlatformSpec:
        """Materialize the :class:`~repro.platform.spec.PlatformSpec`.

        Memoized: equal points return the *same* (immutable) spec object,
        so downstream identity-keyed caches — the lru-cached plan solvers
        and the compiled-plan cache — hit across repeated sweeps.
        """
        return _build_platform(self)

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return dataclasses.asdict(self)


@functools.lru_cache(maxsize=4096)
def _build_platform(point: "PlatformPoint") -> PlatformSpec:
    return homogeneous_platform(
        point.N,
        S=point.S,
        bandwidth_factor=point.bandwidth_factor,
        cLat=point.cLat,
        nLat=point.nLat,
    )


@dataclasses.dataclass(frozen=True)
class ExperimentGrid:
    """A cross-product experiment specification.

    Attributes mirror Table 1; ``errors`` is the §5 error axis,
    ``repetitions`` the per-point sample count, ``seed`` the root of the
    per-cell random streams, ``error_kind``/``error_mode`` select the
    perturbation model (see :mod:`repro.errors.models`).
    """

    name: str
    Ns: tuple[int, ...]
    bandwidth_factors: tuple[float, ...]
    cLats: tuple[float, ...]
    nLats: tuple[float, ...]
    errors: tuple[float, ...]
    repetitions: int = 40
    total_work: float = 1000.0
    S: float = 1.0
    seed: int = 2003  # the venue year; any fixed value works
    error_kind: str = "normal"
    error_mode: str = "multiply"
    #: When > 0, run only this many platforms: a deterministic uniform
    #: sample (keyed by ``seed``) of the full cross product.  Lets the
    #: paper's exact axes be probed at a fraction of the cost, with
    #: unbiased coverage of the whole space (unlike axis decimation).
    platform_sample: int = 0
    #: Worker fault scenario applied to every run, as a spec string parsed
    #: by :func:`repro.errors.make_fault_model` (``"none"`` = fault-free,
    #: ``"crash:p=0.2,tmax=400"``, ``"pause:p=0.5,tmax=200,dur=60"``, …).
    #: Part of the grid identity, so fault and fault-free sweeps hash to
    #: different cache keys.
    fault: str = "none"
    #: Interconnect shape applied to every run, as a spec string parsed by
    #: :func:`repro.platform.make_topology` (``"star"`` = the paper's
    #: baseline, ``"chain:relay=sf"``, ``"tree:fanout=2"``,
    #: ``"sharedbw:cap=2"``, …).  Like ``fault``, part of the grid
    #: identity.
    topology: str = "star"

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0 < self.total_work < math.inf:
            raise ValueError(f"total_work must be > 0, got {self.total_work}")
        if not self.Ns or not self.bandwidth_factors or not self.cLats or not self.nLats:
            raise ValueError("grid axes must be non-empty")
        if not self.errors:
            raise ValueError("error axis must be non-empty")
        if self.platform_sample < 0:
            raise ValueError(f"platform_sample must be >= 0, got {self.platform_sample}")
        # Validate the error axis, fault and topology specs eagerly so a
        # typo fails at grid build time, not platforms-deep into a sweep.
        from repro.errors.faults import make_fault_model
        from repro.errors.models import check_magnitude
        from repro.platform.topology import TopologyError, make_topology

        for error in self.errors:
            check_magnitude(error)
        make_fault_model(self.fault)
        topo = make_topology(self.topology)
        if topo.n is not None and set(self.Ns) != {topo.n}:
            raise TopologyError(
                f"topology {self.topology!r} declares n={topo.n} workers but "
                f"the grid's platforms have N in {self.Ns}"
            )
        if topo.kind == "sharedbw" and self.fault.strip() not in ("", "none"):
            raise ValueError(
                "sharedbw topologies do not support fault injection "
                f"(fault={self.fault!r}, topology={self.topology!r})"
            )

    @property
    def has_faults(self) -> bool:
        """Whether this grid injects worker faults."""
        return self.fault.strip() not in ("", "none")

    @property
    def has_topology(self) -> bool:
        """Whether this grid routes runs through a non-star interconnect."""
        from repro.platform.topology import make_topology

        return make_topology(self.topology).kind != "star"

    def _full_cross_product(self) -> list[PlatformPoint]:
        return [
            PlatformPoint(N=n, bandwidth_factor=f, cLat=cl, nLat=nl, S=self.S)
            for n in self.Ns
            for f in self.bandwidth_factors
            for cl in self.cLats
            for nl in self.nLats
        ]

    def platforms(self) -> list[PlatformPoint]:
        """Platform points, in deterministic order (sampled when configured)."""
        full = self._full_cross_product()
        if not self.platform_sample or self.platform_sample >= len(full):
            return full
        import numpy as np

        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(99,)))
        idx = sorted(rng.choice(len(full), size=self.platform_sample, replace=False))
        return [full[i] for i in idx]

    @property
    def num_platforms(self) -> int:
        """Number of platforms a sweep will run (after sampling)."""
        full = (
            len(self.Ns) * len(self.bandwidth_factors) * len(self.cLats) * len(self.nLats)
        )
        if self.platform_sample:
            return min(self.platform_sample, full)
        return full

    def num_simulations(self, num_algorithms: int) -> int:
        """Total simulator invocations a sweep will make."""
        return self.num_platforms * len(self.errors) * self.repetitions * num_algorithms

    def restrict(self, **axes: typing.Sequence) -> "ExperimentGrid":
        """A copy with some axes replaced (e.g. ``errors=(0.0, 0.1)``)."""
        updates = {}
        for key, value in axes.items():
            if key in ("Ns", "bandwidth_factors", "cLats", "nLats", "errors"):
                updates[key] = tuple(value)
            elif key in (
                "repetitions", "seed", "name", "error_kind", "error_mode",
                "platform_sample", "fault", "topology",
            ):
                updates[key] = value
            else:
                raise ValueError(f"unknown grid axis {key!r}")
        return dataclasses.replace(self, **updates)


def sweep_key(grid: ExperimentGrid, algorithms: typing.Sequence[str]) -> str:
    """Deterministic content hash identifying a sweep.

    Keys both the on-disk sweep cache (:mod:`repro.experiments.cache`)
    and the crash-recovery checkpoint shards
    (:class:`repro.experiments.resilient.CheckpointStore`) — any change
    to the grid or the algorithm list invalidates both automatically.
    The payload also names the perturbation factor sequence
    (:data:`~repro.errors.models.FACTOR_STREAM_FORMAT`), so entries and
    shards drawn under another convention are never served or resumed.
    """
    payload = json.dumps(
        {
            "grid": dataclasses.asdict(grid),
            "algorithms": list(algorithms),
            "factor_stream": FACTOR_STREAM_FORMAT,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _error_axis(step: float, stop: float = 0.5) -> tuple[float, ...]:
    values = []
    k = 0
    while True:
        v = round(k * step, 10)
        if v > stop + 1e-12:
            break
        values.append(v)
        k += 1
    return tuple(values)


def paper_grid() -> ExperimentGrid:
    """The full Table-1 cross product with the paper's error axis."""
    return ExperimentGrid(
        name="paper",
        Ns=tuple(range(10, 51, 5)),
        bandwidth_factors=tuple(round(1.2 + 0.1 * k, 10) for k in range(9)),
        cLats=tuple(round(0.1 * k, 10) for k in range(11)),
        nLats=tuple(round(0.1 * k, 10) for k in range(11)),
        errors=_error_axis(0.02),
        repetitions=40,
    )


def small_grid() -> ExperimentGrid:
    """A decimated grid spanning Table 1's ranges; minutes on one core.

    Axis endpoints and interior points are kept so that both low- and
    high-latency regimes (the two behaviour classes discussed in §5.1) and
    the ``cLat < 0.3, nLat < 0.3`` subset of Fig 4(b) are represented.
    """
    return ExperimentGrid(
        name="small",
        Ns=(10, 20, 40),
        bandwidth_factors=(1.2, 1.6, 2.0),
        cLats=(0.0, 0.1, 0.2, 0.5, 1.0),
        nLats=(0.0, 0.1, 0.2, 0.5, 1.0),
        errors=_error_axis(0.04, 0.48),
        repetitions=10,
    )


def smoke_grid() -> ExperimentGrid:
    """A seconds-scale grid for tests and the benchmark harness."""
    return ExperimentGrid(
        name="smoke",
        Ns=(10, 20),
        bandwidth_factors=(1.4, 1.8),
        cLats=(0.0, 0.2),
        nLats=(0.1, 0.2),
        errors=(0.0, 0.1, 0.2, 0.3, 0.4),
        repetitions=3,
    )


def bench_grid() -> ExperimentGrid:
    """The smoke axes at paper-scale repetitions, for benchmarking.

    The smoke grid's 3 repetitions are fine for correctness checks but
    understate the batch engines badly, while the scalar engine scales
    linearly.  A narrow lockstep call is overhead-bound: an iteration
    costs about 0.19 ms at 256 rows or fewer, mostly fixed per-array-op
    overhead.  At bench width it is element-bound: about 1.1 ms per
    iteration at 3,200 rows (2-core Xeon KVM guest).  Benchmarking at 20
    repetitions — half the paper's 40 — measures the regime sweeps
    actually run in.
    """
    return dataclasses.replace(smoke_grid(), name="bench", repetitions=20)


def paper_sample_grid(platforms: int = 150, repetitions: int = 15) -> ExperimentGrid:
    """A uniform random sample of the *full* Table-1 cross product.

    Unlike :func:`small_grid` (which decimates the axes), this probes the
    paper's exact parameter axes — including the interior values the
    decimated grid skips — at a tractable cost.  The sample is
    deterministic in the grid seed.
    """
    return dataclasses.replace(
        paper_grid(),
        name="paper-sample",
        platform_sample=platforms,
        repetitions=repetitions,
    )


def preset_grid(name: str) -> ExperimentGrid:
    """Look up a preset grid by name.

    ``smoke`` (seconds), ``bench`` (the smoke axes at 20 repetitions, for
    benchmarking), ``small`` (minutes, decimated axes), ``paper`` (the
    full cross product, hours), ``paper-sample`` (a 150-platform uniform
    sample of the full cross product, tens of minutes).
    """
    presets = {
        "paper": paper_grid,
        "small": small_grid,
        "smoke": smoke_grid,
        "bench": bench_grid,
        "paper-sample": paper_sample_grid,
    }
    try:
        return presets[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
        ) from None
