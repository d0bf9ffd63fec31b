"""Job arrival processes: streams of divisible loads over time.

The paper schedules one divisible load in isolation; real platforms serve
a *stream* of them.  This module provides the arrival layer: deterministic
seeded processes emitting :class:`JobArrival` records that the multi-job
engine (:mod:`repro.sim.multijob`) runs through the existing scheduler and
engine stack.

Three process families are modelled, mirroring the multi-application DLT
literature (Gallet/Robert/Vivien's *Scheduling multiple divisible loads*
and the Wu/Cao/Robertazzi resource-sharing line):

* **Poisson** — memoryless arrivals at a fixed mean rate, the classic
  open-system queueing assumption;
* **bursty** — clustered arrivals (whole bursts landing together, with an
  optional intra-burst spread), the head-of-line-blocking stress case;
* **trace** — explicit replayed arrivals, either built in code or loaded
  from a JSONL trace file (``arrivals_from_jsonl``), so real cluster
  traces can be replayed once converted.

Determinism contract: ``generate(seed)`` consumes one RNG stream derived
from the seed alone (via :func:`repro.errors.rng.stream_for`), drawing in
a documented per-job order — inter-arrival gap, then the work factor
(only when ``work_cv > 0``), then the job's simulation seed — so the same
seed always reproduces the same trace, and adding a parameter never
perturbs the draws of the ones before it.

Arrival processes are named by compact spec strings so they can ride
through the CLI and sweep grids unchanged, like fault scenarios::

    poisson:rate=0.02,jobs=8,work=200
    poisson:rate=0.05,jobs=20,work=100,work_cv=0.4
    bursty:bursts=3,size=4,gap=300,work=150
    bursty:bursts=2,size=6,gap=400,work=100,spread=1,work_cv=0.2
    trace:path/to/arrivals.jsonl
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing

import numpy as np

from repro.errors.rng import stream_for
from repro.kvspec import parse_kv, take

__all__ = [
    "JobArrival",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "arrivals_from_jsonl",
    "arrivals_to_jsonl",
    "make_arrival_process",
]


@dataclasses.dataclass(frozen=True, slots=True)
class JobArrival:
    """One job of a multi-job stream.

    Attributes
    ----------
    job_id:
        Stream-unique non-negative identifier (also the canonical
        tie-break for simultaneous arrivals).
    time:
        Absolute arrival time, seconds from the stream's origin.
    work:
        The job's total workload, ``W_total`` units.
    seed:
        Simulation seed for this job's run.  ``None`` lets the multi-job
        engine derive one from its stream-level seed and ``job_id``;
        setting it pins the job's trajectory exactly — a one-job stream
        with an explicit seed is bitwise identical to calling
        :func:`repro.sim.simulate` with that seed.
    """

    job_id: int
    time: float
    work: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError(f"job_id must be >= 0, got {self.job_id}")
        if not (self.time >= 0 and math.isfinite(self.time)):
            raise ValueError(f"arrival time must be finite and >= 0, got {self.time}")
        if not (self.work > 0 and math.isfinite(self.work)):
            raise ValueError(f"job work must be finite and > 0, got {self.work}")


class ArrivalProcess:
    """Abstract arrival process: configuration only, like a Scheduler.

    Subclasses implement :meth:`generate`, which realizes one arrival
    trace from a seed.  The same (process, seed) pair always produces the
    same trace.
    """

    #: Human-readable name for reports and figures.
    name: str = "arrivals"

    def generate(self, seed: int | None = None) -> tuple[JobArrival, ...]:
        """Realize one arrival trace (sorted by arrival time)."""
        raise NotImplementedError


def _work_factor(rng: np.random.Generator, work_cv: float) -> float:
    """A mean-1 lognormal size factor with coefficient of variation ``work_cv``."""
    sigma2 = math.log1p(work_cv * work_cv)
    return float(rng.lognormal(mean=-0.5 * sigma2, sigma=math.sqrt(sigma2)))


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


@dataclasses.dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate``.

    Parameters
    ----------
    rate:
        Mean arrival rate, jobs per second (> 0).
    jobs:
        Number of jobs in the stream (> 0).
    work:
        Mean per-job workload in units (> 0).
    work_cv:
        Coefficient of variation of the per-job workload around ``work``
        (mean-1 lognormal factor); 0 (default) makes every job ``work``
        units exactly.
    """

    rate: float
    jobs: int
    work: float
    work_cv: float = 0.0

    name = "poisson"

    def __post_init__(self) -> None:
        _validate_process(self.rate > 0, f"rate must be > 0, got {self.rate}")
        _validate_process(self.jobs >= 1, f"jobs must be >= 1, got {self.jobs}")
        _validate_process(self.work > 0, f"work must be > 0, got {self.work}")
        _validate_process(self.work_cv >= 0, f"work_cv must be >= 0, got {self.work_cv}")

    def generate(self, seed: int | None = None) -> tuple[JobArrival, ...]:
        rng = stream_for(seed)
        out: list[JobArrival] = []
        t = 0.0
        for job_id in range(self.jobs):
            t += float(rng.exponential(1.0 / self.rate))
            work = self.work
            if self.work_cv > 0:
                work *= _work_factor(rng, self.work_cv)
            out.append(JobArrival(job_id=job_id, time=t, work=work, seed=_job_seed(rng)))
        return tuple(out)


@dataclasses.dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Clustered arrivals: ``bursts`` bursts of ``size`` jobs each.

    Burst origins are separated by exponential gaps of mean ``gap``; jobs
    within one burst arrive ``spread`` seconds apart (0 — the default —
    lands the whole burst at one instant, the maximal head-of-line-blocking
    case).  Per-job workloads follow the same ``work``/``work_cv`` scheme
    as :class:`PoissonArrivals`.
    """

    bursts: int
    size: int
    gap: float
    work: float
    spread: float = 0.0
    work_cv: float = 0.0

    name = "bursty"

    def __post_init__(self) -> None:
        _validate_process(self.bursts >= 1, f"bursts must be >= 1, got {self.bursts}")
        _validate_process(self.size >= 1, f"size must be >= 1, got {self.size}")
        _validate_process(self.gap > 0, f"gap must be > 0, got {self.gap}")
        _validate_process(self.work > 0, f"work must be > 0, got {self.work}")
        _validate_process(self.spread >= 0, f"spread must be >= 0, got {self.spread}")
        _validate_process(self.work_cv >= 0, f"work_cv must be >= 0, got {self.work_cv}")

    def generate(self, seed: int | None = None) -> tuple[JobArrival, ...]:
        rng = stream_for(seed)
        drawn: list[tuple[float, float, int]] = []
        origin = 0.0
        for _ in range(self.bursts):
            origin += float(rng.exponential(self.gap))
            for j in range(self.size):
                work = self.work
                if self.work_cv > 0:
                    work *= _work_factor(rng, self.work_cv)
                drawn.append((origin + j * self.spread, work, _job_seed(rng)))
        # A burst's spread tail can overshoot the next burst's origin;
        # job_ids are assigned in time order after the (stable) sort so a
        # trace is always id- and time-sorted at once.
        drawn.sort(key=lambda d: d[0])
        return tuple(
            JobArrival(job_id=i, time=t, work=w, seed=s)
            for i, (t, w, s) in enumerate(drawn)
        )


@dataclasses.dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Explicit replayed arrivals (built in code or loaded from JSONL)."""

    arrivals: tuple[JobArrival, ...]

    name = "trace"

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        ids = [a.job_id for a in self.arrivals]
        if len(set(ids)) != len(ids):
            raise ValueError("trace contains duplicate job_ids")

    def generate(self, seed: int | None = None) -> tuple[JobArrival, ...]:
        # A replayed trace is already fully realized; the seed is unused.
        return tuple(sorted(self.arrivals, key=lambda a: (a.time, a.job_id)))


def _validate_process(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"arrival process: {message}")


# -- JSONL trace files --------------------------------------------------------

def arrivals_to_jsonl(arrivals: typing.Iterable[JobArrival]) -> str:
    """Serialize arrivals as one JSON object per line (byte-deterministic).

    Keys are sorted and floats use Python's shortest-roundtrip repr, so
    ``arrivals_from_jsonl(arrivals_to_jsonl(a)) == a`` exactly — the
    trace-file round-trip property the test suite pins.
    """
    lines = [
        json.dumps(dataclasses.asdict(a), sort_keys=True, separators=(",", ":"))
        for a in arrivals
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def arrivals_from_jsonl(text: str) -> tuple[JobArrival, ...]:
    """Parse a JSONL arrival trace (inverse of :func:`arrivals_to_jsonl`)."""
    out: list[JobArrival] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"arrival trace line {lineno} is not JSON: {exc}") from None
        unknown = set(payload) - {"job_id", "time", "work", "seed"}
        if unknown:
            raise ValueError(
                f"arrival trace line {lineno} has unknown fields: {sorted(unknown)}"
            )
        try:
            out.append(
                JobArrival(
                    job_id=int(payload["job_id"]),
                    time=float(payload["time"]),
                    work=float(payload["work"]),
                    seed=None if payload.get("seed") is None else int(payload["seed"]),
                )
            )
        except KeyError as exc:
            raise ValueError(
                f"arrival trace line {lineno} is missing field {exc.args[0]!r}"
            ) from None
    return tuple(out)


# -- spec-string grammar ------------------------------------------------------

def make_arrival_process(spec: "str | ArrivalProcess") -> ArrivalProcess:
    """Parse an arrival spec string (see module docstring) into a process.

    Accepts an already-constructed :class:`ArrivalProcess` unchanged, so
    callers can be agnostic about which form they hold.
    """
    if isinstance(spec, ArrivalProcess):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"arrival spec must be a string, got {type(spec).__name__}")
    kind, sep, body = spec.strip().partition(":")
    kind = kind.strip()
    if not sep:
        raise ValueError(f"arrival spec {spec!r} has no parameters (expected kind:k=v,…)")
    if kind == "trace":
        path = body.strip()
        if not os.path.exists(path):
            raise ValueError(f"arrival trace file not found: {path!r}")
        with open(path, encoding="utf-8") as fh:
            return TraceArrivals(arrivals_from_jsonl(fh.read()))
    params = parse_kv(body, kind, "arrival")
    if kind == "poisson":
        rate, jobs, work, work_cv = take(
            params, kind, "rate", "jobs", "work", "work_cv", what="arrival",
            work_cv=0.0,
        )
        if jobs != int(jobs):
            raise ValueError(f"poisson jobs must be integral, got {jobs}")
        return PoissonArrivals(rate=rate, jobs=int(jobs), work=work, work_cv=work_cv)
    if kind == "bursty":
        bursts, size, gap, work, spread, work_cv = take(
            params, kind, "bursts", "size", "gap", "work", "spread", "work_cv",
            what="arrival", spread=0.0, work_cv=0.0,
        )
        if bursts != int(bursts) or size != int(size):
            raise ValueError(f"bursty bursts/size must be integral, got {bursts}/{size}")
        return BurstyArrivals(
            bursts=int(bursts), size=int(size), gap=gap, work=work,
            spread=spread, work_cv=work_cv,
        )
    raise ValueError(
        f"unknown arrival kind {kind!r}; available: poisson, bursty, trace"
    )
