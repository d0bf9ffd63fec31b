"""Simulation results, the engine-selection front door, and validation."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from repro.core.base import Scheduler
from repro.core.chunks import (
    ROW_COMP_END,
    ROW_COMP_START,
    ROW_LOST,
    ROW_PHASE,
    ROW_SIZE,
    ROW_WORKER,
    DispatchRecord,
    ReturnRecord,
    build_records,
)
from repro.errors.models import ErrorModel, NoError
from repro.platform.spec import PlatformSpec

__all__ = ["SimResult", "simulate", "validate_schedule"]


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated application run.

    Attributes
    ----------
    makespan:
        Completion time of the last *delivered* chunk (the paper's
        objective); chunks lost to worker crashes do not count.  On a
        star with result returns (``star:out=R``) it is the last result
        arrival at the master instead (see :attr:`compute_makespan`).
    rows:
        One timeline row per chunk, in dispatch order (including lost
        chunks): the :class:`~repro.core.chunks.DispatchRecord` fields
        after ``index``, laid out as
        :data:`~repro.core.chunks.ROW_FIELDS`.  Empty for makespan-only
        runs (``collect_records=False``).
    platform / total_work / scheduler_name / seed:
        Provenance of the run.
    work_lost:
        Workload units lost to crashed workers.  Under a recovery-aware
        scheduler the lost units are re-dispatched, so
        ``delivered_work == total_work`` still holds; under a static
        scheduler they are simply gone.
    topology:
        Canonical spec string of the interconnect the run was routed
        through (see :mod:`repro.platform.topology`); ``"star"`` for the
        paper's baseline single-level star.
    returns:
        One :class:`~repro.core.chunks.ReturnRecord` per delivered chunk,
        in link-release order, on stars with result returns; empty
        otherwise.

    :attr:`records` turns the rows into
    :class:`~repro.core.chunks.DispatchRecord` objects on first read.
    The numeric members read the rows, and :attr:`lost_records` and
    :meth:`worker_records` build only the records they return, so a job
    stream's grants never build their full record tuples.
    """

    makespan: float
    rows: tuple[tuple, ...]
    platform: PlatformSpec
    total_work: float
    scheduler_name: str
    seed: int | None = None
    work_lost: float = 0.0
    topology: str = "star"
    returns: tuple[ReturnRecord, ...] = ()

    # The rows never change, so the records and the work sums (read per
    # grant, job and stream by the stream layer) are derived once.
    # (cached_property stores into the instance __dict__, which a frozen
    # dataclass without slots keeps; equality and hashing see fields only.)
    @functools.cached_property
    def records(self) -> tuple[DispatchRecord, ...]:
        """One record per chunk, in dispatch order, built on first read.

        Record ``i`` is ``DispatchRecord(i, *rows[i])``; lost chunks are
        flagged ``lost=True``.
        """
        return build_records(self.rows)

    @property
    def num_chunks(self) -> int:
        """How many chunks were dispatched."""
        return len(self.rows)

    @property
    def compute_makespan(self) -> float:
        """Completion time of the last delivered chunk.

        Equal to :attr:`makespan` unless the run has result returns.
        """
        if not self.returns:
            return self.makespan
        return max(
            (row[ROW_COMP_END] for row in self.rows if not row[ROW_LOST]), default=0.0
        )

    @functools.cached_property
    def dispatched_work(self) -> float:
        """Total workload actually sent (delivered + lost)."""
        return sum(row[ROW_SIZE] for row in self.rows)

    @functools.cached_property
    def delivered_work(self) -> float:
        """Workload that reached a worker and finished computing."""
        return sum(row[ROW_SIZE] for row in self.rows if not row[ROW_LOST])

    @property
    def lost_records(self) -> tuple[DispatchRecord, ...]:
        """Records of chunks lost to worker crashes, in dispatch order."""
        return tuple(
            DispatchRecord(i, *row) for i, row in enumerate(self.rows) if row[ROW_LOST]
        )

    def worker_records(self, worker: int) -> list[DispatchRecord]:
        """Records for one worker, in dispatch order."""
        return [
            DispatchRecord(i, *row)
            for i, row in enumerate(self.rows)
            if row[ROW_WORKER] == worker
        ]

    def worker_busy_time(self, worker: int) -> float:
        """Total computation time of one worker."""
        return sum(
            row[ROW_COMP_END] - row[ROW_COMP_START]
            for row in self.rows
            if row[ROW_WORKER] == worker
        )

    def delivered_comp_times(self) -> typing.Iterator[float]:
        """Computation time of each delivered chunk, in dispatch order."""
        return (
            row[ROW_COMP_END] - row[ROW_COMP_START]
            for row in self.rows
            if not row[ROW_LOST]
        )

    def utilization(self) -> float:
        """Mean fraction of the makespan workers spent computing.

        Lost chunks carry fictitious (would-have-been) timelines and are
        excluded.
        """
        if self.makespan == 0:
            return 0.0
        busy = sum(self.delivered_comp_times())
        return busy / (self.platform.N * self.makespan)

    def phase_work(self) -> dict[str, float]:
        """Workload dispatched per scheduler phase label."""
        out: dict[str, float] = {}
        for row in self.rows:
            phase = row[ROW_PHASE]
            out[phase] = out.get(phase, 0.0) + row[ROW_SIZE]
        return out


def simulate(
    platform: PlatformSpec,
    total_work: float,
    scheduler: Scheduler,
    error_model: ErrorModel | None = None,
    seed: int | None = None,
    engine: str = "fast",
    faults: "typing.Any | None" = None,
    tracer: "typing.Any | None" = None,
    topology: "typing.Any | None" = None,
) -> SimResult:
    """Run one application under ``scheduler`` and return the result.

    Parameters
    ----------
    platform:
        The master-worker platform.
    total_work:
        ``W_total`` in workload units; must be positive.
    scheduler:
        Any :class:`~repro.core.base.Scheduler`.
    error_model:
        Prediction-error model (default: perfect predictions).
    seed:
        Seed for the error streams; irrelevant (but allowed) with
        :class:`~repro.errors.NoError`.
    engine:
        ``"fast"`` (default) or ``"des"`` — identical results, different
        machinery.
    tracer:
        Optional :class:`repro.obs.Tracer`; both engines emit the run's
        typed event stream into it (see :mod:`repro.obs`).
    faults:
        Optional fault scenario — a :class:`repro.errors.FaultModel` or a
        spec string like ``"crash:p=0.2,tmax=400"`` (see
        :func:`repro.errors.make_fault_model`).  ``None`` or ``"none"``
        keeps the run on the fault-free two-stream code path.
    topology:
        Optional interconnect shape — a :class:`~repro.platform.topology.
        Topology` or a spec string like ``"chain:relay=sf"`` (see
        :func:`repro.platform.make_topology`).  ``None`` means the paper's
        star, the zero-hop path.  Shapes without a closed-form
        recurrence (``sharedbw``, and stars with ``ports``/``out``; see
        :attr:`~repro.platform.topology.Topology.closed_form`) run on the
        DES engine even with ``engine="fast"``.
    """
    from repro.errors.faults import make_fault_model
    from repro.platform.topology import make_topology
    from repro.sim.engine import simulate_des
    from repro.sim.fastsim import simulate_fast

    if not 0 < total_work < math.inf:
        raise ValueError(f"total_work must be > 0, got {total_work}")
    if error_model is None:
        error_model = NoError()
    fault_model = None
    if faults is not None:
        fault_model = make_fault_model(faults)
        from repro.errors.faults import NoFaults

        if isinstance(fault_model, NoFaults):
            fault_model = None
    if engine not in ("fast", "des"):
        raise ValueError(f"unknown engine {engine!r}")
    topo = make_topology(topology)
    run = simulate_des if engine == "des" or not topo.closed_form else simulate_fast
    return run(
        platform, total_work, scheduler, error_model, seed,
        faults=fault_model, tracer=tracer, topology=topo,
    )


def validate_schedule(result: SimResult, rel_tol: float = 1e-9) -> None:
    """Assert the physical invariants of a simulated schedule.

    Checks (raises ``AssertionError`` on violation):

    * the dispatched work equals the requested total workload (fault-free
      runs) — with losses, delivered work never exceeds the total and
      delivered + lost == dispatched (full coverage of the total is a
      *scheduler* property — it requires a surviving worker — and is
      asserted by the recovery tests, not here);
    * at most ``ports`` master-link occupations (dispatches and result
      returns) overlap — one on the paper's star, ``K`` on
      ``star:ports=K``;
    * each arrival happens at/after its transfer's link release;
    * computation starts at/after arrival and respects per-worker FIFO;
    * with result returns (``star:out=R``), every delivered chunk has
      exactly one return of ``R·size`` units, starting after its
      computation, and lost chunks have none; without them, no returns;
    * the makespan is the max computation end over delivered chunks, or
      the last result arrival when that is later.

    Timeline invariants are checked against the run's *event stream*
    (:func:`repro.obs.events.events_from_result`) — the same stream the
    engines emit live and the differential harness compares — so gantt
    rendering, differential testing, and validation all certify one
    representation.  The arrival sandwich and the work accounting are not
    expressible as events and stay record-based.
    """
    from repro.obs.events import events_from_result
    from repro.platform.topology import make_topology

    records = result.records
    total = result.total_work
    has_losses = result.work_lost > 0.0 or any(r.lost for r in records)
    if has_losses:
        work_tol = rel_tol * max(1.0, total)
        delivered = result.delivered_work
        lost = sum(r.size for r in records if r.lost)
        assert delivered <= total + work_tol, (
            f"delivered {delivered} exceeds total {total}"
        )
        assert math.isclose(
            delivered + lost, result.dispatched_work, rel_tol=rel_tol, abs_tol=1e-9
        ), f"delivered {delivered} + lost {lost} != dispatched {result.dispatched_work}"
        assert math.isclose(
            lost, result.work_lost, rel_tol=rel_tol, abs_tol=1e-9
        ), f"lost records sum {lost} != work_lost {result.work_lost}"
    else:
        assert math.isclose(
            result.dispatched_work, total, rel_tol=rel_tol, abs_tol=1e-9
        ), f"dispatched {result.dispatched_work} != total {total}"
    tol = rel_tol * max(1.0, result.makespan)

    events = events_from_result(result)
    send_start_of: dict[int, float] = {}
    send_end_of: dict[int, float] = {}
    comp_start_of: dict[int, float] = {}
    comp_end_of: dict[int, float] = {}
    worker_chain: dict[int, float] = {}
    last_comp_end = -math.inf
    for e in events:
        if e.kind == "dispatch_start":
            send_start_of[e.chunk] = e.time
        elif e.kind == "dispatch_end":
            send_end_of[e.chunk] = e.time
        elif e.kind == "comp_start":
            comp_start_of[e.chunk] = e.time
            prev_end = worker_chain.get(e.worker, -math.inf)
            assert e.time >= prev_end - tol, f"worker {e.worker} FIFO violated"
        elif e.kind == "comp_end":
            comp_end_of[e.chunk] = e.time
            worker_chain[e.worker] = e.time
            last_comp_end = max(last_comp_end, e.time)
    assert set(send_start_of) == set(send_end_of), "unbalanced dispatch events"
    assert set(comp_start_of) == set(comp_end_of), "unbalanced compute events"
    topo = make_topology(result.topology)
    occupations: list[tuple[float, float]] = []
    for chunk in sorted(send_start_of):
        ss, se = send_start_of[chunk], send_end_of[chunk]
        assert se >= ss - tol, f"negative transfer at chunk {chunk}"
        occupations.append((ss, se))
    for chunk in sorted(comp_start_of):
        cs, ce = comp_start_of[chunk], comp_end_of[chunk]
        assert cs >= send_end_of[chunk] - tol, f"compute before send end at {chunk}"
        assert ce >= cs - tol, f"negative compute at {chunk}"
    for r in records:
        assert r.arrival >= r.send_end - tol, f"arrival precedes send end at {r.index}"
        if not r.lost:
            assert r.comp_start >= r.arrival - tol, f"compute before arrival at {r.index}"

    returned = [ret.chunk_index for ret in result.returns]
    if topo.kind == "star" and topo.out > 0:
        delivered = [r.index for r in records if not r.lost]
        assert sorted(returned) == delivered, (
            "returns do not match the delivered chunks one to one"
        )
    else:
        assert not returned, f"{len(returned)} returns on {result.topology!r}"
    last_received = -math.inf
    for ret in result.returns:
        r = records[ret.chunk_index]
        assert math.isclose(
            ret.output_size, topo.out * r.size, rel_tol=rel_tol, abs_tol=1e-12
        ), f"return size {ret.output_size} != out * size at chunk {r.index}"
        assert ret.link_start >= r.comp_end - tol, f"return before compute end at {r.index}"
        assert ret.link_end >= ret.link_start - tol, f"negative return at {r.index}"
        assert ret.received >= ret.link_end - tol, f"receipt before return at {r.index}"
        occupations.append((ret.link_start, ret.link_end))
        last_received = max(last_received, ret.received)

    # Shared-bandwidth stars transfer concurrently by design — the port
    # bound does not apply there.
    if topo.kind != "sharedbw":
        ports = topo.ports if topo.kind == "star" else 1
        assert _peak_overlap(occupations, tol) <= ports, (
            f"link overlap: more than {ports} master-link occupations at once"
        )
    last = max(last_comp_end, last_received)
    if last > -math.inf:
        assert math.isclose(
            result.makespan, last, rel_tol=1e-12, abs_tol=1e-12
        ), f"makespan {result.makespan} != last completion or receipt {last}"


def _peak_overlap(intervals: list[tuple[float, float]], tol: float) -> int:
    """Most intervals open at one instant; touching within ``tol`` is not overlap.

    Intervals no longer than ``tol`` hold nothing and are skipped.  Ends
    sort before starts at one instant, so a port handed over at its
    release counts once.
    """
    edges = sorted(
        edge
        for start, end in intervals
        if end - tol > start
        for edge in ((start, 1), (end - tol, -1))
    )
    peak = open_now = 0
    for _, delta in edges:
        open_now += delta
        peak = max(peak, open_now)
    return peak
