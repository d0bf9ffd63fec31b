"""Chunk plans and dispatch records.

A :class:`ChunkPlan` is the static part of a schedule: an ordered list of
``(worker, size)`` assignments, optionally grouped into rounds, with the
engine :class:`~repro.core.base.Dispatch` of each built once per plan.  A
:class:`DispatchRecord` is what a simulation produces for every chunk that
was actually sent: the full timeline of its transfer and computation.  A
:class:`ReturnRecord` is the result transfer of one computed chunk back to
the master, on stars with result returns (``star:out=R``).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import typing

from repro.core.base import Dispatch

__all__ = [
    "PlannedChunk",
    "ChunkPlan",
    "DispatchRecord",
    "ReturnRecord",
    "ROW_FIELDS",
    "build_records",
]


@dataclasses.dataclass(frozen=True, slots=True)
class PlannedChunk:
    """One planned assignment: ``size`` workload units for ``worker``.

    ``round_index`` groups chunks into dispatch rounds (-1 when the notion
    of a round does not apply, e.g. for self-scheduled chunks).
    ``phase`` is the label every engine gives the chunk's dispatch (the
    scalar replay, the static batch engine and their traces alike).
    """

    worker: int
    size: float
    round_index: int = -1
    phase: str = ""

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker index must be >= 0, got {self.worker}")
        if self.size < 0 or math.isnan(self.size):
            raise ValueError(f"chunk size must be >= 0, got {self.size}")


@dataclasses.dataclass(frozen=True)
class ChunkPlan:
    """An ordered sequence of planned chunks (master dispatch order)."""

    chunks: tuple[PlannedChunk, ...]

    def __init__(self, chunks: typing.Iterable[PlannedChunk]):
        object.__setattr__(self, "chunks", tuple(chunks))

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self) -> typing.Iterator[PlannedChunk]:
        return iter(self.chunks)

    def __getitem__(self, index: int) -> PlannedChunk:
        return self.chunks[index]

    @functools.cached_property
    def dispatches(self) -> tuple[Dispatch, ...]:
        """The plan's engine dispatches, one per chunk, built once per plan.

        Dispatches are frozen, so every
        :class:`~repro.core.base.StaticPlanSource` replaying this plan
        shares the one tuple under its own cursor.
        """
        return tuple([Dispatch(c.worker, c.size, c.phase) for c in self.chunks])

    @property
    def total_work(self) -> float:
        """Sum of all planned chunk sizes."""
        return sum(c.size for c in self.chunks)

    @property
    def num_rounds(self) -> int:
        """Number of distinct round indices (0 when unrounded)."""
        rounds = {c.round_index for c in self.chunks if c.round_index >= 0}
        return len(rounds)

    def round_sizes(self) -> list[list[float]]:
        """Chunk sizes grouped by round, rounds in ascending order."""
        by_round: dict[int, list[float]] = {}
        for c in self.chunks:
            by_round.setdefault(c.round_index, []).append(c.size)
        return [by_round[r] for r in sorted(by_round)]

    def for_worker(self, worker: int) -> list[PlannedChunk]:
        """All chunks planned for one worker, in dispatch order."""
        return [c for c in self.chunks if c.worker == worker]


@dataclasses.dataclass(frozen=True, slots=True)
class DispatchRecord:
    """The realized timeline of one dispatched chunk.

    Attributes
    ----------
    index:
        Dispatch sequence number (0-based).
    worker:
        Receiving worker.
    size:
        Chunk size in workload units.
    send_start / send_end:
        Interval during which the chunk occupied the master's link.
    arrival:
        When the worker held the complete chunk (``send_end + tLat``).
    comp_start / comp_end:
        The worker's computation interval for the chunk.
    phase:
        Free-form label set by the scheduler (e.g. ``"umr"``,
        ``"factoring"``, ``"rumr-phase1"``).
    lost:
        True when the receiving worker crashed before the computation
        finished.  The timeline fields then hold the *would-have-been*
        values (the times the chunk would have seen had the worker
        survived); the chunk delivers no work and is excluded from the
        makespan.
    loss_time:
        When the master observed the chunk lost: ``max(crash_time,
        arrival)`` for lost chunks, -1.0 otherwise.  (-1.0 rather than
        NaN so records stay equality-comparable.)
    """

    index: int
    worker: int
    size: float
    send_start: float
    send_end: float
    arrival: float
    comp_start: float
    comp_end: float
    phase: str = ""
    lost: bool = False
    loss_time: float = -1.0

    @property
    def link_time(self) -> float:
        """Exclusive master-link occupancy."""
        return self.send_end - self.send_start

    @property
    def comp_time(self) -> float:
        """Computation duration (including start-up latency)."""
        return self.comp_end - self.comp_start


@dataclasses.dataclass(frozen=True, slots=True)
class ReturnRecord:
    """One result-return transfer over the master's links.

    ``output_size`` result units of chunk ``chunk_index`` held one master
    port from ``link_start`` to ``link_end``; the master held the results
    at ``received`` (``link_end + tLat``).
    """

    chunk_index: int
    worker: int
    output_size: float
    link_start: float
    link_end: float
    received: float


#: The timeline row layout: the :class:`DispatchRecord` fields after
#: ``index``, in field order.  Both scalar engines build one row per
#: chunk in this layout; :class:`~repro.sim.result.SimResult` keeps the
#: rows and reads them through the ``ROW_*`` positions below.
ROW_FIELDS = tuple(f.name for f in dataclasses.fields(DispatchRecord))[1:]
(
    ROW_WORKER, ROW_SIZE, ROW_SEND_START, ROW_SEND_END, ROW_ARRIVAL,
    ROW_COMP_START, ROW_COMP_END, ROW_PHASE, ROW_LOST, ROW_LOSS_TIME,
) = range(len(ROW_FIELDS))

#: One slot setter per :class:`DispatchRecord` field, in field order.
_RECORD_SETTERS = tuple(
    getattr(DispatchRecord, f.name).__set__ for f in dataclasses.fields(DispatchRecord)
)


def build_records(rows: typing.Sequence[typing.Sequence]) -> tuple[DispatchRecord, ...]:
    """The records of one run's timeline rows, indexed in row order.

    Each row holds the :class:`DispatchRecord` fields after ``index``
    (:data:`ROW_FIELDS`): ``(worker, size, send_start, send_end, arrival,
    comp_start, comp_end, phase, lost, loss_time)``.  Record ``i`` equals
    ``DispatchRecord(i, *rows[i])``; it is built without the frozen
    ``__init__`` (a run makes one record per chunk), by setting each
    field's slot a column at a time.
    """
    n = len(rows)
    records = list(map(object.__new__, itertools.repeat(DispatchRecord, n)))
    for set_field, column in zip(_RECORD_SETTERS, (range(n), *zip(*rows))):
        # The setters return None, so any() just drains the map.
        any(map(set_field, records, column))
    return tuple(records)
