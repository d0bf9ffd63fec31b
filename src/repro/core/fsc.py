"""Fixed-Size Chunking (FSC) self-scheduling.

FSC (studied experimentally by Hagerup, JPDC 1997, building on Kruskal &
Weiss) sends equal-sized chunks to workers on demand.  The single tuning
knob is the chunk size, which trades scheduling overhead (small chunks)
against end-of-run imbalance (large chunks).

Kruskal & Weiss give the classic near-optimal size for ``R`` remaining
units, per-chunk overhead ``h`` and per-unit duration noise ``σ``::

    c_opt = ( √2 · R · h / (σ · N · √(ln N)) )^(2/3)

We adopt this with ``h = cLat + nLat`` (the non-overlappable latencies a
chunk pays) and ``σ = error / S`` (the paper's multiplicative error applied
to the per-unit compute time).  Degenerate inputs (``σ = 0``, ``N = 1`` or
missing error knowledge) fall back to an equal split ``W/N``; the result is
always clamped to ``[min_chunk, W/N]``.

The paper ran FSC, found it consistently worse than Factoring, and omitted
it from the result tables; it is included here for completeness and used in
the ablation benchmarks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.base import WAIT, Dispatch, DispatchSource, MasterView, Scheduler, Wait
from repro.core.lockstep import KernelSpec, PoolKernel, expand_rows
from repro.platform.spec import PlatformSpec

__all__ = [
    "FSCKernel",
    "FSCKernelSpec",
    "FixedSizeChunking",
    "kruskal_weiss_chunk_size",
]


def kruskal_weiss_chunk_size(
    total_work: float,
    n: int,
    overhead: float,
    sigma_per_unit: float,
) -> float:
    """The Kruskal–Weiss chunk size (see module docstring).

    Returns ``total_work / n`` when the formula degenerates (no noise, a
    single worker, or zero overhead — in which case smaller is always
    better and the caller's ``min_chunk`` floor takes over).
    """
    if n <= 1 or sigma_per_unit <= 0:
        return total_work / max(n, 1)
    if overhead <= 0:
        return 0.0
    log_n = math.log(n)
    if log_n <= 0:
        return total_work / n
    raw = (math.sqrt(2.0) * total_work * overhead / (sigma_per_unit * n * math.sqrt(log_n))) ** (
        2.0 / 3.0
    )
    return min(raw, total_work / n)


class FixedSizeChunkingSource(DispatchSource):
    """Per-run state: equal chunks served to idle workers on demand."""

    def __init__(self, n: int, total_work: float, chunk: float, phase: str = "fsc"):
        self._remaining = total_work
        self._epsilon = 1e-12 * max(total_work, 1.0)
        self._chunk = chunk
        self._phase = phase
        self._n = n

    @property
    def remaining(self) -> float:
        """Workload not yet dispatched."""
        return self._remaining

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        if self._remaining <= self._epsilon:
            return None
        worker = view.first_idle()
        if worker is None:
            return WAIT
        size = min(self._chunk, self._remaining)
        self._remaining = max(0.0, self._remaining - size)
        return Dispatch(worker=worker, size=size, phase=self._phase)


@dataclasses.dataclass
class FSCKernelSpec(KernelSpec):
    """One FSC run's binding: its :class:`FixedSizeChunkingSource` parameters."""

    n: int = 0
    total_work: float = 0.0
    chunk: float = 1.0

    group_key = ("fsc",)
    # FSC ignores faults entirely: the scalar source never re-dispatches
    # lost work and keeps serving crashed-but-idle workers, so the
    # oblivious kernel below already matches it decision for decision.
    handles_crashes = True

    def make_kernel(
        self, specs: "list[FSCKernelSpec]", reps: "list[int]", n_max: int
    ) -> "FSCKernel":
        return FSCKernel(specs, reps, n_max)

    def source(self) -> FixedSizeChunkingSource:
        return FixedSizeChunkingSource(self.n, self.total_work, self.chunk)


class FSCKernel(PoolKernel):
    """Row-wise FSC: serve the lowest-index idle worker an equal chunk.

    Mirrors :class:`FixedSizeChunkingSource` exactly: the shared
    :class:`~repro.core.lockstep.PoolKernel` step without a fault
    context — a row is finished once its undispatched remainder drops to
    the epsilon floor (lost chunks are never re-dispatched, matching the
    scalar source even under faults), it waits while no worker is idle,
    and otherwise sends ``min(chunk, remaining)`` to the first idle
    worker.  Crashed workers stay eligible — the scalar idle scan does
    not consult crash state.
    """

    def __init__(self, specs, reps, n_max):
        super().__init__(specs, reps, n_max)
        self._chunk = expand_rows([s.chunk for s in specs], reps, float)

    def compact(self, keep) -> None:
        super().compact(keep)
        self._chunk = self._chunk[keep]

    def _sizes(self, disp, worker, n_live, crashed):
        return np.minimum(self._chunk, self._remaining)

    def decide(self, idle, action, worker, size, mask=None, ctx=None):
        super().decide(idle, action, worker, size, mask)


class FixedSizeChunking(Scheduler):
    """FSC scheduler.

    Parameters
    ----------
    chunk_size:
        Explicit chunk size; when ``None`` (default) the Kruskal–Weiss
        formula is evaluated per run from the platform and ``known_error``.
    known_error:
        Error-magnitude estimate used by the size formula (the same
        "is *error* known" question as RUMR's, §4.1).
    min_chunk:
        Floor applied to the computed size (default 1 workload unit).
    """

    def __init__(
        self,
        chunk_size: float | None = None,
        known_error: float = 0.0,
        min_chunk: float = 1.0,
    ):
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        self.chunk_size = chunk_size
        self.known_error = known_error
        self.min_chunk = min_chunk
        self.name = "FSC"

    def batch_kernel(self, platform: PlatformSpec, total_work: float) -> FSCKernelSpec:
        if self.chunk_size is not None:
            chunk = self.chunk_size
        else:
            # Homogeneous-style aggregates; heterogeneous platforms use means.
            n = platform.N
            overhead = sum(w.cLat + w.nLat for w in platform) / n
            mean_s = sum(w.S for w in platform) / n
            sigma = self.known_error / mean_s
            chunk = kruskal_weiss_chunk_size(total_work, n, overhead, sigma)
        chunk = min(max(chunk, self.min_chunk), total_work)
        if not chunk > 0:
            raise ValueError(f"chunk size must be > 0, got {chunk}")
        return FSCKernelSpec(n=platform.N, total_work=total_work, chunk=chunk)
