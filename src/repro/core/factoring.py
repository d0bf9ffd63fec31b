"""Factoring self-scheduling (Flynn Hummel, CACM 1992).

Factoring allocates work in *batches*: each batch hands every worker one
chunk of ``remaining / (factor · N)`` units (the canonical factor is 2, so
half the remaining work is scheduled per batch), then the next batch is
computed from what is left.  Chunks therefore *decrease* geometrically,
which bounds the absolute uncertainty of the final chunks — the property
that makes the strategy robust to prediction errors.

In the paper's master-worker setting the algorithm is *self-scheduled*:
a worker receives its next chunk only when the master has observed it go
idle, so the dispatch order adapts to effective speeds.  That greedy
behaviour is also why Factoring overlaps communication and computation
poorly at start-up (motivating RUMR's phase 1).

Chunk sizes are bounded below by ``min_chunk`` (default: one workload
unit — the indivisible task of the original, integral formulation) so the
tail does not degenerate into infinitely many vanishing transfers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.base import WAIT, Dispatch, DispatchSource, MasterView, Scheduler, Wait
from repro.core.lockstep import ARRAY_OPS, SCALAR_OPS, KernelSpec, PoolKernel, expand_rows

__all__ = [
    "Factoring",
    "FactoringSource",
    "FactoringKernel",
    "FactoringKernelSpec",
    "PoolSource",
    "batch_chunk",
    "check_factoring",
]


def check_factoring(factor: float, min_chunk: float = 0.0) -> None:
    """Reject ``factor ≤ 1`` or ``min_chunk < 0`` before any engine runs them."""
    if not factor > 1.0:
        raise ValueError(f"factoring factor must be > 1, got {factor}")
    if not min_chunk >= 0:
        raise ValueError(f"min_chunk must be >= 0, got {min_chunk}")


def batch_chunk(ops, remaining, factor_n, min_chunk):
    """Factoring's batch chunk; ``factor_n`` is factor × the live worker count."""
    return ops.max(remaining / factor_n, min_chunk)


class PoolSource(DispatchSource):
    """The scalar pool rule of the self-scheduled factoring sources.

    Holds the undispatched pool and serves idle workers from it, the
    lowest index first (:meth:`~repro.core.base.MasterView.first_idle`);
    with none idle the source waits.  Subclasses supply only the size
    rule (:meth:`_size`).

    Recovery path (fault runs only, when the view reports
    ``faults_possible``): announced losses rejoin the pool exactly once
    (a cursor into ``view.observed_losses()``), workers whose crash the
    master has observed stop being candidates — the size rules divide by
    the live count, so their share flows to the survivors — a drained
    pool waits while chunks are still outstanding (they may yet be lost
    and need re-dispatch), and once every worker is gone the rest is
    undeliverable.  :class:`~repro.core.lockstep.PoolKernel` is the
    lockstep form of this rule.
    """

    def __init__(
        self,
        n: int,
        total_work: float,
        factor: float,
        min_chunk: float,
        phase: str,
    ):
        check_factoring(factor, min_chunk)
        self._n = n
        self._remaining = total_work
        self._epsilon = 1e-12 * max(total_work, 1.0)
        self._factor = factor
        self._min_chunk = min_chunk
        self._phase = phase
        self._loss_cursor = 0

    @property
    def remaining(self) -> float:
        """Workload not yet dispatched."""
        return self._remaining

    def _size(self, worker: int, n_live: int, crashed: "tuple[int, ...]") -> float:
        """The next chunk for ``worker``, with ``n_live`` workers left."""
        raise NotImplementedError

    def next_dispatch(self, view: MasterView) -> "Dispatch | Wait | None":
        crashed: tuple[int, ...] = ()
        if view.faults_possible:
            losses = view.observed_losses()
            while self._loss_cursor < len(losses):
                self._remaining += losses[self._loss_cursor].size
                self._loss_cursor += 1
            crashed = view.crashed_workers()
        if self._remaining <= self._epsilon:
            if view.faults_possible and view.any_pending():
                return WAIT
            return None
        n_live = self._n - len(crashed)
        if n_live == 0:
            return None
        worker = view.first_idle(crashed)
        if worker is None:
            return WAIT
        size = self._size(worker, n_live, crashed)
        self._remaining = max(0.0, self._remaining - size)
        return Dispatch(worker, size, self._phase)


class FactoringSource(PoolSource):
    """Per-run state of the factoring self-scheduler.

    The batch rule: while work remains, produce ``N`` chunks of size
    :func:`batch_chunk` at the batch's start (capped by what is actually
    left), ``N`` counting the live workers.

    Chunks go only to *idle* workers — the classic self-scheduling
    lookahead of 1, faithful to Hummel's model.  On a platform with
    transfer costs the worker then idles for the whole ``nLat + c/B``
    transfer, exactly the overlap weakness the paper attributes to
    factoring.
    """

    _batch_left = 0  # chunks still to issue in the current batch
    _batch_size = 0.0

    def _size(self, worker: int, n_live: int, crashed: "tuple[int, ...]") -> float:
        if self._batch_left == 0:
            self._batch_size = batch_chunk(
                SCALAR_OPS, self._remaining, self._factor * n_live, self._min_chunk
            )
            self._batch_left = n_live
        self._batch_left -= 1
        return min(self._batch_size, self._remaining)


@dataclasses.dataclass
class FactoringKernelSpec(KernelSpec):
    """One factoring run's binding: its :class:`FactoringSource` parameters.

    ``total_work = 0`` is a valid degenerate spec whose rows are DONE
    from the first decision — RUMR uses it for a skipped phase 2.  The
    lookahead is always the classic 1 (see :mod:`repro.core.lockstep`).
    ``phase`` labels the scalar source's dispatches.
    """

    n: int = 0
    total_work: float = 0.0
    factor: float = 2.0
    min_chunk: float = 1.0
    phase: str = "factoring"

    group_key = ("factoring",)
    handles_crashes = True

    def make_kernel(self, specs, reps, n_max):
        return FactoringKernel(specs, reps, n_max)

    def source(self) -> FactoringSource:
        return FactoringSource(
            self.n, self.total_work, self.factor, self.min_chunk, self.phase
        )


class FactoringKernel(PoolKernel):
    """Lockstep rows of factoring state (see :class:`FactoringSource`).

    The batch rule is the scalar source's :func:`batch_chunk`, with the
    live count ``n`` folded into a precomputed ``factor · n`` on rows
    without crashes, so a row's dispatch sequence is bit-identical to
    the scalar run's; everything else is the shared
    :class:`~repro.core.lockstep.PoolKernel` step.
    """

    def __init__(self, specs, reps, n_max):
        super().__init__(specs, reps, n_max)
        self._factor = expand_rows([s.factor for s in specs], reps, dtype=float)
        self._factor_n = expand_rows(
            [s.factor * s.n for s in specs], reps, dtype=float
        )
        self._min_chunk = expand_rows([s.min_chunk for s in specs], reps, dtype=float)
        self._batch_left = np.zeros(len(self._n), dtype=np.int64)
        self._batch_size = np.zeros(len(self._n))

    def compact(self, keep) -> None:
        super().compact(keep)
        self._factor = self._factor[keep]
        self._factor_n = self._factor_n[keep]
        self._min_chunk = self._min_chunk[keep]
        self._batch_left = self._batch_left[keep]
        self._batch_size = self._batch_size[keep]

    def activate_rows(self, rows, pools, floors) -> None:
        """Re-arm ``rows`` as fresh sources over ``pools`` with ``floors``.

        RUMR and AdaptiveRUMR build their kernels around degenerate
        zero-workload factoring rows and call this when rows enter their
        recovery or adaptive tail — the lockstep equivalent of
        constructing a new :class:`FactoringSource` mid-run.
        """
        self._remaining[rows] = pools
        self._epsilon[rows] = 1e-12 * np.maximum(pools, 1.0)
        self._min_chunk[rows] = floors
        self._batch_left[rows] = 0
        self._batch_size[rows] = 0.0

    def absorb_loss(self, row: int, size: float) -> None:
        """Return one lost chunk to a row's pool (scalar ``+=`` order).

        Composite kernels that withhold losses from the step context —
        AdaptiveRUMR's plan phase ignores them until its switch — replay
        them through this, one at a time in observation order, so the
        left fold matches the scalar loss cursor bitwise.
        """
        self._remaining[row] += size

    def _sizes(self, disp, worker, n_live, crashed):
        if crashed is None:
            factor_n = self._factor_n
        else:
            factor_n = self._factor * n_live.astype(float)
        new_batch = disp & (self._batch_left == 0)
        if new_batch.any():
            np.putmask(
                self._batch_size,
                new_batch,
                batch_chunk(ARRAY_OPS, self._remaining, factor_n, self._min_chunk),
            )
            np.putmask(self._batch_left, new_batch, n_live)
        np.putmask(self._batch_left, disp, self._batch_left - 1)
        return np.minimum(self._batch_size, self._remaining)


class Factoring(Scheduler):
    """Factoring scheduler (see module docstring).

    Parameters
    ----------
    factor:
        Fraction denominator per batch (2 = schedule half the remainder).
    min_chunk:
        Smallest chunk the master will send (default 1 workload unit).
    """

    def __init__(self, factor: float = 2.0, min_chunk: float = 1.0):
        check_factoring(factor, min_chunk)
        self.factor = factor
        self.min_chunk = min_chunk
        self.name = "Factoring"

    def batch_kernel(self, platform: PlatformSpec, total_work: float) -> FactoringKernelSpec:
        return FactoringKernelSpec(
            n=platform.N,
            total_work=total_work,
            factor=self.factor,
            min_chunk=self.min_chunk,
        )
