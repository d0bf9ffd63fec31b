"""Dataclasses describing a master-worker platform (paper §3.1).

Time models (Eq. 1 and Eq. 2 of the paper), for a chunk of ``c`` workload
units on worker ``i``:

* computation: ``Tcomp_i = cLat_i + c / S_i`` (overlappable with receiving);
* communication: ``Tcomm_i = nLat_i + c / B_i + tLat_i``, of which
  ``nLat_i + c/B_i`` occupies the master's serialized link exclusively and
  ``tLat_i`` is an overlappable pipeline tail.

Pre-staged or replicated input data is modelled with ``B_i = math.inf``.
"""

from __future__ import annotations

import dataclasses
import math
import typing

__all__ = ["WorkerSpec", "PlatformSpec", "homogeneous_platform"]


@dataclasses.dataclass(frozen=True, slots=True)
class WorkerSpec:
    """One worker processor and its link from the master.

    Attributes
    ----------
    S:
        Compute rate, workload units per second.  Must be positive.
    B:
        Transfer rate from the master, workload units per second.  May be
        ``math.inf`` to model pre-staged data.  Must be positive.
    cLat:
        Fixed overhead (seconds) to start one chunk's computation.
    nLat:
        Fixed overhead (seconds) the master pays to initiate one transfer
        to this worker (e.g. TCP connection set-up).
    tLat:
        Delay (seconds) between the master pushing the last byte and the
        worker holding it; overlappable with the master's next transfer.
    """

    S: float
    B: float
    cLat: float = 0.0
    nLat: float = 0.0
    tLat: float = 0.0

    def __post_init__(self) -> None:
        if not self.S > 0:
            raise ValueError(f"worker compute rate S must be > 0, got {self.S}")
        if not self.B > 0:
            raise ValueError(f"worker transfer rate B must be > 0, got {self.B}")
        for name in ("cLat", "nLat", "tLat"):
            value = getattr(self, name)
            if value < 0 or math.isnan(value):
                raise ValueError(f"{name} must be >= 0, got {value}")

    # -- paper's Eq. 1 / Eq. 2 --------------------------------------------
    def compute_time(self, chunk: float) -> float:
        """Predicted time to compute ``chunk`` units (Eq. 1)."""
        return self.cLat + chunk / self.S

    def link_time(self, chunk: float) -> float:
        """Predicted exclusive master-link occupancy for ``chunk`` units."""
        return self.nLat + (0.0 if math.isinf(self.B) else chunk / self.B)

    def comm_time(self, chunk: float) -> float:
        """Predicted end-to-end transfer time (Eq. 2), including ``tLat``."""
        return self.link_time(chunk) + self.tLat


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """A master plus an ordered collection of workers.

    The worker order is the master's default dispatch order; the paper's
    resource-selection step (see :mod:`repro.core.selection`) sorts workers
    by decreasing bandwidth before scheduling.
    """

    workers: tuple[WorkerSpec, ...]

    def __init__(self, workers: typing.Iterable[WorkerSpec]):
        object.__setattr__(self, "workers", tuple(workers))
        if not self.workers:
            raise ValueError("a platform needs at least one worker")

    def __hash__(self) -> int:
        # The dataclass hash, computed once: solve_umr's lru_cache hashes
        # its platform on every lookup, and each hash would otherwise
        # re-hash every WorkerSpec.  Kept out of the fields, so equality,
        # repr and asdict never see it.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.workers,))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # Pickle the fields only: the hash is recomputed where it is loaded.
        return {"workers": self.workers}

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self) -> typing.Iterator[WorkerSpec]:
        return iter(self.workers)

    def __getitem__(self, index: int) -> WorkerSpec:
        return self.workers[index]

    @property
    def N(self) -> int:
        """Number of workers."""
        return len(self.workers)

    @property
    def is_homogeneous(self) -> bool:
        """True when all workers are identical."""
        return all(w == self.workers[0] for w in self.workers[1:])

    def subset(self, indices: typing.Sequence[int]) -> "PlatformSpec":
        """A new platform restricted to ``indices`` (in the given order)."""
        return PlatformSpec(self.workers[i] for i in indices)

    # -- aggregate rates ----------------------------------------------------
    def total_compute_rate(self) -> float:
        """Sum of worker compute rates (units/second)."""
        return sum(w.S for w in self.workers)

    def utilization_sum(self) -> float:
        """``Σ S_i / B_i`` — the key quantity of the full-utilization test.

        For a homogeneous platform this equals ``N·S/B = 1/θ`` where θ is
        the UMR chunk growth ratio; multi-round schedules need θ > 1.
        """
        return sum(0.0 if math.isinf(w.B) else w.S / w.B for w in self.workers)


def homogeneous_platform(
    N: int,
    S: float = 1.0,
    B: float | None = None,
    cLat: float = 0.0,
    nLat: float = 0.0,
    tLat: float = 0.0,
    bandwidth_factor: float | None = None,
) -> PlatformSpec:
    """Build the paper's homogeneous platform.

    Parameters
    ----------
    N:
        Number of workers.
    S:
        Per-worker compute rate (Table 1 uses 1).
    B:
        Master link rate per transfer.  Mutually exclusive with
        ``bandwidth_factor``.
    bandwidth_factor:
        If given, sets ``B = bandwidth_factor * N * S`` — the Table 1
        parameterization (factors 1.2 … 2.0), which keeps the platform
        inside the full-utilization region for any ``N``.
    cLat, nLat, tLat:
        Shared latencies.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if (B is None) == (bandwidth_factor is None):
        raise ValueError("specify exactly one of B and bandwidth_factor")
    if bandwidth_factor is not None:
        B = bandwidth_factor * N * S
    assert B is not None
    worker = WorkerSpec(S=S, B=B, cLat=cLat, nLat=nLat, tLat=tLat)
    return PlatformSpec([worker] * N)
