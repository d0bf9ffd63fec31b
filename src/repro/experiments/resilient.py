"""Resilient sweep execution: retries, engine fallback, checkpoints.

RUMR's thesis is graceful degradation under uncertainty; this module
applies the same principle to the experiment harness itself.  A
multi-hour sweep must survive a flaky engine, a pathological cell, a
crashed pool worker, or a SIGKILL — and resume instead of starting over.
Three cooperating pieces:

:class:`RetryPolicy`
    How hard to try before giving up on a cell: attempt count,
    exponential backoff with *deterministic* jitter (derived from the
    cell seed, so two runs of the same sweep back off identically and
    chaos tests are reproducible), and a wall-clock timeout enforced for
    process-pool shard tasks.

:class:`CellSupervisor`
    The per-cell execution guard implementing the engine-fallback
    ladder: a cell that keeps failing in a vectorized batch engine
    (:mod:`repro.sim.batch` / :mod:`repro.sim.dynbatch`) is retried on
    the scalar engine; a cell that fails *every* rung is quarantined —
    its repetitions become NaN, a structured :class:`CellFailure` lands
    in the :class:`FailureLedger`, and the sweep continues.  No failure
    mode aborts a sweep.  Retry/fallback/quarantine tallies flow into
    :class:`repro.obs.SweepStats`, and ``engine_fallback`` /
    ``cell_quarantined`` events onto an attached
    :class:`~repro.obs.tracer.Tracer`.

:class:`CheckpointStore`
    Crash-safe incremental checkpoints: each completed sweep unit's shard
    is flushed to ``<cache-dir>/partial/<key>/`` as an atomic
    write-temp-then-``os.replace`` ``.npz`` carrying a content hash.  A
    killed sweep resumes from the surviving shards
    (``run_sweep(resume=True)`` / ``repro sweep --resume``); a corrupt
    or torn shard fails its hash check and is recomputed, never trusted.

The ladder preserves determinism: a retry re-runs the exact same seeded
computation, so a cell that eventually succeeds contributes a tensor
bitwise identical to an unperturbed run's; a scalar fallback produces
exactly what ``batch_static=False`` would have (the engines share
per-cell seed streams).  The chaos suite in
``tests/experiments/test_resilient.py`` pins both properties.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import time
import typing

import numpy as np

__all__ = [
    "RetryPolicy",
    "CellFailure",
    "FailureLedger",
    "CellSupervisor",
    "CheckpointStore",
    "atomic_publish",
]


def atomic_publish(
    path: pathlib.Path, write: typing.Callable[[typing.BinaryIO], object]
) -> None:
    """Publish a file at ``path`` through a temp file and :func:`os.replace`.

    ``write(handle)`` fills a binary temp file beside ``path``, which is
    flushed and fsynced before the replace, so a crash can never publish
    a torn file.  If writing or replacing fails, the temp file is removed
    and the error propagates.
    """
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How persistently to re-attempt a failing unit of sweep work.

    Attributes
    ----------
    max_attempts:
        Attempts per ladder rung (primary engine and fallback engine
        each get this many), >= 1.  ``1`` disables retries.
    backoff_base_s:
        Sleep before the first re-attempt; ``0`` retries immediately
        (the chaos tests use this).
    backoff_multiplier:
        Exponential growth factor between consecutive re-attempts.
    jitter_fraction:
        Relative jitter applied to each backoff, drawn *deterministically*
        from the cell seed and attempt number — reproducible, yet
        decorrelated across cells like conventional random jitter.
    cell_timeout_s:
        Wall-clock budget for one process-pool shard task.  ``None``
        (default) waits forever.  Enforced only on the pool path — the
        in-process path cannot preempt a running cell; a pool task that
        overruns is abandoned (its worker killed) and its shard is
        recomputed in-process.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    cell_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1), got {self.jitter_fraction}"
            )
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError(
                f"cell_timeout_s must be > 0 or None, got {self.cell_timeout_s}"
            )

    def backoff_s(self, attempt: int, seed: int) -> float:
        """Sleep before re-attempt ``attempt`` (1-based) of cell ``seed``.

        The jitter is a pure function of ``(seed, attempt)``: the same
        cell backs off identically on every run of the sweep.
        """
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if base == 0.0 or self.jitter_fraction == 0.0:
            return base
        digest = hashlib.blake2b(
            f"{seed}:{attempt}".encode(), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2.0**64  # in [0, 1)
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """One quarantined (platform, error, algorithm) cell, for the ledger."""

    algorithm: str
    platform_index: int
    error_index: int
    engine: str
    fallback_engine: str | None
    attempts: int
    exc_type: str
    message: str

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class FailureLedger:
    """An append-only record of every quarantined cell of a sweep."""

    def __init__(self, entries: typing.Iterable[CellFailure] = ()):
        self.entries: list[CellFailure] = list(entries)

    def add(self, failure: CellFailure) -> None:
        self.entries.append(failure)

    def extend(self, failures: typing.Iterable[CellFailure]) -> None:
        self.entries.extend(failures)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> typing.Iterator[CellFailure]:
        return iter(self.entries)

    def for_platform(self, platform_index: int) -> list[CellFailure]:
        return [e for e in self.entries if e.platform_index == platform_index]

    def to_json(self) -> str:
        return json.dumps([e.as_dict() for e in self.entries], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FailureLedger":
        return cls(CellFailure(**d) for d in json.loads(text))


class CellSupervisor:
    """Per-cell execution guard: retry → engine fallback → quarantine.

    One supervisor rides through a whole sweep (or one pool worker's
    shard of it).  It owns a :class:`FailureLedger` and local counters;
    when a :class:`~repro.obs.SweepStats` collector or a
    :class:`~repro.obs.tracer.Tracer` is attached, tallies and
    ``engine_fallback`` / ``cell_quarantined`` events are forwarded as
    they happen.  Pool workers run their own supervisor and ship
    ``(ledger entries, counters)`` back for :meth:`absorb` by the
    parent's.

    Only :class:`Exception` is caught — ``KeyboardInterrupt`` and other
    ``BaseException``\\ s still propagate, so Ctrl-C stops a sweep
    promptly (checkpoints make that cheap to undo).
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        stats=None,
        ledger: FailureLedger | None = None,
        tracer=None,
        sleep: typing.Callable[[float], None] = time.sleep,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats
        self.ledger = ledger if ledger is not None else FailureLedger()
        self.tracer = tracer
        self.sleep = sleep
        self.retries = 0
        self.engine_fallbacks = 0
        self.cells_quarantined = 0

    # -- bookkeeping --------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Local tallies, for shipping across a process boundary."""
        return {
            "retries": self.retries,
            "engine_fallbacks": self.engine_fallbacks,
            "cells_quarantined": self.cells_quarantined,
        }

    def absorb(
        self, entries: typing.Iterable[CellFailure], counters: dict[str, int]
    ) -> None:
        """Merge a pool worker's ledger entries and counters into this one."""
        entries = list(entries)
        self.ledger.extend(entries)
        self.retries += counters.get("retries", 0)
        self.engine_fallbacks += counters.get("engine_fallbacks", 0)
        self.cells_quarantined += counters.get("cells_quarantined", 0)
        if self.stats is not None:
            self.stats.retries += counters.get("retries", 0)
            self.stats.engine_fallbacks += counters.get("engine_fallbacks", 0)
            self.stats.cells_quarantined += counters.get("cells_quarantined", 0)

    def _count_retry(self) -> None:
        self.retries += 1
        if self.stats is not None:
            self.stats.retries += 1

    def count_fallback(self) -> None:
        """Tally one engine fallback (ladder steps taken outside run_cell,
        e.g. a static plan that fails to compile and reroutes to scalar)."""
        self.engine_fallbacks += 1
        if self.stats is not None:
            self.stats.engine_fallbacks += 1

    # -- execution ----------------------------------------------------------
    def attempt(
        self, fn: typing.Callable[[], typing.Any], seed: int
    ) -> tuple[typing.Any, Exception | None]:
        """Run ``fn`` under the retry policy; return ``(value, last_error)``.

        ``(value, None)`` on success; ``(None, exc)`` after exhausting
        ``max_attempts``.
        """
        last: Exception | None = None
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                return fn(), None
            except Exception as exc:  # noqa: BLE001 — the whole point
                last = exc
                if attempt < self.policy.max_attempts:
                    self._count_retry()
                    delay = self.policy.backoff_s(attempt, seed)
                    if delay > 0:
                        self.sleep(delay)
        return None, last

    def run_cell(
        self,
        primary: typing.Callable[[], np.ndarray],
        *,
        algorithm: str,
        platform_index: int,
        error_index: int,
        engine: str,
        seed: int,
        shape: tuple[int, ...],
        fallback: typing.Callable[[], np.ndarray] | None = None,
        fallback_engine: str = "scalar",
    ) -> np.ndarray:
        """Execute one cell through the full ladder; never raises.

        ``primary`` is attempted under the retry policy; on exhaustion,
        ``fallback`` (when given) gets its own round of attempts; when
        that too is exhausted, the cell is quarantined — a NaN tensor of
        ``shape`` is returned and a :class:`CellFailure` recorded.
        """
        value, exc = self.attempt(primary, seed)
        if exc is None:
            return value
        attempts = self.policy.max_attempts
        used_fallback = fallback is not None
        if used_fallback:
            self.count_fallback()
            if self.tracer is not None:
                self.tracer.emit(
                    0.0, "engine_fallback", -1, phase=algorithm,
                    detail=f"platform={platform_index} error={error_index} "
                    f"{engine}->{fallback_engine}: {type(exc).__name__}",
                )
            value, exc = self.attempt(fallback, seed)
            if exc is None:
                return value
            attempts += self.policy.max_attempts
        self.cells_quarantined += 1
        if self.stats is not None:
            self.stats.cells_quarantined += 1
        self.ledger.add(
            CellFailure(
                algorithm=algorithm,
                platform_index=platform_index,
                error_index=error_index,
                engine=engine,
                fallback_engine=fallback_engine if used_fallback else None,
                attempts=attempts,
                exc_type=type(exc).__name__,
                message=str(exc),
            )
        )
        if self.tracer is not None:
            self.tracer.emit(
                0.0, "cell_quarantined", -1, phase=algorithm,
                detail=f"platform={platform_index} error={error_index} "
                f"engine={engine}: {type(exc).__name__}",
            )
        return np.full(shape, np.nan)


def _array_digest(arrays: dict[str, np.ndarray]) -> str:
    """Content hash of a named array set (order-insensitive by name)."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class CheckpointStore:
    """Atomic, content-hashed shard checkpoints for one sweep.

    Shards live under ``<directory>/partial/<key>/<name>.npz``; ``key``
    is the sweep's cache key, so checkpoints of different grids or
    algorithm lists can never collide.  Every write goes to a temp file
    in the same directory and is published with :func:`os.replace` — a
    crash mid-write leaves at worst an ignorable temp file, never a torn
    shard.  Every shard embeds a SHA-256 over its arrays; a shard that
    fails the hash (or cannot be read at all) is deleted and reported as
    missing, forcing recomputation rather than silent corruption.
    """

    #: Filename of the failure-ledger sidecar kept next to the shards.
    LEDGER_NAME = "failures.json"

    def __init__(self, directory: "str | os.PathLike", key: str):
        self.root = pathlib.Path(directory) / "partial" / key

    def shard_path(self, name: str) -> pathlib.Path:
        return self.root / f"{name}.npz"

    def save(self, name: str, **arrays: np.ndarray) -> pathlib.Path:
        """Atomically persist named arrays as one shard."""
        if not arrays:
            raise ValueError("a shard needs at least one array")
        if "sha256" in arrays:
            raise ValueError("'sha256' is reserved for the content hash")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(name)
        sha256 = np.frombuffer(bytes.fromhex(_array_digest(arrays)), dtype=np.uint8)
        atomic_publish(path, lambda handle: np.savez(handle, sha256=sha256, **arrays))
        return path

    def load(self, name: str) -> dict[str, np.ndarray] | None:
        """Load a shard, or ``None`` if absent, torn, or hash-corrupt.

        A shard that exists but fails validation is deleted on the spot
        so a later resume does not re-read it.
        """
        path = self.shard_path(name)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files if k != "sha256"}
                stored = bytes(data["sha256"]).hex()
        except Exception:
            self._discard_shard(path)
            return None
        if not arrays or _array_digest(arrays) != stored:
            self._discard_shard(path)
            return None
        return arrays

    @staticmethod
    def _discard_shard(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- failure ledger persistence -----------------------------------------
    def save_ledger(self, ledger: FailureLedger) -> None:
        """Atomically persist the ledger next to the shards."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = ledger.to_json().encode()
        atomic_publish(self.root / self.LEDGER_NAME, lambda handle: handle.write(payload))

    def load_ledger(self) -> FailureLedger:
        """The persisted ledger (empty when absent or unreadable)."""
        path = self.root / self.LEDGER_NAME
        try:
            return FailureLedger.from_json(path.read_text())
        except (OSError, ValueError, TypeError, KeyError):
            return FailureLedger()

    def discard(self) -> None:
        """Remove every shard — called once a sweep completes cleanly."""
        shutil.rmtree(self.root, ignore_errors=True)
