"""On-disk persistence for sweep tensors.

A sweep over the ``small`` grid takes minutes and feeds four different
tables/figures, so results are cached: tensors in a ``.npz``, grid and
algorithm metadata in a sidecar ``.json``.  The cache key is a content
hash of the grid specification plus the algorithm list — any change to
either invalidates the entry automatically.

The cache is hardened against the failure modes a long campaign actually
hits: both files are written atomically (temp file + :func:`os.replace`,
so a crash mid-save can never publish a torn entry), the sidecar carries
a SHA-256 over the tensors (so a mismatched npz/json pair is detected,
not silently served), and any entry that fails to load is quarantined to
``<directory>/corrupt/`` and recomputed — a corrupt cache degrades to a
cache miss, never to an exception or a wrong result.  All load failures
surface as a typed :class:`CacheCorruptionError` naming the offending
path.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pathlib
import typing
import zipfile

import numpy as np

from repro.experiments.config import ExperimentGrid, PlatformPoint, sweep_key
from repro.experiments.resilient import FailureLedger, RetryPolicy, _array_digest
from repro.experiments.runner import SweepResults, run_sweep

__all__ = [
    "sweep_key",
    "save_sweep",
    "load_sweep",
    "cached_sweep",
    "CacheCorruptionError",
]


class CacheCorruptionError(RuntimeError):
    """A cache entry exists but cannot be trusted.

    Raised by :func:`load_sweep` for every failure mode — missing
    counterpart file, torn or truncated npz, unparsable sidecar, tensors
    that fail the sidecar's content hash — instead of leaking the
    underlying ``FileNotFoundError`` / ``KeyError`` / ``BadZipFile``.
    ``path`` names the offending file.
    """

    def __init__(self, message: str, path: "str | os.PathLike"):
        super().__init__(f"{message} [{path}]")
        self.path = pathlib.Path(path)


def _atomic_write_bytes(path: pathlib.Path, payload: bytes) -> None:
    """Publish ``payload`` at ``path`` via temp-file-then-``os.replace``."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def save_sweep(results: SweepResults, directory: str | pathlib.Path) -> pathlib.Path:
    """Persist a sweep atomically; returns the ``.npz`` path.

    Both files go through temp-then-:func:`os.replace`, and the sidecar
    records a content hash of the tensors, so readers can detect a
    mismatched pair (e.g. one file restored from backup without the
    other) no matter when a crash lands.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    key = sweep_key(results.grid, results.algorithms)
    npz_path = directory / f"sweep-{results.grid.name}-{key}.npz"
    meta_path = npz_path.with_suffix(".json")
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **results.makespans)
    _atomic_write_bytes(npz_path, buffer.getvalue())
    meta = {
        "grid": dataclasses.asdict(results.grid),
        "algorithms": list(results.algorithms),
        "platforms": [p.as_dict() for p in results.platforms],
        "content_sha256": _array_digest(results.makespans),
    }
    _atomic_write_bytes(meta_path, json.dumps(meta, indent=2).encode())
    return npz_path


def load_sweep(npz_path: str | pathlib.Path) -> SweepResults:
    """Load a persisted sweep.

    Raises :class:`CacheCorruptionError` — never a bare
    ``FileNotFoundError`` / ``KeyError`` / ``BadZipFile`` — when the
    entry is missing a file, unreadable, structurally wrong, or fails
    the sidecar's content hash.
    """
    npz_path = pathlib.Path(npz_path)
    meta_path = npz_path.with_suffix(".json")
    try:
        meta = json.loads(meta_path.read_text())
        grid = ExperimentGrid(**{**meta["grid"], **{
            k: tuple(v) for k, v in meta["grid"].items() if isinstance(v, list)
        }})
        algorithms = tuple(meta["algorithms"])
        platforms = tuple(PlatformPoint(**p) for p in meta["platforms"])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CacheCorruptionError(
            f"unreadable sweep sidecar ({type(exc).__name__}: {exc})", meta_path
        ) from exc
    try:
        with np.load(npz_path, allow_pickle=False) as data:
            makespans = {a: data[a] for a in algorithms}
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CacheCorruptionError(
            f"unreadable sweep tensors ({type(exc).__name__}: {exc})", npz_path
        ) from exc
    stored = meta.get("content_sha256")
    if stored is not None and _array_digest(makespans) != stored:
        raise CacheCorruptionError(
            "sweep tensors fail the sidecar content hash "
            "(mismatched npz/json pair?)", npz_path
        )
    try:
        return SweepResults(
            grid=grid, algorithms=algorithms, platforms=platforms,
            makespans=makespans,
        )
    except (TypeError, ValueError) as exc:
        raise CacheCorruptionError(
            f"inconsistent sweep entry ({type(exc).__name__}: {exc})", npz_path
        ) from exc


def _quarantine_entry(npz_path: pathlib.Path) -> None:
    """Move a corrupt entry's files to ``<dir>/corrupt/`` for post-mortem."""
    corrupt_dir = npz_path.parent / "corrupt"
    corrupt_dir.mkdir(parents=True, exist_ok=True)
    for path in (npz_path, npz_path.with_suffix(".json")):
        if path.exists():
            try:
                os.replace(path, corrupt_dir / path.name)
            except OSError:  # cross-device or racing cleanup: drop it
                path.unlink(missing_ok=True)


def cached_sweep(
    grid: ExperimentGrid,
    algorithms: typing.Sequence[str],
    directory: str | pathlib.Path,
    n_jobs: int = 1,
    progress: typing.Callable[[int, int], None] | None = None,
    batch_static: bool = True,
    stats=None,
    retry: RetryPolicy | None = None,
    resume: bool = False,
    failures: FailureLedger | None = None,
    tracer=None,
) -> SweepResults:
    """Run a sweep, or load it if an identical one is already on disk.

    ``batch_static`` is forwarded to :func:`run_sweep` on a cache miss;
    it is deliberately *not* part of the cache key, because all paths
    produce bitwise identical tensors at every error.  The key instead
    names the factor-stream format (see :func:`sweep_key`), so entries
    drawn under an older convention are recomputed, not served.

    ``stats`` (a :class:`repro.obs.SweepStats`) tallies the hit/miss and,
    on a miss, is forwarded to :func:`run_sweep` so one collector covers
    the whole cached workflow.

    A corrupt entry (torn file, failed content hash, unparsable sidecar)
    is quarantined to ``<directory>/corrupt/``, counted in
    ``stats.cache_corrupt_quarantined``, and treated as a miss.  On a
    miss the sweep runs with checkpointing into this directory;
    ``resume=True`` additionally picks up surviving shards of an
    interrupted run, and ``retry`` / ``failures`` / ``tracer`` are
    forwarded to :func:`run_sweep`'s supervision layer.
    """
    directory = pathlib.Path(directory)
    key = sweep_key(grid, algorithms)
    npz_path = directory / f"sweep-{grid.name}-{key}.npz"
    if npz_path.exists() and npz_path.with_suffix(".json").exists():
        # Guard against a stale or hand-edited sidecar: the entry is only
        # trusted if it loads cleanly and actually holds the requested
        # algorithm list; anything else falls through to a fresh run.
        try:
            loaded = load_sweep(npz_path)
        except CacheCorruptionError:
            loaded = None
            _quarantine_entry(npz_path)
            if stats is not None:
                stats.cache_corrupt_quarantined += 1
        if loaded is not None and loaded.algorithms == tuple(algorithms):
            if stats is not None:
                stats.cache_hits += 1
            return loaded
    if stats is not None:
        stats.cache_misses += 1
    results = run_sweep(
        grid,
        algorithms=algorithms,
        n_jobs=n_jobs,
        progress=progress,
        batch_static=batch_static,
        stats=stats,
        retry=retry,
        checkpoint_dir=directory,
        resume=resume,
        failures=failures,
        tracer=tracer,
    )
    save_sweep(results, directory)
    return results
