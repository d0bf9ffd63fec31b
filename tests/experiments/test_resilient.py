"""Chaos suite for the resilient sweep layer (repro.experiments.resilient).

Perturbs the sweep harness the way a long campaign actually breaks —
flaky engines, poisoned cells, hung and dying pool workers, SIGKILL
mid-sweep, corrupt checkpoint shards — and pins the recovery contract:

* a cell that eventually succeeds on its original engine yields a tensor
  *bitwise identical* to an unperturbed run (retries re-run the same
  seeded computation);
* a cell rerouted down the engine-fallback ladder yields exactly what
  ``batch_static=False`` would have;
* a cell failing every rung becomes NaN plus a structured ledger entry —
  no failure mode aborts a sweep;
* a killed sweep resumes from its surviving checkpoint shards and
  recomputes only the remainder.

``REPRO_CHAOS_SEED`` reseeds which cells the chaos picks on, so CI can
run the same suite over several fault patterns.
"""

import hashlib
import io
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.config import smoke_grid, sweep_key
from repro.experiments.resilient import (
    CellFailure,
    CellSupervisor,
    CheckpointStore,
    FailureLedger,
    RetryPolicy,
)
from repro.experiments.runner import _cell_seeds, eta_progress, run_sweep
from repro.obs import SweepStats, Tracer

#: CI matrix knob: reseeds the deterministic choice of chaos-hit cells.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

ALGOS = ("RUMR", "UMR", "Factoring")
FAST_RETRY = RetryPolicy(backoff_base_s=0.0)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool chaos needs fork so monkeypatches reach the workers",
)


def chaos_grid():
    return smoke_grid().restrict(
        Ns=(10, 20), bandwidth_factors=(1.4, 1.8), cLats=(0.0,), nLats=(0.1,),
        errors=(0.0, 0.2), repetitions=3,
    )


def chaos_selected(seed: int, fraction: float = 0.25) -> bool:
    """Deterministically pick ~``fraction`` of cells, keyed by CHAOS_SEED."""
    digest = hashlib.blake2b(
        f"{CHAOS_SEED}:{seed}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64 < fraction


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(chaos_grid(), ALGOS)


@pytest.fixture(scope="module")
def scalar_baseline():
    """The all-scalar run the loop-and-pool chaos tests perturb.

    With every in-tree algorithm covered by a global batch pass, the
    per-platform loop (and therefore the process pool and the platform
    checkpoint shards) only has work when ``batch_static`` is off — so
    the chaos aimed at that machinery runs with it off and compares
    against this baseline.
    """
    return run_sweep(chaos_grid(), ALGOS, batch_static=False)


def assert_tensors_equal(a, b):
    for algo in ALGOS:
        assert np.array_equal(a.makespans[algo], b.makespans[algo]), algo


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(cell_timeout_s=0.0)

    def test_backoff_is_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                             jitter_fraction=0.25)
        delays = [policy.backoff_s(a, seed=42) for a in (1, 2, 3)]
        assert delays == [policy.backoff_s(a, seed=42) for a in (1, 2, 3)]
        for attempt, delay in enumerate(delays, start=1):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base * 0.75 <= delay <= base * 1.25
        # Different cells jitter differently (decorrelated backoff).
        assert policy.backoff_s(1, seed=42) != policy.backoff_s(1, seed=43)

    def test_zero_base_disables_sleep(self):
        assert RetryPolicy(backoff_base_s=0.0).backoff_s(3, seed=7) == 0.0


# ---------------------------------------------------------------------------
# FailureLedger


def test_ledger_json_roundtrip():
    ledger = FailureLedger()
    ledger.add(CellFailure("UMR", 3, 1, "static-batch", "scalar", 6,
                           "RuntimeError", "boom"))
    ledger.add(CellFailure("RUMR", 0, 0, "dynbatch", None, 3,
                           "ValueError", "bad"))
    rebuilt = FailureLedger.from_json(ledger.to_json())
    assert rebuilt.entries == ledger.entries
    assert len(rebuilt) == 2
    assert [e.algorithm for e in rebuilt.for_platform(3)] == ["UMR"]


# ---------------------------------------------------------------------------
# CellSupervisor


class TestCellSupervisor:
    def _flaky(self, fail_times):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise RuntimeError(f"failure #{calls['n']}")
            return np.arange(3.0)

        return fn

    def test_retry_until_success(self):
        sup = CellSupervisor(policy=FAST_RETRY)
        value = sup.run_cell(
            self._flaky(2), algorithm="UMR", platform_index=0, error_index=0,
            engine="static-batch", seed=1, shape=(3,),
        )
        assert np.array_equal(value, np.arange(3.0))
        assert sup.retries == 2 and sup.engine_fallbacks == 0
        assert len(sup.ledger) == 0

    def test_fallback_ladder(self):
        stats = SweepStats()
        tracer = Tracer()
        sup = CellSupervisor(policy=FAST_RETRY, stats=stats, tracer=tracer)
        value = sup.run_cell(
            self._flaky(99), algorithm="UMR", platform_index=2, error_index=1,
            engine="static-batch", seed=1, shape=(3,),
            fallback=self._flaky(1),
        )
        assert np.array_equal(value, np.arange(3.0))
        assert sup.engine_fallbacks == 1 and stats.engine_fallbacks == 1
        assert sup.cells_quarantined == 0
        assert [e.kind for e in tracer.events()] == ["engine_fallback"]

    def test_quarantine_after_both_rungs(self):
        stats = SweepStats()
        tracer = Tracer()
        sup = CellSupervisor(policy=FAST_RETRY, stats=stats, tracer=tracer)
        value = sup.run_cell(
            self._flaky(99), algorithm="UMR", platform_index=2, error_index=1,
            engine="static-batch", seed=1, shape=(3,),
            fallback=self._flaky(99),
        )
        assert value.shape == (3,) and np.isnan(value).all()
        assert sup.cells_quarantined == 1 and stats.cells_quarantined == 1
        (entry,) = sup.ledger.entries
        assert entry.algorithm == "UMR" and entry.platform_index == 2
        assert entry.engine == "static-batch"
        assert entry.fallback_engine == "scalar"
        assert entry.attempts == 2 * FAST_RETRY.max_attempts
        assert entry.exc_type == "RuntimeError"
        assert [e.kind for e in tracer.events()] == [
            "engine_fallback", "cell_quarantined",
        ]

    def test_keyboard_interrupt_propagates(self):
        sup = CellSupervisor(policy=FAST_RETRY)

        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            sup.run_cell(
                interrupted, algorithm="UMR", platform_index=0, error_index=0,
                engine="scalar", seed=0, shape=(1,),
            )

    def test_absorb_merges_pool_worker_results(self):
        stats = SweepStats()
        parent = CellSupervisor(policy=FAST_RETRY, stats=stats)
        worker = CellSupervisor(policy=FAST_RETRY)
        worker.run_cell(
            self._flaky(99), algorithm="UMR", platform_index=1, error_index=0,
            engine="static-batch", seed=0, shape=(2,),
        )
        parent.absorb(worker.ledger.entries, worker.counters())
        assert parent.cells_quarantined == 1 and stats.cells_quarantined == 1
        assert stats.retries == worker.retries
        assert len(parent.ledger) == 1

    def test_backoff_sleeps_are_injected(self):
        slept = []
        sup = CellSupervisor(
            policy=RetryPolicy(backoff_base_s=0.5, jitter_fraction=0.0),
            sleep=slept.append,
        )
        _, exc = sup.attempt(self._flaky(99), seed=0)
        assert exc is not None
        assert slept == [0.5, 1.0]  # multiplier 2.0, max_attempts 3


# ---------------------------------------------------------------------------
# CheckpointStore


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        store.save("shard", block=np.arange(6.0).reshape(2, 3),
                   valid=np.array([True, False]))
        loaded = store.load("shard")
        assert np.array_equal(loaded["block"], np.arange(6.0).reshape(2, 3))
        assert np.array_equal(loaded["valid"], np.array([True, False]))

    def test_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "key").load("nope") is None

    def test_torn_shard_is_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        path = store.save("shard", block=np.arange(4.0))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load("shard") is None
        assert not path.exists()  # deleted, not re-read next resume

    def test_tampered_payload_fails_hash(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        path = store.save("shard", block=np.arange(4.0))
        # Overwrite with a structurally valid shard whose hash is wrong.
        with open(path, "wb") as handle:
            np.savez(handle, sha256=np.zeros(32, dtype=np.uint8),
                     block=np.arange(4.0))
        assert store.load("shard") is None
        assert not path.exists()

    def test_reserved_name_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        with pytest.raises(ValueError):
            store.save("shard", sha256=np.arange(2.0))
        with pytest.raises(ValueError):
            store.save("shard")

    def test_keys_do_not_collide(self, tmp_path):
        a = CheckpointStore(tmp_path, "key-a")
        b = CheckpointStore(tmp_path, "key-b")
        a.save("shard", block=np.zeros(2))
        assert b.load("shard") is None

    def test_ledger_roundtrip_and_discard(self, tmp_path):
        store = CheckpointStore(tmp_path, "key")
        ledger = FailureLedger(
            [CellFailure("UMR", 0, 0, "scalar", None, 3, "RuntimeError", "x")]
        )
        store.save_ledger(ledger)
        assert store.load_ledger().entries == ledger.entries
        store.save("shard", block=np.zeros(2))
        store.discard()
        assert store.load("shard") is None
        assert len(store.load_ledger()) == 0


def _poisoned_sweep(grid, monkeypatch):
    """Make UMR's (0, 0) cell fail on every engine, so a sweep ledgers it."""
    poison = _cell_seeds(grid, 0, 0)[0]
    real_cells = runner_mod.simulate_static_cells
    real_fast = runner_mod.simulate_fast

    def batch(cells, mode="multiply", **kw):
        if any(c.seeds[0] == poison for c in cells):
            raise RuntimeError("chaos: poisoned cell")
        return real_cells(cells, mode=mode, **kw)

    def fast(platform, work, scheduler, model, **kw):
        if kw.get("seed") == poison:
            raise RuntimeError("chaos: poisoned cell")
        return real_fast(platform, work, scheduler, model, **kw)

    monkeypatch.setattr(runner_mod, "simulate_static_cells", batch)
    monkeypatch.setattr(runner_mod, "simulate_fast", fast)


@pytest.mark.parametrize("writer", ["shard", "ledger", "sweep-cache", "sweep-ledger"])
def test_failed_publish_leaves_no_temp_file(writer, baseline, tmp_path, monkeypatch):
    """Every temp-then-``os.replace`` write cleans up when the replace fails.

    The shard and ledger checkpoints, the sweep cache files and the
    final ``failures-*.json`` all publish through one helper; a failing
    ``os.replace`` must propagate and leave no ``.tmp-<pid>`` file.
    """
    from repro.experiments.cache import save_sweep

    real_replace = os.replace
    target = {"sweep-ledger": "failures-sweep-"}.get(writer, "")

    def failing_replace(src, dst):
        if pathlib.Path(dst).name.startswith(target):
            raise OSError("chaos: replace failed")
        return real_replace(src, dst)

    store = CheckpointStore(tmp_path, "key")
    ledger = FailureLedger(
        [CellFailure("UMR", 0, 0, "scalar", None, 3, "RuntimeError", "x")]
    )
    grid = chaos_grid()
    if writer == "sweep-ledger":
        _poisoned_sweep(grid, monkeypatch)
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="chaos: replace failed"):
        if writer == "shard":
            store.save("shard", block=np.zeros(2))
        elif writer == "ledger":
            store.save_ledger(ledger)
        elif writer == "sweep-cache":
            save_sweep(baseline, tmp_path)
        else:
            run_sweep(grid, ALGOS, retry=FAST_RETRY, checkpoint_dir=tmp_path)
    assert [p.name for p in tmp_path.rglob("*.tmp-*")] == []


# ---------------------------------------------------------------------------
# Chaos sweeps: retry heals, ladder reroutes, quarantine isolates


class TestChaosSweeps:
    def test_flaky_cells_heal_bitwise(self, baseline, monkeypatch):
        """A merged static pass failing twice then succeeding leaves no
        trace in the tensor — retries re-run the same seeded pass."""
        grid = chaos_grid()
        real = runner_mod.simulate_static_cells
        calls = {"n": 0}

        def flaky(cells, mode="multiply", **kw):
            if len(cells) > 1:
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError("chaos: transient engine failure")
            return real(cells, mode=mode, **kw)

        monkeypatch.setattr(runner_mod, "simulate_static_cells", flaky)
        stats = SweepStats()
        result = run_sweep(grid, ALGOS, retry=FAST_RETRY, stats=stats)
        assert stats.retries > 0
        assert stats.engine_fallbacks == 0 and stats.cells_quarantined == 0
        assert_tensors_equal(baseline, result)

    def test_dead_engine_falls_back_to_scalar(self, monkeypatch):
        """A dead static grid engine reroutes to scalar == a --no-batch run."""
        grid = chaos_grid()
        nobatch = run_sweep(grid, ALGOS, batch_static=False)

        def dead(*args, **kwargs):
            raise RuntimeError("chaos: engine down")

        monkeypatch.setattr(runner_mod, "simulate_static_cells", dead)
        stats = SweepStats()
        tracer = Tracer()
        result = run_sweep(grid, ALGOS, retry=FAST_RETRY, stats=stats,
                           tracer=tracer)
        assert np.array_equal(nobatch.makespans["UMR"], result.makespans["UMR"])
        # 4 platforms × 2 errors, one static algorithm (UMR).
        assert stats.engine_fallbacks == 8
        assert stats.cells_quarantined == 0
        assert {e.kind for e in tracer.events()} == {"engine_fallback"}

    def test_poisoned_cell_quarantines_not_aborts(self, baseline, monkeypatch):
        """A poisoned cell in the static grid pass degrades the pass to
        per-cell calls; the cell failing every rung becomes NaN + ledger,
        and its siblings keep their merged-pass results bit for bit."""
        grid = chaos_grid()
        poison = _cell_seeds(grid, 1, 1)[0]
        real_cells = runner_mod.simulate_static_cells
        real_fast = runner_mod.simulate_fast

        def batch(cells, mode="multiply", **kw):
            if any(c.seeds[0] == poison for c in cells):
                raise RuntimeError("chaos: poisoned cell")
            return real_cells(cells, mode=mode, **kw)

        def fast(platform, work, scheduler, model, **kw):
            if kw.get("seed") == poison:
                raise RuntimeError("chaos: poisoned cell")
            return real_fast(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_static_cells", batch)
        monkeypatch.setattr(runner_mod, "simulate_fast", fast)
        stats = SweepStats()
        ledger = FailureLedger()
        result = run_sweep(grid, ALGOS, retry=FAST_RETRY, stats=stats,
                           failures=ledger)
        assert stats.cells_quarantined == 1
        assert np.isnan(result.makespans["UMR"][1, 1]).all()
        (entry,) = ledger.entries
        assert (entry.algorithm, entry.platform_index, entry.error_index) == (
            "UMR", 1, 1,
        )
        assert entry.engine == "static-batch"
        assert entry.fallback_engine == "scalar"
        # Every other cell is untouched, bit for bit.
        for algo in ALGOS:
            got, want = result.makespans[algo], baseline.makespans[algo]
            mask = np.isnan(got)
            assert np.array_equal(got[~mask], want[~mask]), algo
            assert mask.sum() == (3 if algo == "UMR" else 0)

    def test_merged_lockstep_failure_degrades_per_cell(self, baseline,
                                                       monkeypatch):
        """The merged dynbatch pass failing degrades to per-cell lockstep
        calls — bitwise identical to the merged pass."""
        grid = chaos_grid()
        real = runner_mod.simulate_dynamic_cells

        def merged_down(cells, mode="multiply", **kw):
            if len(cells) > 1:
                raise RuntimeError("chaos: merged pass down")
            return real(cells, mode=mode, **kw)

        monkeypatch.setattr(runner_mod, "simulate_dynamic_cells", merged_down)
        stats = SweepStats()
        result = run_sweep(grid, ALGOS, retry=FAST_RETRY, stats=stats)
        assert stats.retries >= FAST_RETRY.max_attempts - 1
        assert stats.cells_quarantined == 0
        assert_tensors_equal(baseline, result)

    def test_poisoned_dynamic_cell_preserves_siblings(self, baseline,
                                                      monkeypatch):
        """One poisoned lockstep cell falls down the ladder alone — every
        sibling cell of the degraded pass keeps its merged-pass result."""
        grid = chaos_grid()
        poison = _cell_seeds(grid, 0, 0)[0]
        real = runner_mod.simulate_dynamic_cells

        def poisoned(cells, mode="multiply", **kw):
            if any(c.seeds[0] == poison for c in cells):
                raise RuntimeError("chaos: poisoned cell")
            return real(cells, mode=mode, **kw)

        monkeypatch.setattr(runner_mod, "simulate_dynamic_cells", poisoned)
        stats = SweepStats()
        ledger = FailureLedger()
        result = run_sweep(grid, ALGOS, retry=FAST_RETRY, stats=stats,
                           failures=ledger)
        # Both dynamic algorithms' (0, 0) cells reroute to the scalar
        # engine (which succeeds), everything else stays lockstep.
        assert stats.engine_fallbacks == 2
        assert stats.cells_quarantined == 0 and len(ledger) == 0
        for algo in ALGOS:
            got, want = result.makespans[algo], baseline.makespans[algo]
            assert np.isfinite(got).all(), algo
            if algo == "UMR":
                assert np.array_equal(got, want)
            else:
                assert np.array_equal(got[1:], want[1:]), algo
                assert np.array_equal(got[0, 1:], want[0, 1:]), algo

    def test_scalar_engine_chaos_heals(self, monkeypatch):
        """Retries also guard the scalar engine (the --no-batch path)."""
        grid = chaos_grid()
        algos = ("FSC",)
        base = run_sweep(grid, algos, batch_static=False)
        real = runner_mod.simulate_fast
        counts: dict = {}

        def flaky(platform, work, scheduler, model, **kw):
            seed = kw.get("seed")
            if chaos_selected(seed, fraction=0.25):
                counts[seed] = counts.get(seed, 0) + 1
                if counts[seed] <= 1:
                    raise RuntimeError("chaos: transient scalar failure")
            return real(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", flaky)
        stats = SweepStats()
        # A retry restarts the whole cell at repetition 0, so a cell with
        # k chaos-hit repetition seeds needs k+1 attempts: budget for all
        # three repetitions failing once each.
        result = run_sweep(
            grid, algos, stats=stats, batch_static=False,
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0),
        )
        assert np.array_equal(base.makespans["FSC"], result.makespans["FSC"])
        assert stats.cells_quarantined == 0


# ---------------------------------------------------------------------------
# Checkpoints and resume


class _Interrupt(KeyboardInterrupt):
    """Distinguishable stand-in for a mid-sweep Ctrl-C."""


class TestCheckpointsAndResume:
    def test_interrupted_sweep_resumes_remainder_only(self, scalar_baseline,
                                                      tmp_path, monkeypatch):
        grid = chaos_grid()

        def interrupting(done, total):
            if done == 2:
                raise _Interrupt()

        with pytest.raises(_Interrupt):
            run_sweep(grid, ALGOS, checkpoint_dir=tmp_path,
                      batch_static=False,
                      progress=interrupting)
        shards = list(tmp_path.glob("partial/*/scalar-*.npz"))
        assert len(shards) == 2

        recomputed = []
        real = runner_mod._run_platform

        def counting(grid_, point, p_idx, *args, **kwargs):
            recomputed.append(p_idx)
            return real(grid_, point, p_idx, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_platform", counting)
        stats = SweepStats()
        calls = []
        result = run_sweep(
            grid, ALGOS, checkpoint_dir=tmp_path, resume=True, stats=stats,
            batch_static=False,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert_tensors_equal(scalar_baseline, result)
        assert sorted(recomputed) == [2, 3]
        # 2 shards × 2 errors × 3 loop algorithms (no batch passes).
        assert stats.cells_resumed == 12
        total_cells = 4 * 2 * len(ALGOS)
        assert stats.cells_resumed < total_cells
        # Progress stays monotone and completes; resumed shards are
        # reported up front.
        assert calls[0] == (2, 4) and calls[-1] == (4, 4)
        assert all(a <= b for (a, _), (b, _) in zip(calls, calls[1:]))
        # Clean completion clears the partial directory.
        assert not list(tmp_path.glob("partial/*/scalar-*.npz"))

    def test_corrupt_shard_is_recomputed(self, scalar_baseline, tmp_path):
        grid = chaos_grid()

        def interrupting(done, total):
            if done == 2:
                raise _Interrupt()

        with pytest.raises(_Interrupt):
            run_sweep(grid, ALGOS, checkpoint_dir=tmp_path,
                      batch_static=False,
                      progress=interrupting)
        shards = sorted(tmp_path.glob("partial/*/scalar-*.npz"))
        shards[0].write_bytes(b"\x00garbage\x00" * 64)

        stats = SweepStats()
        result = run_sweep(grid, ALGOS, checkpoint_dir=tmp_path, resume=True,
                           batch_static=False, stats=stats)
        assert_tensors_equal(scalar_baseline, result)
        assert stats.cells_resumed == 6  # only the intact shard survived

    def test_resume_without_checkpoints_runs_cold(self, baseline, tmp_path):
        stats = SweepStats()
        result = run_sweep(chaos_grid(), ALGOS, checkpoint_dir=tmp_path,
                           resume=True, stats=stats)
        assert stats.cells_resumed == 0
        assert_tensors_equal(baseline, result)

    def test_resumed_shard_restores_quarantine_ledger(self, tmp_path,
                                                      monkeypatch):
        """NaNs inherited from a resumed static grid shard keep their
        ledger entries.

        The poisoned static pass quarantines UMR's (0, 0) cell and
        flushes the static unit's shard + ledger; the sweep then dies
        in the lockstep pass.  The resume trusts the shard, replays the
        ledger entry, and recomputes only the lockstep pass.
        """
        grid = chaos_grid()
        poison = _cell_seeds(grid, 0, 0)[0]
        real_cells = runner_mod.simulate_static_cells
        real_fast = runner_mod.simulate_fast
        real_dyn = runner_mod.simulate_dynamic_cells

        def batch(cells, mode="multiply", **kw):
            if any(c.seeds[0] == poison for c in cells):
                raise RuntimeError("chaos: poisoned cell")
            return real_cells(cells, mode=mode, **kw)

        def fast(platform, work, scheduler, model, **kw):
            if kw.get("seed") == poison:
                raise RuntimeError("chaos: poisoned cell")
            return real_fast(platform, work, scheduler, model, **kw)

        def interrupt(cells, mode="multiply", **kw):
            raise _Interrupt()

        monkeypatch.setattr(runner_mod, "simulate_static_cells", batch)
        monkeypatch.setattr(runner_mod, "simulate_fast", fast)
        monkeypatch.setattr(runner_mod, "simulate_dynamic_cells", interrupt)

        with pytest.raises(_Interrupt):
            run_sweep(grid, ALGOS, retry=FAST_RETRY, checkpoint_dir=tmp_path)
        monkeypatch.setattr(runner_mod, "simulate_static_cells", real_cells)
        monkeypatch.setattr(runner_mod, "simulate_fast", real_fast)
        monkeypatch.setattr(runner_mod, "simulate_dynamic_cells", real_dyn)

        stats = SweepStats()
        ledger = FailureLedger()
        result = run_sweep(grid, ALGOS, checkpoint_dir=tmp_path, resume=True,
                           stats=stats, failures=ledger)
        assert np.isnan(result.makespans["UMR"][0, 0]).all()
        assert [(e.algorithm, e.platform_index, e.error_index)
                for e in ledger] == [("UMR", 0, 0)]
        (entry,) = ledger.entries
        assert entry.engine == "static-batch"
        assert entry.fallback_engine == "scalar"
        # The whole static grid came back from the shard: 4 platforms ×
        # 2 errors × 1 static algorithm.
        assert stats.cells_resumed == 8
        # The completed sweep persists the ledger next to the cache files.
        (ledger_file,) = tmp_path.glob("failures-sweep-*.json")
        assert len(FailureLedger.from_json(ledger_file.read_text())) == 1

    @pytest.mark.parametrize("fault", ["none", "crash:p=0.5,tmax=100"])
    def test_batch_sweep_resumes_at_unit_granularity(self, fault, tmp_path,
                                                     monkeypatch):
        """A batch-routed sweep interrupted at its first progress call —
        right after the static unit's shard lands — resumes that unit
        from its shard and recomputes only the lockstep unit."""
        grid = chaos_grid().restrict(fault=fault)
        cold = run_sweep(grid, ALGOS)

        def interrupting(done, total):
            raise _Interrupt()

        with pytest.raises(_Interrupt):
            run_sweep(grid, ALGOS, checkpoint_dir=tmp_path,
                      progress=interrupting)

        def static_must_not_run(*args, **kwargs):
            raise AssertionError("the static unit was recomputed")

        monkeypatch.setattr(runner_mod, "simulate_static_cells",
                            static_must_not_run)
        stats = SweepStats()
        result = run_sweep(grid, ALGOS, checkpoint_dir=tmp_path, resume=True,
                           stats=stats)
        assert_tensors_equal(cold, result)
        # |static names| × P × E = 1 (UMR) × 4 × 2.
        assert stats.cells_resumed == 1 * 4 * 2

    @pytest.mark.parametrize("first_batch", [False, True])
    def test_routing_swap_trusts_no_shard(self, first_batch, baseline,
                                          scalar_baseline, tmp_path):
        """A checkpoint written under one routing is never trusted for
        the other: every unit is recomputed, bit for bit."""
        grid = chaos_grid()

        def interrupting(done, total):
            if done >= 2 or first_batch:
                raise _Interrupt()

        with pytest.raises(_Interrupt):
            run_sweep(grid, ALGOS, checkpoint_dir=tmp_path,
                      batch_static=first_batch, progress=interrupting)
        assert list(tmp_path.glob("partial/*/*.npz"))

        stats = SweepStats()
        result = run_sweep(grid, ALGOS, checkpoint_dir=tmp_path, resume=True,
                           batch_static=not first_batch, stats=stats)
        assert stats.cells_resumed == 0
        assert_tensors_equal(scalar_baseline if first_batch else baseline,
                             result)

    def test_shard_holding_other_names_is_ignored(self, baseline, tmp_path):
        """A shard under a unit's name is trusted only for the names it
        holds: one written for other algorithms is recomputed over."""
        grid = chaos_grid()
        store = CheckpointStore(
            tmp_path, f"sweep-{grid.name}-{sweep_key(grid, ALGOS)}"
        )
        store.save("static-batch-00000-00004", names=np.array(["MI-2"]),
                   block=np.zeros((1, 4, 2, 3)))
        stats = SweepStats()
        result = run_sweep(grid, ALGOS, checkpoint_dir=tmp_path, resume=True,
                           stats=stats)
        assert stats.cells_resumed == 0
        assert_tensors_equal(baseline, result)

    def test_sigkill_and_resume(self, scalar_baseline, tmp_path):
        """SIGKILL a sweep subprocess mid-run; resume recomputes only the
        unfinished shards and reproduces the tensor bitwise."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        script = f"""
import sys, time
sys.path.insert(0, {str(src)!r})
from repro.experiments.config import smoke_grid
from repro.experiments.runner import run_sweep

grid = smoke_grid().restrict(
    Ns=(10, 20), bandwidth_factors=(1.4, 1.8), cLats=(0.0,), nLats=(0.1,),
    errors=(0.0, 0.2), repetitions=3,
)

def slow(done, total):
    print(f"shard {{done}}/{{total}}", flush=True)
    time.sleep(0.5)

run_sweep(grid, {ALGOS!r}, checkpoint_dir={str(tmp_path)!r},
          batch_static=False, progress=slow)
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(list(tmp_path.glob("partial/*/scalar-*.npz"))) >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep subprocess finished before the kill")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint shard appeared within 60s")
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        survivors = list(tmp_path.glob("partial/*/scalar-*.npz"))
        assert survivors, "SIGKILL left no shards to resume from"

        stats = SweepStats()
        result = run_sweep(chaos_grid(), ALGOS, checkpoint_dir=tmp_path,
                           resume=True, batch_static=False, stats=stats)
        assert_tensors_equal(scalar_baseline, result)
        assert 0 < stats.cells_resumed
        assert stats.cells_resumed < 4 * 2 * len(ALGOS)


# ---------------------------------------------------------------------------
# Pool supervision (fork-only: monkeypatches must reach the workers)


@fork_only
class TestPoolSupervision:
    def test_broken_pool_restarts_once(self, scalar_baseline, tmp_path,
                                       monkeypatch):
        real = runner_mod.simulate_fast
        parent = os.getpid()
        flag = tmp_path / "died-once"

        def die_once(platform, work, scheduler, model, **kw):
            if os.getpid() != parent and not flag.exists():
                flag.touch()
                os._exit(1)
            return real(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", die_once)
        stats = SweepStats()
        result = run_sweep(chaos_grid(), ALGOS, n_jobs=2, stats=stats,
                           batch_static=False)
        assert_tensors_equal(scalar_baseline, result)
        assert stats.pool_restarts == 1
        assert stats.pool_degradations == 0

    def test_persistently_broken_pool_degrades_to_serial(self, scalar_baseline,
                                                         monkeypatch):
        real = runner_mod.simulate_fast
        parent = os.getpid()

        def die(platform, work, scheduler, model, **kw):
            if os.getpid() != parent:
                os._exit(1)
            return real(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", die)
        stats = SweepStats()
        result = run_sweep(chaos_grid(), ALGOS, n_jobs=2, stats=stats,
                           batch_static=False)
        assert_tensors_equal(scalar_baseline, result)
        assert stats.pool_restarts == 1
        assert stats.pool_degradations == 1

    def test_hung_shard_times_out_and_recomputes(self, scalar_baseline,
                                                 monkeypatch):
        real = runner_mod.simulate_fast
        parent = os.getpid()

        def hang(platform, work, scheduler, model, **kw):
            if os.getpid() != parent:
                time.sleep(60)
            return real(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", hang)
        stats = SweepStats()
        t0 = time.monotonic()
        result = run_sweep(
            chaos_grid(), ALGOS, n_jobs=2, stats=stats,
            batch_static=False,
            retry=RetryPolicy(backoff_base_s=0.0, cell_timeout_s=1.0),
        )
        assert time.monotonic() - t0 < 30.0
        assert_tensors_equal(scalar_baseline, result)
        assert stats.pool_timeouts == 1

    def test_pool_worker_quarantines_ship_back(self, monkeypatch):
        grid = chaos_grid()
        poison = _cell_seeds(grid, 1, 0)[0]
        real_fast = runner_mod.simulate_fast

        def fast(platform, work, scheduler, model, **kw):
            if kw.get("seed") == poison and scheduler.name == "UMR":
                raise RuntimeError("chaos: poisoned cell")
            return real_fast(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", fast)
        stats = SweepStats()
        ledger = FailureLedger()
        result = run_sweep(grid, ALGOS, n_jobs=2, retry=FAST_RETRY,
                           stats=stats, failures=ledger,
                           batch_static=False)
        assert stats.cells_quarantined == 1
        assert np.isnan(result.makespans["UMR"][1, 0]).all()
        (entry,) = ledger.entries
        assert (entry.algorithm, entry.platform_index) == ("UMR", 1)
        assert entry.engine == "scalar" and entry.fallback_engine is None


# ---------------------------------------------------------------------------
# Progress plumbing (satellite: eta_progress + monotonicity under retries)


class TestProgress:
    def test_progress_monotone_under_retries(self, monkeypatch):
        grid = chaos_grid()
        real = runner_mod.simulate_fast
        counts: dict = {}

        def flaky(platform, work, scheduler, model, **kw):
            key = (scheduler.name, kw.get("seed"))
            counts[key] = counts.get(key, 0) + 1
            if counts[key] <= 1:
                raise RuntimeError("chaos")
            return real(platform, work, scheduler, model, **kw)

        monkeypatch.setattr(runner_mod, "simulate_fast", flaky)
        calls = []
        # Each repetition seed fails once and a retry restarts the cell
        # at repetition 0, so a 3-repetition cell needs 4 attempts.
        run_sweep(grid, ALGOS, batch_static=False,
                  retry=RetryPolicy(max_attempts=4, backoff_base_s=0.0),
                  progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (4, 4)
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert all(t == 4 for _, t in calls)

    def test_batch_progress_waits_for_the_lockstep_unit(self, monkeypatch):
        """On a batch-routed grid no platform is reported done before the
        lockstep unit returns; a scalar grid reports one platform per
        unit."""
        grid = chaos_grid()
        real = runner_mod.simulate_dynamic_cells
        events = []

        def lockstep(cells, mode="multiply", **kw):
            out = real(cells, mode=mode, **kw)
            events.append("lockstep returned")
            return out

        monkeypatch.setattr(runner_mod, "simulate_dynamic_cells", lockstep)
        run_sweep(grid, ALGOS, progress=lambda d, t: events.append((d, t)))
        assert events.index((4, 4)) > events.index("lockstep returned")
        assert [e for e in events if e != "lockstep returned"] == [
            (0, 4), (4, 4),
        ]

        calls = []
        run_sweep(grid, ALGOS, batch_static=False,
                  progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_eta_progress_renders_and_terminates(self):
        stream = io.StringIO()
        callback = eta_progress(stream)
        callback(1, 2)
        callback(2, 2)
        out = stream.getvalue()
        assert "[1/2 platforms]" in out and "[2/2 platforms]" in out
        assert out.endswith("\n")  # the final report closes the line
