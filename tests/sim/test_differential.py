"""Cross-engine differential harness: the fast engine vs the DES engine.

The repo's load-bearing invariant is that :func:`repro.sim.simulate_fast`
and :func:`repro.sim.simulate_des` are *trajectory-identical* — same
floats, same record stream, same losses — for every scheduler, error model
and fault scenario.  The sweep fast paths and the analytic checks all rest
on it.  This module enforces it two ways:

* **curated cases** (promoted from the original ``test_engine_equivalence``
  suite): every scheduler on reference platforms, plus hand-picked corners
  (tLat, divide-mode errors, heterogeneity, zero-error ties, deterministic
  and degenerate faults);
* **a seeded randomized harness**: ``N_RANDOM_CONFIGS`` configurations of
  (platform, scheduler, error, fault) drawn from a fixed root seed, each
  asserting bit-for-bit equality.  Equality is *exact* in every case —
  including under faults — because both engines consume the same
  pre-sampled :class:`~repro.errors.faults.FaultSchedule` through the same
  pure arithmetic.

The oracle is the **canonical event stream** (:mod:`repro.obs`): both
engines run under a :class:`~repro.obs.Tracer` and their canonically
ordered streams are compared event by event.  On mismatch the failure
message names the *first divergent event* — engine, event kind,
timestamp, worker, and chunk — instead of a bare float inequality, and
(when ``REPRO_DIFF_ARTIFACTS`` names a directory) both full streams are
dumped there as JSONL for offline diffing.  Record/makespan equality is
kept as a backstop for anything the stream does not carry (arrival
times, loss bookkeeping).
"""

import math
import os
import pathlib

import numpy as np
import pytest

from repro.core import (
    RUMR,
    UMR,
    EqualSplit,
    Factoring,
    FixedSizeChunking,
    MultiInstallment,
    OneRound,
    WeightedFactoring,
)
from repro.errors import (
    FaultSchedule,
    FrozenFaults,
    NoError,
    NormalErrorModel,
    UniformErrorModel,
)
from repro.obs import Tracer, events_to_jsonl, first_divergence
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import simulate, validate_schedule

W = 1000.0

ALL_SCHEDULERS = [
    UMR(),
    RUMR(known_error=0.3),
    RUMR(known_error=0.3, out_of_order=False),
    RUMR(known_error=1.5),
    RUMR(phase1_fraction=0.7),
    Factoring(),
    WeightedFactoring(),
    FixedSizeChunking(known_error=0.3),
    MultiInstallment(1),
    MultiInstallment(3),
    OneRound(),
    EqualSplit(),
]


def _dump_divergence_artifacts(fast_events, des_events, divergence) -> str:
    """Write both streams + the report to ``$REPRO_DIFF_ARTIFACTS``.

    Returns a note naming the files (empty when the env var is unset), so
    CI can upload the directory as a build artifact on failure.
    """
    directory = os.environ.get("REPRO_DIFF_ARTIFACTS")
    if not directory:
        return ""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"divergence-{len(list(out.glob('divergence-*.txt')))}"
    (out / f"{stem}-fast.jsonl").write_text(events_to_jsonl(fast_events))
    (out / f"{stem}-des.jsonl").write_text(events_to_jsonl(des_events))
    (out / f"{stem}.txt").write_text(divergence.describe() + "\n")
    return f"\n(full streams dumped to {out}/{stem}-*.jsonl)"


def assert_traces_identical(fast_tracer, des_tracer):
    """The trace oracle: canonical streams must match event for event."""
    fast_events = fast_tracer.canonical()
    des_events = des_tracer.canonical()
    divergence = first_divergence(fast_events, des_events, labels=("fast", "des"))
    if divergence is not None:
        note = _dump_divergence_artifacts(fast_events, des_events, divergence)
        pytest.fail(divergence.describe() + note)


def assert_identical(
    platform, scheduler, error_model, seed, work=W, faults=None, topology=None
):
    """Run both engines and assert bit-for-bit identical trajectories.

    With a ``topology``, both engines route through the same interconnect
    shape; for ``sharedbw`` shapes the "fast" run is itself rerouted to
    the DES engine, so the comparison degenerates to the run-to-run
    self-consistency gate.
    """
    fast_tracer, des_tracer = Tracer(), Tracer()
    fast = simulate(
        platform, work, scheduler, error_model, seed=seed, engine="fast",
        faults=faults, tracer=fast_tracer, topology=topology,
    )
    des = simulate(
        platform, work, scheduler, error_model, seed=seed, engine="des",
        faults=faults, tracer=des_tracer, topology=topology,
    )
    assert_traces_identical(fast_tracer, des_tracer)
    # Backstop: fields the event stream does not carry (arrival, loss
    # bookkeeping) plus the headline numbers.
    assert fast.makespan == des.makespan
    assert fast.num_chunks == des.num_chunks
    assert fast.work_lost == des.work_lost
    for a, b in zip(fast.records, des.records):
        assert a.worker == b.worker
        assert a.size == b.size
        assert a.send_start == b.send_start
        assert a.send_end == b.send_end
        assert a.arrival == b.arrival
        assert a.comp_start == b.comp_start
        assert a.comp_end == b.comp_end
        assert a.lost == b.lost
        assert a.loss_time == b.loss_time
    validate_schedule(fast)
    validate_schedule(des)
    return fast


# ---------------------------------------------------------------------------
# Curated fault-free cases (promoted from test_engine_equivalence).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
def test_engines_identical_no_error(scheduler, paper_platform):
    assert_identical(paper_platform, scheduler, NoError(), None)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
def test_engines_identical_normal_error(scheduler, paper_platform):
    assert_identical(paper_platform, scheduler, NormalErrorModel(0.3), 42)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_engines_identical_across_seeds(seed, small_platform):
    assert_identical(small_platform, RUMR(known_error=0.4), NormalErrorModel(0.4), seed)


def test_engines_identical_uniform_error(paper_platform):
    assert_identical(paper_platform, Factoring(), UniformErrorModel(0.3), 7)


def test_engines_identical_heterogeneous(hetero_platform):
    for scheduler in (UMR(), Factoring(), RUMR(known_error=0.2)):
        assert_identical(hetero_platform, scheduler, NormalErrorModel(0.2), 3)


def test_engines_identical_with_tlat():
    p = PlatformSpec([WorkerSpec(S=1.0, B=10.0, cLat=0.1, nLat=0.1, tLat=0.4)] * 4)
    assert_identical(p, UMR(), NormalErrorModel(0.2), 11)
    assert_identical(p, Factoring(), NormalErrorModel(0.2), 11)


def test_engines_identical_divide_mode(paper_platform):
    assert_identical(
        paper_platform, RUMR(known_error=0.3), NormalErrorModel(0.3, mode="divide"), 13
    )


def test_zero_error_ties_are_systematic(paper_platform):
    # UMR's no-idle alignment makes round boundaries coincide exactly; this
    # is the case the DES engine's same-time flush exists for.  Out-of-order
    # RUMR consults idleness at those instants, so any divergence between
    # engines would show up here.
    sched = RUMR(known_error=0.3, out_of_order=True)
    assert_identical(paper_platform, sched, NoError(), None)


# ---------------------------------------------------------------------------
# Curated fault cases.
# ---------------------------------------------------------------------------

FAULT_SPECS = (
    "crash:worker=1,at=0",
    "crash:worker=1,at=25",
    "crash:p=0.5,tmax=120",
    "pause:p=0.6,tmax=120,dur=30",
    "slow:p=0.6,tmax=120,factor=2.5",
    "spike:p=0.25,delay=4",
)

FAULT_SCHEDULERS = [
    UMR(),
    RUMR(known_error=0.3),
    Factoring(),
    WeightedFactoring(),
    MultiInstallment(2),
    OneRound(),
    EqualSplit(),
]


@pytest.mark.parametrize("fault", FAULT_SPECS)
@pytest.mark.parametrize("scheduler", FAULT_SCHEDULERS, ids=lambda s: s.name)
def test_engines_identical_under_faults(scheduler, fault, small_platform):
    assert_identical(small_platform, scheduler, NormalErrorModel(0.2), 17, faults=fault)


@pytest.mark.parametrize("fault", FAULT_SPECS)
def test_engines_identical_under_faults_no_error(fault, small_platform):
    # Faults consume randomness even when errors do not, so the run seed
    # must be pinned (seed=None draws fresh entropy per engine call).
    assert_identical(small_platform, RUMR(known_error=0.3), NoError(), 23, faults=fault)


@pytest.mark.topology
@pytest.mark.parametrize("fault", FAULT_SPECS)
@pytest.mark.parametrize("scheduler", FAULT_SCHEDULERS, ids=lambda s: s.name)
def test_one_port_star_equals_plain_des(scheduler, fault, small_platform, monkeypatch):
    # ``star:ports=1,out=0`` is the plain star.  Forcing it through the
    # port machinery (a one-port pool, no returns) must realize the plain
    # DES trajectory bit for bit: records, losses and canonical trace.
    from repro.platform.topology import StarTopology

    def des(topology):
        tracer = Tracer()
        result = simulate(
            small_platform, W, scheduler, NormalErrorModel(0.2), seed=17,
            engine="des", faults=fault, tracer=tracer, topology=topology,
        )
        return result, tracer

    plain, plain_tracer = des(None)
    monkeypatch.setattr(StarTopology, "closed_form", property(lambda self: False))
    ported, ported_tracer = des("star:ports=1,out=0")
    assert_traces_identical(plain_tracer, ported_tracer)
    assert ported.records == plain.records
    assert ported.makespan == plain.makespan
    assert ported.work_lost == plain.work_lost
    assert ported.returns == ()


def test_engines_identical_sole_worker_crash():
    # Degenerate corner: the only worker dies mid-run; the remaining work
    # is unrecoverable and both engines must agree on the partial schedule.
    p = homogeneous_platform(1, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.1)
    result = assert_identical(
        p, Factoring(), NoError(), None, work=200.0, faults="crash:worker=0,at=50"
    )
    assert result.work_lost > 0.0
    assert result.delivered_work < 200.0


def test_engines_identical_faults_heterogeneous(hetero_platform):
    for scheduler in (Factoring(), WeightedFactoring(), RUMR(known_error=0.2)):
        assert_identical(
            hetero_platform,
            scheduler,
            NormalErrorModel(0.2),
            5,
            faults="crash:worker=2,at=40",
        )


def test_engines_identical_when_a_delay_vanishes_in_the_clock():
    # tLat > 0 but now + tLat == now in floats: the in-flight loss on the
    # dead worker 0 is observable at the second decision in both engines,
    # so both resend to worker 0 (a DES that waited on the same-instant
    # timeout saw the loss late and sent chunk 1 to worker 1).
    p = PlatformSpec(
        WorkerSpec(S=1.0, B=5.0, cLat=0.0, nLat=n_lat, tLat=t_lat)
        for n_lat, t_lat in ((0.0, 7.3e-242), (1.0, 0.0), (0.0, 0.0))
    )
    dead = FrozenFaults(
        FaultSchedule(
            crash_times=(0.0, math.inf, math.inf),
            pauses=((0.0, 0.0),) * 3,
            slowdowns=((0.0, 1.0),) * 3,
        )
    )
    result = assert_identical(
        p, FixedSizeChunking(known_error=0.0), NoError(), 0, work=20.0, faults=dead
    )
    assert result.records[1].worker == 0


# ---------------------------------------------------------------------------
# Batched fault configurations: the batch engines vs the DES engine.
#
# At error 0 the batch engines reproduce the scalar engine's fault
# semantics bit for bit, and the scalar engine is trajectory-identical to
# the DES engine — so the whole chain must agree exactly.  Selected in CI
# with ``pytest -k batched_fault``.
# ---------------------------------------------------------------------------

from repro.core import AdaptiveRUMR  # noqa: E402 — grouped with its tests
from repro.errors.faults import make_fault_model  # noqa: E402
from tests.cells import dynamic_cell, static_cell  # noqa: E402

BATCH_FAULT_SPECS = (
    "crash:worker=1,at=25",
    "crash:p=0.5,tmax=120",
    "pause:p=0.6,tmax=120,dur=30",
    "slow:p=0.6,tmax=120,factor=2.5",
    "spike:p=0.25,delay=4",
)

BATCH_SEEDS = tuple(range(40, 46))


def _des_makespans(platform, scheduler, fault, seeds, work=W):
    return np.array(
        [
            simulate(
                platform, work, scheduler, NoError(), seed=s, engine="des",
                faults=fault,
            ).makespan
            for s in seeds
        ]
    )


@pytest.mark.parametrize("fault", BATCH_FAULT_SPECS)
@pytest.mark.parametrize(
    "scheduler",
    [UMR(), MultiInstallment(2), OneRound(), EqualSplit()],
    ids=lambda s: s.name,
)
def test_batched_fault_static_grid_matches_des(scheduler, fault, small_platform):
    plan = scheduler.static_plan(small_platform, W)
    batch = static_cell(
        small_platform, plan, 0.0, seeds=BATCH_SEEDS,
        faults=make_fault_model(fault),
    )
    des = _des_makespans(small_platform, scheduler, fault, BATCH_SEEDS)
    assert np.array_equal(batch, des)


@pytest.mark.parametrize("fault", BATCH_FAULT_SPECS)
@pytest.mark.parametrize(
    "scheduler",
    [
        Factoring(),
        WeightedFactoring(),
        RUMR(known_error=0.3),
        FixedSizeChunking(known_error=0.3),
        AdaptiveRUMR(),
    ],
    ids=lambda s: s.name,
)
def test_batched_fault_lockstep_matches_des(scheduler, fault, small_platform):
    batch = dynamic_cell(
        small_platform, scheduler, W, 0.0, BATCH_SEEDS,
        faults=make_fault_model(fault),
    )
    des = _des_makespans(small_platform, scheduler, fault, BATCH_SEEDS)
    assert np.array_equal(batch, des)


# ---------------------------------------------------------------------------
# Randomized differential harness.
# ---------------------------------------------------------------------------

N_RANDOM_CONFIGS = 56

_SCHEDULER_POOL = (
    lambda err: UMR(),
    lambda err: RUMR(known_error=max(err, 0.1)),
    lambda err: RUMR(known_error=max(err, 0.1), out_of_order=False),
    lambda err: RUMR(phase1_fraction=0.7),
    lambda err: Factoring(),
    lambda err: WeightedFactoring(),
    lambda err: FixedSizeChunking(known_error=max(err, 0.1)),
    lambda err: MultiInstallment(2),
    lambda err: MultiInstallment(3),
    lambda err: OneRound(),
    lambda err: EqualSplit(),
)


def _random_fault(rng, n):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return "none"
    if kind == 1:
        return f"crash:worker={int(rng.integers(0, n))},at={float(rng.uniform(0, 120)):.6g}"
    if kind == 2:
        return f"crash:p={float(rng.uniform(0.2, 0.8)):.6g},tmax=120"
    if kind == 3:
        return f"pause:p=0.6,tmax=120,dur={float(rng.uniform(5, 60)):.6g}"
    if kind == 4:
        return f"slow:p=0.6,tmax=120,factor={float(rng.uniform(1.5, 4.0)):.6g}"
    return f"spike:p={float(rng.uniform(0.1, 0.4)):.6g},delay={float(rng.uniform(1, 8)):.6g}"


def _random_config(index):
    """One deterministic (platform, scheduler, error, fault, seed) draw."""
    rng = np.random.default_rng(np.random.SeedSequence(20030610, spawn_key=(index,)))
    n = int(rng.integers(2, 13))
    if rng.random() < 0.25:
        platform = PlatformSpec(
            [
                WorkerSpec(
                    S=float(rng.uniform(0.5, 2.0)),
                    B=float(rng.uniform(5.0, 40.0)),
                    cLat=float(rng.uniform(0.0, 0.6)),
                    nLat=float(rng.uniform(0.0, 0.6)),
                    tLat=float(rng.uniform(0.0, 0.3)),
                )
                for _ in range(n)
            ]
        )
    else:
        platform = homogeneous_platform(
            n,
            S=1.0,
            bandwidth_factor=float(rng.uniform(1.1, 2.5)),
            cLat=float(rng.uniform(0.0, 0.8)),
            nLat=float(rng.uniform(0.0, 0.8)),
            tLat=float(rng.uniform(0.0, 0.3)),
        )
    error = float(rng.choice([0.0, 0.1, 0.2, 0.3, 0.4]))
    scheduler = _SCHEDULER_POOL[int(rng.integers(0, len(_SCHEDULER_POOL)))](error)
    fault = _random_fault(rng, n)
    work = float(rng.choice([200.0, 500.0, 1000.0]))
    seed = int(rng.integers(0, 2**31))
    return platform, scheduler, error, fault, work, seed


def _config_id(index):
    _, scheduler, error, fault, work, _ = _random_config(index)
    return f"{index:02d}-{scheduler.name}-e{error:g}-{fault.split(':')[0]}"


@pytest.mark.parametrize("index", range(N_RANDOM_CONFIGS), ids=_config_id)
def test_differential_random_config(index):
    platform, scheduler, error, fault, work, seed = _random_config(index)
    model = NoError() if error == 0.0 else NormalErrorModel(error)
    assert_identical(platform, scheduler, model, seed, work=work, faults=fault)


# ---------------------------------------------------------------------------
# The oracle itself: a deliberate mismatch must be caught and reported as
# the first divergent event, naming engine, kind, timestamp, worker, chunk.
# ---------------------------------------------------------------------------


def test_deliberate_mismatch_reports_first_divergent_event(
    small_platform, tmp_path, monkeypatch
):
    # Perturb one engine's trajectory (different seed) and check the trace
    # oracle fails with a report naming the exact fork point.
    fast_tracer, des_tracer = Tracer(), Tracer()
    simulate(
        small_platform, W, RUMR(known_error=0.3), NormalErrorModel(0.3),
        seed=1, engine="fast", tracer=fast_tracer,
    )
    simulate(
        small_platform, W, RUMR(known_error=0.3), NormalErrorModel(0.3),
        seed=2, engine="des", tracer=des_tracer,
    )
    monkeypatch.setenv("REPRO_DIFF_ARTIFACTS", str(tmp_path))
    with pytest.raises(pytest.fail.Exception) as excinfo:
        assert_traces_identical(fast_tracer, des_tracer)
    message = str(excinfo.value)
    assert "diverge at canonical event #" in message
    assert "fast:" in message and "des:" in message
    assert "kind=" in message and "time=" in message
    assert "worker=" in message and "chunk=" in message
    # Both streams were dumped for offline diffing.
    assert (tmp_path / "divergence-0-fast.jsonl").exists()
    assert (tmp_path / "divergence-0-des.jsonl").exists()
    assert "divergence-0" in message


def test_deliberate_mismatch_names_the_differing_fields():
    fast_tracer, des_tracer = Tracer(), Tracer()
    fast_tracer.emit(0.0, "dispatch_start", 0, chunk=0, size=10.0)
    des_tracer.emit(0.5, "dispatch_start", 0, chunk=0, size=10.0)
    with pytest.raises(pytest.fail.Exception) as excinfo:
        assert_traces_identical(fast_tracer, des_tracer)
    message = str(excinfo.value)
    assert "differing fields: time" in message
    assert "time delta: 0.5" in message


def test_deliberate_length_mismatch_reports_short_stream():
    fast_tracer, des_tracer = Tracer(), Tracer()
    for tracer in (fast_tracer, des_tracer):
        tracer.emit(0.0, "dispatch_start", 0, chunk=0, size=10.0)
        tracer.emit(1.0, "dispatch_end", 0, chunk=0, size=10.0)
    fast_tracer.emit(2.0, "comp_start", 0, chunk=0, size=10.0)
    with pytest.raises(pytest.fail.Exception) as excinfo:
        assert_traces_identical(fast_tracer, des_tracer)
    message = str(excinfo.value)
    assert "diverge at canonical event #2" in message
    assert "des emitted fewer events" in message
    assert "<no event (stream ended)>" in message


# ---------------------------------------------------------------------------
# Cross-topology differential matrix: (topology × scheduler × error) cells.
#
# Star and chain/tree cells assert *exact* fast-vs-DES equality (the
# closed-form relay recurrences realize the same floats as the DES relay
# processes); sharedbw cells — DES-only by construction — assert run-to-run
# self-consistency through the same first_divergence oracle.  Selected in
# CI with ``pytest -m topology``.
# ---------------------------------------------------------------------------

from repro.obs import first_divergence as _first_divergence  # noqa: E402

TOPOLOGY_MATRIX_SPECS = (
    "star",
    "chain:relay=sf",
    "chain:relay=ct",
    "tree:fanout=2",
    "tree:fanout=3",
    "sharedbw:cap=9",
)

TOPOLOGY_MATRIX_SCHEDULERS = [
    UMR(),
    RUMR(known_error=0.3),
    Factoring(),
    WeightedFactoring(),
]


@pytest.mark.topology
@pytest.mark.parametrize("error", (0.0, 0.3))
@pytest.mark.parametrize(
    "scheduler", TOPOLOGY_MATRIX_SCHEDULERS, ids=lambda s: s.name
)
@pytest.mark.parametrize("topology", TOPOLOGY_MATRIX_SPECS)
def test_topology_matrix_engines_identical(topology, scheduler, error, small_platform):
    model = NoError() if error == 0.0 else NormalErrorModel(error)
    assert_identical(small_platform, scheduler, model, 31, topology=topology)


@pytest.mark.topology
@pytest.mark.parametrize(
    "topology",
    (
        "chain:relay=sf",
        "chain:relay=ct",
        "tree:fanout=2",
        "sharedbw:cap=9",
        "star:ports=2,out=0.3",
    ),
)
def test_topology_des_self_consistent(topology, small_platform):
    # Two identically seeded DES runs must realize identical canonical
    # streams — the first_divergence oracle names the fork point if not.
    streams = []
    for _ in range(2):
        tracer = Tracer()
        simulate(
            small_platform, W, Factoring(), NormalErrorModel(0.25), seed=19,
            engine="des", topology=topology, tracer=tracer,
        )
        streams.append(tracer.canonical())
    divergence = _first_divergence(streams[0], streams[1], labels=("run1", "run2"))
    if divergence is not None:
        note = _dump_divergence_artifacts(streams[0], streams[1], divergence)
        pytest.fail(divergence.describe() + note)


N_TOPOLOGY_RANDOM_CONFIGS = 16

_TOPOLOGY_POOL = (
    "star",
    "chain:relay=sf",
    "chain:relay=ct",
    "tree:fanout=2",
    "tree:fanout=3",
    "tree:fanout=4",
)


def _random_topology_config(index):
    """One deterministic (platform, topology, scheduler, error, fault) draw."""
    rng = np.random.default_rng(np.random.SeedSequence(20030611, spawn_key=(index,)))
    n = int(rng.integers(2, 10))
    platform = homogeneous_platform(
        n,
        S=1.0,
        bandwidth_factor=float(rng.uniform(1.1, 2.5)),
        cLat=float(rng.uniform(0.0, 0.6)),
        nLat=float(rng.uniform(0.0, 0.6)),
        tLat=float(rng.uniform(0.0, 0.3)),
    )
    topology = _TOPOLOGY_POOL[int(rng.integers(0, len(_TOPOLOGY_POOL)))]
    error = float(rng.choice([0.0, 0.2, 0.4]))
    scheduler = _SCHEDULER_POOL[int(rng.integers(0, len(_SCHEDULER_POOL)))](error)
    fault = _random_fault(rng, n)
    seed = int(rng.integers(0, 2**31))
    return platform, topology, scheduler, error, fault, seed


def _topology_config_id(index):
    _, topology, scheduler, error, fault, _ = _random_topology_config(index)
    kind = topology.split(":")[0]
    return f"{index:02d}-{kind}-{scheduler.name}-e{error:g}-{fault.split(':')[0]}"


@pytest.mark.topology
@pytest.mark.parametrize(
    "index", range(N_TOPOLOGY_RANDOM_CONFIGS), ids=_topology_config_id
)
def test_topology_differential_random_config(index):
    platform, topology, scheduler, error, fault, seed = _random_topology_config(index)
    model = NoError() if error == 0.0 else NormalErrorModel(error)
    assert_identical(
        platform, scheduler, model, seed, work=500.0, faults=fault, topology=topology
    )


def test_random_topology_configs_cover_all_shapes():
    # Guard the harness itself: the draw must exercise every relay shape
    # and both relay modes across the configured count.
    kinds = set()
    for i in range(N_TOPOLOGY_RANDOM_CONFIGS):
        _, topology, _, _, _, _ = _random_topology_config(i)
        kinds.add(topology.split(":")[0])
    assert kinds == {"star", "chain", "tree"}


def test_random_configs_cover_all_fault_kinds():
    # Guard the harness itself: the draw must exercise every fault kind and
    # both the error-free and noisy regimes across the configured count.
    kinds = set()
    errors = set()
    for i in range(N_RANDOM_CONFIGS):
        _, _, error, fault, _, _ = _random_config(i)
        kinds.add(fault.split(":")[0])
        errors.add(error == 0.0)
    assert kinds == {"none", "crash", "pause", "slow", "spike"}
    assert errors == {True, False}
