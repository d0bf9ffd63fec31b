"""DES event-order pin: the raw emission sequence of fixed runs, by hash.

The golden traces and the differential harness compare *canonical*
streams, which sort events and so forgive any change in the order the DES
engine emits them.  This pin does not: for each case below it hashes the
*raw* emission sequence of a recording :class:`~repro.obs.Tracer`, in the
order the engine's callbacks and processes emitted it, together with the
run's records, result returns and makespan.  Emission order follows the
kernel's firing order, so a change that reorders two calendar events at
the same ``(time, priority)`` -- or moves one -- changes a digest here even
when every timestamp stays put.

The cases cover what the DES realizes in different code paths: UMR and
MI-2 at error 0 (systematic completion ties at round boundaries, and on
a latency-free star chunks queued on their workers while completions tie
with decisions), RUMR and Factoring under error, relay chains (chunks
queued at relays) and trees, ported stars with result returns, the
shared-bandwidth link, crash, pause, slow and spike faults, and relay
hops over free links, which end at the instant they start.  A second
family pins a short hash of each of 400 random runs (see below).

To regenerate after an *intentional* change of event order::

    PYTHONPATH=src python -c "
    import json
    from tests.sim.test_des_order import GOLDEN, CASES, case_digest
    GOLDEN.write_text(json.dumps(
        {name: case_digest(name) for name in CASES}, indent=2, sort_keys=True
    ) + '\\n')
    "
"""

import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from repro.core import RUMR, UMR, Factoring, MultiInstallment
from repro.errors import NoError, NormalErrorModel, make_fault_model
from repro.obs import Tracer
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import simulate
from repro.sim.engine import simulate_des
from tests.sim.test_differential import _random_config, _random_topology_config

DATA = pathlib.Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_des_order.json"
GOLDEN_RANDOM = DATA / "golden_des_order_random.json"


def _hetero() -> PlatformSpec:
    return PlatformSpec([
        WorkerSpec(S=1.0, B=12.0, cLat=0.2, nLat=0.1, tLat=0.05),
        WorkerSpec(S=2.0, B=18.0, cLat=0.1, nLat=0.05, tLat=0.0),
        WorkerSpec(S=0.5, B=9.0, cLat=0.3, nLat=0.2, tLat=0.1),
        WorkerSpec(S=1.5, B=15.0, cLat=0.0, nLat=0.0, tLat=0.02),
        WorkerSpec(S=1.2, B=14.0, cLat=0.1, nLat=0.1, tLat=0.0),
    ])


def _star(n: int = 6) -> PlatformSpec:
    return homogeneous_platform(n, bandwidth_factor=1.6, cLat=0.2, nLat=0.1, tLat=0.05)


def _free_links() -> PlatformSpec:
    # Every other link costs nothing (B = inf, nLat = 0), so relay hops over
    # it end at the instant they start.
    return PlatformSpec([
        WorkerSpec(S=1.0, B=math.inf, cLat=0.0, nLat=0.0, tLat=0.0) if i % 2 == 0
        else WorkerSpec(S=2.0, B=10.0, cLat=0.1, nLat=0.05, tLat=0.0)
        for i in range(5)
    ])


def _bench_star() -> PlatformSpec:
    # A benchmark-grid star: no compute or pipe latency, so at error 0
    # completions land exactly on decision instants.
    return homogeneous_platform(8, bandwidth_factor=1.6, cLat=0.0, nLat=0.1, tLat=0.0)


#: name -> (platform, work, scheduler, error model, seed, faults, topology)
CASES = {
    "umr-error0": (_star, 600.0, UMR, NoError, 1, None, None),
    "umr-error0-hetero": (_hetero, 500.0, UMR, NoError, 1, None, None),
    "umr-error0-chain-sf": (_star, 400.0, UMR, NoError, 1, None, "chain:relay=sf"),
    "rumr-0.3": (_hetero, 500.0, lambda: RUMR(known_error=0.3),
                 lambda: NormalErrorModel(0.3), 2003, None, None),
    "factoring-0.3": (_hetero, 500.0, Factoring,
                      lambda: NormalErrorModel(0.3), 2003, None, None),
    "chain-sf": (_hetero, 400.0, lambda: RUMR(known_error=0.3),
                 lambda: NormalErrorModel(0.3), 7, None, "chain:relay=sf"),
    "chain-ct": (_hetero, 400.0, Factoring,
                 lambda: NormalErrorModel(0.3), 7, None, "chain:relay=ct"),
    "tree-fanout2": (_star, 400.0, lambda: RUMR(known_error=0.3),
                     lambda: NormalErrorModel(0.3), 11, None, "tree:fanout=2"),
    "ports2-out0.3": (_hetero, 400.0, lambda: RUMR(known_error=0.3),
                      lambda: NormalErrorModel(0.3), 13, None, "star:ports=2,out=0.3"),
    "ports2-out0.3-crash": (_hetero, 400.0, Factoring,
                            lambda: NormalErrorModel(0.3), 13,
                            "crash:p=0.6,tmax=60", "star:ports=2,out=0.3"),
    "sharedbw": (_hetero, 300.0, Factoring,
                 lambda: NormalErrorModel(0.2), 610, None, "sharedbw:cap=30"),
    "crash": (_hetero, 500.0, lambda: RUMR(known_error=0.3),
              lambda: NormalErrorModel(0.3), 2003, "crash:p=0.6,tmax=60", None),
    "crash-chain-sf": (_hetero, 400.0, lambda: RUMR(known_error=0.3),
                       lambda: NormalErrorModel(0.3), 2003,
                       "crash:p=0.6,tmax=60", "chain:relay=sf"),
    "slow": (_hetero, 500.0, Factoring, lambda: NormalErrorModel(0.3), 5,
             "slow:p=0.6,tmax=60,factor=2.5", None),
    "spike": (_star, 500.0, lambda: RUMR(known_error=0.3),
              lambda: NormalErrorModel(0.3), 5, "spike:p=0.5,delay=3", None),
    "umr-error0-bench-star": (_bench_star, 1000.0, UMR, NoError, 1, None, None),
    "mi2-error0-bench-star": (_bench_star, 1000.0, lambda: MultiInstallment(2),
                              NoError, 1, None, None),
    "tree-fanout4-error0": (lambda: _star(9), 600.0, UMR, NoError, 1, None,
                            "tree:fanout=4"),
    "chain-sf-factoring": (_hetero, 600.0, Factoring,
                           lambda: NormalErrorModel(0.2), 17, None, "chain:relay=sf"),
    "pause": (_hetero, 500.0, lambda: RUMR(known_error=0.3),
              lambda: NormalErrorModel(0.3), 23, "pause:p=0.6,tmax=60,dur=20", None),
    "ports2-out0.3-error0": (_star, 400.0, UMR, NoError, 1, None,
                             "star:ports=2,out=0.3"),
    "chain-sf-free-links": (_free_links, 100.0, Factoring,
                            lambda: NormalErrorModel(0.3), 3, None, "chain:relay=sf"),
    "tree-fanout2-free-links": (_free_links, 100.0, lambda: RUMR(known_error=0.3),
                                NoError, 3, None, "tree:fanout=2"),
}


def _update(h, *values) -> None:
    # float.hex is exact: two runs hash equal only if every bit agrees.
    h.update(
        "|".join(v.hex() if isinstance(v, float) else repr(v) for v in values).encode()
    )
    h.update(b"\n")


def case_digest(name: str) -> str:
    """Hash of the case's raw event sequence, records, returns, makespan."""
    platform, work, scheduler, model, seed, faults, topology = CASES[name]
    tracer = Tracer()
    result = simulate_des(
        platform(), work, scheduler(), model(), seed=seed,
        faults=make_fault_model(faults) if faults else None,
        tracer=tracer, topology=topology,
    )
    return _digest(tracer, result)


def _digest(tracer: Tracer, result) -> str:
    h = hashlib.sha256()
    for event in tracer.events():
        _update(h, *dataclasses.astuple(event))
    for record in result.records:
        _update(h, *(getattr(record, f.name) for f in dataclasses.fields(record)))
    for ret in result.returns:
        _update(h, *dataclasses.astuple(ret))
    _update(h, result.makespan, result.work_lost)
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_des_order_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_des_order_raw_stream_pinned(name, golden):
    assert case_digest(name) == golden[name], (
        f"DES raw event order, records or returns of case {name!r} changed"
    )


# ---------------------------------------------------------------------------
# Random runs: the same hash over many drawn configurations, so a reorder
# that only a rare calendar shape exposes still changes a digest.  Star
# runs (every fault kind) and chain/tree runs reuse the differential
# harness's draws; ported stars and sharedbw links, which only the DES
# realizes, are drawn here.
#
# To regenerate after an *intentional* change of event order::
#
#     PYTHONPATH=src python -c "
#     import json
#     from tests.sim.test_des_order import GOLDEN_RANDOM, RANDOM_RUNS, random_digest
#     GOLDEN_RANDOM.write_text(json.dumps(
#         {run: random_digest(run) for run in RANDOM_RUNS}, indent=2, sort_keys=True
#     ) + '\\n')
#     "
# ---------------------------------------------------------------------------

#: family -> number of drawn runs.
RANDOM_FAMILIES = {"star": 150, "topology": 120, "ported": 80, "sharedbw": 50}
RANDOM_RUNS = [f"{family}-{i:03d}" for family, count in RANDOM_FAMILIES.items()
               for i in range(count)]


def _random_run(run: str):
    """(platform, work, scheduler, error, fault, seed, topology) of a run."""
    family, index = run.rsplit("-", 1)
    index = int(index)
    if family == "topology":
        platform, topology, scheduler, error, fault, seed = _random_topology_config(index)
        return platform, 500.0, scheduler, error, fault, seed, topology
    platform, scheduler, error, fault, work, seed = _random_config(index)
    if family == "star":
        return platform, work, scheduler, error, fault, seed, None
    rng = np.random.default_rng(np.random.SeedSequence(20030612, spawn_key=(index,)))
    if family == "ported":
        ports = int(rng.integers(1, 4))
        out = float(rng.choice([0.0, 0.2, 0.5])) if ports > 1 else 0.3
        return platform, work, scheduler, error, fault, seed, f"star:ports={ports},out={out:g}"
    # sharedbw rejects fault injection; the capacity spans one to a few
    # workers' own link rates.
    cap = float(rng.uniform(1.0, 4.0)) * max(w.B for w in platform)
    return platform, work, scheduler, error, "none", seed, f"sharedbw:cap={cap:.6g}"


def random_digest(run: str) -> str:
    """Short hash of a random run's raw events, records, returns, makespan."""
    platform, work, scheduler, error, fault, seed, topology = _random_run(run)
    tracer = Tracer()
    result = simulate(
        platform, work, scheduler, NoError() if error == 0.0 else NormalErrorModel(error),
        seed=seed, engine="des", faults=fault, tracer=tracer, topology=topology,
    )
    return _digest(tracer, result)[:10]


@pytest.fixture(scope="module")
def golden_random() -> dict:
    return json.loads(GOLDEN_RANDOM.read_text())


def test_des_order_random_golden_covers_every_run(golden_random):
    assert sorted(golden_random) == sorted(RANDOM_RUNS)


@pytest.mark.parametrize("run", RANDOM_RUNS)
def test_des_order_random_run_pinned(run, golden_random):
    assert random_digest(run) == golden_random[run], (
        f"DES raw event order, records or returns of random run {run!r} changed"
    )
