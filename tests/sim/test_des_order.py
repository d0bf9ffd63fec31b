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

The cases cover what the DES realizes in different code paths: UMR at
error 0 (systematic completion ties at round boundaries), RUMR and
Factoring under error, relay chains and trees, a ported star with result
returns, the shared-bandwidth link, and crash, slow and spike faults.

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
import pathlib

import pytest

from repro.core import RUMR, UMR, Factoring
from repro.errors import NoError, NormalErrorModel, make_fault_model
from repro.obs import Tracer
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim.engine import simulate_des

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "golden_des_order.json"


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
