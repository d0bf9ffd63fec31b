"""Trace emission-order pin: the raw event sequence of fixed runs, by hash.

Golden traces, :func:`repro.obs.diff.first_divergence` and the batch-vs-
scalar trace tests compare *canonical* streams, which sort events and so
forgive a change in the order an engine emits them, or in which engine
emits them.  This pin does not: for each case it hashes the *raw* emission
sequence of recording :class:`~repro.obs.Tracer` objects, event by event in
the order the engine called :meth:`~repro.obs.Tracer.emit`, together with
each run's records or makespans.

The cases cover every engine path that lowers chunk timelines to events
without a kernel realizing them: the fast engine (UMR at error 0, RUMR and
Factoring under error, a store-and-forward chain's relay hops, crash faults
with their upfront crash events, losses and recovery decisions, link
spikes), the traced rows of a multi-cell static batch pass (padded rows
included) and the traced rows of a lockstep pass (a crash row included).
Fast-engine cases also hash :func:`~repro.obs.events.events_from_result`.
The DES's own order is pinned by ``tests/sim/test_des_order.py``.

To regenerate after an *intentional* change of event order::

    PYTHONPATH=src python -c "
    import json
    from tests.obs.test_emission_order import GOLDEN, CASES, case_digest
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

from repro.core import RUMR, UMR, Factoring, MultiInstallment
from repro.errors import NoError, NormalErrorModel, make_fault_model
from repro.obs import Tracer
from repro.obs.events import events_from_result
from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform
from repro.sim import simulate_fast
from repro.sim.batch import StaticCell, compile_static_plan, simulate_static_cells
from repro.sim.dynbatch import DynamicCell, simulate_dynamic_cells

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "golden_emission_order.json"


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


def _small() -> PlatformSpec:
    return homogeneous_platform(3, S=1.0, bandwidth_factor=1.2, cLat=0.1, nLat=0.2)


#: name -> (platform, work, scheduler, error model, seed, faults, topology)
FAST_CASES = {
    "fast-umr-error0": (_star, 600.0, UMR, NoError, 1, None, None),
    "fast-rumr-0.3": (_hetero, 500.0, lambda: RUMR(known_error=0.3),
                      lambda: NormalErrorModel(0.3), 2003, None, None),
    "fast-factoring-0.3": (_hetero, 500.0, Factoring,
                           lambda: NormalErrorModel(0.3), 2003, None, None),
    "fast-chain-sf": (_hetero, 400.0, lambda: RUMR(known_error=0.3),
                      lambda: NormalErrorModel(0.3), 7, None, "chain:relay=sf"),
    "fast-crash": (_hetero, 500.0, lambda: RUMR(known_error=0.3),
                   lambda: NormalErrorModel(0.3), 2003, "crash:p=0.6,tmax=60", None),
    "fast-spike": (_star, 500.0, lambda: RUMR(known_error=0.3),
                   lambda: NormalErrorModel(0.3), 5, "spike:p=0.5,delay=3", None),
}

CASES = sorted([*FAST_CASES, "static-pass", "lockstep-pass"])


def _update(h, *values) -> None:
    # float.hex is exact: two runs hash equal only if every bit agrees.
    h.update(
        "|".join(v.hex() if isinstance(v, float) else repr(v) for v in values).encode()
    )
    h.update(b"\n")


def _hash_events(h, events) -> None:
    for event in events:
        _update(h, *dataclasses.astuple(event))


def _fast_digest(h, name: str) -> None:
    platform, work, scheduler, model, seed, faults, topology = FAST_CASES[name]
    tracer = Tracer()
    result = simulate_fast(
        platform(), work, scheduler(), model(), seed=seed,
        faults=make_fault_model(faults) if faults else None,
        tracer=tracer, topology=topology,
    )
    _hash_events(h, tracer.events())
    for record in result.records:
        _update(h, *(getattr(record, f.name) for f in dataclasses.fields(record)))
    _update(h, result.makespan, result.work_lost)
    _hash_events(h, events_from_result(result))


def _static_digest(h) -> None:
    # Three plans of different lengths on platforms of different widths:
    # every row is padded to the longest plan and the widest platform.
    specs = [
        (_star(5), UMR(), 0.05, (3, 4), (True, False)),
        (_small(), MultiInstallment(1), 0.0, (0, 1, 2), (False, True, False)),
        (_star(5), MultiInstallment(3), 0.05, (5,), (True,)),
    ]
    cells, tracers = [], []
    for platform, scheduler, error, seeds, traced in specs:
        plan = scheduler.static_plan(platform, 500.0)
        cells.append(
            StaticCell(platform, compile_static_plan(platform, plan), error, seeds)
        )
        tracers.append([Tracer() if t else None for t in traced])
    spans = simulate_static_cells(cells, tracers=tracers)
    for cell_tracers, cell_spans in zip(tracers, spans):
        for tracer, span in zip(cell_tracers, cell_spans.tolist()):
            _update(h, span)
            if tracer is not None:
                _hash_events(h, tracer.events())


def _lockstep_digest(h) -> None:
    # A Factoring and a RUMR cell share one pass; the crash cell's rows
    # lose chunks and emit their crash events upfront.
    crash = make_fault_model("crash:p=0.6,tmax=60")
    cells = [
        DynamicCell(_hetero(), Factoring(), 500.0, 0.3, (2003, 2004, 2005)),
        DynamicCell(_hetero(), RUMR(known_error=0.3), 500.0, 0.3, (11, 12), crash),
        DynamicCell(_star(), Factoring(), 400.0, 0.2, (7, 8, 9, 10), crash),
    ]
    tracers = [
        [Tracer(), None, Tracer()],
        [Tracer(), Tracer()],
        [Tracer(), Tracer(), None, Tracer()],
    ]
    spans = simulate_dynamic_cells(cells, tracers=tracers)
    for cell_tracers, cell_spans in zip(tracers, spans):
        for tracer, span in zip(cell_tracers, cell_spans.tolist()):
            _update(h, span)
            if tracer is not None:
                _hash_events(h, tracer.events())


def case_digest(name: str) -> str:
    """Hash of the case's raw event sequences and its results."""
    h = hashlib.sha256()
    if name == "static-pass":
        _static_digest(h)
    elif name == "lockstep-pass":
        _lockstep_digest(h)
    else:
        _fast_digest(h, name)
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_emission_order_golden_covers_every_case(golden):
    assert sorted(golden) == CASES


@pytest.mark.parametrize("name", CASES)
def test_emission_order_raw_stream_pinned(name, golden):
    assert case_digest(name) == golden[name], (
        f"raw event order, records or makespans of case {name!r} changed"
    )
