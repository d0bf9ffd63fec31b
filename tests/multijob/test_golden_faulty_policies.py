"""Golden regression: FCFS and interleaved service on a crashy stream.

``tests/data/golden_multijob_faulty_policies.json`` byte-pins, for
``fcfs`` and ``interleaved:slices=3`` under each failure policy, the
queueing metrics of the crashy scenario of ``test_golden_faulty.py``
together with every job's grant ledger (start, finish, attempts,
resubmissions, failure reason, the workers of each grant) and the
stream-fault event substream.  ``test_golden_faulty.py`` pins the
partitioned policy; this file pins the other two policies' grant steps:
the exclusive loop's admission checks, retry seeding and backoff, the
rotation's per-slice and per-retry seeds, and the failure-reason rule.

The per-job scheduler is UMR: it has no crash recovery, so a crash
mid-grant leaves the grant short and each failure policy serializes the
stream differently (a recovering scheduler like RUMR delivers every
grant in full here, and all three failure policies would coincide).

To regenerate after an *intentional* semantics change::

    PYTHONPATH=src python -c "
    import json
    from tests.multijob.test_golden_faulty_policies import GOLDEN_PATH, SCENARIO, CELLS, cell_key, run_cell
    payload = {'scenario': SCENARIO, 'cells': {cell_key(*c): run_cell(*c) for c in CELLS}}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + chr(10))
    "
"""

import itertools
import json
import pathlib

import pytest

from repro.experiments.queueing import metrics_to_json, queueing_metrics
from repro.platform import homogeneous_platform
from repro.sim import simulate_stream

pytestmark = [pytest.mark.multijob, pytest.mark.stream_faults]

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent
    / "data"
    / "golden_multijob_faulty_policies.json"
)

SCENARIO = {
    "N": 4,
    "bandwidth_factor": 1.5,
    "cLat": 0.2,
    "nLat": 0.1,
    "arrivals": "poisson:rate=0.02,jobs=6,work=150,work_cv=0.3",
    "scheduler": "UMR",
    "error": 0.2,
    "seed": 58,
    "engine": "fast",
    "faults": "crash:p=0.9,tmax=60",
}

POLICIES = ("fcfs", "interleaved:slices=3")
FAILURE_POLICIES = ("drop", "retry:attempts=2,backoff=40", "resubmit")
CELLS = tuple(itertools.product(POLICIES, FAILURE_POLICIES))


def cell_key(policy: str, failure_policy: str) -> str:
    return f"{policy}|{failure_policy}"


def run_cell(policy: str, failure_policy: str) -> dict:
    platform = homogeneous_platform(
        SCENARIO["N"], S=1.0, bandwidth_factor=SCENARIO["bandwidth_factor"],
        cLat=SCENARIO["cLat"], nLat=SCENARIO["nLat"],
    )
    stream = simulate_stream(
        platform,
        SCENARIO["arrivals"],
        scheduler=SCENARIO["scheduler"],
        error=SCENARIO["error"],
        seed=SCENARIO["seed"],
        policy=policy,
        engine=SCENARIO["engine"],
        faults=SCENARIO["faults"],
        failure_policy=failure_policy,
    )
    jobs = [
        {
            "job_id": rec.job.job_id,
            "start": rec.start,
            "finish": rec.finish,
            "attempts": rec.attempts,
            "resubmissions": rec.resubmissions,
            "failure": rec.failure,
            "slice_starts": list(rec.slice_starts),
            "slice_workers": [list(ws) for ws in rec.slice_workers],
            "delivered_work": rec.delivered_work,
        }
        for rec in stream.jobs
    ]
    events = [
        [e.time, e.kind, e.worker, e.chunk, e.size, e.detail]
        for e in stream.stream_events
    ]
    return {
        "metrics": json.loads(metrics_to_json(queueing_metrics(stream))),
        "jobs": jobs,
        "stream_events": events,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_describes_this_scenario(golden):
    assert golden["scenario"] == SCENARIO
    assert set(golden["cells"]) == {cell_key(*c) for c in CELLS}


@pytest.mark.parametrize("policy,failure_policy", CELLS)
def test_cell_reproduces_golden_byte_for_byte(golden, policy, failure_policy):
    actual = json.dumps(run_cell(policy, failure_policy), sort_keys=True)
    expected = json.dumps(
        golden["cells"][cell_key(policy, failure_policy)], sort_keys=True
    )
    assert actual == expected, (
        f"stream drift under {policy!r} with failure policy {failure_policy!r}"
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_failure_policies_pin_distinct_streams(golden, policy):
    # UMR's short grants make each failure policy serialize the stream
    # differently, so the three cells pin three different behaviours.
    metrics = {
        json.dumps(golden["cells"][cell_key(policy, f)]["metrics"], sort_keys=True)
        for f in FAILURE_POLICIES
    }
    assert len(metrics) == len(FAILURE_POLICIES)
    drop = golden["cells"][cell_key(policy, "drop")]
    assert any(j["failure"] == "delivery-shortfall" for j in drop["jobs"])
    resubmit = golden["cells"][cell_key(policy, "resubmit")]
    assert any(j["resubmissions"] > 0 for j in resubmit["jobs"])
