"""Fault pin: the bits every fault kind samples and every fault rule returns.

``TestSampleBatchIdentity`` checks that a model's batched sampling equals
its scalar sampling, and the stack property checks that the batched
transforms equal the scalar rules.  Both compare the code with itself, so
a change made to a rule both engine families share passes them unseen.
This pin compares with recorded bits instead:

* **Samples.**  For every case of :data:`SAMPLE_CASES` on 1, 6 and 20
  workers and run seeds 0-49, the u64 bits of each realized schedule
  (crash times, pause starts and lengths, slowdown starts and factors,
  spike probability and delay), hashed per seed.  ``FaultModel.sample``
  on each seed's :func:`~repro.errors.faults.fault_stream` and one
  ``FaultModel.sample_batch`` over all 50 seeds must both give them, and
  every field of a scalar schedule must be a plain ``float``.  The
  record also holds which rows perturb at all and, for each spike
  generator a plane keeps, the bits of its next four draws.
* **Rules.**  ``FaultSchedule.compute_duration``, ``loss_time`` and
  ``link_extra``, and the ``FaultStack`` transforms that mirror them, on
  a grid that puts starts and ends exactly on pause, slowdown and crash
  boundaries, and on sampled schedules at random points.

To regenerate after an *intentional* semantics change::

    PYTHONPATH=src python -c "
    import json
    from tests.errors.test_fault_pin import GOLDEN, collect
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + '\\n')
    "
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from repro.errors import CrashFaults, FaultSchedule, make_fault_model
from repro.errors.faults import FaultStack, FrozenFaults, fault_stream
from repro.platform import homogeneous_platform

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "golden_fault_samples.json"

SAMPLE_CASES = {
    "crash-p0.3": lambda: CrashFaults(prob=0.3, tmax=100.0),
    "crash-p0.3-nospare": lambda: CrashFaults(prob=0.3, tmax=100.0, spare_one=False),
    "crash-p1": lambda: CrashFaults(prob=1.0, tmax=100.0),
    "crash-p1-nospare": lambda: CrashFaults(prob=1.0, tmax=100.0, spare_one=False),
    "crash-det": lambda: make_fault_model("crash:worker=0,at=25"),
    "pause": lambda: make_fault_model("pause:p=0.5,tmax=200,dur=60"),
    "pause-dur0": lambda: make_fault_model("pause:p=0.5,tmax=200,dur=0"),
    "slow": lambda: make_fault_model("slow:p=0.5,tmax=200,factor=2.5"),
    "slow-factor1": lambda: make_fault_model("slow:p=0.5,tmax=200,factor=1"),
    "spike": lambda: make_fault_model("spike:p=0.1,delay=5"),
    "spike-p0": lambda: make_fault_model("spike:p=0,delay=5"),
    "none": lambda: make_fault_model("none"),
}
WORKERS = (1, 6, 20)
SEEDS = tuple(range(50))

#: Boundary grid: a pause window [10, 15), slowdown onsets at 10 and 12,
#: crashes at 0, 10 and 20.  Starts and durations land on every edge
#: (start == 10, start + dur == 10, start == 15, end == crash).
GRID_SCHEDULE = FaultSchedule(
    crash_times=(10.0, math.inf, 20.0, 0.0),
    pauses=((10.0, 5.0), (10.0, 0.0), (10.0, 5.0), (0.0, 0.0)),
    slowdowns=((0.0, 1.0), (10.0, 2.5), (12.0, 3.0), (10.0, 1.0)),
    spike_prob=0.3,
    spike_delay=2.5,
)
GRID_STARTS = (0.0, 2.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0)
GRID_DURS = (0.0, 4.0, 7.5)
GRID_ARRIVALS = (0.0, 5.0, 10.0, 25.0)
GRID_ENDS = (0.0, 9.5, 10.0, 10.5, 20.0, 30.0)
SPIKE_SEEDS = (0, 1, 2, 3)
SPIKE_DRAWS = 16


def _hex(values) -> list[str]:
    bits = np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    return [f"{int(b):016x}" for b in bits]


def _digest(values) -> str:
    data = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _schedule_fields(s: FaultSchedule) -> list[float]:
    return [
        *s.crash_times,
        *(p for p, _ in s.pauses),
        *(d for _, d in s.pauses),
        *(t for t, _ in s.slowdowns),
        *(f for _, f in s.slowdowns),
        s.spike_prob,
        s.spike_delay,
    ]


def _plane_fields(plane, r: int) -> list[float]:
    return [
        *plane.crash_time[r],
        *plane.pause_start[r],
        *plane.pause_len[r],
        *plane.slow_start[r],
        *plane.slow_factor[r],
        plane.spike_prob[r],
        plane.spike_delay[r],
    ]


def _sample_record(case: str, n: int) -> dict:
    """The scalar path's record of one case (what the golden file holds)."""
    model = SAMPLE_CASES[case]()
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.5)
    bits, faults = [], []
    for seed in SEEDS:
        s = model.sample(platform, fault_stream(seed))
        fields = _schedule_fields(s)
        assert all(type(x) is float for x in fields), [type(x) for x in fields]
        bits.append(_digest(fields))
        faults.append("1" if s.any_faults else "0")
    plane = model.sample_batch(platform, list(SEEDS))
    spike_next = [
        None if g is None else _hex(g.random(4)) for g in plane.rngs
    ]
    return {"bits": bits, "faults": "".join(faults), "spike_next": spike_next}


def _batch_record(case: str, n: int) -> dict:
    """The same record read from one ``sample_batch`` plane."""
    model = SAMPLE_CASES[case]()
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.5)
    plane = model.sample_batch(platform, list(SEEDS))
    return {
        "bits": [_digest(_plane_fields(plane, r)) for r in range(len(SEEDS))],
        "faults": "".join("1" if f else "0" for f in plane.fault_row),
        "spike_next": [None if g is None else _hex(g.random(4)) for g in plane.rngs],
    }


def _grid_inputs():
    n = GRID_SCHEDULE.num_workers
    start = np.array([[s for s in GRID_STARTS for _ in GRID_DURS]] * n)
    dur = np.array([[d for _ in GRID_STARTS for d in GRID_DURS]] * n)
    arrival = np.array([[a for a in GRID_ARRIVALS for _ in GRID_ENDS]] * n)
    end = np.array([[e for _ in GRID_ARRIVALS for e in GRID_ENDS]] * n)
    return start, dur, arrival, end


def _scalar_rules(schedule: FaultSchedule, start, dur, arrival, end) -> dict:
    """Every rule output of ``schedule`` at the given (worker, point) blocks."""
    stretch = [
        [schedule.compute_duration(w, s, d) for s, d in zip(start[w], dur[w])]
        for w in range(schedule.num_workers)
    ]
    seen = [
        [schedule.loss_time(w, a, e) for a, e in zip(arrival[w], end[w])]
        for w in range(schedule.num_workers)
    ]
    lost = [[t is not None for t in row] for row in seen]
    when = [[e if t is None else t for t, e in zip(row, end[w])] for w, row in enumerate(seen)]
    return {"stretch": stretch, "lost": lost, "when": when}


def _stack_rules(schedule: FaultSchedule, start, dur, arrival, end) -> dict:
    """The ``FaultStack`` twins on one row holding ``schedule``.

    Points are read through flat indices (``idx = worker``) and, for the
    stretch, also as whole ``(1, n)`` blocks, one per point.
    """
    n = schedule.num_workers
    platform = homogeneous_platform(n, S=1.0, bandwidth_factor=1.5)
    stack = FaultStack(1, n)
    stack.put(slice(0, 1), FrozenFaults(schedule).sample_batch(platform, [0]))
    stack.seal()
    idx = np.repeat(np.arange(n), start.shape[1])
    stretch = stack.stretch(idx, start.reshape(-1), dur.reshape(-1)).reshape(start.shape)
    for k in range(start.shape[1]):
        block = stack.stretch(None, start[None, :, k], dur[None, :, k])
        assert _hex(block) == _hex(stretch[:, k])
    idx = np.repeat(np.arange(n), end.shape[1])
    lost, when = stack.loss_time(idx, arrival.reshape(-1), end.reshape(-1))
    assert np.array_equal(stack.lost(idx, end.reshape(-1)), lost)
    return {"stretch": stretch, "lost": lost.reshape(end.shape), "when": when.reshape(end.shape)}


def _sampled_rule_digest() -> str:
    """Rule outputs of sampled pause/slow/crash schedules at random points."""
    rng = np.random.default_rng(2003)
    out = []
    platform = homogeneous_platform(6, S=1.0, bandwidth_factor=1.5)
    for case in ("crash-p0.3", "pause", "slow"):
        model = SAMPLE_CASES[case]()
        for seed in SEEDS:
            s = model.sample(platform, fault_stream(seed))
            for w in range(s.num_workers):
                start, dur, arrival = rng.uniform(0.0, 250.0, 3)
                d = s.compute_duration(w, start, dur)
                seen = s.loss_time(w, arrival, start + d)
                out += [d, -1.0 if seen is None else seen]
    return _digest(out)


def collect() -> dict:
    """The whole golden record, from the scalar rules and ``sample``."""
    samples = {
        f"{case}/n={n}": _sample_record(case, n) for case in SAMPLE_CASES for n in WORKERS
    }
    rules = _scalar_rules(GRID_SCHEDULE, *_grid_inputs())
    spikes = {}
    for seed in SPIKE_SEEDS:
        rng = fault_stream(seed)
        spikes[str(seed)] = _hex([GRID_SCHEDULE.link_extra(rng) for _ in range(SPIKE_DRAWS)])
    return {
        "samples": samples,
        "rules": {
            "stretch": [_hex(row) for row in rules["stretch"]],
            "lost": ["".join("1" if x else "0" for x in row) for row in rules["lost"]],
            "when": [_hex(row) for row in rules["when"]],
            "spikes": spikes,
            "sampled": _sampled_rule_digest(),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n", WORKERS)
@pytest.mark.parametrize("case", list(SAMPLE_CASES))
def test_fault_pin_sample(golden, case, n):
    want = golden["samples"][f"{case}/n={n}"]
    assert _sample_record(case, n) == want


@pytest.mark.parametrize("n", WORKERS)
@pytest.mark.parametrize("case", list(SAMPLE_CASES))
def test_fault_pin_sample_batch(golden, case, n):
    want = golden["samples"][f"{case}/n={n}"]
    assert _batch_record(case, n) == want


@pytest.mark.parametrize("rules", [_scalar_rules, _stack_rules], ids=["schedule", "stack"])
def test_fault_pin_rules_on_boundaries(golden, rules):
    want = golden["rules"]
    got = rules(GRID_SCHEDULE, *_grid_inputs())
    assert [_hex(row) for row in got["stretch"]] == want["stretch"]
    assert ["".join("1" if x else "0" for x in row) for row in got["lost"]] == want["lost"]
    assert [_hex(row) for row in got["when"]] == want["when"]


def test_fault_pin_spike_draws(golden):
    want = golden["rules"]["spikes"]
    stack = FaultStack(len(SPIKE_SEEDS), GRID_SCHEDULE.num_workers)
    platform = homogeneous_platform(GRID_SCHEDULE.num_workers, S=1.0, bandwidth_factor=1.5)
    stack.put(slice(None), FrozenFaults(GRID_SCHEDULE).sample_batch(platform, list(SPIKE_SEEDS)))
    stack.seal()
    block = stack.spikes(None, SPIKE_DRAWS)
    for r, seed in enumerate(SPIKE_SEEDS):
        rng = fault_stream(seed)
        assert _hex([GRID_SCHEDULE.link_extra(rng) for _ in range(SPIKE_DRAWS)]) == want[str(seed)]
        assert _hex(block[r]) == want[str(seed)]


def test_fault_pin_rules_on_sampled_schedules(golden):
    assert _sampled_rule_digest() == golden["rules"]["sampled"]
