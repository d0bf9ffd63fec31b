"""Tests for the worker fault models (spec grammar, sampling, arithmetic)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import (
    NO_FAULT_SPEC,
    CrashFaults,
    FaultSchedule,
    LinkSpikeFaults,
    NoFaults,
    PauseFaults,
    SlowdownFaults,
    make_fault_model,
)
from repro.errors.faults import FaultPlaneCache
from repro.platform import homogeneous_platform


@pytest.fixture
def rng():
    return np.random.default_rng(2003)


@pytest.fixture
def platform():
    return homogeneous_platform(6, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.1)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("none", NoFaults),
            ("", NoFaults),
            ("  none  ", NoFaults),
            ("crash:p=0.2,tmax=400", CrashFaults),
            ("crash:worker=0,at=25", CrashFaults),
            ("pause:p=0.5,tmax=200,dur=60", PauseFaults),
            ("slow:p=0.5,tmax=200,factor=2.5", SlowdownFaults),
            ("spike:p=0.1,delay=5", LinkSpikeFaults),
        ],
    )
    def test_kinds(self, spec, cls):
        assert isinstance(make_fault_model(spec), cls)

    @pytest.mark.parametrize(
        "spec",
        [
            "crash:p=0.2,tmax=400",
            "crash:worker=0,at=25",
            "pause:p=0.5,tmax=200,dur=60",
            "slow:p=0.5,tmax=200,factor=2.5",
            "spike:p=0.1,delay=5",
            NO_FAULT_SPEC,
        ],
    )
    def test_spec_round_trips(self, spec):
        model = make_fault_model(spec)
        assert model.spec == spec.strip()
        again = make_fault_model(model.spec)
        assert again.spec == model.spec
        assert type(again) is type(model)

    def test_model_instance_passes_through(self):
        model = CrashFaults(prob=0.1, tmax=50.0)
        assert make_fault_model(model) is model

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no parameters
            "crash:p=0.2",  # missing tmax
            "crash:p=0.2,tmax=10,bogus=1",  # unknown parameter
            "crash:worker=0",  # at missing
            "crash:worker=0.5,at=3",  # non-integral worker
            "crash:p=2,tmax=10",  # p outside [0, 1]
            "pause:p=0.5,tmax=10,dur=-1",
            "slow:p=0.5,tmax=10,factor=0.5",  # factor < 1
            "spike:p=0.1,delay=-2",
            "meteor:p=1",  # unknown kind
            "crash:p=abc,tmax=10",  # non-numeric value
            "crash:p0.2,tmax=10",  # malformed k=v
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            make_fault_model(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            make_fault_model(42)

    @pytest.mark.parametrize(
        "grammar, spec",
        [
            ("policy", "partitioned:parts=inf"),
            ("policy", "interleaved:slices=1e400"),
            ("failure", "retry:attempts=inf"),
            ("fault", "crash:worker=inf,at=1"),
            ("arrival", "poisson:rate=1,jobs=inf,work=1"),
            ("arrival", "bursty:bursts=inf,size=2,gap=1,work=1"),
            ("fault", "crash:p=0.5,tmax=inf"),
            ("fault", "slow:p=0.5,tmax=10,factor=inf"),
            ("failure", "retry:backoff=nan"),
            ("arrival", "poisson:rate=inf,jobs=3,work=1"),
        ],
    )
    def test_non_finite_spec_numbers_rejected_at_parse(self, grammar, spec):
        with pytest.raises(ValueError, match="must be finite"):
            _spec_parser(grammar)(spec)

    @pytest.mark.parametrize(
        "grammar, spec",
        [
            ("fault", "crash:p=0.1,p=0.9,tmax=5"),
            ("arrival", "poisson:rate=0.1,jobs=3,work=10,rate=0.2"),
            ("policy", "partitioned:parts=2,parts=3"),
            ("failure", "retry:attempts=2,backoff=1,attempts=3"),
        ],
    )
    def test_repeated_spec_keys_rejected(self, grammar, spec):
        # The last value used to win silently (p=0.9 above).
        with pytest.raises(ValueError, match="duplicate"):
            _spec_parser(grammar)(spec)

    @pytest.mark.parametrize(
        "grammar, spec",
        [
            ("fault", "crash:p=0.1,tmax=5,"),
            ("fault", "crash:p=0.1,,tmax=5"),
            ("arrival", "poisson:rate=0.05,jobs=5,work=200,"),
            ("policy", "partitioned:parts=4,"),
            ("failure", "retry:attempts=3,"),
            ("topology", "chain:relay=sf,"),
        ],
    )
    def test_empty_spec_items_rejected(self, grammar, spec):
        # Every k=v grammar follows one rule: an empty body has no
        # parameters, and otherwise no item may be empty.
        with pytest.raises(ValueError, match="malformed"):
            _spec_parser(grammar)(spec)
        _spec_parser(grammar)(spec.replace(",,", ",").rstrip(","))


def _spec_parser(grammar):
    """The parser of one ``k=v`` spec grammar."""
    from repro.platform import make_topology
    from repro.sim import make_failure_policy, make_stream_policy
    from repro.workloads import make_arrival_process

    return {
        "policy": make_stream_policy,
        "failure": make_failure_policy,
        "fault": make_fault_model,
        "arrival": make_arrival_process,
        "topology": make_topology,
    }[grammar]


class TestSampling:
    def test_no_faults_schedule_is_clear(self, platform, rng):
        schedule = NoFaults().sample(platform, rng)
        assert not schedule.any_faults
        assert schedule.num_workers == platform.N
        assert all(t == math.inf for t in schedule.crash_times)

    def test_sampling_is_deterministic_in_seed(self, platform):
        model = make_fault_model("crash:p=0.5,tmax=100")
        a = model.sample(platform, np.random.default_rng(7))
        b = model.sample(platform, np.random.default_rng(7))
        assert a == b

    def test_deterministic_crash_ignores_rng(self, platform):
        model = make_fault_model("crash:worker=2,at=30")
        a = model.sample(platform, np.random.default_rng(1))
        b = model.sample(platform, np.random.default_rng(2))
        assert a == b
        assert a.crash_times[2] == 30.0
        assert sum(t != math.inf for t in a.crash_times) == 1

    def test_deterministic_crash_out_of_range(self, platform, rng):
        with pytest.raises(ValueError):
            make_fault_model("crash:worker=99,at=5").sample(platform, rng)

    def test_crash_onsets_within_horizon(self, platform, rng):
        schedule = CrashFaults(prob=1.0, tmax=50.0, spare_one=False).sample(
            platform, rng
        )
        assert all(0.0 <= t <= 50.0 for t in schedule.crash_times)

    def test_spare_one_keeps_a_survivor(self, platform, rng):
        schedule = CrashFaults(prob=1.0, tmax=50.0).sample(platform, rng)
        assert sum(t == math.inf for t in schedule.crash_times) == 1
        # The spared worker is the latest-crashing one: every realized
        # crash is earlier than the draw that was cleared.
        cleared = CrashFaults(prob=1.0, tmax=50.0, spare_one=False).sample(
            platform, np.random.default_rng(2003)
        )
        spared = schedule.crash_times.index(math.inf)
        assert cleared.crash_times[spared] == max(cleared.crash_times)

    def test_pause_and_slowdown_populate_their_axis(self, platform, rng):
        p = PauseFaults(prob=1.0, tmax=10.0, duration=5.0).sample(platform, rng)
        assert all(d == 5.0 for _, d in p.pauses)
        assert all(t == math.inf for t in p.crash_times)
        s = SlowdownFaults(prob=1.0, tmax=10.0, factor=2.0).sample(platform, rng)
        assert all(f == 2.0 for _, f in s.slowdowns)

    @pytest.mark.parametrize(
        "model",
        [
            PauseFaults(prob=1, tmax=10, duration=60),
            SlowdownFaults(prob=1, tmax=10, factor=2),
            LinkSpikeFaults(prob=1, delay=5),
        ],
        ids=["pause", "slow", "spike"],
    )
    def test_int_parameters_become_floats(self, model, platform, rng):
        # A model built in code with ints must realize the same float
        # schedule as its spec-parsed twin, as the batch planes do.
        assert all(
            type(getattr(model, f.name)) is float for f in dataclasses.fields(model)
        )
        schedule = model.sample(platform, rng)
        values = [
            *schedule.crash_times, *(v for pair in schedule.pauses for v in pair),
            *(v for pair in schedule.slowdowns for v in pair),
            schedule.spike_prob, schedule.spike_delay,
        ]
        assert all(type(v) is float for v in values)
        assert model == make_fault_model(model.spec)
        assert model.spec == make_fault_model(model.spec).spec

    def test_spike_schedule_has_no_per_worker_faults(self, platform, rng):
        schedule = LinkSpikeFaults(prob=0.3, delay=4.0).sample(platform, rng)
        assert schedule.any_faults
        assert schedule.spike_prob == 0.3
        assert all(t == math.inf for t in schedule.crash_times)

    def test_zero_probability_yields_clear_schedule(self, platform, rng):
        for spec in ("crash:p=0,tmax=10", "pause:p=0,tmax=10,dur=5",
                     "slow:p=0,tmax=10,factor=2"):
            assert not make_fault_model(spec).sample(platform, rng).any_faults


class TestComputeDuration:
    def _schedule(self, pause=(0.0, 0.0), slow=(0.0, 1.0)):
        return FaultSchedule(
            crash_times=(math.inf,),
            pauses=(pause,),
            slowdowns=(slow,),
        )

    def test_identity_without_faults(self):
        s = self._schedule()
        assert s.compute_duration(0, 3.0, 7.0) == 7.0

    def test_start_inside_pause_window(self):
        # Pause [10, 15): work starting at 12 waits until 15 then runs fully.
        s = self._schedule(pause=(10.0, 5.0))
        assert s.compute_duration(0, 12.0, 4.0) == (15.0 + 4.0) - 12.0

    def test_straddling_pause_window(self):
        # Starts before the window, would end inside it: delayed by its length.
        s = self._schedule(pause=(10.0, 5.0))
        assert s.compute_duration(0, 8.0, 4.0) == 4.0 + 5.0

    def test_finishing_before_pause_unaffected(self):
        s = self._schedule(pause=(10.0, 5.0))
        assert s.compute_duration(0, 2.0, 4.0) == 4.0

    def test_starting_after_pause_unaffected(self):
        s = self._schedule(pause=(10.0, 5.0))
        assert s.compute_duration(0, 15.0, 4.0) == 4.0

    def test_slowdown_after_onset(self):
        s = self._schedule(slow=(10.0, 3.0))
        assert s.compute_duration(0, 12.0, 4.0) == 12.0

    def test_slowdown_straddling_onset(self):
        # 2s done at nominal rate, remaining 2s stretched 3x.
        s = self._schedule(slow=(10.0, 3.0))
        assert s.compute_duration(0, 8.0, 4.0) == 2.0 + 2.0 * 3.0

    def test_finishing_before_onset_unaffected(self):
        s = self._schedule(slow=(10.0, 3.0))
        assert s.compute_duration(0, 2.0, 4.0) == 4.0

    def test_pause_then_slowdown_compose(self):
        # Pause shifts the computation into the slowdown regime.
        s = self._schedule(pause=(0.0, 10.0), slow=(5.0, 2.0))
        # start=0 inside pause -> duration = 10 + 4 = 14; start+14 > 5 and
        # start < 5, so done = 5, duration = 5 + 9 * 2 = 23.
        assert s.compute_duration(0, 0.0, 4.0) == 23.0


    def test_unfaulted_worker_skips_the_rules(self, monkeypatch):
        # Worker 1 has neither a pause nor a slowdown: its duration comes
        # back unchanged without evaluating either stretch rule.
        from repro.errors import faults

        s = FaultSchedule(
            crash_times=(math.inf, math.inf),
            pauses=((10.0, 5.0), (0.0, 0.0)),
            slowdowns=((10.0, 3.0), (0.0, 1.0)),
        )

        def boom(*args):
            raise AssertionError("stretch rule evaluated on an unfaulted worker")

        monkeypatch.setattr(faults, "pause_stretch", boom)
        monkeypatch.setattr(faults, "slow_stretch", boom)
        assert s.compute_duration(1, 12.0, 4.0) == 4.0


class TestLinkExtra:
    def test_no_draw_without_spikes(self):
        s = FaultSchedule(
            crash_times=(math.inf,), pauses=((0.0, 0.0),), slowdowns=((0.0, 1.0),)
        )
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert s.link_extra(rng) == 0.0
        assert rng.bit_generator.state == before  # stream untouched

    def test_one_draw_per_call_spike_or_not(self):
        s = dataclasses.replace(
            FaultSchedule(
                crash_times=(math.inf,), pauses=((0.0, 0.0),), slowdowns=((0.0, 1.0),)
            ),
            spike_prob=0.5,
            spike_delay=3.0,
        )
        rng = np.random.default_rng(5)
        draws = [s.link_extra(rng) for _ in range(200)]
        assert set(draws) == {0.0, 3.0}
        reference = np.random.default_rng(5)
        expected = [
            3.0 if reference.random() < 0.5 else 0.0 for _ in range(200)
        ]
        assert draws == expected

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(
                crash_times=(math.inf,), pauses=(), slowdowns=((0.0, 1.0),)
            )
        with pytest.raises(ValueError):
            FaultSchedule(
                crash_times=(math.inf,),
                pauses=((0.0, 0.0),),
                slowdowns=((0.0, 1.0),),
                spike_prob=1.5,
            )


class TestFaultPlaneCache:
    """Planes realized once per sweep and shared by the batch passes."""

    SEEDS = (11, 12, 13, 14)

    def test_batched_fault_plane_equals_fresh_sample(self, platform):
        model = make_fault_model("crash:p=0.5,tmax=50")
        cache = FaultPlaneCache()
        fresh = model.sample_batch(platform, self.SEEDS)
        shared = cache.realize(model, platform, self.SEEDS)
        for field in ("crash_time", "pause_start", "pause_len", "slow_start",
                      "slow_factor", "spike_prob", "spike_delay", "fault_row"):
            assert np.array_equal(getattr(fresh, field), getattr(shared, field))

    def test_batched_fault_plane_sampled_once_and_read_only(
        self, platform, monkeypatch
    ):
        model = make_fault_model("crash:p=0.5,tmax=50")
        calls = []
        original = CrashFaults.sample_batch

        def counting(self, platform, seeds):
            calls.append(tuple(seeds))
            return original(self, platform, seeds)

        monkeypatch.setattr(CrashFaults, "sample_batch", counting)
        cache = FaultPlaneCache()
        first = cache.realize(model, platform, self.SEEDS)
        # An equal model, an equal platform and the same seeds hit the
        # cache; other seeds do not.
        cache.realize(
            make_fault_model("crash:p=0.5,tmax=50"),
            homogeneous_platform(6, S=1.0, bandwidth_factor=1.5, cLat=0.1, nLat=0.1),
            list(self.SEEDS),
        )
        cache.realize(model, platform, self.SEEDS[:2])
        assert calls == [self.SEEDS, self.SEEDS[:2]]
        with pytest.raises(ValueError):
            first.crash_time[0, 0] = 0.0

    @pytest.mark.parametrize(
        "spec", ["crash:p=0.5,tmax=50", "slow:p=0.5,tmax=50,factor=2",
                 "spike:p=0.25,delay=4"]
    )
    def test_batched_fault_planes_from_expected_seeds(self, platform, spec, monkeypatch):
        # Declared seeds are hashed in one pass for every plane to come;
        # the planes, spike streams included, equal fresh samples.
        from repro.errors import rng

        model = make_fault_model(spec)
        cells = [self.SEEDS, (21, 22), (11, 31)]
        fresh = [model.sample_batch(platform, seeds) for seeds in cells]
        passes = []
        original = rng.seed_states
        monkeypatch.setattr(
            rng, "seed_states", lambda *a: passes.append(a) or original(*a)
        )
        cache = FaultPlaneCache()
        cache.expect([s for seeds in cells for s in seeds])
        planes = [cache.realize(model, platform, seeds) for seeds in cells]
        assert len(passes) == 1
        for got, want in zip(planes, fresh):
            for field in ("crash_time", "pause_start", "pause_len", "slow_start",
                          "slow_factor", "spike_prob", "spike_delay", "fault_row"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert [g is None for g in got.rngs] == [g is None for g in want.rngs]
            for a, b in zip(got.rngs, want.rngs):
                if a is not None:
                    assert np.array_equal(a.random(20), b.random(20))
        # An undeclared seed is hashed on its own, as without the table.
        late = cache.realize(model, platform, (11, 99))
        assert len(passes) == 2
        want = model.sample_batch(platform, (11, 99))
        assert np.array_equal(late.crash_time, want.crash_time)

    def test_batched_fault_spike_generators_are_private_copies(self, platform):
        model = make_fault_model("spike:p=0.25,delay=4")
        cache = FaultPlaneCache()
        first = cache.realize(model, platform, self.SEEDS)
        first_draws = [g.random(50) for g in first.rngs]
        # A second consumer starts where the schedule draws left the
        # stream, however far the first one has advanced its copies.
        second = cache.realize(model, platform, self.SEEDS)
        fresh = model.sample_batch(platform, self.SEEDS)
        for a, b, c in zip(first_draws, second.rngs, fresh.rngs):
            expected = c.random(50)
            assert np.array_equal(a, expected)
            assert np.array_equal(b.random(50), expected)
