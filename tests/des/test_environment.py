"""Tests for the DES environment: clock, calendar, run."""

import pytest

from repro.des import Environment, Timeout


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_zero_timeout_is_allowed():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_determinism_two_identical_runs():
    def build_and_run():
        env = Environment()
        log = []

        def worker(env, tag, delay):
            yield env.timeout(delay)
            log.append((env.now, tag))
            yield env.timeout(delay)
            log.append((env.now, tag))

        for tag, delay in [("x", 1.0), ("y", 1.0), ("z", 0.5)]:
            env.process(worker(env, tag, delay))
        env.run()
        return log

    assert build_and_run() == build_and_run()


def test_event_succeed_schedules_immediately():
    env = Environment()
    ev = env.event()
    results = []

    def proc(env):
        value = yield ev
        results.append((env.now, value))

    env.process(proc(env))
    ev.succeed("hello")
    env.run()
    assert results == [(0.0, "hello")]


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc(env):
        value = yield Timeout(env, 2.0, value="done")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["done"]


def test_nested_process_spawning():
    # A process can start others; each starts at the spawner's now.
    env = Environment()
    result = []

    def child(env, n):
        yield env.timeout(n)
        result.append((env.now, n))

    def parent(env):
        for n in (1, 2, 3):
            env.process(child(env, n))
            yield env.timeout(1)

    env.process(parent(env))
    env.run()
    assert result == [(1.0, 1), (3.0, 2), (5.0, 3)]
