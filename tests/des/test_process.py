"""Tests for the generator driver behind ``Environment.process``."""

import pytest

from repro.des import Environment
from repro.des.events import EventError


def test_process_start_is_one_entry_and_its_end_none():
    env = Environment()

    def proc(env):
        yield env.timeout(2)

    assert env.process(proc(env)) is None
    assert env._sequence == 1  # the (now, NORMAL) start entry
    env.run()
    assert env.now == 2.0
    assert env._sequence == 2  # plus the timeout; the return pushes nothing


def test_process_resumes_with_each_event_value():
    env = Environment()
    got = []

    def proc(env):
        got.append((yield env.timeout(1, value="a")))
        got.append((yield env.timeout(1, value="b")))

    env.process(proc(env))
    env.run()
    assert got == ["a", "b"]


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_raises():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(TypeError):
        env.run()


def test_yielding_fired_event_raises():
    # Its callbacks have run: without the check the process would never
    # resume and the run would end quietly.
    env = Environment()
    done = env.timeout(0)
    env.run()

    def proc(env):
        yield done

    env.process(proc(env))
    with pytest.raises(EventError, match="fired"):
        env.run()


def test_exception_in_process_propagates_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 1.0
