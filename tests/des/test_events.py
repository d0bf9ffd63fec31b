"""Tests for event primitives: firing, values, illegal transitions."""

import pytest

from repro.des import Environment, Event
from repro.des.events import EventError


def test_event_starts_pending():
    env = Environment()
    ev = Event(env)
    assert ev._state == Event.PENDING
    assert env._sequence == 0


def test_succeed_fires_callbacks_once_with_the_event():
    env = Environment()
    ev = Event(env)
    seen = []
    ev.callbacks.append(lambda event: seen.append((event is ev, event._value)))
    ev.succeed(7)
    assert ev._state == Event.SCHEDULED
    env.run()
    assert seen == [(True, 7)]
    assert ev._state == Event.FIRED


def test_succeed_twice_raises():
    env = Environment()
    ev = Event(env)
    ev.succeed(1)
    with pytest.raises(EventError):
        ev.succeed(2)


def test_event_scheduled_twice_raises_when_it_fires_again():
    env = Environment()
    ev = Event(env)
    ev.succeed()
    env.schedule(ev, 1.0)
    with pytest.raises(EventError, match="fired twice"):
        env.run()
