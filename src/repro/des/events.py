"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence.  It starts *pending*, is
*scheduled* (given a firing time on the environment's calendar), and
finally *fires*, at which point its callbacks run exactly once.  An event
carries a value, which a process waiting on it receives as the result of
its ``yield``.
"""

from __future__ import annotations

import heapq
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

__all__ = ["Event", "Timeout", "EventError"]


#: Priority classes for simultaneous events.  URGENT is used internally by
#: resources so that releases are observed before same-time acquisitions.
URGENT = 0
NORMAL = 1


class EventError(RuntimeError):
    """Raised on illegal event state transitions (double-fire, re-schedule)."""


class Event:
    """A one-shot occurrence: callbacks run once, when it fires.

    ``succeed(value)`` schedules the event to fire *now* (at the current
    simulation time); an event can be succeeded at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_state")

    PENDING = 0
    SCHEDULED = 1
    FIRED = 2

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value: object = None
        self._state = Event.PENDING

    def succeed(self, value: object = None) -> "Event":
        """Schedule this event to fire immediately with ``value``."""
        if self._state != Event.PENDING:
            raise EventError(f"{self!r} has already been triggered")
        self._value = value
        self._state = Event.SCHEDULED
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "scheduled", 2: "fired"}[self._state]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Born scheduled: the fields are set and the calendar entry pushed
        # here, as Environment.schedule would (the hottest event type).
        self.env = env
        self.callbacks = []
        self._value = value
        self._state = Event.SCHEDULED
        env._sequence += 1
        heapq.heappush(env._queue, (env._now + delay, NORMAL, env._sequence, self))
