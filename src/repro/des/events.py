"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence.  It starts *pending*, may be
*scheduled* (given a firing time on the environment's calendar), and finally
*fires*, at which point all registered callbacks run exactly once.  Events
carry an optional ``value`` that is delivered to waiting processes as the
result of their ``yield``.
"""

from __future__ import annotations

import heapq
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

__all__ = ["Event", "Timeout", "AllOf", "AnyOf", "Interrupt", "EventError"]


#: Priority classes for simultaneous events.  URGENT is used internally by
#: resources so that releases are observed before same-time acquisitions.
URGENT = 0
NORMAL = 1


class EventError(RuntimeError):
    """Raised on illegal event state transitions (double-fire, re-schedule)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.des.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment this event belongs to.

    Notes
    -----
    ``succeed(value)`` schedules the event to fire *now* (at the current
    simulation time); ``fail(exc)`` does the same but delivers an exception
    to waiters.  An event can be succeeded or failed at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state")

    PENDING = 0
    SCHEDULED = 1
    FIRED = 2

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value: object = None
        self._exception: BaseException | None = None
        self._state = Event.PENDING

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled or has fired."""
        return self._state != Event.PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == Event.FIRED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (no exception)."""
        if not self.processed:
            raise EventError("event has not been processed yet")
        return self._exception is None

    @property
    def value(self) -> object:
        """The value delivered by the event (only valid once triggered)."""
        if self._state == Event.PENDING:
            raise EventError("value of a pending event is undefined")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Schedule this event to fire immediately with ``value``."""
        if self._state != Event.PENDING:
            raise EventError(f"{self!r} has already been triggered")
        self._value = value
        self._state = Event.SCHEDULED
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire immediately, delivering ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._state != Event.PENDING:
            raise EventError(f"{self!r} has already been triggered")
        self._exception = exception
        self._state = Event.SCHEDULED
        self.env.schedule(self)
        return self

    def _fire(self) -> None:
        """Run callbacks; invoked by the environment at the firing time."""
        if self._state == Event.FIRED:
            raise EventError(f"{self!r} fired twice")
        self._state = Event.FIRED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "scheduled", 2: "fired"}[self._state]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Born scheduled: the fields are set and the calendar entry pushed
        # here, as Environment.schedule would (the hottest event type).
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = Event.SCHEDULED
        self.delay = delay
        env._sequence += 1
        heapq.heappush(env._queue, (env._now + delay, NORMAL, env._sequence, self))


class _Condition(Event):
    """Base for events composed of several child events."""

    __slots__ = ("events", "_outstanding")

    def __init__(self, env: "Environment", events: typing.Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        self._outstanding = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._child_fired(event)
            else:
                event.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError

    def _collect_values(self) -> dict[Event, object]:
        return {e: e._value for e in self.events if e.processed and e._exception is None}


class AllOf(_Condition):
    """Fires when *all* child events have fired.

    The value is a dict mapping each child event to its value.  If any child
    fails, the condition fails with that child's exception.
    """

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._state != Event.PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Fires when *any* child event has fired.

    The value is a dict of the children that have fired so far (usually one).
    """

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._state != Event.PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._collect_values())
