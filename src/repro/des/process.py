"""Generator-based processes.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.des.events.Event`; the process is suspended until that event
fires and is then resumed with the event's value (or the event's exception is
thrown into it).  A process is itself an event that fires when the generator
returns, carrying the generator's return value — so processes can ``yield``
other processes to join them.
"""

from __future__ import annotations

import typing

from repro.des.events import Event, EventError, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulation process (and the event of its termination)."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: typing.Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Kick the process off at the current simulation time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state == Event.PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and waiting on an event (you cannot
        interrupt a process from within itself).
        """
        if not self.is_alive:
            raise EventError("cannot interrupt a terminated process")
        if self.env.active_process is self:
            raise EventError("a process cannot interrupt itself")
        # Detach from whatever the process was waiting on, then resume it
        # with the interrupt via an immediate event.
        target = self._target
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        wakeup = Event(self.env)
        wakeup._exception = Interrupt(cause)
        wakeup.callbacks.append(self._resume)
        wakeup._state = Event.SCHEDULED
        self.env.schedule(wakeup)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` fired."""
        env = self.env
        previous, env._active_process = env._active_process, self
        self._target = None
        try:
            if event._exception is None:
                result = self._generator.send(event._value)
            else:
                result = self._generator.throw(event._exception)
        except StopIteration as stop:
            env._active_process = previous
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process with a failure.
            env._active_process = previous
            self.fail(exc)
            return
        except BaseException:
            env._active_process = previous
            raise
        env._active_process = previous

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self._generator!r} yielded {result!r}; "
                "processes must yield Event instances"
            )
        if result.env is not env:
            raise ValueError("cannot wait on an event from another environment")
        if result._state == Event.FIRED:
            # Already fired: resume immediately (but via the calendar so the
            # kernel stays re-entrant-free and ordering stays deterministic).
            wakeup = Event(env)
            wakeup._value = result._value
            wakeup._exception = result._exception
            wakeup.callbacks.append(self._resume)
            wakeup._state = Event.SCHEDULED
            env.schedule(wakeup)
            self._target = wakeup
        else:
            result.callbacks.append(self._resume)
            self._target = result
