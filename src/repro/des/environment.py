"""The simulation environment: virtual clock plus event calendar.

The calendar is a binary heap of ``(time, priority, sequence, event)``
entries.  The ``sequence`` counter makes ordering total and deterministic:
simultaneous events fire in the order they were scheduled (within the same
priority class), so repeated runs of an identical model are bit-identical.
"""

from __future__ import annotations

import heapq
import typing

# The priority classes live with the events (Timeout pushes itself); they
# stay importable from here.
from repro.des.events import NORMAL, URGENT, Event, EventError, Timeout
from repro.des.process import Process

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(2.5)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    2.5
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._active_process: Process | None = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put ``event`` on the calendar ``delay`` time units from now."""
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._sequence, event))

    def zero_delay(
        self, step: "typing.Callable[[Event | None], None] | None",
        priority: int = NORMAL,
    ) -> Event | None:
        """Run ``step`` at the current time: inline, or from a calendar entry.

        A zero-delay step -- a process start, a store hand-off -- is
        normally an event pushed at ``(now, priority)`` that calls
        ``step(event)`` when it fires.  Running ``step(None)`` inline
        instead is indistinguishable when nothing can happen between the
        push and the firing:

        (a) the calendar's head sorts after ``(now, priority)``: for
            ``NORMAL`` no entry at ``now``, for ``URGENT`` no ``URGENT``
            entry at ``now``.  Checked here; when it fails the step is
            pushed exactly as before.
        (b) the caller, after this call and before control returns to the
            kernel, pushes no entry that sorts before ``(now, priority)``,
            emits nothing observable and changes no state the step reads.
            If it calls this method again, every entry the step pushes at
            ``now`` and every call of this method it makes must sort
            before the second call, and so on down the steps of those
            calls, which may run inline too: pushed, the second call's
            entry would precede them; inline, the step takes them first.
            This is the caller's obligation.

        Every entry that stays on the calendar is then pushed in the same
        order at the same ``(time, priority)`` as if every step were
        pushed, so the firing order is unchanged; an inline step only
        saves its entry.

        ``step=None`` asks for the decision alone, for a process that is
        itself the step: nothing is called, and the process waits on the
        returned event, or goes on at once when ``None`` is returned.

        Returns the pushed event, or ``None`` when the step ran inline.
        """
        queue = self._queue
        if queue and queue[0][0] <= self._now and queue[0][1] <= priority:
            event = Event(self)
            if step is not None:
                event.callbacks.append(step)
            event._state = Event.SCHEDULED
            self.schedule(event, 0.0, priority)
            return event
        if step is not None:
            step(None)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the next event, advancing the clock to its time."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        event._fire()

    def run(self, until: "float | Event | None" = None) -> object:
        """Run until the calendar drains, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain.
            a number
                run until the clock reaches that time (events scheduled
                exactly at the deadline do fire).
            an :class:`Event`
                run until that event fires and return its value; raises
                ``RuntimeError`` if the calendar drains first.
        """
        if until is None:
            # step() and Event._fire, inlined: this loop fires every event
            # of a run.
            queue = self._queue
            pop = heapq.heappop
            fired = Event.FIRED
            while queue:
                self._now, _, _, event = pop(queue)
                if event._state == fired:
                    raise EventError(f"{event!r} fired twice")
                event._state = fired
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
            return None
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._queue:
                    raise RuntimeError(
                        "simulation ended before the awaited event fired"
                    )
                self.step()
            return target.value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"deadline {deadline} is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self._now = max(self._now, deadline) if not self._queue else deadline
        return None
