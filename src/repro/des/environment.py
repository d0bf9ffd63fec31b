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

__all__ = ["Environment"]


class Environment:
    """Execution environment for a discrete-event simulation.

    The clock starts at ``0.0``; :meth:`run` fires calendar entries until
    none remain.

    Examples
    --------
    >>> env = Environment()
    >>> seen = []
    >>> env.timeout(1.0).callbacks.append(lambda event: seen.append(env.now))
    >>> def proc(env):
    ...     yield env.timeout(2.5)
    ...     seen.append(env.now)
    >>> env.process(proc(env))
    >>> env.run()
    >>> seen
    [1.0, 2.5]
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> None:
        """Run ``generator`` as a process, starting at the current time.

        The generator yields pending or scheduled events and is resumed
        with each one's value when it fires.  Its start is an entry at
        ``(now, NORMAL)``; its end pushes nothing, and nothing can wait on
        a process.  Yielding an event that has already fired raises
        :class:`EventError`: its callbacks have run, so the process would
        never resume.
        """
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        send = generator.send

        def resume(event: Event) -> None:
            try:
                target = send(event._value)
            except StopIteration:
                return
            if not isinstance(target, Event):
                raise TypeError(
                    f"process {generator!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
            if target._state == Event.FIRED:
                raise EventError(f"process {generator!r} waits on fired {target!r}")
            target.callbacks.append(resume)

        start = Event(self)
        start.callbacks.append(resume)
        start.succeed()

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

    def run(self) -> None:
        """Fire calendar entries in order until none remain."""
        # This loop fires every event of a run.
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
