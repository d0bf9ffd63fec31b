"""Queued resources: a finite-capacity FIFO server and a message store.

``Resource`` models identical servers granted in FIFO order (the master
ports of a star with ``ports`` or ``out``): a claim is an event that fires
when granted, and the holder must ``release`` it.  ``Store`` is an
unbounded FIFO of items with blocking ``get``.
"""

from __future__ import annotations

import collections
import typing

from repro.des.environment import URGENT
from repro.des.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Fires (with value ``self``) when the resource grants the claim.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A FIFO resource with ``capacity`` identical servers.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous grants (default 1: mutual exclusion).
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: collections.deque[Request] = collections.deque()

    def request(self) -> Request:
        """Claim a server; the returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted server, waking the next waiter (if any)."""
        try:
            self._users.remove(request)
        except KeyError:
            raise ValueError(f"{request!r} does not hold this resource") from None
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt._value = nxt
            nxt._state = Event.SCHEDULED
            # URGENT so a same-time release is observed before other events.
            self.env.schedule(nxt, priority=URGENT)


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available.  Waiters are served FIFO.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque[Event] = collections.deque()

    def put(self, item: object) -> None:
        """Deposit ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter._value = item
            getter._state = Event.SCHEDULED
            self.env.schedule(getter, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
