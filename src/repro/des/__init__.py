"""A small callback-driven discrete-event simulation (DES) kernel.

This package is the reproduction's substitute for the SimGrid toolkit used
by the paper.  It provides what the master-worker platform simulator
(:mod:`repro.sim.engine`) runs on: a virtual clock, an event calendar,
one-shot events whose callbacks run when they fire, a minimal generator
driver, and two queues.

``Environment``
    owns the clock and the event calendar and runs the simulation;
    ``zero_delay`` runs a zero-delay step inline when nothing on the
    calendar can fire before it, and pushes it otherwise; ``process``
    drives a generator that yields events and is resumed with each one's
    value when it fires.
``Event`` / ``Timeout``
    one-shot occurrences; callbacks (and waiting processes) run when
    they fire.
``Resource``
    a FIFO server with finite capacity (the master ports of a star with
    ``ports`` or ``out``).
``Store``
    an unbounded FIFO message queue (the master's completion inbox).

Run traces are not the kernel's concern: the simulators emit typed
events into a :class:`repro.obs.Tracer`.

Determinism: event ordering is (time, priority, insertion order).  Two runs
of the same model with the same random seeds produce identical traces.
"""

from repro.des.environment import Environment
from repro.des.events import Event, Timeout
from repro.des.resources import Request, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
