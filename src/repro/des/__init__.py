"""A small process-oriented discrete-event simulation (DES) kernel.

This package is the reproduction's substitute for the SimGrid toolkit used by
the paper.  It provides the generic machinery — a virtual clock, an event
calendar, generator-based processes, and queued resources — on which the
master-worker platform simulator (:mod:`repro.sim`) is built.

The design follows the classic process-interaction style (as popularized by
SimPy): a *process* is a Python generator that yields :class:`Event` objects
and is resumed when the yielded event fires.  The kernel is deliberately
minimal but complete enough to express arbitrary master-worker protocols:

``Environment``
    owns the clock and the event calendar and runs the simulation;
    ``zero_delay`` runs a zero-delay step inline when nothing on the
    calendar can fire before it, and pushes it otherwise.
``Event`` / ``Timeout`` / ``AllOf`` / ``AnyOf``
    one-shot occurrences that processes can wait on.
``Process``
    a running generator; itself an event that fires when the generator
    returns (so processes can wait on each other).
``Resource``
    a FIFO server with finite capacity (used to model the master's
    serialized network interface card).
``Store``
    an unbounded FIFO message queue (used for the master's completion
    inbox).

Run traces are not the kernel's concern: the simulators emit typed
events into a :class:`repro.obs.Tracer`.

Determinism: event ordering is (time, priority, insertion order).  Two runs
of the same model with the same random seeds produce identical traces.
"""

from repro.des.environment import Environment
from repro.des.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.des.process import Process
from repro.des.resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
