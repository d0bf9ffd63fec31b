"""Scheduler registry: names → factories.

The experiment harness and the CLI refer to algorithms by name.  Because
RUMR (and FSC) consume the error-magnitude estimate, factories take the
per-cell error value and may use or ignore it.
"""

from __future__ import annotations

import typing

from repro.core.adaptive import AdaptiveRUMR
from repro.core.base import Scheduler
from repro.core.factoring import Factoring
from repro.core.fsc import FixedSizeChunking
from repro.core.multi_installment import MultiInstallment
from repro.core.one_round import EqualSplit, OneRound
from repro.core.rumr import RUMR
from repro.core.umr import UMR
from repro.core.weighted_factoring import WeightedFactoring

__all__ = [
    "available_schedulers",
    "is_static_algorithm",
    "make_scheduler",
    "SchedulerFactory",
]

#: A factory mapping the cell's error magnitude to a configured scheduler.
SchedulerFactory = typing.Callable[[float], Scheduler]

_FACTORIES: dict[str, SchedulerFactory] = {
    "RUMR": lambda error: RUMR(known_error=error),
    "RUMR-plain": lambda error: RUMR(known_error=error, out_of_order=False),
    "RUMR_50": lambda error: RUMR(known_error=error, phase1_fraction=0.5),
    "RUMR_60": lambda error: RUMR(known_error=error, phase1_fraction=0.6),
    "RUMR_70": lambda error: RUMR(known_error=error, phase1_fraction=0.7),
    "RUMR_80": lambda error: RUMR(known_error=error, phase1_fraction=0.8),
    "RUMR_90": lambda error: RUMR(known_error=error, phase1_fraction=0.9),
    "UMR": lambda error: UMR(),
    "AdaptiveRUMR": lambda error: AdaptiveRUMR(),
    "MI-1": lambda error: MultiInstallment(1),
    "MI-2": lambda error: MultiInstallment(2),
    "MI-3": lambda error: MultiInstallment(3),
    "MI-4": lambda error: MultiInstallment(4),
    "Factoring": lambda error: Factoring(),
    "WeightedFactoring": lambda error: WeightedFactoring(),
    "FSC": lambda error: FixedSizeChunking(known_error=error),
    "OneRound": lambda error: OneRound(),
    "EqualSplit": lambda error: EqualSplit(),
}


def available_schedulers() -> list[str]:
    """All registered algorithm names."""
    return sorted(_FACTORIES)


def is_static_algorithm(name: str) -> bool:
    """Whether the named algorithm replays a fixed plan (is batchable).

    A static algorithm's dispatch sequence depends only on the platform and
    the workload — never on the error magnitude or on observed completions
    — so the sweep fast path can run it through the vectorized batch
    engine.  The answer is a property of the algorithm, not of any one
    error level: the registry factory is probed at ``error = 0``.
    """
    return make_scheduler(name, 0.0).is_static


def make_scheduler(name: str, error: float = 0.0) -> Scheduler:
    """Instantiate a registered scheduler for a given error magnitude."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    return factory(error)
