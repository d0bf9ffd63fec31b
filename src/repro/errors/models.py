"""Multiplicative prediction-error models.

All models implement the same contract: :meth:`ErrorModel.perturb` maps a
*predicted* duration to an *effective* (actual) duration through a
multiplicative factor ``X`` with mean 1 and standard deviation ``error``
(the paper's §4.1 model), drawn independently per transfer and computation.

Two perturbation directions are supported:

* ``mode="multiply"`` (default): ``effective = predicted · X``.  Bounded
  perturbations; this is the only reading consistent with the paper's
  smooth 40-repetition single-configuration curves (Fig 5–7 resolve ~1%
  effects, impossible under the unbounded variant below).
* ``mode="divide"``: ``effective = predicted · (1/X)`` — the verbatim
  reading of §4.1 ("the ratio of predicted execution time to effective
  execution time is normally distributed").  Because ``X`` can come
  arbitrarily close to zero, effective times are unbounded above, and
  makespan averages over 40 repetitions are dominated by outliers.  Kept
  as an option; the experiment harness exposes it for sensitivity checks.

``X`` is truncated below at :data:`MIN_RATIO` (the paper truncates "to
avoid negative values"; a strictly positive floor additionally avoids
degenerate zero durations).  Truncation is by resampling, which preserves
the distribution shape above the floor.

Every engine, scalar or batch, consumes the normal model's factors as
defined here: raw ``Normal(1, error)`` draws filtered by ``x >=
min_ratio`` (:meth:`NormalErrorModel.ratios` draws a block of them), one
per transfer and one per computation, zero-cost ones included.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "MIN_RATIO",
    "ErrorModel",
    "NoError",
    "NormalErrorModel",
    "UniformErrorModel",
    "DriftingErrorModel",
    "FACTOR_STREAM_FORMAT",
    "check_magnitude",
    "check_model_options",
    "make_error_model",
]

#: Lower truncation bound for the predicted/effective ratio.
MIN_RATIO = 0.01

#: Names the factor sequence above; cached sweeps are keyed by it, so
#: results drawn under an older convention are never served.
FACTOR_STREAM_FORMAT = "filtered-normal/one-draw-per-duration/1"


def check_magnitude(magnitude: float) -> None:
    """Reject an error magnitude that is negative, NaN or infinite.

    A NaN magnitude would hang the normal model's resampling loop (no
    draw is ever accepted) and an infinite one the uniform bounds, so
    every entry point that takes a magnitude refuses them up front.
    """
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(f"error magnitude must be finite and >= 0, got {magnitude}")


def check_model_options(mode: str, min_ratio: float) -> None:
    """Reject an unknown perturbation mode or a floor outside ``(0, 1)``."""
    if mode not in ("multiply", "divide"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if not 0 < min_ratio < 1:
        raise ValueError(f"min_ratio must be in (0, 1), got {min_ratio}")


class ErrorModel:
    """Base class: a source of multiplicative prediction errors.

    Subclasses implement :meth:`ratio`, drawing the perturbation factor
    ``X`` (mean 1, standard deviation ``magnitude``).  ``perturb`` returns
    ``predicted · X`` or ``predicted · (1/X)`` depending on ``mode`` (see
    the module docstring), and draws one factor per call even when
    ``predicted`` is zero.  Dataclass subclasses inherit the validation
    of ``magnitude``, ``mode`` and ``min_ratio`` in ``__post_init__``.

    The ``magnitude`` attribute is the nominal error level (the paper's
    *error* parameter); schedulers such as RUMR read it when it is assumed
    known (§4.1 "whether error is a known quantity").
    """

    magnitude: float = 0.0
    min_ratio: float = MIN_RATIO
    mode: str = "multiply"

    def __post_init__(self) -> None:
        check_magnitude(self.magnitude)
        check_model_options(self.mode, self.min_ratio)

    def ratio(self, rng: np.random.Generator) -> float:
        """Draw one perturbation factor."""
        raise NotImplementedError

    def perturb(self, predicted: float, rng: np.random.Generator) -> float:
        """Map a predicted duration to an effective duration."""
        if predicted < 0:
            raise ValueError(f"negative predicted duration {predicted}")
        if self.mode == "divide":
            return predicted * (1.0 / self.ratio(rng))
        return predicted * self.ratio(rng)

    def advance(self) -> None:
        """Hook for non-stationary models: called once per simulated chunk."""


@dataclasses.dataclass
class NoError(ErrorModel):
    """Perfect predictions: effective time equals predicted time."""

    magnitude: float = 0.0

    def ratio(self, rng: np.random.Generator) -> float:
        return 1.0


@dataclasses.dataclass
class NormalErrorModel(ErrorModel):
    """The paper's model: factor ~ Normal(1, error), truncated positive.

    Parameters
    ----------
    magnitude:
        Standard deviation of the factor (the paper's *error*, 0–0.5 in
        the experiments).  Zero degenerates to perfect predictions.
    min_ratio:
        Truncation floor; resampled below this value.
    mode:
        ``"multiply"`` (default) or ``"divide"`` — see module docstring.
    """

    magnitude: float = 0.0
    min_ratio: float = MIN_RATIO
    mode: str = "multiply"

    def ratio(self, rng: np.random.Generator) -> float:
        if self.magnitude == 0.0:
            return 1.0
        while True:
            x = rng.normal(1.0, self.magnitude)
            if x >= self.min_ratio:
                return x

    def ratios(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Exactly what ``count`` :meth:`ratio` calls return, in one block.

        The shortfall is drawn raw and filtered until ``count`` values are
        kept; the last block is accepted whole, so ``rng`` ends where the
        scalar loop would.
        """
        if self.magnitude == 0.0:
            return np.ones(count)
        kept = [np.empty(0)]
        need = count
        while need:
            x = rng.normal(1.0, self.magnitude, need)
            x = x[x >= self.min_ratio]
            kept.append(x)
            need -= len(x)
        return np.concatenate(kept)


@dataclasses.dataclass
class UniformErrorModel(ErrorModel):
    """Uniform-ratio variant (§4.1: "essentially similar" results).

    The factor is uniform on ``[1 - √3·error, 1 + √3·error]``, which matches
    the normal model's mean (1) and standard deviation (*error*).  The lower
    endpoint is clipped at ``min_ratio``.
    """

    magnitude: float = 0.0
    min_ratio: float = MIN_RATIO
    mode: str = "multiply"

    def ratio(self, rng: np.random.Generator) -> float:
        if self.magnitude == 0.0:
            return 1.0
        half_width = math.sqrt(3.0) * self.magnitude
        low = max(1.0 - half_width, self.min_ratio)
        return rng.uniform(low, 1.0 + half_width)


@dataclasses.dataclass
class DriftingErrorModel(ErrorModel):
    """A non-stationary extension (paper future work, §4.1).

    The ratio's mean drifts linearly by ``drift_per_step`` after each chunk,
    modelling slowly changing background load.  The RUMR design argument is
    that phase 2 keeps working under such drift because it never consults
    predictions; this model exists to test that claim (see the ablation
    benchmarks).
    """

    magnitude: float = 0.0
    drift_per_step: float = 0.0
    min_ratio: float = MIN_RATIO
    mode: str = "multiply"
    _mean: float = dataclasses.field(default=1.0, init=False)

    def ratio(self, rng: np.random.Generator) -> float:
        if self.magnitude == 0.0:
            return max(self._mean, self.min_ratio)
        while True:
            x = rng.normal(self._mean, self.magnitude)
            if x >= self.min_ratio:
                return x

    def advance(self) -> None:
        self._mean = max(self.min_ratio, self._mean + self.drift_per_step)

    def reset(self) -> None:
        """Restore the initial mean (models are reused across runs)."""
        self._mean = 1.0


def make_error_model(kind: str, magnitude: float, **kwargs) -> ErrorModel:
    """Factory used by the CLI and the experiment harness.

    ``kind`` is one of ``"none"``, ``"normal"``, ``"uniform"``,
    ``"drifting"``.  ``magnitude == 0`` always yields :class:`NoError`.
    """
    if magnitude == 0.0 and kind in ("none", "normal", "uniform"):
        return NoError()
    if kind == "none":
        return NoError()
    if kind == "normal":
        return NormalErrorModel(magnitude, **kwargs)
    if kind == "uniform":
        return UniformErrorModel(magnitude, **kwargs)
    if kind == "drifting":
        return DriftingErrorModel(magnitude, **kwargs)
    raise ValueError(f"unknown error model kind {kind!r}")
