"""Tests for the prediction-error models (paper §4.1)."""

import math

import numpy as np
import pytest

from repro.errors import (
    DriftingErrorModel,
    NoError,
    NormalErrorModel,
    UniformErrorModel,
    make_error_model,
)
from repro.errors.models import MIN_RATIO


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class TestNoError:
    def test_identity(self, rng):
        m = NoError()
        assert m.perturb(3.7, rng) == 3.7

    def test_zero_stays_zero(self, rng):
        assert NoError().perturb(0.0, rng) == 0.0

    def test_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            NoError().perturb(-1.0, rng)


class TestNormalErrorModel:
    def test_zero_magnitude_is_exact(self, rng):
        m = NormalErrorModel(0.0)
        assert m.perturb(5.0, rng) == 5.0

    def test_ratio_statistics_match_paper_model(self, rng):
        # predicted/effective ~ Normal(1, error): check mean and std of the
        # drawn ratio over many samples.
        m = NormalErrorModel(0.3)
        ratios = np.array([m.ratio(rng) for _ in range(20000)])
        assert ratios.mean() == pytest.approx(1.0, abs=0.01)
        assert ratios.std() == pytest.approx(0.3, abs=0.01)

    def test_truncation_no_nonpositive_ratio(self, rng):
        m = NormalErrorModel(0.5)
        ratios = [m.ratio(rng) for _ in range(5000)]
        assert min(ratios) >= MIN_RATIO

    def test_effective_time_positive(self, rng):
        m = NormalErrorModel(0.5)
        for _ in range(1000):
            assert m.perturb(1.0, rng) > 0

    def test_perturb_multiply_mode(self):
        # With a fixed generator state the perturbed value is pred * X.
        m = NormalErrorModel(0.2)
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        x = m.ratio(r1)
        assert m.perturb(10.0, r2) == pytest.approx(10.0 * x)

    def test_perturb_divide_mode(self):
        # The verbatim paper reading: pred / X, unbounded right tail.
        m = NormalErrorModel(0.2, mode="divide")
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        x = m.ratio(r1)
        assert m.perturb(10.0, r2) == pytest.approx(10.0 / x)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            NormalErrorModel(0.2, mode="sideways")

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            NormalErrorModel(-0.1)

    def test_bad_min_ratio_rejected(self):
        with pytest.raises(ValueError):
            NormalErrorModel(0.1, min_ratio=0.0)

    def test_zero_predicted_stays_zero(self, rng):
        assert NormalErrorModel(0.4).perturb(0.0, rng) == 0.0

    @pytest.mark.parametrize("mode", ["multiply", "divide"])
    def test_zero_predicted_still_draws(self, mode):
        # Every duration takes its factor, zero-cost transfers included,
        # so the stream position never depends on the platform.
        m = NormalErrorModel(0.4, mode=mode)
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        assert m.perturb(0.0, r1) == 0.0
        m.ratio(r2)
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_divide_mode_multiplies_by_reciprocal(self):
        # The batch engines store 1/X once per factor; the scalar
        # arithmetic must produce the same bits.
        m = NormalErrorModel(0.3, mode="divide")
        r1 = np.random.default_rng(11)
        r2 = np.random.default_rng(11)
        for predicted in (10.0, 0.7, 123.456):
            x = m.ratio(r1)
            assert m.perturb(predicted, r2) == predicted * (1.0 / x)


class TestUniformErrorModel:
    def test_matches_mean_and_std(self, rng):
        m = UniformErrorModel(0.2)
        ratios = np.array([m.ratio(rng) for _ in range(20000)])
        assert ratios.mean() == pytest.approx(1.0, abs=0.01)
        assert ratios.std() == pytest.approx(0.2, abs=0.01)

    def test_support_is_bounded(self, rng):
        m = UniformErrorModel(0.2)
        half = math.sqrt(3.0) * 0.2
        ratios = [m.ratio(rng) for _ in range(2000)]
        assert min(ratios) >= 1 - half - 1e-12
        assert max(ratios) <= 1 + half + 1e-12

    def test_large_magnitude_clipped_at_min_ratio(self, rng):
        m = UniformErrorModel(0.6)  # lower endpoint would be negative
        ratios = [m.ratio(rng) for _ in range(2000)]
        assert min(ratios) >= MIN_RATIO


class TestDriftingErrorModel:
    def test_mean_drifts_with_advance(self, rng):
        m = DriftingErrorModel(magnitude=0.0, drift_per_step=0.1)
        assert m.ratio(rng) == 1.0
        m.advance()
        m.advance()
        assert m.ratio(rng) == pytest.approx(1.2)

    def test_reset_restores_initial_mean(self, rng):
        m = DriftingErrorModel(magnitude=0.0, drift_per_step=0.5)
        m.advance()
        m.reset()
        assert m.ratio(rng) == 1.0

    def test_drift_cannot_push_mean_nonpositive(self, rng):
        m = DriftingErrorModel(magnitude=0.0, drift_per_step=-10.0)
        m.advance()
        assert m.ratio(rng) >= MIN_RATIO


@pytest.mark.parametrize(
    "build",
    [
        lambda: DriftingErrorModel(0.1, mode="sideways"),
        lambda: DriftingErrorModel(0.1, mode="Divide"),
        lambda: DriftingErrorModel(min_ratio=-1.0),
        lambda: DriftingErrorModel(0.1, min_ratio=1.0),
        lambda: UniformErrorModel(min_ratio=0.0),
        lambda: UniformErrorModel(0.5, min_ratio=5.0),
    ],
    ids=[
        "drifting-mode", "drifting-mode-case",
        "drifting-negative-floor", "drifting-floor-one", "uniform-zero-floor",
        "uniform-floor-above-one",
    ],
)
def test_every_model_validates_mode_and_floor(build):
    # The uniform and drifting models used to accept these silently (a
    # bad mode multiplied; a floor above 1 failed only at draw time).
    with pytest.raises(ValueError, match="perturbation mode|min_ratio"):
        build()


class TestFactory:
    def test_zero_magnitude_gives_noerror(self):
        assert isinstance(make_error_model("normal", 0.0), NoError)
        assert isinstance(make_error_model("uniform", 0.0), NoError)

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("none", NoError),
            ("normal", NormalErrorModel),
            ("uniform", UniformErrorModel),
            ("drifting", DriftingErrorModel),
        ],
    )
    def test_kinds(self, kind, cls):
        magnitude = 0.3
        model = make_error_model(kind, magnitude)
        assert isinstance(model, cls)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_error_model("weibull", 0.1)


def _grid(error):
    from repro.experiments.config import smoke_grid

    return smoke_grid().restrict(errors=(0.0, error))


def _dynamic_cell(error):
    from repro.core.factoring import Factoring
    from repro.platform import homogeneous_platform
    from repro.sim.dynbatch import DynamicCell

    return DynamicCell(homogeneous_platform(2, S=1.0, bandwidth_factor=2.0), Factoring(), 10.0, error, (1,))


def _static_cell(error):
    from repro.core.umr import UMR
    from repro.platform import homogeneous_platform
    from repro.sim.batch import StaticCell, compile_static_plan

    platform = homogeneous_platform(2, S=1.0, bandwidth_factor=2.0)
    plan = compile_static_plan(platform, UMR().static_plan(platform, 10.0))
    return StaticCell(platform, plan, error, (1,))


_BUILDERS = {
    "normal": NormalErrorModel,
    "uniform": UniformErrorModel,
    "drifting": DriftingErrorModel,
    "grid": _grid,
    "dynamic-cell": _dynamic_cell,
    "static-cell": _static_cell,
}


@pytest.mark.parametrize(
    "name,magnitude",
    [(name, m) for name in _BUILDERS for m in (math.nan, math.inf)]
    # The other constructors already refused -inf as a negative value.
    + [("drifting", -math.inf), ("grid", -math.inf)],
)
def test_non_finite_magnitude_rejected(name, magnitude):
    # A NaN magnitude used to hang the normal model's resampling loop, an
    # infinite one DynamicCell, and a NaN cell ran silently as error 0.
    with pytest.raises(ValueError, match="error magnitude"):
        _BUILDERS[name](magnitude)
