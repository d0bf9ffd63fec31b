"""Tests for the smaller report helpers."""

import io

from repro.experiments.figures import FigureResult
from repro.experiments.report import series_summary, write_text
from repro.experiments.runner import eta_progress


def make_figure():
    return FigureResult(
        title="t",
        xlabel="error",
        ylabel="ratio",
        errors=(0.0, 0.1, 0.2),
        series={"UMR": (1.0, 1.1, 1.3), "Factoring": (1.5, 1.2, 1.1)},
    )


def test_series_summary_fields():
    summary = series_summary(make_figure())
    assert summary["UMR"] == {"first": 1.0, "last": 1.3, "min": 1.0, "max": 1.3}
    assert summary["Factoring"]["max"] == 1.5


def test_figure_length_mismatch_rejected():
    import pytest

    with pytest.raises(ValueError):
        FigureResult(
            title="t", xlabel="x", ylabel="y", errors=(0.0, 0.1),
            series={"A": (1.0,)},
        )


def test_write_text(tmp_path):
    path = tmp_path / "artifact.txt"
    write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"


def test_eta_progress_writes_and_terminates_line():
    stream = io.StringIO()
    callback = eta_progress(stream)
    callback(1, 4)
    callback(4, 4)
    out = stream.getvalue()
    assert "[1/4 platforms]" in out
    assert out.endswith("\n")


def test_eta_progress_prints_no_estimate_before_a_rate_exists():
    stream = io.StringIO()
    eta_progress(stream)(0, 16)
    out = stream.getvalue()
    assert "[0/16 platforms]" in out
    assert "left" not in out and "inf" not in out
