"""Tests for report rendering, the sweep cache, and the CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.cache import cached_sweep, load_sweep, save_sweep, sweep_key
from repro.experiments.config import smoke_grid
from repro.experiments.figures import fig4a
from repro.experiments.report import (
    ascii_chart,
    figure_csv,
    render_figure,
    render_table,
    table_csv,
)
from repro.experiments.runner import run_sweep
from repro.experiments.tables import table2

ALGOS = ("RUMR", "UMR", "Factoring")


@pytest.fixture(scope="module")
def results():
    grid = smoke_grid().restrict(
        Ns=(10,), bandwidth_factors=(1.5,), cLats=(0.1,), nLats=(0.1,),
        errors=(0.0, 0.2, 0.4), repetitions=2,
    )
    return run_sweep(grid, algorithms=ALGOS)


class TestReport:
    def test_render_table_contains_rows(self, results):
        text = render_table(table2(results))
        assert "UMR" in text and "Factoring" in text and "overall" in text

    def test_table_csv_parses(self, results):
        lines = table_csv(table2(results)).strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "algorithm"
        assert len(lines) == 1 + 2  # two competitors

    def test_figure_csv_shape(self, results):
        fig = fig4a(results)
        lines = figure_csv(fig).strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per error value
        assert lines[0].startswith("error,")

    def test_ascii_chart_renders(self, results):
        chart = ascii_chart(fig4a(results))
        assert "error" in chart
        assert "·" in chart  # the y=1.0 parity rule

    def test_render_figure_combines(self, results):
        out = render_figure(fig4a(results))
        assert "error," in out


class TestCache:
    def test_roundtrip(self, results, tmp_path):
        path = save_sweep(results, tmp_path)
        loaded = load_sweep(path)
        assert loaded.algorithms == results.algorithms
        assert loaded.grid == results.grid
        assert loaded.platforms == results.platforms
        for algo in ALGOS:
            assert np.array_equal(loaded.makespans[algo], results.makespans[algo])

    def test_key_changes_with_grid(self, results):
        key1 = sweep_key(results.grid, ALGOS)
        key2 = sweep_key(results.grid.restrict(seed=1), ALGOS)
        key3 = sweep_key(results.grid, ("RUMR", "UMR"))
        assert key1 != key2 and key1 != key3

    def test_cached_sweep_runs_then_loads(self, results, tmp_path):
        calls = []
        first = cached_sweep(
            results.grid, ALGOS, tmp_path,
            progress=lambda d, t: calls.append(d),
        )
        assert calls  # actually ran
        calls.clear()
        second = cached_sweep(
            results.grid, ALGOS, tmp_path,
            progress=lambda d, t: calls.append(d),
        )
        assert not calls  # loaded from disk
        for algo in ALGOS:
            assert np.array_equal(first.makespans[algo], second.makespans[algo])

    def test_roundtrip_nontrivial_grid(self, tmp_path):
        # Multiple platforms, error levels and repetitions — the loaded
        # object must reconstruct every axis and tensor exactly.
        grid = smoke_grid().restrict(
            Ns=(8, 12), bandwidth_factors=(1.4, 1.8), cLats=(0.0, 0.2),
            nLats=(0.1,), errors=(0.0, 0.1, 0.3), repetitions=3,
        )
        results = run_sweep(grid, algorithms=("UMR", "RUMR", "MI-2"))
        loaded = load_sweep(save_sweep(results, tmp_path))
        assert loaded.grid == results.grid
        assert loaded.algorithms == results.algorithms
        assert loaded.platforms == results.platforms
        assert len(loaded.platforms) == 8
        for algo in results.algorithms:
            assert np.array_equal(loaded.makespans[algo], results.makespans[algo])

    def test_cached_sweep_revalidates_algorithms(self, results, tmp_path):
        import json

        cached_sweep(results.grid, ALGOS, tmp_path)
        # Tamper with the sidecar so the entry claims a different
        # algorithm list than requested; cached_sweep must re-run instead
        # of returning the stale entry.
        key = sweep_key(results.grid, ALGOS)
        meta_path = tmp_path / f"sweep-{results.grid.name}-{key}.json"
        meta = json.loads(meta_path.read_text())
        meta["algorithms"] = ["UMR", "RUMR", "Factoring"]  # reordered
        meta_path.write_text(json.dumps(meta))
        calls = []
        again = cached_sweep(
            results.grid, ALGOS, tmp_path,
            progress=lambda d, t: calls.append(d),
        )
        assert calls  # re-ran rather than trusting the tampered entry
        assert again.algorithms == ALGOS

    def test_cached_sweep_survives_corrupt_sidecar(self, results, tmp_path):
        import json

        cached_sweep(results.grid, ALGOS, tmp_path)
        # A sidecar naming an algorithm absent from the .npz used to
        # raise KeyError out of load_sweep; cached_sweep must treat the
        # entry as invalid and re-run instead.
        key = sweep_key(results.grid, ALGOS)
        meta_path = tmp_path / f"sweep-{results.grid.name}-{key}.json"
        meta = json.loads(meta_path.read_text())
        meta["algorithms"] = ["bogus"]
        meta_path.write_text(json.dumps(meta))
        calls = []
        again = cached_sweep(
            results.grid, ALGOS, tmp_path,
            progress=lambda d, t: calls.append(d),
        )
        assert calls
        assert again.algorithms == ALGOS
        for algo in ALGOS:
            assert np.array_equal(again.makespans[algo], results.makespans[algo])

    def test_cached_sweep_batch_flag_consistent(self, results, tmp_path):
        scalar = cached_sweep(
            results.grid, ALGOS, tmp_path / "a", batch_static=False
        )
        batched = cached_sweep(
            results.grid, ALGOS, tmp_path / "b", batch_static=True
        )
        # Zero-error column identical across paths; at error > 0 the batch
        # engines (static and lockstep-dynamic) are distributionally
        # identical but may diverge bitwise where resampling fires.
        for algo in ALGOS:
            assert np.array_equal(
                scalar.makespans[algo][:, 0, :], batched.makespans[algo][:, 0, :]
            )
            assert batched.makespans[algo] == pytest.approx(
                scalar.makespans[algo], rel=0.2
            )


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "RUMR" in out and "Factoring" in out

    def test_table2_smoke_to_files(self, tmp_path, capsys):
        rc = main([
            "table2", "--preset", "smoke", "--results", str(tmp_path / "res"),
            "--out", str(tmp_path / "out"), "--quiet",
        ])
        assert rc == 0
        table_file = tmp_path / "out" / "table2-smoke.txt"
        csv_file = tmp_path / "out" / "table2-csv-smoke.txt"
        assert table_file.exists() and csv_file.exists()
        assert "RUMR outperforms" in table_file.read_text()
        assert csv_file.read_text().startswith("algorithm,")

    def test_fig7_smoke_stdout(self, tmp_path, capsys):
        rc = main([
            "fig7", "--preset", "smoke", "--results", str(tmp_path / "res"), "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RUMR-plain" in out

    def test_sweep_command_caches(self, tmp_path, capsys):
        rc = main([
            "sweep", "--preset", "smoke", "--results", str(tmp_path / "res"), "--quiet",
        ])
        assert rc == 0
        assert list((tmp_path / "res").glob("sweep-*.npz"))

    def test_error_mode_flag(self, tmp_path):
        rc = main([
            "sweep", "--preset", "smoke", "--results", str(tmp_path / "res"),
            "--quiet", "--error-mode", "divide",
        ])
        assert rc == 0

    def test_no_batch_flag(self, tmp_path):
        rc = main([
            "sweep", "--preset", "smoke", "--results", str(tmp_path / "res"),
            "--quiet", "--no-batch",
        ])
        assert rc == 0
        assert list((tmp_path / "res").glob("sweep-*.npz"))
