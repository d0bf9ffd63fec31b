"""Self-test of the benchmark harness: ``python3 -m pytest perfbench/ -q``.

Runs every workload in ``--quick`` mode (tiny inputs), untraced and
traced, and checks the output contract against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(run.ARRAY_SHARE) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_and_checks_out(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.2",
                    "--trace", str(trace), "--quick")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(
                line.split()[:1] == [name] and f" {unit}" in line for line in lines[:-1]
            ), f"{name} not printed with its unit"
        digests.append(re.search(r"digest (\w+)", proc.stdout).group(1))
    assert digests[0] == digests[1], "tracing changed the outputs"
    assert (ROOT / "perfbench" / "out" / f"trace-{workload}.json").is_file()


def test_host_speed_scale_uses_the_probes_of_the_interval():
    speed = hostspeed.HostSpeed(array_share=0.5)
    speed.ends = [1.0, 2.0, 3.0]
    speed.py_s = [hostspeed.NOMINAL_PY_S * k for k in (1, 2, 2)]
    speed.array_s = [hostspeed.NOMINAL_ARRAY_S] * 3
    assert speed.scale(0.5, 1.5) == pytest.approx(1.0)
    assert speed.scale(1.5, 3.5) == pytest.approx(1 / 1.5)
    assert speed.scale(4.0, 5.0) == pytest.approx(1 / 1.5)  # the nearest probe


def test_host_speed_probes_while_active():
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.ends) >= 3
    assert 0 < speed.scale(0.0, end) < 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(path: pathlib.Path, values: list[float], metric="ops_per_s") -> None:
    with open(path, "w") as handle:
        for seed, value in enumerate(values):
            result = {"metrics": {metric: {"value": value, "unit": "1/s"}}}
            handle.write(json.dumps({"workload": "stream", "seed": seed, "trace": 0,
                                     "digest": "d", "result": result}) + "\n")


@pytest.mark.parametrize("change, verdict", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], "ok"),
    ([70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "regressed"),
    ([50, 150, 100, 60, 140, 100, 55, 145, 100, 100], "unresolved"),
])
def test_compare_verdicts(tmp_path, capsys, change, verdict):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    _record(tmp_path / "a.jsonl", base)
    _record(tmp_path / "b.jsonl", change)
    code = compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("stream") and "ops_per_s" in line)
    assert row.split()[-1] == verdict
    assert code == (0 if verdict == "ok" else 1)


def test_compare_claim_needs_nine_of_ten_pair_wins(tmp_path):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    _record(tmp_path / "a.jsonl", base)
    _record(tmp_path / "b.jsonl", [x * 1.2 for x in base])
    claim = ["--claim", "stream:ops_per_s"]
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"), *claim]) == 0
    _record(tmp_path / "b.jsonl", [x * 1.2 for x in base[:8]] + [90, 90])
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"), *claim]) == 1
