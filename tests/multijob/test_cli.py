"""CLI smoke: ``repro multijob`` end to end."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.multijob


def test_multijob_defaults(capsys):
    assert main(["multijob", "--n", "4", "--work", "100"]) == 0
    out = capsys.readouterr().out
    assert "job" in out and "slowdown" in out
    assert "fcfs" in out and "8 jobs" in out


def test_multijob_policy_arrivals_and_json(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    assert main([
        "multijob", "--n", "4", "--scheduler", "UMR", "--seed", "3",
        "--arrivals", "bursty:bursts=2,size=3,gap=200,work=80",
        "--policy", "interleaved:slices=2",
        "--json", str(path),
    ]) == 0
    out = capsys.readouterr().out
    assert "interleaved:slices=2" in out and "UMR" in out
    metrics = json.loads(path.read_text())
    assert metrics["num_jobs"] == 6
    assert metrics["policy"] == "interleaved:slices=2"
    assert metrics["scheduler"] == "UMR"


def test_multijob_trace_file_replay(tmp_path, capsys):
    from repro.workloads import PoissonArrivals, arrivals_to_jsonl

    trace = tmp_path / "arrivals.jsonl"
    trace.write_text(
        arrivals_to_jsonl(PoissonArrivals(rate=0.05, jobs=3, work=60.0).generate(1))
    )
    assert main(["multijob", "--n", "4", "--arrivals", f"trace:{trace}"]) == 0
    assert "3 jobs" in capsys.readouterr().out


def test_multijob_reports_work_lost_to_crashes(capsys):
    assert main([
        "multijob", "--n", "4", "--work", "150", "--seed", "5",
        "--fault", "crash:p=0.5,tmax=300",
    ]) == 0
    assert "work lost to faults" in capsys.readouterr().out


def test_multijob_stream_frame_reports_health(capsys):
    assert main([
        "multijob", "--n", "4", "--work", "150", "--seed", "5",
        "--fault", "crash:p=0.8,tmax=20",
    ]) == 0
    out = capsys.readouterr().out
    assert "stream health [drop]:" in out
    assert "worker(s) excluded" in out
    assert "goodput=" in out


@pytest.mark.parametrize(
    "failure_policy", ("drop", "retry:attempts=2,backoff=3", "resubmit")
)
def test_multijob_failure_policy_smoke(capsys, failure_policy, tmp_path):
    path = tmp_path / "metrics.json"
    assert main([
        "multijob", "--n", "4", "--work", "150", "--seed", "5",
        "--fault", "crash:p=0.8,tmax=20",
        "--failure-policy", failure_policy,
        "--json", str(path),
    ]) == 0
    out = capsys.readouterr().out
    assert f"stream health [{failure_policy.partition(':')[0]}" in out
    metrics = json.loads(path.read_text())
    assert "health" in metrics
    assert metrics["health"]["workers_excluded"] >= 0


def test_multijob_rejects_bad_failure_policy():
    with pytest.raises(ValueError, match="unknown failure policy"):
        main([
            "multijob", "--n", "4", "--fault", "crash:p=0.5,tmax=20",
            "--failure-policy", "panic",
        ])


def test_multijob_rejects_bad_policy():
    with pytest.raises(ValueError, match="unknown stream policy"):
        main(["multijob", "--n", "4", "--policy", "lifo"])
