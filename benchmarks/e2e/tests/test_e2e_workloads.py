"""Every workload runs at a tiny size and emits exactly its declared metrics."""

import shutil
import subprocess
import sys

import pytest

import metrics
import run
import suite
from repro.common.errors import RecoveryError

BENCH = metrics.load()


def _measure(name, trace, seed=2023):
    return run.measure(name, seed, 0, trace, "tiny", BENCH)


@pytest.mark.parametrize("name", list(suite.SUITE))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_emits_every_declared_metric(name, trace):
    record = _measure(name, trace)
    scope = "per_layer" if trace else "end_to_end"
    assert list(record["metrics"]) == [m.name for m in BENCH.scope(scope)]
    for metric in BENCH.scope(scope):
        entry = record["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["sim"]) <= metrics.SIMULATED
    if trace:
        assert record["metrics"]["trace.sum_err"]["value"] <= run.MAX_SUM_ERR
        assert record["metrics"]["trace.overhead"]["value"] > 1
        # A time that reads 0 on every run would be no measurement.
        for metric in BENCH.scope("per_layer"):
            if metric.unit == "s":
                assert record["metrics"][metric.name]["value"] > 0, metric.name
    else:
        for metric in BENCH.scope("end_to_end"):
            assert record["metrics"][metric.name]["value"] > 0, metric.name


def test_simulated_results_depend_only_on_the_seed():
    a, b = _measure("sharded-2pc", True), _measure("sharded-2pc", False)
    assert a["sim_sha256"] == b["sim_sha256"]
    assert a["sim"] == b["sim"]
    assert _measure("sharded-2pc", True, seed=7)["sim_sha256"] != a["sim_sha256"]


def test_host_times_are_scaled_to_nominal_speed(monkeypatch):
    monkeypatch.setattr(
        run.hostspeed.Sampler, "nominal_seconds", lambda self, start, end: (end - start) / 2
    )
    record = _measure("service-read", False)
    assert record["metrics"]["ops_per_s"]["value"] == pytest.approx(
        2 * record["info"]["ops_per_s_raw"]
    )
    for probe in record["setup_probes"]:
        assert probe["nominal_s"] > 0


def test_forced_verify_failure_counts_as_failed(monkeypatch):
    def broken(self, *, durable=False):
        raise RecoveryError("forced")

    monkeypatch.setattr(suite.WORKLOADS["hashtable"], "verify", broken)
    record = _measure("kernels", False)
    assert not record["correct"]
    assert record["error_rate"] > 0
    assert any("verify: forced" in p for p in record["problems"])


def test_forced_violation_counts_as_failed(monkeypatch):
    monkeypatch.setattr(
        suite.fuzz_campaign, "_check_service_recovered", lambda svc: ("forced", "structure")
    )
    record = _measure("crash-sweep", True)
    assert not record["correct"]
    assert record["failed"] > 0
    assert record["metrics"]["fuzz.violations"]["value"] > 0


def test_refuses_to_run_under_program_changing_environment(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert run.main(["--workload", "kernels", "--size", "tiny"]) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(metrics.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out", "results", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
