"""BENCHMARK.json is well-formed and agrees with what the code measures."""

import json

import metrics
import suite

ALLOWED_TOP = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _doc():
    with open(metrics.BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_keys_and_limits():
    doc = _doc()
    assert set(doc) == ALLOWED_TOP
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 2 <= len(doc["workloads"]) <= 8


def test_metric_entries():
    doc = _doc()
    names = []
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    assert len(names) == len(set(names))
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert metrics.NAME_RE.match(entry["name"]), entry
        assert metrics.UNIT_RE.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")


def test_setup_has_the_largest_bound():
    e2e = {m["name"]: m for m in _doc()["end_to_end"]}
    assert e2e["setup_s"] == {"name": "setup_s", "unit": "s", "better": "lower", "bound": e2e["setup_s"]["bound"]}
    assert all(m["bound"] <= e2e["setup_s"]["bound"] for m in e2e.values())


def test_workloads_match_the_suite():
    doc = _doc()
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [w["name"] for w in doc["workloads"]] == list(suite.SUITE)


def test_simulated_metrics_are_declared():
    declared = metrics.load().metrics
    assert metrics.SIMULATED <= set(declared)
    assert set(suite.WORKLOAD_ONLY) <= set(declared)
