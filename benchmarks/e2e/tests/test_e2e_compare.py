"""compare.py gives the right verdicts and exit codes."""

import copy
import json

import pytest

import compare
import metrics

BENCH = metrics.load()
RATE = metrics.Metric("ops_per_s", "1/s", "higher", 0.10, "end_to_end")
SETUP = metrics.Metric("setup_s", "s", "lower", 0.25, "end_to_end")
CYCLES = metrics.Metric("cycles_per_op", "cycles/op", "lower", 0.05, "end_to_end")
LAYER = metrics.Metric("core.share", "fraction", "lower", None, "per_layer")


def test_verdicts_on_host_metrics():
    base = [100, 101, 99, 100, 102]
    assert compare.verdict(RATE, base, [101, 100, 99, 102, 100]) == "unchanged"
    assert compare.verdict(RATE, base, [80, 81, 79, 80, 82]) == "worse"
    assert compare.verdict(RATE, base, [130, 131, 129, 130, 132]) == "better"
    # Lower is better: a rise in set-up time beyond its bound is worse.
    assert compare.verdict(SETUP, [1.0] * 5, [1.4] * 5) == "worse"
    assert compare.verdict(SETUP, [1.0] * 5, [1.2] * 5) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60, 100, 140, 80, 120]
    assert compare.verdict(RATE, noisy, [100, 100, 100, 100, 100]) == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.verdict(RATE, noisy, [150, 200, 250, 170, 230]) == "better"


def test_simulated_metrics_must_match_exactly():
    assert compare.verdict(CYCLES, [3941.25] * 3, [3941.25] * 3) == "unchanged"
    assert compare.verdict(CYCLES, [3941.25] * 3, [3941.26] * 3) == "worse"
    assert compare.verdict(CYCLES, [3941.25] * 3, [3941.24] * 3) == "better"


def test_unbounded_layer_metrics_are_informational():
    assert compare.verdict(LAYER, [1.0], [5.0]) == "info"


def _doc(rate, cycles=3941.25, sha="a" * 64, seed=2023):
    record = {
        "seed": seed,
        "sim_sha256": sha,
        "sim": {"cycles_per_op": cycles, "speedup_vs_fg": 1.486},
        "metrics": {
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "cycles_per_op": {"value": cycles, "unit": "cycles/op"},
        },
    }
    return {"workloads": {"kernels": record}}


def test_compare_passes_on_equal_runs_and_fails_on_changes():
    a = [_doc(r) for r in (100, 101, 99)]
    rows, ok = compare.compare(a, [_doc(r) for r in (100, 99, 101)], BENCH)
    assert ok
    assert {row[1]: row[5] for row in rows}["sim_sha256"] == "unchanged"
    _, ok = compare.compare(a, [_doc(r) for r in (70, 71, 69)], BENCH)
    assert not ok
    _, ok = compare.compare(a, [_doc(100, sha="b" * 64)] * 3, BENCH)
    assert not ok
    # A simulated improvement still fails: it must be explained, not waved through.
    _, ok = compare.compare(a, [_doc(100, cycles=3000.0)] * 3, BENCH)
    assert not ok


def test_main_reads_trajectory_sets(tmp_path):
    trajectory = {"sets": {"A": [_doc(100), _doc(101)], "B": [_doc(99), _doc(100)]}}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(trajectory))
    assert compare.main([f"{path}#A", "--", f"{path}#B"]) == 0
    slow = copy.deepcopy(trajectory)
    for doc in slow["sets"]["B"]:
        doc["workloads"]["kernels"]["metrics"]["ops_per_s"]["value"] = 50
    path.write_text(json.dumps(slow))
    assert compare.main([f"{path}#A", "--", f"{path}#B"]) == 1
    assert compare.main([f"{path}#C", "--", f"{path}#B"]) == 2
    assert compare.main([str(path)]) == 2


def test_different_seeds_are_refused():
    with pytest.raises(ValueError, match="different seeds"):
        compare.compare([_doc(100)], [_doc(100, seed=7)], BENCH)
