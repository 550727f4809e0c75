"""Bench artifacts and the perf-regression gate."""

import copy
import json

import pytest

from repro.common.errors import ArtifactError
from repro.obs import bench


YCSB = bench.SPECS["slpmt_ycsb"]


@pytest.fixture(scope="module")
def doc():
    # Tiny but real sweep: 2 workloads x 2 schemes.
    return YCSB.run(
        name="test",
        workloads=("hashtable", "rbtree"),
        schemes=("FG", "SLPMT"),
        num_ops=60,
        value_bytes=64,
        seed=6,
    )


class TestArtifact:
    def test_document_shape(self, doc):
        assert doc["schema_version"] == bench.SCHEMA_VERSION
        assert set(doc["cells"]) == {
            "hashtable/FG", "hashtable/SLPMT", "rbtree/FG", "rbtree/SLPMT",
        }
        cell = doc["cells"]["hashtable/SLPMT"]
        assert cell["cycles"] > 0
        assert cell["pm_bytes"] == (
            cell["pm_log_bytes"] + cell["pm_data_bytes"]
        )
        assert cell["stats"]["commits"] == 61  # setup + 60 ops
        assert set(doc["geomean"]) == {"FG", "SLPMT"}

    def test_selective_logging_wins(self, doc):
        # The paper's headline: SLPMT beats full logging on both axes.
        assert (
            doc["geomean"]["SLPMT"]["cycles"] < doc["geomean"]["FG"]["cycles"]
        )
        assert (
            doc["geomean"]["SLPMT"]["pm_bytes"]
            < doc["geomean"]["FG"]["pm_bytes"]
        )

    def test_write_load_round_trip(self, doc, tmp_path):
        path = tmp_path / "BENCH_test.json"
        bench.write_artifact(str(path), doc)
        assert bench.load_artifact(str(path)) == doc
        # And it is valid JSON with sorted keys (stable diffs).
        raw = path.read_text()
        assert json.loads(raw) == doc
        assert raw == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_load_rejects_wrong_schema(self, doc, tmp_path):
        path = tmp_path / "bad.json"
        wrong = dict(doc, schema_version=99)
        bench.write_artifact(str(path), wrong)
        with pytest.raises(ArtifactError, match="schema_version"):
            bench.load_artifact(str(path))


class TestCheck:
    def test_self_check_passes(self, doc):
        result = bench.check_bench(doc, doc)
        assert result.ok
        assert result.regressions == []
        assert result.improvements == []

    def test_determinism_fresh_run_matches(self, doc):
        # The simulator is deterministic: an identical sweep must be
        # bitwise equal modulo wall-clock (host timing is the one
        # explicitly non-deterministic part of the artifact), so the
        # gate passes with zero drift.
        from repro.harness.runner import _cached

        _cached.cache_clear()
        again = YCSB.run(
            name="test",
            workloads=("hashtable", "rbtree"),
            schemes=("FG", "SLPMT"),
            num_ops=60,
            value_bytes=64,
            seed=6,
        )
        assert bench.strip_host(again) == bench.strip_host(doc)

    def test_strip_host_removes_only_host_fields(self, doc):
        stripped = bench.strip_host(doc)
        assert "host" not in stripped
        assert all(
            "host_ms" not in cell for cell in stripped["cells"].values()
        )
        # Everything else survives untouched, and the original document
        # still carries its host fields (strip copies, never mutates).
        assert stripped["cells"].keys() == doc["cells"].keys()
        assert stripped["geomean"] == doc["geomean"]
        assert "host" in doc and doc["host"]["jobs"] == 1
        assert all("host_ms" in cell for cell in doc["cells"].values())

    def test_inflated_cycles_fail_the_gate(self, doc):
        # The acceptance demo: a perf regression must trip the gate.
        inflated = copy.deepcopy(doc)
        for cell in inflated["cells"].values():
            cell["cycles"] = int(cell["cycles"] * 1.10)
        for geo in inflated["geomean"].values():
            geo["cycles"] = round(geo["cycles"] * 1.10, 1)
        result = bench.check_bench(inflated, doc)
        assert not result.ok
        assert any("cycles" == d.metric for d in result.regressions)
        text = bench.format_check(result)
        assert "FAIL" in text and "REGRESSION" in text

    def test_drift_within_threshold_passes(self, doc):
        nudged = copy.deepcopy(doc)
        for cell in nudged["cells"].values():
            cell["cycles"] = int(cell["cycles"] * 1.01)
        result = bench.check_bench(nudged, doc)
        assert result.ok

    def test_improvement_reported_not_failed(self, doc):
        improved = copy.deepcopy(doc)
        for geo in improved["geomean"].values():
            geo["cycles"] = round(geo["cycles"] * 0.80, 1)
        result = bench.check_bench(improved, doc)
        assert result.ok
        assert result.improvements
        assert "improvement" in bench.format_check(result)

    def test_params_mismatch_rejected(self, doc):
        other = copy.deepcopy(doc)
        other["params"]["num_ops"] = 999
        with pytest.raises(ValueError, match="parameters"):
            bench.check_bench(other, doc)

    def test_checked_in_baseline_is_current(self):
        # The repo's BENCH_slpmt_ycsb.json must match a fresh sweep of
        # the same parameters — the real CI gate, run as a test.
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / YCSB.path()
        baseline, kwargs = YCSB.load(str(path))
        current = YCSB.run(**kwargs)
        result = bench.check_bench(current, baseline)
        assert result.ok, bench.format_check(result)
