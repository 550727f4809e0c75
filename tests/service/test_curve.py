"""Throughput-vs-latency curves: determinism, steady cells, CLI."""

import json
import os

import pytest

from repro.obs.bench import SPECS
from repro.service.cli import serve_main
from repro.service.curve import (
    curve_to_table,
    run_curve,
    run_curve_cell,
)

# One small sweep shared across the file (cells are full service runs).
SCHEMES = ("FG", "SLPMT")
ARRIVALS = (4000, 1200)


@pytest.fixture(scope="module")
def curve_doc():
    return run_curve(schemes=SCHEMES, arrivals=ARRIVALS, seed=2023)


class TestCurveCell:
    def test_cell_is_deterministic(self):
        a = run_curve_cell("SLPMT", 2000, seed=5)
        b = run_curve_cell("SLPMT", 2000, seed=5)
        assert a == b

    def test_cell_quotes_steady_trimmed_numbers(self):
        # Arrival 1200 settles under seed 2023 (the knee cell at 2000
        # no longer does since client streams became prefix-stable).
        cell = run_curve_cell("SLPMT", 1200, seed=2023)
        assert cell["steady"] is True
        assert 0 <= cell["window_lo"] < cell["window_hi"]
        assert cell["window_hi"] <= cell["windows_total"]
        assert cell["throughput_kcyc"] > 0
        assert cell["p50"] <= cell["p95"] <= cell["p99"]
        assert len(cell["acked_series"]) == cell["windows_total"]


class TestCurveDocument:
    def test_grid_and_knees(self, curve_doc):
        assert len(curve_doc["points"]) == len(SCHEMES) * len(ARRIVALS)
        assert set(curve_doc["knees"]) == set(SCHEMES)
        for scheme in SCHEMES:
            points = [
                p for p in curve_doc["points"] if p["scheme"] == scheme
            ]
            # Ascending offered load, exactly one knee per scheme.
            offered = [p["offered_kcyc"] for p in points]
            assert offered == sorted(offered)
            assert sum(1 for p in points if p["knee"]) == 1

    def test_parallel_sweep_byte_identical_to_serial(self, curve_doc):
        parallel = run_curve(
            schemes=SCHEMES, arrivals=ARRIVALS, seed=2023, jobs=2
        )
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            curve_doc, sort_keys=True
        )

    def test_table_has_a_block_per_scheme(self, curve_doc):
        table = curve_to_table(curve_doc)
        blocks = table.strip().split("\n\n")
        assert len(blocks) == len(SCHEMES)
        assert table.startswith("# scheme")


class TestCheckedInArtifact:
    REPO = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

    def test_curve_artifact_schema(self):
        # The acceptance shape of the checked-in artifact: >= 2 schemes
        # x >= 4 load points, every cell quoting a steady window range.
        spec = SPECS["curves"]
        doc, _ = spec.load(os.path.join(self.REPO, spec.path()))
        assert doc["kind"] == "curve"
        assert len(doc["schemes"]) >= 2
        assert len(doc["arrivals"]) >= 4
        assert len(doc["points"]) == len(doc["schemes"]) * len(
            doc["arrivals"]
        )
        for point in doc["points"]:
            assert point["window_lo"] < point["window_hi"]
            assert {"steady", "knee", "throughput_kcyc", "p95"} <= set(point)
        table = os.path.join(
            self.REPO, "benchmarks", "results", "curve_service.tsv"
        )
        with open(table) as fh:
            text = fh.read()
        assert curve_to_table(doc) == text


class TestServeCli:
    def test_curve_smoke(self, capsys):
        rc = serve_main(
            ["--curve", "--curve-schemes", "SLPMT",
             "--curve-arrivals", "4000,1200"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "knee at arrival" in out
        assert "# scheme" in out

    def test_curve_artifacts(self, tmp_path):
        doc_path = tmp_path / "curve.json"
        table_path = tmp_path / "curve.tsv"
        rc = serve_main(
            ["--curve", "--curve-schemes", "FG",
             "--curve-arrivals", "4000,1200",
             "--json", str(doc_path), "--table", str(table_path)]
        )
        assert rc == 0
        doc = json.loads(doc_path.read_text())
        assert doc["kind"] == "curve"
        assert len(doc["points"]) == 2
        assert curve_to_table(doc) == table_path.read_text()

    def test_json_doc_includes_histogram_buckets(self, tmp_path):
        path = tmp_path / "run.json"
        rc = serve_main(
            ["--requests", "10", "--clients", "2", "--json", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        for name in ("latency", "batch_occupancy", "queue_depth"):
            hist = doc[name]
            assert "buckets" in hist and "sub_buckets" in hist
            assert sum(row[2] for row in hist["buckets"]) == hist["count"]
            for lo, hi, count in hist["buckets"]:
                assert lo < hi and count > 0

    def test_windows_attaches_telemetry(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = serve_main(
            ["--requests", "10", "--clients", "2",
             "--windows", "4096", "--json", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        tel = doc["telemetry"]
        assert tel["window_cycles"] == 4096
        acked = sum(
            w["counts"].get("acked", 0) for w in tel["windows"].values()
        )
        assert acked == doc["acked"]
        rc = serve_main(
            ["--requests", "10", "--clients", "2", "--windows", "4096"]
        )
        assert rc == 0
        assert "windows (4096 cycles each)" in capsys.readouterr().out
