"""The service bench grid: cell task, artifact shape, gate compatibility."""

import pytest

from repro.obs.bench import (
    SCHEMA_VERSION,
    SERVICE_GRID,
    check_bench,
    run_grid,
    strip_host,
)
from repro.parallel.tasks import sweep_cell
from repro.service.bench import SERVICE_MIX, service_cell

CELL_KWARGS = dict(
    workload="hashtable",
    scheme="SLPMT",
    batch_size=4,
    num_clients=2,
    requests_per_client=6,
    value_bytes=32,
    num_keys=24,
    theta=0.6,
    arrival_cycles=400,
    max_wait_cycles=4000,
    max_depth=64,
    seed=11,
)

GRID_KWARGS = dict(
    workloads=("hashtable",),
    schemes=("FG", "SLPMT"),
    batches=(1, 4),
    num_clients=2,
    requests_per_client=6,
    value_bytes=32,
    num_keys=24,
    theta=0.6,
    arrival_cycles=400,
    seed=11,
)


class TestServiceBenchCell:
    def test_cell_document_shape(self):
        doc = sweep_cell(cell=service_cell, label="cell", **CELL_KWARGS)
        for key in (
            "cycles", "pm_bytes", "requests", "acked", "shed", "reads",
            "batches", "committed_writes", "commit_persist_cycles",
            "commit_persist_per_write", "latency", "batch_occupancy",
            "queue_depth", "phases", "stats", "host_ms",
        ):
            assert key in doc, key
        assert doc["requests"] == 2 * 6
        assert doc["shed"] == 0  # the grid runs block admission
        assert doc["latency"]["count"] == doc["acked"]
        assert set(doc["latency"]) == {
            "count", "mean", "min", "p50", "p95", "p99", "max",
        }

    def test_cell_deterministic_modulo_host(self):
        a = sweep_cell(cell=service_cell, label="cell", **CELL_KWARGS)
        b = sweep_cell(cell=service_cell, label="cell", **CELL_KWARGS)
        a.pop("host_ms"), b.pop("host_ms")
        assert a == b


class TestRunServiceBench:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_grid(SERVICE_GRID, **GRID_KWARGS)

    def test_document_shape(self, doc):
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["name"] == "service"
        assert set(doc["cells"]) == {
            "hashtable/FG/b1", "hashtable/FG/b4",
            "hashtable/SLPMT/b1", "hashtable/SLPMT/b4",
        }
        assert set(doc["geomean"]) == {"FG", "SLPMT"}
        assert doc["params"]["batches"] == [1, 4]
        assert doc["params"]["mix"] if "mix" in doc["params"] else True

    def test_amortization_headline(self, doc):
        for scheme in ("FG", "SLPMT"):
            block = doc["amortization"][scheme]
            assert block["batch_lo"] == 1 and block["batch_hi"] == 4
            assert set(block["per_workload"]) == {"hashtable"}
            # Deeper batches must not cost more commit-persist per write.
            assert block["geomean"] >= 1.0

    def test_gate_compatible_with_check_bench(self, doc):
        result = check_bench(doc, doc)
        assert result.ok
        assert not result.regressions

    def test_parallel_sweep_matches_serial(self, doc):
        two = run_grid(SERVICE_GRID, jobs=2, **GRID_KWARGS)
        assert strip_host(two) == strip_host(doc)

    def test_grid_isolates_batch_axis(self, doc):
        # Block admission: every cell commits the identical request set.
        writes = {
            key: cell["committed_writes"] for key, cell in doc["cells"].items()
        }
        assert len(set(writes.values())) == 1


def test_grid_mix_is_put_heavy():
    # txn requests would smuggle mini-batches into the b1 baseline.
    assert "txn" not in SERVICE_MIX
    assert SERVICE_MIX["put"] >= 0.5
