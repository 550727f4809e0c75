"""The determinism contract: parallel sweeps == serial sweeps, byte for
byte, for every artifact kind (bench JSON, every campaign family's
result and report, Perfetto trace).  These are the checked-in form of
the CI equivalence gate."""

import json

import pytest

from repro.fuzz.campaign import FuzzCell, MultiCoreCell, ServiceCell
from repro.fuzz.faultcampaign import FaultCell
from repro.fuzz.kernel import FAMILIES, run_campaign
from repro.fuzz.report import format_report
from repro.fuzz.twopc import TwoPCCell
from repro.obs import bench
from repro.obs.run import observed_run
from repro.obs.trace import chrome_trace
from repro.parallel import engine
from repro.parallel.merge import rewrap_tracers
from repro.parallel.tasks import trace_cell

BENCH_KW = dict(
    name="equiv",
    workloads=("hashtable", "rbtree"),
    schemes=("FG", "SLPMT"),
    num_ops=40,
    value_bytes=64,
    seed=11,
)


class TestBenchEquivalence:
    def test_jobs_matches_serial_modulo_host(self):
        serial = bench.run_bench(jobs=1, **BENCH_KW)
        parallel = bench.run_bench(jobs=4, **BENCH_KW)
        # Byte-identical: compare the serialised artifact form.
        a = json.dumps(bench.strip_host(serial), indent=1, sort_keys=True)
        b = json.dumps(bench.strip_host(parallel), indent=1, sort_keys=True)
        assert a == b

    def test_host_block_reflects_jobs(self):
        doc = bench.run_bench(jobs=1, **BENCH_KW)
        assert doc["host"]["jobs"] == 1
        assert doc["host"]["seconds"] >= 0.0
        assert all("host_ms" in cell for cell in doc["cells"].values())

    def test_check_bench_ignores_host_fields(self):
        # The regression gate must not see wall-clock: two runs with
        # wildly different host timings still compare clean.
        doc = bench.run_bench(jobs=1, **BENCH_KW)
        other = bench.strip_host(doc)
        other["host"] = {"seconds": 9999.0, "cells_per_sec": 0.001, "jobs": 64}
        for cell in other["cells"].values():
            cell["host_ms"] = 123456.0
        result = bench.check_bench(other, doc)
        assert result.ok
        assert result.improvements == []


class TestCampaignEquivalence:
    """Every campaign family: serial == ``--jobs 2``, result and report."""

    #: Per family: a tiny campaign (cells, budget and knobs) and its
    #: case count.
    CAMPAIGNS = {
        "crash": (
            [
                FuzzCell("hashtable", "FG", "none"),
                FuzzCell("hashtable", "SLPMT", "manual"),
                FuzzCell("dlist", "SLPMT", "manual"),
            ],
            dict(budget=6, num_ops=4),
            18,
        ),
        "faults": (
            [
                FaultCell("hashtable", "SLPMT", "torn-tail"),
                FaultCell("hashtable", "SLPMT", "drop-drains"),
            ],
            dict(budget=4, num_ops=3),
            27,
        ),
        "multicore": (
            [
                MultiCoreCell("hashtable", "FG", 2, 0.9),
                MultiCoreCell("hashtable", "SLPMT", 2, 0.9),
            ],
            dict(budget=4, ops_per_core=3),
            8,
        ),
        "service": (
            [
                ServiceCell("hashtable", "SLPMT", 1),
                ServiceCell("multistruct", "FG", 8, locking=True),
            ],
            dict(budget=3, num_clients=2, requests_per_client=6),
            6,
        ),
        "twopc": (
            [
                TwoPCCell("hashtable", "SLPMT", 2, "crash"),
                TwoPCCell("hashtable", "SLPMT", 2, "torn-decision"),
            ],
            dict(budget=3, num_clients=2, requests_per_client=8, value_bytes=32),
            6,
        ),
    }

    def test_every_family_is_covered(self):
        assert set(self.CAMPAIGNS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(CAMPAIGNS))
    def test_jobs_matches_serial(self, family):
        cells, kwargs, cases = self.CAMPAIGNS[family]
        serial = run_campaign(cells, seed=7, **kwargs)
        parallel = run_campaign(cells, seed=7, jobs=2, **kwargs)
        assert serial == parallel
        assert format_report(serial) == format_report(parallel)
        assert serial.family == family
        assert serial.total_cases == cases
        assert not serial.violations


class TestEquivalenceCommand:
    def test_passes_on_fresh_tiny_baseline(self, tmp_path, capsys):
        from repro.obs.cli import obs_main

        doc = bench.run_bench(jobs=1, **BENCH_KW)
        path = tmp_path / "BENCH_equiv.json"
        bench.write_bench(str(path), doc)
        rc = obs_main(
            ["equivalence", "--jobs", "2", "--baseline", str(path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "byte-identical to serial" in out
        assert "bit-identical" in out

    def test_fails_on_drifted_baseline(self, tmp_path, capsys):
        from repro.obs.cli import obs_main

        doc = bench.run_bench(jobs=1, **BENCH_KW)
        cell = doc["cells"]["hashtable/SLPMT"]
        cell["cycles"] += 1
        path = tmp_path / "BENCH_equiv.json"
        bench.write_bench(str(path), doc)
        rc = obs_main(
            ["equivalence", "--jobs", "2", "--baseline", str(path)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "EQUIVALENCE VIOLATION" in err


class TestTraceEquivalence:
    def test_merged_trace_identical(self):
        cells = ("hashtable", "rbtree")
        descriptors = [
            {
                "workload": w,
                "scheme": "SLPMT",
                "num_ops": 30,
                "value_bytes": 64,
                "seed": 5,
                "capacity": 1000,
            }
            for w in cells
        ]
        payloads = engine.run_tasks(trace_cell, descriptors, jobs=2)
        merged = chrome_trace(rewrap_tracers(payloads))
        serial_tracers = [
            observed_run(
                w, "SLPMT", num_ops=30, value_bytes=64, seed=5, capacity=1000
            ).tracer
            for w in cells
        ]
        reference = chrome_trace(serial_tracers)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_rewrap_preserves_drop_accounting(self):
        payloads = engine.run_tasks(
            trace_cell,
            [
                {
                    "workload": "hashtable",
                    "scheme": "SLPMT",
                    "num_ops": 30,
                    "value_bytes": 64,
                    "seed": 5,
                    # Tiny ring: events must fall off, and the dropped
                    # count must survive the process boundary.
                    "capacity": 4,
                }
            ],
            jobs=1,
        )
        (tracer,) = rewrap_tracers(payloads)
        assert len(tracer.events()) == 4
        assert tracer.total_emitted > 4
        assert tracer.dropped == tracer.total_emitted - 4
