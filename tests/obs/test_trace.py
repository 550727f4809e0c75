"""Chrome/Perfetto trace export: schema validity and content."""

import json

import pytest

from repro.obs.run import observed_multicore_ycsb, observed_run
from repro.obs.trace import (
    chrome_trace,
    to_jsonl,
    trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(scope="module")
def system():
    # Small but genuinely contended: 3 cores, shared hashtable.
    return observed_multicore_ycsb(num_cores=3, ops_per_core=6, seed=2023)


class TestChromeTrace:
    def test_schema_valid(self, system):
        doc = chrome_trace(system.tracers(), metadata={"scheme": "SLPMT"})
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"] == {"scheme": "SLPMT"}

    def test_per_core_tracks(self, system):
        doc = chrome_trace(system.tracers())
        tids = {e["tid"] for e in doc["traceEvents"]}
        assert tids == {0, 1, 2}
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {"core 0", "core 1", "core 2"}

    def test_transactions_become_complete_slices(self, system):
        doc = chrome_trace(system.tracers())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        commits = system.total_commits()
        aborts = system.total_aborts()
        assert len(slices) == commits + aborts
        for s in slices:
            assert s["dur"] >= 0
            assert s["cat"] == "transaction"
        aborted = [s for s in slices if "(" in s["name"]]
        assert len(aborted) == aborts

    def test_json_serialisable_and_loadable(self, system, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), system.tracers())
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert validate_chrome_trace(loaded) == []

    def test_validator_catches_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "Z", "pid": 1, "tid": 0, "name": "x", "ts": 0},
                {"ph": "X", "pid": 1, "tid": 0, "name": "x", "ts": 0, "dur": -1},
                {"ph": "i", "pid": 1, "tid": 0, "name": "x", "ts": 1.5},
                {"ph": "i", "pid": 1, "tid": 0, "ts": 0},
                {"ph": "b", "pid": 1, "tid": 0, "name": "x", "ts": 0, "id": 1},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 5
        assert problems[-1] == "traceEvents[4]: unknown phase 'b'"

    def test_validator_requires_event_list(self):
        assert validate_chrome_trace({}) != []


class TestJsonl:
    def test_header_plus_events(self, system):
        tracer = system.tracers()[0]
        lines = to_jsonl(tracer).splitlines()
        header = json.loads(lines[0])
        assert header["total_emitted"] == tracer.total_emitted
        assert header["dropped"] == tracer.dropped
        assert len(lines) - 1 == len(tracer.events())
        event = json.loads(lines[1])
        assert set(event) == {"cycle", "core", "kind", "fields"}

    def test_write_jsonl(self, system, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(str(path), system.tracers())
        lines = path.read_text().splitlines()
        headers = [json.loads(l) for l in lines if "capacity" in l]
        assert len(headers) == 3


class TestSingleCore:
    def test_single_run_trace(self):
        run = observed_run("hashtable", "SLPMT", num_ops=40, seed=4)
        doc = chrome_trace([run.tracer])
        assert validate_chrome_trace(doc) == []
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # setup + 40 ops, all committed single-core.
        assert len(slices) == 41

    def test_trace_events_empty_tracer_list(self):
        assert trace_events([]) == []
