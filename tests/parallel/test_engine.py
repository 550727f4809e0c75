"""The parallel engine itself: job resolution, ordering, crash paths."""

import pytest

from repro.common.errors import ReproError
from repro.parallel import engine
from repro.obs.bench import ycsb_cell
from repro.parallel.tasks import POISON_ENV, sweep_cell


def _double(*, x):
    return x * 2


def _boom(*, x):
    if x == 2:
        raise ValueError("cell exploded")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(engine.JOBS_ENV, raising=False)
        assert engine.resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV, "8")
        assert engine.resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV, "4")
        assert engine.resolve_jobs(None) == 4

    def test_clamps_to_one(self):
        assert engine.resolve_jobs(0) == 1
        assert engine.resolve_jobs(-3) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(engine.JOBS_ENV, "many")
        with pytest.raises(ReproError, match="REPRO_JOBS"):
            engine.resolve_jobs(None)


class TestRunTasksSerial:
    def test_results_in_input_order(self):
        out = engine.run_tasks(_double, [{"x": i} for i in range(5)])
        assert out == [0, 2, 4, 6, 8]

    def test_progress_callback(self):
        seen = []
        engine.run_tasks(
            _double,
            [{"x": 1}, {"x": 2}],
            labels=["a", "b"],
            progress=lambda d, t, lbl: seen.append((d, t, lbl)),
        )
        assert seen == [(1, 2, "a"), (2, 2, "b")]

    def test_crash_wraps_with_label(self):
        with pytest.raises(engine.WorkerCrash, match="cell 'two'"):
            engine.run_tasks(
                _boom, [{"x": 1}, {"x": 2}], labels=["one", "two"]
            )

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ReproError, match="labels"):
            engine.run_tasks(_double, [{"x": 1}], labels=["a", "b"])


class TestRunTasksParallel:
    def test_results_in_submission_order(self):
        # sweep_cell is the real spawn-safe task; tiny grid keeps the
        # worker wall-clock small.
        descriptors = [
            {
                "cell": ycsb_cell,
                "label": f"hashtable/{scheme}",
                "workload": "hashtable",
                "scheme": scheme,
                "num_ops": 20,
                "value_bytes": 64,
                "seed": 3,
            }
            for scheme in ("FG", "SLPMT")
        ]
        serial = engine.run_tasks(sweep_cell, descriptors, jobs=1)
        parallel = engine.run_tasks(sweep_cell, descriptors, jobs=2)
        for s, p in zip(serial, parallel):
            s = dict(s)
            p = dict(p)
            s.pop("host_ms")
            p.pop("host_ms")
            assert s == p

    def test_worker_crash_propagates_label(self, monkeypatch):
        monkeypatch.setenv(POISON_ENV, "hashtable/SLPMT")
        descriptors = [
            {
                "cell": ycsb_cell,
                "label": f"hashtable/{scheme}",
                "workload": "hashtable",
                "scheme": scheme,
                "num_ops": 20,
                "value_bytes": 64,
                "seed": 3,
            }
            for scheme in ("FG", "SLPMT")
        ]
        with pytest.raises(engine.WorkerCrash, match="hashtable/SLPMT"):
            engine.run_tasks(
                sweep_cell,
                descriptors,
                jobs=2,
                labels=["hashtable/FG", "hashtable/SLPMT"],
            )
