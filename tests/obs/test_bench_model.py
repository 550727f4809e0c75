"""Model-tier bench: grid prediction + seeded spot-check audit, and
recursive host stripping."""

import pytest

from repro.model.fit import fit_model
from repro.obs.bench import run_model_bench, strip_host, write_artifact

WORKLOADS = ("hashtable", "rbtree")
SCHEMES = ("FG", "SLPMT")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    doc = fit_model(
        workloads=WORKLOADS,
        schemes=SCHEMES,
        ops_grid=(40, 80, 120, 160),
        value_bytes_grid=(64, 128),
    )
    path = tmp_path_factory.mktemp("model") / "cost_model.json"
    write_artifact(str(path), doc)
    return str(path)


@pytest.fixture(scope="module")
def doc(model_path):
    # 320-op column sits outside the training range -> gives the
    # extrapolated probe something to bite on.
    return run_model_bench(
        model_path=model_path,
        workloads=WORKLOADS,
        schemes=SCHEMES,
        ops_grid=(40, 80, 120, 160, 320),
        value_bytes_grid=(64, 128),
        spot_checks=2,
    )


class TestRunModelBench:
    def test_kind_and_cardinality(self, doc):
        assert doc["kind"] == "model-bench"
        assert len(doc["cells"]) == 2 * 2 * 5 * 2

    def test_extrapolation_flags(self, doc):
        for key, cell in doc["cells"].items():
            assert cell["extrapolated"] == ("/ops320/" in key), key

    def test_spot_checks_audit_the_model(self, doc):
        spot = doc["spot_check"]
        assert len(spot["cells"]) == 2
        for cell in spot["cells"].values():
            assert cell["actual_cycles"] > 0
            assert cell["rel_error"] >= 0.0
        assert spot["max_rel_error"] <= spot["max_error"]
        assert spot["ok"] is True

    def test_extrapolated_probe_is_informational(self, doc):
        probe = doc["spot_check"]["extrapolated_probe"]
        assert "/ops320/" in probe["cell"]
        assert probe["rel_error"] >= 0.0
        # The probe must not participate in the gate.
        assert probe["cell"] not in doc["spot_check"]["cells"]

    def test_model_provenance_embedded(self, doc):
        assert doc["model"]["train_range"]["num_ops"] == [40, 160]
        assert "holdout_geomean_rel_error" in doc["model"]

    def test_deterministic_modulo_host(self, doc, model_path):
        again = run_model_bench(
            model_path=model_path,
            workloads=WORKLOADS,
            schemes=SCHEMES,
            ops_grid=(40, 80, 120, 160, 320),
            value_bytes_grid=(64, 128),
            spot_checks=2,
        )
        assert strip_host(again) == strip_host(doc)

    def test_tight_gate_fails(self, doc, model_path):
        strict = run_model_bench(
            model_path=model_path,
            workloads=WORKLOADS,
            schemes=SCHEMES,
            ops_grid=(40, 80, 120, 160),
            value_bytes_grid=(64, 128),
            spot_checks=2,
            max_error=1e-12,
        )
        assert strict["spot_check"]["ok"] is False


class TestStripHostRecursive:
    def test_removes_nested_host_keys(self):
        doc = {
            "host": {"seconds": 1.0},
            "host_ms": 5,
            "cells": {"a": {"host_ms": 3, "cycles": 10}},
            "nested": [{"host": {}, "keep": 1}, 2],
        }
        assert strip_host(doc) == {
            "cells": {"a": {"cycles": 10}},
            "nested": [{"keep": 1}, 2],
        }

    def test_does_not_mutate_input(self):
        doc = {"host": 1, "inner": {"host_ms": 2, "x": 3}}
        strip_host(doc)
        assert doc == {"host": 1, "inner": {"host_ms": 2, "x": 3}}
