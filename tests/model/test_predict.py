"""Prediction invariants and schema lockstep.

The two satellite properties live here:

* predicted per-phase cycles are nonnegative and sum exactly to the
  predicted total — for any query, including deep extrapolation;
* the artifact schema is locked to ``PHASES``: adding a profiler phase
  (or dropping one) makes every existing artifact fail
  ``check_lockstep`` (and so fail to load) until it is refit.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ArtifactError
from repro.model.features import FEATURE_NAMES, CellSpec
from repro.model.predict import (
    ARTIFACT as MODEL_ARTIFACT,
    CostModel,
    ModelSchemaError,
    check_lockstep,
)
from repro.obs.bench import load_artifact, write_artifact
from repro.obs.profiler import PHASES

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "benchmarks" / "results" / "cost_model.json"


def load_cost_model(path):
    return CostModel(load_artifact(str(path), **MODEL_ARTIFACT))


def write_doc(path, doc):
    write_artifact(str(path), doc)

WORKLOADS = ("hashtable", "rbtree")
SCHEMES = ("FG", "SLPMT")


@pytest.fixture(scope="session")
def model(small_doc):
    return CostModel(small_doc)


class TestPredictionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        workload=st.sampled_from(WORKLOADS),
        scheme=st.sampled_from(SCHEMES),
        num_ops=st.integers(min_value=1, max_value=5000),
        value_bytes=st.integers(min_value=1, max_value=4096),
    )
    def test_nonnegative_and_sum_to_total(
        self, model, workload, scheme, num_ops, value_bytes
    ):
        cell = model.predict_cell(
            CellSpec(workload, scheme, num_ops, value_bytes)
        )
        assert cell["cycles"] >= 0.0
        assert cell["pm_bytes"] >= 0.0
        for phase, cycles in cell["phases"].items():
            assert cycles >= 0.0, phase
        # Exact partition, not approx: total is accumulated from the
        # same kept values in the same order.
        assert sum(cell["phases"].values()) == cell["cycles"]

    @settings(max_examples=50, deadline=None)
    @given(
        num_ops=st.integers(min_value=1, max_value=5000),
        value_bytes=st.integers(min_value=1, max_value=4096),
    )
    def test_extrapolation_flag(self, model, num_ops, value_bytes):
        doc_range = model.doc["train_range"]
        cell = model.predict_cell(
            CellSpec("rbtree", "FG", num_ops, value_bytes)
        )
        inside = (
            doc_range["num_ops"][0] <= num_ops <= doc_range["num_ops"][1]
            and doc_range["value_bytes"][0]
            <= value_bytes
            <= doc_range["value_bytes"][1]
        )
        assert cell["extrapolated"] == (not inside)

    def test_phase_keys_are_canonical_order(self, model):
        cell = model.predict_cell(CellSpec("rbtree", "FG", 100, 64))
        order = [p for p in PHASES if p in cell["phases"]]
        assert list(cell["phases"]) == order

    def test_deterministic(self, model):
        spec = CellSpec("hashtable", "SLPMT", 2311, 96)
        assert model.predict_cell(spec) == model.predict_cell(spec)

    def test_unknown_pair_raises(self, model):
        with pytest.raises(KeyError):
            model.predict_cell(CellSpec("hashtable", "ATOM", 100, 64))

    def test_predict_grid_cardinality(self, model):
        cells = model.predict_grid(
            workloads=WORKLOADS,
            schemes=SCHEMES,
            ops_grid=(50, 100, 150),
            value_bytes_grid=(64, 256),
        )
        assert len(cells) == 2 * 2 * 3 * 2
        assert "rbtree/SLPMT/ops150/vb256" in cells


class TestSchemaLockstep:
    def test_good_doc_passes(self, small_doc, tmp_path):
        check_lockstep(small_doc)
        write_doc(tmp_path / "m.json", small_doc)
        assert load_cost_model(tmp_path / "m.json").doc == small_doc

    def test_wrong_version(self, small_doc, tmp_path):
        doc = copy.deepcopy(small_doc)
        doc["schema_version"] += 1
        write_doc(tmp_path / "m.json", doc)
        with pytest.raises(ArtifactError, match="schema_version"):
            load_cost_model(tmp_path / "m.json")

    def test_wrong_kind(self, small_doc, tmp_path):
        doc = copy.deepcopy(small_doc)
        doc["kind"] = "bench"
        write_doc(tmp_path / "m.json", doc)
        with pytest.raises(ArtifactError, match="kind"):
            load_cost_model(tmp_path / "m.json")

    def test_new_profiler_phase_fails_schema(self, small_doc):
        # The satellite guarantee: a phase added to the profiler makes
        # stale artifacts fail loudly.  Simulate by removing one from
        # the doc (equivalent to PHASES growing).
        doc = copy.deepcopy(small_doc)
        doc["phases"].remove("backoff")
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_extra_doc_phase_fails_schema(self, small_doc):
        doc = copy.deepcopy(small_doc)
        doc["phases"].append("mystery-phase")
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_pair_missing_phase_coefficients_fails(self, small_doc):
        doc = copy.deepcopy(small_doc)
        pair = next(iter(doc["models"]))
        del doc["models"][pair]["phase_coefficients"]["execute"]
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_pair_extra_phase_coefficients_fails(self, small_doc):
        doc = copy.deepcopy(small_doc)
        pair = next(iter(doc["models"]))
        doc["models"][pair]["phase_coefficients"]["mystery-phase"] = [
            0.0
        ] * len(FEATURE_NAMES)
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_feature_mismatch_fails(self, small_doc):
        doc = copy.deepcopy(small_doc)
        doc["features"] = doc["features"][:-1]
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_coefficient_arity_fails(self, small_doc):
        doc = copy.deepcopy(small_doc)
        pair = next(iter(doc["models"]))
        doc["models"][pair]["phase_coefficients"]["execute"].append(1.0)
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)

    def test_pm_bytes_arity_fails(self, small_doc):
        doc = copy.deepcopy(small_doc)
        pair = next(iter(doc["models"]))
        doc["models"][pair]["pm_bytes_coefficients"] = [0.0]
        with pytest.raises(ModelSchemaError):
            check_lockstep(doc)


class TestCheckedInArtifact:
    def test_loads_and_passes_schema(self):
        # The committed calibration must stay in lockstep with PHASES
        # and FEATURE_NAMES (check_lockstep runs at load);
        # this is the test that fails when a new profiler phase lands
        # without a refit.
        model = load_cost_model(ARTIFACT)
        assert model.doc["phases"] == list(PHASES)
        assert model.doc["features"] == list(FEATURE_NAMES)

    def test_meets_committed_error_gate(self):
        model = load_cost_model(ARTIFACT)
        assert model.doc["validation"]["geomean_rel_error"] <= 0.05

    def test_covers_full_scheme_matrix(self):
        model = load_cost_model(ARTIFACT)
        assert len(model.doc["models"]) == 24  # 4 workloads x 6 schemes


class TestWriteModel:
    def test_round_trip_byte_stable(self, small_doc, tmp_path):
        path = tmp_path / "m.json"
        write_doc(path, small_doc)
        first = path.read_bytes()
        write_doc(path, load_cost_model(path).doc)
        assert path.read_bytes() == first
        assert first.endswith(b"\n")

    def test_write_rejects_bad_doc(self, small_doc, tmp_path):
        # A doc out of lockstep never round-trips into a usable model:
        # loading it fails naming the file.
        doc = copy.deepcopy(small_doc)
        doc["phases"].append("mystery-phase")
        write_doc(tmp_path / "m.json", doc)
        with pytest.raises(ModelSchemaError, match="m.json"):
            load_cost_model(tmp_path / "m.json")

    def test_json_is_sorted_and_parseable(self, small_doc, tmp_path):
        path = tmp_path / "m.json"
        write_doc(path, small_doc)
        parsed = json.loads(path.read_text())
        assert parsed["kind"] == "cost-model"
