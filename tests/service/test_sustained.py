"""Sustained campaign runs: sharded populations, ordered merge,
serial == --jobs N byte-equality, artifact round-trip."""

import json

import pytest

from repro.common.errors import ArtifactError
from repro.obs.bench import SCHEMA_VERSION, SPECS, strip_host, write_artifact
from repro.service.sustained import format_sustained, run_sustained

SUSTAINED = SPECS["sustained"]

#: Small but misaligned shape: 60_000 / 4096 = 14.65 windows, so the
#: final telemetry window straddles the horizon in every population.
SHAPE = dict(
    populations=3,
    clients_per_population=2,
    duration_cycles=60_000,
    window_cycles=4096,
    arrival_cycles=1200,
    num_keys=32,
    seed=13,
)


@pytest.fixture(scope="module")
def serial_doc():
    return run_sustained(**SHAPE)


class TestRun:
    def test_population_slices_cover_the_client_space(self, serial_doc):
        pops = serial_doc["per_population"]
        assert len(pops) == 3
        assert [p["client_base"] for p in pops] == [0, 2, 4]
        assert all(p["requests"] > 0 for p in pops)
        assert serial_doc["params"]["num_clients"] == 6

    def test_totals_fold_per_population_counters(self, serial_doc):
        for field in ("requests", "acked", "reads", "committed_writes"):
            assert serial_doc["totals"][field] == sum(
                p[field] for p in serial_doc["per_population"]
            )

    def test_steady_series_clipped_to_full_windows(self, serial_doc):
        # 14 full windows fit the horizon; the straddled 15th (and the
        # post-horizon drain) must be clipped from the quoted series.
        steady = serial_doc["steady"]
        assert steady["horizon_cycles"] == 60_000
        full = 60_000 // steady["window_cycles"]
        assert steady["windows_total"] == full
        assert steady["window_hi"] <= full

    def test_schema_and_sha_present(self, serial_doc):
        assert serial_doc["schema_version"] == SCHEMA_VERSION
        assert len(serial_doc["telemetry_sha256"]) == 64
        assert serial_doc["kind"] == "sustained"


class TestMergeEquivalence:
    def test_jobs_run_is_byte_identical_to_serial(self, serial_doc):
        split = run_sustained(**SHAPE, jobs=2)
        a = json.dumps(strip_host(serial_doc), sort_keys=True)
        b = json.dumps(strip_host(split), sort_keys=True)
        assert a == b

    def test_seed_moves_the_telemetry_sha(self, serial_doc):
        other = run_sustained(**{**SHAPE, "seed": 14})
        assert other["telemetry_sha256"] != serial_doc["telemetry_sha256"]


class TestArtifact:
    def test_write_load_roundtrip(self, serial_doc, tmp_path):
        path = tmp_path / "sustained.json"
        write_artifact(str(path), serial_doc)
        loaded, kwargs = SUSTAINED.load(str(path))
        assert strip_host(loaded) == strip_host(serial_doc)
        # The recorded params read back to this run's shape.
        assert {k: kwargs[k] for k in SHAPE} == SHAPE

    def test_load_rejects_wrong_schema(self, serial_doc, tmp_path):
        stale = dict(serial_doc)
        stale["schema_version"] = SCHEMA_VERSION - 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(stale))
        with pytest.raises(ArtifactError, match="schema_version"):
            SUSTAINED.load(str(path))

    def test_format_mentions_the_headline_numbers(self, serial_doc):
        text = format_sustained(serial_doc)
        assert "populations" in text
        assert str(serial_doc["totals"]["requests"]) in text
