"""Shared-key contention: workload, bench cells, crash campaign."""

import pytest

from repro.common.stats import SimStats
from repro.fuzz.campaign import DEFAULT_MULTICORE_CELLS, MultiCoreCell
from repro.fuzz.kernel import run_case, run_cell
from repro.harness.runner import run_contention, run_workload
from repro.multicore.system import MultiCoreSystem
from repro.workloads import HashTable, generate_streams, zipfian_cdf
from repro.workloads.shared import (
    KEY_BASE,
    replay_contention,
    sample_rank,
)


class TestStreams:
    def test_deterministic(self):
        a = generate_streams(3, 20, theta=0.9, num_keys=16, seed=5)
        b = generate_streams(3, 20, theta=0.9, num_keys=16, seed=5)
        assert a == b

    def test_seed_changes_streams(self):
        a = generate_streams(2, 20, theta=0.9, num_keys=16, seed=5)
        b = generate_streams(2, 20, theta=0.9, num_keys=16, seed=6)
        assert a != b

    def test_keys_stay_in_population(self):
        for stream in generate_streams(2, 50, theta=1.2, num_keys=8, seed=1):
            for op in stream:
                assert KEY_BASE <= op.key < KEY_BASE + 8

    def test_values_distinguish_writers(self):
        streams = generate_streams(2, 30, theta=2.0, num_keys=2, seed=3)
        values = {op.value for stream in streams for op in stream}
        # Every (worker, seq) write carries a distinct payload, even on
        # a two-key population where nearly all ops share keys.
        assert len(values) == 60

    def test_skew_concentrates_on_hot_keys(self):
        def hot_share(theta):
            streams = generate_streams(1, 400, theta=theta, num_keys=32, seed=9)
            hits = sum(1 for op in streams[0] if op.key == KEY_BASE)
            return hits / len(streams[0])

        assert hot_share(0.0) < 0.1  # uniform: ~1/32
        assert hot_share(2.0) > 0.4  # zipf head dominates

    def test_zipfian_cdf_properties(self):
        cdf = zipfian_cdf(16, 0.9)
        assert len(cdf) == 16
        assert cdf == sorted(cdf)
        assert cdf[-1] == 1.0
        uniform = zipfian_cdf(4, 0.0)
        assert uniform == pytest.approx([0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ValueError):
            zipfian_cdf(0, 0.5)
        with pytest.raises(ValueError):
            zipfian_cdf(4, -0.1)

    def test_sample_rank_covers_population(self):
        import random

        cdf = zipfian_cdf(4, 0.0)
        rng = random.Random(0)
        ranks = {sample_rank(cdf, rng) for _ in range(200)}
        assert ranks == {0, 1, 2, 3}


class TestRunContention:
    def test_oracle_matches_durable_state(self):
        # run_contention verifies durably by default: this passing IS
        # the oracle == durable check, over every committed key.
        result = run_contention(
            "hashtable", "SLPMT", cores=2, theta=0.9, ops_per_core=30, seed=7
        )
        assert result.commits >= 60  # one tx per op, plus fence cycling
        assert result.conflicts > 0
        assert result.aborts == result.conflicts

    def test_reproducible_from_scalars_alone(self):
        a = run_contention(
            "hashtable", "FG", cores=4, theta=0.9, ops_per_core=20, seed=11
        )
        b = run_contention(
            "hashtable", "FG", cores=4, theta=0.9, ops_per_core=20, seed=11
        )
        assert a == b  # includes cycles, conflict/abort counts, SimStats

    def test_stream_count_must_match_cores(self):
        system = MultiCoreSystem(2, seed=0)
        subject = HashTable(system.runtimes[0], value_bytes=32)
        streams = generate_streams(3, 5, theta=0.0, num_keys=8, seed=0)
        with pytest.raises(ValueError):
            replay_contention(system, subject, streams)


class TestContentionCounters:
    def test_single_core_runs_stay_zero(self):
        # Passivity: the new SimStats counters only fire through the
        # multicore glue, so the single-core bench numbers are untouched.
        result = run_workload("hashtable", _scheme("SLPMT"), num_ops=50)
        assert result.stats.conflicts == 0
        assert result.stats.wound_wait_aborts == 0
        assert result.stats.backoff_turns == 0
        assert result.stats.forced_lazy_by_peer == 0

    def test_multicore_contention_fires_them(self):
        result = run_contention(
            "hashtable", "SLPMT", cores=4, theta=0.9, ops_per_core=30, seed=7
        )
        assert result.stats.conflicts > 0
        assert result.stats.wound_wait_aborts > 0
        assert result.stats.backoff_turns > 0
        assert result.stats.conflicts == result.conflicts

    def test_counters_survive_json_round_trip(self):
        stats = SimStats(conflicts=3, wound_wait_aborts=2, backoff_turns=9)
        again = SimStats.from_json(stats.to_json())
        assert again == stats


class TestMultiCoreCampaign:
    def test_cell_report_is_deterministic(self):
        cell = MultiCoreCell("hashtable", "SLPMT", 2, 0.9)
        a = run_cell(cell, budget=8, seed=7, ops_per_core=4)
        b = run_cell(cell, budget=8, seed=7, ops_per_core=4)
        assert a == b
        assert a.switch_points_run == 8
        assert not a.violations

    def test_case_judges_recovery(self):
        cell = MultiCoreCell("hashtable", "SLPMT", 2, 0.0)
        result = run_case(
            cell, "switch", 40, ops_per_core=4, num_keys=16, value_bytes=32,
            seed=7, config=_stress(),
        )
        assert result.crashed
        assert result.violation is None

    def test_default_grid_covers_the_issue_matrix(self):
        cores = {c.cores for c in DEFAULT_MULTICORE_CELLS}
        thetas = {c.theta for c in DEFAULT_MULTICORE_CELLS}
        schemes = {c.scheme for c in DEFAULT_MULTICORE_CELLS}
        assert cores == {1, 2, 4}
        assert thetas == {0.0, 0.9}
        assert {"FG", "SLPMT"} <= schemes

    def test_cell_key_format(self):
        cell = MultiCoreCell("hashtable", "FG+LZ", 4, 0.9)
        assert str(cell) == "hashtable/FG+LZ/c4/t0.9"
        assert str(MultiCoreCell("hashtable", "FG", 2, 0.0)) == (
            "hashtable/FG/c2/t0"
        )


def _scheme(name):
    from repro.core.schemes import scheme_by_name

    return scheme_by_name(name)


def _stress():
    from repro.fuzz.campaign import STRESS_CONFIG

    return STRESS_CONFIG
