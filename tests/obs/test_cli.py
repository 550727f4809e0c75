"""CLI smoke tests: python -m repro obs / bench."""

import json

import pytest

from repro.__main__ import main
from repro.obs import bench
from repro.obs.cli import bench_main, obs_main


class TestObsCli:
    def test_stats(self, capsys):
        assert main(["obs", "stats", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "execute" in out

    def test_stats_json_snapshot(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert obs_main(["stats", "--ops", "40", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["workload"] == "hashtable"
        assert doc["cycles"] > 0
        assert sum(doc["profile"]["phase_cycles"].values()) == doc["cycles"]

    def test_hist(self, capsys):
        assert obs_main(["hist", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert "tx_latency" in out
        assert "p99" in out

    def test_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "events.jsonl"
        rc = obs_main(
            [
                "trace", "--cores", "2", "--ops", "5",
                "--out", str(out_path), "--jsonl", str(jsonl_path),
            ]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert jsonl_path.exists()

    def test_diff(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        obs_main(["stats", "--ops", "30", "--json", str(a)])
        obs_main(["stats", "--ops", "50", "--json", str(b)])
        capsys.readouterr()
        assert obs_main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert obs_main(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_passivity_gate(self, capsys):
        assert obs_main(["passivity", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert out.count("passive:") == 3

    def test_telemetry_passivity_gate(self, capsys):
        assert obs_main(["passivity", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert out.count("passive:") == 2
        assert "merge: split-vs-serial telemetry byte-identical" in out


class TestBenchCli:
    def test_sweep_prints_geomeans(self, tmp_path, capsys, monkeypatch):
        rc = bench_main(["--ops", "40", "--name", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLPMT" in out and "geomean" in out

    def test_update_then_check(self, tmp_path, capsys):
        path = tmp_path / "BENCH_smoke.json"
        assert bench_main(
            ["--ops", "40", "--baseline", str(path), "--update"]
        ) == 0
        # --check regenerates at the params recorded in the artifact.
        assert bench_main(["--baseline", str(path), "--check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_inflated_baseline(self, tmp_path, capsys):
        # Shrink the stored baseline so the fresh run looks like a
        # regression: the gate must exit non-zero.
        path = tmp_path / "BENCH_smoke.json"
        bench_main(["--ops", "40", "--baseline", str(path), "--update"])
        doc = bench.load_artifact(str(path))
        for cell in doc["cells"].values():
            cell["cycles"] = int(cell["cycles"] * 0.80)
        for geo in doc["geomean"].values():
            geo["cycles"] = round(geo["cycles"] * 0.80, 1)
        bench.write_artifact(str(path), doc)
        capsys.readouterr()
        rc = bench_main(["--baseline", str(path), "--check"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_rejects_mismatched_params(self, tmp_path, capsys):
        # A shape override cannot be combined with --check (which runs at
        # the artifact's params): a usage error before any cell runs.
        path = tmp_path / "BENCH_smoke.json"
        bench_main(["--ops", "40", "--baseline", str(path), "--update"])
        with pytest.raises(SystemExit) as exc:
            bench_main(["--ops", "41", "--baseline", str(path), "--check"])
        assert exc.value.code == 2
        assert "--check regenerates" in capsys.readouterr().err
