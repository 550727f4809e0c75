"""The bench registry: every mode runs through one sweep, gate,
equivalence proof and artifact I/O; flags a mode does not honour and
unreadable artifacts fail before any cell runs; CI runs exactly the
registry."""

import json
import re
from pathlib import Path

import pytest

from repro.model.cli import model_main
from repro.obs.bench import SPECS, drift_gate, strip_host, write_artifact
from repro.obs.cli import bench_main, obs_main

REPO = Path(__file__).resolve().parents[2]

#: Per mode: CLI overrides that shrink it to about a second.
TINY = {
    "slpmt_ycsb": ["--ops", "20"],
    "multicore": ["--cores", "1,2", "--thetas", "0.9", "--ops", "8"],
    "service": ["--duration", "20000"],
    "twopc": ["--spans", "2"],
    "curves": ["--duration", "20000"],
    "sustained": ["--duration", "60000"],
    "model": [
        "--spot-checks", "1",
        "--model-path", str(REPO / "benchmarks" / "results" / "cost_model.json"),
    ],
}


def _flag(spec):
    return [spec.flag] if spec.flag else []


def _nudge(name, doc):
    """Halve one simulated number of *doc*; returns its path."""
    if name == "curves":
        path = ("points", 0, "p95")
    elif name == "sustained":
        path = ("totals", "acked")
    else:
        path = ("cells", next(iter(doc["cells"])), "cycles")
    node = doc
    for part in path[:-1]:
        node = node[part]
    assert node[path[-1]] > 1
    node[path[-1]] //= 2
    return path


def _checked_in():
    return {
        spec.name: (REPO / spec.path()).read_bytes()
        for spec in SPECS.values()
        if spec.artifact
    }


def test_every_spec_has_a_tiny_shape():
    assert set(TINY) == set(SPECS)


@pytest.mark.parametrize("name", list(SPECS))
def test_spec_runs_gates_and_proves(name, tmp_path, capsys):
    spec = SPECS[name]
    args = _flag(spec) + TINY[name]
    serial, jobs2 = tmp_path / "serial.json", tmp_path / "jobs2.json"
    assert bench_main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert bench_main(args + ["--jobs", "2", "--out", str(jobs2)]) == 0
    assert strip_host(json.loads(serial.read_text())) == strip_host(
        json.loads(jobs2.read_text())
    )
    if spec.artifact is None:
        return

    pinned = tmp_path / "pinned.json"
    assert bench_main(args + ["--baseline", str(pinned), "--update"]) == 0
    check = _flag(spec) + ["--baseline", str(pinned), "--check"]
    assert bench_main(check) == 0

    doc = json.loads(pinned.read_text())
    path = _nudge(name, doc)
    write_artifact(str(pinned), doc)
    capsys.readouterr()
    assert bench_main(check) == 1
    out = capsys.readouterr()
    if spec.gate is drift_gate:
        assert f"REGRESSION {path[0]}/{path[1]} {path[2]}" in out.out
    else:
        assert ".".join(map(str, path)) in out.err

    if spec.equivalence and not spec.reduced:
        rc = obs_main(
            ["equivalence"] + _flag(spec)
            + ["--jobs", "2", "--baseline", str(pinned)]
        )
        out = capsys.readouterr()
        assert rc == 1
        assert "byte-identical to serial" in out.out
        assert f"vs {pinned}: " + ".".join(map(str, path)) in out.err


# ----------------------------------------------------------------------
# usage errors: exit 2, nothing runs, nothing is written
# ----------------------------------------------------------------------

REJECTED_BENCH = [
    ["--model", "--check", "--update"],
    ["--twopc", "--check", "--update"],
    ["--check", "--update"],
    ["--service", "--ops", "5", "--check"],
    ["--service", "--duration", "50000", "--check"],
    ["--service", "--ops", "5"],
    ["--service", "--value-bytes", "64"],
    ["--curves", "--target-load", "1.0"],
    ["--curves", "--name", "x"],
    ["--sustained", "--spans", "2"],
    ["--model", "--baseline", "{tmp}/x.json"],
    ["--model", "--update"],
    ["--model", "--check"],
    ["--model", "--duration", "1000"],
    ["--spans", "2"],
    ["--cores", "1,2"],
    ["--twopc", "--cores", "1"],
    ["--multicore", "--service"],
    ["--seed", "5", "--check"],
    ["--multicore", "--cores", "2", "--check"],
    ["--curves", "--duration", "200000", "--check"],
    ["--max-error", "0.1"],
    ["--multicore", "--cores", "two"],
    ["--best-of", "3"],
    ["--threshold", "0.05"],
]

REJECTED_EQUIVALENCE = [
    ["--model", "--baseline", "/nonexistent.json"],
    ["--sustained", "--baseline", "{tmp}/x.json"],
    ["--curves"],
    ["--model", "--sustained"],
]


@pytest.mark.parametrize(
    "argv", REJECTED_BENCH, ids=lambda argv: " ".join(argv)
)
def test_bench_usage_error(argv, tmp_path, capsys):
    before = _checked_in()
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        bench_main(argv + ["--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert _checked_in() == before


@pytest.mark.parametrize(
    "argv", REJECTED_EQUIVALENCE, ids=lambda argv: " ".join(argv)
)
def test_equivalence_usage_error(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        obs_main(["equivalence"] + argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--curves", "--sustained"])
def test_update_honours_baseline(mode, tmp_path, capsys):
    # Both used to ignore --baseline and overwrite the checked-in file.
    before = _checked_in()
    target = tmp_path / "x.json"
    duration = "200000" if mode == "--curves" else "60000"
    rc = bench_main(
        [mode, "--baseline", str(target), "--update", "--duration", duration]
    )
    assert rc == 0
    assert json.loads(target.read_text())["kind"] == SPECS[mode[2:]].kind
    assert (tmp_path / "x.tsv").exists() == (mode == "--curves")
    assert _checked_in() == before


def test_check_honours_baseline(tmp_path, capsys):
    # Used to check against the default file and pass.
    missing = tmp_path / "nonexistent.json"
    assert bench_main(["--curves", "--baseline", str(missing), "--check"]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and err.count("\n") == 1


# ----------------------------------------------------------------------
# unreadable artifacts: one stderr line naming the file, exit 1, before
# any cell runs
# ----------------------------------------------------------------------


def _bad_artifact(source, damage, tmp_path):
    path = tmp_path / "bad.json"
    text = (REPO / source).read_text()
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage in ("schema_version", "kind"):
        doc = json.loads(text)
        doc[damage] = 99 if damage == "schema_version" else "bogus"
        path.write_text(json.dumps(doc))
    return path


DAMAGE = ["missing", "truncated", "schema_version", "kind"]
COMMANDS = {
    "bench --check": (
        "BENCH_slpmt_ycsb.json",
        lambda path: bench_main(["--baseline", str(path), "--check"]),
    ),
    "obs equivalence": (
        "BENCH_slpmt_ycsb.json",
        lambda path: obs_main(["equivalence", "--baseline", str(path)]),
    ),
    "model fit --check": (
        "benchmarks/results/cost_model.json",
        lambda path: model_main(["fit", "--check", "--out", str(path)]),
    ),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_unreadable_artifact(command, damage, tmp_path, capsys):
    source, run = COMMANDS[command]
    path = _bad_artifact(source, damage, tmp_path)
    assert run(path) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert str(path) in lines[0]
    if damage in ("schema_version", "kind"):
        assert repr(damage) in lines[0]
    assert captured.out == ""


# ----------------------------------------------------------------------
# CI and the checked-in artifacts match the registry
# ----------------------------------------------------------------------


def test_ci_artifacts_matrix_is_the_registry():
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = re.search(r"^  artifacts:\n(.*?)(?=^  \S)", text, re.M | re.S)
    assert job, "ci.yml has no artifacts job"
    entries = re.findall(
        r"- artifact: (\S+)\n\s+flag: \"?([^\"\n]*)\"?", job.group(1)
    )
    assert [name for name, _ in entries] == list(SPECS)
    for name, flag in entries:
        assert flag == (SPECS[name].flag or "")


def test_every_root_bench_artifact_is_registered():
    registered = {spec.path() for spec in SPECS.values() if spec.artifact}
    found = {path.name for path in REPO.glob("BENCH_*.json")}
    assert found and found <= registered
