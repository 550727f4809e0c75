"""The shared fuzz CLI rejects malformed campaign input as a usage
error before any cell runs, and a malformed reproducer as one error
line before any replay."""

import json
import re

import pytest

from repro.common.errors import ArtifactError
from repro.fuzz import cli
from repro.fuzz.campaign import generate_ops
from repro.fuzz.minimize import Reproducer

REJECTED = [
    ["--budget", "0"],
    ["--budget", "-5"],
    ["--schemes", "BOGUS"],
    ["--faults", "--schemes", "BOGUS"],
    ["--multicore", "--schemes", "BOGUS"],
    ["--service", "--schemes", "BOGUS"],
    ["--twopc", "--schemes", "SLPMT:sideways"],
    ["--workloads", "nope"],
    ["--faults", "--workloads", "nope"],
    ["--multicore", "--workloads", "inplace"],
    ["--service", "--workloads", "nope"],
    ["--twopc", "--workloads", "inplace"],
    ["--faults", "--fault-kinds", "melt"],
    ["--ops", "0"],
    ["--ops", "-3"],
    ["--multicore", "--ops", "0"],
    ["--multicore", "--ops", "-3"],
    ["--faults", "--ops", "0"],
    ["--faults", "--ops", "-3"],
    ["--multicore", "--num-keys", "0"],
    ["--value-bytes", "7"],
    ["--twopc", "--value-bytes", "0"],
    ["--twopc", "--value-bytes", "128"],
    ["--twopc", "--shards", "9"],
    ["--service", "--value-bytes", "12"],
    ["--service", "--duration", "0"],
    ["--schemes", ""],
    ["--workloads", ""],
    ["--faults", "--fault-kinds", ""],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_bad_campaign_input_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran on rejected input")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    out = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as exc:
        cli.fuzz_main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


CRASH_REPRODUCER = dict(
    workload="hashtable", scheme="SLPMT", policy="manual-buggy-tombstone",
    value_bytes=32, ops=[["insert", 5, 0], ["remove", 5, 0]],
    crash_kind="persist", crash_point=8, violation="x", check="structure",
    fault=None, service=None, twopc=None,
)
TWOPC_REPRODUCER = dict(
    CRASH_REPRODUCER, policy="none", ops=[], crash_kind="step", crash_point=3,
    twopc={"shards": 2, "num_clients": 3, "requests_per_client": 5, "seed": 7},
)
SERVICE_BLOCK = {
    "batch_size": 8, "duration_cycles": None, "locking": False,
    "num_clients": 2, "requests_per_client": 4, "seed": 7,
}


def service_reproducer(**block):
    return dict(
        CRASH_REPRODUCER, policy="none", ops=[], service=dict(SERVICE_BLOCK, **block),
    )


#: ``{probe: (field the error must name, malformed reproducer)}``.
MALFORMED = {
    "unknown scheme": ("scheme", dict(CRASH_REPRODUCER, scheme="BOGUS")),
    "unknown workload": ("workload", dict(CRASH_REPRODUCER, workload="nope")),
    "unknown policy": ("policy", dict(CRASH_REPRODUCER, policy="sloppy")),
    "unknown crash kind": ("crash_kind", dict(CRASH_REPRODUCER, crash_kind="sideways")),
    "string crash point": ("crash_point", dict(CRASH_REPRODUCER, crash_point="8")),
    "negative crash point": ("crash_point", dict(CRASH_REPRODUCER, crash_point=-1)),
    "value bytes 7": ("value_bytes", dict(CRASH_REPRODUCER, value_bytes=7)),
    "twopc without seed": ("twopc", dict(
        TWOPC_REPRODUCER, twopc={"shards": 2, "num_clients": 3, "requests_per_client": 5},
    )),
    "twopc node beyond the shards": ("crash_kind", dict(TWOPC_REPRODUCER, crash_kind="persist:s2")),
    "twopc 9 shards": ("twopc.shards", dict(
        TWOPC_REPRODUCER, twopc=dict(TWOPC_REPRODUCER["twopc"], shards=9),
    )),
    "twopc values wider than a prepare payload": (
        "value_bytes", dict(TWOPC_REPRODUCER, value_bytes=128),
    ),
    "op the workload lacks": ("ops[1]", dict(
        CRASH_REPRODUCER, ops=[["insert", 5, 0], ["extract", 0, 0]],
    )),
    "unknown fault kind": ("fault.kind", dict(
        CRASH_REPRODUCER, crash_kind="fault", fault={"kind": "melt"},
    )),
    "service batch 0": ("service.batch_size", service_reproducer(batch_size=0)),
    "service string duration": (
        "service.duration_cycles", service_reproducer(duration_cycles="200000"),
    ),
    "service duration 0": ("service.duration_cycles", service_reproducer(duration_cycles=0)),
    "service negative duration": (
        "service.duration_cycles", service_reproducer(duration_cycles=-1),
    ),
}
PROBES = list(MALFORMED)


@pytest.mark.parametrize("probe", PROBES)
def test_malformed_reproducer_is_rejected_at_load(probe):
    name, doc = MALFORMED[probe]
    with pytest.raises(ArtifactError, match=re.escape(f"field '{name}'")):
        Reproducer.from_json(json.dumps(doc))


@pytest.mark.parametrize("probe", PROBES)
def test_replaying_a_malformed_reproducer_is_one_line_exit_1(
    probe, tmp_path, capsys, monkeypatch
):
    def no_replay(*args, **kwargs):
        raise AssertionError("a malformed reproducer was replayed")

    monkeypatch.setattr(cli, "replay", no_replay)
    name, doc = MALFORMED[probe]
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(doc))
    assert cli.fuzz_main(["--replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"field '{name}'" in err



def test_fault_beyond_its_entry_is_one_line_exit_2(tmp_path, capsys):
    # Well-formed, but append 3 has only 4 wire words: only the replay
    # can tell, and it says so in one line.
    doc = dict(
        CRASH_REPRODUCER, workload="inplace", policy="manual",
        ops=[list(op) for op in generate_ops("inplace", 4, 7)], crash_kind="fault",
        crash_point=0, fault={"kind": "bit-flip", "append": 3, "word": 999, "bit": 3},
    )
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(doc))
    assert cli.fuzz_main(["--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "word 999 outside" in err
