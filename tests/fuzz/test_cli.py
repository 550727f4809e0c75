"""The shared fuzz CLI rejects malformed campaign input as a usage
error before any cell runs."""

import pytest

from repro.fuzz import cli

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
