"""Campaign-engine mechanics: determinism, budgets, hazard detection,
shrinking and reproducer round-trips."""

import pytest

from repro.fuzz.campaign import (
    CRASH,
    DEFAULT_CELLS,
    FuzzCell,
    ServiceCell,
    baseline_states,
    generate_ops,
)
from repro.fuzz.kernel import (
    CampaignResult,
    play,
    run_campaign,
    run_case,
    run_cell,
    shared_knobs,
    violation,
)
from repro.fuzz.minimize import Reproducer, minimize, replay
from repro.fuzz.report import format_report

HAZARD_CELL = FuzzCell("hashtable", "SLPMT", "manual-buggy-tombstone")


@pytest.mark.fuzz
def test_campaign_is_deterministic():
    cells = [FuzzCell("hashtable", "SLPMT", "manual")]
    first = run_campaign(budget=40, seed=3, cells=cells, num_ops=6)
    second = run_campaign(budget=40, seed=3, cells=cells, num_ops=6)
    assert format_report(first) == format_report(second)
    assert first.total_cases == second.total_cases > 0


@pytest.mark.fuzz
def test_cell_budget_is_respected():
    cell = FuzzCell("hashtable", "SLPMT", "manual")
    report = run_cell(cell, budget=8, seed=3, num_ops=10)
    # 3/4 of the budget goes to durability-event points, the rest to
    # instruction boundaries; this cell has far more of both than 8.
    assert not report.exhaustive
    assert report.persist_points_run == 6
    assert report.instr_points_run == 2
    assert report.cases_run == 8
    assert report.persist_points_total > report.persist_points_run
    assert report.instr_points_total > report.instr_points_run


@pytest.mark.fuzz
def test_default_grid_covers_all_subjects_and_schemes():
    workloads = {cell.workload for cell in DEFAULT_CELLS}
    schemes = {cell.scheme for cell in DEFAULT_CELLS}
    assert "inplace" in workloads and "hashtable" in workloads
    assert schemes == {"FG", "FG+LG", "FG+LZ", "SLPMT"}


@pytest.mark.fuzz
def test_baseline_states_track_committed_prefixes():
    ops = generate_ops("hashtable", 6, 3)
    states = baseline_states("hashtable", ops)
    assert len(states) == len(ops) + 1
    assert states[0] == ()  # empty structure before any op
    inserted = {op[1] for op in ops if op[0] == "insert"}
    final_keys = {key for key, _value in states[-1]}
    assert final_keys <= inserted


@pytest.mark.fuzz
def test_run_case_without_crash_verifies_cleanly():
    ops = generate_ops("hashtable", 6, 3)
    cell = FuzzCell("hashtable", "SLPMT", "manual")
    result = run_case(cell, "persist", 10**9, seed=3, ops=ops)
    assert not result.crashed
    assert result.violation is None
    run = CRASH.build(cell, 3, shared_knobs(cell, seed=3, ops=ops))
    assert play(CRASH, run, "persist", 10**9) == result
    assert run.committed == len(ops)
    assert run.oplog.total_commits > 0


@pytest.mark.fuzz
def test_hazard_is_caught_minimized_and_replayed():
    """The Section IV-A mis-annotated tombstone must be caught by the
    exhaustive sweep, shrink to a smaller reproducer, and replay to the
    identical violation (the ISSUE's acceptance scenario)."""
    ops = generate_ops("hashtable", 10, 7)
    report = run_cell(
        HAZARD_CELL,
        budget=10**6,
        seed=7,
        ops=ops,
        persist_budget=10**6,
        instr_budget=0,
    )
    assert report.violations, "the mis-annotated tombstone went undetected"

    rep = Reproducer.from_violation(report.violations[0], seed=7, ops=ops)
    shrunk = minimize(rep)
    assert len(shrunk.ops) <= len(rep.ops)
    assert shrunk.crash_point <= rep.crash_point
    # A tombstone bug needs a remove; shrinking must not lose it.
    assert any(op[0] == "remove" for op in shrunk.ops)

    replayed = replay(shrunk)
    assert replayed.violation == shrunk.violation
    assert replayed.check == shrunk.check


@pytest.mark.fuzz
def test_reproducer_json_round_trip():
    rep = Reproducer(
        workload="hashtable",
        scheme="SLPMT",
        policy="manual-buggy-tombstone",
        value_bytes=32,
        ops=[["insert", 5, 0], ["remove", 5, 0]],
        crash_kind="persist",
        crash_point=8,
        violation="x",
        check="structure",
    )
    assert Reproducer.from_json(rep.to_json()) == rep


@pytest.mark.fuzz
def test_duration_mode_service_violation_round_trips():
    """A duration-mode service reproducer keeps its horizon: frozen,
    written, read back and replayed, it serves the same timed traffic
    and reports the same violation as the campaign case it came from."""
    cell = ServiceCell("multistruct", "FG", 8, locking=True)
    knobs = dict(num_clients=3, duration_cycles=200_000)
    found = run_case(cell, "persist", 2505, seed=7, **knobs)
    # This case trips the multistruct FG undo defect pinned in
    # test_kernel.py; the round trip must hold whatever the verdict.
    rep = Reproducer.from_violation(
        violation(cell, "persist", 2505, found.check, found.violation or ""),
        seed=7,
        **knobs,
    )
    assert rep.service["duration_cycles"] == 200_000
    back = Reproducer.from_json(rep.to_json())
    assert back == rep
    assert replay(back) == found


@pytest.mark.fuzz
def test_correct_policy_passes_where_buggy_policy_fails():
    """Differential control: the same ops/crash sweep that catches the
    buggy tombstone policy is clean under the correct annotations."""
    ops = generate_ops("hashtable", 10, 7)
    good = run_cell(
        FuzzCell("hashtable", "SLPMT", "manual"),
        budget=10**6,
        seed=7,
        ops=ops,
        persist_budget=10**6,
        instr_budget=0,
    )
    assert good.violations == []


@pytest.mark.fuzz
def test_service_cell_reports_steady_telemetry():
    """The service campaign's clean run carries windowed telemetry:
    every cell report quotes a steady window range and throughput, and
    the table renders them."""
    from repro.fuzz.campaign import SERVICE, ServiceCell, run_service_cell

    knobs = dict(num_clients=3, requests_per_client=10)
    report = run_service_cell(
        ServiceCell("hashtable", "SLPMT", 8), budget=4, seed=7, **knobs
    )
    assert report.windows > 0
    assert 0 <= report.window_lo < report.window_hi <= report.windows
    assert report.steady_kcyc > 0
    result = CampaignResult(
        "service", budget=4, seed=7, knobs={**SERVICE.knobs, **knobs},
        cells=[report],
    )
    text = format_report(result)
    assert "steady-win" in text and "kcyc" in text
    assert f"{report.window_lo}..{report.window_hi}/{report.windows}" in text
