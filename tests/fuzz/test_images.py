"""Crash images from one recording pass, checked against the replay.

Every campaign case is judged from an image captured while one
recording pass runs (:func:`repro.fuzz.kernel.run_cases`).  These tests
pin that path to the reference it replaced — :func:`~repro.fuzz.kernel.
play`, which rebuilds the subject, re-executes the prefix and judges
the live crashed run — case by case, check that the cell's one shell
judges a case after others as it judges it alone, and check that
capturing and judging leave the recording pass itself untouched.
"""

import random

import pytest

from repro.fuzz.campaign import FuzzCell, MultiCoreCell, ServiceCell, generate_ops
from repro.fuzz.faultcampaign import FaultCell
from repro.fuzz.kernel import (
    FAMILIES,
    Probe,
    clean_run,
    family_of,
    play,
    run_case,
    run_cases,
    shared_knobs,
)
from repro.fuzz.twopc import TwoPCCell
from repro.recovery.engine import recover

pytestmark = pytest.mark.fuzz

SEED = 7

#: One small cell per family and pool kind, with knobs that keep a
#: replayed case cheap.
CELLS = [
    (FuzzCell("hashtable", "SLPMT", "manual"), dict(num_ops=6)),
    (FuzzCell("rbtree", "FG+LZ", "manual"), dict(num_ops=6)),
    (FuzzCell("inplace", "SLPMT", "manual"), dict(num_ops=6)),
    (FaultCell("hashtable", "SLPMT", "torn-tail"), dict(num_ops=4)),
    (FaultCell("rbtree", "SLPMT:redo", "bit-flip"), dict(num_ops=4)),
    (FaultCell("dlist", "SLPMT", "drop-drains"), dict(num_ops=4)),
    (MultiCoreCell("hashtable", "SLPMT", 2, 0.9), dict(ops_per_core=4)),
    (ServiceCell("hashtable", "SLPMT", 1), dict(num_clients=3, requests_per_client=6)),
    (ServiceCell("multistruct", "FG", 8, locking=True),
     dict(num_clients=3, requests_per_client=6)),
    (TwoPCCell("hashtable", "SLPMT", 2, "crash"), dict(num_clients=3, requests_per_client=5)),
    (TwoPCCell("hashtable", "FG", 3, "torn-decision"),
     dict(num_clients=3, requests_per_client=5)),
]
IDS = [str(cell) for cell, _ in CELLS]


def sample(cell, knobs, per_kind=6):
    """A seeded sample of every pool kind of the cell's crash space at
    the family's default budget (2PC persist points per node, media
    faults per fault kind), in crash-space order."""
    family = family_of(cell)
    shared = shared_knobs(cell, seed=SEED, **knobs)
    pools = family.crash_space(
        cell, SEED, family.budget, shared, clean_run(cell, seed=SEED, **shared)
    )
    cases = [pool.case(point) for pool in pools for point in pool.points]
    by_kind = {}
    for kind, point in cases:
        by_kind.setdefault(point["kind"] if kind == "fault" else kind, []).append((kind, point))
    rng = random.Random(f"images:{cell}")
    picked = []
    for group in by_kind.values():
        picked.extend(rng.sample(group, min(per_kind, len(group))))
    return sorted(picked, key=cases.index)


def replayed(cell, cases, **knobs):
    family = family_of(cell)
    knobs = shared_knobs(cell, seed=SEED, **knobs)
    return [
        play(family, family.build(cell, SEED, knobs), kind, point)
        for kind, point in cases
    ]


def machines(run):
    """Every machine of a built run (a multi-core system's cores share
    one PM)."""
    if hasattr(run, "all_machines"):
        return [machine for _, machine in run.all_machines()]
    if hasattr(run, "system"):
        return list(run.system.cores)
    return [run.machine]


def counters(run):
    return [
        (m.wpq.total_inserts, m.stats.instructions, m.now, m.stats.pm_bytes_written)
        for m in machines(run)
    ]


def test_every_family_is_covered():
    assert {family_of(cell).name for cell, _ in CELLS} == set(FAMILIES)


@pytest.mark.parametrize("cell, knobs", CELLS, ids=IDS)
def test_image_path_equals_replay_case_by_case(cell, knobs):
    cases = sample(cell, knobs)
    assert cases
    images = run_cases(cell, cases, seed=SEED, **knobs)
    assert images == replayed(cell, cases, **knobs)
    assert all(result.crashed for result in images)


def test_point_beyond_the_run_settles_like_the_replay():
    cell, knobs = CELLS[0]
    cases = [("persist", 3), ("persist", 10**9), ("instr", 10**9)]
    images = run_cases(cell, cases, seed=SEED, **knobs)
    assert images == replayed(cell, cases, **knobs)
    assert [result.crashed for result in images] == [True, False, False]


def test_violations_read_the_same_on_both_paths():
    # The deliberate §IV-A hazard violates at persist points 13, 14, 45
    # and 46 of this op sequence; both paths must agree around them.
    cell = FuzzCell("hashtable", "SLPMT", "manual-buggy-tombstone")
    cases = [("persist", point) for point in (12, 13, 14, 44, 45, 46, 47)]
    knobs = dict(ops=generate_ops("hashtable", 10, SEED))
    images = run_cases(cell, cases, seed=SEED, **knobs)
    assert images == replayed(cell, cases, **knobs)
    assert [r.violation is not None for r in images] == [False, True, True, False, True, True, False]


@pytest.mark.parametrize("scheme, point", [("SLPMT", 14), ("FG", 26)])
def test_pinned_batch8_defect_reads_the_same_on_both_paths(scheme, point):
    # Points where a batch-8 undo duplicate would show (see
    # test_kernel.py): both paths must read them clean, alike.
    cell = ServiceCell("hashtable", scheme, 8)
    case = [("persist", point)]
    (image,) = run_cases(cell, case, seed=5)
    family = family_of(cell)
    knobs = shared_knobs(cell, seed=5)
    reference = play(family, family.build(cell, 5, knobs), "persist", point)
    assert image.violation is None
    assert image == reference


SEQUENCES = [(cell, knobs, SEED, None) for cell, knobs in CELLS] + [
    # Case 6 crashes with a global transaction in flight (it writes key
    # 1023 on s0), case 70 with none: a shell that kept case 6's
    # transaction would fold its stale write into s0's oracle at
    # recovery and report a false differential violation on key 1023.
    (TwoPCCell("hashtable", "SLPMT", 2, "crash"), {}, SEED,
     [("persist:s1", 6), ("persist:s1", 70)]),
    # The batch-8 points around 14 and 26 (above) read as they do
    # alone after other cases on one shell.
    (ServiceCell("hashtable", "SLPMT", 8), {}, 5,
     [("persist", point) for point in range(10, 17)]),
    (ServiceCell("hashtable", "FG", 8), {}, 5,
     [("persist", point) for point in range(22, 29)]),
]
SEQUENCE_IDS = IDS + [
    "2pc/hashtable/SLPMT/s2/crash@7:stale-gtx",
    "svc/hashtable/SLPMT/b8@5:persist-10..16",
    "svc/hashtable/FG/b8@5:persist-22..28",
]


@pytest.mark.parametrize("cell, knobs, seed, cases", SEQUENCES, ids=SEQUENCE_IDS)
def test_cases_judged_in_sequence_equal_each_judged_alone(cell, knobs, seed, cases):
    """One shell judges every case of a recording pass: each image must
    wholly replace the last, so a case judged after others reads as it
    does on a shell of its own."""
    cases = cases or sample(cell, knobs)
    assert run_cases(cell, cases, seed=seed, **knobs) == [
        run_case(cell, kind, point, seed=seed, **knobs) for kind, point in cases
    ]


@pytest.mark.parametrize("cell, knobs", CELLS, ids=IDS)
def test_recording_pass_equals_the_clean_run(cell, knobs, monkeypatch):
    """Judging every sampled case on the shell leaks nothing into the
    live run: per machine, the recording pass makes the clean run's
    durability events, instructions, cycles and PM bytes."""
    family = family_of(cell)
    shared = shared_knobs(cell, seed=SEED, **knobs)
    cases = sample(cell, knobs)
    clean = family.build(cell, SEED, shared)
    family.execute(clean)

    built = []
    build = family.build

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(family, "build", spy)
    run_cases(cell, cases, seed=SEED, **shared)
    assert len(built) == 2  # the recording run and the cell's one shell
    assert counters(built[0]) == counters(clean)


def _data_words(pm):
    """The heap's non-zero words (the log region has its own store)."""
    return {addr: value for addr, value in pm._words.items() if value}


UNDAMAGED = [(cell, knobs) for cell, knobs in CELLS if not isinstance(cell, FaultCell)] + [
    (TwoPCCell("hashtable", "SLPMT", 3, "crash"), dict(num_clients=3, requests_per_client=5)),
]


@pytest.mark.parametrize("cell, knobs", UNDAMAGED, ids=[str(cell) for cell, _ in UNDAMAGED])
def test_captured_images_recover_alike_from_log_and_bytes(cell, knobs):
    """Undamaged images, straight off the probes (no family judge):
    recovery from the structural log and from the serialized bytes must
    leave the same data words."""
    family = family_of(cell)
    shared = shared_knobs(cell, seed=SEED, **knobs)
    run = family.build(cell, SEED, shared)
    checked = []

    def capture(clock, entry=None):
        for machine in {id(m.pm): m for m in machines(run)}.values():
            mode = machine.scheme.logging_mode
            structural, serialized = machine.pm.snapshot(), machine.pm.snapshot()
            assert structural._indexed  # undamaged: recovery reads the index
            serialized._indexed = False
            recover(structural, mode=mode)
            recover(serialized, mode=mode)
            assert _data_words(structural) == _data_words(serialized), (cell, clock)
        checked.append(clock)

    sites = {}
    for kind, point in sample(cell, knobs):
        site, clock = family.site(kind, point)
        sites.setdefault(site, set()).add(clock)
    for site, clocks in sites.items():
        family.probe(run, site, Probe(clocks, capture))
    family.execute(run)
    assert len(checked) == sum(len(clocks) for clocks in sites.values())
