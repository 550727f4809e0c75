"""The layer rollup partitions profiled time and passes its sum check."""

import cProfile
import dataclasses
import time

import pytest

import layers

CORE = ("/x/src/repro/core/machine.py", 10, "exec_store")
MEM = ("/x/src/repro/mem/cache.py", 20, "lookup")
HARNESS = ("/x/src/repro/harness/runner.py", 5, "run_workload")
BENCH = ("/x/benchmarks/e2e/suite.py", 1, "run_pass")
BUILTIN = ("~", 0, "<built-in method builtins.len>")
STDLIB = ("/usr/lib/python3.11/copy.py", 7, "deepcopy")


def _synthetic():
    """A profile of 10 s: core 4 s, mem 2 s, harness 0.5 s, bench 0.5 s,
    plus a builtin (1.5 s) called 2:1 by core and mem, and a stdlib
    function (1.5 s) called only through the builtin's caller chain."""
    return {
        BENCH: (1, 1, 0.5, 10.0, {}),
        HARNESS: (1, 1, 0.5, 9.5, {BENCH: (1, 1, 0.5, 9.5)}),
        CORE: (100, 100, 4.0, 7.0, {HARNESS: (100, 100, 4.0, 7.0)}),
        MEM: (50, 50, 2.0, 2.5, {CORE: (50, 50, 2.0, 2.5)}),
        BUILTIN: (30, 30, 1.5, 1.5, {CORE: (20, 20, 1.0, 1.0), MEM: (10, 10, 0.5, 0.5)}),
        STDLIB: (6, 6, 1.5, 1.5, {BUILTIN: (6, 6, 1.5, 1.5), STDLIB: (2, 2, 0.3, 0.3)}),
    }


def test_owner():
    assert layers.owner(CORE[0]) == "core"
    assert layers.owner(HARNESS[0]) == "other"
    assert layers.owner("/x/src/repro/__init__.py") == "other"
    assert layers.owner(BENCH[0]) == "bench"
    assert layers.owner(STDLIB[0]) is None
    assert layers.owner("~") is None


def test_synthetic_profile_rolls_up_and_sums():
    out = layers.rollup(_synthetic(), wall_s=10.0)
    # The builtin and the stdlib function each split 2:1 core:mem.
    assert out["core.self_s"] == pytest.approx(4.0 + 1.0 + 1.0)
    assert out["mem.self_s"] == pytest.approx(2.0 + 0.5 + 0.5)
    assert out["other.self_s"] == pytest.approx(0.5)
    assert out["bench.self_s"] == pytest.approx(0.5)
    assert out["core.calls"] == 100 + 20 + 4
    assert sum(out[f"{l}.share"] for l in layers.LAYERS) == pytest.approx(1.0)
    assert out["trace.sum_err"] == pytest.approx(0.0)


def test_sum_check_reports_unaccounted_time():
    out = layers.rollup(_synthetic(), wall_s=10.5)
    assert out["trace.sum_err"] == pytest.approx(0.5 / 10.5)


def test_mutually_recursive_outside_code_is_charged_to_its_outside_callers():
    # deepcopy <-> _deepcopy_dict, entered from core (3 s) and mem (1 s).
    deepcopy = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
    helper = ("/usr/lib/python3.11/copy.py", 227, "_deepcopy_dict")
    stats = {
        CORE: (1, 1, 1.0, 9.0, {}),
        MEM: (1, 1, 1.0, 3.0, {}),
        deepcopy: (40, 40, 4.0, 10.0, {
            CORE: (3, 3, 3.0, 8.0), MEM: (1, 1, 1.0, 2.0), helper: (36, 36, 0.0, 0.0),
        }),
        helper: (36, 36, 4.0, 6.0, {deepcopy: (36, 36, 4.0, 6.0)}),
    }
    out = layers.rollup(stats, wall_s=10.0)
    assert out["core.self_s"] == pytest.approx(1.0 + 0.75 * 8.0)
    assert out["mem.self_s"] == pytest.approx(1.0 + 0.25 * 8.0)
    assert out["bench.self_s"] == 0.0


def test_orphan_outside_code_is_charged_to_bench():
    stats = {STDLIB: (1, 1, 2.0, 2.0, {})}
    out = layers.rollup(stats, wall_s=2.0)
    assert out["bench.self_s"] == pytest.approx(2.0)


@dataclasses.dataclass
class _A:
    x: int


@dataclasses.dataclass
class _B:
    y: int


def _build_many():
    for i in range(20000):
        _A(i)
        _B(i)


def test_snapshot_keeps_functions_sharing_a_label():
    # Both generated __init__ methods are labelled ("<string>", 2,
    # "__init__"); pstats would keep only one of them.
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    _build_many()
    profiler.disable()
    wall = time.perf_counter() - t0
    stats = layers.snapshot(profiler)
    inits = [f for f in stats if f[2] == "__init__" and f[0] == "<string>"]
    assert len(inits) == 2
    assert all(stats[f][1] == 20000 for f in inits)
    assert layers.rollup(stats, wall)["trace.sum_err"] < 0.02
