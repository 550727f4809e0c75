"""Deterministic interleaving scheduler."""

import threading
import time

import pytest

from repro.common.errors import PowerFailure, SimulationError
from repro.multicore.scheduler import InterleavedScheduler


def interleave(num_threads, steps, seed):
    """Record the order in which threads execute their steps."""
    scheduler = InterleavedScheduler(num_threads, seed=seed)
    trace = []

    def worker(tid):
        def body():
            for step in range(steps):
                scheduler.checkpoint(tid)
                trace.append((tid, step))
        return body

    scheduler.run([worker(t) for t in range(num_threads)])
    return trace


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        assert interleave(3, 10, seed=5) == interleave(3, 10, seed=5)

    def test_different_seed_different_schedule(self):
        a = interleave(3, 10, seed=1)
        b = interleave(3, 10, seed=2)
        assert a != b

    def test_every_step_runs_exactly_once(self):
        trace = interleave(4, 8, seed=3)
        assert sorted(trace) == [(t, s) for t in range(4) for s in range(8)]

    def test_steps_per_thread_in_order(self):
        trace = interleave(2, 20, seed=9)
        for tid in range(2):
            steps = [s for t, s in trace if t == tid]
            assert steps == sorted(steps)

    def test_actually_interleaves(self):
        trace = interleave(2, 20, seed=0)
        owners = [t for t, _ in trace]
        assert len(set(owners)) == 2
        # At least one switch mid-stream (overwhelmingly likely).
        assert any(a != b for a, b in zip(owners, owners[1:]))


class TestLifecycle:
    def test_unbalanced_worker_lengths(self):
        scheduler = InterleavedScheduler(2, seed=1)
        done = []

        def short():
            scheduler.checkpoint(0)
            done.append("short")

        def long():
            for _ in range(30):
                scheduler.checkpoint(1)
            done.append("long")

        scheduler.run([short, long])
        assert sorted(done) == ["long", "short"]

    def test_worker_exception_propagates(self):
        scheduler = InterleavedScheduler(2, seed=1)

        def bad():
            scheduler.checkpoint(0)
            raise ValueError("boom")

        def good():
            for _ in range(5):
                scheduler.checkpoint(1)

        with pytest.raises(ValueError):
            scheduler.run([bad, good])

    def test_wrong_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            InterleavedScheduler(2).run([lambda: None])

    def test_crash_all_unwinds_everyone(self):
        scheduler = InterleavedScheduler(2, seed=1)
        progress = []

        def crasher():
            scheduler.checkpoint(0)
            progress.append(("crasher", 0))
            scheduler.crash_all()
            scheduler.checkpoint(0)  # raises
            progress.append(("crasher", 1))

        def bystander():
            for i in range(1000):
                scheduler.checkpoint(1)
                progress.append(("bystander", i))

        scheduler.run([crasher, bystander])
        assert scheduler.crashed
        assert ("crasher", 1) not in progress
        assert len([p for p in progress if p[0] == "bystander"]) < 1000


class TestHangDetection:
    def test_timeouts_validated(self):
        with pytest.raises(SimulationError):
            InterleavedScheduler(2, wait_timeout=0.0)
        with pytest.raises(SimulationError):
            InterleavedScheduler(2, hang_timeout=-1.0)

    def test_deadlock_diagnosed_by_lack_of_progress(self):
        # A worker that takes the turn and never yields is a genuine
        # scheduler deadlock; it must be diagnosed within hang_timeout,
        # not after a fixed 60s wall-clock grace.
        scheduler = InterleavedScheduler(
            2, seed=1, wait_timeout=0.02, hang_timeout=0.2
        )
        release = threading.Event()

        def hog():
            scheduler.checkpoint(0)
            release.wait(timeout=10.0)  # holds the turn forever

        def waiter():
            for _ in range(1000):
                scheduler.checkpoint(1)

        t0 = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="deadlock"):
                scheduler.run([hog, waiter])
        finally:
            release.set()
        assert time.monotonic() - t0 < 5.0

    def test_slow_but_progressing_run_not_misdiagnosed(self):
        # Total wall-clock far exceeds hang_timeout, but turns keep
        # switching: progress-based detection must not trip.
        scheduler = InterleavedScheduler(
            2, seed=3, wait_timeout=0.02, hang_timeout=0.15
        )
        trace = []

        def worker(tid):
            def body():
                for step in range(20):
                    scheduler.checkpoint(tid)
                    trace.append((tid, step))
                    time.sleep(0.01)

            return body

        scheduler.run([worker(0), worker(1)])
        assert sorted(trace) == [(t, s) for t in range(2) for s in range(20)]


class TestPostCrashReuse:
    def run_workers(self, scheduler, crash):
        trace = []

        def worker(tid):
            def body():
                for step in range(10):
                    scheduler.checkpoint(tid)
                    if crash and tid == 0 and step == 3:
                        scheduler.crash_all()
                    trace.append((tid, step))

            return body

        scheduler.run([worker(0), worker(1)])
        return trace

    def test_run_rearms_a_crashed_scheduler(self):
        scheduler = InterleavedScheduler(2, seed=8)
        self.run_workers(scheduler, crash=True)
        assert scheduler.crashed
        trace = self.run_workers(scheduler, crash=False)
        assert not scheduler.crashed
        assert sorted(trace) == [(t, s) for t in range(2) for s in range(10)]

    def test_checkpoint_between_crash_and_rerun_raises(self):
        # Until the next run() powers the system back on, the machine
        # is "off": any checkpoint still unwinds with PowerFailure.
        scheduler = InterleavedScheduler(2, seed=8)
        self.run_workers(scheduler, crash=True)
        with pytest.raises(PowerFailure):
            scheduler.checkpoint(0)


class TestCrashAtSwitch:
    def armed_run(self, crash_at):
        scheduler = InterleavedScheduler(2, seed=5)
        scheduler.crash_at_switch = crash_at
        trace = []

        def worker(tid):
            def body():
                for step in range(50):
                    scheduler.checkpoint(tid)
                    trace.append((tid, step))

            return body

        scheduler.run([worker(0), worker(1)])
        return scheduler, trace

    def test_crash_fires_at_the_armed_switch(self):
        scheduler, trace = self.armed_run(7)
        assert scheduler.crashed
        assert scheduler.switches == 7
        assert len(trace) < 100

    def test_armed_crash_is_deterministic(self):
        _, a = self.armed_run(13)
        _, b = self.armed_run(13)
        assert a == b

    def test_point_beyond_the_run_never_fires(self):
        scheduler, trace = self.armed_run(10_000)
        assert not scheduler.crashed
        assert sorted(trace) == [(t, s) for t in range(2) for s in range(50)]


class TestStartTiming:
    """A worker's first wait never draws a turn, so the schedule does not
    depend on how late the OS starts each worker thread."""

    def run_with_late_start(self, monkeypatch, late):
        real_thread = threading.Thread

        class LateThread(real_thread):
            def __init__(self, *, target, args, **kwargs):
                def delayed(*call_args):
                    if call_args[0] == late:
                        time.sleep(0.3)
                    target(*call_args)

                super().__init__(target=delayed, args=args, **kwargs)

        scheduler = InterleavedScheduler(3, seed=4)
        trace = []

        def worker(tid):
            def body():
                for step in range(8):
                    scheduler.checkpoint(tid)
                    trace.append((tid, step))

            return body

        with monkeypatch.context() as patch:
            patch.setattr(threading, "Thread", LateThread)
            scheduler.run([worker(t) for t in range(3)])
        return trace, scheduler.switches

    @pytest.mark.parametrize("late", [0, 1, 2])
    def test_late_worker_start_keeps_the_schedule(self, monkeypatch, late):
        prompt = self.run_with_late_start(monkeypatch, late=None)
        assert self.run_with_late_start(monkeypatch, late=late) == prompt
