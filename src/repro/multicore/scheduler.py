"""Deterministic thread interleaving for multi-core simulations.

Workload threads are real Python threads, but only the *turn holder*
ever runs: every simulated instruction begins with a
:meth:`InterleavedScheduler.checkpoint` call that (a) hands the turn to
a pseudo-randomly chosen runnable thread and (b) blocks until this
thread is chosen.  Because the next turn is always drawn by the single
thread that currently holds the turn, the schedule is a pure function of
the seed — the same seed replays the same interleaving, which makes
conflict scenarios reproducible and debuggable.

A thread that finishes (or dies) retires from the runnable set; a
simulated power failure (:meth:`crash_all`, or an armed
:attr:`crash_at_switch` point) makes every subsequent checkpoint raise
:class:`~repro.common.errors.PowerFailure`, unwinding all workers so
the system can take its crash snapshot.

Hang detection is **progress-based**, not wall-clock-based: a run is
diagnosed as deadlocked only when the :attr:`switches` counter stops
advancing for :attr:`hang_timeout` seconds while worker threads are
still alive.  A legitimately long run on a slow or loaded host keeps
switching turns and therefore never trips the detector; only a
scheduler that has genuinely stopped handing out turns does.  Both the
condition-wait slice and the no-progress window are configurable.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, List, Optional

from repro.common.errors import PowerFailure, SimulationError

#: Default condition-wait slice (seconds) between progress checks.
DEFAULT_WAIT_TIMEOUT = 10.0

#: Default no-turn-switch window (seconds) before diagnosing deadlock.
DEFAULT_HANG_TIMEOUT = 60.0

#: Join-poll slice used by :meth:`InterleavedScheduler.run` (seconds).
_JOIN_POLL = 0.05


class InterleavedScheduler:
    """Seeded, turn-based round-robin over worker threads."""

    def __init__(
        self,
        num_threads: int,
        *,
        seed: int = 0,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        hang_timeout: float = DEFAULT_HANG_TIMEOUT,
    ) -> None:
        if num_threads < 1:
            raise SimulationError("need at least one thread")
        if wait_timeout <= 0 or hang_timeout <= 0:
            raise SimulationError("scheduler timeouts must be positive")
        self.num_threads = num_threads
        #: Seconds one condition wait blocks before re-checking progress.
        self.wait_timeout = wait_timeout
        #: Seconds without a turn switch before a hang is diagnosed.
        self.hang_timeout = hang_timeout
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._runnable = set(range(num_threads))
        self._current: Optional[int] = None
        self._crashed = False
        self._running = False
        self.switches = 0
        #: When set, the scheduler injects a system-wide power failure as
        #: soon as :attr:`switches` reaches this value — the fuzz
        #: campaign's deterministic "crash at the k-th interleaving
        #: point" hook.  Armed by the caller before :meth:`run`.
        self.crash_at_switch: Optional[int] = None
        #: A recording pass's capture probe: with one armed, reaching
        #: :attr:`crash_at_switch` calls ``switch_probe.hit()`` (which
        #: captures the crash image and returns the next switch point, or
        #: None) instead of crashing.
        self.switch_probe = None

    # --- turn management (callers hold self._cond) ---------------------

    def _pick_next(self) -> None:
        if self._crashed:
            # Post-crash unwinding retires threads through finish();
            # drawing turns (and counting switches) stopped at the
            # crash point, so `switches` pins it exactly.
            self._current = None
            self._cond.notify_all()
            return
        if self._runnable:
            self._current = self._rng.choice(sorted(self._runnable))
            self.switches += 1
            if (
                self.crash_at_switch is not None
                and self.switches >= self.crash_at_switch
            ):
                if self.switch_probe is None:
                    # The sampled interleaving point: everyone unwinds.
                    self._crashed = True
                else:
                    self.crash_at_switch = self.switch_probe.hit()
        else:
            self._current = None
        self._cond.notify_all()

    # --- worker-facing API ------------------------------------------------

    def checkpoint(self, tid: int) -> None:
        """Yield the turn, then block until it is *tid*'s again.

        Raises :class:`PowerFailure` for every thread once
        :meth:`crash_all` was called (or an armed
        :attr:`crash_at_switch` point was reached); raises
        :class:`SimulationError` when no turn switch happened anywhere
        for :attr:`hang_timeout` seconds (scheduler deadlock).
        """
        with self._cond:
            if self._crashed:
                raise PowerFailure("system-wide power failure")
            if not self._running:
                # Outside a run() (setup, preload, validation from the
                # driving thread) there is nothing to interleave with.
                return
            if self._current == tid:
                # We finished our previous instruction: draw the next
                # turn (this is the only place the RNG is consumed, and
                # only the turn holder reaches it — determinism).
                self._pick_next()
            self._await_turn(tid)

    def _first_turn(self, tid: int) -> None:
        """A worker's first wait.  It never draws: whether the thread was
        picked before or after it got here depends on OS start-up
        timing, and the schedule must not."""
        with self._cond:
            self._await_turn(tid)

    def _await_turn(self, tid: int) -> None:
        # Callers hold self._cond.
        if self._crashed:
            # _pick_next may have hit the armed crash point, and the
            # next turn may be ours — check before running on.
            raise PowerFailure("system-wide power failure")
        stalled = 0.0
        while self._current != tid:
            if self._crashed:
                raise PowerFailure("system-wide power failure")
            if tid not in self._runnable:
                raise SimulationError(f"retired thread {tid} checkpointed")
            before = self.switches
            self._cond.wait(timeout=self.wait_timeout)
            if self._crashed:
                raise PowerFailure("system-wide power failure")
            if self._current is None and self._runnable:
                raise SimulationError("scheduler lost the turn")
            if self.switches != before:
                stalled = 0.0  # somebody is making progress
            else:
                stalled += self.wait_timeout
                if stalled >= self.hang_timeout and not self._crashed:
                    raise SimulationError(
                        f"scheduler deadlock: no turn switch for "
                        f"{stalled:.0f}s ({self.switches} switches, "
                        f"thread {tid} waiting)"
                    )

    def backoff(self, tid: int, turns: int) -> None:
        """Deterministic conflict backoff: yield the turn *turns* times
        so the transaction this thread lost to can make progress before
        the retry.  Each yield is an ordinary :meth:`checkpoint`, so the
        schedule stays a pure function of the seed."""
        for _ in range(max(0, turns)):
            self.checkpoint(tid)

    def finish(self, tid: int) -> None:
        """Retire *tid* from scheduling (worker done or dead)."""
        with self._cond:
            self._runnable.discard(tid)
            if self._current == tid or self._current is None:
                self._pick_next()

    def crash_all(self) -> None:
        """Simulated power failure: every checkpoint now raises."""
        with self._cond:
            self._crashed = True
            self._cond.notify_all()

    # --- orchestration ----------------------------------------------------

    def run(self, workers: "List[Callable[[], None]]") -> None:
        """Execute the workers to completion under the interleaving.

        Re-raises the first worker failure (by thread id) after every
        thread retired, except :class:`PowerFailure`, which is an
        expected outcome the caller inspects via :attr:`crashed`.

        Starting a run **re-arms a crashed scheduler**: the crash flag
        is cleared, so a system reused after ``crash()`` — the
        crash → recover → re-run pattern the fuzz cells drive — gets a
        fresh power-on instead of raising :class:`PowerFailure` forever.
        Between the crash and the next ``run()`` call, checkpoints still
        raise (the machine is "off").  :attr:`crashed` therefore always
        describes the most recent run.
        """
        if len(workers) != self.num_threads:
            raise SimulationError(
                f"expected {self.num_threads} workers, got {len(workers)}"
            )
        failures: List[Optional[BaseException]] = [None] * len(workers)

        def wrap(tid: int, body: Callable[[], None]) -> None:
            try:
                # Wait for the first turn before touching shared state.
                self._first_turn(tid)
                body()
            except PowerFailure:
                pass  # expected unwinding during a crash
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures[tid] = exc
            finally:
                self.finish(tid)

        threads = [
            threading.Thread(target=wrap, args=(tid, body), daemon=True)
            for tid, body in enumerate(workers)
        ]
        with self._cond:
            self._crashed = False  # power-on: re-arm after a crashed run
            self._running = True
            self._runnable = set(range(self.num_threads))
            self._current = None
            # The first pick, then the draw its holder would make on
            # finishing its (empty) first instruction: it was picked
            # before it started, so its first wait would always draw.
            self._pick_next()
            self._pick_next()
        for t in threads:
            t.start()
        try:
            for t in threads:
                last_switches = -1
                last_progress = time.monotonic()
                while True:
                    t.join(timeout=_JOIN_POLL)
                    if not t.is_alive():
                        break
                    with self._cond:
                        switches = self.switches
                    now = time.monotonic()
                    if switches != last_switches:
                        last_switches = switches
                        last_progress = now
                    elif now - last_progress >= self.hang_timeout:
                        raise SimulationError(
                            f"worker thread hung: no turn switch for "
                            f"{now - last_progress:.0f}s "
                            f"({switches} switches) — scheduler deadlock"
                        )
        finally:
            with self._cond:
                self._running = False
        for exc in failures:
            if exc is not None:
                raise exc

    @property
    def crashed(self) -> bool:
        return self._crashed
