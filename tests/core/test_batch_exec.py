"""Word runs through the runtime equal the instruction-at-a-time machine.

The paper defines SLPMT one instruction at a time.  ``PTx.write_words`` /
``read_words`` issue a value payload as a run of direct
``exec_store``/``exec_storeT``/``exec_load`` calls; the same run built as
``Store``/``StoreT``/``Load`` objects and handed to ``Machine.execute``
must leave the same clock, SimStats counters and cached and durable
images — for every scheme, both logging disciplines, every flag
combination a hint maps to, every alignment and run length, and with
deferred-lazy state outstanding.
"""

import pytest

from repro.common.config import DEFAULT_CONFIG
from repro.core.machine import Machine
from repro.core.schemes import SCHEMES, scheme_by_name
from repro.isa.instructions import Load, Store, StoreT
from repro.mem import layout
from repro.runtime.hints import MANUAL, Hint
from repro.runtime.ptx import PTx

BASE = layout.PM_HEAP_BASE

ALL_SCHEMES = sorted(SCHEMES) + ["SLPMT:redo", "FG:redo"]

#: (lazy, log_free) storeT flags -> the hint MANUAL maps to them.
HINT_FOR = {
    (False, False): Hint.NONE,
    (True, False): Hint.TOMBSTONE,
    (False, True): Hint.NEW_ALLOC,
    (True, True): Hint.DEAD_REGION,
}


class _Issuer:
    """Issues word runs either through PTx or as instruction objects."""

    def __init__(self, machine, *, via_runtime, lazy, log_free):
        self.machine = machine
        self.rt = PTx(machine, policy=MANUAL) if via_runtime else None
        self.lazy, self.log_free = lazy, log_free

    def store_run(self, addr, values):
        if self.rt is not None:
            self.rt.write_words(addr, values, HINT_FOR[self.lazy, self.log_free])
            return
        for i, value in enumerate(values):
            if self.lazy or self.log_free:
                instr = StoreT(addr + i * 8, value, self.lazy, self.log_free)
            else:
                instr = Store(addr + i * 8, value)
            self.machine.execute(instr)

    def load_run(self, addr, count):
        if self.rt is not None:
            return self.rt.read_words(addr, count)
        return [self.machine.execute(Load(addr + i * 8)) for i in range(count)]


def _drive(machine, *, via_runtime, lazy, log_free, base=BASE, offset_words=0,
           payload_words=19):
    """One deterministic transaction mix over a payload run."""
    issue = _Issuer(machine, via_runtime=via_runtime, lazy=lazy,
                    log_free=log_free)
    addr = base + offset_words * 8
    payload = [(i * 2654435761) % (1 << 40) for i in range(payload_words)]
    machine.tx_begin()
    issue.store_run(addr, payload)
    assert issue.load_run(addr, payload_words) == payload
    # Overwrite part of the run: its log bits are already set.
    issue.store_run(addr + 8, payload[:7])
    machine.tx_end()
    # A second transaction re-touching the same lines (fresh tx id, log
    # masks reset) after the first one's lazy lines were deferred.
    machine.tx_begin()
    issue.store_run(addr + 16, payload[3:12])
    issue.load_run(addr, payload_words)
    machine.tx_end()
    machine.finalize()


def _state(machine, base=BASE, words=40):
    return (
        machine.now,
        machine.stats,
        [machine.raw_read(base + i * 8) for i in range(words)],
        [machine.durable_read(base + i * 8) for i in range(words)],
    )


def _both(scheme_name, **kwargs):
    scheme = scheme_by_name(scheme_name)
    states = []
    for via_runtime in (False, True):
        machine = Machine(scheme, DEFAULT_CONFIG)
        _drive(machine, via_runtime=via_runtime, **kwargs)
        states.append(_state(machine))
    return states


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
@pytest.mark.parametrize("lazy,log_free", list(HINT_FOR))
def test_store_run_bit_identical(scheme_name, lazy, log_free):
    by_instruction, by_runtime = _both(scheme_name, lazy=lazy, log_free=log_free)
    assert by_instruction == by_runtime


@pytest.mark.parametrize("scheme_name", ["SLPMT", "FG", "SLPMT:redo"])
@pytest.mark.parametrize("offset_words", [0, 1, 3, 7])
def test_unaligned_runs_bit_identical(scheme_name, offset_words):
    # Runs starting mid-line cross line boundaries at every alignment.
    by_instruction, by_runtime = _both(
        scheme_name, lazy=True, log_free=False, offset_words=offset_words
    )
    assert by_instruction == by_runtime


@pytest.mark.parametrize("count", [0, 1, 2, 8, 9, 24])
def test_run_lengths_bit_identical(count):
    by_instruction, by_runtime = _both(
        "SLPMT", lazy=False, log_free=False, payload_words=count
    )
    assert by_instruction == by_runtime


def test_deferred_lazy_state_forces_per_word_path():
    # A committed lazy transaction leaves deferred-lazy state behind; a
    # later plain run over the same lines probes the signatures on every
    # word, and the first hit forces the deferred lines to PM.
    states = []
    for via_runtime in (False, True):
        machine = Machine(scheme_by_name("SLPMT"), DEFAULT_CONFIG)
        machine.tx_begin()
        _Issuer(machine, via_runtime=via_runtime, lazy=True,
                log_free=False).store_run(BASE, list(range(10, 26)))
        machine.tx_end()
        assert machine.lazy_tx_ids()  # deferred-lazy state is live
        machine.tx_begin()
        _Issuer(machine, via_runtime=via_runtime, lazy=False,
                log_free=False).store_run(BASE + 8, list(range(50, 62)))
        machine.tx_end()
        assert machine.stats.lazy_lines_forced > 0
        machine.finalize()
        states.append(_state(machine))
    assert states[0] == states[1]


def test_checkpoint_hook_sees_every_word():
    # Fuzz crash hooks count per-word callbacks: a word run fires the
    # scheduler checkpoint once per word.
    rt = PTx(Machine(scheme_by_name("SLPMT"), DEFAULT_CONFIG))
    calls = []
    rt.machine.checkpoint = lambda: calls.append(rt.machine.now)
    with rt.transaction():
        rt.write_words(BASE, [1, 2, 3, 4, 5])
        assert rt.read_words(BASE, 5) == [1, 2, 3, 4, 5]
    assert len(calls) == 10  # 5 stores + 5 loads, one checkpoint each


def test_store_run_outside_transaction():
    # Non-transactional runs are plain cached writes on both paths.
    values = list(range(7, 27))
    states = []
    for via_runtime in (False, True):
        machine = Machine(scheme_by_name("SLPMT"), DEFAULT_CONFIG)
        _Issuer(machine, via_runtime=via_runtime, lazy=False,
                log_free=False).store_run(BASE, values)
        assert [machine.raw_read(BASE + i * 8) for i in range(20)] == values
        states.append(_state(machine))
    assert states[0] == states[1]
