"""The removed ``max_retries`` aliases are rejected outright.

The 1.x releases carried ``max_retries`` as a deprecated alias for
``max_attempts`` with a documented removal schedule: dropped together
with the next schema-breaking release (schema_version 2).  That release
is here — these tests pin the *rejection* behaviour so the alias cannot
quietly come back with a different meaning.
"""

import warnings

import pytest

from repro.harness.runner import run_contention
from repro.multicore.system import MultiCoreSystem, run_atomically


def counter_system(seed=7):
    system = MultiCoreSystem(1, seed=seed)
    counter = system.allocator.alloc(8)
    system.pm.write_word(counter, 0)
    return system, counter


class TestRunAtomicallyRejection:
    def test_max_retries_rejected(self):
        system, counter = counter_system()
        rt = system.runtimes[0]
        with pytest.raises(TypeError, match="max_retries"):
            run_atomically(rt, lambda: None, max_retries=8)

    def test_rejected_even_alongside_max_attempts(self):
        # The old "not both" TransactionError is gone with the alias:
        # any appearance of max_retries is an unknown keyword now.
        system, counter = counter_system()
        rt = system.runtimes[0]
        with pytest.raises(TypeError, match="max_retries"):
            run_atomically(rt, lambda: None, max_attempts=4, max_retries=4)

    def test_max_attempts_still_works_and_does_not_warn(self):
        system, counter = counter_system()
        rt = system.runtimes[0]

        def body():
            rt.store(counter, rt.load(counter) + 1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_atomically(rt, body, max_attempts=8) == 0


class TestRunContentionRejection:
    def test_max_retries_rejected(self):
        with pytest.raises(TypeError, match="max_retries"):
            run_contention(
                "hashtable", "SLPMT",
                cores=1, ops_per_core=1, num_keys=4, value_bytes=32,
                max_retries=16,
            )
