"""Serving memory is O(live): what a served run retains does not grow
with the requests it served (``slow``: about a minute, run nightly).

A request is dead once answered and a committed transaction's log
records once its commit marker is durable, so the streams hold one
request and one gap per client and the PM log keeps no entry object,
only live positions beside the words.  What still grows is the
serialized log words, about four 8-byte words per request on this
shape.
"""

import gc
import tracemalloc

import pytest

from repro.service import sustained
from repro.service.server import ServiceConfig, TransactionService
from repro.service.tm import GroupCommitPolicy

#: Retained bytes per extra served request must stay below this.
MAX_BYTES_PER_REQUEST = 64


def _population(duration_cycles):
    """One population of the default sustained shape."""
    return ServiceConfig(
        workload=sustained.DEFAULT_SUSTAINED_WORKLOAD,
        scheme=sustained.DEFAULT_SUSTAINED_SCHEME,
        num_clients=sustained.DEFAULT_CLIENTS_PER_POPULATION,
        value_bytes=sustained.DEFAULT_SUSTAINED_VALUE_BYTES,
        num_keys=sustained.DEFAULT_SUSTAINED_KEYS,
        theta=sustained.DEFAULT_SUSTAINED_THETA,
        mode="open",
        arrival_cycles=sustained.DEFAULT_SUSTAINED_ARRIVAL,
        duration_cycles=duration_cycles,
        keep_responses=False,
        batch=GroupCommitPolicy(batch_size=sustained.DEFAULT_SUSTAINED_BATCH),
        seed=sustained.DEFAULT_SUSTAINED_SEED,
    )


def _serve(duration_cycles):
    """``(requests served, traced bytes the service retains after
    serving)``."""
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    svc = TransactionService(_population(duration_cycles))
    svc.serve()
    gc.collect()
    return svc.machine.stats.service_requests, tracemalloc.get_traced_memory()[0] - base


@pytest.mark.slow
def test_retained_memory_per_served_request():
    tracemalloc.start()
    try:
        _serve(200_000)  # lazy imports and caches, outside the measurement
        short_requests, short_bytes = _serve(8_000_000)
        long_requests, long_bytes = _serve(32_000_000)
    finally:
        tracemalloc.stop()
    assert long_requests > 3 * short_requests
    per_request = (long_bytes - short_bytes) / (long_requests - short_requests)
    assert per_request < MAX_BYTES_PER_REQUEST, f"{per_request:.1f} B per request"
