"""Shared-key contention workload: N streams over one durable structure.

The single-core benchmarks replay disjoint YCSB-load streams; this
module generates the multi-core counterpart — every worker draws its
keys from **one shared key population** with zipfian skew, so the
cross-core conflict rate is a dial:

* ``theta = 0`` is uniform: conflicts happen only by birthday collision
  over the key space;
* growing ``theta`` concentrates traffic on the hot head of the
  population (``P(rank r) ∝ 1 / r**theta``), driving write-write
  conflicts, wound-wait aborts and cross-core lazy forcing up until at
  high θ nearly every transaction touches the same few lines.

Everything is seeded: the streams are a pure function of
``(num_workers, ops_per_worker, theta, num_keys, seed)``, and replaying
them through the deterministic interleaving reproduces the identical
conflict/abort/commit history — which is what lets the campaign cells
be keyed by ``(workload, scheme, cores, θ, seed)`` alone.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.workloads.base import Workload, value_words_for_key

#: First key of the shared population (arbitrary, away from NULL).
KEY_BASE = 1_000

#: Default shared key-population size.
DEFAULT_NUM_KEYS = 32


def zipfian_cdf(num_keys: int, theta: float) -> List[float]:
    """Cumulative distribution over ranks ``1..num_keys`` with
    ``P(rank r) ∝ 1 / r**theta`` (θ=0 degenerates to uniform)."""
    if num_keys < 1:
        raise ValueError("need at least one key")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    weights = [1.0 / (rank ** theta) for rank in range(1, num_keys + 1)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0  # guard against float round-off at the tail
    return cdf


def sample_rank(cdf: List[float], rng: random.Random) -> int:
    """Draw a 0-based rank from a :func:`zipfian_cdf`."""
    return bisect_left(cdf, rng.random())


@dataclass(frozen=True)
class SharedOp:
    """One operation of one worker's stream over the shared structure."""

    worker: int
    seq: int  # position within the worker's stream
    key: int
    value: Tuple[int, ...]


def generate_streams(
    num_workers: int,
    ops_per_worker: int,
    *,
    theta: float = 0.0,
    num_keys: int = DEFAULT_NUM_KEYS,
    value_words: int = 4,
    seed: int = 0,
) -> List[List[SharedOp]]:
    """Per-worker insert/update streams over one shared key population.

    Keys are ``KEY_BASE + rank`` with zipfian rank skew; values derive
    deterministically from ``(key, worker, seq)`` so every write is
    content-checkable and two writers of the same key are
    distinguishable.  Repeated keys make the replay a value-replacing
    insert — the structure-level form of a YCSB update.
    """
    cdf = zipfian_cdf(num_keys, theta)
    streams: List[List[SharedOp]] = []
    for worker in range(num_workers):
        rng = random.Random(
            f"shared:{seed}:{worker}:{theta!r}:{num_keys}:{ops_per_worker}"
        )
        stream = []
        for seq in range(ops_per_worker):
            key = KEY_BASE + sample_rank(cdf, rng)
            value = tuple(
                value_words_for_key(
                    key * 1_000_003 + worker * 65_537 + seq, value_words
                )
            )
            stream.append(SharedOp(worker=worker, seq=seq, key=key, value=value))
        streams.append(stream)
    return streams


def replay_contention(
    system,
    subject: Workload,
    streams: List[List[SharedOp]],
    *,
    max_attempts: int = 512,
    in_flight: Optional[List[Optional[SharedOp]]] = None,
) -> List[Optional[SharedOp]]:
    """Replay the streams concurrently against *subject* under the
    system's deterministic interleaving.

    One worker per core drives its stream through
    :func:`~repro.multicore.system.run_atomically`; the shared oracle
    (``subject.expected``) is updated **after** each commit, inside the
    committing worker's turn, so the oracle always equals the exact
    committed state in commit order.

    Returns the in-flight table: entry *i* is the op core *i* was still
    executing when a crash unwound it (``None`` when the stream
    completed).  The caller uses it as the set of operations whose
    commit marker may or may not have become durable — the multi-core
    generalisation of the single-core campaign's two-state check.
    Pass *in_flight* (one ``None`` per core) to watch the table while
    the replay runs.
    """
    from repro.multicore.system import run_atomically

    if len(streams) != len(system.runtimes):
        raise ValueError(
            f"need {len(system.runtimes)} streams, got {len(streams)}"
        )
    handles = [subject] + [
        subject.clone_for(rt) for rt in system.runtimes[1:]
    ]
    if in_flight is None:
        in_flight = [None] * len(handles)

    def worker_for(idx: int):
        handle = handles[idx]
        stream = streams[idx]

        def worker(rt) -> None:
            for op in stream:
                value = list(op.value)
                in_flight[idx] = op
                handle.before_transaction(op.key)
                run_atomically(
                    rt,
                    lambda: handle._insert(op.key, value),
                    max_attempts=max_attempts,
                )
                handle.expected[op.key] = value
                in_flight[idx] = None

        return worker

    system.run([worker_for(i) for i in range(len(handles))])
    return in_flight
