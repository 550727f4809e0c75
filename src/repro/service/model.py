"""Request/response model and deterministic client generators.

The transaction service speaks four typed operations against one
durable structure:

* ``get``  — point read of one key (simulated, non-transactional);
* ``put``  — durable insert/update of one key;
* ``scan`` — range read: full simulated traversal, then up to
  :data:`SCAN_COUNT` keys from ``keys[0]`` upward;
* ``txn``  — multi-key write transaction (all keys commit atomically).

Clients are pure functions of ``(seed, client, knobs)``: the request
stream, the zipfian key choices, the value payloads and the open-loop
arrival gaps all derive from seeded RNGs, so a whole service run is
reproducible from its :class:`~repro.service.server.ServiceConfig`
alone — the same property the YCSB and shared-key generators already
have, extended to client traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.base import value_words_for_key
from repro.workloads.shared import KEY_BASE, sample_rank, zipfian_cdf

#: Operation kinds the service accepts.
OP_KINDS = ("get", "put", "scan", "txn")

#: Write kinds (served through the group-committing TM).
WRITE_KINDS = ("put", "txn")

#: Most keys a drawn ``scan`` returns.
SCAN_COUNT = 4

#: Default request mix: write-heavy (the YCSB-load shape the paper's
#: evaluation drives), with enough reads to exercise the fast path.
DEFAULT_MIX: Dict[str, float] = {
    "put": 0.70,
    "get": 0.15,
    "scan": 0.05,
    "txn": 0.10,
}


@dataclass(frozen=True)
class Request:
    """One client request.  ``seq`` is the position in the client's
    stream — responses must come back in ``seq`` order per client."""

    client: int
    seq: int
    kind: str
    keys: Tuple[int, ...]
    #: One value tuple per key for ``put``/``txn``; empty for reads.
    values: Tuple[Tuple[int, ...], ...] = ()
    #: Max keys a ``scan`` returns (from ``keys[0]`` upward).
    scan_count: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.is_write and len(self.values) != len(self.keys):
            raise ValueError(
                f"{self.kind} needs one value per key "
                f"({len(self.keys)} keys, {len(self.values)} values)"
            )


@dataclass(frozen=True)
class Response:
    """The service's answer to one request.

    ``status`` is ``"ok"`` for a served request and ``"shed"`` for one
    rejected by admission control.  For a write, ``completed_at`` is the
    cycle at which its group commit's ``tx_end`` returned — i.e. the
    commit marker is durable — so an ``ok`` write response *is* the
    durability acknowledgement.

    A served run keeps one per request, so the class has ``__slots__``
    and no instance dict.  Python 3.9 has no ``dataclass(slots=True)``,
    and a frozen slotted instance cannot restore its state through
    ``setattr``, so the class pickles its fields as a tuple.
    """

    __slots__ = (
        "client", "seq", "kind", "status", "submitted_at", "completed_at",
        "values",
    )

    client: int
    seq: int
    kind: str
    status: str  # "ok" | "shed"
    submitted_at: int
    completed_at: int
    #: ``get``: zero or one value tuple; ``scan``: (key, value) pairs;
    #: ``()`` for a write or a shed request.
    values: Tuple

    @property
    def latency(self) -> int:
        return self.completed_at - self.submitted_at

    def __getstate__(self) -> Tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: Tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def value_for(key: int, client: int, seq: int, value_words: int) -> Tuple[int, ...]:
    """Deterministic, writer-distinguishing value payload (the shared-key
    stream recipe: content checks can attribute every durable word)."""
    return tuple(
        value_words_for_key(key * 1_000_003 + client * 65_537 + seq, value_words)
    )


class _ForwardStream:
    """A prefix-stable sequence drawn forward from one seeded RNG.

    Only the item drawn last is held: a server demands its clients'
    items in order, so that is the one it is waiting on.  A demand for
    an earlier item, :meth:`prefix` and iteration re-draw from a fresh
    RNG built from the same seed string and leave the stream's own
    position untouched.  Items depend only on the seed and their index,
    so the re-drawn ones are the same items.
    """

    def __init__(self, seed: str) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        #: Items drawn from :attr:`_rng` so far, and the last of them.
        self._drawn = 0
        self._last = None

    def _draw(self, rng: random.Random, index: int):
        raise NotImplementedError

    def _at(self, index: int):
        if index < self._drawn - 1:
            return self._redraw(index + 1)[-1]
        while self._drawn <= index:
            self._last = self._draw(self._rng, self._drawn)
            self._drawn += 1
        return self._last

    def _redraw(self, count: int) -> list:
        rng = random.Random(self._seed)
        return [self._draw(rng, index) for index in range(count)]

    def prefix(self, count: int) -> list:
        """The first *count* items (a fresh list, re-drawn)."""
        return self._redraw(count)


class ClientStream(_ForwardStream):
    """One client's deterministic request stream, drawn forward only.

    Keys are ``KEY_BASE + rank`` with zipfian(θ) skew over a population
    shared by every client, so cross-client writes collide and the
    group-commit batches mix writers.  ``txn`` requests touch 2..*txn_keys*
    distinct keys.

    The stream is **prefix-stable**: requests ``0..n-1`` are the same
    whether the stream is asked for ``n`` or ``n+k`` requests, because
    the RNG seed hashes only ``(seed, client, theta, num_keys)`` — never
    a request count — and requests are drawn strictly in ``seq`` order.
    Duration-driven runs depend on this: growing a run's horizon extends
    the traffic rather than reshuffling it.  It also lets the stream
    hold only the request drawn last (see :class:`_ForwardStream`): a
    demand below it re-draws from the seed, so a served run's traffic
    costs O(1) memory per client.
    """

    def __init__(
        self,
        client: int,
        *,
        mix: Optional[Dict[str, float]] = None,
        num_keys: int = 64,
        theta: float = 0.0,
        value_words: int = 8,
        txn_keys: int = 3,
        seed: int = 0,
    ) -> None:
        mix = DEFAULT_MIX if mix is None else mix
        self.kinds = sorted(k for k, w in mix.items() if w > 0)
        unknown = [k for k in self.kinds if k not in OP_KINDS]
        if unknown:
            raise ValueError(f"unknown mix kind(s): {unknown}")
        self.client = client
        self.num_keys = num_keys
        self.value_words = value_words
        self.txn_keys = txn_keys
        self.weights = [mix[k] for k in self.kinds]
        self.cdf = zipfian_cdf(num_keys, theta)
        super().__init__(f"svc:{seed}:{client}:{theta!r}:{num_keys}")

    def _draw_key(self, rng: random.Random) -> int:
        return KEY_BASE + sample_rank(self.cdf, rng)

    def _draw(self, rng: random.Random, seq: int) -> Request:
        client = self.client
        kind = rng.choices(self.kinds, weights=self.weights)[0]
        if kind == "get":
            request = Request(client, seq, "get", (self._draw_key(rng),))
        elif kind == "scan":
            request = Request(
                client, seq, "scan", (self._draw_key(rng),),
                scan_count=SCAN_COUNT,
            )
        elif kind == "put":
            key = self._draw_key(rng)
            request = Request(
                client, seq, "put", (key,),
                values=(value_for(key, client, seq, self.value_words),),
            )
        else:  # txn
            want = rng.randrange(2, max(self.txn_keys, 2) + 1)
            keys: List[int] = []
            while len(keys) < min(want, self.num_keys):
                key = self._draw_key(rng)
                if key not in keys:
                    keys.append(key)
            request = Request(
                client, seq, "txn", tuple(keys),
                values=tuple(
                    value_for(k, client, seq, self.value_words) for k in keys
                ),
            )
        return request

    def request(self, seq: int) -> Request:
        """The request at stream position *seq*: drawn forward on first
        demand, re-drawn from the seed when *seq* lies below the request
        drawn last."""
        return self._at(seq)

    def __iter__(self):
        """Iterate the requests drawn so far, re-drawn from the seed
        (after a run: exactly the traffic the stream produced)."""
        return iter(self._redraw(self._drawn))


class ArrivalStream(_ForwardStream):
    """Open-loop interarrival gaps for one client, drawn forward only:
    uniform on ``[1, 2*mean)`` so the mean is *mean_cycles* and every
    gap is a positive integer (the event loop needs strictly advancing
    times).  Prefix-stable like :class:`ClientStream`: the seed never
    includes a request count, the stream holds only the gap drawn last,
    and a demand below it re-draws from the seed."""

    def __init__(self, client: int, *, mean_cycles: int, seed: int = 0) -> None:
        if mean_cycles < 1:
            raise ValueError("mean_cycles must be positive")
        self.mean_cycles = mean_cycles
        super().__init__(f"svc-arrival:{seed}:{client}:{mean_cycles}")

    def _draw(self, rng: random.Random, index: int) -> int:
        return rng.randrange(1, 2 * self.mean_cycles)

    def gap(self, i: int) -> int:
        """The *i*-th interarrival gap (drawn forward on first demand,
        re-drawn from the seed below the gap drawn last)."""
        return self._at(i)

