"""Bounded admission queue: backpressure, ready reads, batch fill."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.admission import AdmissionPolicy, AdmissionQueue, QueuedRequest
from repro.service.model import Request
from repro.workloads.shared import KEY_BASE


def put(client, seq):
    key = KEY_BASE + client * 10 + seq
    return Request(client, seq, "put", (key,), values=((client, seq),))


def get(client, seq):
    return Request(client, seq, "get", (KEY_BASE,))


def enqueue(queue, requests, *, at=0):
    for n, request in enumerate(requests):
        queue.admit(
            QueuedRequest(request=request, submitted_at=at + n, admitted_at=at + n)
        )


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            AdmissionPolicy(max_depth=0)
        with pytest.raises(ValueError, match="mode"):
            AdmissionPolicy(mode="drop")
        with pytest.raises(ValueError, match="fairness"):
            AdmissionPolicy(fairness="random")


class TestBoundedQueue:
    def test_depth_and_room(self):
        queue = AdmissionQueue(AdmissionPolicy(max_depth=2))
        assert queue.has_room and queue.depth == 0
        enqueue(queue, [put(0, 0), put(1, 0)])
        assert queue.depth == 2 and not queue.has_room

    def test_overflow_raises(self):
        queue = AdmissionQueue(AdmissionPolicy(max_depth=1))
        enqueue(queue, [put(0, 0)])
        with pytest.raises(OverflowError):
            enqueue(queue, [put(1, 0)])


class TestReadyReads:
    def test_head_read_pops(self):
        queue = AdmissionQueue(AdmissionPolicy())
        enqueue(queue, [get(0, 0), put(1, 0)])
        ready = queue.pop_ready_reads()
        assert [(r.request.client, r.request.seq) for r in ready] == [(0, 0)]
        assert queue.depth == 1

    def test_read_behind_own_write_waits(self):
        queue = AdmissionQueue(AdmissionPolicy())
        enqueue(queue, [put(0, 0), get(0, 1)])
        assert queue.pop_ready_reads() == []
        assert queue.depth == 2

    def test_fixpoint_exposes_chained_reads(self):
        queue = AdmissionQueue(AdmissionPolicy())
        enqueue(queue, [get(0, 0), get(0, 1), put(0, 2)])
        ready = queue.pop_ready_reads()
        assert [r.request.seq for r in ready] == [0, 1]
        assert queue.eligible_writes(8) == 1


class TestBatchSelection:
    def test_fifo_takes_global_admission_order(self):
        queue = AdmissionQueue(AdmissionPolicy(fairness="fifo"))
        enqueue(queue, [put(0, 0), put(1, 0), put(0, 1)])
        batch = queue.take_batch(2)
        assert [(i.request.client, i.request.seq) for i in batch] == [
            (0, 0), (1, 0),
        ]
        assert queue.depth == 1

    def test_fifo_heavy_writer_can_fill_batch(self):
        queue = AdmissionQueue(AdmissionPolicy(fairness="fifo"))
        enqueue(queue, [put(0, 0), put(0, 1), put(0, 2), put(1, 0)])
        batch = queue.take_batch(3)
        assert [(i.request.client, i.request.seq) for i in batch] == [
            (0, 0), (0, 1), (0, 2),
        ]

    def test_round_robin_interleaves_clients(self):
        queue = AdmissionQueue(AdmissionPolicy(fairness="round-robin"))
        enqueue(queue, [put(0, 0), put(0, 1), put(0, 2), put(1, 0)])
        batch = queue.take_batch(3)
        assert [(i.request.client, i.request.seq) for i in batch] == [
            (0, 0), (1, 0), (0, 1),
        ]

    def test_per_client_fifo_always_preserved(self):
        for fairness in ("fifo", "round-robin"):
            queue = AdmissionQueue(AdmissionPolicy(fairness=fairness))
            enqueue(
                queue,
                [put(0, 0), put(1, 0), put(0, 1), put(1, 1), put(0, 2)],
            )
            batch = queue.take_batch(5)
            for client in (0, 1):
                seqs = [
                    i.request.seq for i in batch if i.request.client == client
                ]
                assert seqs == sorted(seqs)

    def test_rotation_persists_across_batches(self):
        # Regression: the rotation cursor must resume after the last
        # client served, not restart each batch at the first-admitted
        # client — restarting starves whoever sits past the batch
        # boundary (here client 2 would never lead a batch).
        queue = AdmissionQueue(AdmissionPolicy(fairness="round-robin"))
        enqueue(
            queue,
            [put(0, 0), put(1, 0), put(2, 0), put(0, 1), put(1, 1), put(2, 1)],
        )
        batches = [
            [(i.request.client, i.request.seq) for i in queue.take_batch(2)]
            for _ in range(3)
        ]
        assert batches == [
            [(0, 0), (1, 0)],
            [(2, 0), (0, 1)],
            [(1, 1), (2, 1)],
        ]

    def test_skipped_client_keeps_rotation_slot(self):
        # A client whose head is a ready read is passed over in place:
        # once the read is served, the next batch resumes at its slot
        # instead of behind clients that were admitted later.
        queue = AdmissionQueue(AdmissionPolicy(fairness="round-robin"))
        enqueue(queue, [put(0, 0), get(1, 0), put(1, 1), put(2, 0), put(0, 1)])
        first = queue.take_batch(1)
        assert [(i.request.client, i.request.seq) for i in first] == [(0, 0)]
        served = queue.pop_ready_reads()
        assert [(i.request.client, i.request.seq) for i in served] == [(1, 0)]
        nxt = queue.take_batch(2)
        assert [(i.request.client, i.request.seq) for i in nxt] == [
            (1, 1), (2, 0),
        ]

    def test_readmit_front_leads_next_batch(self):
        # Lock-deferred requests go back at the queue front with their
        # original provenance and lead the next FIFO selection.
        queue = AdmissionQueue(AdmissionPolicy(fairness="fifo"))
        enqueue(queue, [put(0, 0), put(1, 0), put(2, 0)])
        batch = queue.take_batch(2)
        deferred = [batch[1]]
        queue.readmit_front(deferred)
        nxt = queue.take_batch(2)
        assert [(i.request.client, i.request.seq) for i in nxt] == [
            (1, 0), (2, 0),
        ]
        assert nxt[0].admitted_at == deferred[0].admitted_at

    def test_read_blocks_later_writes_of_its_client(self):
        queue = AdmissionQueue(AdmissionPolicy())
        enqueue(queue, [get(0, 0), put(0, 1), put(1, 0)])
        assert queue.eligible_writes(8) == 1
        batch = queue.take_batch(8)
        assert [(i.request.client, i.request.seq) for i in batch] == [(1, 0)]

    def test_oldest_write_admitted_at(self):
        queue = AdmissionQueue(AdmissionPolicy())
        assert queue.oldest_write_admitted_at() is None
        enqueue(queue, [get(0, 0)], at=5)
        assert queue.oldest_write_admitted_at() is None
        enqueue(queue, [put(1, 0)], at=9)
        assert queue.oldest_write_admitted_at() == 9


class ScanningQueue(AdmissionQueue):
    """The queue's scans as they were before it counted its reads: every
    ready-read pop scans the queue, ``eligible_writes`` selects every
    eligible write before it caps the count, and the oldest write comes
    from a built list."""

    def pop_ready_reads(self):
        out = []
        while True:
            heads = {}
            for idx, item in enumerate(self._items):
                heads.setdefault(item.request.client, idx)
            ready = [
                idx
                for client, idx in heads.items()
                if not self._items[idx].request.is_write
            ]
            if not ready:
                return out
            for idx in sorted(ready, reverse=True):
                out.append(self._items.pop(idx))
            out.sort(key=lambda item: (item.admitted_at, item.request.client,
                                       item.request.seq))

    def eligible_writes(self, limit):
        return min(len(self._select(limit=len(self._items))), limit)

    def oldest_write_admitted_at(self):
        times = [
            item.admitted_at for item in self._items if item.request.is_write
        ]
        return min(times) if times else None


OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "pop", "take", "readmit"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


def ids(items):
    return [(item.request.client, item.request.seq) for item in items]


class TestAgainstReferenceScans:
    """Random admit/pop/take/readmit sequences: the counted queue makes
    every decision the scanning reference makes."""

    @settings(max_examples=300, deadline=None)
    @given(fairness=st.sampled_from(["fifo", "round-robin"]), ops=OPS)
    def test_same_decisions(self, fairness, ops):
        policy = AdmissionPolicy(max_depth=8, fairness=fairness)
        queue, reference = AdmissionQueue(policy), ScanningQueue(policy)
        seqs = [0] * 4
        removed = []  # the items the last pop or take removed
        for now, (op, arg) in enumerate(ops):
            if op in ("read", "write"):
                if not queue.has_room:
                    continue
                client, seqs[arg] = arg, seqs[arg] + 1
                request = (put if op == "write" else get)(client, seqs[client])
                item = QueuedRequest(request=request, submitted_at=now, admitted_at=now)
                queue.admit(item)
                reference.admit(item)
            elif op == "pop":
                removed = queue.pop_ready_reads()
                assert ids(removed) == ids(reference.pop_ready_reads())
            elif op == "take":
                removed = queue.take_batch(arg + 1)
                assert ids(removed) == ids(reference.take_batch(arg + 1))
            else:
                back, removed = removed[arg % 2:], []
                queue.readmit_front(back)
                reference.readmit_front(back)
            assert ids(queue._items) == ids(reference._items)
            assert queue._reads == sum(
                not item.request.is_write for item in queue._items
            )
            for limit in (1, 2, 3, 4, 8, 64):
                assert queue.eligible_writes(limit) == reference.eligible_writes(limit)
            assert queue.oldest_write_admitted_at() == (
                reference.oldest_write_admitted_at()
            )
