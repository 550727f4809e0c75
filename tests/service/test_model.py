"""Request/response model and the deterministic client generators."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.service.model import (
    DEFAULT_MIX,
    OP_KINDS,
    WRITE_KINDS,
    ArrivalStream,
    ClientStream,
    Request,
    Response,
    arrival_gaps,
    generate_stream,
    generate_streams,
    value_for,
)
from repro.workloads.shared import KEY_BASE
from tests.reachable import reachable


class TestRequest:
    def test_write_kinds(self):
        put = Request(0, 0, "put", (KEY_BASE,), values=((1, 2),))
        get = Request(0, 1, "get", (KEY_BASE,))
        assert put.is_write and not get.is_write
        assert set(WRITE_KINDS) <= set(OP_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            Request(0, 0, "delete", (KEY_BASE,))

    def test_write_needs_one_value_per_key(self):
        with pytest.raises(ValueError, match="one value per key"):
            Request(0, 0, "txn", (KEY_BASE, KEY_BASE + 1), values=((1,),))

    def test_frozen(self):
        request = Request(0, 0, "get", (KEY_BASE,))
        with pytest.raises(AttributeError):
            request.kind = "put"


class TestResponse:
    def test_latency(self):
        response = Response(
            client=1, seq=0, kind="put", status="ok",
            submitted_at=100, completed_at=350,
        )
        assert response.latency == 250


class TestGenerateStream:
    def test_deterministic(self):
        a = generate_stream(0, 40, seed=11, theta=0.6)
        b = generate_stream(0, 40, seed=11, theta=0.6)
        assert a == b

    def test_seed_and_client_vary_stream(self):
        base = generate_stream(0, 40, seed=11)
        assert generate_stream(0, 40, seed=12) != base
        assert generate_stream(1, 40, seed=11) != base

    def test_seq_is_stream_position(self):
        stream = generate_stream(2, 25, seed=7)
        assert [r.seq for r in stream] == list(range(25))
        assert all(r.client == 2 for r in stream)

    def test_mix_respected(self):
        stream = generate_stream(0, 200, mix={"put": 1.0}, seed=3)
        assert all(r.kind == "put" for r in stream)
        assert all(len(r.keys) == 1 and len(r.values) == 1 for r in stream)

    def test_txn_keys_distinct_and_bounded(self):
        stream = generate_stream(
            0, 300, mix={"txn": 1.0}, txn_keys=4, num_keys=32, seed=5
        )
        for request in stream:
            assert 2 <= len(request.keys) <= 4
            assert len(set(request.keys)) == len(request.keys)
            assert len(request.values) == len(request.keys)

    def test_keys_in_population(self):
        stream = generate_stream(0, 100, num_keys=16, seed=9)
        for request in stream:
            for key in request.keys:
                assert KEY_BASE <= key < KEY_BASE + 16

    def test_unknown_mix_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mix kind"):
            generate_stream(0, 10, mix={"put": 0.5, "del": 0.5})

    def test_default_mix_covers_all_kinds(self):
        stream = generate_stream(0, 400, mix=dict(DEFAULT_MIX), seed=1)
        assert {r.kind for r in stream} == set(OP_KINDS)

    def test_generate_streams_one_per_client(self):
        streams = generate_streams(3, 10, seed=7)
        assert len(streams) == 3
        assert [s[0].client for s in streams] == [0, 1, 2]


class TestPrefixStability:
    """Duration mode depends on streams whose seed never encodes a
    request count: growing a run extends the traffic, never reshuffles
    the prefix already served."""

    def test_request_stream_prefix_stable(self):
        short = generate_stream(3, 20, seed=11, theta=0.6, num_keys=32)
        long = generate_stream(3, 200, seed=11, theta=0.6, num_keys=32)
        assert long[:20] == short

    def test_lazy_stream_matches_eager_prefix(self):
        from repro.service.model import ClientStream

        stream = ClientStream(5, seed=4, theta=0.9, num_keys=16)
        # Out-of-order demand still yields the in-order draw.
        late = stream.request(30)
        early = stream.request(0)
        eager = generate_stream(5, 31, seed=4, theta=0.9, num_keys=16)
        assert early == eager[0] and late == eager[30]

    def test_arrival_gaps_prefix_stable(self):
        short = arrival_gaps(2, 15, mean_cycles=700, seed=9)
        long = arrival_gaps(2, 150, mean_cycles=700, seed=9)
        assert long[:15] == short

    def test_stream_seed_varies_with_theta_and_population(self):
        base = generate_stream(0, 30, seed=1, theta=0.6, num_keys=64)
        assert generate_stream(0, 30, seed=1, theta=0.9, num_keys=64) != base
        assert generate_stream(0, 30, seed=1, theta=0.6, num_keys=32) != base


class TestForwardOnly:
    """A stream holds only the item it drew last and draws forward from
    its RNG; a demand below that, iteration and ``prefix`` re-draw from
    the seed and leave the stream where it was."""

    STREAM = dict(seed=4, theta=0.9, num_keys=16)
    GAPS = dict(mean_cycles=700, seed=4)

    def test_in_order_demand_holds_one_request_and_one_gap(self):
        stream = ClientStream(5, **self.STREAM)
        gaps = ArrivalStream(5, **self.GAPS)
        stream.request(0)
        gaps.gap(0)
        held = len(reachable(gaps))
        for seq in range(1, 2000):
            stream.request(seq)
            gaps.gap(seq)
        assert len(reachable(stream, Request)) == 1
        assert len(reachable(gaps)) <= held + 1

    @given(demands=st.lists(st.integers(0, 40), max_size=30))
    @example(demands=[0, 1, 1, 2, 3, 3, 3, 4])  # in order, with repeats
    @example(demands=[5, 2, 6, 0, 7, 7, 1, 8])  # jumps back, then on
    def test_any_demand_order_matches_the_eager_draw(self, demands):
        stream = ClientStream(5, **self.STREAM)
        gaps = ArrivalStream(5, **self.GAPS)
        eager = generate_stream(5, 42, **self.STREAM)
        eager_gaps = arrival_gaps(5, 42, **self.GAPS)
        for seq in demands:
            assert stream.request(seq) == eager[seq]
            assert gaps.gap(seq) == eager_gaps[seq]
        drawn = max(demands, default=-1) + 1
        assert list(stream) == eager[:drawn]
        assert stream.prefix(12) == eager[:12]
        assert gaps.prefix(12) == eager_gaps[:12]
        # Neither iteration nor a prefix moved the stream.
        assert list(stream) == eager[:drawn]
        assert stream.request(drawn) == eager[drawn]
        assert gaps.gap(drawn) == eager_gaps[drawn]


class TestValueFor:
    def test_writer_distinguishing(self):
        assert value_for(KEY_BASE, 0, 0, 4) != value_for(KEY_BASE, 1, 0, 4)
        assert value_for(KEY_BASE, 0, 0, 4) != value_for(KEY_BASE, 0, 1, 4)
        assert len(value_for(KEY_BASE, 0, 0, 4)) == 4


class TestArrivalGaps:
    def test_deterministic_and_positive(self):
        a = arrival_gaps(0, 50, mean_cycles=800, seed=7)
        assert a == arrival_gaps(0, 50, mean_cycles=800, seed=7)
        assert all(1 <= gap < 1600 for gap in a)

    def test_client_varies_gaps(self):
        assert arrival_gaps(0, 50, mean_cycles=800, seed=7) != arrival_gaps(
            1, 50, mean_cycles=800, seed=7
        )

    def test_mean_cycles_validated(self):
        with pytest.raises(ValueError, match="mean_cycles"):
            arrival_gaps(0, 10, mean_cycles=0)
