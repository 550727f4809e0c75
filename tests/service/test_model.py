"""Request/response model and the deterministic client generators."""

import copy
import dataclasses
import pickle

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


def scan_response(**fields):
    return Response(**{
        "client": 1, "seq": 4, "kind": "scan", "status": "ok",
        "submitted_at": 100, "completed_at": 350,
        "values": ((KEY_BASE, (7, 8)), (KEY_BASE + 1, (9, 10))),
        **fields,
    })


class TestResponse:
    def test_latency(self):
        response = Response(
            client=1, seq=0, kind="put", status="ok",
            submitted_at=100, completed_at=350, values=(),
        )
        assert response.latency == 250

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        original = scan_response()
        thawed = pickle.loads(pickle.dumps(original, protocol))
        assert thawed == original and thawed is not original
        assert thawed.values == original.values and thawed.latency == 250

    def test_deepcopy_astuple_and_replace(self):
        original = scan_response()
        assert copy.deepcopy(original) == original
        assert dataclasses.astuple(original) == (
            1, 4, "scan", "ok", 100, 350,
            ((KEY_BASE, (7, 8)), (KEY_BASE + 1, (9, 10))),
        )
        shed = dataclasses.replace(original, status="shed", values=())
        assert (shed.status, shed.values, shed.seq) == ("shed", (), 4)
        assert original.status == "ok"

    def test_frozen_and_slotted(self):
        original = scan_response()
        with pytest.raises(dataclasses.FrozenInstanceError):
            original.status = "shed"
        assert not hasattr(original, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(original, "extra", 1)

    def test_values_are_required(self):
        with pytest.raises(TypeError, match="values"):
            Response(
                client=1, seq=0, kind="put", status="ok",
                submitted_at=100, completed_at=350,
            )


class TestGenerateStream:
    def test_deterministic(self):
        a = ClientStream(0, seed=11, theta=0.6).prefix(40)
        b = ClientStream(0, seed=11, theta=0.6).prefix(40)
        assert a == b

    def test_seed_and_client_vary_stream(self):
        base = ClientStream(0, seed=11).prefix(40)
        assert ClientStream(0, seed=12).prefix(40) != base
        assert ClientStream(1, seed=11).prefix(40) != base

    def test_seq_is_stream_position(self):
        stream = ClientStream(2, seed=7).prefix(25)
        assert [r.seq for r in stream] == list(range(25))
        assert all(r.client == 2 for r in stream)

    def test_mix_respected(self):
        stream = ClientStream(0, mix={"put": 1.0}, seed=3).prefix(200)
        assert all(r.kind == "put" for r in stream)
        assert all(len(r.keys) == 1 and len(r.values) == 1 for r in stream)

    def test_txn_keys_distinct_and_bounded(self):
        stream = ClientStream(
            0, mix={"txn": 1.0}, txn_keys=4, num_keys=32, seed=5
        ).prefix(300)
        for request in stream:
            assert 2 <= len(request.keys) <= 4
            assert len(set(request.keys)) == len(request.keys)
            assert len(request.values) == len(request.keys)

    def test_keys_in_population(self):
        stream = ClientStream(0, num_keys=16, seed=9).prefix(100)
        for request in stream:
            for key in request.keys:
                assert KEY_BASE <= key < KEY_BASE + 16

    def test_unknown_mix_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mix kind"):
            ClientStream(0, mix={"put": 0.5, "del": 0.5}).prefix(10)

    def test_default_mix_covers_all_kinds(self):
        stream = ClientStream(0, mix=dict(DEFAULT_MIX), seed=1).prefix(400)
        assert {r.kind for r in stream} == set(OP_KINDS)

    def test_generate_streams_one_per_client(self):
        streams = [ClientStream(c, seed=7).prefix(10) for c in range(3)]
        assert len(streams) == 3
        assert [s[0].client for s in streams] == [0, 1, 2]


class TestPrefixStability:
    """Duration mode depends on streams whose seed never encodes a
    request count: growing a run extends the traffic, never reshuffles
    the prefix already served."""

    def test_request_stream_prefix_stable(self):
        short = ClientStream(3, seed=11, theta=0.6, num_keys=32).prefix(20)
        long = ClientStream(3, seed=11, theta=0.6, num_keys=32).prefix(200)
        assert long[:20] == short

    def test_lazy_stream_matches_eager_prefix(self):
        stream = ClientStream(5, seed=4, theta=0.9, num_keys=16)
        # Out-of-order demand still yields the in-order draw.
        late = stream.request(30)
        early = stream.request(0)
        eager = ClientStream(5, seed=4, theta=0.9, num_keys=16).prefix(31)
        assert early == eager[0] and late == eager[30]

    def test_arrival_gaps_prefix_stable(self):
        short = ArrivalStream(2, mean_cycles=700, seed=9).prefix(15)
        long = ArrivalStream(2, mean_cycles=700, seed=9).prefix(150)
        assert long[:15] == short

    def test_stream_seed_varies_with_theta_and_population(self):
        def draw(theta, num_keys):
            return ClientStream(
                0, seed=1, theta=theta, num_keys=num_keys
            ).prefix(30)

        base = draw(0.6, 64)
        assert draw(0.9, 64) != base
        assert draw(0.6, 32) != base


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
        eager = ClientStream(5, **self.STREAM).prefix(42)
        eager_gaps = ArrivalStream(5, **self.GAPS).prefix(42)
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
        a = ArrivalStream(0, mean_cycles=800, seed=7).prefix(50)
        assert a == ArrivalStream(0, mean_cycles=800, seed=7).prefix(50)
        assert all(1 <= gap < 1600 for gap in a)

    def test_client_varies_gaps(self):
        a = ArrivalStream(0, mean_cycles=800, seed=7).prefix(50)
        assert a != ArrivalStream(1, mean_cycles=800, seed=7).prefix(50)

    def test_mean_cycles_validated(self):
        with pytest.raises(ValueError, match="mean_cycles"):
            ArrivalStream(0, mean_cycles=0).prefix(10)
