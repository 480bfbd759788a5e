"""Frame codec tests: round-trips, rejection, buffer sizing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WireDecodeError, WireError
from repro.rekey.packets import NackPacket, NackRequest
from repro.wire.codec import (
    NO_FINGERPRINT,
    SHARD_PAYLOAD_BUDGET,
    UNICAST_ROUND,
    WIRE_HEADER_SIZE,
    WIRE_MAGIC,
    WIRE_VERSION,
    Feedback,
    FrameKind,
    decode_announce,
    decode_feedback,
    decode_frame,
    decode_register,
    decode_shard_announce,
    decode_shard_feedback,
    encode_announce,
    encode_feedback,
    encode_frame,
    encode_register,
    encode_shard_announce,
    encode_shard_feedback,
    max_datagram_size,
    recv_buffer_size,
)


class FakeMessage:
    message_id = 3
    k = 5
    n_blocks = 7
    max_kid = 211


class TestFrameRoundTrip:
    def test_header_fields_survive(self):
        wire = encode_frame(
            FrameKind.DATA, 9, round_no=2, slot=41, payload=b"\x01\x02"
        )
        frame = decode_frame(wire)
        assert frame.kind is FrameKind.DATA
        assert frame.interval == 9
        assert frame.round_no == 2
        assert frame.slot == 41
        assert frame.payload == b"\x01\x02"

    def test_empty_payload(self):
        frame = decode_frame(encode_frame(FrameKind.ROUND_END, 1))
        assert frame.payload == b""
        assert len(encode_frame(FrameKind.ROUND_END, 1)) == WIRE_HEADER_SIZE

    def test_unicast_round_marker(self):
        frame = decode_frame(
            encode_frame(FrameKind.DATA, 1, round_no=UNICAST_ROUND)
        )
        assert frame.round_no == UNICAST_ROUND

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": -1},
            {"interval": 2**32},
            {"round_no": 256},
            {"slot": 2**16},
        ],
    )
    def test_out_of_range_header_fields_refused(self, kwargs):
        fields = {"interval": 1, "round_no": 0, "slot": 0}
        fields.update(kwargs)
        with pytest.raises(WireError):
            encode_frame(FrameKind.DATA, **fields)


class TestFrameRejection:
    def test_truncated_header(self):
        with pytest.raises(WireDecodeError):
            decode_frame(b"\xc3\x01\x00")

    def test_empty_datagram(self):
        with pytest.raises(WireDecodeError):
            decode_frame(b"")

    def test_bad_magic(self):
        wire = bytearray(encode_frame(FrameKind.DATA, 1))
        wire[0] = WIRE_MAGIC ^ 0xFF
        with pytest.raises(WireDecodeError):
            decode_frame(bytes(wire))

    def test_future_version(self):
        wire = bytearray(encode_frame(FrameKind.DATA, 1))
        wire[1] = WIRE_VERSION + 1
        with pytest.raises(WireDecodeError):
            decode_frame(bytes(wire))

    def test_unknown_kind(self):
        wire = bytearray(encode_frame(FrameKind.DATA, 1))
        wire[2] = 0x7F
        with pytest.raises(WireDecodeError):
            decode_frame(bytes(wire))

    def test_random_garbage(self):
        with pytest.raises(WireDecodeError):
            decode_frame(b"\x00" * 64)


class TestAnnounce:
    def test_round_trip(self):
        announce = decode_announce(encode_announce(FakeMessage(), 4))
        assert announce.message_id == 3
        assert announce.k == 5
        assert announce.n_blocks == 7
        assert announce.max_kid == 211
        assert announce.degree == 4

    def test_wrong_size_refused(self):
        with pytest.raises(WireDecodeError):
            decode_announce(b"\x00\x00")

    def test_degenerate_geometry_refused(self):
        payload = bytearray(encode_announce(FakeMessage(), 4))
        payload[-1] = 1  # degree 1 cannot be a key tree
        with pytest.raises(WireDecodeError):
            decode_announce(bytes(payload))


class TestFeedback:
    def make(self, **overrides):
        fields = dict(
            member_index=12,
            user_id=7,
            done=True,
            recovery_round=2,
            dropped=5,
            fingerprint="a1b2c3d4e5f6",
            latency_ms=17.5,
            nack=None,
        )
        fields.update(overrides)
        return Feedback(**fields)

    def test_round_trip_without_nack(self):
        feedback = decode_feedback(encode_feedback(self.make()))
        assert feedback.member_index == 12
        assert feedback.user_id == 7
        assert feedback.done is True
        assert feedback.recovery_round == 2
        assert feedback.dropped == 5
        assert feedback.fingerprint == "a1b2c3d4e5f6"
        assert feedback.latency_ms == pytest.approx(17.5, rel=1e-6)
        assert feedback.nack is None

    def test_round_trip_with_nack(self):
        nack = NackPacket(
            rekey_message_id=3,
            user_id=7,
            requests=(NackRequest(0, 2), NackRequest(3, 1)),
        )
        feedback = decode_feedback(
            encode_feedback(self.make(done=False, nack=nack))
        )
        assert feedback.done is False
        assert feedback.nack is not None
        assert feedback.nack.user_id == 7
        assert feedback.nack.max_requested == 2

    def test_no_fingerprint_placeholder(self):
        feedback = decode_feedback(
            encode_feedback(self.make(fingerprint=NO_FINGERPRINT))
        )
        assert feedback.fingerprint == NO_FINGERPRINT

    def test_dropped_clamped_to_u16(self):
        feedback = decode_feedback(
            encode_feedback(self.make(dropped=10**6))
        )
        assert feedback.dropped == 0xFFFF

    def test_bad_fingerprint_refused(self):
        with pytest.raises(WireError):
            encode_feedback(self.make(fingerprint="not hex!!"))
        with pytest.raises(WireError):
            encode_feedback(self.make(fingerprint="abcd"))

    def test_truncated_refused(self):
        with pytest.raises(WireDecodeError):
            decode_feedback(b"\x00" * 4)

    def test_zero_parity_nack_tail_refused(self):
        """A tail that parses as a NACK but asks for 0 parity packets is
        the wire's garbage to refuse, not a bare PacketError that would
        fail the server's whole interval."""
        nack = NackPacket(
            rekey_message_id=3, user_id=7, requests=(NackRequest(2, 1),)
        ).encode()
        tail = nack[:4] + b"\x00" + nack[5:]  # n_parity 1 -> 0
        with pytest.raises(WireDecodeError):
            decode_feedback(encode_feedback(self.make()) + tail)


def shard_feedback(feedbacks):
    """The SHARD_FEEDBACK payloads of ``feedbacks``, each encoded."""
    return encode_shard_feedback([encode_feedback(f) for f in feedbacks])


def entry(member_index, nack_blocks=0, **overrides):
    nack = None
    if nack_blocks:
        nack = NackPacket(
            rekey_message_id=3,
            user_id=member_index,
            requests=tuple(NackRequest(b, 1 + b) for b in range(nack_blocks)),
        )
    fields = dict(
        member_index=member_index,
        user_id=1000 + member_index,
        done=not nack_blocks,
        recovery_round=1,
        dropped=member_index % 7,
        fingerprint="%012x" % member_index,
        latency_ms=float(member_index),
        nack=nack,
        trace_id=99,
        epoch=4,
    )
    fields.update(overrides)
    return Feedback(**fields)


class TestShardAnnounce:
    ANNOUNCE = encode_announce(FakeMessage(), 4, trace_id=5, epoch=2)

    def test_round_trip(self):
        roster = [(0, True), (1, False), (2, True), (9, True), (70000, False)]
        (payload,) = encode_shard_announce(self.ANNOUNCE, roster)
        announce, decoded = decode_shard_announce(payload)
        assert decoded == roster
        assert announce == decode_announce(self.ANNOUNCE)
        assert len(payload) == len(self.ANNOUNCE) + 4 * len(roster)

    def test_split_into_standalone_payloads_under_the_budget(self):
        roster = [(i, i % 3 == 0) for i in range(1500)]
        payloads = encode_shard_announce(self.ANNOUNCE, roster)
        assert len(payloads) > 1
        assert all(len(p) <= SHARD_PAYLOAD_BUDGET for p in payloads)
        decoded = [decode_shard_announce(p)[1] for p in payloads]
        assert [pair for part in decoded for pair in part] == roster

    def test_empty_roster_is_one_payload(self):
        (payload,) = encode_shard_announce(self.ANNOUNCE, [])
        assert decode_shard_announce(payload)[1] == []

    def test_index_out_of_range_refused(self):
        with pytest.raises(WireError):
            encode_shard_announce(self.ANNOUNCE, [(2**31, True)])

    def test_truncated_roster_refused(self):
        with pytest.raises(WireDecodeError):
            decode_shard_announce(self.ANNOUNCE + bytes([0, 0, 3]))


class TestShardFeedback:
    def test_round_trip(self):
        entries = [entry(i, nack_blocks=i % 3) for i in range(20)]
        (payload,) = shard_feedback(entries)
        # whole-number latencies survive the float32 field exactly
        assert decode_shard_feedback(payload) == entries

    def test_entries_are_feedback_payloads(self):
        one = entry(1, nack_blocks=2)
        (payload,) = shard_feedback([one])
        assert payload[4:] == encode_feedback(one)

    def test_split_into_datagrams_under_the_budget(self):
        entries = [entry(i, nack_blocks=i % 4) for i in range(300)]
        payloads = shard_feedback(entries)
        assert len(payloads) > 1
        assert all(len(p) <= SHARD_PAYLOAD_BUDGET for p in payloads)
        decoded = [f for p in payloads for f in decode_shard_feedback(p)]
        assert decoded == entries

    def test_trace_and_epoch_ride_per_entry(self):
        entries = [entry(0), entry(1, epoch=5), entry(2, trace_id=7)]
        (payload,) = shard_feedback(entries)
        assert decode_shard_feedback(payload) == entries

    def test_no_entries_no_datagram(self):
        assert shard_feedback([]) == []

    @pytest.mark.parametrize("cut", [1, 20, -1])
    def test_truncated_or_padded_refused(self, cut):
        (payload,) = shard_feedback([entry(1, nack_blocks=2)])
        with pytest.raises(WireDecodeError):
            decode_shard_feedback(payload[:cut])
        with pytest.raises(WireDecodeError):
            decode_shard_feedback(payload + b"\x00")

    def test_bad_nack_tail_refused(self):
        (payload,) = shard_feedback([entry(1, nack_blocks=1)])
        wire = bytearray(payload)
        wire[-2] = 0  # the request's n_parity: 0 parity is no request
        with pytest.raises(WireDecodeError):
            decode_shard_feedback(bytes(wire))


class TestRegister:
    def test_round_trip(self):
        register = decode_register(encode_register(99, 1234))
        assert register.member_index == 99
        assert register.user_id == 1234

    def test_wrong_size_refused(self):
        with pytest.raises(WireDecodeError):
            decode_register(b"\x00")


#: the full u64 trace-id range, endpoints included
trace_ids = st.integers(min_value=0, max_value=2**64 - 1)


class TestTracePropagation:
    """Every control frame kind must carry the trace id losslessly."""

    @given(trace_id=trace_ids, degree=st.integers(2, 255))
    @settings(max_examples=50, deadline=None)
    def test_announce_preserves_trace(self, trace_id, degree):
        announce = decode_announce(
            encode_announce(FakeMessage(), degree, trace_id=trace_id)
        )
        assert announce.trace_id == trace_id
        assert announce.degree == degree

    @given(trace_id=trace_ids)
    @settings(max_examples=50, deadline=None)
    def test_feedback_preserves_trace(self, trace_id):
        feedback = Feedback(
            member_index=12,
            user_id=7,
            done=True,
            recovery_round=2,
            dropped=5,
            fingerprint="a1b2c3d4e5f6",
            latency_ms=17.5,
            nack=None,
            trace_id=trace_id,
        )
        assert (
            decode_feedback(encode_feedback(feedback)).trace_id
            == trace_id
        )

    @given(trace_id=trace_ids)
    @settings(max_examples=50, deadline=None)
    def test_register_preserves_trace(self, trace_id):
        register = decode_register(
            encode_register(99, 1234, trace_id=trace_id)
        )
        assert register.trace_id == trace_id
        assert register.member_index == 99
        assert register.user_id == 1234

    def test_trace_defaults_to_none_sentinel(self):
        assert decode_register(encode_register(1, 2)).trace_id == 0
        assert decode_announce(
            encode_announce(FakeMessage(), 4)
        ).trace_id == 0

    @given(blob=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_garbage_still_refused(self, blob):
        """Widening the structs must not have opened a garbage hole."""
        for decoder in (decode_announce, decode_feedback, decode_register):
            try:
                decoder(blob)
            except WireDecodeError:
                pass


#: the full u32 epoch range, endpoints included
epochs = st.integers(min_value=0, max_value=2**32 - 1)


class TestEpochPropagation:
    """Every control frame kind must carry the leader epoch losslessly —
    the end-to-end fencing rides on it (docs/robustness.md)."""

    @given(epoch=epochs)
    @settings(max_examples=50, deadline=None)
    def test_announce_preserves_epoch(self, epoch):
        announce = decode_announce(
            encode_announce(FakeMessage(), 4, epoch=epoch)
        )
        assert announce.epoch == epoch

    @given(epoch=epochs)
    @settings(max_examples=50, deadline=None)
    def test_feedback_preserves_epoch(self, epoch):
        feedback = Feedback(
            member_index=12,
            user_id=7,
            done=True,
            recovery_round=2,
            dropped=5,
            fingerprint="a1b2c3d4e5f6",
            latency_ms=17.5,
            nack=None,
            epoch=epoch,
        )
        assert decode_feedback(encode_feedback(feedback)).epoch == epoch

    @given(epoch=epochs)
    @settings(max_examples=50, deadline=None)
    def test_register_preserves_epoch(self, epoch):
        register = decode_register(encode_register(99, 1234, epoch=epoch))
        assert register.epoch == epoch
        assert register.member_index == 99

    def test_epoch_defaults_to_zero(self):
        """Epoch 0 is the unfenced sentinel (single-node mode)."""
        assert decode_register(encode_register(1, 2)).epoch == 0
        assert decode_announce(encode_announce(FakeMessage(), 4)).epoch == 0

    @given(epoch=epochs, trace_id=trace_ids)
    @settings(max_examples=50, deadline=None)
    def test_epoch_and_trace_coexist(self, epoch, trace_id):
        register = decode_register(
            encode_register(3, 17, trace_id=trace_id, epoch=epoch)
        )
        assert register.epoch == epoch
        assert register.trace_id == trace_id


class TestBufferSizing:
    def test_datagram_bound_is_header_plus_packet(self):
        assert max_datagram_size(1027) == WIRE_HEADER_SIZE + 1027

    def test_buffer_floors_at_2k(self):
        assert recv_buffer_size(100) == 2048

    def test_buffer_rounds_up_with_slack(self):
        size = recv_buffer_size(4096)
        assert size >= max_datagram_size(4096) + 64
        assert size % 1024 == 0

    def test_paper_packet_size_fits_legacy_buffer(self):
        # The seed's hardcoded 4096 happened to fit the paper's 1027;
        # the shared rule must agree where the old constant was right.
        assert recv_buffer_size(1027) <= 4096
