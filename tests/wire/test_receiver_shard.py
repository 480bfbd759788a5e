"""Receiver shards: one socket, one decode, many member state machines.

No sockets here: frames are fed to ``ReceiverShard._on_datagram``
directly, and the server's group-addressed send runs against a
recording transport.  The loopback fleets in test_fleet_loopback.py pin
the same behaviour end to end.
"""

import collections
import copy
import random

import pytest

from repro.chaos.wire_faults import SendPlan
from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.errors import WireError
from repro.rekey.packets import (
    ENC_HEADER_SIZE,
    ENCRYPTION_ENTRY_SIZE,
    EncPacket,
)
from repro.service.members import MemberFleet
from repro.sim.topology import LossParameters
from repro.wire import codec
from repro.wire.client import ReceiverShard, WireClient
from repro.wire.codec import (
    FrameKind,
    decode_feedback,
    decode_frame,
    encode_announce,
    encode_frame,
)
from repro.wire.delivery import WireDelivery
from repro.wire.loss import MemberLoss
from repro.wire.server import WireOutcome, WireServer

#: Bernoulli loss so a few slots of a short message already bite.
LOSS = LossParameters(
    alpha=0.5, p_high=0.4, p_low=0.1, p_source=0.0, bursty=False
)
LOSSLESS = LossParameters(
    alpha=0.0, p_high=0.0, p_low=0.0, p_source=0.0, bursty=False
)
#: ENC packets of six encryptions: a few members per covering packet.
SMALL_PACKETS = dict(packet_size=ENC_HEADER_SIZE + 6 * ENCRYPTION_ENTRY_SIZE)


def rekeyed_group(n=8, leavers=("m00",), **config):
    server = GroupKeyServer(
        ["m%02d" % i for i in range(n)],
        config=GroupConfig(block_size=4, seed=3, **config),
    )
    fleet = MemberFleet.register_all(server)
    for name in leavers:
        server.request_leave(name)
        fleet.evict(name)
    _, message = server.rekey()
    return server, fleet, message


def data_frames(message, interval=1):
    """The message's ENC packets then one block-0 parity, slot-stamped."""
    payloads = [p.encode(message.packet_size) for p in message.enc_packets()]
    payloads += [p.encode() for p in message.parity_packets(0, 2)]
    return [
        encode_frame(
            FrameKind.DATA, interval, round_no=1, slot=slot, payload=payload
        )
        for slot, payload in enumerate(payloads)
    ]


def announce(server, message, interval=1, served=True):
    return encode_frame(
        FrameKind.ANNOUNCE,
        interval,
        slot=1 if served else 0,
        payload=encode_announce(message, server.config.degree),
    )


def make_client(member, index, shard=None, loss=LOSS, seed=11):
    client = WireClient(
        "c%d" % index,
        index,
        member,
        ("127.0.0.1", 1),
        loss_params=loss,
        seed=seed,
        spacing_seconds=0.01,
        shard=shard,
    )
    if shard is not None:
        shard.host(client)  # what start() does, without a socket
    return client


class RecordingSocket:
    """A connected datagram transport that keeps what is sent."""

    def __init__(self, sent):
        self.sent = sent

    def sendto(self, data, address=None):
        self.sent.append(data)


def reports_in(sent):
    """``{(member_index, round): Feedback}`` of every FEEDBACK in
    ``sent``, whether a member's own or a shard's table of them."""
    reports = {}
    for wire in sent:
        frame = decode_frame(wire)
        if frame.kind is FrameKind.FEEDBACK:
            entries = [decode_feedback(frame.payload)]
        else:
            entries = codec.decode_shard_feedback(frame.payload)
        for feedback in entries:
            reports[(feedback.member_index, frame.round_no)] = feedback
    return reports


def facts(feedback):
    nack = feedback.nack
    return (
        feedback.done,
        feedback.recovery_round,
        feedback.dropped,
        feedback.fingerprint,
        None if nack is None else nack.requests,
    )


def two_round_frames(message, interval=1):
    """Round 1: every ENC packet and one parity per block; round 2:
    three fresh parity per block — slot-stamped, ROUND_END after each."""
    rounds = [
        [p.encode(message.packet_size) for p in message.enc_packets()],
        [],
    ]
    for block in range(message.n_blocks):
        rounds[0] += [p.encode() for p in message.parity_packets(block, 1)]
        rounds[1] += [p.encode() for p in message.parity_packets(block, 3, 1)]
    frames, slot = [], 0
    for round_no, payloads in enumerate(rounds, 1):
        for payload in payloads:
            frames.append(
                encode_frame(
                    FrameKind.DATA,
                    interval,
                    round_no=round_no,
                    slot=slot,
                    payload=payload,
                )
            )
            slot += 1
        frames.append(
            encode_frame(FrameKind.ROUND_END, interval, round_no=round_no)
        )
    return frames


#: a loss seed at which, in :func:`fec_group`, members lose their
#: covering ENC frame and recover by FEC, one of them only in round 2
FEC_SEED = 11


def fec_group():
    return rekeyed_group(32, leavers=("m00", "m05", "m17"), **SMALL_PACKETS)


def covering_slot(message, user_id):
    return next(
        slot
        for slot, packet in enumerate(message.enc_packets())
        if packet.covers_user(user_id)
    )


class TestDispatch:
    def test_shard_feeds_members_like_their_own_sockets(self):
        """Over two rounds, with round-2 parity, a member behind a shard
        reports each round exactly what its twin on its own socket
        reports: same losses, NACKs, recovery round and key."""
        server, fleet, message = fec_group()
        names = sorted(fleet.members)
        shard = ReceiverShard(("127.0.0.1", 1))
        sent_alone, sent_sharded = [], []
        alone = [
            make_client(copy.deepcopy(fleet.members[name]), i, seed=FEC_SEED)
            for i, name in enumerate(names)
        ]
        sharded = [
            make_client(fleet.members[name], i, shard, seed=FEC_SEED)
            for i, name in enumerate(names)
        ]
        for client in alone:
            client._transport = RecordingSocket(sent_alone)
        for client in sharded:
            client._transport = RecordingSocket(sent_sharded)
        shard._transport = RecordingSocket(sent_sharded)
        for client in sharded + alone:
            client._on_datagram(announce(server, message))
        del sent_alone[:], sent_sharded[:]  # the announce acks
        for frame in two_round_frames(message):
            shard._on_datagram(frame)
            for client in alone:
                client._on_datagram(frame)
        assert shard.errors == [] and shard.data_gaps == 0
        ours, theirs = reports_in(sent_sharded), reports_in(sent_alone)
        assert set(ours) == set(theirs) == {
            (index, round_no)
            for index in range(len(names))
            for round_no in (1, 2)
        }
        for key, feedback in theirs.items():
            assert facts(ours[key]) == facts(feedback), key
        for mine, twin in zip(sharded, alone):
            assert mine.errors == twin.errors == []
            assert mine.data_dropped == twin.data_dropped
            assert mine.member.group_key == twin.member.group_key
            assert mine.member.group_key == server.group_key
        # The seed exercises the FEC path: covering frame lost, keys
        # recovered by decoding the block, once only from round 2.
        by_fec = [
            index
            for index, client in enumerate(alone)
            if MemberLoss(LOSS, index, 1, FEC_SEED, 0.01).lost(
                covering_slot(message, client._session.transport.user_id)
            )
        ]
        assert by_fec
        assert all(theirs[(index, 2)].done for index in by_fec)
        assert 2 in {theirs[(index, 2)].recovery_round for index in by_fec}
        assert sum(c.data_dropped for c in sharded) > 0

    def test_done_members_leave_the_fan_out(self, monkeypatch):
        """At zero loss a member is done at its covering ENC frame, and
        the shard runs none of its code for any later frame: each member
        is handed the frames up to its covering one, not every frame."""
        server, message, shard, clients = small_packet_group()
        handed = collections.Counter()
        guarded = WireClient._guarded

        def spy(client, *args):
            handed[client.member_index] += 1
            return guarded(client, *args)

        monkeypatch.setattr(WireClient, "_guarded", spy)
        frames = data_frames(message)
        assert len(frames) > len(message.enc_packets()) > 1
        for frame in frames:
            shard._on_datagram(frame)
        assert handed == {
            c.member_index: 1
            + covering_slot(message, c._session.transport.user_id)
            for c in clients
        }
        assert all(c.member.group_key == server.group_key for c in clients)

    def test_unserved_and_dead_members_are_skipped(self):
        server, fleet, message = rekeyed_group()
        shard = ReceiverShard(("127.0.0.1", 1))
        names = sorted(fleet.members)
        idle = make_client(fleet.members[names[0]], 0, shard)
        dead = make_client(fleet.members[names[1]], 1, shard)
        idle._on_datagram(announce(server, message, served=False))
        dead._on_datagram(announce(server, message))
        dead.dead = True
        for frame in data_frames(message):
            shard._on_datagram(frame)
        shard._on_datagram(encode_frame(FrameKind.ROUND_END, 1, round_no=1))
        assert idle._session.rounds_reported == 0
        # The dead member consumed no DATA and closed no round.
        assert not dead._session.saw_data and dead.data_dropped == 0
        assert dead._session.rounds_reported == 0
        assert dead.member.group_key != server.group_key

    def test_member_addressed_frames_are_refused(self):
        server, fleet, message = rekeyed_group()
        shard = ReceiverShard(("127.0.0.1", 1))
        client = make_client(fleet.members[sorted(fleet.members)[0]], 0, shard)
        shard._on_datagram(announce(server, message))
        assert client._session is None
        assert shard.errors and "ANNOUNCE" in shard.errors[0]

    def test_garbage_is_counted_not_fatal(self):
        shard = ReceiverShard(("127.0.0.1", 1))
        shard._on_datagram(b"\x00not a frame")
        assert shard.decode_errors == 1
        assert shard.errors == []


class TestDeathInAShard:
    """A hosted member dies mid-interval, no fault seam bound: its shard
    reports without it, and the liveness budget evicts it alone.

    Zero loss, so no member's round depends on the victim's NACK (a
    missing NACK may rightly change the parity the others receive)."""

    LIVENESS_TRIES = 3

    def deliver(self, monkeypatch, crash_plan):
        outcomes = []
        deliver = WireServer.deliver

        async def keep_outcome(server, *args, **kwargs):
            outcomes.append(await deliver(server, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(WireServer, "deliver", keep_outcome)
        config = GroupConfig(
            block_size=5, seed=3, nack_window_seconds=0.05, loss=LOSSLESS
        )
        server = GroupKeyServer(
            ["m%02d" % i for i in range(12)], config=config
        )
        fleet = MemberFleet.register_all(server)
        server.request_leave("m00")
        fleet.evict("m00")
        _, message = server.rekey()
        with WireDelivery(
            config,
            seed=4,
            liveness_tries=self.LIVENESS_TRIES,
            crash_plan=crash_plan,
        ) as backend:
            report = backend.deliver(message, fleet)
            indices = dict(backend._indices)
        return report, outcomes[-1], fleet, server, indices

    def test_dead_member_is_retried_then_evicted_alone(self, monkeypatch):
        victim = "m05"
        report, outcome, fleet, server, indices = self.deliver(
            monkeypatch, {victim: (1, 1)}
        )
        _, baseline, _, _, _ = self.deliver(monkeypatch, {})
        dead = indices[victim]
        assert outcome.casualties == {dead}
        assert report.carried == [victim]
        assert dead not in outcome.results
        # Round 1's window retried the shard until the budget ran out;
        # the shard answered each try from its cached table.
        assert outcome.feedback_retries == self.LIVENESS_TRIES - 1
        assert outcome.feedback_datagrams >= 1 + self.LIVENESS_TRIES
        assert baseline.casualties == set()
        assert baseline.feedback_retries == 0
        others = {i: facts(f) for i, f in baseline.results.items() if i != dead}
        assert {i: facts(f) for i, f in outcome.results.items()} == others
        for name, member in fleet.members.items():
            if name != victim:
                assert member.group_key == server.group_key


class TestDataGaps:
    def test_skipped_slot_counts_once(self):
        _, _, message = rekeyed_group()
        frames = data_frames(message)
        shard = ReceiverShard(("127.0.0.1", 1))
        for slot in (0, 1, 3):
            shard._on_datagram(frames[slot])
        assert shard.data_gaps == 1

    def test_a_new_interval_restarts_at_slot_zero(self):
        _, _, message = rekeyed_group()
        shard = ReceiverShard(("127.0.0.1", 1))
        for interval in (1, 2):
            for frame in data_frames(message, interval=interval):
                shard._on_datagram(frame)
        assert shard.data_gaps == 0


class RecordingTransport:
    def __init__(self):
        self.sent = []

    def sendto(self, data, address):
        self.sent.append((data, address))


class PassThroughSeam:
    def bind(self, obs):
        pass

    def plan_send(self, member_index, wire):
        return SendPlan(((wire, 0.0),))


def recording_server(faults=None):
    server = WireServer(GroupConfig(block_size=4), faults=faults)
    server._transport = RecordingTransport()
    return server


class TestMulticast:
    def test_one_datagram_per_shard_and_none_to_casualties(self):
        server = recording_server()
        for index in range(6):
            server.subscribe(index, ("127.0.0.1", 9000 + index % 2))
        server.subscribe(6, ("127.0.0.1", 9002))
        server.casualties.add(6)
        outcome = WireOutcome(interval=1)
        server._multicast(b"frame", range(7), outcome)
        assert sorted(a for _, a in server._transport.sent) == [
            ("127.0.0.1", 9000),
            ("127.0.0.1", 9001),
        ]
        assert outcome.datagrams_sent == 2

    def test_forget_unsubscribes(self):
        server = recording_server()
        server.subscribe(0, ("127.0.0.1", 9000))
        server.forget(0)
        assert server.subscriptions == {}
        with pytest.raises(WireError, match="no receiver shard"):
            server._multicast(b"frame", [0], WireOutcome(interval=1))

    def test_fault_seam_keeps_frames_member_addressed(self):
        server = recording_server(faults=PassThroughSeam())
        for index in range(3):
            server._addresses[index] = ("127.0.0.1", 7000 + index)
            server.subscribe(index, ("127.0.0.1", 9000))
        outcome = WireOutcome(interval=1)
        server._multicast(b"frame", range(3), outcome)
        assert outcome.datagrams_sent == 3
        assert [a for _, a in server._transport.sent] == [
            ("127.0.0.1", 7000),
            ("127.0.0.1", 7001),
            ("127.0.0.1", 7002),
        ]


def small_packet_group():
    """32 members, ENC packets of six encryptions, announced to one
    lossless shard: several members share each covering packet."""
    server, fleet, message = rekeyed_group(
        32, leavers=("m00", "m05", "m17"), **SMALL_PACKETS
    )
    shard = ReceiverShard(("127.0.0.1", 1))
    clients = [
        make_client(fleet.members[name], i, shard, loss=LOSSLESS)
        for i, name in enumerate(sorted(fleet.members))
    ]
    for client in clients:
        client._on_datagram(announce(server, message))
    return server, message, shard, clients


def covered_by(packet, clients):
    return [
        c for c in clients if packet.covers_user(c._session.transport.user_id)
    ]


def spy_on_decode(monkeypatch):
    decoded = []
    decode = EncPacket.decode.__func__

    def spy(cls, data):
        packet = decode(cls, data)
        decoded.append(packet)
        return packet

    monkeypatch.setattr(EncPacket, "decode", classmethod(spy))
    return decoded


class TestDoneMembersRepeat:
    def test_done_member_report_is_neither_rebuilt_nor_reencoded(
        self, monkeypatch
    ):
        """A member done before round r reports round r with its round
        r-1 report, and its shard reuses that report's encoded entry:
        no new Feedback (no key fingerprint) and no re-encoding for the
        rest of the interval — unless the member's epoch changes."""
        from repro.wire import client as client_module

        server, message, shard, clients = small_packet_group()
        sent = []
        shard._transport = RecordingSocket(sent)
        for frame in data_frames(message):
            shard._on_datagram(frame)

        def round_end(round_no):
            shard._on_datagram(
                encode_frame(FrameKind.ROUND_END, 1, round_no=round_no)
            )

        round_end(1)
        assert all(c._session.done for c in clients)
        built, encoded = collections.Counter(), collections.Counter()
        feedback, encode = WireClient._feedback, client_module.encode_feedback

        def build_spy(client, *args):
            built[client.member_index] += 1
            return feedback(client, *args)

        def encode_spy(report):
            encoded[report.member_index] += 1
            return encode(report)

        monkeypatch.setattr(WireClient, "_feedback", build_spy)
        monkeypatch.setattr(client_module, "encode_feedback", encode_spy)
        round_end(2)
        round_end(3)
        assert built == {} and encoded == {}
        reports = reports_in(sent)
        for client in clients:
            session = client._session
            assert session.reports[3] is session.reports[1]
            # the round counter still advances while done
            assert session.transport._current_round == 4
            index = client.member_index
            assert reports[(index, 3)] == reports[(index, 1)]
        # A new epoch is a new report, built and encoded once.
        clients[0].epoch += 1
        round_end(4)
        assert built == {0: 1} and encoded == {0: 1}
        assert reports_in(sent)[(0, 4)].epoch == clients[0].epoch
        assert all(c.member.group_key == server.group_key for c in clients)


class TestSharedDecode:
    def test_one_decode_per_covering_frame(self, monkeypatch):
        """The shard materialises a covering ENC packet once; every
        covered member holds that same object and gets the group key."""
        server, message, shard, clients = small_packet_group()
        packet = message.enc_packets()[1]
        covered = covered_by(packet, clients)
        assert 3 <= len(covered) < len(clients)
        decoded = spy_on_decode(monkeypatch)
        shard._on_datagram(data_frames(message)[1])
        assert decoded == [packet]
        for client in clients:
            specific = client._session.transport.specific_packet
            if client in covered:
                assert specific is decoded[0]
                assert client.member.group_key == server.group_key
            else:
                assert specific is None
        assert all(c.errors == [] for c in clients)

    def test_each_frame_gets_its_own_decode(self, monkeypatch):
        server, message, shard, clients = small_packet_group()
        decoded = spy_on_decode(monkeypatch)
        frames = data_frames(message)
        packets = message.enc_packets()
        for frame in frames[: len(packets)]:
            shard._on_datagram(frame)
        assert decoded == list(packets)
        for client in clients:
            assert client.member.group_key == server.group_key


class TestSharedUplink:
    @pytest.mark.parametrize("bursty", [True, False])
    def test_shared_uplink_equals_a_private_one(self, bursty):
        """Members reading the shard's source chain lose exactly the
        slots, and count exactly the drops, of members built alone —
        whatever order each member asks for its slots in."""
        params = LossParameters(
            alpha=0.25, p_high=0.3, p_low=0.05, p_source=0.2, bursty=bursty
        )
        seed, spacing, n_slots = 11, 0.01, 96
        shard = ReceiverShard(("127.0.0.1", 1))
        rng = random.Random(5)
        for interval in (1, 2, 3):
            shared = [
                MemberLoss(
                    params,
                    index,
                    interval,
                    seed,
                    spacing,
                    uplink=shard.uplink(params, interval, seed, spacing),
                )
                for index in range(64)
            ]
            alone = [
                MemberLoss(params, index, interval, seed, spacing)
                for index in range(64)
            ]
            # One source chain for the interval, not one per member.
            uplink = shard.uplink(params, interval, seed, spacing)
            assert all(loss._source is uplink.source for loss in shared)
            orders = [rng.sample(range(n_slots), n_slots) for _ in shared]
            for step in range(n_slots):
                for ours, theirs, order in zip(shared, alone, orders):
                    slot = order[step]
                    assert ours.lost(slot) == theirs.lost(slot)
            assert [loss.dropped for loss in shared] == [
                loss.dropped for loss in alone
            ]
            assert any(uplink.source.lost(s) for s in range(n_slots))

    def test_a_new_interval_gets_a_new_chain(self):
        shard = ReceiverShard(("127.0.0.1", 1))
        first = shard.uplink(LOSS, 1, 11, 0.01)
        assert shard.uplink(LOSS, 1, 11, 0.01) is first
        assert shard.uplink(LOSS, 2, 11, 0.01) is not first
        assert shard.uplink(LOSS, 2, 12, 0.01).key == (LOSS, 2, 12, 0.01)

    def test_member_refuses_another_intervals_uplink(self):
        shard = ReceiverShard(("127.0.0.1", 1))
        with pytest.raises(WireError, match="another interval"):
            MemberLoss(
                LOSS, 3, 2, 11, 0.01, uplink=shard.uplink(LOSS, 1, 11, 0.01)
            )


def corrupt_ciphertexts(frame_payload):
    """The ENC packet with one byte of every ciphertext flipped: it still
    parses, but no encryption in it decrypts."""
    wire = bytearray(frame_payload)
    for entry in range(len(EncPacket.decode(frame_payload).encryptions)):
        wire[ENC_HEADER_SIZE + entry * ENCRYPTION_ENTRY_SIZE + 2] ^= 0xFF
    return bytes(wire)


class TestNoCrossMemberPoisoning:
    @pytest.mark.parametrize("clean_via", ["shard", "socket"])
    def test_corrupt_copy_stays_with_its_member(self, clean_via):
        """Under a fault seam one member's socket gets a corrupted but
        parseable copy of a slot.  That member keeps its own decode; the
        clean copy, on the shard or on another member's socket, is
        decoded from its own bytes and yields the group key."""
        server, message, shard, clients = small_packet_group()
        packet = message.enc_packets()[1]
        clean_payload = packet.encode(message.packet_size)
        clean, poisoned = covered_by(packet, clients)[:2]
        bad_payload = corrupt_ciphertexts(clean_payload)
        poisoned._on_datagram(
            encode_frame(
                FrameKind.DATA, 1, round_no=1, slot=1, payload=bad_payload
            )
        )
        good = encode_frame(
            FrameKind.DATA, 1, round_no=1, slot=1, payload=clean_payload
        )
        if clean_via == "shard":
            shard._on_datagram(good)
        else:
            clean._on_datagram(good)
        ours = clean._session.transport.specific_packet
        theirs = poisoned._session.transport.specific_packet
        assert ours == packet
        assert theirs == EncPacket.decode(bad_payload) != packet
        assert clean.member.group_key == server.group_key
        assert poisoned.member.group_key != server.group_key
        assert clean.errors == poisoned.errors == []
