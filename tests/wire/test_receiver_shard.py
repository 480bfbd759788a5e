"""Receiver shards: one socket, one decode, many member state machines.

No sockets here: frames are fed to ``ReceiverShard._on_datagram``
directly, and the server's group-addressed send runs against a
recording transport.  The loopback fleets in test_fleet_loopback.py pin
the same behaviour end to end.
"""

import copy

import pytest

from repro.chaos.wire_faults import SendPlan
from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.errors import WireError
from repro.service.members import MemberFleet
from repro.sim.topology import LossParameters
from repro.wire.client import ReceiverShard, WireClient
from repro.wire.codec import FrameKind, encode_announce, encode_frame
from repro.wire.server import WireOutcome, WireServer

#: Bernoulli loss so a few slots of a short message already bite.
LOSS = LossParameters(
    alpha=0.5, p_high=0.4, p_low=0.1, p_source=0.0, bursty=False
)


def rekeyed_group(n=8):
    server = GroupKeyServer(
        ["m%02d" % i for i in range(n)],
        config=GroupConfig(block_size=4, seed=3),
    )
    fleet = MemberFleet.register_all(server)
    server.request_leave("m00")
    fleet.evict("m00")
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


def make_client(member, index, shard=None):
    client = WireClient(
        "c%d" % index,
        index,
        member,
        ("127.0.0.1", 1),
        loss_params=LOSS,
        seed=11,
        spacing_seconds=0.01,
        shard=shard,
    )
    if shard is not None:
        shard.host(client)  # what start() does, without a socket
    return client


class TestDispatch:
    def test_shard_feeds_members_like_their_own_sockets(self):
        """A member behind a shard ends the round in exactly the state
        its twin reaches on its own socket: same losses, same keys."""
        server, fleet, message = rekeyed_group()
        names = sorted(fleet.members)
        shard = ReceiverShard(("127.0.0.1", 1))
        alone = [
            make_client(copy.deepcopy(fleet.members[name]), i)
            for i, name in enumerate(names)
        ]
        sharded = [
            make_client(fleet.members[name], i, shard)
            for i, name in enumerate(names)
        ]
        frames = data_frames(message)
        end = encode_frame(FrameKind.ROUND_END, 1, round_no=1)
        for client in sharded + alone:
            client._on_datagram(announce(server, message))
        for frame in frames + [end]:
            shard._on_datagram(frame)
            for client in alone:
                client._on_datagram(frame)
        assert shard.errors == [] and shard.data_gaps == 0
        assert sum(c.data_dropped for c in sharded) > 0
        for ours, theirs in zip(sharded, alone):
            assert ours.errors == theirs.errors == []
            assert ours.data_dropped == theirs.data_dropped
            assert ours.frames_received == theirs.frames_received
            assert ours._session.absorbed == theirs._session.absorbed
            assert ours._session.rounds_reported == 1
            assert ours.member.group_key == theirs.member.group_key
        assert sharded[0].member.group_key == server.group_key

    def test_unserved_and_dead_members_are_skipped(self):
        server, fleet, message = rekeyed_group()
        shard = ReceiverShard(("127.0.0.1", 1))
        names = sorted(fleet.members)
        idle = make_client(fleet.members[names[0]], 0, shard)
        dead = make_client(fleet.members[names[1]], 1, shard)
        idle._on_datagram(announce(server, message, served=False))
        dead._on_datagram(announce(server, message))
        dead.dead = True
        shard._on_datagram(encode_frame(FrameKind.ROUND_END, 1, round_no=1))
        assert idle._session.rounds_reported == 0
        assert dead.frames_received == 1  # the ANNOUNCE only

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
