"""Client resync FSM unit tests — no server, frames fed directly.

The FSM under test (docs/robustness.md): epoch adoption from REGISTER
acks (on the member's own socket) and from ``SHARD_ANNOUNCE`` (through
its receiver shard), refusal of stale-epoch frames (fencing), missed-
interval detection, scheduled deaths, and the bounded REGISTER cycle's
give-up accounting.
"""

import asyncio
import socket

import pytest

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.service.members import MemberFleet
from repro.sim.topology import LossParameters
from repro.util.retry import RetryPolicy
from repro.wire.client import ReceiverShard, WireClient
from repro.wire.codec import (
    FrameKind,
    encode_announce,
    encode_frame,
    encode_register,
    encode_shard_announce,
)


class FakeMessage:
    message_id = 1
    k = 5
    n_blocks = 3
    max_kid = 211


class FakeMember:
    """Just enough member for the FSM paths (no key material)."""

    user_id = 7
    group_key = None

    def absorb_encryptions(self, encryptions, max_kid=None):
        pass


def make_client(**overrides):
    kwargs = dict(
        name="m-0",
        member_index=0,
        member=FakeMember(),
        server_address=("127.0.0.1", 1),
        loss_params=LossParameters(),
        seed=3,
        spacing_seconds=0.0,
        shard=ReceiverShard(("127.0.0.1", 1)),
    )
    kwargs.update(overrides)
    client = WireClient(**kwargs)
    client.shard.host(client)  # what start() does, without a socket
    return client


def announce(client, interval, epoch=0, served=False, message=None):
    """Hand ``client``'s shard a SHARD_ANNOUNCE naming the client."""
    payload = encode_announce(message or FakeMessage(), 4, epoch=epoch)
    (part,) = encode_shard_announce(
        payload, [(client.member_index, served)]
    )
    client.shard._on_datagram(
        encode_frame(FrameKind.SHARD_ANNOUNCE, interval, payload=part)
    )


def register_ack(epoch):
    return encode_frame(
        FrameKind.REGISTER, 0, payload=encode_register(0, 7, epoch=epoch)
    )


class TestEpochAdoption:
    def test_register_ack_teaches_the_epoch(self):
        client = make_client()
        client._on_datagram(register_ack(5))
        assert client.epoch == 5
        # The initial sighting is not a change of leadership.
        assert client.resyncs == 0
        assert client.stats()["epoch"] == 5

    def test_higher_epoch_is_adopted(self):
        client = make_client()
        client._on_datagram(register_ack(2))
        client._on_datagram(register_ack(4))
        assert client.epoch == 4

    def test_lower_epoch_ack_is_ignored(self):
        client = make_client()
        client._on_datagram(register_ack(4))
        client._on_datagram(register_ack(2))
        assert client.epoch == 4

    def test_stale_epoch_announce_builds_no_session(self):
        """Fencing end to end: a deposed leader's ANNOUNCE must never
        start a session, so its keys can never be absorbed."""
        client = make_client()
        client._on_datagram(register_ack(3))
        announce(client, 1, epoch=2)
        assert client._session is None
        assert client.stale_epoch_refused == 1
        assert client.stats()["stale_epoch_refused"] == 1

    def test_promoted_announce_rehomes(self):
        client = make_client()
        announce(client, 1, epoch=1)
        assert client.epoch == 1
        assert client._session.interval == 1
        announce(client, 2, epoch=2)
        assert client.epoch == 2
        assert client._session.interval == 2


class TestIntervalTracking:
    def test_missed_intervals_are_counted(self):
        client = make_client()
        announce(client, 1)
        announce(client, 4)
        assert client.missed_intervals == 2
        assert client.resyncs == 1
        assert client._session.interval == 4

    def test_consecutive_intervals_are_not_missed(self):
        client = make_client()
        announce(client, 1)
        announce(client, 2)
        assert client.missed_intervals == 0
        assert client.resyncs == 0

    def test_repeated_announce_keeps_the_session(self):
        client = make_client()
        announce(client, 2)
        session = client._session
        announce(client, 2)  # retry: ack was lost
        assert client._session is session

    def test_stale_interval_straggler_ignored(self):
        client = make_client()
        announce(client, 3)
        announce(client, 2)
        assert client._session.interval == 3


class TestScheduledDeath:
    def test_crash_at_announce(self):
        client = make_client(crash_at=(2, 0))
        announce(client, 1)
        assert not client.dead
        announce(client, 2)
        assert client.dead
        assert client._session.interval == 1  # no new session was built

    def test_dead_client_ignores_everything(self):
        client = make_client(crash_at=(1, 0))
        announce(client, 1)
        assert client.dead
        announce(client, 2)
        client._on_datagram(register_ack(9))
        assert client._session is None
        assert client.epoch == 0


class TestOwnSocket:
    def test_group_frames_are_refused(self):
        """A member's own socket carries only the REGISTER ack and the
        unicast USR frames; group frames come through its shard."""
        client = make_client()
        announce(client, 1, served=True)
        for frame in (
            encode_frame(FrameKind.DATA, 1, round_no=1, slot=0),
            encode_frame(FrameKind.ROUND_END, 1, round_no=1),
        ):
            client._on_datagram(frame)
        assert len(client.errors) == 2
        assert "DATA" in client.errors[0]
        assert "ROUND_END" in client.errors[1]
        assert client._session.rounds_reported == 0


class TestRegisterCycle:
    def test_giveup_is_bounded_and_counted(self):
        """Against a dead address the bounded full-jitter cycle must
        give up after max_attempts, not retry forever (the old fixed
        50 ms loop this replaced)."""
        # A port nothing listens on: bind-then-close reserves a number.
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()

        async def run():
            client = make_client(
                server_address=dead_address,
                register_policy=RetryPolicy(
                    max_attempts=3,
                    base_delay=0.005,
                    multiplier=1.5,
                    max_delay=0.02,
                    jitter=False,
                ),
            )
            await client.start()
            try:
                assert await asyncio.wait_for(client._register_task, 5.0) is False
            finally:
                await client.close()
            return client.stats()

        stats = asyncio.run(run())
        assert stats["register_giveups"] == 1

    def test_stats_shape(self):
        client = make_client()
        assert set(client.stats()) == {
            "epoch",
            "dead",
            "resyncs",
            "reregisters",
            "missed_intervals",
            "stale_epoch_refused",
            "decode_errors",
            "socket_errors",
            "register_giveups",
        }

    def test_garbage_datagram_counted_not_fatal(self):
        client = make_client()
        client._on_datagram(b"\x00not a frame")
        assert client.decode_errors == 1
        assert client.errors == []
        announce(client, 1)
        assert client._session is not None

    def test_invalid_enc_payload_counted_and_interval_completes(self):
        """A DATA frame whose ENC packet parses but has frm_id > to_id is
        a decode error like any other garbage; the member still recovers
        from the real packets that follow."""
        server = GroupKeyServer(
            ["m%02d" % i for i in range(8)],
            config=GroupConfig(block_size=4, seed=3),
        )
        fleet = MemberFleet.register_all(server)
        server.request_leave("m00")
        fleet.evict("m00")
        _, message = server.rekey()
        client = make_client(
            member=fleet.members["m05"],
            loss_params=LossParameters(p_high=0.0, p_low=0.0, p_source=0.0),
        )
        announce(client, 1, served=True, message=message)
        wires = [p.encode(message.packet_size) for p in message.enc_packets()]
        inverted = bytearray(wires[0])
        inverted[6:8] = b"\xff\xff"  # frm_id 65535 > to_id
        frames = [bytes(inverted)] + wires
        for slot, payload in enumerate(frames):
            client.shard._on_datagram(
                encode_frame(
                    FrameKind.DATA, 1, round_no=1, slot=slot, payload=payload
                )
            )
        assert client.shard.decode_errors == 1
        assert client.errors == client.shard.errors == []
        assert client._session.absorbed
        assert client.member.group_key == server.group_key
