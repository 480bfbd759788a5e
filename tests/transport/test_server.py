"""Tests for repro.transport.server — scheduling and NACK aggregation."""

import numpy as np
import pytest

from repro.crypto import KeyFactory
from repro.errors import TransportError
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.rekey import RekeyMessageBuilder
from repro.rekey.packets import NackPacket, NackRequest, PacketType
from repro.transport.server import (
    DONE,
    MAX_ROUNDS,
    NEXT_ROUND,
    UNICAST,
    ServerTransport,
    UnicastPolicy,
)


@pytest.fixture(scope="module")
def message():
    rng = np.random.default_rng(1)
    users = ["u%d" % i for i in range(256)]
    tree = KeyTree.full_balanced(users, 4, key_factory=KeyFactory(seed=2))
    batch = MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, 64, replace=False))
    )
    return RekeyMessageBuilder(block_size=4).build(batch, message_id=5)


def nack(message, user_id, *pairs):
    return NackPacket(
        rekey_message_id=message.message_id,
        user_id=user_id,
        requests=tuple(
            NackRequest(block_id=b, n_parity=a) for b, a in pairs
        ),
    )


class TestRoundOne:
    def test_rho_one_sends_only_enc(self, message):
        server = ServerTransport(message, rho=1.0)
        planned = server.plan_round()
        kinds = {p.packet.packet_type for p in planned}
        assert kinds == {PacketType.ENC}
        assert len(planned) == message.n_blocks * message.k

    def test_proactive_parity_count(self, message):
        server = ServerTransport(message, rho=1.5)
        planned = server.plan_round()
        parity = [
            p for p in planned if p.packet.packet_type is PacketType.PARITY
        ]
        assert len(parity) == message.n_blocks * 2  # ceil(0.5 * 4)

    def test_interleaved_block_order(self, message):
        server = ServerTransport(message, rho=1.0)
        planned = server.plan_round()
        blocks = [p.packet.block_id for p in planned]
        expected = [
            b for _ in range(message.k) for b in range(message.n_blocks)
        ]
        assert blocks == expected

    def test_send_offsets_match_interval(self, message):
        server = ServerTransport(message, rho=1.0, sending_interval_ms=100)
        planned = server.plan_round()
        offsets = [p.offset for p in planned]
        assert offsets[0] == 0.0
        assert offsets[1] == pytest.approx(0.1)
        assert offsets[-1] == pytest.approx(0.1 * (len(planned) - 1))

    def test_enc_payloads_attached(self, message):
        server = ServerTransport(message, rho=1.0)
        planned = server.plan_round()
        assert all(
            p.payload is not None
            for p in planned
            if p.packet.packet_type is PacketType.ENC
        )

    def test_empty_message_rejected(self):
        tree = KeyTree.full_balanced(
            ["a", "b"], 2, key_factory=KeyFactory(seed=0)
        )
        batch = MarkingAlgorithm().apply(tree)
        empty = RekeyMessageBuilder().build(batch, message_id=0)
        with pytest.raises(TransportError):
            ServerTransport(empty)


class TestNackAggregation:
    def test_amax_is_per_block_max(self, message):
        server = ServerTransport(message, rho=1.0)
        server.plan_round()
        server.finish_round(
            [
                nack(message, 10, (0, 2), (1, 4)),
                nack(message, 11, (0, 3)),
            ]
        )
        planned = server.plan_round()
        by_block = {}
        for p in planned:
            by_block.setdefault(p.packet.block_id, 0)
            by_block[p.packet.block_id] += 1
        assert by_block == {0: 3, 1: 4}

    def test_retransmitted_parity_rows_are_fresh(self, message):
        server = ServerTransport(message, rho=1.5)
        first = server.plan_round()
        server.finish_round([nack(message, 10, (0, 1))])
        second = server.plan_round()
        seqs_first = {
            p.packet.seq_in_block
            for p in first
            if p.packet.packet_type is PacketType.PARITY
            and p.packet.block_id == 0
        }
        seqs_second = {
            p.packet.seq_in_block
            for p in second
            if p.packet.block_id == 0
        }
        assert seqs_first.isdisjoint(seqs_second)

    def test_first_round_requests_use_user_max(self, message):
        server = ServerTransport(message, rho=1.0)
        server.plan_round()
        server.finish_round(
            [nack(message, 10, (0, 2), (1, 4)), nack(message, 11, (1, 1))]
        )
        assert sorted(server.first_round_requests) == [1, 4]

    def test_first_round_requests_unavailable_before_round(self, message):
        server = ServerTransport(message, rho=1.0)
        with pytest.raises(TransportError):
            server.first_round_requests

    def test_wrong_message_nack_rejected(self, message):
        server = ServerTransport(message, rho=1.0)
        server.plan_round()
        bad = NackPacket(
            rekey_message_id=(message.message_id + 1) % 64,
            user_id=1,
            requests=(NackRequest(block_id=0, n_parity=1),),
        )
        with pytest.raises(TransportError):
            server.accept_nack(bad)

    def test_unknown_block_rejected(self, message):
        server = ServerTransport(message, rho=1.0)
        server.plan_round()
        with pytest.raises(TransportError):
            server.accept_nack(nack(message, 1, (message.n_blocks, 1)))


class TestUnicastPolicy:
    def test_switch_after_max_rounds(self):
        policy = UnicastPolicy(max_multicast_rounds=2, compare_usr_bytes=False)
        assert not policy.should_switch(1, None, 10_000)
        assert policy.should_switch(2, None, 10_000)

    def test_early_switch_on_byte_comparison(self):
        policy = UnicastPolicy(max_multicast_rounds=5, compare_usr_bytes=True)
        assert policy.should_switch(1, 500, 2054)
        assert not policy.should_switch(1, 5000, 2054)

    def test_server_usr_byte_accounting(self, message):
        server = ServerTransport(
            message,
            rho=1.0,
            unicast_policy=UnicastPolicy(
                max_multicast_rounds=5, compare_usr_bytes=True
            ),
        )
        server.plan_round()
        user_id = next(iter(message.needs_by_user))
        server.finish_round([nack(message, user_id, (0, 4))])
        pending = [user_id]
        # One USR packet (~100 B) vs 4 parity packets (~4 kB): switch.
        assert server.should_switch_to_unicast(pending)

    def test_usr_packet_for(self, message):
        server = ServerTransport(message, rho=1.0)
        user_id = next(iter(message.needs_by_user))
        usr = server.usr_packet_for(user_id)
        assert usr.user_id == user_id


class TestEndRound:
    @staticmethod
    def server(message, max_multicast_rounds=2):
        return ServerTransport(
            message,
            rho=1.0,
            unicast_policy=UnicastPolicy(
                max_multicast_rounds=max_multicast_rounds,
                compare_usr_bytes=False,
            ),
        )

    def test_done_when_nobody_is_pending(self, message):
        server = self.server(message)
        server.plan_round()
        assert server.end_round([], []) == DONE

    def test_next_round_while_parity_is_requested(self, message):
        server = self.server(message)
        server.plan_round()
        assert server.end_round([nack(message, 10, (0, 2))], [10]) == (
            NEXT_ROUND
        )
        assert server.first_round_requests == [2]

    def test_unicast_at_the_deadline(self, message):
        server = self.server(message)
        server.plan_round()
        server.end_round([nack(message, 10, (0, 2))], [10])
        server.plan_round()
        assert server.end_round([nack(message, 10, (0, 1))], [10]) == (
            UNICAST
        )

    def test_unicast_when_no_parity_is_requested(self, message):
        server = self.server(message)
        server.plan_round()
        assert server.end_round([], [10]) == UNICAST

    def test_multicast_only_never_switches(self, message):
        server = self.server(message)
        for _ in range(3):
            server.plan_round()
            assert server.end_round([], [10], multicast_only=True) == (
                NEXT_ROUND
            )

    def test_round_cap_raises(self, message):
        server = self.server(message)
        for _ in range(MAX_ROUNDS - 1):
            server.plan_round()
            server.end_round([], [10], multicast_only=True)
        server.plan_round()
        with pytest.raises(TransportError):
            server.end_round([], [10], multicast_only=True)
