"""Tests for repro.transport.user — the receiver state machine."""

import numpy as np
import pytest

from repro.crypto import KeyFactory
from repro.errors import TransportError
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.rekey import RekeyMessageBuilder
from repro.rekey.packets import (
    FEC_PAYLOAD_OFFSET,
    EncPacket,
    decode_enc_header,
)
from repro.transport.user import UserTransport


@pytest.fixture(scope="module")
def message():
    rng = np.random.default_rng(0)
    users = ["u%d" % i for i in range(256)]
    tree = KeyTree.full_balanced(users, 4, key_factory=KeyFactory(seed=2))
    batch = MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, 64, replace=False))
    )
    return RekeyMessageBuilder(block_size=4).build(batch, message_id=3)


def make_user(message, user_id):
    return UserTransport(
        user_id,
        k=message.k,
        degree=4,
        n_blocks=message.n_blocks,
        message_id=message.message_id,
    )


def enc_with_payload(message, slot_index):
    packet = message.enc_packets()[slot_index]
    payload = packet.encode(message.packet_size)[FEC_PAYLOAD_OFFSET:]
    return packet, payload


def own_slot_index(message, user_id):
    for index, packet in enumerate(message.enc_packets()):
        if not packet.is_duplicate and packet.covers_user(user_id):
            return index
    raise AssertionError("no packet covers user %d" % user_id)


class TestDirectReception:
    def test_specific_packet_completes(self, message):
        user_id = next(iter(message.needs_by_user))
        user = make_user(message, user_id)
        packet, payload = enc_with_payload(
            message, own_slot_index(message, user_id)
        )
        user.on_enc(packet, payload)
        assert user.done
        assert user.recovery_round == 1
        wanted = set(message.needs_by_user[user_id])
        got = {e.encryption_id for e in user.recovered_encryptions}
        assert wanted <= got

    def test_foreign_packet_does_not_complete(self, message):
        user_id = next(iter(message.needs_by_user))
        foreign = [
            i
            for i, p in enumerate(message.enc_packets())
            if not p.covers_user(user_id)
        ][0]
        user = make_user(message, user_id)
        user.on_enc(*enc_with_payload(message, foreign))
        assert not user.done

    def test_recovery_round_tracks_rounds(self, message):
        user_id = next(iter(message.needs_by_user))
        user = make_user(message, user_id)
        assert user.end_of_round() is not None  # round 1: nothing received
        packet, payload = enc_with_payload(
            message, own_slot_index(message, user_id)
        )
        user.on_enc(packet, payload)
        assert user.recovery_round == 2

    def test_wrong_message_id_rejected(self, message):
        user_id = next(iter(message.needs_by_user))
        user = UserTransport(
            user_id, k=message.k, degree=4, n_blocks=message.n_blocks,
            message_id=0,
        )
        packet, payload = enc_with_payload(message, 0)
        with pytest.raises(TransportError):
            user.on_enc(packet, payload)


class TestFecRecovery:
    def test_decode_own_block_from_parity(self, message):
        user_id = next(iter(message.needs_by_user))
        own = own_slot_index(message, user_id)
        block_id = message.enc_packets()[own].block_id
        user = make_user(message, user_id)
        # Lose the specific packet; deliver the other k-1 ENC + 1 parity.
        for slot in range(block_id * message.k, (block_id + 1) * message.k):
            if slot == own:
                continue
            user.on_enc(*enc_with_payload(message, slot))
        for parity in message.parity_packets(block_id, 1):
            user.on_parity(parity)
        assert not user.done  # decoding happens at the round boundary
        assert user.end_of_round() is None
        assert user.done
        wanted = set(message.needs_by_user[user_id])
        got = {e.encryption_id for e in user.recovered_encryptions}
        assert wanted <= got

    def test_nack_reports_shortfall(self, message):
        user_id = next(iter(message.needs_by_user))
        own = own_slot_index(message, user_id)
        block_id = message.enc_packets()[own].block_id
        user = make_user(message, user_id)
        # Deliver k-2 packets of the block (losing 2, incl. the user's).
        delivered = 0
        for slot in range(block_id * message.k, (block_id + 1) * message.k):
            if slot == own or delivered == message.k - 2:
                continue
            user.on_enc(*enc_with_payload(message, slot))
            delivered += 1
        nack = user.end_of_round()
        assert nack is not None
        by_block = {r.block_id: r.n_parity for r in nack.requests}
        assert by_block[block_id] == 2

    def test_nack_covers_block_range_when_uncertain(self, message):
        """A user with nothing received NACKs every candidate block."""
        user_id = next(iter(message.needs_by_user))
        user = make_user(message, user_id)
        nack = user.end_of_round()
        assert {r.block_id for r in nack.requests} == set(
            range(message.n_blocks)
        )
        assert all(r.n_parity == message.k for r in nack.requests)

    def test_decoding_other_blocks_tightens_estimate(self, message):
        """Decoding a foreign block reveals its frm/to intervals and
        narrows the NACK range."""
        user_id = max(message.needs_by_user)  # last user: lives in last block
        user = make_user(message, user_id)
        # Deliver all of block 0 (foreign for the last user).
        for slot in range(0, message.k):
            user.on_enc(*enc_with_payload(message, slot))
        nack = user.end_of_round()
        assert nack is not None
        assert 0 not in {r.block_id for r in nack.requests}

    def test_parity_alone_recovers_block(self, message):
        user_id = next(iter(message.needs_by_user))
        own = own_slot_index(message, user_id)
        block_id = message.enc_packets()[own].block_id
        user = make_user(message, user_id)
        for parity in message.parity_packets(block_id, message.k):
            user.on_parity(parity)
        user.end_of_round()
        assert user.done


def drive_lossy(message, user_id, view, seed, p_loss=0.5, rounds=6):
    """Feed ``user_id``'s transport a seeded lossy sequence: every ENC
    slot in round 1, then the parity its NACKs ask for.  ``view`` is
    ``"packet"`` (full :class:`EncPacket`) or ``"header"`` (the
    :class:`EncHeader` a wire client parses)."""
    rng = np.random.default_rng(seed)
    user = make_user(message, user_id)
    next_parity = [0] * message.n_blocks
    nacks = []
    for round_no in range(1, rounds + 1):
        if round_no == 1:
            for packet in message.enc_packets():
                if rng.random() < p_loss:
                    continue
                wire = packet.encode(message.packet_size)
                if view == "header":
                    packet = decode_enc_header(wire)
                user.on_enc(packet, wire[FEC_PAYLOAD_OFFSET:])
        elif nacks[-1] is not None:
            for request in nacks[-1].requests:
                block = request.block_id
                parity = message.parity_packets(
                    block, request.n_parity, next_parity[block]
                )
                next_parity[block] += request.n_parity
                for packet in parity:
                    if rng.random() >= p_loss:
                        user.on_parity(packet)
        nacks.append(user.end_of_round())
    return user, nacks


class TestHeaderViews:
    """A transport fed only ENC headers behaves exactly like one fed
    full packets, and parses the body of the covering packet alone."""

    def test_header_fed_matches_packet_fed(self, message, monkeypatch):
        materialised = []
        decode = EncPacket.decode.__func__

        def spy(cls, data):
            packet = decode(cls, data)
            materialised.append(packet)
            return packet

        fec_recoveries = 0
        for seed, user_id in enumerate(sorted(message.needs_by_user)[::7]):
            packet_fed, packet_nacks = drive_lossy(
                message, user_id, "packet", seed
            )
            monkeypatch.setattr(EncPacket, "decode", classmethod(spy))
            materialised.clear()
            header_fed, header_nacks = drive_lossy(
                message, user_id, "header", seed
            )
            monkeypatch.undo()
            assert header_nacks == packet_nacks
            assert header_fed.recovery_round == packet_fed.recovery_round
            assert (
                header_fed.recovered_encryptions
                == packet_fed.recovered_encryptions
            )
            # One materialisation per covering packet received, no more.
            assert len(materialised) == int(header_fed.done)
            if header_fed.done:
                assert materialised[0].covers_user(user_id)
                assert header_fed.specific_packet is materialised[0]
                fec_recoveries += bool(header_fed._decoded_blocks)
        assert fec_recoveries > 0  # the FEC-recovery path was exercised


class TestUsrReception:
    def test_usr_completes(self, message):
        user_id = next(iter(message.needs_by_user))
        user = make_user(message, user_id)
        user.on_usr(message.usr_packet(user_id))
        assert user.done
        assert user.recovery_round == 0

    def test_usr_for_other_user_rejected(self, message):
        ids = sorted(message.needs_by_user)
        user = make_user(message, ids[0])
        with pytest.raises(TransportError):
            user.on_usr(message.usr_packet(ids[1]))

    def test_done_user_ignores_more_packets(self, message):
        user_id = next(iter(message.needs_by_user))
        user = make_user(message, user_id)
        user.on_usr(message.usr_packet(user_id))
        packet, payload = enc_with_payload(message, 0)
        user.on_enc(packet, payload)  # no effect, no error
        assert user.recovery_round == 0
