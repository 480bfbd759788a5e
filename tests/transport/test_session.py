"""Tests for repro.transport.session — end-to-end delivery."""

import numpy as np
import pytest

from repro.crypto import KeyFactory
from repro.errors import TransportError
from repro.fastpath.session import ArrayRekeySession
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.rekey import RekeyMessageBuilder
from repro.sim import LossParameters, MulticastTopology, build_paper_topology
from repro.transport import RekeySession, SessionConfig
from repro.util import RandomSource


def make_message(n=256, d=4, n_leave=64, k=10, seed=0, message_id=1):
    rng = np.random.default_rng(seed)
    users = ["u%d" % i for i in range(n)]
    tree = KeyTree.full_balanced(users, d, key_factory=KeyFactory(seed=2))
    batch = MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, n_leave, replace=False))
    )
    message = RekeyMessageBuilder(block_size=k).build(batch, message_id=message_id)
    return tree, message


def run_session(
    message, config, loss=None, seed=0, session_class=RekeySession,
    chaos=None,
):
    loss = loss or LossParameters()
    topology = MulticastTopology(
        len(message.needs_by_user),
        params=loss,
        random_source=RandomSource(seed),
    )
    session = session_class(
        message, topology, config, rng=np.random.default_rng(seed + 1),
        chaos=chaos,
    )
    stats = session.run()
    return session, stats


class TestLossFreeDelivery:
    def test_everyone_recovers_in_one_round(self):
        _, message = make_message()
        lossless = LossParameters(
            alpha=0.0, p_high=0.0, p_low=0.0, p_source=0.0
        )
        session, stats = run_session(
            message, SessionConfig(rho=1.0), loss=lossless
        )
        assert stats.n_multicast_rounds == 1
        assert stats.first_round_nacks == 0
        assert (stats.user_rounds == 1).all()
        assert stats.unicast.users_served == 0

    def test_bandwidth_overhead_is_slot_padding_only(self):
        _, message = make_message()
        lossless = LossParameters(
            alpha=0.0, p_high=0.0, p_low=0.0, p_source=0.0
        )
        _, stats = run_session(message, SessionConfig(rho=1.0), loss=lossless)
        expected = (message.n_blocks * message.k) / message.n_enc_packets
        assert stats.bandwidth_overhead == pytest.approx(expected)


class TestLossyDelivery:
    def test_reliability_everyone_eventually_recovers(self):
        """The reliability requirement: every user gets its keys."""
        _, message = make_message(seed=3)
        session, stats = run_session(
            message,
            SessionConfig(rho=1.0, max_multicast_rounds=2),
            seed=11,
        )
        assert all(user.done for user in session.users.values())

    def test_recovered_encryptions_are_correct(self):
        _, message = make_message(seed=4)
        session, _ = run_session(
            message, SessionConfig(rho=1.0), seed=12
        )
        for user_id, user in session.users.items():
            got = {e.encryption_id for e in user.recovered_encryptions}
            assert set(message.needs_by_user[user_id]) <= got

    def test_multicast_only_mode_converges(self):
        _, message = make_message(seed=5)
        session, stats = run_session(
            message,
            SessionConfig(rho=1.0, multicast_only=True),
            seed=13,
        )
        assert all(user.done for user in session.users.values())
        assert stats.unicast.users_served == 0
        assert (stats.user_rounds >= 1).all()

    def test_unicast_serves_the_tail(self):
        _, message = make_message(seed=6)
        high_loss = LossParameters(alpha=1.0, p_high=0.4, p_low=0.4)
        session, stats = run_session(
            message,
            SessionConfig(rho=1.0, max_multicast_rounds=1),
            loss=high_loss,
            seed=14,
        )
        assert all(user.done for user in session.users.values())
        assert stats.unicast.users_served > 0
        assert stats.unicast.usr_packets_sent >= 2 * stats.unicast.users_served

    def test_proactive_parity_cuts_nacks(self):
        _, message = make_message(seed=7)
        _, stats_reactive = run_session(
            message, SessionConfig(rho=1.0, multicast_only=True), seed=15
        )
        _, stats_proactive = run_session(
            message, SessionConfig(rho=2.0, multicast_only=True), seed=15
        )
        assert (
            stats_proactive.first_round_nacks
            < stats_reactive.first_round_nacks
        )

    def test_user_rounds_distribution_shape(self):
        """Most users finish in round one (the paper's >94 % result)."""
        _, message = make_message(n=1024, n_leave=256, seed=8)
        _, stats = run_session(
            message, SessionConfig(rho=1.0, multicast_only=True), seed=16
        )
        assert (stats.user_rounds == 1).mean() > 0.85


class TestSessionValidation:
    def test_plan_mode_message_rejected(self):
        rng = np.random.default_rng(0)
        users = ["u%d" % i for i in range(64)]
        tree = KeyTree.full_balanced(users, 4)  # keyless
        batch = MarkingAlgorithm().apply(
            tree, leaves=list(rng.choice(users, 16, replace=False))
        )
        message = RekeyMessageBuilder(block_size=10).build(batch, message_id=1)
        topology = build_paper_topology(n_users=len(message.needs_by_user))
        with pytest.raises(TransportError):
            RekeySession(message, topology)

    def test_topology_size_mismatch_rejected(self):
        _, message = make_message()
        topology = build_paper_topology(n_users=3)
        with pytest.raises(TransportError):
            RekeySession(message, topology)

    def test_deterministic_given_seed(self):
        _, message = make_message(seed=9)
        _, stats_a = run_session(message, SessionConfig(rho=1.0), seed=21)
        _, stats_b = run_session(message, SessionConfig(rho=1.0), seed=21)
        assert np.array_equal(stats_a.user_rounds, stats_b.user_rounds)
        assert stats_a.bandwidth_overhead == stats_b.bandwidth_overhead


class DropFirstRoundNacks:
    """Feedback fault: every round-1 NACK is lost on the way back."""

    def mangle_nacks(self, session, round_index, nacks):
        return [] if round_index == 1 else nacks


class TestNoParityLeft:
    @pytest.mark.parametrize(
        "session_class", [RekeySession, ArrayRekeySession]
    )
    def test_cuts_over_when_no_parity_is_requested(self, session_class):
        """With no NACK to answer there is no parity to multicast, so the
        stragglers switch to unicast after round 1 (as the wire does)
        instead of sitting through an empty round 2."""
        _, message = make_message(seed=3)
        session, stats = run_session(
            message,
            SessionConfig(rho=1.0, max_multicast_rounds=2),
            loss=LossParameters(alpha=0.5, p_high=0.45),
            seed=11,
            session_class=session_class,
            chaos=DropFirstRoundNacks(),
        )
        assert stats.first_round_nacks == 0
        assert stats.n_multicast_rounds == 1
        assert stats.unicast.users_served > 0
        assert all(user.done for user in session.users.values())
