"""Session-level unicast-policy behaviour (early switch, §7.1)."""

import numpy as np
import pytest

from repro.crypto import KeyFactory
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.obs import EventBus, Recorder
from repro.rekey import RekeyMessageBuilder
from repro.sim import LossParameters, MulticastTopology
from repro.transport import RekeySession, SessionConfig
from repro.util import RandomSource


def make_message(seed=0, n=256, n_leave=64, k=10):
    rng = np.random.default_rng(seed)
    users = ["u%d" % i for i in range(n)]
    tree = KeyTree.full_balanced(users, 4, key_factory=KeyFactory(seed=2))
    batch = MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, n_leave, replace=False))
    )
    return RekeyMessageBuilder(block_size=k).build(batch, message_id=1)


def run(message, config, seed=0, loss=None, obs=None):
    topology = MulticastTopology(
        len(message.needs_by_user),
        params=loss or LossParameters(),
        random_source=RandomSource(seed),
    )
    session = RekeySession(
        message,
        topology,
        config,
        rng=np.random.default_rng(seed + 1),
        obs=obs,
    )
    return session, session.run()


class TestEarlySwitch:
    def test_byte_comparison_switches_before_round_cap(self):
        """With few stragglers, USR bytes undercut another parity round
        and the session unicasts after round one despite a high cap."""
        message = make_message(seed=1)
        bus = EventBus()
        config = SessionConfig(
            rho=1.0,
            max_multicast_rounds=10,
            compare_usr_bytes=True,
        )
        _, stats = run(message, config, seed=5, obs=Recorder(bus=bus))
        if stats.unicast.users_served:
            assert stats.n_multicast_rounds < 10
            assert len(bus.of_kind("unicast_start")) == 1

    def test_round_cap_still_binds_without_comparison(self):
        message = make_message(seed=2)
        config = SessionConfig(
            rho=1.0, max_multicast_rounds=2, compare_usr_bytes=False
        )
        _, stats = run(message, config, seed=6)
        assert stats.n_multicast_rounds <= 2

    def test_one_round_cap_for_small_intervals(self):
        """The paper's small-interval mode: one multicast round only."""
        message = make_message(seed=3)
        config = SessionConfig(rho=1.0, max_multicast_rounds=1)
        session, stats = run(message, config, seed=7)
        assert stats.n_multicast_rounds == 1
        assert all(user.done for user in session.users.values())

    def test_usr_bytes_accounted(self):
        message = make_message(seed=4)
        config = SessionConfig(rho=1.0, max_multicast_rounds=1)
        _, stats = run(
            message,
            config,
            seed=8,
            loss=LossParameters(alpha=1.0, p_high=0.3, p_low=0.3),
        )
        if stats.unicast.users_served:
            assert stats.unicast.usr_bytes_sent > 0
            # USR bytes stay far below one multicast packet per user.
            assert stats.unicast.usr_bytes_sent < (
                stats.unicast.usr_packets_sent * message.packet_size / 4
            )
