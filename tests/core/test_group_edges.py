"""Edge cases of the SecureGroup facade."""

import numpy as np
import pytest

from repro import GroupConfig, SecureGroup
from repro.sim import LossParameters


def make_group(n=16, **overrides):
    return SecureGroup(
        ["m%d" % i for i in range(n)],
        GroupConfig(block_size=4, **overrides),
    )


class TestEmptyIntervals:
    def test_lossy_empty_interval_is_noop(self):
        group = make_group()
        key = group.server.group_key
        message = group.rekey(lossy=True)
        assert message.is_empty
        assert group.server.group_key == key
        assert group.last_delivery is None

    def test_many_empty_intervals(self):
        group = make_group()
        for _ in range(5):
            group.rekey()
        assert group.server.intervals_processed == 5


class TestChurnClamping:
    def test_leaves_clamped_to_membership(self):
        group = make_group(n=4)
        rng = np.random.default_rng(0)
        group.churn(0, 100, rng=rng)  # cannot evict more than exist
        assert group.n_members == 0 or group.n_members >= 0

    def test_group_can_empty_and_refill(self):
        group = make_group(n=4)
        for name in list(group.members):
            group.leave(name)
        group.rekey()
        assert group.n_members == 0
        group.join("phoenix-1")
        group.join("phoenix-2")
        group.rekey()
        assert group.n_members == 2
        assert all(
            m.group_key == group.server.group_key
            for m in group.members.values()
        )


class TestRejoin:
    def test_departed_member_can_rejoin_with_fresh_keys(self):
        group = make_group()
        group.leave("m3")
        group.rekey()
        stale = group.former_members["m3"].group_key
        group.join("m3")
        group.rekey()
        fresh = group.members["m3"].group_key
        assert fresh == group.server.group_key
        assert fresh != stale

    def test_rejoin_cannot_read_the_gap(self):
        """Keys from the eviction interval never reach the rejoiner."""
        group = make_group()
        group.leave("m3")
        group.rekey()
        gap_key = group.server.group_key
        group.churn(0, 1, rng=np.random.default_rng(1))  # another interval
        group.join("m3")
        group.rekey()
        rejoined = group.members["m3"]
        assert rejoined.group_key != gap_key


class TestLossEnvironments:
    @pytest.mark.parametrize(
        "loss",
        [
            LossParameters(alpha=0.0, p_low=0.0, p_high=0.0, p_source=0.0),
            LossParameters(bursty=False),
            LossParameters(alpha=1.0, p_high=0.3, p_low=0.3),
        ],
        ids=["lossless", "bernoulli", "all-high"],
    )
    def test_delivery_under_every_regime(self, loss):
        group = SecureGroup(
            ["m%d" % i for i in range(32)],
            GroupConfig(block_size=4, loss=loss, seed=5),
        )
        group.leave("m0")
        group.leave("m9")
        group.rekey(lossy=True)
        assert all(
            m.group_key == group.server.group_key
            for m in group.members.values()
        )
