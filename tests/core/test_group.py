"""Tests for repro.service.group — the SecureGroup facade."""

import numpy as np
import pytest

from repro import GroupConfig, SecureGroup
from repro.sim import LossParameters


def make_group(n=27, degree=3, **overrides):
    config = GroupConfig(degree=degree, block_size=5, **overrides)
    return SecureGroup(["m%d" % i for i in range(n)], config)


def keys_agree(group):
    return all(
        member.group_key == group.server.group_key
        for member in group.members.values()
    )


class TestLifecycle:
    def test_initial_agreement(self):
        group = make_group()
        assert keys_agree(group)

    def test_leave_rotates_and_delivers(self):
        group = make_group()
        old = group.server.group_key
        group.leave("m0")
        group.rekey()
        assert group.server.group_key != old
        assert keys_agree(group)
        assert "m0" not in group.members

    def test_join_becomes_member(self):
        group = make_group()
        group.join("newbie")
        group.rekey()
        assert "newbie" in group.members
        assert keys_agree(group)

    def test_former_member_is_locked_out(self):
        group = make_group()
        former = group.members["m1"]
        group.leave("m1")
        message = group.rekey()
        former.overhear(message)  # the whole message, as an eavesdropper
        assert former.group_key != group.server.group_key
        assert group.fleet.ledger.breaches == []
        assert group.fleet.ledger.coalition == {}

    def test_rejoined_member_leaves_the_former_ledger(self):
        group = make_group()
        former = group.members["m1"]
        group.leave("m1")
        group.rekey()
        group.join("m1")
        group.rekey()
        assert "m1" in group.members
        rejoined = group.members["m1"]
        assert rejoined.group_key == group.server.group_key
        for node_id, key in rejoined.path_keys.items():
            assert key != former.path_keys.get(node_id), node_id
        assert group.fleet.ledger.breaches == []
        assert group.fleet.ledger.coalition == {}

    def test_empty_interval(self):
        group = make_group()
        message = group.rekey()
        assert message.is_empty
        assert keys_agree(group)

    def test_batched_interval(self):
        group = make_group()
        for name in ("m1", "m2", "m3"):
            group.leave(name)
        for name in ("a", "b"):
            group.join(name)
        group.rekey()
        assert group.n_members == 26
        assert keys_agree(group)


class TestLossyDelivery:
    def test_lossy_rekey_still_agrees(self):
        group = make_group(n=64, degree=4, seed=7)
        group.leave("m0")
        group.leave("m7")
        group.rekey(lossy=True)
        assert keys_agree(group)
        assert group.last_delivery.mode == "session"

    def test_lossy_with_high_loss_uses_unicast(self):
        config_loss = LossParameters(alpha=1.0, p_high=0.35, p_low=0.35)
        group = make_group(n=64, degree=4, loss=config_loss, seed=9)
        for name in ("m0", "m1", "m2", "m3"):
            group.leave(name)
        group.rekey(lossy=True)
        assert keys_agree(group)

    def test_delivery_stats_recorded(self):
        group = make_group(n=64, degree=4)
        group.leave("m5")
        group.rekey(lossy=True)
        report = group.last_delivery
        assert len(report.recovery_rounds) == len(group.members)
        assert report.multicast_rounds >= 1


class TestChurn:
    def test_long_churn_keeps_invariants(self):
        group = make_group(n=27)
        rng = np.random.default_rng(5)
        for _ in range(15):
            group.churn(
                int(rng.integers(0, 6)), int(rng.integers(0, 6)), rng=rng
            )
            assert keys_agree(group)
            group.server.tree.validate()

    def test_churn_with_growth_and_splits(self):
        group = make_group(n=9, degree=3)
        rng = np.random.default_rng(6)
        for _ in range(10):
            group.churn(5, 1, rng=rng)
        assert group.n_members == 9 + 10 * 4
        assert keys_agree(group)

    def test_churn_lossy(self):
        group = make_group(n=64, degree=4, seed=11)
        rng = np.random.default_rng(7)
        for _ in range(4):
            group.churn(3, 3, rng=rng, lossy=True)
            assert keys_agree(group)

    def test_every_former_member_locked_out_after_churn(self):
        group = make_group(n=27)
        rng = np.random.default_rng(8)
        departed = []  # each evictee's own key state, taken before it left
        for _ in range(8):
            before = dict(group.members)
            message = group.churn(2, 3, rng=rng)
            departed += [
                member for name, member in before.items()
                if group.members.get(name) is not member
            ]
            for member in departed:
                member.overhear(message)
            assert group.fleet.ledger.breaches == []
        current = group.server.group_key
        assert departed
        assert all(member.group_key != current for member in departed)
        assert group.fleet.ledger.coalition == {}
