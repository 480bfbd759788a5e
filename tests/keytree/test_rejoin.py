"""Regression tests: a member that leaves and re-joins in one interval.

Before this fix a batch carrying the same name in ``joins`` and
``leaves`` was rejected at every layer (marking's ``_check_batch``, the
server's intake), even though the paper's periodic-batch model makes
"left and came straight back within one interval" a perfectly ordinary
churn event.  The defined semantics now: the member keeps its u-node
slot, the slot is relabelled **Replace**, and its individual key is
renewed in place — so the key it held before the interval dies exactly
as it would for any other departure.

The differential half of these tests pins the shipping marker to the
from-scratch oracle over rejoin-carrying batches, which were
previously unreachable by either (and therefore untested).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.crypto.keys import KeyFactory
from repro.errors import ConfigurationError, DuplicateUserError
from repro.fastpath.marking import ArrayMarkingAlgorithm
from repro.keytree import KeyTree
from repro.keytree.marking import MarkingAlgorithm
from repro.keytree.nodes import NodeLabel
from repro.keytree.persistence import tree_to_dict

from tests.keytree.test_marking_differential import (
    assert_batches_equal,
    canonical,
    make_tree_pair,
)


class TestRejoinSemantics:
    def test_rejoin_keeps_slot_and_renews_key(self):
        tree = KeyTree.full_balanced(
            ["u%d" % i for i in range(8)], 2, key_factory=KeyFactory(seed=3)
        )
        old_id = tree.user_node_id("u3")
        old_key = tree.key_of(old_id).material
        old_version = tree.version_of(old_id)
        batch = MarkingAlgorithm().apply(
            tree, joins=["u3"], leaves=["u3"]
        )
        assert tree.user_node_id("u3") == old_id
        assert tree.key_of(old_id).material != old_key
        assert tree.version_of(old_id) == old_version + 1
        assert batch.subtree.label_of(old_id) is NodeLabel.REPLACE
        # Every ancestor key is renewed, so the old path keys all die.
        assert batch.subtree.n_updated_keys == len(tree.path_ids("u3")) - 1
        assert batch.joined_ids == {"u3": old_id}
        assert batch.departed_ids == [old_id]
        tree.validate()

    def test_rejoin_batch_departed_ids_report_the_slot(self):
        """The vacated-slot ledger still reports the rejoiner's slot
        ("before any reuse"), exactly like any other replacement."""
        tree = KeyTree.full_balanced(["a", "b", "c", "d"], 2)
        slot = tree.user_node_id("b")
        batch = ArrayMarkingAlgorithm().apply(
            tree, joins=["b"], leaves=["b"]
        )
        assert batch.departed_ids == [slot]
        assert batch.moved == {}

    def test_single_user_group_full_rejoin(self):
        tree = KeyTree.full_balanced(
            ["solo"], 4, key_factory=KeyFactory(seed=1)
        )
        old_group_key = tree.group_key.material
        MarkingAlgorithm().apply(tree, joins=["solo"], leaves=["solo"])
        assert tree.users == {"solo"}
        assert tree.group_key.material != old_group_key
        tree.validate()

    def test_rejoin_mixed_with_surplus_leaves_prunes_correctly(self):
        """Rejoins must not consume replacement slots: with 1 rejoin,
        1 fresh join and 3 other leaves, one vacated slot is reused and
        two are removed (possibly pruning ancestors)."""
        tree = KeyTree.full_balanced(
            ["u%d" % i for i in range(9)], 3, key_factory=KeyFactory(seed=5)
        )
        rejoin_slot = tree.user_node_id("u4")
        batch = MarkingAlgorithm().apply(
            tree,
            joins=["u4", "fresh"],
            leaves=["u4", "u6", "u7", "u8"],
        )
        assert tree.user_node_id("u4") == rejoin_slot
        assert "fresh" in tree.users
        assert {"u6", "u7", "u8"} & tree.users == set()
        assert tree.n_users == 7
        assert batch.subtree.label_of(rejoin_slot) is NodeLabel.REPLACE
        tree.validate()


class TestRejoinDifferential:
    """Shipping vs from-scratch equality on rejoin-carrying batches."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000_000),
        degree=st.sampled_from([2, 3, 4]),
        n_rejoin=st.integers(1, 8),
        n_join=st.integers(0, 10),
        n_leave=st.integers(0, 10),
    )
    def test_random_rejoin_batches(
        self, seed, degree, n_rejoin, n_join, n_leave
    ):
        baseline_tree, incremental_tree = make_tree_pair(
            30, degree, key_seed=seed
        )
        rng = np.random.default_rng(seed)
        members = sorted(baseline_tree.users)
        picked = [
            str(u)
            for u in rng.choice(
                members,
                size=min(n_rejoin + n_leave, len(members)),
                replace=False,
            )
        ]
        rejoins = picked[:n_rejoin]
        pure_leaves = picked[n_rejoin:]
        joins = rejoins + ["x%04d" % i for i in range(n_join)]
        leaves = rejoins + pure_leaves
        oracle_batch = MarkingAlgorithm().apply(
            baseline_tree, joins=list(joins), leaves=list(leaves)
        )
        incremental_batch = ArrayMarkingAlgorithm().apply(
            incremental_tree, joins=list(joins), leaves=list(leaves)
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)
        assert_batches_equal(oracle_batch, incremental_batch)
        baseline_tree.validate()

    def test_everyone_leaves_and_rejoins(self):
        baseline_tree, incremental_tree = make_tree_pair(27, 3)
        names = sorted(baseline_tree.users)
        assert_batches_equal(
            MarkingAlgorithm().apply(
                baseline_tree, joins=list(names), leaves=list(names)
            ),
            ArrayMarkingAlgorithm().apply(
                incremental_tree, joins=list(names), leaves=list(names)
            ),
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)
        assert baseline_tree.users == set(names)


class TestServerIntakeRejoin:
    def make_server(self):
        return GroupKeyServer(
            ["m%d" % i for i in range(8)], config=GroupConfig(seed=2)
        )

    def test_leave_then_join_queues_a_rejoin(self):
        server = self.make_server()
        server.request_leave("m2")
        server.request_join("m2")
        assert server.pending_requests == (["m2"], ["m2"])
        old_id = server.tree.user_node_id("m2")
        old_key = server.tree.key_of(old_id).material
        batch, message = server.rekey()
        assert server.tree.user_node_id("m2") == old_id
        assert server.tree.key_of(old_id).material != old_key
        assert batch.joined_ids == {"m2": old_id}
        assert batch.n_encryptions > 0
        assert len(message.enc_packets()) > 0

    def test_leave_join_leave_nets_to_a_single_leave(self):
        server = self.make_server()
        server.request_leave("m2")
        server.request_join("m2")
        server.request_leave("m2")
        assert server.pending_requests == ([], ["m2"])
        server.rekey()
        assert "m2" not in server.users

    def test_join_of_member_without_pending_leave_still_rejected(self):
        server = self.make_server()
        with pytest.raises(DuplicateUserError):
            server.request_join("m1")

    def test_double_rejoin_rejected(self):
        server = self.make_server()
        server.request_leave("m2")
        server.request_join("m2")
        with pytest.raises(DuplicateUserError):
            server.request_join("m2")

    def test_double_leave_still_rejected(self):
        server = self.make_server()
        server.request_leave("m2")
        with pytest.raises(ConfigurationError):
            server.request_leave("m2")

    def test_nonmember_join_then_leave_still_cancels_both(self):
        server = self.make_server()
        server.request_join("newbie")
        server.request_leave("newbie")
        assert server.pending_requests == ([], [])

    def test_rejoin_snapshot_roundtrip_stays_consistent(self):
        """A rekeyed rejoin must survive snapshot -> restore with the
        same tree bytes (guards version-counter bookkeeping)."""
        server = self.make_server()
        server.request_leave("m5")
        server.request_join("m5")
        server.rekey()
        restored = GroupKeyServer.restore(server.snapshot())
        assert json.dumps(
            tree_to_dict(server.tree), sort_keys=True
        ) == json.dumps(tree_to_dict(restored.tree), sort_keys=True)
