"""Differential tests: the shipping marker vs the from-scratch oracle.

:class:`ArrayMarkingAlgorithm` (``engine="numpy"``) re-marks only the
paths touched by one interval's joins and leaves;
:class:`MarkingAlgorithm` (``engine="python"``) rebuilds the labelling
from scratch.  These tests drive both over the *same* churn — two trees
built from identically-seeded key factories — and require **exact**
equality, never statistical tolerance:

- the trees themselves must stay byte-identical (the canonical
  ``tree_to_dict`` JSON, which covers structure, user placement, and
  every key's bytes);
- every semantic output of the batch must match: updated k-nodes,
  encryption edges, per-user needs, join/departure/move bookkeeping.

One deliberate representation difference exists and is pinned by
``test_labels_agree_semantically``: the from-scratch pass records an
explicit ``UNCHANGED`` label for every untouched k-node, while the
shipping (incremental) pass never visits them.
``RekeySubtree.label_of`` defaults missing entries to ``UNCHANGED``, so
the *semantics* coincide even though the raw ``labels`` dicts differ —
comparisons must go through ``label_of``, not the dict.
"""

import json

import numpy as np
import pytest

from repro.crypto.keys import KeyFactory
from repro.fastpath.marking import (
    _VECTOR_FRONTIER_MIN,
    ArrayMarkingAlgorithm,
    _touched_ancestors,
    _touched_ancestors_vectorized,
)
from repro.keytree import KeyTree
from repro.keytree.marking import MarkingAlgorithm
from repro.keytree.persistence import tree_to_dict

from tests.hypothesis_compat import given, settings, st


def make_tree_pair(n_users, degree, key_seed=7):
    """Two keyed trees that start byte-identical."""
    users = ["u%04d" % i for i in range(n_users)]
    trees = []
    for _ in range(2):
        trees.append(
            KeyTree.full_balanced(
                users, degree, key_factory=KeyFactory(seed=key_seed)
            )
        )
    return trees


def canonical(tree):
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def assert_batches_equal(oracle, candidate):
    """Every semantic output of one interval, exactly equal."""
    assert (
        oracle.subtree.updated_knode_ids
        == candidate.subtree.updated_knode_ids
    )
    assert [
        (e.parent_id, e.child_id) for e in oracle.subtree.edges
    ] == [(e.parent_id, e.child_id) for e in candidate.subtree.edges]
    assert oracle.joined_ids == candidate.joined_ids
    assert oracle.departed_ids == candidate.departed_ids
    assert oracle.moved == candidate.moved
    assert oracle.max_knode_id == candidate.max_knode_id
    # Items, not dict ==: the needs map's key order is the order the
    # assigner and the session see users in.
    assert list(oracle.needs_by_user().items()) == list(
        candidate.needs_by_user().items()
    )
    # Labels agree through label_of (see module docstring).
    for node_id in set(oracle.subtree.labels) | set(
        candidate.subtree.labels
    ):
        assert oracle.subtree.label_of(node_id) == (
            candidate.subtree.label_of(node_id)
        )


def run_intervals(schedule, n_users=48, degree=3, key_seed=7):
    """Apply ``schedule`` — a list of (n_join, n_leave) pairs — to both
    algorithms on twin trees; assert exact equivalence after each."""
    baseline_tree, incremental_tree = make_tree_pair(
        n_users, degree, key_seed
    )
    oracle = MarkingAlgorithm()
    incremental = ArrayMarkingAlgorithm()
    rng = np.random.default_rng(key_seed)
    next_name = n_users
    for n_join, n_leave in schedule:
        members = sorted(baseline_tree.users)
        n_leave = min(n_leave, len(members))
        leaves = [
            str(u)
            for u in rng.choice(members, size=n_leave, replace=False)
        ]
        joins = ["u%04d" % (next_name + i) for i in range(n_join)]
        next_name += n_join
        oracle_batch = oracle.apply(
            baseline_tree, joins=list(joins), leaves=list(leaves)
        )
        incremental_batch = incremental.apply(
            incremental_tree, joins=list(joins), leaves=list(leaves)
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)
        assert_batches_equal(oracle_batch, incremental_batch)


class TestRandomChurnDifferential:
    """The hypothesis sweep the tentpole requires (>=200 examples)."""

    @settings(max_examples=140, deadline=None)
    @given(
        seed=st.integers(0, 10_000_000),
        degree=st.sampled_from([2, 3, 4]),
        intervals=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_interleaved_join_leave_batches(
        self, seed, degree, intervals
    ):
        run_intervals(
            intervals, n_users=36, degree=degree, key_seed=seed
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000_000))
    def test_heavy_churn_long_sequence(self, seed):
        """Deeper sequences with churn heavy enough to force splits,
        prunes, and slot reuse in the same run."""
        rng = np.random.default_rng(seed)
        schedule = [
            (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            for _ in range(6)
        ]
        run_intervals(schedule, n_users=64, degree=4, key_seed=seed)


class TestDeterministicChurnDifferential:
    """Fixed-seed traces that run without hypothesis installed."""

    def test_256_users_20_interval_churn_trace(self):
        rng = np.random.default_rng(2001)
        schedule = [
            (int(rng.integers(0, 40)), int(rng.integers(0, 40)))
            for _ in range(20)
        ]
        run_intervals(schedule, n_users=256, degree=4, key_seed=11)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("n_users", range(1, 9))
    def test_tiny_trees(self, n_users, degree):
        """Single-user roots, half-full levels, and churn that empties
        and refills them."""
        run_intervals(
            [(1, 0), (0, 1), (2, 2), (0, n_users), (3, 1), (n_users, 2)],
            n_users=n_users,
            degree=degree,
            key_seed=n_users,
        )


class TestAncestorFrontier:
    """The marker's one helper has two bodies (object walk below
    ``_VECTOR_FRONTIER_MIN`` touched slots, array map above)."""

    @settings(max_examples=60, deadline=None)
    @given(
        touched=st.sets(
            st.integers(0, 5000), max_size=_VECTOR_FRONTIER_MIN - 1
        ),
        degree=st.sampled_from([2, 3, 4]),
    )
    def test_walk_and_array_map_collect_the_same_set(self, touched, degree):
        assert _touched_ancestors(touched, degree) == (
            _touched_ancestors_vectorized(touched, degree)
        )

    def test_large_batches_take_the_array_map(self):
        """Batches touching >= the threshold drive the vectorised
        frontier inside the marker, splits and prunes included."""
        big = 2 * _VECTOR_FRONTIER_MIN
        run_intervals(
            [(big, 10), (10, big), (big, big)], n_users=4 * big, degree=4
        )


class TestEdgeCases:
    def test_empty_batch(self):
        run_intervals([(0, 0)])

    def test_empty_batch_after_churn(self):
        run_intervals([(5, 9), (0, 0), (3, 0), (0, 0)])

    def test_full_turnover(self):
        """Every member leaves and an equal cohort joins: all slots are
        replacements, nothing is vacated, nothing is pruned."""
        n = 27
        baseline_tree, incremental_tree = make_tree_pair(n, 3)
        leaves = sorted(baseline_tree.users)
        joins = ["new%04d" % i for i in range(n)]
        oracle_batch = MarkingAlgorithm().apply(
            baseline_tree, joins=list(joins), leaves=list(leaves)
        )
        incremental_batch = ArrayMarkingAlgorithm().apply(
            incremental_tree, joins=list(joins), leaves=list(leaves)
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)
        assert_batches_equal(oracle_batch, incremental_batch)
        assert set(baseline_tree.users) == set(joins)

    def test_total_departure_then_rebootstrap(self):
        """Everyone leaves (empty tree), then a join-only batch takes
        the bootstrap path; both algorithms must mirror each other
        through both extremes."""
        baseline_tree, incremental_tree = make_tree_pair(16, 4)
        leaves = sorted(baseline_tree.users)
        oracle = MarkingAlgorithm()
        incremental = ArrayMarkingAlgorithm()
        assert_batches_equal(
            oracle.apply(baseline_tree, joins=[], leaves=list(leaves)),
            incremental.apply(
                incremental_tree, joins=[], leaves=list(leaves)
            ),
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)
        assert baseline_tree.n_users == 0
        joins = ["re%04d" % i for i in range(9)]
        assert_batches_equal(
            oracle.apply(baseline_tree, joins=list(joins), leaves=[]),
            incremental.apply(
                incremental_tree, joins=list(joins), leaves=[]
            ),
        )
        assert canonical(baseline_tree) == canonical(incremental_tree)

    def test_labels_agree_semantically(self):
        """The raw labels dicts intentionally differ (incremental skips
        untouched k-nodes); label_of must still agree everywhere."""
        baseline_tree, incremental_tree = make_tree_pair(64, 4)
        oracle_batch = MarkingAlgorithm().apply(
            baseline_tree, joins=[], leaves=["u0003"]
        )
        incremental_batch = ArrayMarkingAlgorithm().apply(
            incremental_tree, joins=[], leaves=["u0003"]
        )
        # From-scratch records every k-node; incremental only the
        # touched path — strictly fewer entries on a one-leave batch.
        assert len(incremental_batch.subtree.labels) < len(
            oracle_batch.subtree.labels
        )
        for node_id in oracle_batch.subtree.labels:
            assert oracle_batch.subtree.label_of(node_id) == (
                incremental_batch.subtree.label_of(node_id)
            )
