"""Stateful property testing: the SecureGroup under arbitrary operation
sequences.

Hypothesis drives random interleavings of join / leave / rekey /
lossy-rekey against a model of expected membership, asserting after
every step:

- the key tree's structural invariants hold;
- current members (and only they) can produce the group key;
- the group key changes across any interval with membership changes
  and stays put across empty intervals.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import hypothesis.strategies as st

from repro import GroupConfig, SecureGroup


class SecureGroupMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.group = None
        self.expected_members = set()
        self.expected_departed = set()
        self.counter = 0
        self.pending_joins = []
        self.pending_leaves = []

    @initialize(n=st.integers(2, 20), degree=st.integers(2, 4))
    def start(self, n, degree):
        names = ["m%d" % i for i in range(n)]
        self.group = SecureGroup(
            names, GroupConfig(degree=degree, block_size=4)
        )
        self.expected_members = set(names)
        self.counter = n

    @rule()
    def queue_join(self):
        name = "m%d" % self.counter
        self.counter += 1
        self.group.join(name)
        self.pending_joins.append(name)

    @precondition(
        lambda self: len(self.expected_members) - len(self.pending_leaves) > 1
    )
    @rule(data=st.data())
    def queue_leave(self, data):
        candidates = sorted(
            self.expected_members - set(self.pending_leaves)
        )
        name = data.draw(st.sampled_from(candidates))
        self.group.leave(name)
        self.pending_leaves.append(name)

    @rule(lossy=st.booleans())
    def rekey(self, lossy):
        key_before = self.group.server.group_key
        changed = bool(self.pending_joins or self.pending_leaves)
        self.group.rekey(lossy=lossy)
        self.expected_members |= set(self.pending_joins)
        self.expected_members -= set(self.pending_leaves)
        self.expected_departed |= set(self.pending_leaves)
        self.pending_joins = []
        self.pending_leaves = []
        key_after = self.group.server.group_key
        if changed:
            assert key_after != key_before
        else:
            assert key_after == key_before

    @invariant()
    def membership_matches(self):
        if self.group is None:
            return
        assert set(self.group.members) == self.expected_members

    @invariant()
    def tree_is_valid(self):
        if self.group is None:
            return
        self.group.server.tree.validate()

    @invariant()
    def members_hold_group_key(self):
        if self.group is None:
            return
        expected = self.group.server.group_key
        for name, member in self.group.members.items():
            if name in self.pending_joins:
                continue
            assert member.group_key == expected, name

    @invariant()
    def departed_are_locked_out(self):
        if self.group is None:
            return
        current = self.group.server.group_key
        for name in self.expected_departed:
            former = self.group.former_members.get(name)
            if former is not None:
                assert former.group_key != current, name


SecureGroupMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestSecureGroupStateful = SecureGroupMachine.TestCase
