"""In-process stand-ins for the daemon's remote member population.

A real deployment has members on remote hosts; their key state lives
with *them* and survives any key-server crash.  :class:`MemberFleet`
models exactly that: it owns the current members'
:class:`~repro.core.member.GroupMember` objects, persists across daemon
restarts in tests and soaks, runs each interval's membership step and
checks the system's two security invariants —

- **agreement**: after a delivered rekey, every current member's group
  key equals the server's;
- **secrecy**: its :class:`SecrecyLedger` finds no tree key the
  departed members can reach and no joiner key older than its join.

Evicted members are dropped: the ledger reads only the server's tree
and the rekey message.
"""

from __future__ import annotations

import types
import weakref

from repro.core.member import GroupMember
from repro.crypto.cipher import XorStreamCipher
from repro.errors import CryptoError, ServiceError
from repro.keytree.ids import ROOT_ID

_CIPHER = XorStreamCipher()


class SecrecyLedger:
    """Forward and backward secrecy, checked on key material.

    - **Forward.** The coalition of departed members starts from each
      leaver's path keys as the tree held them just before its eviction
      interval; an edge ``{k_parent}k_child`` of the rekey message whose
      child key it holds hands it the parent key.  After the interval no
      key it holds may still be a tree key, the root least of all.
    - **Backward.** Every key on a joiner's path differs from the key
      that node held before the join interval.

    Keys are compared as material, never through the marker's labels.
    Memory is O(tree): the tree's keys as the last interval left them,
    plus coalition keys still in the tree (none while secrecy holds).
    The message is read only once a key has leaked.
    """

    def __init__(self):
        #: node ID -> key the departed coalition holds that is a tree key
        self.coalition = {}
        #: what the last interval breached (empty while secrecy holds)
        self.breaches = []
        self._keys = {}  # node ID -> tree key when the last interval closed
        self._synced = (None, None)  # (weakref to that tree, interval)

    def __len__(self):
        return len(self._keys) + len(self.coalition)

    def capture(self, server, leaves):
        """The leavers' path keys, read just before ``server.rekey()``."""
        tree = server.tree
        if self._synced != (weakref.ref(tree), server.intervals_processed):
            # A new or rebuilt server (recovery, promotion, re-home), or
            # one rekeyed outside this ledger: re-read its keys once.
            self._keys = {n: tree.key_at(n) for n in tree.node_ids()}
        return {n: tree.key_at(n) for n in _paths(tree, leaves)}

    def settle(self, server, batch, message, path_keys, joins):
        """Judge the interval ``server.rekey()`` just closed."""
        tree = server.tree
        before, coalition = self._keys, self.coalition
        coalition.update(path_keys)
        joined = _paths(tree, joins)
        backward, leaked = [], {}
        for node_id in joined.union(
            coalition, batch.subtree.updated_knode_ids, batch.moved.values()
        ):
            now = tree.key_at(node_id)
            if now is None:
                before.pop(node_id, None)
                continue
            old = before.get(node_id)
            kept = old is not None and old == now
            if kept and node_id in joined:
                backward.append(node_id)
            held = coalition.get(node_id)  # mostly ``old`` itself
            if held is not None and (kept if held is old else held == now):
                leaked[node_id] = now
            before[node_id] = now
        if leaked and message.encryption_map:
            # Read the message bottom-up as the coalition would.
            for child_id, encrypted in message.encryption_map.items():
                if child_id in coalition:
                    parent_id = (child_id - 1) // tree.degree
                    try:
                        coalition[parent_id] = _CIPHER.decrypt_key(
                            encrypted, coalition[child_id], node_id=parent_id
                        )
                    except CryptoError:
                        pass
            leaked = {
                n: k for n, k in coalition.items() if tree.key_at(n) == k
            }
        self.coalition = leaked
        self.breaches = [
            "a joiner holds node %d's key from before its join" % n
            for n in sorted(backward)
        ] + [
            "departed members hold node %d's current key" % n
            for n in sorted(leaked)
        ]
        self._synced = (weakref.ref(tree), server.intervals_processed)


def _paths(tree, names):
    """The IDs of every node on the paths of ``names``."""
    seen = set()
    for name in names:
        node_id = tree.user_node_id(name)
        while node_id not in seen:
            seen.add(node_id)
            if node_id == ROOT_ID:
                break
            node_id = (node_id - 1) // tree.degree
    return seen


class MemberFleet:
    """The population of live member key states, and its secrecy ledger."""

    #: Always empty and read-only: kept for the end-to-end benchmark's
    #: ``former_members`` row until ROADMAP item 8 drops it.
    former_members = types.MappingProxyType({})

    stale_error = "members lack the current group key: %r"

    def __init__(self):
        self.members = {}  # name -> GroupMember
        self.ledger = SecrecyLedger()

    @classmethod
    def register_all(cls, server):
        """A fleet freshly registered for every current user of ``server``
        (the CLI-resume path: a new process has no surviving members, so
        they re-register over the SSL channel)."""
        fleet = cls()
        for name in sorted(server.users):
            fleet.register(server, name)
        return fleet

    @property
    def n_members(self):
        return len(self.members)

    def register(self, server, name):
        """(Re-)register ``name``: fetch fresh path keys from the server.

        Idempotent — re-registration after a crash replay simply
        replaces the member's key state with the server's current view,
        which is what the SSL registration channel would do.
        """
        self.members[name] = GroupMember.register(server, name)
        return self.members[name]

    def evict(self, name):
        """Drop ``name``'s member state (idempotent)."""
        self.members.pop(name, None)

    def rekey(self, server, run=None):
        """One interval's membership step; returns ``(joins, leaves,
        batch, message)``.  ``run(joins, leaves)`` may stand in for
        ``server.rekey()`` (the daemon wraps its span, event and
        post-rekey crash point around it)."""
        joins, leaves = server.pending_requests
        path_keys = self.ledger.capture(server, leaves)
        batch, message = run(joins, leaves) if run else server.rekey()
        for name in leaves:
            self.evict(name)
        for name in joins:
            self.register(server, name)
        self.ledger.settle(server, batch, message, path_keys, joins)
        return joins, leaves, batch, message

    def by_user_id(self):
        """Map current u-node IDs to members (after relocation)."""
        return {member.user_id: member for member in self.members.values()}

    def relocate_all(self, max_kid):
        """Have every member re-derive its ID for a new ``maxKID``
        (Theorem 4.2) — what each would do on seeing any packet of the
        message."""
        for member in self.members.values():
            member.absorb_encryptions([], max_kid=max_kid)

    # -- invariant checks --------------------------------------------------

    def out_of_sync(self, server):
        """Names of current members whose group key != the server's."""
        expected = server.group_key
        return sorted(
            name
            for name, member in self.members.items()
            if member.group_key != expected
        )

    def check_agreement(self, server, exclude=()):
        """Raise :class:`ServiceError` unless all (non-excluded) members
        hold the server's group key and the secrecy ledger is clean."""
        excluded = set(exclude)
        stale = [n for n in self.out_of_sync(server) if n not in excluded]
        if stale:
            raise ServiceError(self.stale_error % (stale,))
        if self.ledger.breaches:
            raise ServiceError(
                "secrecy ledger: %s" % "; ".join(self.ledger.breaches)
            )

    def __repr__(self):
        return "MemberFleet(members=%d)" % len(self.members)
