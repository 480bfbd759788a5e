"""Fleet-wide post-delivery absorption for the array engine.

After a delivery session, every member re-derives its u-node ID from the
message's ``maxKID`` (Theorem 4.2) and decrypts the path encryptions it
recovered.  The object path does both per member: an O(height) Python ID
walk times N, and — the expensive part — a fresh toy-cipher decryption
per (member, path edge) even though members below the same updated
k-node decrypt the *same* ciphertext with the *same* child key.

:class:`FleetAbsorber` keeps the member objects and their observable
state byte-identical (``tests/fastpath`` diffs every member's
``user_id`` and ``path_keys`` against the oracle) while:

- running the Theorem 4.2 relocation for the whole fleet as an iterated
  ``candidate -> d * candidate + 1`` array map (the ``f(x+1) = d f(x) + 1``
  recurrence), then applying the few actual moves in Python;
- memoising decryptions on ``(child_id, ciphertext, child key material)``
  so each distinct rekey-subtree edge is decrypted once per distinct
  child key, not once per member — the memo key includes the key
  material, so a member holding a stale sibling key still gets its own
  (failing) decryption attempt, exactly as the per-member path would;
- indexing each recovered-encryption list by encryption ID once per
  *distinct list object* (members delivered by the same multicast slot
  share one tuple — see
  :meth:`~repro.fastpath.session.ArrayRekeySession.recovered_by_user`,
  which hands the whole fleet's tuples over in one pass), so per member
  the on-path filter is an O(height) walk of dict probes instead of an
  O(list) scan plus a sort.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.cipher import XorStreamCipher
from repro.errors import CryptoError, KeyTreeError, TransportError
from repro.keytree import ids as idmath


#: Memo miss marker (a memoised ``None`` is a remembered failed decryption).
_UNSEEN = object()


class FleetAbsorber:
    """Shared-work relocation + absorption across a member fleet."""

    def __init__(self, degree):
        self.degree = int(degree)
        self._cipher = XorStreamCipher()
        #: (child_id, ciphertext, child key material) -> SymmetricKey
        #: (shared instance; SymmetricKey equality is by material) or
        #: None for a failed (stale-key) decryption.
        self._memo = {}
        #: id(encryption sequence) -> (by-encryption-id dict, sequence).
        #: The sequence itself is kept in the value so the id() key
        #: cannot be recycled while the cache entry is live.
        self._indexes = {}

    # -- Theorem 4.2, fleet-wide -------------------------------------------

    def relocate_fleet(self, fleet, max_kid):
        """Relocate every member of ``fleet`` for ``max_kid`` at once.

        Equivalent to ``fleet.relocate_all(max_kid)``: each member ends
        with the ID ``derive_new_user_id`` would give it and with the
        keys that fell off its (possibly longer) path dropped.
        """
        members = list(fleet.members.values())
        if not members:
            return
        d = self.degree
        old_ids = np.array([m.user_id for m in members], dtype=np.int64)
        candidate = old_ids.copy()
        # f(x+1) = d * f(x) + 1 until every walk has cleared maxKID; the
        # loop runs at most the tree-height growth of this interval.
        while True:
            pending = candidate <= max_kid
            if not pending.any():
                break
            candidate[pending] = d * candidate[pending] + 1
        if np.any(candidate > d * max_kid + d):
            bad = int(old_ids[np.argmax(candidate > d * max_kid + d)])
            raise KeyTreeError(
                "no f(x) in (%d, %d] for old_id=%d, d=%d: inconsistent "
                "maxKID" % (max_kid, d * max_kid + d, bad, d)
            )
        for member, new_id in zip(members, candidate.tolist()):
            if new_id == member.user_id:
                # Unmoved member: its path is the same node set (the
                # path of an ID is a pure function of the ID), and keys
                # are only ever installed on the path — nothing can
                # have fallen off, so skip the filter.
                continue
            individual = member.path_keys[member.user_id]
            member.path_keys.pop(member.user_id, None)
            member.user_id = new_id
            member.path_keys[new_id] = individual
            valid = set(
                idmath.path_to_root(member.user_id, d)
            )
            member.path_keys = {
                node_id: key
                for node_id, key in member.path_keys.items()
                if node_id in valid
            }

    # -- memoised decryption ------------------------------------------------

    def absorb(self, member, encryptions):
        """``member._absorb(encryptions)`` with fleet-shared decryptions.

        The member must already be relocated (``relocate_fleet``).
        """
        if not encryptions:
            return
        cached = self._indexes.get(id(encryptions))
        if cached is None or cached[1] is not encryptions:
            cached = (
                {e.encryption_id: e for e in encryptions},
                encryptions,
            )
            self._indexes[id(encryptions)] = cached
        by_id = cached[0]
        # Walk the path bottom-up: node IDs strictly decrease towards
        # the root, so probing each path node in walk order visits the
        # member's encryptions in exactly the descending-ID order the
        # per-member path uses — a just-installed parent key is the
        # child key of the next edge up.
        d = self.degree
        memo = self._memo
        path_keys = member.path_keys
        node_id = member.user_id
        while True:
            encrypted = by_id.get(node_id)
            if encrypted is not None:
                child_key = path_keys.get(node_id)
                if child_key is None:
                    raise TransportError(
                        "missing key for node %d; encryptions out of order"
                        % node_id
                    )
                parent_id = (node_id - 1) // d
                token = (node_id, encrypted.ciphertext, child_key.material)
                new_key = memo.get(token, _UNSEEN)
                if new_key is _UNSEEN:
                    try:
                        new_key = self._cipher.decrypt_key(
                            encrypted, child_key, node_id=parent_id
                        )
                    except CryptoError:
                        # Stale sibling key (Replace-labelled slot): the
                        # per-member path skips it silently too.
                        new_key = None
                    memo[token] = new_key
                if new_key is not None:
                    path_keys[parent_id] = new_key
            if node_id == 0:
                break
            node_id = (node_id - 1) // d
