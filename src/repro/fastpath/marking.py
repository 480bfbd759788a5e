"""The shipping marker: path-local marking with array-plane scans.

The from-scratch :class:`~repro.keytree.marking.MarkingAlgorithm` walks
every k-node of the tree each interval (pruning, labelling), diffs full
user-position maps to detect split moves, and walks every member's path
to decide which encryptions it needs — all O(N) work even when the
batch is tiny.  :class:`ArrayMarkingAlgorithm` inherits its tree
update, labelling rule, version bumps and edge order unchanged and
replaces the scans:

- only the ancestors of the u-nodes the batch touches (joined, replaced
  or vacated slots) are pruned and labelled — every node *not* visited
  is implicitly ``Unchanged``, which is exactly the contract of
  :meth:`RekeySubtree.label_of`;
- split moves are recorded as they happen instead of diffed afterwards;
- the ancestor frontier, once large enough to beat the object walk, is
  an iterated ``(id - 1) // d`` parent map with per-level ``np.unique``
  dedup;
- needs enumeration reads a chain table memoised per k-node: a user's
  needs are its own ID (when its parent was updated) followed by its
  parent's chain, so each k-node's chain is built once and shared by
  every user below it (:class:`ArrayBatchResult`).

Key-version bumps and key material regeneration stay per-node: each new
key is an independent BLAKE2b derivation, so there is nothing to fuse —
the version *sequence* (and therefore every derived key byte) is
identical across engines by construction.  The resulting tree, labels
(through ``label_of``), updated-key set, edge order, needs map and key
material are byte-identical to the from-scratch algorithm's, enforced
by the differential property tests in ``tests/keytree`` and
``tests/fastpath``.
"""

from __future__ import annotations

import numpy as np

from repro.keytree.marking import BatchResult, MarkingAlgorithm
from repro.keytree.nodes import NodeKind


class ArrayBatchResult(BatchResult):
    """BatchResult whose needs enumeration reads a per-k-node chain table.

    A user's needs are the path nodes whose parent was updated, deepest
    first: ``needs(u) = [u if parent(u) is updated] + needs(parent(u))``.
    The tail ``needs(parent(u))`` depends only on the k-node, so it is
    memoised once per k-node; per user that leaves one set probe and at
    most one short list.  The dict equals the oracle's per-path walk key
    for key, in the same order (the differential suite compares
    ``list(items())``).

    Users whose own edge is not needed get their parent's memoised list
    itself, so siblings may share one list object: the lists are
    read-only, as every consumer (assignment, packet building, delivery)
    already treats them.
    """

    def needs_by_user(self):
        if self._needs_cache is not None:
            return self._needs_cache
        updated = self.subtree._updated_set
        needs = {}
        if updated:
            d = self.tree.degree
            # k-node ID -> needs(k-node), built once per k-node
            above = {0: []}
            for u_id in self.tree.u_node_ids():
                if u_id == 0:
                    continue  # a lone user at the root needs nothing
                parent = (u_id - 1) // d
                tail = above.get(parent)
                if tail is None:
                    tail = _fill_chain(above, parent, d, updated)
                if parent in updated:
                    needs[u_id] = [u_id] + tail
                elif tail:
                    needs[u_id] = tail
        self._needs_cache = needs
        return needs


def _fill_chain(above, node_id, degree, updated):
    """Memoise ``above`` for ``node_id`` and its unvisited ancestors."""
    pending = []
    while node_id not in above:
        pending.append(node_id)
        node_id = (node_id - 1) // degree
    tail = above[node_id]
    for node_id in reversed(pending):
        parent = (node_id - 1) // degree
        if parent in updated:
            tail = [node_id] + tail
        above[node_id] = tail
    return tail


#: Below this many touched leaves the object-level frontier walk wins
#: (numpy call overhead dominates); measured at N=4096, alpha=0.2.
_VECTOR_FRONTIER_MIN = 64


def _touched_ancestors(touched_ids, degree):
    """All proper ancestors (root included) of ``touched_ids``."""
    touched_ids = list(touched_ids)
    if len(touched_ids) >= _VECTOR_FRONTIER_MIN:
        return _touched_ancestors_vectorized(touched_ids, degree)
    # Walk each leaf's path upward, stopping as soon as it meets an
    # ancestor already collected: total work is bounded by the size of
    # the union of the paths, not leaves x height.
    ancestors = set()
    for node_id in touched_ids:
        parent = node_id
        while parent > 0:
            parent = (parent - 1) // degree
            if parent in ancestors:
                break
            ancestors.add(parent)
    return ancestors


def _touched_ancestors_vectorized(touched_ids, degree):
    """The same set, one whole-frontier parent map per tree level."""
    frontier = np.unique(np.fromiter(touched_ids, dtype=np.int64))
    collected = []
    while len(frontier):
        frontier = np.unique((frontier[frontier > 0] - 1) // degree)
        collected.append(frontier)
    if not collected:
        return set()
    return set(np.concatenate(collected).tolist())


class ArrayMarkingAlgorithm(MarkingAlgorithm):
    """The ``engine="numpy"`` marker (see module docstring)."""

    result_class = ArrayBatchResult

    def __init__(self, renew_keys=True):
        super().__init__(renew_keys=renew_keys)
        self._fresh = frozenset()
        self._moved_from = {}

    def _knodes_to_visit(self, tree, touched):
        """Only the touched slots' ancestors can need pruning or a label.

        Any k-node left childless by the batch is an ancestor of a
        removed u-node (every k-node had a u-node descendant before the
        batch), and a k-node with no touched descendant has
        all-Unchanged children.  Ancestors of vacated slots that were
        themselves pruned this batch are no longer k-nodes and drop out.
        """
        return [
            k_id
            for k_id in sorted(
                _touched_ancestors(touched, tree.degree), reverse=True
            )
            if tree.kind_of(k_id) is NodeKind.K_NODE
        ]

    def _positions_before(self, tree, joins, leaves):
        """Nobody yet: :meth:`_note_move` fills the map as splits run."""
        self._fresh = frozenset(joins)
        self._moved_from = {}
        return self._moved_from

    def _note_move(self, user, old_id):
        # Users who joined this very batch are fresh placements, not
        # relocations — the from-scratch diff never reports them.  Only
        # the *first* position matters: a user split-moved twice in one
        # batch is reported as original -> final, like the full diff.
        if user not in self._fresh:
            self._moved_from.setdefault(user, old_id)
