"""The marking algorithm: periodic batch rekeying (Appendix B).

At the end of each rekey interval the key server has collected ``J`` join
and ``L`` leave requests.  :class:`MarkingAlgorithm.apply` performs, in
order:

1. **Tree update.**  Departed u-nodes are replaced by joined users
   (``J = L``), partially replaced with the surplus vacated to n-nodes
   and empty k-subtrees pruned (``J < L``), or — for surplus joins
   (``J > L``) — n-node slots in ``(nk, d*nk + d]`` are filled in ID
   order and then the node ``nk + 1`` is split repeatedly, pushing its
   user to its leftmost child (which is how Theorem 4.2's ``f(x)`` IDs
   arise).

2. **Labelling.**  Every node relevant to the batch gets one of the four
   labels Unchanged / Join / Leave / Replace; a k-node's key must change
   iff its label is Join or Replace.

3. **Rekeying.**  Every updated k-node (and every replaced/joined u-node)
   receives fresh key material.

4. **Rekey-subtree construction.**  For each updated k-node, one
   *encryption edge* per present child: the parent's new key encrypted
   under the child's current key.  The edge list, in bottom-up message
   order, is the workload handed to the key-assignment algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DuplicateUserError, MarkingError, UnknownUserError
from repro.keytree import ids as idmath
from repro.keytree.nodes import NodeKind, NodeLabel
from repro.keytree.tree import KeyTree
from repro.obs.recorder import NULL


@dataclass(frozen=True)
class EncryptionEdge:
    """One encryption of a rekey message: ``{new key of parent}_child``.

    The encryption's wire ID is ``child_id`` (the encrypting key's node
    ID); the encrypted key's node is always ``(child_id - 1) // d``.
    """

    parent_id: int
    child_id: int

    def __post_init__(self):
        if self.parent_id < 0 or self.child_id < 0:
            raise MarkingError("edge IDs must be non-negative")

    @property
    def encryption_id(self):
        """Wire identifier of this encryption (the child node ID)."""
        return self.child_id


@dataclass
class RekeySubtree:
    """The output of one marking run: what changed and what to send.

    ``edges`` are in message order (deepest updated k-node first,
    children left to right), matching the paper's bottom-up traversal.
    """

    degree: int
    labels: dict = field(default_factory=dict)
    updated_knode_ids: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    @property
    def n_encryptions(self):
        """Total encryptions in the rekey message (with no packing yet)."""
        return len(self.edges)

    @property
    def n_updated_keys(self):
        """Number of k-node keys that changed this interval."""
        return len(self.updated_knode_ids)

    def label_of(self, node_id):
        """Label of ``node_id`` (Unchanged when not recorded)."""
        return self.labels.get(node_id, NodeLabel.UNCHANGED)

    def is_updated(self, node_id):
        """True iff the k-node at ``node_id`` received a new key."""
        return node_id in self._updated_set

    @property
    def _updated_set(self):
        cached = getattr(self, "_updated_cache", None)
        if cached is None:
            cached = set(self.updated_knode_ids)
            object.__setattr__(self, "_updated_cache", cached)
        return cached


class BatchResult:
    """Everything produced by applying one batch of joins and leaves."""

    def __init__(self, tree, subtree, joined_ids, departed_ids, moved):
        self.tree = tree
        self.subtree = subtree
        #: user name -> u-node ID for users joined in this batch
        self.joined_ids = dict(joined_ids)
        #: u-node IDs vacated by departures (before any reuse)
        self.departed_ids = list(departed_ids)
        #: old ID -> new ID for users relocated by splits
        self.moved = dict(moved)
        self.max_knode_id = tree.max_knode_id
        self._needs_cache = None

    @property
    def n_encryptions(self):
        """Number of encryptions in this batch's rekey message."""
        return self.subtree.n_encryptions

    def needs_by_user(self):
        """Map u-node ID -> ordered encryption IDs that user must get.

        Order is deepest-first along the user's path, which is also valid
        decryption order (each new key is decrypted either with the
        user's individual key or with a new key recovered earlier in the
        list).  Users needing nothing are omitted.
        """
        if self._needs_cache is not None:
            return self._needs_cache
        updated = self.subtree._updated_set
        needs = {}
        d = self.tree.degree
        for u_id in self.tree.u_node_ids():
            path = idmath.path_to_root(u_id, d)
            wanted = [
                child
                for child, parent in zip(path, path[1:])
                if parent in updated
            ]
            if wanted:
                needs[u_id] = wanted
        self._needs_cache = needs
        return needs

    def needs_for_user(self, u_node_id):
        """Ordered encryption IDs needed by the user at ``u_node_id``."""
        return self.needs_by_user().get(u_node_id, [])


class MarkingAlgorithm:
    """Applies batches of joins/leaves to a :class:`KeyTree`.

    This class is the from-scratch *oracle* (``engine="python"``): every
    interval it visits every k-node of the tree and diffs full
    user-position maps, O(N) however small the batch — slow, and
    transparently the algorithm of Appendix B.  The shipping marker,
    :class:`repro.fastpath.marking.ArrayMarkingAlgorithm`, overrides
    only *which* nodes are visited (:meth:`_knodes_to_visit`) and *how*
    split moves are found (:meth:`_positions_before`,
    :meth:`_note_move`); tree update, labelling rule, rekeying and edge
    order are this code for both.
    """

    #: BatchResult (sub)class to instantiate; the shipping marker swaps
    #: in a variant with vectorized needs enumeration.
    result_class = BatchResult

    def __init__(self, renew_keys=True):
        #: When False, updated k-nodes are identified but key material is
        #: not regenerated — slightly faster for workload-only studies.
        self.renew_keys = renew_keys
        #: observability recorder (repro.obs); NULL is a strict no-op
        self.obs = NULL

    # -- public entry ---------------------------------------------------

    def apply(self, tree, joins=(), leaves=()):
        """Apply ``joins`` and ``leaves`` to ``tree``; return BatchResult.

        ``joins`` is an iterable of new user names, ``leaves`` of current
        member names.  The tree is mutated in place.
        """
        joins = list(joins)
        leaves = list(leaves)
        with self.obs.span(
            "marking.apply", joins=len(joins), leaves=len(leaves)
        ):
            return self._apply_batch(tree, joins, leaves)

    def _apply_batch(self, tree, joins, leaves):
        if not isinstance(tree, KeyTree):
            raise MarkingError("tree must be a KeyTree")
        joins = list(joins)
        leaves = list(leaves)
        self._check_batch(tree, joins, leaves)

        if tree.n_users == 0:
            return self._bootstrap(tree, joins)

        before = self._positions_before(tree, joins, leaves)
        departed_ids = sorted(tree.user_node_id(user) for user in leaves)
        replaced_ids, joined_ids, vacated = self._update_tree(
            tree, joins, leaves, departed_ids
        )
        moved = {
            old_id: tree.user_node_id(user)
            for user, old_id in before.items()
            if tree.user_node_id(user) != old_id
        }
        labels = self._label(tree, replaced_ids, joined_ids, vacated)
        subtree = self._build_subtree(tree, labels)
        return self.result_class(
            tree,
            subtree,
            joined_ids={
                user: tree.user_node_id(user) for user in joins
            },
            departed_ids=departed_ids,
            moved=moved,
        )

    # -- validation -----------------------------------------------------

    @staticmethod
    def _check_batch(tree, joins, leaves):
        if len(set(joins)) != len(joins):
            raise DuplicateUserError("duplicate names in join batch")
        if len(set(leaves)) != len(leaves):
            raise MarkingError("duplicate names in leave batch")
        current = tree.users
        leave_set = set(leaves)
        for user in joins:
            # A member appearing in *both* lists left and re-joined
            # within this interval: legal, handled as an in-place
            # Replace at its old slot (its old key must die either way).
            if user in current and user not in leave_set:
                raise DuplicateUserError(
                    "join request for existing member %r" % (user,)
                )
        for user in leaves:
            if user not in current:
                raise UnknownUserError(
                    "leave request for non-member %r" % (user,)
                )

    # -- bootstrap (empty tree) ------------------------------------------

    def _bootstrap(self, tree, joins):
        """Populate an empty tree: everything is a Join."""
        if not joins:
            empty = RekeySubtree(degree=tree.degree)
            return self.result_class(tree, empty, {}, [], {})
        height = idmath.min_height_for(len(joins), tree.degree) or 1
        first_leaf = idmath.first_id_of_level(height, tree.degree)
        for offset, user in enumerate(joins):
            tree.create_u_node(first_leaf + offset, user)
        tree.ensure_ancestors(
            range(first_leaf, first_leaf + len(joins))
        )
        joined_ids = [tree.user_node_id(user) for user in joins]
        labels = {u_id: NodeLabel.JOIN for u_id in joined_ids}
        labels.update(self._label_k_nodes(tree, labels, vacated=set()))
        subtree = self._build_subtree(tree, labels)
        return self.result_class(
            tree,
            subtree,
            joined_ids={user: tree.user_node_id(user) for user in joins},
            departed_ids=[],
            moved={},
        )

    # -- step 1: tree update ---------------------------------------------

    def _update_tree(self, tree, joins, leaves, departed_ids):
        """Mutate the tree structure; return bookkeeping for labelling."""
        leave_set = set(leaves)
        rejoins = [user for user in joins if user in leave_set]
        rejoined_ids = []
        for user in rejoins:
            # Left and re-joined within the interval: the member keeps
            # its slot but its individual key is renewed in place — a
            # Replace whose departing and arriving user happen to match.
            node_id = tree.user_node_id(user)
            tree.replace_user(node_id, user)
            rejoined_ids.append(node_id)
        if rejoins:
            rejoined_set = set(rejoined_ids)
            joins = [user for user in joins if user not in leave_set]
            departed_ids = [
                node_id
                for node_id in departed_ids
                if node_id not in rejoined_set
            ]

        n_replace = min(len(joins), len(departed_ids))
        replaced_ids = departed_ids[:n_replace]
        for node_id, user in zip(replaced_ids, joins):
            tree.replace_user(node_id, user)

        vacated = set()
        if len(departed_ids) > n_replace:
            for node_id in departed_ids[n_replace:]:
                tree.remove_node(node_id)
                vacated.add(node_id)
            vacated |= self._prune_empty_knodes(tree, vacated)

        replaced_ids = rejoined_ids + replaced_ids
        joined_ids = list(replaced_ids)
        extra_joins = joins[n_replace:]
        if extra_joins:
            joined_ids += self._place_extra_joins(tree, extra_joins)
        return replaced_ids, joined_ids, vacated

    def _prune_empty_knodes(self, tree, vacated):
        """Remove k-nodes left with no present children; return their IDs.

        Deepest first, so cascaded pruning is safe: a pruned node's
        parent is visited afterwards.
        """
        pruned = set()
        for k_id in self._knodes_to_visit(tree, vacated):
            if not tree.children_of(k_id):
                tree.remove_node(k_id)
                pruned.add(k_id)
        return pruned

    def _place_extra_joins(self, tree, extra_joins):
        """Fill n-node slots in ``(nk, d*nk + d]``; split ``nk+1`` as needed."""
        d = tree.degree
        placed_ids = []
        cursor = 0
        nk = tree.max_knode_id
        if nk < 0:
            raise MarkingError("cannot place joins: tree has no k-nodes")

        def place(slot):
            nonlocal cursor
            tree.create_u_node(slot, extra_joins[cursor])
            tree.ensure_ancestors([slot])
            placed_ids.append(slot)
            cursor += 1

        # First pass: fill existing n-node holes in (nk, d*nk + d].
        # Ancestor creation never raises nk: a slot's ancestors all have
        # IDs <= nk, so the range stays valid throughout the scan.
        for slot in range(nk + 1, d * nk + d + 1):
            if cursor >= len(extra_joins):
                break
            if not tree.has_node(slot):
                place(slot)

        # Remaining joins: split nk+1 repeatedly.  After a split at m the
        # only fresh slots in the new range (m, d*m + d] are the split
        # node's children d*m+2 .. d*m+d (d*m+1 holds the moved user), so
        # each split is O(d).
        while cursor < len(extra_joins):
            split_id = nk + 1
            node = tree.node(split_id)
            if not node.is_u_node:
                raise MarkingError(
                    "split target %d is not a u-node" % split_id
                )
            self._note_move(node.user, split_id)
            tree.move_u_node(split_id, d * split_id + 1)
            tree.create_k_node(split_id)
            nk = split_id
            for slot in range(d * split_id + 2, d * split_id + d + 1):
                if cursor >= len(extra_joins):
                    break
                place(slot)
        return placed_ids

    # -- step 2: labelling -------------------------------------------------

    def _label(self, tree, replaced_ids, joined_ids, vacated):
        labels = {}
        for node_id in vacated:
            labels[node_id] = NodeLabel.LEAVE
        for node_id in joined_ids:
            labels[node_id] = NodeLabel.JOIN
        for node_id in replaced_ids:
            # Departed-then-joined at the same slot: Replace.
            labels[node_id] = NodeLabel.REPLACE
        labels.update(self._label_k_nodes(tree, labels, vacated))
        return labels

    def _label_k_nodes(self, tree, leaf_labels, vacated):
        """Bottom-up labelling of k-nodes from their children's labels.

        Absent children are counted as Leave only when they were vacated
        *this batch*; a permanently absent slot (sparse tree) carries no
        information and is ignored.
        """
        labels = dict(leaf_labels)
        k_labels = {}
        for k_id in self._knodes_to_visit(tree, set(leaf_labels) | vacated):
            child_labels = []
            for child in tree.children_of(k_id, present_only=False):
                if tree.has_node(child):
                    child_labels.append(
                        labels.get(child, NodeLabel.UNCHANGED)
                    )
                elif child in vacated:
                    child_labels.append(NodeLabel.LEAVE)
            if not child_labels:
                raise MarkingError(
                    "k-node %d has no children to label from" % k_id
                )
            if all(c is NodeLabel.UNCHANGED for c in child_labels):
                label = NodeLabel.UNCHANGED
            elif all(
                c in (NodeLabel.UNCHANGED, NodeLabel.JOIN)
                for c in child_labels
            ):
                label = NodeLabel.JOIN
            else:
                label = NodeLabel.REPLACE
            labels[k_id] = label
            k_labels[k_id] = label
        return k_labels

    # -- steps 3 & 4: rekeying and subtree construction --------------------

    def _build_subtree(self, tree, labels):
        updated = sorted(
            node_id
            for node_id, label in labels.items()
            if label.key_changed
            and tree.kind_of(node_id) is NodeKind.K_NODE
        )
        if self.renew_keys:
            for node_id in updated:
                tree.renew_key(node_id)
        d = tree.degree
        # Message order: deepest level first, then by ID.
        by_depth = sorted(
            updated, key=lambda n: (-idmath.level_of(n, d), n)
        )
        edges = [
            EncryptionEdge(parent_id=k_id, child_id=child)
            for k_id in by_depth
            for child in tree.children_of(k_id)
        ]
        return RekeySubtree(
            degree=d,
            labels=labels,
            updated_knode_ids=updated,
            edges=edges,
        )

    # -- what the shipping marker overrides --------------------------------

    def _knodes_to_visit(self, tree, touched):
        """k-node IDs to prune or label, deepest first.

        From scratch: every k-node, whatever slots the batch
        ``touched``.
        """
        return sorted(tree.k_node_ids(), reverse=True)

    def _positions_before(self, tree, joins, leaves):
        """``{user: u-node ID}`` to diff after the tree update; a user
        whose ID changed was relocated by a split.

        From scratch: every member that stays.
        """
        return {
            user: tree.user_node_id(user)
            for user in tree.users
            if user not in leaves
        }

    def _note_move(self, user, old_id):
        """Hook: a split is about to relocate ``user`` from ``old_id``.

        Ignored here — the full position diff finds every move.
        """


def make_marking(engine="numpy"):
    """The marker ``GroupConfig.engine`` names.

    ``"python"`` is the from-scratch :class:`MarkingAlgorithm` (the
    oracle); anything else the shipping
    :class:`repro.fastpath.marking.ArrayMarkingAlgorithm`.  Output is
    identical either way (``tests/keytree``, ``tests/fastpath``).
    """
    if engine == "python":
        return MarkingAlgorithm()
    from repro.fastpath.marking import ArrayMarkingAlgorithm

    return ArrayMarkingAlgorithm()
