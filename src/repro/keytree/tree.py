"""The :class:`KeyTree`: structure, membership, and key material.

The tree is stored *sparsely*: a dict maps node IDs to k-nodes and
u-nodes, and any absent ID is implicitly an n-node (null padding of the
expanded tree).  This matches the paper's expanded-tree view while
keeping memory linear in membership.

Key material is optional.  With a :class:`~repro.crypto.keys.KeyFactory`
the tree carries real (toy-cipher) keys and can drive the end-to-end
protocol; without one ("keyless mode") only versions are tracked, which
is all the workload analyses need and is much faster for large sweeps.

Structural invariants maintained (checked by :meth:`KeyTree.validate`):

- the root (ID 0) is a k-node whenever the group is non-empty
  (a singleton group keeps a k-node root above one u-node);
- Lemma 4.1: every k-node ID is smaller than every u-node ID;
- every ancestor of a u-node is a k-node;
- every k-node has at least one u-node descendant;
- u-nodes have no descendants.
"""

from __future__ import annotations

import heapq

from repro.crypto.keys import KeyFactory
from repro.errors import (
    DuplicateUserError,
    KeyTreeError,
    UnknownUserError,
)
from repro.keytree import ids as idmath
from repro.keytree.nodes import NodeKind, TreeNode
from repro.util.validation import check_positive


class KeyTree:
    """A d-ary logical key hierarchy with sparse n-node padding."""

    def __init__(self, degree, key_factory=None):
        check_positive("degree", degree, integral=True)
        if degree < 2:
            raise KeyTreeError("degree must be >= 2, got %d" % degree)
        self._d = int(degree)
        self._factory = key_factory
        self._nodes = {}
        self._users = {}
        self._versions = {}
        # Lazy max-heap over k-node IDs (stored negated) backing the
        # O(1)-amortised ``max_knode_id``; stale entries (removed or
        # re-kinded IDs) are discarded on read.
        self._knode_heap = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def full_balanced(cls, users, degree, key_factory=None):
        """Build a tree with all users left-packed at the minimal level.

        With ``len(users)`` a power of ``degree`` this is the paper's
        "full and balanced" starting tree; otherwise users occupy a
        left-packed prefix of the minimal level and only their ancestors
        exist as k-nodes.
        """
        users = list(users)
        if not users:
            raise KeyTreeError("cannot build a tree with no users")
        if len(set(users)) != len(users):
            raise DuplicateUserError("duplicate user names in initial set")
        tree = cls(degree, key_factory=key_factory)
        height = idmath.min_height_for(len(users), degree)
        if height == 0:
            # A single user still gets a k-node root so a group key exists.
            height = 1
        first_leaf = idmath.first_id_of_level(height, degree)
        for offset, user in enumerate(users):
            tree.create_u_node(first_leaf + offset, user)
        tree.ensure_ancestors(
            range(first_leaf, first_leaf + len(users))
        )
        return tree

    @classmethod
    def from_records(cls, degree, records, versions=None, key_factory=None):
        """Rebuild a tree from explicit node records (the restore path).

        ``records`` is an iterable of dicts with keys ``id``, ``kind``
        (a :class:`NodeKind` or its value), ``version``, and optionally
        ``user`` (u-nodes) and ``key`` (a :class:`SymmetricKey` or
        ``None`` for keyless trees).  ``versions`` maps node IDs to the
        renewal counters so future rekeys continue the version sequence.
        When given it is authoritative and restored verbatim: a moved
        u-node keeps its old position's version without an entry in the
        counter map, so seeding counters from the node records would
        make restore-then-serialise disagree with the original — and
        HA replicas bootstrapped from a snapshot would renew different
        key versions than the leader they shadow.  Without ``versions``
        each record's own version seeds its counter.  The rebuilt tree
        is :meth:`validate`-checked before it is returned.

        This is the supported way to restore persisted state —
        :mod:`repro.keytree.persistence` goes through it — so external
        snapshot formats never need to reach into tree internals.
        """
        tree = cls(degree, key_factory=key_factory)
        for record in records:
            node_id = int(record["id"])
            if node_id in tree._nodes:
                raise KeyTreeError("duplicate record for node %d" % node_id)
            kind = NodeKind(record["kind"])
            if kind is NodeKind.N_NODE:
                raise KeyTreeError(
                    "node %d: n-nodes are implicit and cannot be restored"
                    % node_id
                )
            node = TreeNode(
                node_id,
                kind,
                key=record.get("key"),
                user=record.get("user"),
                version=int(record.get("version", 0)),
            )
            if node.is_u_node:
                if node.user is None:
                    raise KeyTreeError("u-node %d has no user" % node_id)
                if node.user in tree._users:
                    raise DuplicateUserError(
                        "user %r appears twice in records" % (node.user,)
                    )
                tree._users[node.user] = node_id
            tree._nodes[node_id] = node
            if versions is None:
                tree._versions[node_id] = node.version
            if node.kind is NodeKind.K_NODE:
                heapq.heappush(tree._knode_heap, -node_id)
        if versions is not None:
            for node_id, version in versions.items():
                tree._versions[int(node_id)] = int(version)
        tree.validate()
        return tree

    def ensure_ancestors(self, leaf_ids):
        """Create k-nodes for every missing ancestor of ``leaf_ids``."""
        pending = set()
        for leaf_id in leaf_ids:
            node_id = leaf_id
            while node_id != idmath.ROOT_ID:
                node_id = (node_id - 1) // self._d
                pending.add(node_id)
        for node_id in sorted(pending):
            if node_id not in self._nodes:
                self.create_k_node(node_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def degree(self):
        """Tree degree ``d``."""
        return self._d

    @property
    def keyless(self):
        """True when the tree tracks versions but not key material."""
        return self._factory is None

    @property
    def n_users(self):
        """Current number of group members."""
        return len(self._users)

    @property
    def users(self):
        """Set of current user names."""
        return set(self._users)

    def has_user(self, user):
        """True iff ``user`` is a current member (O(1), no set copy)."""
        return user in self._users

    @property
    def version_counters(self):
        """Snapshot of the renewal counters, absent nodes included.

        A counter may outlive its node (a pruned k-node's counter keeps
        ticking if the slot is re-created), so this map — not the
        per-node versions — is what lossless snapshots must carry.
        """
        return dict(self._versions)

    def node_ids(self, kind=None):
        """Sorted IDs of present nodes, optionally filtered by kind."""
        if kind is None:
            return sorted(self._nodes)
        kind = NodeKind(kind)
        return sorted(
            node_id
            for node_id, node in self._nodes.items()
            if node.kind is kind
        )

    def k_node_ids(self):
        """Sorted IDs of all k-nodes."""
        return self.node_ids(NodeKind.K_NODE)

    def u_node_ids(self):
        """Sorted IDs of all u-nodes."""
        return self.node_ids(NodeKind.U_NODE)

    @property
    def max_knode_id(self):
        """``nk``: the largest k-node ID (−1 for an empty tree).

        Amortised O(1): reads the top of a lazy heap instead of sorting
        every node, which matters because the marking algorithm consults
        ``nk`` on every batch.
        """
        heap = self._knode_heap
        while heap:
            candidate = -heap[0]
            node = self._nodes.get(candidate)
            if node is not None and node.kind is NodeKind.K_NODE:
                return candidate
            heapq.heappop(heap)
        return -1

    @property
    def height(self):
        """Level of the deepest u-node (root is level 0)."""
        u_ids = self.u_node_ids()
        if not u_ids:
            return 0
        return idmath.level_of(u_ids[-1], self._d)

    def has_node(self, node_id):
        """True iff ``node_id`` is a present (k- or u-) node."""
        return node_id in self._nodes

    def node(self, node_id):
        """The :class:`TreeNode` at ``node_id`` (must be present)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyTreeError("node %d is an n-node (absent)" % node_id)

    def kind_of(self, node_id):
        """Kind at ``node_id``; absent IDs read as ``NodeKind.N_NODE``."""
        node = self._nodes.get(node_id)
        return node.kind if node is not None else NodeKind.N_NODE

    def user_node_id(self, user):
        """The u-node ID currently holding ``user``."""
        try:
            return self._users[user]
        except KeyError:
            raise UnknownUserError("unknown user %r" % (user,))

    def user_at(self, node_id):
        """The user attached to u-node ``node_id``."""
        node = self.node(node_id)
        if not node.is_u_node:
            raise KeyTreeError("node %d is not a u-node" % node_id)
        return node.user

    def key_of(self, node_id):
        """Current key at ``node_id`` (``None`` in keyless mode)."""
        return self.node(node_id).key

    def key_at(self, node_id):
        """Current key at ``node_id``, or ``None`` where no node is."""
        node = self._nodes.get(node_id)
        return None if node is None else node.key

    def version_of(self, node_id):
        """Current key version at ``node_id``."""
        return self.node(node_id).version

    @property
    def group_key(self):
        """The root key (``None`` in keyless mode or if tree is empty)."""
        root = self._nodes.get(idmath.ROOT_ID)
        return root.key if root is not None else None

    def path_ids(self, user):
        """Node IDs on ``user``'s path, u-node first, root last."""
        return idmath.path_to_root(self.user_node_id(user), self._d)

    def path_keys(self, user):
        """Keys ``user`` holds: individual key up to the group key."""
        return [self.node(node_id).key for node_id in self.path_ids(user)]

    def children_of(self, node_id, present_only=True):
        """Child IDs of ``node_id`` (optionally only present nodes)."""
        child_ids = idmath.children_ids(node_id, self._d)
        if not present_only:
            return child_ids
        return [c for c in child_ids if c in self._nodes]

    # ------------------------------------------------------------------
    # Mutation (used by the marking algorithm and the core API)
    # ------------------------------------------------------------------

    def _next_version(self, node_id):
        version = self._versions.get(node_id, -1) + 1
        self._versions[node_id] = version
        return version

    def _make_key(self, node_id, version):
        if self._factory is None:
            return None
        return self._factory.new_key(node_id, version)

    def create_k_node(self, node_id):
        """Create a k-node with fresh key material at an absent ID."""
        if node_id in self._nodes:
            raise KeyTreeError("node %d already exists" % node_id)
        version = self._next_version(node_id)
        self._nodes[node_id] = TreeNode(
            node_id,
            NodeKind.K_NODE,
            key=self._make_key(node_id, version),
            version=version,
        )
        heapq.heappush(self._knode_heap, -node_id)
        return self._nodes[node_id]

    def create_u_node(self, node_id, user):
        """Attach ``user`` with a fresh individual key at an absent ID."""
        if node_id in self._nodes:
            raise KeyTreeError("node %d already exists" % node_id)
        if user in self._users:
            raise DuplicateUserError("user %r already in group" % (user,))
        version = self._next_version(node_id)
        self._nodes[node_id] = TreeNode(
            node_id,
            NodeKind.U_NODE,
            key=self._make_key(node_id, version),
            user=user,
            version=version,
        )
        self._users[user] = node_id
        return self._nodes[node_id]

    def remove_node(self, node_id):
        """Turn a present node back into an (implicit) n-node."""
        node = self.node(node_id)
        if node.is_u_node:
            del self._users[node.user]
        del self._nodes[node_id]

    def replace_user(self, node_id, new_user):
        """Swap the occupant of a u-node; the individual key is renewed.

        ``new_user`` may equal the current occupant: a member that left
        and re-joined within one rekey interval keeps its slot but gets
        a fresh individual key (its old one must stop working).
        """
        node = self.node(node_id)
        if not node.is_u_node:
            raise KeyTreeError("node %d is not a u-node" % node_id)
        if new_user != node.user and new_user in self._users:
            raise DuplicateUserError("user %r already in group" % (new_user,))
        del self._users[node.user]
        node.user = new_user
        node.version = self._next_version(node_id)
        node.key = self._make_key(node_id, node.version)
        self._users[new_user] = node_id

    def move_u_node(self, old_id, new_id):
        """Relocate a u-node (same user, same key material) to ``new_id``.

        Used when a split pushes a user down to its leftmost descendant:
        the user's individual key is unchanged, only its position (and
        therefore ID) moves — exactly what Theorem 4.2 lets the user
        recompute on its own.
        """
        node = self.node(old_id)
        if not node.is_u_node:
            raise KeyTreeError("node %d is not a u-node" % old_id)
        if new_id in self._nodes:
            raise KeyTreeError("destination node %d already exists" % new_id)
        del self._nodes[old_id]
        moved = TreeNode(
            new_id,
            NodeKind.U_NODE,
            key=node.key,
            user=node.user,
            version=node.version,
        )
        self._nodes[new_id] = moved
        self._users[node.user] = new_id
        return moved

    def convert_u_to_k(self, node_id):
        """Turn a (vacated) u-node position into a fresh k-node."""
        node = self.node(node_id)
        if not node.is_u_node:
            raise KeyTreeError("node %d is not a u-node" % node_id)
        del self._users[node.user]
        del self._nodes[node_id]
        return self.create_k_node(node_id)

    def renew_key(self, node_id):
        """Replace the key material at ``node_id`` (rekeying)."""
        node = self.node(node_id)
        node.version = self._next_version(node_id)
        node.key = self._make_key(node_id, node.version)
        return node.key

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self):
        """Check all structural invariants; raise KeyTreeError on failure."""
        if not self._nodes:
            return
        k_ids = self.k_node_ids()
        u_ids = self.u_node_ids()
        if not u_ids:
            raise KeyTreeError("tree has k-nodes but no users")
        if self.kind_of(idmath.ROOT_ID) is not NodeKind.K_NODE:
            raise KeyTreeError("non-empty tree must have a k-node root")
        if k_ids and k_ids[-1] >= u_ids[0]:
            raise KeyTreeError(
                "Lemma 4.1 violated: max k-node ID %d >= min u-node ID %d"
                % (k_ids[-1], u_ids[0])
            )
        has_present_child = set()
        for node_id in self._nodes:
            if node_id == idmath.ROOT_ID:
                continue
            parent = (node_id - 1) // self._d
            has_present_child.add(parent)
            if self.kind_of(parent) is not NodeKind.K_NODE:
                raise KeyTreeError(
                    "node %d has non-k-node parent %d" % (node_id, parent)
                )
        for k_id in k_ids:
            if k_id not in has_present_child:
                raise KeyTreeError(
                    "k-node %d has no present descendants" % k_id
                )
        for user, node_id in self._users.items():
            node = self._nodes.get(node_id)
            if node is None or not node.is_u_node or node.user != user:
                raise KeyTreeError(
                    "membership index out of sync for user %r" % (user,)
                )
        if len(self._users) != len(u_ids):
            raise KeyTreeError("u-node count does not match user count")

    def __repr__(self):
        return "KeyTree(d=%d, users=%d, k_nodes=%d, height=%d)" % (
            self._d,
            self.n_users,
            len(self.k_node_ids()),
            self.height,
        )
