"""Key-tree substrate: logical key hierarchy with periodic batch rekeying.

This package implements the paper's key-management component:

- :mod:`repro.keytree.ids` — the integer node-ID strategy over the
  expanded (null-padded) d-ary tree, including the Theorem 4.2 rule that
  lets a user re-derive its own ID after tree restructuring.
- :mod:`repro.keytree.nodes` — node kinds (u-node / k-node / n-node) and
  per-node key state.
- :mod:`repro.keytree.tree` — the :class:`KeyTree` container: structure,
  key material, user membership, path queries.
- :mod:`repro.keytree.marking` — the marking algorithm of Appendix B:
  apply a batch of J joins and L leaves, update the tree, and produce the
  rekey subtree (the set of changed keys and the encryption edges of one
  rekey message).  :class:`MarkingAlgorithm` is the from-scratch oracle;
  the marker a key server runs is its path-local subclass in
  :mod:`repro.fastpath.marking` (``make_marking`` picks by engine).
"""

from repro.keytree.ids import (
    children_ids,
    derive_new_user_id,
    leftmost_descendant,
    level_of,
    parent_id,
    path_to_root,
    subtree_capacity,
)
from repro.keytree.nodes import NodeKind, NodeLabel, TreeNode
from repro.keytree.tree import KeyTree
from repro.keytree.marking import (
    BatchResult,
    EncryptionEdge,
    MarkingAlgorithm,
    RekeySubtree,
    make_marking,
)
from repro.keytree.persistence import (
    load_server,
    load_tree,
    save_server,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from repro.keytree.visualize import render_rekey, render_tree
from repro.keytree.strategies import (
    StrategyCost,
    compare_strategies,
    group_oriented_cost,
    key_oriented_cost,
    user_oriented_cost,
)

__all__ = [
    "BatchResult",
    "EncryptionEdge",
    "KeyTree",
    "MarkingAlgorithm",
    "NodeKind",
    "NodeLabel",
    "RekeySubtree",
    "StrategyCost",
    "TreeNode",
    "children_ids",
    "compare_strategies",
    "derive_new_user_id",
    "group_oriented_cost",
    "key_oriented_cost",
    "leftmost_descendant",
    "level_of",
    "load_server",
    "load_tree",
    "make_marking",
    "parent_id",
    "path_to_root",
    "render_rekey",
    "render_tree",
    "save_server",
    "save_tree",
    "subtree_capacity",
    "tree_from_dict",
    "tree_to_dict",
    "user_oriented_cost",
]
