"""Marker mutants that break secrecy while every member still agrees.

Each swaps a server's marker for a subclass of the same engine that
leaves one k-node's key in place.  Current members keep agreeing (they
already hold that key), so only a secrecy check can catch it:

- ``"skip"``: the node is neither renewed nor listed as updated;
- ``"unrenewed"``: the node is listed as updated, and its edges are
  sent, but ``renew_key`` is never called on it.

The node is the first leaver's parent (``target="leaver"``, read before
the tree update) or the first joiner's parent (``target="joiner"``,
read after it).
"""

from repro.keytree.nodes import NodeLabel

MODES = ("skip", "unrenewed")


def mutate(server, mode, target="leaver"):
    """Install the mutant on ``server``; returns it (``.node`` is the
    k-node whose key it left in place, after the next rekey)."""
    if mode not in MODES:
        raise ValueError("unknown mutant mode %r" % (mode,))
    base = type(server._marking)

    class Mutant(base):
        node = None

        def apply(self, tree, joins=(), leaves=()):
            self._joins = list(joins)
            if target == "leaver":
                leaver = tree.user_node_id(list(leaves)[0])
                self.node = (leaver - 1) // tree.degree
            return super().apply(tree, joins, leaves)

        def _build_subtree(self, tree, labels):
            if target == "joiner":
                joiner = tree.user_node_id(self._joins[0])
                self.node = (joiner - 1) // tree.degree
            if mode == "skip":
                labels = dict(labels)
                labels[self.node] = NodeLabel.UNCHANGED
                return super()._build_subtree(tree, labels)
            renew = tree.renew_key

            def renew_all_but_one(node_id):
                if node_id == self.node:
                    return tree.key_of(node_id)
                return renew(node_id)

            tree.renew_key = renew_all_but_one
            try:
                return super()._build_subtree(tree, labels)
            finally:
                del tree.renew_key

    mutant = Mutant()
    mutant.obs = server._marking.obs
    server._marking = mutant
    return mutant
