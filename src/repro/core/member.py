"""A group member's key state and rekey-message processing.

A member holds the keys on its leaf-to-root path.  On receiving a rekey
message it:

1. re-derives its own u-node ID from the packet's ``maxKID`` field
   (Theorem 4.2 — no per-user notification exists);
2. checks whether the ENC packet's ``<frmID, toID>`` interval covers it;
3. extracts the encryptions whose IDs lie on its (new) path and decrypts
   them bottom-up: each encryption ``{new parent key}_child`` opens with
   the member's individual key or with a key recovered just before.

Decryption uses the real toy cipher, so a wrong or stale key *fails*
(checksum mismatch) rather than silently corrupting state.
"""

from __future__ import annotations

from repro.crypto.cipher import XorStreamCipher
from repro.errors import CryptoError, TransportError
from repro.keytree import ids as idmath
from repro.util.validation import check_non_negative


class GroupMember:
    """Client-side key state for one user."""

    def __init__(self, name, user_id, path_keys, degree, signer=None):
        check_non_negative("user_id", user_id, integral=True)
        self.name = name
        self.user_id = int(user_id)
        self.degree = int(degree)
        #: node_id -> SymmetricKey for every node on the member's path
        self.path_keys = dict(path_keys)
        if self.user_id not in self.path_keys:
            raise TransportError(
                "registration state lacks the individual key"
            )
        self._cipher = XorStreamCipher()
        self._signer = signer

    @classmethod
    def register(cls, server, name):
        """Obtain registration state from a server (SSL channel stand-in)."""
        user_id, path_keys = server.registration_state(name)
        return cls(
            name,
            user_id,
            path_keys,
            server.config.degree,
            signer=server.signer,
        )

    # -- key state ----------------------------------------------------------

    @property
    def individual_key(self):
        return self.path_keys[self.user_id]

    @property
    def group_key(self):
        """The member's view of the group key (path root), if held."""
        return self.path_keys.get(idmath.ROOT_ID)

    @property
    def path_ids(self):
        return idmath.path_to_root(self.user_id, self.degree)

    def _relocate(self, max_kid):
        """Theorem 4.2: update ``user_id`` after tree restructuring."""
        new_id = idmath.derive_new_user_id(self.user_id, max_kid, self.degree)
        if new_id != self.user_id:
            individual = self.path_keys[self.user_id]
            self.path_keys.pop(self.user_id, None)
            self.user_id = new_id
            self.path_keys[new_id] = individual
        # Drop keys that fell off the (possibly longer) path; stale path
        # keys for still-valid ancestors are kept (they may not have
        # been rekeyed this interval).
        valid = set(self.path_ids)
        self.path_keys = {
            node_id: key
            for node_id, key in self.path_keys.items()
            if node_id in valid
        }

    # -- message processing -----------------------------------------------

    def process_enc_packet(self, packet):
        """Handle one ENC packet; returns True if it was ours."""
        self._relocate(packet.max_kid)
        if not packet.covers_user(self.user_id):
            return False
        self._absorb(packet.encryptions)
        return True

    def process_usr_packet(self, packet):
        """Handle a unicast USR packet addressed to this member."""
        if packet.user_id != self.user_id:
            # The server addresses USR packets by *new* ID; if we have
            # not yet relocated, the mismatch is fatal by design.
            raise TransportError(
                "USR packet for ID %d but member is %d"
                % (packet.user_id, self.user_id)
            )
        self._absorb(packet.encryptions)

    def absorb_encryptions(self, encryptions, max_kid=None):
        """Feed recovered encryptions directly (e.g. from a transport
        session's FEC-decoded output)."""
        if max_kid is not None:
            self._relocate(max_kid)
        if encryptions:
            self._absorb(encryptions)

    def _absorb(self, encryptions):
        on_path = set(self.path_ids)
        mine = [e for e in encryptions if e.encryption_id in on_path]
        # Deepest first: larger node ID = deeper in the tree, and each
        # decryption may unlock the next one up.
        mine.sort(key=lambda e: e.encryption_id, reverse=True)
        for encrypted in mine:
            child_id = encrypted.encryption_id
            child_key = self.path_keys.get(child_id)
            if child_key is None:
                raise TransportError(
                    "missing key for node %d; encryptions out of order"
                    % child_id
                )
            parent_id = (child_id - 1) // self.degree
            try:
                new_key = self._cipher.decrypt_key(
                    encrypted, child_key, node_id=parent_id
                )
            except CryptoError:
                # Not actually decryptable with our (possibly stale)
                # child key: e.g. a Replace-labelled sibling's slot.
                continue
            self.path_keys[parent_id] = new_key

    def verify_signature(self, payload, signature):
        """Verify the server's signature over a rekey message."""
        if self._signer is None:
            raise TransportError("member has no verification key")
        return self._signer.verify(payload, signature)

    def __repr__(self):
        return "GroupMember(%r, id=%d)" % (self.name, self.user_id)
