"""Key-tree and key-server snapshots: serialise state across restarts.

A key server that crashes mid-deployment must come back with the exact
tree — same structure, same key material, same version counters — or
every user's path keys stop matching.  ``tree_to_dict`` captures all of
that in a JSON-safe dict; ``tree_from_dict`` restores it (optionally
re-attaching a :class:`~repro.crypto.keys.KeyFactory` for *future*
rekeying).

Trees are not the whole restart story, though: the server also carries
the 6-bit rekey-message ID counter, the interval number, and its crypto
seed.  ``save_server``/``load_server`` persist the full
:meth:`~repro.core.server.GroupKeyServer.snapshot` so a restore
continues the message-ID sequence instead of silently resetting it
(members use the ID to detect gaps).

All file writes are **crash-safe**: the snapshot is written to a
temporary file in the same directory, fsynced, atomically
``os.replace``-d into place, and the directory entry is fsynced — so a
crash at any instant leaves either the old snapshot or the new one,
never a torn file or a lost rename.  All of it goes through the
:class:`~repro.chaos.seams.Filesystem` seam, so the chaos layer can
fail any of those steps.

Server snapshots are **integrity-checked** (format v2): the envelope
carries a CRC32 of the canonical server payload, so a bit flipped at
rest — even one that still parses as JSON, e.g. inside hex key
material — is detected at load instead of silently desyncing every
member.  v1 snapshots (no CRC) still load.  ``save_server`` can also
``rotate`` the previous snapshot to ``<path>.prev``, giving recovery a
second generation to fall back to (see ``docs/robustness.md``).

The same canonical payload bytes define the server's **state digest**
(:func:`server_digest`, SHA-256): ``save_server`` returns it, the WAL's
``commit`` record carries it, and every replay of the log checks the
state it rebuilds against it (:func:`repro.service.wal.replay`).  Equal
digests mean byte-identical trees, counters and seeds.

Only durable protocol state is snapshotted; pending join/leave queues
are intentionally excluded (the service layer's write-ahead log —
:mod:`repro.service.wal` — covers those, and a bare server restart
simply re-collects requests).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib

from repro.chaos.seams import REAL_FILESYSTEM
from repro.crypto.keys import SymmetricKey
from repro.errors import KeyTreeError
from repro.keytree.nodes import NodeKind
from repro.keytree.tree import KeyTree
from repro.util import canonical_digest, canonical_json

_FORMAT_VERSION = 1
_SERVER_FORMAT_VERSION = 2
#: server formats load_server accepts (1 = pre-CRC)
_SERVER_READABLE_FORMATS = (1, 2)
#: suffix of the rotated previous snapshot generation
PREVIOUS_SUFFIX = ".prev"


def tree_to_dict(tree):
    """Serialise a :class:`KeyTree` to a JSON-safe dict."""
    nodes = []
    for node_id in tree.node_ids():
        node = tree.node(node_id)
        nodes.append(
            {
                "id": node_id,
                "kind": node.kind.value,
                "user": node.user,
                "version": node.version,
                "key": node.key.material.hex() if node.key else None,
            }
        )
    return {
        "format": _FORMAT_VERSION,
        "degree": tree.degree,
        "nodes": nodes,
        "versions": {str(k): v for k, v in tree._versions.items()},
    }


def tree_from_dict(data, key_factory=None):
    """Rebuild a :class:`KeyTree` from :func:`tree_to_dict` output.

    ``key_factory`` becomes the tree's generator for *future* key
    renewals; existing material is restored verbatim from the snapshot.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise KeyTreeError(
            "unsupported snapshot format %r" % data.get("format")
        )
    records = []
    for record in data["nodes"]:
        key = None
        if record["key"] is not None:
            key = SymmetricKey(
                bytes.fromhex(record["key"]),
                node_id=record["id"],
                version=record["version"],
            )
        records.append(
            {
                "id": record["id"],
                "kind": NodeKind(record["kind"]),
                "user": record["user"],
                "version": record["version"],
                "key": key,
            }
        )
    versions = {int(k): v for k, v in data["versions"].items()}
    return KeyTree.from_records(
        data["degree"], records, versions=versions, key_factory=key_factory
    )


def payload_crc(payload):
    """CRC32 (8 hex chars) of a payload's canonical JSON."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "%08x" % (zlib.crc32(data) & 0xFFFFFFFF)


def _crc_and_digest(payload):
    """:func:`payload_crc` and the SHA-256 of one canonical encoding,
    which is dropped before the snapshot's own encoding is built."""
    data = canonical_json(payload).encode("utf-8")
    crc = "%08x" % (zlib.crc32(data) & 0xFFFFFFFF)
    return crc, hashlib.sha256(data).hexdigest()


def server_digest(server):
    """The state digest of one :class:`GroupKeyServer`: SHA-256 over the
    canonical JSON of its snapshot (pending requests excluded)."""
    return canonical_digest(server.snapshot())


def _atomic_write_json(path, payload, fs=None):
    """Write ``payload`` as JSON to ``path`` without torn intermediates.

    temp file in the target directory → write → fsync → ``os.replace``
    → directory fsync, every step through the :class:`Filesystem` seam,
    so the rename itself is durable, not just the bytes.
    """
    fs = fs or REAL_FILESYSTEM
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    os.close(fd)
    try:
        handle = fs.open(temp_path, "w")
        try:
            fs.write(handle, json.dumps(payload))
            fs.fsync(handle)
        finally:
            handle.close()
        fs.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    fs.fsync_dir(directory)


def save_tree(tree, path, fs=None):
    """Write a snapshot to ``path`` (JSON, atomically replaced)."""
    _atomic_write_json(path, tree_to_dict(tree), fs=fs)


def load_tree(path, key_factory=None):
    """Read a snapshot written by :func:`save_tree`."""
    with open(path) as handle:
        return tree_from_dict(json.load(handle), key_factory=key_factory)


def save_server(server, path, fs=None, rotate=False, epoch=None):
    """Persist full :class:`GroupKeyServer` state to ``path``, atomically.

    Unlike :func:`save_tree` this captures the server-level counters —
    the 6-bit rekey-message ID, ``intervals_processed``, and the crypto
    seed — alongside the tree, so :func:`load_server` resumes the exact
    protocol sequence.  The envelope carries a CRC32 of the payload so
    at-rest damage is detected at load time.

    With ``rotate``, an existing snapshot at ``path`` is first renamed
    to ``path + ".prev"`` — the previous generation the recovery ladder
    falls back to when the current snapshot is damaged.

    Under HA, ``epoch`` stamps the writer's fencing token into the
    envelope (outside the CRC-protected payload, so the payload stays
    bit-identical across failovers); :func:`snapshot_epoch` reads it
    back without a full restore.

    Returns the state digest (:func:`server_digest`), hashed from the
    bytes the CRC already covers.
    """
    fs = fs or REAL_FILESYSTEM
    path = os.fspath(path)
    payload = server.snapshot()
    crc, digest = _crc_and_digest(payload)
    if rotate and fs.exists(path):
        fs.replace(path, path + PREVIOUS_SUFFIX)
        fs.fsync_dir(os.path.dirname(path) or ".")
    envelope = {
        "format": _SERVER_FORMAT_VERSION,
        "kind": "server",
        "crc": crc,
        "server": payload,
    }
    if epoch is not None:
        envelope["epoch"] = int(epoch)
    _atomic_write_json(path, envelope, fs=fs)
    return digest


def snapshot_epoch(path):
    """The ``epoch`` fencing token stamped into a server snapshot.

    Returns 0 for pre-HA snapshots (no ``epoch`` key).  Unreadable or
    non-snapshot files raise :class:`KeyTreeError`, mirroring
    :func:`load_server`.
    """
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        raise KeyTreeError("unreadable server snapshot %s: %s" % (path, exc))
    if not isinstance(data, dict) or data.get("kind") != "server":
        raise KeyTreeError("not a server snapshot: %s" % path)
    return int(data.get("epoch", 0))


def load_server(path, config=None):
    """Restore a :class:`GroupKeyServer` written by :func:`save_server`.

    Raises :class:`KeyTreeError` for a wrong document kind, an unknown
    format, or (v2) a CRC mismatch — the integrity failure the recovery
    ladder treats as "this generation is damaged, try the previous one".
    """
    from repro.core.server import GroupKeyServer

    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        # Unparseable bytes (flipped high bit, torn JSON) are corruption,
        # not a programming error — same KeyTreeError the CRC path uses.
        raise KeyTreeError("unreadable server snapshot %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise KeyTreeError(
            "not a server snapshot (top-level %s)" % type(data).__name__
        )
    if data.get("kind") != "server" or (
        data.get("format") not in _SERVER_READABLE_FORMATS
    ):
        raise KeyTreeError(
            "not a server snapshot (kind=%r, format=%r)"
            % (data.get("kind"), data.get("format"))
        )
    if data.get("format") >= 2:
        stored = data.get("crc")
        actual = payload_crc(data.get("server"))
        if stored != actual:
            raise KeyTreeError(
                "server snapshot integrity check failed "
                "(CRC stored %r, computed %r)" % (stored, actual)
            )
    try:
        return GroupKeyServer.restore(data["server"], config=config)
    except KeyTreeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # v1 snapshots have no CRC, so structural damage can surface
        # here; keep the ladder's contract of one exception type.
        raise KeyTreeError("malformed server snapshot %s: %s" % (path, exc))
