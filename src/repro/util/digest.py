"""Canonical JSON and the SHA-256 digest over it.

Every determinism pin in the repo (soak timelines, fleet interval
records, trace assemblies, key-server state) hashes the same encoding:
``json.dumps`` with sorted keys, so dict ordering can never leak in.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(payload):
    """The canonical JSON text of ``payload`` (sorted keys)."""
    return json.dumps(payload, sort_keys=True)


def canonical_digest(payload):
    """SHA-256 hex over the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
