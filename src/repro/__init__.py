"""repro — Reliable group rekeying: a performance analysis (SIGCOMM 2001).

A from-scratch reproduction of the Yang/Li/Zhang/Lam group-rekeying
system: logical key hierarchies with periodic batch rekeying, a
proactive-FEC multicast rekey transport with adaptive proactivity and a
unicast tail, the packet-level simulation substrate used to evaluate it,
and the analytic performance models.

Quick start::

    from repro import SecureGroup, GroupConfig

    group = SecureGroup(["alice", "bob", "carol", "dave"], GroupConfig())
    group.leave("dave")          # queue a departure
    group.join("erin")           # queue a join
    group.rekey(lossy=True)      # batch-rekey and deliver over the
                                 # simulated lossy multicast network

Sub-packages (importable directly for lower-level use):

========================  ====================================================
``repro.core``            public API: server, member, configuration
``repro.keytree``         d-ary key tree + marking algorithm
``repro.rekey``           ENC/PARITY/USR/NACK formats, UKA, blocks
``repro.fec``             GF(256) Reed-Solomon erasure coder
``repro.crypto``          toy cipher, signatures, cost accounting
``repro.sim``             burst-loss processes and multicast topology
``repro.transport``       the rekey transport protocol + simulators
``repro.analysis``        closed-form performance models
``repro.service``         rekey daemon, delivery backends, ``SecureGroup``
========================  ====================================================
"""

from repro.core import GroupConfig, GroupKeyServer, GroupMember
from repro.errors import ReproError
from repro.service.group import SecureGroup

__version__ = "1.0.0"

__all__ = [
    "GroupConfig",
    "GroupKeyServer",
    "GroupMember",
    "ReproError",
    "SecureGroup",
    "__version__",
]
