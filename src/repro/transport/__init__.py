"""Rekey transport: proactive-FEC multicast with a unicast tail.

The server protocol for one rekey message (Fig. 2 of the companion
text):

1. pack encryptions into ENC packets (UKA), partition into blocks;
2. multicast ``k`` ENC + ``ceil((rho - 1) * k)`` proactive PARITY
   packets per block, block-interleaved;
3. collect NACKs for a round; adjust the proactivity factor ``rho``
   (for the *next* message) from the first round's NACKs; multicast
   ``amax[i]`` new PARITY packets per block each further round;
4. switch to unicast of per-user USR packets (with escalating
   duplication) after at most two multicast rounds.

Two implementations share the same protocol logic:

- the **object-level session** (:mod:`repro.transport.session`) moves
  real byte packets through the loss topology — used by tests, examples
  and small-N validation;
- the **fleet simulator** (:mod:`repro.transport.fleet`) is a
  numpy-vectorised equivalent for N = 4096-scale parameter sweeps — the
  engine behind the figure benchmarks.  Equivalence is asserted in
  ``tests/transport/test_fleet_equivalence.py``.
"""

from repro.transport.adaptive import (
    NumNackController,
    ProactivityController,
    proactive_parity_count,
)
from repro.transport.metrics import (
    MessageStats,
    RoundStats,
    SequenceStats,
    UnicastStats,
)
from repro.transport.user import UserTransport
from repro.transport.server import ServerTransport, UnicastPolicy
from repro.transport.session import RekeySession, SessionConfig
from repro.transport.fleet import FleetConfig, FleetSimulator, FleetWorkload
from repro.transport.immediate import (
    ImmediateConfig,
    ImmediateFeedbackSession,
    ImmediateStats,
)

__all__ = [
    "FleetConfig",
    "FleetSimulator",
    "FleetWorkload",
    "ImmediateConfig",
    "ImmediateFeedbackSession",
    "ImmediateStats",
    "MessageStats",
    "NumNackController",
    "ProactivityController",
    "RekeySession",
    "RoundStats",
    "SequenceStats",
    "ServerTransport",
    "SessionConfig",
    "UnicastPolicy",
    "UnicastStats",
    "UserTransport",
    "proactive_parity_count",
]
