"""The asyncio UDP wire plane: real sockets, deterministic runs.

The one real-socket path: this package runs the rekey protocol for a
thousand-client fleet on one asyncio event loop (or sharded over worker
processes) and keeps every run a pure function of its seed:

- :mod:`repro.wire.codec` — datagram framing around the protocol's own
  packet bytes (:mod:`repro.rekey.packets`);
- :mod:`repro.wire.loss` — receiver-side Gilbert loss sampled at the
  frame's *slot* (virtual time), so injected loss ignores scheduling;
- :mod:`repro.wire.client` / :mod:`repro.wire.server` — the asyncio
  endpoints running the transport state machines, and the receiver
  shard that speaks for its client process both ways: each multicast
  frame in once, one FEEDBACK table per round out;
- :mod:`repro.wire.delivery` — the daemon's ``wire`` delivery backend;
- :mod:`repro.wire.worker` — worker processes hosting clients, one
  receiver shard each;
- :mod:`repro.wire.chaos` — the survivability soak family behind
  ``python -m repro wire-chaos-soak`` (datagram faults, client
  crashes, live-fleet leader failover);
- :mod:`repro.wire.fleet` — the fault-free fleet soak family behind
  ``python -m repro fleet``, digested by its per-interval records.

Both families run through the one soak harness in
:mod:`repro.chaos.soak`.
"""

from repro.wire.client import ReceiverShard, WireClient
from repro.wire.codec import (
    WIRE_HEADER_SIZE,
    FrameKind,
    decode_frame,
    encode_frame,
    max_datagram_size,
    recv_buffer_size,
)
from repro.wire.delivery import WireDelivery, WireFleet
from repro.wire.loss import MemberLoss, cohort_of
from repro.wire.server import (
    AggregationWindow,
    Participant,
    WireOutcome,
    WireServer,
)

__all__ = [
    "AggregationWindow",
    "FrameKind",
    "MemberLoss",
    "Participant",
    "ReceiverShard",
    "WIRE_HEADER_SIZE",
    "WireClient",
    "WireDelivery",
    "WireFleet",
    "WireOutcome",
    "WireServer",
    "cohort_of",
    "decode_frame",
    "encode_frame",
    "max_datagram_size",
    "recv_buffer_size",
]
