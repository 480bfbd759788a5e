"""Object-level simulation of one rekey message's delivery.

:class:`RekeySession` moves real byte packets from a
:class:`~repro.transport.server.ServerTransport` through a
:class:`~repro.sim.topology.MulticastTopology` into
:class:`~repro.transport.user.UserTransport` state machines, round by
round, then runs the unicast mop-up.  Whether another round follows or
the stragglers switch to unicast is
:meth:`~repro.transport.server.ServerTransport.end_round`'s decision,
the same rule the wire plane follows.  It is the reference
implementation: exact wire formats, real FEC decoding, real block-ID
estimation.  (For 4096-user parameter sweeps use the vectorised
:mod:`~repro.transport.fleet` — equivalence is tested.)

Loss chains are independent per round; rounds are separated by
``round_gap_ms`` (≥ several burst times), so this matches the bursty
model's behaviour at round boundaries while keeping the within-round
burst correlation that block interleaving is designed to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError
from repro.fec.rse import RSECoder
from repro.obs.recorder import NULL
from repro.rekey.packets import PacketType
from repro.transport.metrics import MessageStats, RoundStats, UnicastStats
from repro.transport.server import (
    NEXT_ROUND,
    UNICAST,
    ServerTransport,
    UnicastPolicy,
)
from repro.transport.user import UserTransport
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive


@dataclass
class SessionConfig:
    """Parameters of one delivery session (paper defaults)."""

    rho: float = 1.0
    sending_interval_ms: float = 100.0
    round_gap_ms: float = 500.0
    multicast_only: bool = False
    max_multicast_rounds: int = 2
    compare_usr_bytes: bool = False
    unicast_duplicate_interval_ms: float = 50.0
    max_unicast_attempts: int = 30


class RekeySession:
    """Delivers one (wire-mode) rekey message to all users who need it.

    ``coder`` optionally overrides the RSE decoder shared by every
    user-side state machine (decoding is stateless, so one instance is
    safe to share); tests use it to run the same session under the
    matrix and reference coders.  By default users decode with the
    message's own coder kind.
    """

    def __init__(
        self, message, topology, config=None, rng=None, trace=None,
        coder=None, obs=None, chaos=None,
    ):
        if not message.materialized:
            raise TransportError(
                "RekeySession needs a wire-mode message (keyed tree)"
            )
        if message.is_empty:
            raise TransportError("nothing to deliver: empty rekey message")
        self.message = message
        self.topology = topology
        self.config = config or SessionConfig()
        #: optional repro.transport.trace.SessionTrace event sink
        self.trace = trace
        #: observability recorder: spans per round/unicast phase, plus
        #: the protocol events (mirroring the trace) onto the event bus
        self.obs = obs if obs is not None else NULL
        #: optional feedback-fault hook (``mangle_nacks(session, round,
        #: nacks)``): what it returns is what the server transport sees
        #: — the chaos layer's seam for duplicated, reordered, or
        #: fabricated first-round feedback
        self.chaos = chaos
        self._rng = rng if rng is not None else spawn_rng()
        self.user_ids = sorted(message.needs_by_user)
        if topology.n_users != len(self.user_ids):
            raise TransportError(
                "topology has %d users but the message serves %d"
                % (topology.n_users, len(self.user_ids))
            )
        # Random user -> receiver-link assignment, so loss class is not
        # correlated with packet/block position (users with nearby IDs
        # share ENC packets).
        self._rows = self._rng.permutation(len(self.user_ids))
        self.server = ServerTransport(
            message,
            rho=self.config.rho,
            sending_interval_ms=self.config.sending_interval_ms,
            unicast_policy=UnicastPolicy(
                max_multicast_rounds=self.config.max_multicast_rounds,
                compare_usr_bytes=self.config.compare_usr_bytes,
            ),
        )
        if coder is None:
            coder = RSECoder(message.k)
        if self.obs.enabled:
            coder.obs = self.obs
        self.coder = coder
        self.users = self._make_users()

    def _make_users(self):
        """Per-user receiver state; the array engine overrides this."""
        return {
            user_id: UserTransport(
                user_id,
                k=self.message.k,
                degree=self._degree_hint(),
                n_blocks=self.message.n_blocks,
                message_id=self.message.message_id,
                coder=self.coder,
            )
            for user_id in self.user_ids
        }

    def _degree_hint(self):
        # The estimator only needs d for the maxKID bound; sessions are
        # built from trees of degree >= 2, carried via needs structure.
        return getattr(self.message, "degree", 4)

    # -- main entry --------------------------------------------------------

    def run(self):
        """Run to completion; returns :class:`MessageStats`."""
        stats = MessageStats(
            message_index=self.message.message_id,
            n_enc_packets=self.message.n_enc_packets,
            n_blocks=self.message.n_blocks,
            k=self.message.k,
            rho=self.config.rho,
            n_users=len(self.user_ids),
        )
        clock = 0.0
        self._emit(
            "session_start",
            clock,
            users=len(self.user_ids),
            enc_packets=self.message.n_enc_packets,
            blocks=self.message.n_blocks,
            rho=self.config.rho,
        )
        verdict = NEXT_ROUND
        while verdict == NEXT_ROUND:
            with self.obs.span("session.round") as round_span:
                planned = self.server.plan_round()
                round_index = self.server.rounds_completed
                round_span.note(round=round_index, packets=len(planned))
                self._emit(
                    "round_planned",
                    clock,
                    round=round_index,
                    packets=len(planned),
                )
                clock = self._deliver_round(planned, clock)
                nacks = self._collect_nacks()
                if self.chaos is not None:
                    mangled = self.chaos.mangle_nacks(
                        self, round_index, nacks
                    )
                    if mangled is not None and mangled is not nacks:
                        if self.obs.enabled:
                            self.obs.emit(
                                "feedback_chaos",
                                round=round_index,
                                before=len(nacks),
                                after=len(mangled),
                            )
                        nacks = mangled
                # A round carries ENC and PARITY packets only.
                n_enc = sum(
                    1
                    for p in planned
                    if p.packet.packet_type is PacketType.ENC
                )
                stats.rounds.append(
                    RoundStats(
                        round_index=round_index,
                        enc_packets_sent=n_enc,
                        parity_packets_sent=len(planned) - n_enc,
                        nacks_received=len(nacks),
                        users_recovered_total=self._n_done(),
                    )
                )
                self._emit(
                    "round_complete",
                    clock,
                    round=round_index,
                    nacks=len(nacks),
                    recovered=self._n_done(),
                )
            pending = self._pending_users()
            verdict = self.server.end_round(
                nacks, pending, multicast_only=self.config.multicast_only
            )
            if verdict == NEXT_ROUND:
                clock += self.config.round_gap_ms * 1e-3
        if verdict == UNICAST:
            self._emit("unicast_start", clock, pending=len(pending))
            with self.obs.span("session.unicast", pending=len(pending)):
                self._run_unicast(pending, clock, stats.unicast)
        stats.user_rounds = self._user_rounds()
        self._emit(
            "session_complete",
            clock,
            multicast_rounds=stats.n_multicast_rounds,
            unicast_served=stats.unicast.users_served,
        )
        return stats

    def _emit(self, kind, time, **detail):
        if self.trace is not None:
            self.trace.emit(kind, time, **detail)
        if self.obs.enabled:
            # Mirror the protocol event onto the structured bus (unless
            # the trace already forwards there — avoid double emission).
            if self.trace is None or self.trace.bus is None:
                self.obs.emit(kind, sim_time=float(time), **detail)

    # -- internals -------------------------------------------------------------

    def _collect_nacks(self):
        """Run every user's round timeout; return their NACKs in ID order."""
        nacks = []
        for user_id in self.user_ids:
            nack = self.users[user_id].end_of_round()
            if nack is not None:
                nacks.append(nack)
        return nacks

    def _user_rounds(self):
        """Per-user multicast recovery round (0 = unicast), in ID order."""
        return np.array(
            [
                self.users[user_id].recovery_round or 0
                for user_id in self.user_ids
            ],
            dtype=int,
        )

    def _n_done(self):
        return sum(1 for u in self.users.values() if u.done)

    def _pending_users(self):
        return [u for u in self.user_ids if not self.users[u].done]

    def _deliver_round(self, planned, clock):
        if not planned:
            return clock
        times = clock + np.array([p.offset for p in planned])
        received = self.topology.multicast_reception(
            times, rng=self._rng
        )
        # Classify each scheduled packet once per round, not once per
        # (user, packet) pair — with thousands of users this loop is the
        # session's hot path, so per-user work must touch only the
        # packets that user actually received.
        items = [
            (p.packet, p.payload, p.packet.packet_type is PacketType.ENC)
            for p in planned
        ]
        for position, user_id in enumerate(self.user_ids):
            user = self.users[user_id]
            if user.done:
                continue
            row = received[self._rows[position]]
            on_enc = user.on_enc
            on_parity = user.on_parity
            for index in np.flatnonzero(row).tolist():
                packet, payload, is_enc = items[index]
                if is_enc:
                    on_enc(packet, payload)
                    if user.done:
                        break
                else:
                    on_parity(packet)
        return float(times[-1]) if len(times) else clock

    def _run_unicast(self, pending, clock, unicast_stats):
        """§7.2: escalating duplicated USR packets until everyone is done."""
        interval = self.config.unicast_duplicate_interval_ms * 1e-3
        duplicates = 2
        remaining = list(pending)
        attempts = 0
        while remaining:
            attempts += 1
            if attempts > self.config.max_unicast_attempts:
                raise TransportError(
                    "unicast did not converge within attempt budget"
                )
            still = []
            for position, user_id in enumerate(self.user_ids):
                if user_id not in remaining:
                    continue
                usr = self.server.usr_packet_for(user_id)
                times = clock + np.arange(duplicates) * interval
                got = self.topology.unicast_reception(
                    int(self._rows[position]), times, rng=self._rng
                )
                unicast_stats.usr_packets_sent += duplicates
                unicast_stats.usr_bytes_sent += duplicates * len(usr.encode())
                if got.any():
                    self.users[user_id].on_usr(usr)
                    unicast_stats.users_served += 1
                else:
                    still.append(user_id)
            self._emit(
                "unicast_attempt",
                clock,
                attempt=attempts,
                duplicates=duplicates,
                remaining=len(still),
            )
            remaining = still
            clock += duplicates * interval + 0.2  # wait one unicast RTT
            duplicates += 1
        unicast_stats.attempts = attempts
