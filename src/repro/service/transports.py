"""Delivery backends: how the daemon moves a rekey message to members.

Interchangeable paths behind one ``deliver()`` interface:

- :class:`DirectDelivery` — idealised loss-free channel (each member
  processes the one ENC packet that covers it); the fast path for
  recovery tests and very long soaks;
- :class:`SessionDelivery` — the paper's transport: a full
  :class:`~repro.transport.session.RekeySession` over the burst-loss
  topology, with the ``AdjustRho`` controller carried *across*
  intervals (the per-interval ρ trajectory the metrics report);
- :class:`~repro.wire.delivery.WireDelivery` — the asyncio UDP wire
  plane on real loopback sockets (built lazily by :func:`make_backend`).

**Graceful degradation.**  Every backend takes a per-interval deadline
in multicast rounds.  When multicast has not finished everyone by the
deadline, the tail is handled per the daemon's policy and the decision
is recorded in the :class:`DeliveryReport`:

- ``unicast`` policy → the transport switches the stragglers to
  unicast USR packets inside the interval (decision
  ``"unicast-cutover"``);
- ``carry`` policy → the stragglers' key updates are *carried over*:
  they stay stale this interval and the daemon serves them by unicast
  from the stored message at the start of the next interval (decision
  ``"carry-over"``); only :class:`SessionDelivery` distinguishes this —
  the direct path never degrades, and the wire plane always cuts over.

One approximation, documented: ``RekeySession`` reports first-round
NACK *counts* but not per-user parity shortfalls, so ``AdjustRho`` is
driven with one-parity requests per NACKing user.  The step direction
(and the convergence target numNACK) is preserved; only the upward step
size is conservative.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.obs.recorder import NULL
from repro.sim.topology import MulticastTopology
from repro.transport.adaptive import ProactivityController
from repro.transport.session import RekeySession, SessionConfig
from repro.util.rng import RandomSource

IN_DEADLINE = "in-deadline"
UNICAST_CUTOVER = "unicast-cutover"
CARRY_OVER = "carry-over"


@dataclass
class DeliveryReport:
    """What one interval's delivery did, for the metrics ledger."""

    mode: str
    decision: str = IN_DEADLINE
    rho: float = 0.0
    multicast_rounds: int = 0
    first_round_nacks: int = 0
    unicast_served: int = 0
    #: per-user multicast recovery round (1-based; 0 = not by multicast);
    #: None for a backend that observes no per-user rounds.
    recovery_rounds: list = None
    #: names whose key updates were deferred to the next interval
    carried: list = field(default_factory=list)
    #: backend-specific extras (packet counts etc.)
    detail: dict = field(default_factory=dict)


def rho_controller(config, rng):
    """The cross-interval ``AdjustRho`` controller a backend carries,
    started from the group's ρ, numNACK and ``rho_max``."""
    return ProactivityController(
        k=config.block_size,
        rho=config.rho,
        num_nack=config.num_nack,
        rng=rng,
        rho_max=config.rho_max,
    )


def step_rho(controller, first_round_requests, obs):
    """One ``AdjustRho`` step on an interval's first-round requests; a
    step that hits ``rho_max`` emits ``rho_clamped``."""
    controller.update(first_round_requests)
    if controller.last_rho_clamped and obs.enabled:
        obs.emit(
            "rho_clamped", rho=controller.rho, rho_max=controller.rho_max
        )


def verdict(carried, unicast_served):
    """The interval's degradation decision: stragglers carried over,
    else cut over to unicast, else everyone served in the deadline."""
    if carried:
        return CARRY_OVER
    if unicast_served:
        return UNICAST_CUTOVER
    return IN_DEADLINE


class DeliveryBackend:
    """Interface: deliver ``message`` to ``fleet``, honouring a deadline."""

    #: observability recorder; the daemon injects its own via
    #: :meth:`set_observer` so deliveries share the interval context
    obs = NULL

    def set_observer(self, obs):
        self.obs = obs
        return self

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        raise NotImplementedError


class DirectDelivery(DeliveryBackend):
    """Loss-free delivery: every member receives the ENC packet that
    covers it.

    UKA gives the distinct ENC packets disjoint ``<frmID, toID>``
    intervals, so each member relocates once at the message's
    ``maxKID`` and finds its packet by bisecting on ``frm_id`` instead
    of being offered every packet in turn.
    """

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        packets = sorted(
            (p for p in message.enc_packets() if not p.is_duplicate),
            key=lambda p: p.frm_id,
        )
        starts = [p.frm_id for p in packets]
        fleet.relocate_all(message.max_kid)
        for member in fleet.members.values():
            index = bisect.bisect_right(starts, member.user_id) - 1
            if index >= 0 and packets[index].covers_user(member.user_id):
                member.absorb_encryptions(packets[index].encryptions)
        n_users = len(message.needs_by_user)
        return DeliveryReport(
            mode="direct",
            rho=0.0,
            multicast_rounds=1,
            recovery_rounds=[1] * n_users,
            detail={"packets_sent": len(packets)},
        )


class SessionDelivery(DeliveryBackend):
    """The simulated lossy transport, with cross-interval ρ adaptation."""

    def __init__(self, config, seed=None, adapt_rho=True, chaos=None):
        """``config`` is the group's :class:`~repro.core.config.GroupConfig`
        (loss topology, ρ/numNACK starting points, pacing).  ``chaos``
        is an optional feedback-fault hook handed to every session (see
        :class:`repro.chaos.faults.FeedbackChaos`)."""
        self.config = config
        self._random_source = RandomSource(
            config.seed if seed is None else seed
        )
        self.adapt_rho = bool(adapt_rho)
        self.chaos = chaos
        #: "python" runs the per-object oracle session and per-member
        #: absorption; otherwise the array plane (repro.fastpath) —
        #: identical output either way, held together by tests/fastpath
        self.engine = config.engine
        self.controller = rho_controller(
            config, self._random_source.generator()
        )

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        topology = MulticastTopology(
            len(message.needs_by_user),
            params=self.config.loss,
            random_source=self._random_source.child(),
        )
        self.controller.k = message.k
        rho = self.controller.rho
        session_class = RekeySession
        if self.engine != "python":
            from repro.fastpath.session import ArrayRekeySession

            session_class = ArrayRekeySession
        session = session_class(
            message,
            topology,
            SessionConfig(
                rho=rho,
                sending_interval_ms=self.config.sending_interval_ms,
                max_multicast_rounds=deadline_rounds,
            ),
            rng=self._random_source.generator(),
            obs=self.obs,
            chaos=self.chaos,
        )
        stats = session.run()
        if self.adapt_rho:
            # Shortfall magnitudes are not surfaced; see module docstring.
            step_rho(self.controller, [1] * stats.first_round_nacks, self.obs)

        absorber = None
        if self.engine != "python":
            from repro.fastpath.absorb import FleetAbsorber

            absorber = FleetAbsorber(self.config.degree)
            absorber.relocate_fleet(fleet, message.max_kid)
        else:
            fleet.relocate_all(message.max_kid)
        by_id = fleet.by_user_id()
        recovery_rounds = stats.user_rounds.tolist()
        user_rounds = dict(zip(session.user_ids, recovery_rounds))
        carried = []
        if policy == "carry":
            carried = sorted(
                by_id[user_id].name
                for user_id, rounds in user_rounds.items()
                if rounds == 0 and user_id in by_id
            )
        carried_set = set(carried)
        if absorber is not None:
            # One pass over the session's arrays; members of one
            # multicast slot share its tuple, which the absorber
            # indexes exactly once.
            recovered = zip(session.user_ids, session.recovered_by_user())
        else:
            recovered = (
                (user_id, transport.recovered_encryptions)
                for user_id, transport in session.users.items()
            )
        for user_id, encryptions in recovered:
            member = by_id.get(user_id)
            if member is None:
                raise ServiceError(
                    "transport served unknown user ID %d" % user_id
                )
            if member.name in carried_set:
                continue
            if absorber is not None:
                absorber.absorb(member, encryptions)
            else:
                member.absorb_encryptions(
                    encryptions, max_kid=message.max_kid
                )

        unicast_served = 0 if carried else stats.unicast.users_served
        return DeliveryReport(
            mode="session",
            decision=verdict(carried, unicast_served),
            rho=rho,
            multicast_rounds=stats.n_multicast_rounds,
            first_round_nacks=stats.first_round_nacks,
            unicast_served=unicast_served,
            recovery_rounds=recovery_rounds,
            carried=carried,
            detail={
                "multicast_packets": stats.total_multicast_packets,
                "bandwidth_overhead": round(stats.bandwidth_overhead, 3),
                "usr_packets": stats.unicast.usr_packets_sent,
            },
        )


def make_backend(kind, config, seed=None, host="127.0.0.1", port=0,
                 workers=0):
    """CLI-facing factory: ``direct`` / ``sim`` / ``wire``."""
    if kind == "direct":
        return DirectDelivery()
    if kind == "sim":
        return SessionDelivery(config, seed=seed)
    if kind == "wire":
        # Imported lazily: the wire plane pulls in asyncio machinery the
        # simulated backends never need.
        from repro.wire.delivery import WireDelivery

        return WireDelivery(
            config, seed=seed, host=host, port=port, workers=workers
        )
    raise ServiceError("unknown transport backend %r" % (kind,))
