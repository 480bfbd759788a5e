"""`SecureGroup`: the whole system, wired together.

A thin facade over the service layer: a
:class:`~repro.core.server.GroupKeyServer`, the
:class:`~repro.service.members.MemberFleet` that holds every member's
key state, and the daemon's own delivery backends —
:class:`~repro.service.transports.DirectDelivery` (loss-free, for
functional use) or :class:`~repro.service.transports.SessionDelivery`
(the simulated lossy transport: FEC, NACKs, the unicast tail, and ρ
adapted across intervals).

Invariant after every delivered rekey, checked by
:meth:`MemberFleet.check_agreement`: every current member holds the
server's group key, and the fleet's secrecy ledger finds no key the
departed coalition can still reach and no joiner key older than its
join.
"""

from __future__ import annotations

from repro.core.server import GroupKeyServer
from repro.service.members import MemberFleet
from repro.service.transports import DirectDelivery, SessionDelivery
from repro.util.rng import RandomSource


class SecureGroup:
    """A key server, its members, and a delivery path."""

    def __init__(self, initial_users, config=None):
        self.server = GroupKeyServer(initial_users, config=config)
        self.config = self.server.config
        self.fleet = MemberFleet.register_all(self.server)
        self._direct = DirectDelivery()
        self._session = SessionDelivery(self.config)
        # A child source: the session backend draws from config.seed's
        # root stream, and churn must not replay it.
        self._churn_source = RandomSource(self.config.seed).child()
        #: the last interval's DeliveryReport (None after an empty one)
        self.last_delivery = None

    # -- membership -----------------------------------------------------

    @property
    def members(self):
        return self.fleet.members

    @property
    def n_members(self):
        return self.fleet.n_members

    def join(self, name):
        """Queue a join; the member object appears after the next rekey."""
        self.server.request_join(name)

    def leave(self, name):
        """Queue a leave."""
        self.server.request_leave(name)

    # -- rekeying ----------------------------------------------------------

    def rekey(self, lossy=False):
        """Process the interval and deliver the rekey message.

        With ``lossy=False`` every member absorbs the ENC packet that
        covers it (an idealised reliable channel).  With ``lossy=True``
        the message rides the simulated burst-loss transport and members
        absorb whatever it recovered (reliability guarantees it is
        everything).

        Returns the rekey message (possibly empty).
        """
        message = self.fleet.rekey(self.server)[3]
        if message.is_empty:
            self.last_delivery = None
            return message
        backend = self._session if lossy else self._direct
        self.last_delivery = backend.deliver(
            message,
            self.fleet,
            deadline_rounds=self.config.max_multicast_rounds,
        )
        self.fleet.check_agreement(self.server)
        return message

    # -- churn convenience ----------------------------------------------

    def churn(self, n_joins, n_leaves, rng=None, lossy=False):
        """One interval of random churn: helper for examples/benches."""
        if rng is None:
            rng = self._churn_source.generator()
        members = sorted(self.members)
        n_leaves = min(n_leaves, len(members))
        for name in rng.choice(members, size=n_leaves, replace=False):
            self.leave(str(name))
        stamp = self.server.intervals_processed
        for index in range(n_joins):
            self.join("member-%d-%d" % (stamp, index))
        return self.rekey(lossy=lossy)

    def __repr__(self):
        return "SecureGroup(members=%d, intervals=%d)" % (
            self.n_members,
            self.server.intervals_processed,
        )
