"""Deterministic receiver-side loss for the wire plane.

Real sockets deliver datagrams at real times, which would make a Gilbert
chain sampled at arrival time depend on scheduler jitter.  The wire
plane instead samples loss at *virtual* time: every ``DATA`` frame
carries its send ``slot`` (the datagram's index within the interval's
multicast phase), and a member's chain is queried at
``slot * sending_interval`` — the spacing the paper's model assumes.
Loss is then a pure function of ``(seed, interval, member_index, slot)``
and a fleet run digests identically however the event loop schedules it.

Per the paper's topology (§8), a member's effective loss is its receiver
link *or* the shared source link dropping the packet.  The source chain
is seeded per ``(seed, interval)`` only, so it is one history for the
whole fleet, exactly like a shared uplink: a :class:`SharedUplink`
holds it, and a receiver shard builds one per interval that every
hosted member's :class:`MemberLoss` reads.  A client without a shard
builds its own from the same class, with the same result.

Cohorts: a fraction ``alpha`` of member indices is high-loss
(``p_high``), the rest low-loss (``p_low``).  Membership is by
deterministic index striping — stable under churn, exact in proportion —
rather than position in a sorted roster (which would flip members
between cohorts as neighbours join and leave).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WireError

_SOURCE_STREAM = 0
_RECEIVER_STREAM = 1

#: seeds are folded into SeedSequence entropy, which wants non-negative
_SEED_SPAN = 2**63


def cohort_of(member_index, alpha):
    """``"high"`` for a deterministic fraction ``alpha`` of indices.

    Uses exact integer striping at 1/1000 resolution: of every 1000
    consecutive indices, ``round(alpha * 1000)`` are high-loss, spread
    evenly rather than clumped.
    """
    per_mille = int(round(float(alpha) * 1000))
    if per_mille <= 0:
        return "low"
    if per_mille >= 1000:
        return "high"
    return (
        "high"
        if (int(member_index) * per_mille) % 1000 < per_mille
        else "low"
    )


class SlotLossSequence:
    """Loss indicators of one chain, indexed by slot.

    The underlying stepper only walks forward; datagrams may arrive (or
    be asked about) out of order, so indicators are cached and the chain
    extended lazily to the highest slot queried.
    """

    def __init__(self, process, rng, spacing_seconds):
        self._stepper = process.stepper(rng)
        self._spacing = float(spacing_seconds)
        self._lost = []

    def lost(self, slot):
        while len(self._lost) <= slot:
            time = len(self._lost) * self._spacing
            self._lost.append(bool(self._stepper.is_lost(time)))
        return self._lost[slot]


def _chain_rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class SharedUplink:
    """What every member's loss shares in one interval.

    One loss model per rate (so a model's cached transition
    probabilities serve every chain at that rate) and the source chain,
    seeded by ``(seed, interval)`` alone.  :attr:`key` names exactly the
    arguments it was built from; a :class:`MemberLoss` refuses an uplink
    built from any other.
    """

    def __init__(self, params, interval, seed, spacing_seconds):
        self.key = self.key_for(params, interval, seed, spacing_seconds)
        self.params = params
        self.spacing = float(spacing_seconds)
        self.base = int(seed) % _SEED_SPAN
        self._models = {}
        self.source = SlotLossSequence(
            self.model(params.p_source),
            _chain_rng(self.base, int(interval), _SOURCE_STREAM),
            self.spacing,
        )

    @staticmethod
    def key_for(params, interval, seed, spacing_seconds):
        """The :attr:`key` of an uplink built from these arguments."""
        return (params, int(interval), int(seed), float(spacing_seconds))

    def model(self, p):
        """The loss process at rate ``p``, built once per uplink."""
        model = self._models.get(p)
        if model is None:
            model = self._models[p] = self.params.make_process(p)
        return model


class MemberLoss:
    """One member's injected loss for one interval: receiver + source.

    ``uplink`` is the interval's :class:`SharedUplink` when a receiver
    shard shares one among its members; ``None`` builds a private one.
    Either way the member keeps its own receiver chain and
    :attr:`dropped` count.
    """

    def __init__(
        self,
        params,
        member_index,
        interval,
        seed,
        spacing_seconds,
        uplink=None,
    ):
        if uplink is None:
            uplink = SharedUplink(params, interval, seed, spacing_seconds)
        elif uplink.key != SharedUplink.key_for(
            params, interval, seed, spacing_seconds
        ):
            raise WireError("shared uplink built for another interval")
        self.cohort = cohort_of(member_index, params.alpha)
        p_receiver = (
            params.p_high if self.cohort == "high" else params.p_low
        )
        self._receiver = SlotLossSequence(
            uplink.model(p_receiver),
            _chain_rng(
                uplink.base, int(interval), int(member_index), _RECEIVER_STREAM
            ),
            uplink.spacing,
        )
        self._source = uplink.source
        self.dropped = 0

    def lost(self, slot):
        """Loss indicator for the DATA frame sent in ``slot``."""
        if self._source.lost(slot) or self._receiver.lost(slot):
            self.dropped += 1
            return True
        return False
