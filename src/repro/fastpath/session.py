"""Array-plane delivery: the per-user transport loops as reductions.

:class:`ArrayRekeySession` is a :class:`~repro.transport.session.RekeySession`
whose receiver side keeps no per-user state machines.  Reception,
coverage detection, block-ID estimation, FEC-recovery bookkeeping and
NACK synthesis run as masked array operations over the whole user
population at once; only the NACK packets themselves (small, post-loss)
and the unicast mop-up (inherited unchanged) stay object-level.

**Equivalence contract** (enforced by ``tests/fastpath``): identical RNG
draw sequence (one multicast draw per round, the same per-user unicast
draws), identical NACK packets in the same order, identical round/
unicast statistics, identical per-user recovery rounds and recovered
encryptions, identical protocol *events* on the obs bus.  The facts that
make the vectorization exact:

- a done user ignores every further packet, so its internal state is
  unobservable — over-ingesting counts for done users changes nothing;
- every codeword ``(block, seq)`` is multicast at most once per session
  (ENC only in round 1, parity rows always fresh), so per-block payload
  counts are plain cumulative sums, no dedup;
- for a user that is *not* done, the estimator's ``exact`` flag is never
  set (a covering packet implies done), and its low/high updates are
  order-independent max/min accumulations;
- a pending user's own block always lies inside its ``[low, high]``
  range, so recovery-by-decode is exactly "own block has ≥ k codewords
  within the pre-tightening range";
- every non-duplicate slot of a decoded block ``b ≠ own_block`` sits on
  the same side of the user's ID, so each block's estimator contribution
  collapses to three static per-block aggregates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransportError
from repro.rekey.packets import NackPacket, NackRequest, PacketType
from repro.transport.session import RekeySession

#: Sentinel for an unbounded estimator upper bound (``math.inf`` in the
#: object-level estimator); large enough that min() against any real
#: block bound always prefers the bound.
_INF = np.int64(1) << 60


def _ceil_div(numerator, denominator):
    """Element-wise ``ceil(numerator / denominator)`` for ints (any sign)."""
    return -((-numerator) // denominator)


class _UserView:
    """Per-user facade over the session's arrays.

    Presents the slice of :class:`~repro.transport.user.UserTransport`
    the rest of the system touches after the multicast loop: ``done``,
    ``recovery_round``, ``recovered_encryptions`` and ``on_usr`` (the
    unicast mop-up's entry point).  The delivery layer's absorb input
    comes from :meth:`ArrayRekeySession.recovered_by_user` instead, in
    one pass over the arrays.
    """

    __slots__ = ("_session", "_position", "user_id")

    def __init__(self, session, position, user_id):
        self._session = session
        self._position = position
        self.user_id = user_id

    @property
    def done(self):
        return bool(self._session._done[self._position])

    @property
    def recovery_round(self):
        if not self._session._done[self._position]:
            return None
        return int(self._session._recovery_round[self._position])

    @property
    def recovered_encryptions(self):
        session = self._session
        if not session._done[self._position]:
            return None
        usr = session._usr_encryptions.get(self._position)
        if usr is not None:
            return list(usr)
        # Recovered by multicast: whichever packet delivered the user
        # (original, duplicate, or FEC-decoded), its encryptions equal
        # the covering plan slot's.
        slot = int(session._own_slot[self._position])
        return list(session.message.enc_packets()[slot].encryptions)

    def on_usr(self, packet):
        session = self._session
        if packet.rekey_message_id != session.message.message_id:
            raise TransportError(
                "packet for message %d delivered to session %d"
                % (packet.rekey_message_id, session.message.message_id)
            )
        if packet.user_id != self.user_id:
            raise TransportError(
                "USR packet for user %d delivered to user %d"
                % (packet.user_id, self.user_id)
            )
        if session._done[self._position]:
            return
        session._usr_encryptions[self._position] = tuple(packet.encryptions)
        session._done[self._position] = True
        session._recovery_round[self._position] = 0

    def __repr__(self):
        return "_UserView(user=%d, done=%s)" % (self.user_id, self.done)


class ArrayRekeySession(RekeySession):
    """The ``engine="numpy"`` delivery session (see module docstring)."""

    def _make_users(self):
        message = self.message
        n = len(self.user_ids)
        k = message.k
        self._n_blocks = message.n_blocks
        self._uid = np.asarray(self.user_ids, dtype=np.int64)

        enc = message.enc_packets()
        slot_frm = np.array([p.frm_id for p in enc], dtype=np.int64)
        slot_to = np.array([p.to_id for p in enc], dtype=np.int64)
        slot_block = np.array([p.block_id for p in enc], dtype=np.int64)
        slot_seq = np.array([p.seq_in_block for p in enc], dtype=np.int64)
        slot_dup = np.array([p.is_duplicate for p in enc], dtype=bool)

        # The covering (non-duplicate) slot per user: non-dup slots in
        # block-major order are the plan order, whose <frm, to> intervals
        # are disjoint and increasing (the UKA invariant the block-ID
        # estimator itself relies on).
        nd = np.flatnonzero(~slot_dup)
        position = np.searchsorted(slot_to[nd], self._uid, side="left")
        own = nd[position]
        if np.any(slot_frm[own] > self._uid) or np.any(
            slot_to[own] < self._uid
        ):
            raise TransportError(
                "message plans do not cover every session user"
            )
        self._own_slot = own
        self._own_block = slot_block[own]

        # Static estimator contributions of each decoded block's
        # non-duplicate slots (all same-side for a pending user):
        # a block below the user's own tightens low (and the step-6
        # upper bound); a block above tightens high to b - 1.
        degree = self._degree_hint()
        remaining = degree * (message.max_kid + 1) - slot_to[nd]
        nd_hi_above = slot_block[nd] + _ceil_div(
            remaining - (k - 1 - slot_seq[nd]), k
        )
        nd_lo = np.where(
            slot_seq[nd] == k - 1, slot_block[nd] + 1, slot_block[nd]
        )
        self._lo_from_block = np.zeros(self._n_blocks, dtype=np.int64)
        np.maximum.at(self._lo_from_block, slot_block[nd], nd_lo)
        self._hi_above_block = np.full(self._n_blocks, _INF, dtype=np.int64)
        np.minimum.at(self._hi_above_block, slot_block[nd], nd_hi_above)

        self._done = np.zeros(n, dtype=bool)
        self._recovery_round = np.zeros(n, dtype=np.int64)
        self._counts = np.zeros((n, self._n_blocks), dtype=np.int32)
        self._low = np.zeros(n, dtype=np.int64)
        self._high = np.full(n, _INF, dtype=np.int64)
        self._usr_encryptions = {}
        return {
            user_id: _UserView(self, index, user_id)
            for index, user_id in enumerate(self.user_ids)
        }

    # -- multicast reception ------------------------------------------------

    def _deliver_round(self, planned, clock):
        if not planned:
            return clock
        times = clock + np.array([p.offset for p in planned])
        received = self.topology.multicast_reception(times, rng=self._rng)
        matrix = received[self._rows]

        # Per-block codeword counts (ENC and PARITY both count): group
        # the round's columns by block and sum each group in one pass.
        p_block = np.array(
            [p.packet.block_id for p in planned], dtype=np.int64
        )
        order = np.argsort(p_block, kind="stable")
        sorted_blocks = p_block[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_blocks[1:] != sorted_blocks[:-1]]
        )
        self._counts[:, sorted_blocks[starts]] += np.add.reduceat(
            matrix[:, order].astype(np.int32), starts, axis=1
        )

        enc_cols = np.flatnonzero(
            [p.packet.packet_type is PacketType.ENC for p in planned]
        )
        if len(enc_cols):
            self._ingest_enc(matrix, [planned[i].packet for i in enc_cols],
                             enc_cols)
        return float(times[-1])

    def _ingest_enc(self, matrix, enc_packets, enc_cols):
        uid = self._uid[:, None]
        frm = np.array([p.frm_id for p in enc_packets], dtype=np.int64)
        to = np.array([p.to_id for p in enc_packets], dtype=np.int64)
        dup = np.array([p.is_duplicate for p in enc_packets], dtype=bool)
        blk = np.array([p.block_id for p in enc_packets], dtype=np.int64)
        seq = np.array([p.seq_in_block for p in enc_packets], dtype=np.int64)
        max_kid = np.array([p.max_kid for p in enc_packets], dtype=np.int64)
        got = matrix[:, enc_cols]

        active = ~self._done
        covered = (got & (frm[None, :] <= uid) & (uid <= to[None, :])).any(
            axis=1
        )
        newly_done = active & covered
        self._done[newly_done] = True
        self._recovery_round[newly_done] = self.server.rounds_completed

        pending = active & ~covered
        if not pending.any():
            return
        nd = ~dup
        if not nd.any():
            return
        got = got[:, nd]
        frm, to, blk, seq, max_kid = (
            frm[nd], to[nd], blk[nd], seq[nd], max_kid[nd]
        )
        k = self.message.k
        degree = self._degree_hint()
        col_lo = np.where(seq == k - 1, blk + 1, blk)
        col_hi_above = blk + _ceil_div(
            degree * (max_kid + 1) - to - (k - 1 - seq), k
        )
        col_hi_below = np.where(seq == 0, blk - 1, blk)

        above = got & (uid > to[None, :])
        below = got & (uid < frm[None, :])
        low_new = np.max(np.where(above, col_lo[None, :], -1), axis=1)
        high_new = np.minimum(
            np.min(np.where(above, col_hi_above[None, :], _INF), axis=1),
            np.min(np.where(below, col_hi_below[None, :], _INF), axis=1),
        )
        self._low[pending] = np.maximum(
            self._low[pending], low_new[pending]
        )
        self._high[pending] = np.minimum(
            self._high[pending], high_new[pending]
        )

    # -- round boundary -----------------------------------------------------

    def _collect_nacks(self):
        round_index = self.server.rounds_completed
        n_blocks = self._n_blocks
        k = self.message.k
        active = ~self._done
        if active.any():
            # FEC recovery over the pre-tightening range: a pending user
            # decodes every block in [low, min(high, B-1)] with >= k
            # codewords; decoding its own block makes it done, the
            # others only tighten the estimator (static per-block
            # aggregates — see module docstring).
            block_axis = np.arange(n_blocks, dtype=np.int64)[None, :]
            hi_eff = np.minimum(self._high, n_blocks - 1)[:, None]
            candidates = (
                (self._counts >= k)
                & (block_axis >= self._low[:, None])
                & (block_axis <= hi_eff)
                & active[:, None]
            )
            own_decoded = candidates[
                np.arange(len(self._uid)), self._own_block
            ]
            newly_done = active & own_decoded
            self._done[newly_done] = True
            self._recovery_round[newly_done] = round_index

            pending = active & ~own_decoded
            if pending.any():
                below = candidates & (block_axis < self._own_block[:, None])
                above = candidates & (block_axis > self._own_block[:, None])
                low_new = np.max(
                    np.where(below, self._lo_from_block[None, :], -1), axis=1
                )
                high_new = np.minimum(
                    np.min(
                        np.where(below, self._hi_above_block[None, :], _INF),
                        axis=1,
                    ),
                    np.min(np.where(above, block_axis - 1, _INF), axis=1),
                )
                self._low[pending] = np.maximum(
                    self._low[pending], low_new[pending]
                )
                self._high[pending] = np.minimum(
                    self._high[pending], high_new[pending]
                )

        # NACKs come from the freshly tightened range; the pending set is
        # small after round 1, so real packet objects (the chaos layer's
        # seam) cost nothing.
        nacks = []
        message_id = self.message.message_id
        hi_eff = np.minimum(self._high, n_blocks - 1)
        for position in np.flatnonzero(~self._done).tolist():
            requests = []
            for block_id in range(
                int(self._low[position]), int(hi_eff[position]) + 1
            ):
                shortfall = k - int(self._counts[position, block_id])
                if shortfall > 0:
                    requests.append(
                        NackRequest(block_id=block_id, n_parity=shortfall)
                    )
            if requests:
                nacks.append(
                    NackPacket(
                        rekey_message_id=message_id,
                        user_id=int(self._uid[position]),
                        requests=tuple(requests),
                    )
                )
        return nacks

    # -- aggregates ---------------------------------------------------------

    def recovered_by_user(self):
        """Every user's recovered encryptions, in ``user_ids`` order.

        ``None`` for a user not done.  Users recovered by multicast get
        their covering plan slot's tuple itself, not a copy (whichever
        packet delivered them — original, duplicate or FEC-decoded —
        carried exactly those encryptions), so users of one slot share
        one object and the fleet absorber indexes it once.  Callers must
        not mutate the results.
        """
        slots = [packet.encryptions for packet in self.message.enc_packets()]
        recovered = [
            slots[slot] if done else None
            for done, slot in zip(
                self._done.tolist(), self._own_slot.tolist()
            )
        ]
        # Unicast mop-up users (all done) got their own USR tuple.
        for position, encryptions in self._usr_encryptions.items():
            recovered[position] = encryptions
        return recovered

    def _n_done(self):
        return int(self._done.sum())

    def _pending_users(self):
        return [int(u) for u in self._uid[~self._done]]

    def _user_rounds(self):
        return self._recovery_round.astype(int)
