"""Vectorised transport simulator for large-N parameter sweeps.

Implements exactly the protocol of :mod:`repro.transport.session`, but
over numpy arrays instead of per-user objects: reception matrices come
straight from the loss chains, block counters are matrix products, and
recovery conditions are boolean reductions.  One simplification is made
(and documented): users are assumed to NACK their *true* block — the
block-ID estimator pins the exact block except with probability ~p²
(Appendix D), which perturbs NACK contents negligibly at the paper's
loss rates.  Everything else — UKA packing, last-block duplicates,
interleaving, proactive/reactive parity, AdjustRho, numNACK adaptation,
deadline accounting, unicast escalation — matches the object-level
session, and ``tests/transport/test_fleet_equivalence.py`` holds the two
implementations together statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TransportError
from repro.keytree.marking import MarkingAlgorithm
from repro.keytree.tree import KeyTree
from repro.rekey.assignment import UserOrientedKeyAssignment
from repro.rekey.blocks import BlockPartition
from repro.rekey.packets import DEFAULT_ENC_PACKET_SIZE
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
from repro.transport.server import MAX_ROUNDS
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class FleetWorkload:
    """The plan-level shape of one rekey message.

    Arrays (all indexed by *active user* — a user that needs at least
    one encryption this interval):

    - ``plan_of_user``: which ENC packet carries the user's encryptions;
    - ``block_of_user``: which FEC block that packet sits in;
    - ``usr_packet_bytes``: size of the user's USR packet (for unicast
      byte accounting).
    """

    def __init__(self, n_enc_packets, k, plan_of_user, usr_packet_bytes=None):
        check_positive("n_enc_packets", n_enc_packets, integral=True)
        check_positive("k", k, integral=True)
        self.n_enc_packets = int(n_enc_packets)
        self.k = int(k)
        self.partition = BlockPartition(self.n_enc_packets, self.k)
        self.n_blocks = self.partition.n_blocks
        self.plan_of_user = np.asarray(plan_of_user, dtype=int)
        if self.plan_of_user.size == 0:
            raise TransportError("workload has no active users")
        if self.plan_of_user.min() < 0 or (
            self.plan_of_user.max() >= self.n_enc_packets
        ):
            raise TransportError("plan_of_user indexes out of range")
        self.block_of_user = self.plan_of_user // self.k
        if usr_packet_bytes is None:
            usr_packet_bytes = np.full(self.plan_of_user.shape, 70)
        self.usr_packet_bytes = np.asarray(usr_packet_bytes, dtype=int)
        # slot arrays in block-major order (incl. last-block duplicates)
        slots = self.partition.slots
        self.slot_block = np.array([s.block_id for s in slots], dtype=int)
        self.slot_seq = np.array([s.seq_in_block for s in slots], dtype=int)
        self.slot_plan = np.array([s.plan_index for s in slots], dtype=int)

    @property
    def n_users(self):
        return int(self.plan_of_user.size)

    @classmethod
    def from_batch(cls, batch_result, k, packet_size=DEFAULT_ENC_PACKET_SIZE):
        """Build from a marking-algorithm result (keyless is fine)."""
        needs = batch_result.needs_by_user()
        if not needs:
            raise TransportError("batch produced an empty rekey message")
        assignment = UserOrientedKeyAssignment(packet_size=packet_size).assign(
            needs
        )
        plan_by_uid = {}
        for plan in assignment.plans:
            for user_id in plan.user_ids:
                plan_by_uid[user_id] = plan.index
        user_ids = sorted(needs)
        plan_of_user = [plan_by_uid[u] for u in user_ids]
        usr_bytes = [4 + 22 * len(needs[u]) for u in user_ids]
        return cls(
            n_enc_packets=assignment.n_packets,
            k=k,
            plan_of_user=plan_of_user,
            usr_packet_bytes=usr_bytes,
        )


def make_paper_workload(
    n_users=4096,
    degree=4,
    n_joins=0,
    n_leaves=None,
    k=10,
    packet_size=DEFAULT_ENC_PACKET_SIZE,
    seed=0,
):
    """The paper's default workload: N users, J joins, L = N/d leaves."""
    if n_leaves is None:
        n_leaves = n_users // degree
    rng = np.random.default_rng(seed)
    users = ["u%d" % i for i in range(n_users)]
    tree = KeyTree.full_balanced(users, degree)
    leaves = [users[i] for i in rng.choice(n_users, n_leaves, replace=False)]
    joins = ["j%d" % i for i in range(n_joins)]
    batch = MarkingAlgorithm().apply(tree, joins=joins, leaves=leaves)
    return FleetWorkload.from_batch(batch, k, packet_size=packet_size)


@dataclass
class FleetConfig:
    """Protocol parameters for fleet runs (paper defaults)."""

    rho: float = 1.0
    num_nack: int = 20
    max_nack: int = 100
    adapt_rho: bool = True
    sending_interval_ms: float = 100.0
    round_gap_ms: float = 500.0
    multicast_only: bool = False
    max_multicast_rounds: int = 2
    deadline_rounds: int = 2
    adapt_num_nack: bool = False
    unicast_duplicate_interval_ms: float = 50.0
    max_unicast_attempts: int = 40
    packet_size: int = DEFAULT_ENC_PACKET_SIZE
    #: False sends each block's packets back to back instead of
    #: round-robin across blocks — the ablation of §5.1's interleaving.
    interleave: bool = True


class FleetSimulator:
    """Runs rekey-message sequences over a topology, vectorised."""

    def __init__(self, topology, config=None, seed=None):
        self.topology = topology
        self.config = config or FleetConfig()
        self._random_source = (
            RandomSource(seed) if seed is not None else RandomSource()
        )
        self.rho_controller = ProactivityController(
            k=1,  # re-bound per message (k comes from the workload)
            rho=self.config.rho,
            num_nack=self.config.num_nack,
            rng=self._random_source.generator(),
        )
        self.nack_controller = NumNackController(
            num_nack=self.config.num_nack, max_nack=self.config.max_nack
        )

    # -- single message -----------------------------------------------------

    def run_message(self, workload, rho=None, message_index=0, rng=None):
        """Deliver one message; returns (MessageStats, first_round_A)."""
        config = self.config
        if rho is None:
            rho = self.rho_controller.rho
        if rng is None:
            rng = self._random_source.generator()
        n_users = workload.n_users
        if self.topology.n_users != n_users:
            raise TransportError(
                "topology has %d users; workload needs %d"
                % (self.topology.n_users, n_users)
            )
        rows = rng.permutation(n_users)
        interval = config.sending_interval_ms * 1e-3

        stats = MessageStats(
            message_index=message_index,
            n_enc_packets=workload.n_enc_packets,
            n_blocks=workload.n_blocks,
            k=workload.k,
            rho=float(rho),
            n_users=n_users,
        )
        k = workload.k
        n_blocks = workload.n_blocks
        counts = np.zeros((n_users, n_blocks), dtype=np.int32)
        got_own = np.zeros(n_users, dtype=bool)
        user_round = np.zeros(n_users, dtype=int)
        first_round_requests = []
        clock = 0.0
        amax = np.zeros(n_blocks, dtype=int)
        round_index = 0

        while True:
            round_index += 1
            if round_index > MAX_ROUNDS:
                raise TransportError(
                    "round cap exceeded: protocol is not converging"
                )
            if round_index == 1:
                parity = proactive_parity_count(rho, k)
                send_block, send_plan, n_enc_sent = self._round_one_order(
                    workload, parity, interleave=config.interleave
                )
            else:
                send_block, send_plan, n_enc_sent = self._parity_order(
                    amax, interleave=config.interleave
                )
                if send_block.size == 0:
                    raise TransportError(
                        "nothing to retransmit while users are pending"
                    )
            times = clock + np.arange(send_block.size) * interval
            received = self.topology.multicast_reception(times, rng=rng)[rows]
            # Update per-block codeword counts for everyone still active.
            indicator = np.zeros((send_block.size, n_blocks), dtype=np.int32)
            indicator[np.arange(send_block.size), send_block] = 1
            counts += received.astype(np.int32) @ indicator
            # Own-ENC reception (round 1 only carries ENC packets).
            if send_plan is not None:
                own_columns = (
                    send_plan[None, :] == workload.plan_of_user[:, None]
                )
                got_own |= (received & own_columns).any(axis=1)
            decoded = counts[np.arange(n_users), workload.block_of_user] >= k
            done = got_own | decoded
            newly_done = done & (user_round == 0)
            user_round[newly_done] = round_index

            pending = ~done
            shortfall = k - counts[np.arange(n_users), workload.block_of_user]
            nacks = int(pending.sum())
            if round_index == 1:
                first_round_requests = shortfall[pending].tolist()
            amax = np.zeros(n_blocks, dtype=int)
            if nacks:
                np.maximum.at(
                    amax,
                    workload.block_of_user[pending],
                    shortfall[pending],
                )
            stats.rounds.append(
                RoundStats(
                    round_index=round_index,
                    enc_packets_sent=n_enc_sent,
                    parity_packets_sent=int(send_block.size) - n_enc_sent,
                    nacks_received=nacks,
                    users_recovered_total=int(done.sum()),
                )
            )
            clock = float(times[-1]) + config.round_gap_ms * 1e-3
            if not nacks:
                break
            if (
                not config.multicast_only
                and round_index >= config.max_multicast_rounds
            ):
                self._run_unicast(
                    workload, np.flatnonzero(pending), rows, clock, rng,
                    stats.unicast,
                )
                break

        stats.user_rounds = user_round
        # Recovery-mode accounting (§5.2): direct reception of the
        # specific packet vs FEC decoding.  A user with both paths
        # available counts as direct (it never runs the decoder).
        finished = user_round > 0
        stats.n_recovered_direct = int((got_own & finished).sum())
        stats.n_recovered_decode = int((~got_own & finished).sum())
        return stats, first_round_requests

    @staticmethod
    def _round_one_order(workload, parity_per_block, interleave=True):
        """Round-1 send order: returns (block, plan, n_enc).

        Interleaved (the protocol's choice) spreads a block's packets
        ``n_blocks`` sending-intervals apart; sequential sends each
        block back to back (the ablation baseline, vulnerable to burst
        loss taking out a whole block).
        """
        k = workload.k
        n_blocks = workload.n_blocks
        per_block = k + parity_per_block
        blocks = []
        plans = []
        if interleave:
            positions = (
                (slot, block_id)
                for slot in range(per_block)
                for block_id in range(n_blocks)
            )
        else:
            positions = (
                (slot, block_id)
                for block_id in range(n_blocks)
                for slot in range(per_block)
            )
        for slot, block_id in positions:
            blocks.append(block_id)
            if slot < k:
                plans.append(workload.slot_plan[block_id * k + slot])
            else:
                plans.append(-1)
        send_plan = np.array(plans, dtype=int)
        return (
            np.array(blocks, dtype=int),
            send_plan,
            int((send_plan >= 0).sum()),
        )

    @staticmethod
    def _parity_order(amax, interleave=True):
        """Retransmission order for per-block parity counts."""
        blocks = []
        depth = int(amax.max()) if amax.size else 0
        if interleave:
            for slot in range(depth):
                for block_id, count in enumerate(amax):
                    if slot < count:
                        blocks.append(block_id)
        else:
            for block_id, count in enumerate(amax):
                blocks.extend([block_id] * int(count))
        return np.array(blocks, dtype=int), None, 0

    def _run_unicast(self, workload, pending_idx, rows, clock, rng, unicast):
        """Escalating duplicated USR packets (§7.2)."""
        config = self.config
        interval = config.unicast_duplicate_interval_ms * 1e-3
        duplicates = 2
        remaining = list(pending_idx)
        attempts = 0
        while remaining:
            attempts += 1
            if attempts > config.max_unicast_attempts:
                raise TransportError("unicast did not converge")
            still = []
            for user in remaining:
                times = clock + np.arange(duplicates) * interval
                got = self.topology.unicast_reception(
                    int(rows[user]), times, rng=rng
                )
                unicast.usr_packets_sent += duplicates
                unicast.usr_bytes_sent += duplicates * int(
                    workload.usr_packet_bytes[user]
                )
                if got.any():
                    unicast.users_served += 1
                else:
                    still.append(user)
            remaining = still
            clock += duplicates * interval + 0.2
            duplicates += 1
        unicast.attempts = attempts

    # -- adaptive sequences ----------------------------------------------------

    def run_sequence(self, workload_factory, n_messages):
        """Run ``n_messages`` under adaptive rho / numNACK control.

        ``workload_factory(message_index)`` returns the FleetWorkload for
        each message (it may return the same object every time).
        """
        check_positive("n_messages", n_messages, integral=True)
        sequence = SequenceStats()
        for index in range(n_messages):
            workload = workload_factory(index)
            self.rho_controller.k = workload.k
            rho_used = self.rho_controller.rho
            stats, requests = self.run_message(
                workload, rho=rho_used, message_index=index
            )
            misses = stats.users_missing_deadline(self.config.deadline_rounds)
            if self.config.adapt_rho:
                self.rho_controller.update(requests)
            if self.config.adapt_num_nack:
                self.nack_controller.update(misses)
                self.rho_controller.num_nack = self.nack_controller.num_nack
            sequence.append(
                stats,
                rho=rho_used,
                num_nack=self.rho_controller.num_nack,
                misses=misses,
            )
        return sequence
