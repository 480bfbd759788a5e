"""The secrecy ledger: forward and backward secrecy on key material.

:class:`repro.service.members.SecrecyLedger` is fed once per interval
from the server's tree and the rekey message.  These tests break the
marker on purpose (``marker_mutants``) in ways every current member
survives, and check the ledger catches each; they also check it stays
O(tree) and holds on the crash-recovery and promotion paths.

Deterministic, no hypothesis: runs on numpy + pytest alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import GroupConfig, SecureGroup
from repro.errors import ServiceError
from repro.ha.lease import Lease
from repro.ha.replication import DirectLink, LeaderPublisher
from repro.ha.standby import StandbyReplica, promote
from repro.service import (
    CRASH_POINTS,
    CrashPlan,
    DaemonConfig,
    DaemonCrash,
    DirectDelivery,
    NoChurn,
    PoissonChurn,
    RekeyDaemon,
)
from tests.service.marker_mutants import MODES, mutate


def make_group(n=27, degree=3):
    return SecureGroup(
        ["m%d" % i for i in range(n)], GroupConfig(degree=degree, block_size=5)
    )


def tree_keys(server):
    tree = server.tree
    return {node_id: tree.key_of(node_id) for node_id in tree.node_ids()}


class TestForwardSecrecy:
    def test_healthy_leave_leaves_the_coalition_nothing(self):
        group = make_group()
        group.leave("m1")
        group.rekey()
        assert group.fleet.ledger.breaches == []
        assert group.fleet.ledger.coalition == {}

    def test_skip_mutant_fails_the_ledger_but_passes_the_frozen_check(self):
        """A marker that skips one ancestor of a leaver: every member
        agrees, the evictee's frozen group key differs from the new one
        (the old lockout check passes), yet the coalition, handed the
        message, reaches the root."""
        group = make_group()
        former = group.members["m1"]
        mutant = mutate(group.server, "skip")
        group.leave("m1")
        with pytest.raises(ServiceError, match="secrecy ledger"):
            group.rekey()
        server = group.server
        assert group.fleet.out_of_sync(server) == []
        assert former.group_key != server.group_key
        held = group.fleet.ledger.coalition
        assert held[mutant.node] == server.tree.key_of(mutant.node)
        assert held[0] == server.group_key

    def test_unrenewed_mutant_fails_the_ledger(self):
        """The ancestor is reported updated (its edges go out) but its
        key never changes: labels say renewed, key material says not."""
        group = make_group()
        mutant = mutate(group.server, "unrenewed")
        group.leave("m1")
        _, _, batch, message = group.fleet.rekey(group.server)
        assert mutant.node in batch.subtree.updated_knode_ids
        DirectDelivery().deliver(message, group.fleet)
        assert group.fleet.out_of_sync(group.server) == []
        with pytest.raises(ServiceError, match="secrecy ledger"):
            group.fleet.check_agreement(group.server)
        assert group.fleet.ledger.coalition[mutant.node] == (
            group.server.tree.key_of(mutant.node)
        )

    def test_two_leavers_the_per_leaver_check_misses(self):
        """Two leavers at the split frontier of a full tree.  Handed the
        whole rekey message one by one (what an eavesdropper gets), each
        relocates under the new ``maxKID``, meets an encryption whose key
        it lacks and stops: judged locked out, though both still hold
        their parent's current key.  The ledger pools the departed
        members' keys by node and never stops at a missing one."""
        group = make_group(n=16, degree=4)  # u-nodes 5..20, no free slot
        leavers = [group.members[name] for name in ("m0", "m1")]
        assert [member.user_id for member in leavers] == [5, 6]
        mutant = mutate(group.server, "unrenewed")
        group.leave("m0")
        group.leave("m1")
        for index in range(6):  # two replace the leavers, four split 5, 6
            group.join("j%d" % index)
        message = group.fleet.rekey(group.server)[3]
        server = group.server
        assert mutant.node == 1 and message.max_kid == 6
        for member in leavers:
            assert member.overhear(message) != server.group_key
            assert member.path_keys[1] == server.tree.key_of(1)
        ledger = group.fleet.ledger
        assert ledger.breaches
        assert ledger.coalition[0] == server.group_key


class TestBackwardSecrecy:
    def test_joiner_path_is_renewed(self):
        group = make_group()
        before = tree_keys(group.server)
        group.join("newbie")
        group.rekey()
        joiner = group.members["newbie"]
        assert group.fleet.ledger.breaches == []
        for node_id, key in joiner.path_keys.items():
            assert key != before.get(node_id), node_id

    @pytest.mark.parametrize("mode", MODES)
    def test_joiner_mutant_fails_the_ledger(self, mode):
        group = make_group(n=26)  # the joiner takes slot 39 under node 12
        mutant = mutate(group.server, mode, target="joiner")
        group.join("newbie")
        with pytest.raises(ServiceError, match="joiner holds node"):
            group.rekey()
        assert group.fleet.out_of_sync(group.server) == []
        assert mutant.node in group.members["newbie"].path_ids

    def test_leave_and_rejoin_in_one_interval(self):
        group = make_group()
        old = group.members["m4"]
        group.leave("m4")
        group.join("m4")
        group.rekey()
        fresh = group.members["m4"]
        assert fresh is not old
        assert fresh.group_key == group.server.group_key
        assert group.fleet.ledger.breaches == []
        for node_id, key in fresh.path_keys.items():
            assert key != old.path_keys.get(node_id), node_id

    def test_leave_and_rejoin_mutant_fails_both_ways(self):
        group = make_group()
        mutate(group.server, "unrenewed")
        group.leave("m4")
        group.join("m4")
        with pytest.raises(ServiceError) as raised:
            group.rekey()
        assert "joiner holds node" in str(raised.value)
        assert "departed members hold node" in str(raised.value)


class TestMemory:
    @pytest.mark.parametrize("lossy", [False, True])
    def test_evicted_member_is_collected(self, lossy):
        group = make_group(n=32, degree=4)
        gone = weakref.ref(group.members["m3"])
        group.leave("m3")
        group.rekey(lossy=lossy)
        gc.collect()
        assert gone() is None

    def test_evicted_member_is_collected_by_the_daemon(self):
        daemon = RekeyDaemon.start_new(
            ["m%02d" % i for i in range(24)],
            config=GroupConfig(block_size=5, seed=3),
            backend=DirectDelivery(),
            churn=NoChurn(),
        )
        gone = weakref.ref(daemon.fleet.members["m05"])
        daemon.submit_leave("m05")
        daemon.run_interval()
        gc.collect()
        assert gone() is None
        assert len(daemon.fleet.former_members) == 0

    def test_ledger_stays_within_the_tree_under_churn(self):
        group = make_group(n=256, degree=4)
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.poisson(0.2 * 256))
            group.churn(n, min(n, group.n_members - 1), rng=rng)
            ledger = group.fleet.ledger
            assert ledger.breaches == []
            assert len(ledger) <= len(group.server.tree.node_ids())


def small_daemon(state_dir, crash_plan=None):
    return RekeyDaemon.start_new(
        ["m%02d" % i for i in range(24)],
        config=GroupConfig(degree=3, block_size=5, crypto_seed=5, seed=5),
        backend=DirectDelivery(),
        churn=PoissonChurn(alpha=0.25, min_members=4),
        service=DaemonConfig(state_dir=state_dir, crash_plan=crash_plan),
        seed=5,
    )


def assert_ledger_catches_a_mutant(daemon):
    """The ledger is live on ``daemon``: a skipped ancestor fails it."""
    mutate(daemon.server, "skip")
    daemon.churn = NoChurn()
    daemon.submit_leave(sorted(daemon.fleet.members)[0])
    with pytest.raises(ServiceError, match="secrecy ledger"):
        daemon.run_interval()


class TestRecoveryAndPromotion:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_ledger_holds_across_a_crash(self, point, tmp_path):
        state_dir = str(tmp_path / "state")
        daemon = small_daemon(state_dir, CrashPlan(3, point))
        with pytest.raises(DaemonCrash):
            daemon.run(6)
        recovered = RekeyDaemon.recover(
            state_dir,
            config=daemon.server.config,
            backend=DirectDelivery(),
            fleet=daemon.fleet,
            churn=PoissonChurn(alpha=0.25, min_members=4),
            service=DaemonConfig(state_dir=state_dir),
            seed=6,
        )
        try:
            recovered.run(3)  # the replay interval, then fresh churn
            ledger = recovered.fleet.ledger
            assert ledger.breaches == [] and ledger.coalition == {}
            assert len(ledger) <= len(recovered.server.tree.node_ids())
            assert_ledger_catches_a_mutant(recovered)
        finally:
            recovered.close()

    def test_ledger_holds_across_promotion(self, tmp_path):
        state_dir = str(tmp_path / "state")
        config = GroupConfig(block_size=5, seed=3)
        leader = RekeyDaemon.start_new(
            ["m%02d" % i for i in range(24)],
            config=config,
            backend=DirectDelivery(),
            churn=PoissonChurn(alpha=0.3),
            service=DaemonConfig(state_dir=state_dir),
            seed=3,
            epoch=1,
        )
        publisher = leader.attach_replication(
            LeaderPublisher(1, wal=leader.wal)
        )
        link = DirectLink()
        replica = StandbyReplica(config=config)
        publisher.subscribe(link, server=leader.server)
        for _ in range(3):
            leader.run_interval()
            replica.apply_frames(link.poll())
        leader.close()
        promoted = promote(
            replica,
            state_dir,
            Lease(tmp_path / "lease.json", "standby"),
            backend=DirectDelivery(),
            fleet=leader.fleet,
            churn=PoissonChurn(alpha=0.3),
            seed=4,
        )
        try:
            promoted.run(3)
            ledger = promoted.fleet.ledger
            assert ledger.breaches == [] and ledger.coalition == {}
            assert_ledger_catches_a_mutant(promoted)
        finally:
            promoted.close()
