"""Pinned fleet-simulator digest, fed by both marking engines.

The vectorised :class:`FleetSimulator` consumes plan-mode workloads
built from marking output.  Here twin keyless trees — one marked by the
from-scratch oracle, one by the shipping array marker — feed identical
churn into :meth:`FleetWorkload.from_batch`, and identically-seeded
simulators run the resulting message sequence.  The
:meth:`SequenceStats.digest` (SHA-256 over every per-round counter,
per-user recovery round, and adaptive-control step) must be equal
across engines *and* match the pinned constant, anchoring the whole
plan-mode pipeline against silent drift from either engine.

Churn keeps joins == leaves so the active-user population stays
constant (one topology serves every message, as ``run_sequence``
requires).
"""

import numpy as np

from repro.keytree import KeyTree
from repro.keytree.marking import make_marking
from repro.sim import build_paper_topology
from repro.transport import FleetConfig, FleetSimulator
from repro.transport.fleet import FleetWorkload

N_USERS = 81
N_MESSAGES = 6
CHURN = 6  # joins == leaves per interval: membership stays N_USERS

PINNED_DIGEST = (
    "c13ca806540a5efb7ca55b729c1a1f45ad8709b741600ac3f742b597f4e59179"
)


def build_workloads(engine, seed=23):
    tree = KeyTree.full_balanced(
        ["f%04d" % i for i in range(N_USERS)], degree=3
    )
    marking = make_marking(engine)
    rng = np.random.default_rng(seed)
    next_name = N_USERS
    workloads = []
    for _ in range(N_MESSAGES):
        members = sorted(tree.users)
        leaves = [
            str(u) for u in rng.choice(members, size=CHURN, replace=False)
        ]
        joins = ["f%04d" % (next_name + i) for i in range(CHURN)]
        next_name += CHURN
        batch = marking.apply(tree, joins=joins, leaves=leaves)
        workloads.append(FleetWorkload.from_batch(batch, k=5))
        assert workloads[-1].n_users == N_USERS
    return workloads


def run_sequence(engine):
    workloads = build_workloads(engine)
    topology = build_paper_topology(n_users=N_USERS, alpha=0.25, seed=31)
    simulator = FleetSimulator(
        topology,
        FleetConfig(rho=1.0, num_nack=20, adapt_rho=True,
                    multicast_only=True),
        seed=37,
    )
    return simulator.run_sequence(
        lambda index: workloads[index], N_MESSAGES
    )


def test_fleet_digest_equal_across_engines_and_pinned():
    oracle = run_sequence("python")
    fast = run_sequence("numpy")
    assert oracle.digest() == fast.digest()
    assert oracle.digest() == PINNED_DIGEST
