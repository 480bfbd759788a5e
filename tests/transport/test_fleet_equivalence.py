"""Statistical equivalence of the fleet and object-level simulators.

The two implementations share the protocol but not a single line of
mechanics (byte packets + FEC decode vs matrix reductions), so agreement
here is strong evidence both are right.  We compare distributional
metrics over several seeds — the RNG consumption patterns differ, so
per-seed equality is not expected.

The session side runs under **both** RSE coders (the tentpole's matrix
rewrite and the scalar reference).  The coders are byte-identical by
construction (see ``tests/fec/test_rse_golden.py``), so the same seeds
must give bit-identical session statistics — pinned by
``test_coders_give_identical_sessions`` — and each coder must
independently sit inside the fleet-agreement bands.

Tolerance bands, and why each is as wide as it is:

- **fraction of users recovered in round 1** — within 0.02 absolute.
  The tightest band because it averages over all 512 users x 10 seeds
  (~5000 Bernoulli draws): the binomial standard error of each mean is
  ~0.005, so 0.02 is ~3 combined standard errors.  This is the paper's
  headline FEC metric (Figure 9), hence the priority on keeping it
  tight.
- **first-round NACK count** — within 35% of the larger mean, with an
  absolute floor of 5.  NACKs are small counts (a handful at rho=1.6)
  with near-Poisson dispersion, so the relative error of a 10-seed mean
  is large; the floor keeps the band meaningful when means approach
  zero, where a 35% relative band would demand sub-integer agreement.
- **server bandwidth overhead h'/h** — within 15% relative.  Overhead
  is quantised by whole parity packets per round (a one-packet
  difference in a retransmission round moves the metric by 1/k), and
  the implementations legitimately differ in *which* seeds trigger an
  extra round; 10 seeds average that to well inside 15%.
"""

import numpy as np
import pytest

from repro.crypto import KeyFactory
from repro.fec.rse import ReferenceRSECoder, RSECoder
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.rekey import RekeyMessageBuilder
from repro.sim import LossParameters, MulticastTopology
from repro.transport import (
    FleetConfig,
    FleetSimulator,
    FleetWorkload,
    RekeySession,
    SessionConfig,
)
from repro.util import RandomSource


N_USERS = 512
N_LEAVE = 128
K = 10
N_SEEDS = 10

# Source-link loss off: a source drop fails ~46 users at once (everyone
# sharing the dropped ENC packet), a heavy tail that would need hundreds
# of seeds to average out.  Receiver-link behaviour is what the two
# implementations could plausibly disagree on, and it dominates every
# paper metric.
EQUIV_LOSS = LossParameters(p_source=0.0)

#: Both sides of the tentpole's codec rewrite; sessions must behave
#: identically under either.
CODERS = {
    "matrix": lambda: RSECoder(K),
    "reference": lambda: ReferenceRSECoder(K),
}


def build_batch(seed):
    rng = np.random.default_rng(seed)
    users = ["u%d" % i for i in range(N_USERS)]
    tree = KeyTree.full_balanced(users, 4, key_factory=KeyFactory(seed=2))
    return MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, N_LEAVE, replace=False))
    )


@pytest.fixture(scope="module")
def shared():
    batch = build_batch(0)
    message = RekeyMessageBuilder(block_size=K).build(batch, message_id=1)
    workload = FleetWorkload.from_batch(batch, k=K)
    return message, workload


def session_metrics(message, seed, rho, coder):
    topology = MulticastTopology(
        len(message.needs_by_user),
        params=EQUIV_LOSS,
        random_source=RandomSource(seed),
    )
    session = RekeySession(
        message,
        topology,
        SessionConfig(rho=rho, multicast_only=True),
        rng=np.random.default_rng(seed),
        coder=coder,
    )
    stats = session.run()
    return (
        stats.first_round_nacks,
        (stats.user_rounds == 1).mean(),
        stats.bandwidth_overhead,
    )


def fleet_metrics(workload, seed, rho):
    topology = MulticastTopology(
        workload.n_users,
        params=EQUIV_LOSS,
        random_source=RandomSource(seed),
    )
    sim = FleetSimulator(
        topology, FleetConfig(multicast_only=True), seed=seed
    )
    stats, _ = sim.run_message(workload, rho=rho)
    return (
        stats.first_round_nacks,
        (stats.user_rounds == 1).mean(),
        stats.bandwidth_overhead,
    )


_fleet_cache = {}


def fleet_runs_for(workload, rho):
    """Fleet metrics don't involve an RSE coder; compute once per rho."""
    if rho not in _fleet_cache:
        _fleet_cache[rho] = np.array(
            [fleet_metrics(workload, 200 + s, rho) for s in range(N_SEEDS)]
        )
    return _fleet_cache[rho]


class TestEquivalence:
    def test_same_workload_shape(self, shared):
        message, workload = shared
        assert message.n_enc_packets == workload.n_enc_packets
        assert message.n_blocks == workload.n_blocks
        assert len(message.needs_by_user) == workload.n_users

    @pytest.mark.parametrize("coder_name", sorted(CODERS))
    @pytest.mark.parametrize("rho", [1.0, 1.6])
    def test_distributional_agreement(self, shared, rho, coder_name):
        message, workload = shared
        coder = CODERS[coder_name]()
        session_runs = np.array(
            [
                session_metrics(message, 100 + s, rho, coder)
                for s in range(N_SEEDS)
            ]
        )
        fleet_runs = fleet_runs_for(workload, rho)
        s_nacks, s_frac, s_bw = session_runs.mean(axis=0)
        f_nacks, f_frac, f_bw = fleet_runs.mean(axis=0)
        # Bands documented in the module docstring.
        assert abs(s_frac - f_frac) < 0.02
        assert abs(s_nacks - f_nacks) <= max(5, 0.35 * max(s_nacks, f_nacks))
        assert abs(s_bw - f_bw) < 0.15 * max(s_bw, f_bw)

    @pytest.mark.parametrize("rho", [1.0, 1.6])
    def test_coders_give_identical_sessions(self, shared, rho):
        """Stronger than the bands: the coders decode to identical
        bytes, and the session consumes randomness independently of the
        decoder, so the same seed must yield bit-identical statistics
        under either coder — no tolerance at all."""
        message, _ = shared
        for seed in (100, 101, 102):
            matrix = session_metrics(
                message, seed, rho, CODERS["matrix"]()
            )
            reference = session_metrics(
                message, seed, rho, CODERS["reference"]()
            )
            assert matrix == reference
