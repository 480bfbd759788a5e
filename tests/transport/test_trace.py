"""Session protocol events on the obs bus.

A :class:`RekeySession` emits its protocol events (session start, round
plan and completion, unicast, completion) through its ``obs`` recorder,
with the simulated time as the ``sim_time`` detail key.
"""

import numpy as np

from repro.crypto import KeyFactory
from repro.keytree import KeyTree, MarkingAlgorithm
from repro.obs import EventBus, Recorder
from repro.rekey import RekeyMessageBuilder
from repro.sim import LossParameters, MulticastTopology
from repro.transport import RekeySession, SessionConfig
from repro.util import RandomSource


def run_session(obs=None, n=128, n_leave=32):
    rng = np.random.default_rng(0)
    users = ["u%d" % i for i in range(n)]
    tree = KeyTree.full_balanced(users, 4, key_factory=KeyFactory(seed=1))
    batch = MarkingAlgorithm().apply(
        tree, leaves=list(rng.choice(users, n_leave, replace=False))
    )
    message = RekeyMessageBuilder(block_size=8).build(batch, message_id=1)
    topology = MulticastTopology(
        len(message.needs_by_user),
        params=LossParameters(),
        random_source=RandomSource(3),
    )
    return RekeySession(
        message,
        topology,
        SessionConfig(rho=1.0),
        rng=np.random.default_rng(4),
        obs=obs,
    ).run()


def observed_session(**kwargs):
    """``(stats, bus)`` of one session recorded on a fresh bus."""
    bus = EventBus()
    return run_session(Recorder(bus=bus), **kwargs), bus


class TestObsRegistryIntegration:
    def test_bus_forwarding(self):
        stats, bus = observed_session()
        record = bus.of_kind("round_complete")[0]
        assert isinstance(record["detail"]["sim_time"], float)
        assert record["detail"]["nacks"] == stats.rounds[0].nacks_received

    def test_session_emits_each_event_once(self):
        _, bus = observed_session(n=64, n_leave=16)
        assert len(bus.of_kind("session_start")) == 1
        assert len(bus.of_kind("session_complete")) == 1


class TestSessionIntegration:
    def test_session_emits_lifecycle(self):
        stats, bus = observed_session()
        assert len(bus.of_kind("session_start")) == 1
        assert len(bus.of_kind("session_complete")) == 1
        assert len(bus.of_kind("round_planned")) == stats.n_multicast_rounds
        assert len(bus.of_kind("round_complete")) == stats.n_multicast_rounds

    def test_round_events_match_stats(self):
        stats, bus = observed_session()
        completes = bus.of_kind("round_complete")
        for event, round_stats in zip(completes, stats.rounds):
            assert event["detail"]["nacks"] == round_stats.nacks_received
            assert (
                event["detail"]["recovered"]
                == round_stats.users_recovered_total
            )

    def test_no_trace_is_fine(self):
        stats = run_session()
        assert stats.n_multicast_rounds >= 1

    def test_times_monotone(self):
        _, bus = observed_session()
        times = [
            event["detail"]["sim_time"]
            for event in bus.events
            if "sim_time" in event["detail"]
        ]
        assert times and times == sorted(times)
