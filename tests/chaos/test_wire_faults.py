"""Datagram fault injector: purity, dedup, and plan-registry tests.

The load-bearing property (the satellite the fuzz proves): the set of
applied faults — and therefore the fault-timeline digest — is a pure
function of ``(params, seed)`` and the *set* of datagram coordinates,
never of call order, duplication from retries, or which worker process
a member happens to live in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.soak import run_soak, soak_family
from repro.chaos.wire_faults import (
    WIRE_CHAOS_PLANS,
    ClientCrash,
    DatagramFaultInjector,
    WireChaosPlan,
    WireFaultParams,
    corrupt_frame,
)
from repro.errors import ChaosError, WireDecodeError
from repro.util import canonical_digest, canonical_json
from repro.wire.codec import FrameKind, decode_frame, encode_frame

STORM = WireFaultParams(
    corrupt_rate=0.2,
    duplicate_rate=0.2,
    reorder_rate=0.15,
    delay_rate=0.15,
    blackout_rate=0.1,
)


def _frame(kind, interval, round_no=0, slot=0):
    return encode_frame(kind, interval, round_no=round_no, slot=slot)


#: One abstract datagram coordinate: (member, kind, interval, round, slot).
coordinates = st.tuples(
    st.integers(0, 15),
    st.sampled_from([FrameKind.DATA, FrameKind.ROUND_END, FrameKind.ANNOUNCE]),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 40),
)


def _drive(injector, coords):
    """Route every coordinate through the send path, flushing at the end
    (as the server does at each window boundary)."""
    for member, kind, interval, round_no, slot in coords:
        injector.plan_send(
            member, _frame(kind, interval, round_no=round_no, slot=slot)
        )
    injector.flush()
    return canonical_digest(sorted(injector.timeline, key=canonical_json))


class TestInjectorPurity:
    @given(coords=st.lists(coordinates, max_size=60), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_same_coordinates_same_digest(self, coords, seed):
        first = _drive(DatagramFaultInjector(STORM, seed), coords)
        second = _drive(DatagramFaultInjector(STORM, seed), coords)
        assert first == second

    @given(
        coords=st.lists(coordinates, max_size=60, unique=True),
        seed=st.integers(0, 99),
        shuffle_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_call_order_is_irrelevant(self, coords, seed, shuffle_seed):
        """Worker placement only changes the order datagrams hit the
        seam — the applied-fault set must not notice."""
        import random

        shuffled = list(coords)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert _drive(DatagramFaultInjector(STORM, seed), coords) == _drive(
            DatagramFaultInjector(STORM, seed), shuffled
        )

    @given(coords=st.lists(coordinates, max_size=40), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_retries_do_not_grow_the_timeline(self, coords, seed):
        """A retried datagram reuses its coordinate: drop-like faults
        apply only to occurrence 0, so retransmissions converge and the
        timeline digests identically with or without them."""
        once = _drive(DatagramFaultInjector(STORM, seed), coords)
        twice = _drive(DatagramFaultInjector(STORM, seed), coords + coords)
        assert once == twice

    @given(seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_seed_changes_the_timeline(self, seed):
        coords = [
            (member, FrameKind.DATA, 1, 1, slot)
            for member in range(8)
            for slot in range(8)
        ]
        baseline = _drive(DatagramFaultInjector(STORM, seed), coords)
        other = _drive(DatagramFaultInjector(STORM, seed + 1000), coords)
        # Not a tautology: 64 draws across five families at these rates
        # make an identical decision set astronomically unlikely.
        assert baseline != other

    def test_recv_and_send_draw_independently(self):
        injector = DatagramFaultInjector(STORM, 7)
        wire = _frame(FrameKind.DATA, 1, round_no=1, slot=3)
        injector.plan_send(4, wire)
        # The recv path needs a member-bearing frame; FEEDBACK carries
        # one but building it needs a full Feedback struct — the
        # coordinate spaces are disjoint by the direction tag, which
        # the digest entries record explicitly.
        for entry in injector.timeline:
            if entry["fault"] != "blackout":
                assert entry["direction"] == "send"


class TestFaultMechanics:
    def test_corrupt_frame_is_always_detected(self):
        wire = _frame(FrameKind.DATA, 3, round_no=1, slot=9)
        with pytest.raises(WireDecodeError):
            decode_frame(corrupt_frame(wire))

    def test_corrupt_frame_empty_input(self):
        assert corrupt_frame(b"") == b""

    def test_reorder_holds_multicast_data_until_flush(self):
        params = WireFaultParams(reorder_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        wire = _frame(FrameKind.DATA, 1, round_no=1, slot=5)
        plan = injector.plan_send(2, wire)
        assert plan.sends == ()  # held, not dropped
        released = injector.flush()
        assert released == [(2, wire)]
        assert injector.applied == {"reorder": 1}

    def test_reorder_never_touches_control_frames(self):
        params = WireFaultParams(reorder_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        wire = _frame(FrameKind.ROUND_END, 1, round_no=1)
        plan = injector.plan_send(2, wire)
        assert [w for w, _ in plan.sends] == [wire]
        assert injector.flush() == []

    def test_delay_only_on_non_multicast_data(self):
        params = WireFaultParams(delay_rate=1.0, delay_seconds=0.5)
        injector = DatagramFaultInjector(params, 7)
        control = injector.plan_send(1, _frame(FrameKind.ROUND_END, 1, 1))
        assert [d for _, d in control.sends] == [0.5]
        data = injector.plan_send(
            1, _frame(FrameKind.DATA, 1, round_no=1, slot=2)
        )
        assert [d for _, d in data.sends] == [0.0]

    def test_blackout_swallows_both_directions(self):
        params = WireFaultParams(blackout_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        sent = injector.plan_send(3, _frame(FrameKind.DATA, 2, 1, 1))
        assert sent.sends == ()
        # One blackout record per (member, interval), direction-free.
        assert injector.applied == {"blackout": 1}
        assert injector.timeline == [
            {"fault": "blackout", "member": 3, "interval": 2}
        ]

    def test_duplicate_sends_twice(self):
        params = WireFaultParams(duplicate_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        wire = _frame(FrameKind.DATA, 1, round_no=1, slot=0)
        plan = injector.plan_send(0, wire)
        assert [w for w, _ in plan.sends] == [wire, wire]

    def test_garbage_passes_recv_untouched(self):
        injector = DatagramFaultInjector(STORM, 7)
        assert injector.plan_recv(b"\x00garbage") == [b"\x00garbage"]

    def test_bad_rate_refused(self):
        with pytest.raises(ChaosError):
            WireFaultParams(corrupt_rate=1.5)


class TestWirePlans:
    def test_registry_names_match(self):
        plans = soak_family("wire").plans
        assert list(plans) == list(WIRE_CHAOS_PLANS)
        for name, entry in plans.items():
            assert entry.spec is WIRE_CHAOS_PLANS[name]
            assert entry.sizes == {
                "clients": entry.spec.clients,
                "intervals": entry.spec.intervals,
                "workers": entry.spec.workers,
            }

    def test_describe_covers_every_plan(self):
        """What ``wire-chaos-soak --list-plans`` prints."""
        for name, entry in soak_family("wire").plans.items():
            assert entry.description == WIRE_CHAOS_PLANS[name].description
            assert entry.description

    def test_unknown_plan_refused(self):
        with pytest.raises(ChaosError, match="unknown wire-chaos-soak"):
            run_soak("wire", "no-such-plan")

    def test_leader_kill_plan_shape(self):
        plan = WIRE_CHAOS_PLANS["leader-kill-live"]
        assert plan.workers >= 1  # the fleet must outlive the leader
        assert plan.leader_kill_interval > 0
        assert plan.resync_timeout > 0  # the watchdog drives re-homing

    def test_crash_plan_shape(self):
        plan = WIRE_CHAOS_PLANS["client-churn-crash"]
        assert plan.crashes
        assert plan.liveness_tries > 0
        assert all(isinstance(c, ClientCrash) for c in plan.crashes)
        assert plan.churn_alpha_leave == 0.0  # churn must not steal targets

    def test_plans_are_frozen(self):
        plan = WIRE_CHAOS_PLANS["datagram-storm"]
        with pytest.raises(AttributeError):
            plan.clients = 1
        assert isinstance(plan, WireChaosPlan)
