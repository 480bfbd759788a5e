"""Datagram fault injector: purity, dedup, and plan-registry tests.

The load-bearing property (the satellite the fuzz proves): the set of
applied faults — and therefore the fault-timeline digest — is a pure
function of ``(params, seed)`` and the *set* of datagram coordinates,
each keyed on the datagram's destination (a receiver shard's
coordinate, or a member), never of call order or duplication from
retries.
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
from repro.wire.codec import (
    UNICAST_ROUND,
    FrameKind,
    decode_frame,
    encode_frame,
    encode_register,
)

STORM = WireFaultParams(
    corrupt_rate=0.2,
    duplicate_rate=0.2,
    reorder_rate=0.15,
    delay_rate=0.15,
    blackout_rate=0.1,
)


def _frame(kind, interval, round_no=0, slot=0):
    return encode_frame(kind, interval, round_no=round_no, slot=slot)


#: One abstract shard datagram coordinate: (shard, kind, interval,
#: round, slot).
coordinates = st.tuples(
    st.integers(0, 15),
    st.sampled_from(
        [
            FrameKind.DATA,
            FrameKind.ROUND_END,
            FrameKind.SHARD_ANNOUNCE,
            FrameKind.SHARD_FEEDBACK,
        ]
    ),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 40),
)


def _drive(injector, coords):
    """Route every coordinate through the path its kind takes — the
    shard's feedback table in, the rest out — flushing at the end (as
    the server does at each window boundary)."""
    for shard, kind, interval, round_no, slot in coords:
        wire = _frame(kind, interval, round_no=round_no, slot=slot)
        if kind is FrameKind.SHARD_FEEDBACK:
            injector.plan_recv(wire, shard)
        else:
            injector.plan_send(shard, wire)
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
            (shard, FrameKind.DATA, 1, 1, slot)
            for shard in range(8)
            for slot in range(8)
        ]
        baseline = _drive(DatagramFaultInjector(STORM, seed), coords)
        other = _drive(DatagramFaultInjector(STORM, seed + 1000), coords)
        # Not a tautology: 64 draws across five families at these rates
        # make an identical decision set astronomically unlikely.
        assert baseline != other

    def test_recv_and_send_draw_independently(self):
        """The same coordinate in both directions is two decisions: the
        direction tag keys the draw, and the timeline records it."""
        injector = DatagramFaultInjector(
            WireFaultParams(corrupt_rate=0.5), 7
        )
        decisions = set()
        for slot in range(16):
            wire = _frame(FrameKind.SHARD_FEEDBACK, 1, round_no=1, slot=slot)
            sent = injector.plan_send(4, wire)[0][0] != wire
            received = injector.plan_recv(wire, 4)[0] != wire
            decisions.add((sent, received))
        assert {(True, False), (False, True)} <= decisions
        assert {e["direction"] for e in injector.timeline} == {
            "send",
            "recv",
        }


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
        assert plan == []  # held, not dropped
        released = injector.flush()
        assert released == [(2, wire)]
        assert injector.applied == {"reorder": 1}

    def test_reorder_never_touches_control_frames(self):
        params = WireFaultParams(reorder_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        wire = _frame(FrameKind.ROUND_END, 1, round_no=1)
        plan = injector.plan_send(2, wire)
        assert [w for w, _ in plan] == [wire]
        assert injector.flush() == []

    def test_delay_only_on_non_multicast_data(self):
        params = WireFaultParams(delay_rate=1.0, delay_seconds=0.5)
        injector = DatagramFaultInjector(params, 7)
        control = injector.plan_send(1, _frame(FrameKind.ROUND_END, 1, 1))
        assert [d for _, d in control] == [0.5]
        data = injector.plan_send(
            1, _frame(FrameKind.DATA, 1, round_no=1, slot=2)
        )
        assert [d for _, d in data] == [0.0]

    def test_blackout_swallows_both_directions(self):
        params = WireFaultParams(blackout_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        sent = injector.plan_send(3, _frame(FrameKind.DATA, 2, 1, 1))
        assert sent == []
        table = _frame(FrameKind.SHARD_FEEDBACK, 2, round_no=1)
        assert injector.plan_recv(table, 3) == []
        # One blackout record per (destination, interval),
        # direction-free.
        assert injector.applied == {"blackout": 1}
        assert injector.timeline == [
            {"fault": "blackout", "dest": "shard-3", "interval": 2}
        ]

    def test_group_frames_key_on_the_shard_the_rest_on_the_member(self):
        params = WireFaultParams(duplicate_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        for kind in (FrameKind.SHARD_ANNOUNCE, FrameKind.ROUND_END):
            injector.plan_send(5, _frame(kind, 1, round_no=1))
        injector.plan_send(5, _frame(FrameKind.DATA, 1, round_no=1))
        injector.plan_send(5, _frame(FrameKind.DATA, 1, UNICAST_ROUND))
        injector.plan_recv(_frame(FrameKind.SHARD_FEEDBACK, 1, 1), 5)
        register = encode_frame(
            FrameKind.REGISTER, 0, payload=encode_register(9, 1)
        )
        injector.plan_recv(register, 5)  # the sender's index wins
        assert [(e["frame"], e["dest"]) for e in injector.timeline] == [
            ("SHARD_ANNOUNCE", "shard-5"),
            ("ROUND_END", "shard-5"),
            ("DATA", "shard-5"),
            ("DATA", "member-5"),
            ("SHARD_FEEDBACK", "shard-5"),
            ("REGISTER", "member-9"),
        ]

    def test_shard_table_from_an_unknown_address_passes(self):
        injector = DatagramFaultInjector(STORM, 7)
        table = _frame(FrameKind.SHARD_FEEDBACK, 1, round_no=1)
        assert injector.plan_recv(table) == [table]
        assert injector.timeline == []

    def test_duplicate_sends_twice(self):
        params = WireFaultParams(duplicate_rate=1.0)
        injector = DatagramFaultInjector(params, 7)
        wire = _frame(FrameKind.DATA, 1, round_no=1, slot=0)
        plan = injector.plan_send(0, wire)
        assert [w for w, _ in plan] == [wire, wire]

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
