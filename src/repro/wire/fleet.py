"""The fleet soak family: ``python -m repro fleet``.

``run_soak("fleet", plan)`` (:mod:`repro.chaos.soak`) boots a
:class:`~repro.service.daemon.RekeyDaemon` with the
:class:`~repro.wire.delivery.WireDelivery` backend, spawns one asyncio
:class:`~repro.wire.client.WireClient` per member (in-process, or
sharded over worker processes), and drives several rekey intervals over
real loopback UDP under Poisson churn and per-cohort Gilbert loss.  A
fleet plan is a :class:`~repro.chaos.wire_faults.WireChaosPlan` with no
faults, no scripted deaths and no leader kill, run by the wire family's
single-daemon runner.

What the digest covers — and deliberately does not: it hashes the
backend's canonical per-interval records — rounds, per-round NACK and
packet counts, sorted first-round parity shortfalls, per-member
recovery rounds, injected-drop totals, ρ trajectory — and excludes
everything timing-dependent (latencies, feedback retries), so the same
``(plan, seed)`` digests identically on any machine however the
scheduler interleaves the sockets.  Wall-clock behaviour is reported
separately: per-cohort recovery-latency percentiles computed from the
``wire_member_recovered`` events on the bus.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.chaos.soak import SoakFamily
from repro.chaos.wire_faults import WireChaosPlan
from repro.wire.chaos import run_single, wire_plan


def _percentiles(values):
    return {
        "p50": round(float(np.percentile(values, 50)), 3),
        "p90": round(float(np.percentile(values, 90)), 3),
        "p99": round(float(np.percentile(values, 99)), 3),
    }


def cohort_summary(events):
    """Per-cohort recovery statistics from ``wire_member_recovered``
    events — measured off the wire, not read out of any simulator."""
    by_cohort = {}
    for event in events:
        if event["kind"] != "wire_member_recovered":
            continue
        detail = event["detail"]
        by_cohort.setdefault(detail["cohort"], []).append(detail)
    summary = {}
    for cohort, details in sorted(by_cohort.items()):
        multicast_rounds = [
            d["recovery_round"]
            for d in details
            if d["recovery_round"] > 0
        ]
        summary[cohort] = {
            "reports": len(details),
            "recovery_ms": _percentiles(
                [d["latency_ms"] for d in details]
            ),
            "rounds_mean": (
                round(float(np.mean(multicast_rounds)), 3)
                if multicast_rounds
                else 0.0
            ),
            "unicast": sum(
                1 for d in details if d["recovery_round"] == 0
            ),
            "dropped": int(sum(d["dropped"] for d in details)),
        }
    return summary


def _run_plan(soak):
    """One fleet plan: the single-daemon wire run, which must also have
    carried every interval on the wire — one record per interval that
    sent a message, every served member reporting done on the socket."""
    try:
        intervals = run_single(soak, "fleet")
    finally:
        soak.result.counters["cohorts"] = cohort_summary(
            soak.obs.bus.events
        )
    # An interval with nothing to rekey sends nothing, so only the
    # intervals whose message was non-empty leave a backend record.
    sent = sum(1 for interval in intervals if interval.decision != "empty")
    records = soak.result.records
    soak.result.invariants["all-delivered"] = len(records) == sent and all(
        record["served"] == len(record["recovery_rounds"])
        for record in records
    )


#: smallest first: ``smoke`` is sized for CI (and the pinned-digest
#: test), ``standard`` is the acceptance configuration, ``surge``
#: doubles it, ``sharded`` exercises the worker-process mode
SOAK_FAMILY = SoakFamily(
    command="fleet",
    plans={
        plan.name: replace(wire_plan(plan), run=_run_plan)
        for plan in (
            WireChaosPlan(
                "smoke",
                clients=48,
                intervals=3,
                description="48 clients, 3 intervals — CI-sized, "
                "digest-pinned",
            ),
            WireChaosPlan(
                "standard",
                clients=512,
                intervals=3,
                description="512 in-process asyncio clients, 3 intervals",
            ),
            WireChaosPlan(
                "surge",
                clients=1024,
                intervals=3,
                description="1024 in-process asyncio clients, 3 intervals",
            ),
            WireChaosPlan(
                "sharded",
                clients=96,
                intervals=3,
                workers=2,
                description="96 clients sharded over 2 worker processes",
            ),
        )
    },
    kinds=frozenset(),
    digest_of="records",
    invariant_event="wire_fleet_invariant",
    counters={
        "clients": 0,
        "workers": 0,
        "intervals_target": 0,
        "intervals_completed": 0,
        "crashes_scheduled": 0,
        "evictions": 0,
        #: client-FSM resyncs — informational, not digested
        "resyncs": 0,
        #: per-cohort wall-clock recovery summary (see cohort_summary)
        "cohorts": {},
        "worker_crash": False,
    },
    targets={
        "clients": "clients",
        "workers": "workers",
        "intervals_target": "intervals",
    },
    complete_event="wire_fleet_complete",
    complete_fields={"intervals": "intervals_completed"},
    complete_after_digest=True,
)
