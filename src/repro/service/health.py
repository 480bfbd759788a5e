"""Health and metrics surface of the rekey daemon.

Reuses the definitions of :mod:`repro.transport.metrics` (NACK counts,
rounds, unicast accounting) and adds the *service-level* dimensions the
paper's one-shot evaluation never needed: per-interval marking time,
the ρ trajectory across intervals, recovery-latency percentiles,
degradation decisions, and crash/recovery counters.

Two export surfaces:

- ``to_dict()`` / ``to_json()`` — the full ledger, schema documented in
  ``docs/service.md`` (stable keys; additive evolution only);
- ``health()`` — a cheap liveness/quality summary (``ok`` unless recent
  intervals degraded or an invariant check failed), the shape a probe
  endpoint would serve.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

IN_DEADLINE = "in-deadline"


def _percentile(values, q):
    if values is None or len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class IntervalMetrics:
    """Everything measured during one rekey interval."""

    interval: int
    n_members: int
    n_joins: int
    n_leaves: int
    rejected_requests: int
    message_id: int
    n_encryptions: int
    n_enc_packets: int
    n_blocks: int
    marking_ms: float
    duration_ms: float
    transport: str
    decision: str
    rho: float
    multicast_rounds: int
    first_round_nacks: int
    unicast_served: int
    carried_users: int
    carry_served: int
    #: recovery latency percentiles, in multicast rounds (unicast- or
    #: carry-recovered users count as one round past the last multicast
    #: round — they were still waiting when multicast stopped); NaN when
    #: the backend observes no per-user rounds, exported as ``null``
    recovery_p50: float
    recovery_p90: float
    recovery_p99: float
    group_key_fp: str
    wal_seq: int

    def to_dict(self):
        data = asdict(self)
        for key in ("recovery_p50", "recovery_p90", "recovery_p99"):
            value = data[key]
            if isinstance(value, float) and math.isnan(value):
                data[key] = None  # JSON has no NaN; null = unobserved
        return data

    @staticmethod
    def recovery_latencies(report):
        """Per-user recovery latencies in rounds from a delivery report.

        ``None`` when nothing per-user was observed: an empty interval
        (``report`` is ``None``) or a backend that observes no per-user
        rounds (``recovery_rounds`` is ``None``).  Users multicast never
        recovered (round 0) count as one round past the last one.
        """
        if report is None or report.recovery_rounds is None:
            return None
        rounds = report.multicast_rounds
        return [
            r if r > 0 else rounds + 1 for r in report.recovery_rounds
        ]

    @classmethod
    def from_parts(
        cls,
        interval,
        n_members,
        n_joins,
        n_leaves,
        rejected_requests,
        message,
        batch,
        marking_ms,
        duration_ms,
        report,
        carry_served,
        group_key_fp,
        wal_seq,
    ):
        """Assemble the record from the daemon's working objects.

        ``report`` is a :class:`~repro.service.transports.DeliveryReport`
        or ``None`` for an empty interval (no membership change — the
        message was empty and nothing was sent).
        """
        rounds = report.multicast_rounds if report else 0
        latencies = cls.recovery_latencies(report)
        if report is not None and latencies is None:
            # A backend that observes no per-user rounds: a synthetic
            # single-sample distribution would masquerade as a real
            # percentile, so the percentiles are marked unobserved.
            p50 = p90 = p99 = float("nan")
        else:
            p50 = round(_percentile(latencies, 50), 3)
            p90 = round(_percentile(latencies, 90), 3)
            p99 = round(_percentile(latencies, 99), 3)
        return cls(
            interval=interval,
            n_members=n_members,
            n_joins=n_joins,
            n_leaves=n_leaves,
            rejected_requests=rejected_requests,
            message_id=message.message_id if message else -1,
            n_encryptions=batch.n_encryptions if batch else 0,
            n_enc_packets=message.n_enc_packets if message else 0,
            n_blocks=message.n_blocks if message else 0,
            marking_ms=round(marking_ms, 3),
            duration_ms=round(duration_ms, 3),
            transport=report.mode if report else "none",
            decision=report.decision if report else "empty",
            rho=float(report.rho) if report else 0.0,
            multicast_rounds=rounds,
            first_round_nacks=report.first_round_nacks if report else 0,
            unicast_served=report.unicast_served if report else 0,
            carried_users=len(report.carried) if report else 0,
            carry_served=carry_served,
            recovery_p50=p50,
            recovery_p90=p90,
            recovery_p99=p99,
            group_key_fp=group_key_fp,
            wal_seq=wal_seq,
        )


class ServiceMetrics:
    """The daemon's metrics ledger and health summary."""

    #: health turns "degraded" when more than this fraction of the
    #: recent window missed the in-interval deadline
    DEGRADED_FRACTION = 0.5
    WINDOW = 5

    def __init__(self):
        self.intervals = []
        self.counters = {
            "joins_accepted": 0,
            "leaves_accepted": 0,
            "requests_rejected": 0,
            "requests_replayed": 0,
            "members_resynced": 0,
            "recoveries": 0,
            "empty_intervals": 0,
            "deadline_misses": 0,
            # robustness surface (see docs/robustness.md)
            "snapshot_failures": 0,
            "snapshot_fallbacks": 0,
            # commits replay checked against their state digests
            "digests_verified": 0,
            "digest_mismatches": 0,
            "circuit_opens": 0,
            # intervals whose configured degradation policy the
            # transport could not honour (the wire plane ignores "carry")
            "policy_ignored": 0,
        }

    def record(self, interval_metrics):
        self.intervals.append(interval_metrics)
        if interval_metrics.decision == "empty":
            self.counters["empty_intervals"] += 1
        elif interval_metrics.decision != IN_DEADLINE:
            self.counters["deadline_misses"] += 1

    def bump(self, counter, by=1):
        self.counters[counter] += by

    @property
    def n_intervals(self):
        return len(self.intervals)

    def rho_trajectory(self):
        return [m.rho for m in self.intervals]

    def to_dict(self):
        return {
            "schema": 1,
            "counters": dict(self.counters),
            "intervals": [m.to_dict() for m in self.intervals],
            "rho_trajectory": self.rho_trajectory(),
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def health(self, n_members=None):
        """Probe-style summary: status, why, and headline gauges."""
        recent = self.intervals[-self.WINDOW:]
        misses = [m for m in recent if m.decision not in (IN_DEADLINE, "empty")]
        status, reason = "ok", ""
        if recent and len(misses) > self.DEGRADED_FRACTION * len(recent):
            status = "degraded"
            reason = "%d of last %d intervals missed the deadline" % (
                len(misses),
                len(recent),
            )
        last = self.intervals[-1] if self.intervals else None
        notes = []
        if self.counters["policy_ignored"]:
            notes.append(
                "configured degradation policy was not in force for %d "
                "interval(s): the transport always cuts over to unicast"
                % self.counters["policy_ignored"]
            )
        return {
            "status": status,
            "reason": reason,
            "intervals_processed": self.n_intervals,
            "members": (
                n_members if n_members is not None
                else (last.n_members if last else 0)
            ),
            "recoveries": self.counters["recoveries"],
            "deadline_misses": self.counters["deadline_misses"],
            "notes": notes,
            "last_interval": last.to_dict() if last else None,
        }

    # -- human output ------------------------------------------------------

    TABLE_HEADER = (
        " int | members |  J/L  | encs | rho  | rounds | NACKs |"
        " uni | p99 rnd | mark ms | decision"
    )

    @staticmethod
    def format_row(m):
        p99 = m.recovery_p99
        p99_cell = (
            "      -"
            if isinstance(p99, float) and math.isnan(p99)
            else "%7.1f" % p99
        )
        return (
            "%4d | %7d | %2d/%-2d | %4d | %.2f | %6d | %5d | %3d |"
            " %s | %7.2f | %s"
            % (
                m.interval,
                m.n_members,
                m.n_joins,
                m.n_leaves,
                m.n_encryptions,
                m.rho,
                m.multicast_rounds,
                m.first_round_nacks,
                m.unicast_served,
                p99_cell,
                m.marking_ms,
                m.decision,
            )
        )
