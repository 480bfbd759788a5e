"""The five workloads: inputs made here, the program only replays them.

Every join/leave trace is generated in set-up from ``--seed``.
Membership evolves deterministically inside the generator (all joins
are fresh names, leavers are drawn from the simulated live set), and the
daemon is handed only the resulting lists — through
``submit_join``/``submit_leave`` for the single-group workloads (the
daemon itself runs with ``NoChurn``) and through one benchmark-owned
:class:`ReplayChurn` per tenant for ``tenant_durable``.

All workloads are closed-loop with one load-generating thread: unit
*i+1*'s requests are submitted only after unit *i* has returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from repro.core.config import GroupConfig
from repro.core.member import GroupMember
from repro.errors import ReproError
from repro.service.churn import ChurnDriver, ChurnEvents, NoChurn
from repro.service.daemon import DaemonConfig, RekeyDaemon
from repro.service.transports import (
    IN_DEADLINE,
    DeliveryBackend,
    DeliveryReport,
    make_backend,
)

#: untimed units every workload runs first (counted in ``setup_s``)
WARMUP_UNITS = 2
#: members followed end to end by the key-server audit
COHORT_SIZE = 64
#: ``(bandwidth_overhead, in_deadline_member_share)`` where delivery is
#: loss-free by construction (``NullDelivery``, ``direct``): every ENC
#: packet goes out once and nobody waits for a unicast
LOSSLESS = (1.0, 1.0)

# ``units`` fixes the length of a run by count, so every commit does
# identical work.  It is sized for the count to bind well inside
# ``run_seconds`` on this host (12-15 s of units at ~75 / 470 / 165 /
# 550 ms each; 24 s for wire_1024, whose units of ~1.6 s take one or two
# 0.3 s NACK windows at the host's whim, so that eight of them spread 21%
# from run to run), which leaves ``--seconds`` a safety cap.
# ``trace_units`` is the fixed prefix the traced run repeats: the first
# third, at least 8.  wire_1024 is the exception: 8 units of ~2 s,
# untraced then traced, would not fit the 30 s a run may take, so its
# prefix is 4; and its set-up (the registration barrier) takes ~4 s, so
# it is done once.
SCALES = {
    "full": {
        "keyserver_cpu": {"n": 4096, "alpha": 0.20, "units": 180,
                          "trace_units": 60},
        "keyserver_durable": {"n": 4096, "alpha": 0.20, "units": 24,
                              "trace_units": 8},
        "sim_lossy": {"n": 4096, "alpha": 0.20, "units": 90,
                      "trace_units": 30},
        "wire_1024": {"n": 1024, "alpha": 0.15, "units": 15,
                      "trace_units": 4, "setup_reps": 1},
        "tenant_durable": {"tenants": 128, "alpha": 0.20, "units": 24,
                           "trace_units": 8},
    },
    "smoke": {
        "keyserver_cpu": {"n": 256, "alpha": 0.20, "units": 5,
                          "trace_units": 5},
        "keyserver_durable": {"n": 256, "alpha": 0.20, "units": 5,
                              "trace_units": 5},
        "sim_lossy": {"n": 256, "alpha": 0.20, "units": 5,
                      "trace_units": 5},
        "wire_1024": {"n": 64, "alpha": 0.15, "units": 5,
                      "trace_units": 5},
        "tenant_durable": {"tenants": 16, "alpha": 0.20, "units": 5,
                           "trace_units": 5},
    },
}

WHY = {
    "keyserver_cpu": (
        "The paper's key-server model at N=4096, alpha=0.2, d=4: marking, "
        "keygen, assignment, encrypt, sign; no persistence, no delivery."
    ),
    "keyserver_durable": (
        "Same trace plus WAL, snapshot and commit on a real block device; "
        "minus keyserver_cpu it is what serve --state-dir users pay."
    ),
    "sim_lossy": (
        "Same trace over the sim backend at the paper's loss (20%/2%/1%); "
        "minus keyserver_cpu it is delivery: rounds, FEC, absorb, decrypt."
    ),
    "wire_1024": (
        "1024 in-process WireClients on loopback UDP, alpha=0.15, "
        "block_size=5: sockets, codec, NACK window, drops; superlinear regime."
    ),
    "tenant_durable": (
        "128 tiny durable tenants per tick: per-call fixed cost, fsyncs, "
        "snapshot and digest per tenant dominate; adds scheduler, admission."
    ),
}


# -- inputs ------------------------------------------------------------


def generate_trace(seed, stream, initial, alpha, n_units, prefix="j"):
    """``[(joins, leaves), ...]`` — a pure function of its arguments.

    Per unit J ~ Poisson(alpha * n0) fresh names join — arrivals do not
    depend on the group — and L ~ Poisson(alpha * n) live members leave
    (capped so two always remain), n0 being the initial and n the
    simulated live count.  So J ~ L and the group size is stationary
    around n0 (sd ~ sqrt(n0)): with both rates tied to n the size is a
    random walk, and two seeds end 10% apart in N — and in cost — after
    a hundred units.  Leavers are drawn before the unit's joins are
    added, so no name joins and leaves in one unit.
    """
    rng = np.random.default_rng([int(seed), int(stream)])
    live = list(initial)
    n_initial = len(live)
    trace = []
    for unit in range(n_units):
        n_live = len(live)
        n_joins = int(rng.poisson(alpha * n_initial))
        n_leaves = min(int(rng.poisson(alpha * n_live)), max(0, n_live - 2))
        picks = (
            rng.choice(n_live, size=n_leaves, replace=False)
            if n_leaves else ()
        )
        leaves = [live[int(index)] for index in picks]
        gone = set(leaves)
        joins = ["%s%d-%d" % (prefix, unit, k) for k in range(n_joins)]
        live = [name for name in live if name not in gone] + joins
        trace.append((joins, leaves))
    return trace


def make_group_config(optional=None, **required):
    """A ``GroupConfig`` that passes implementation knobs only while the
    dataclass still has them (a later commit may delete ``engine``)."""
    fields = {field.name for field in dataclasses.fields(GroupConfig)}
    kwargs = dict(required)
    kwargs.update(
        (name, value)
        for name, value in (optional or {}).items()
        if name in fields
    )
    return GroupConfig(**kwargs)


class NullDelivery(DeliveryBackend):
    """Delivers nothing: the key-server workloads stop at the message."""

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        return DeliveryReport(mode="null", multicast_rounds=1)


class CapturingDelivery(DeliveryBackend):
    """Keeps the last (message, report) for the audit and the counts;
    delivery itself is the wrapped backend's."""

    def __init__(self, inner):
        self.inner = inner
        self.last = None

    def set_observer(self, obs):
        self.inner.set_observer(obs)
        return self

    def deliver(self, message, fleet, **kwargs):
        report = self.inner.deliver(message, fleet, **kwargs)
        self.last = (message, report)
        return report


class ReplayChurn(ChurnDriver):
    """One tenant's pre-generated trace, indexed by interval number."""

    def __init__(self, trace):
        self.trace = trace

    def events(self, interval, members, rng):
        if interval >= len(self.trace):
            return ChurnEvents()
        joins, leaves = self.trace[interval]
        return ChurnEvents(joins=list(joins), leaves=list(leaves))


# -- audits ------------------------------------------------------------


class AuditCohort:
    """Follows ``COHORT_SIZE`` members through every key-server unit.

    The key-server workloads deliver to nobody, so agreement is checked
    on a cohort served exactly as ``RekeyDaemon._serve_carry`` serves
    carried users: from the stored message, by unicast.  A cohort member
    that leaves is handed the *whole* message it was evicted by (it must
    still not reach the group key) and is replaced by a joiner of the
    same unit, so no cohort member ever misses an interval.
    """

    def __init__(self, server, names):
        self.members = {
            name: GroupMember.register(server, name) for name in names
        }
        self.evicted = []

    def after_unit(self, server, message, joins, leaves):
        """Serve the cohort; returns whether the audit failed."""
        gone = [
            self.members.pop(name) for name in leaves
            if name in self.members
        ]
        if message is not None and not message.is_empty:
            max_kid = message.max_kid
            for member in self.members.values():
                member.absorb_encryptions([], max_kid=max_kid)
                wanted = message.needs_by_user.get(member.user_id, ())
                member.absorb_encryptions(
                    [message.encryption_map[e] for e in wanted],
                    max_kid=max_kid,
                )
            everything = list(message.encryption_map.values())
            for member in gone:
                try:
                    member.absorb_encryptions(everything, max_kid=max_kid)
                except ReproError:
                    pass  # could not even parse its way in: locked out
        self.evicted.extend(gone)
        fresh = (name for name in joins if name not in self.members)
        for _ in gone:
            name = next(fresh, None)
            if name is not None:
                self.members[name] = GroupMember.register(server, name)
        expected = server.group_key
        stale = any(
            member.group_key != expected for member in self.members.values()
        )
        leaked = any(
            member.group_key == expected for member in self.evicted
        )
        return stale or leaked


# -- runs --------------------------------------------------------------


def _mean(total, count):
    return total / count if count else 0.0


class SingleGroupRun:
    """One daemon replaying one trace; a unit is submit-all + interval."""

    tenants = 1

    def __init__(self, daemon, backend, trace, cohort=None, transport=None):
        self.daemon = daemon
        self.backend = backend
        self.trace = trace
        self.cohort = cohort
        #: None (delivery bypassed), "sim" or "wire"
        self.transport = transport
        self.start_measuring()

    def start_measuring(self):
        self.requests = 0
        self.sequence = []
        self.c = dict.fromkeys(
            ("units", "nonempty", "in_deadline", "encryptions",
             "enc_packets", "rounds", "first_round_nacks", "latency_sum",
             "users", "unicast_served", "multicast_packets",
             "datagrams_sent", "data_dropped", "feedback_retries",
             "announce_retries"),
            0,
        )

    def unit(self, index):
        joins, leaves = self.trace[index]
        daemon = self.daemon
        self.backend.last = None  # an empty interval delivers nothing
        for name in joins:
            daemon.submit_join(name)
        for name in leaves:
            daemon.submit_leave(name)
        return daemon.run_interval()

    def observe(self, index, record):
        """Counts and the post-unit audit; returns failed units (0/1)."""
        joins, leaves = self.trace[index]
        c = self.c
        c["units"] += 1
        committed = record.n_joins + record.n_leaves
        self.requests += committed
        failed = (
            committed != len(joins) + len(leaves)
            or record.rejected_requests != 0
        )
        c["encryptions"] += record.n_encryptions
        c["enc_packets"] += record.n_enc_packets
        self.sequence.append(
            (record.group_key_fp, record.n_encryptions)
            # real sockets may take another round; the simulator may not
            + (() if self.transport == "wire" else (record.multicast_rounds,))
        )
        message, report = self.backend.last or (None, None)
        if report is not None and self.transport is not None:
            self._count_transport(record, report)
        if self.cohort is not None:
            failed |= self.cohort.after_unit(
                self.daemon.server, message, joins, leaves
            )
        else:
            try:
                # The breaker's forced carry legitimately leaves members
                # one interval behind.
                self.daemon.fleet.check_agreement(
                    self.daemon.server,
                    exclude=self.daemon.pending_carry_names(),
                )
            except ReproError:
                failed = True
        return int(failed)

    def _count_transport(self, record, report):
        c = self.c
        c["nonempty"] += 1
        c["in_deadline"] += record.decision == IN_DEADLINE
        c["rounds"] += report.multicast_rounds
        c["first_round_nacks"] += report.first_round_nacks
        c["unicast_served"] += report.unicast_served
        rounds = report.recovery_rounds or ()
        c["users"] += len(rounds)
        c["latency_sum"] += sum(
            r if r > 0 else report.multicast_rounds + 1 for r in rounds
        )
        detail = report.detail
        if "multicast_packets" in detail:
            c["multicast_packets"] += detail["multicast_packets"]
        elif getattr(self.backend.inner, "records", None):
            c["multicast_packets"] += sum(
                self.backend.inner.records[-1]["packets_per_round"]
            )
        for key in ("datagrams_sent", "data_dropped", "feedback_retries",
                    "announce_retries"):
            c[key] += detail.get(key, 0)

    def finish(self):
        return 0

    def delivery_ratios(self):
        """``(bandwidth_overhead, in_deadline_member_share)``: multicast
        packets sent over ENC packets, and the members whose keys came by
        multicast (not the unicast after the deadline) over the members
        that needed keys, both summed over the run."""
        if self.transport is None:
            return LOSSLESS
        c = self.c
        return (
            _mean(c["multicast_packets"], c["enc_packets"]),
            1.0 - _mean(c["unicast_served"], c["users"]),
        )

    def counts(self):
        c, units = self.c, max(1, self.c["units"])
        wire = self.transport == "wire"
        out = {
            "former_members": len(self.daemon.fleet.former_members),
            "snapshot_bytes": (
                os.path.getsize(self.daemon.snapshot_path)
                if self.daemon.snapshot_path else 0
            ),
            "enc_packets": c["enc_packets"] / units,
            "encryptions_per_request": _mean(c["encryptions"], self.requests),
            "rounds": 0 if wire else c["rounds"] / units,
            "wire_rounds": c["rounds"] / units if wire else 0,
            "first_round_nacks": c["first_round_nacks"] / units,
            "recovery_rounds_mean": _mean(c["latency_sum"], c["users"]),
            "unicast_share": _mean(c["unicast_served"], c["users"]),
            "in_deadline_share": _mean(c["in_deadline"], c["nonempty"]),
        }
        for key in ("datagrams_sent", "data_dropped", "feedback_retries",
                    "announce_retries"):
            out[key] = c[key] / units
        return out

    def close(self):
        self.daemon.close()
        if hasattr(self.backend.inner, "close"):
            self.backend.inner.close()


class TenantRun:
    """A whole tenant fleet; a unit is one scheduler tick."""

    transport = None

    def __init__(self, daemon):
        self.daemon = daemon
        self.tenants = len(daemon.daemons)
        self._intervals_seen = daemon.intervals_total
        self.start_measuring()

    def start_measuring(self):
        self.requests = 0
        self.sequence = []
        self.c = dict.fromkeys(
            ("units", "ran", "deferred", "encryptions", "enc_packets"), 0
        )
        self._shed_before = self._shed()

    def _shed(self):
        return sum(
            ledger["shed"]
            for ledger in self.daemon.admission.to_dict().values()
        )

    def unit(self, index):
        return self.daemon.tick()

    def observe(self, index, plan):
        """Returns failed tenant-intervals: not committed, or stale."""
        daemon, c = self.daemon, self.c
        committed = daemon.intervals_total - self._intervals_seen
        self._intervals_seen = daemon.intervals_total
        c["units"] += 1
        c["ran"] += len(plan.run)
        c["deferred"] += len(plan.deferred)
        digest = hashlib.sha256()
        for name in plan.run:
            tenant = daemon.daemons[name]
            records = tenant.metrics.intervals
            if not records or (
                records[-1].interval != tenant.server.intervals_processed - 1
            ):
                continue  # this tenant's interval failed; counted below
            record = records[-1]
            self.requests += record.n_joins + record.n_leaves
            c["encryptions"] += record.n_encryptions
            c["enc_packets"] += record.n_enc_packets
            digest.update(
                ("%s %s %d\n" % (
                    name, record.group_key_fp, record.n_encryptions
                )).encode()
            )
        self.sequence.append((digest.hexdigest(),))
        return (self.tenants - committed) + len(daemon.check_agreement())

    def finish(self):
        return len(self.daemon.admission.verify())

    def delivery_ratios(self):
        return LOSSLESS

    def counts(self):
        c, units = self.c, max(1, self.c["units"])
        paths = [
            tenant.snapshot_path for tenant in self.daemon.daemons.values()
            if tenant.snapshot_path
        ]
        return {
            "former_members": sum(
                len(tenant.fleet.former_members)
                for tenant in self.daemon.daemons.values()
            ),
            "snapshot_bytes": _mean(
                sum(os.path.getsize(path) for path in paths), len(paths)
            ),
            "enc_packets": c["enc_packets"] / units,
            "encryptions_per_request": _mean(c["encryptions"], self.requests),
            "ran": c["ran"] / units,
            "deferred": c["deferred"] / units,
            "shed": (self._shed() - self._shed_before) / units,
        }

    def close(self):
        self.daemon.close()


# -- builders ----------------------------------------------------------


def _initial(n):
    return ["m%05d" % index for index in range(n)]


def _build_single(seed, params, state_dir, kind):
    """``kind``: cpu | durable | sim | wire."""
    wire = kind == "wire"
    n_units = WARMUP_UNITS + params["units"]
    initial = _initial(params["n"])
    trace = generate_trace(seed, 0, initial, params["alpha"], n_units)
    if wire:
        # the committed ``wire_fleet`` parameters (default engine)
        config = make_group_config(seed=seed, block_size=5)
    else:
        config = make_group_config({"engine": "numpy"}, seed=seed)
    backend = CapturingDelivery(
        make_backend(kind, config, seed=seed + 1)
        if kind in ("sim", "wire") else NullDelivery()
    )
    durable = kind == "durable"
    daemon = RekeyDaemon.start_new(
        initial,
        config=config,
        backend=backend,
        churn=NoChurn(),
        service=DaemonConfig(
            state_dir=state_dir if durable else None,
            # audited after every unit, outside the timed region
            verify_invariants=False,
        ),
        seed=seed,
    )
    cohort = None
    if kind in ("cpu", "durable"):
        cohort = AuditCohort(daemon.server, initial[:COHORT_SIZE])
    return SingleGroupRun(
        daemon,
        backend,
        trace,
        cohort=cohort,
        transport=kind if kind in ("sim", "wire") else None,
    )


def _build_tenants(seed, params, state_dir):
    from repro.tenancy import MultiGroupDaemon, make_fleet

    n_units = WARMUP_UNITS + params["units"]
    fleet = make_fleet(params["tenants"], seed=seed, interval_ticks=1)
    churn = {
        spec.name: ReplayChurn(
            generate_trace(
                seed, 1 + index, spec.initial_members(), params["alpha"],
                n_units, prefix=spec.name + "-j",
            )
        )
        for index, spec in enumerate(fleet)
    }
    # defaults otherwise: durable, direct delivery, invariants on
    daemon = MultiGroupDaemon.start_new(fleet, state_dir, churn=churn)
    return TenantRun(daemon)


BUILDERS = {
    "keyserver_cpu": lambda s, p, d: _build_single(s, p, d, "cpu"),
    "keyserver_durable": lambda s, p, d: _build_single(s, p, d, "durable"),
    "sim_lossy": lambda s, p, d: _build_single(s, p, d, "sim"),
    "wire_1024": lambda s, p, d: _build_single(s, p, d, "wire"),
    "tenant_durable": _build_tenants,
}

#: workloads whose traced run also times the key-server-only reference
#: over the same prefix, and the span family their difference must equal
LEDGER_PAIRS = {
    "sim_lossy": "delivery",
    "keyserver_durable": "persistence",
}

WORKLOADS = tuple(BUILDERS)


def build(name, seed, scale, state_dir):
    """Set one workload up (trace generation + boot); returns its run."""
    return BUILDERS[name](seed, SCALES[scale][name], state_dir)


def build_reference(name, seed, scale):
    """``keyserver_cpu`` at ``name``'s size, replaying the same trace."""
    return _build_single(seed, SCALES[scale][name], None, "cpu")
