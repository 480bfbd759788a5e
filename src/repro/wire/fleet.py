"""The fleet runner: a daemon driving hundreds of wire clients.

``run_fleet`` is the wire plane's end-to-end harness, shaped like the
chaos-soak runner: a named plan plus a seed fully determines the run,
and the per-interval protocol facts canonicalise to a **digest** that CI
pins.  One run boots a :class:`~repro.service.daemon.RekeyDaemon` with
the :class:`~repro.wire.delivery.WireDelivery` backend, spawns one
asyncio :class:`~repro.wire.client.WireClient` per member (in-process,
or sharded over worker processes), and drives several rekey intervals
over real loopback UDP under Poisson churn and per-cohort Gilbert loss.

What the digest covers — and deliberately does not: it hashes the
protocol's deterministic facts (rounds, per-round NACK and packet
counts, sorted first-round parity shortfalls, per-member recovery
rounds, injected-drop totals, ρ trajectory) and excludes everything
timing-dependent (latencies, feedback retries), so the same ``(plan,
seed)`` digests identically on any machine however the scheduler
interleaves the sockets.  Wall-clock behaviour is reported separately:
per-cohort recovery-latency percentiles computed from the
``wire_member_recovered`` events on the bus.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from repro.chaos.soak import SoakResult
from repro.errors import ReproError, WireError, WorkerCrashError
from repro.obs.events import EventBus
from repro.obs.recorder import Recorder
from repro.util import canonical_digest

#: Fleet plans, smallest first.  ``smoke`` is sized for CI (and the
#: pinned-digest test); ``standard`` is the acceptance configuration;
#: ``surge`` doubles it; ``sharded`` exercises the worker-process mode.
FLEET_PLAN_NAMES = ("smoke", "standard", "surge", "sharded")


@dataclass(frozen=True)
class FleetPlan:
    """One named fleet configuration (overridable per run)."""

    name: str
    clients: int = 48
    intervals: int = 3
    workers: int = 0  # 0 = every client in-process on one loop
    churn_alpha: float = 0.15  # Poisson churn rate per member (0 = static)
    block_size: int = 5
    description: str = ""


FLEET_PLANS = {
    "smoke": FleetPlan(
        "smoke",
        clients=48,
        description="48 clients, 3 intervals — CI-sized, digest-pinned",
    ),
    "standard": FleetPlan(
        "standard",
        clients=512,
        description="512 in-process asyncio clients, 3 intervals",
    ),
    "surge": FleetPlan(
        "surge",
        clients=1024,
        description="1024 in-process asyncio clients, 3 intervals",
    ),
    "sharded": FleetPlan(
        "sharded",
        clients=96,
        workers=2,
        description="96 clients sharded over 2 worker processes",
    ),
}


@dataclass
class FleetResult(SoakResult):
    """A soak result plus the canonical per-interval protocol records
    (the digest input).  Its counters: ``clients``, ``workers``,
    ``intervals_target``, ``intervals_completed``, ``cohorts`` (the
    per-cohort wall-clock summary from ``wire_member_recovered``
    events) and ``worker_crash`` (a dead worker process: a distinct CLI
    exit code, because the fleet lost a machine)."""

    records: list = field(default_factory=list)


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


def resolve_plan(plan, clients=None, intervals=None, workers=None):
    """A :class:`FleetPlan` from a name (or a ready plan) + overrides."""
    if isinstance(plan, FleetPlan):
        resolved = plan
    else:
        try:
            resolved = FLEET_PLANS[plan]
        except KeyError:
            raise WireError(
                "unknown fleet plan %r (valid: %s)"
                % (plan, ", ".join(FLEET_PLAN_NAMES))
            )
    overrides = {}
    if clients is not None:
        overrides["clients"] = int(clients)
    if intervals is not None:
        overrides["intervals"] = int(intervals)
    if workers is not None:
        overrides["workers"] = int(workers)
    return replace(resolved, **overrides) if overrides else resolved


def wire_daemon(clients, churn, seed, obs, backend, service, **kwargs):
    """A daemon serving ``clients`` members over the wire ``backend``;
    the members are hosted by its worker processes when it has any."""
    from repro.core.server import GroupKeyServer
    from repro.service.daemon import RekeyDaemon
    from repro.service.members import MemberFleet
    from repro.wire.delivery import WireFleet

    server = GroupKeyServer(
        ["member-%04d" % index for index in range(clients)],
        config=backend.config,
    )
    fleet_cls = WireFleet if backend.workers else MemberFleet
    return RekeyDaemon(
        server,
        backend=backend,
        fleet=fleet_cls.register_all(server),
        churn=churn,
        service=service,
        seed=seed,
        obs=obs,
        **kwargs,
    )


def run_fleet(
    plan="smoke",
    seed=7,
    clients=None,
    intervals=None,
    workers=None,
    obs_path=None,
    obs_dir=None,
    log=None,
):
    """Run one wire fleet; returns a :class:`FleetResult`.

    Never raises for run-induced failures — those land in
    ``result.failure`` so the CLI can report and exit non-zero, exactly
    like the chaos-soak harness.

    ``obs_dir`` turns on trace collection: the server's stream goes to
    ``<obs_dir>/server.jsonl`` (unless ``obs_path`` overrides it) and
    every worker process writes ``<obs_dir>/worker-NN.jsonl``; all
    streams are line-buffered so a dead process never loses its tail.
    The directory is what ``repro obs-report --trace-dir`` consumes.
    """
    from repro.core.config import GroupConfig
    from repro.service.churn import NoChurn, PoissonChurn
    from repro.service.daemon import DaemonConfig
    from repro.wire.delivery import WireDelivery

    plan = resolve_plan(
        plan, clients=clients, intervals=intervals, workers=workers
    )
    say = log if log is not None else (lambda line: None)
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
        if obs_path is None:
            obs_path = os.path.join(obs_dir, "server.jsonl")
    bus = EventBus(path=obs_path, line_buffered=obs_dir is not None)
    obs = Recorder(bus=bus)
    config = GroupConfig(block_size=plan.block_size, seed=int(seed))
    backend = WireDelivery(
        config, seed=int(seed) + 1, workers=plan.workers,
        obs_dir=obs_dir,
    )
    result = FleetResult(
        plan=plan.name,
        seed=int(seed),
        counters={
            "clients": plan.clients,
            "workers": plan.workers,
            "intervals_target": plan.intervals,
            "intervals_completed": 0,
            "cohorts": {},
            "worker_crash": False,
        },
    )
    churn = (
        PoissonChurn(alpha=plan.churn_alpha)
        if plan.churn_alpha > 0
        else NoChurn()
    )
    say(
        "fleet: plan %r, seed %d, %d clients%s, %d intervals"
        % (
            plan.name,
            seed,
            plan.clients,
            " on %d workers" % plan.workers if plan.workers else "",
            plan.intervals,
        )
    )
    daemon = None
    try:
        daemon = wire_daemon(
            plan.clients,
            churn,
            int(seed),
            obs,
            backend,
            DaemonConfig(deadline_rounds=config.max_multicast_rounds),
        )

        def on_interval(record):
            obs.emit(
                "wire_fleet_interval",
                interval=record.interval,
                members=record.n_members,
                rounds=record.multicast_rounds,
                unicast_served=record.unicast_served,
                decision=record.decision,
            )
            say(
                "  interval %d: %d members, %d rounds, %d by unicast"
                % (
                    record.interval,
                    record.n_members,
                    record.multicast_rounds,
                    record.unicast_served,
                )
            )

        daemon.run(plan.intervals, on_interval=on_interval)
        result.counters["intervals_completed"] = (
            daemon.server.intervals_processed
        )

        invariants = result.invariants
        invariants["completed"] = (
            daemon.server.intervals_processed >= plan.intervals
        )
        try:
            daemon.fleet.check_agreement(daemon.server)
            invariants["key-agreement"] = True
        except ReproError:
            invariants["key-agreement"] = False
        # The wire plane must have carried every interval: one record
        # per interval, every served member reported done on the socket.
        invariants["all-delivered"] = len(backend.records) == int(
            plan.intervals
        ) and all(
            record["served"] == len(record["recovery_rounds"])
            for record in backend.records
        )
        for name, passed in sorted(invariants.items()):
            say(
                "  invariant %-16s %s" % (name, "ok" if passed else "FAIL")
            )
    except WorkerCrashError as error:
        result.failure = error
        result.counters["worker_crash"] = True
        say("  fleet aborted: %s" % error)
    except ReproError as error:
        result.failure = error
        say("  fleet aborted: %s" % error)
    finally:
        backend.close()
        if daemon is not None:
            daemon.close()
        result.records = list(backend.records)
        result.digest = canonical_digest(result.records)
        result.counters["cohorts"] = cohort_summary(bus.events)
        obs.emit(
            "wire_fleet_complete",
            plan=plan.name,
            seed=int(seed),
            intervals=result.intervals_completed,
            digest=result.digest,
            ok=result.ok,
        )
        bus.close()
    return result
