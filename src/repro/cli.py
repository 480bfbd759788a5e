"""Command-line interface: ``python -m repro <command>``.

The commands:

- ``demo`` — run a small secure group through joins/leaves/rekeys and
  print what happened (the quickest smoke test of an install);
- ``simulate`` — run the fleet transport simulator with the paper's
  workload and print the adaptive-control trajectories;
- ``analyze`` — print the closed-form tables: expected rekey-message
  sizes and the max supportable group size per rekey interval;
- ``serve`` — run the long-lived rekey daemon: churn-driven intervals,
  WAL+snapshot durability (``--state-dir``), crash injection
  (``--crash-at``) and recovery (``--resume``), per-interval metrics,
  and the observability surface (``--metrics-port`` serves
  ``/healthz`` + ``/metrics``; ``--obs-file`` writes the structured
  event stream as JSONL — see ``docs/observability.md``).  With
  ``--role leader|standby`` it runs one half of a hot-standby pair:
  WAL streaming replication over ``--replication-port``/``--peer``,
  lease-based failover, and epoch fencing (see ``docs/ha.md``);
- ``obs-report`` — analyse an ``--obs-file``: headline paper metrics
  and a per-interval time breakdown, from the event stream alone;
- ``chaos-soak`` — run the daemon under a named deterministic fault
  plan and assert the recovery invariants (see ``docs/robustness.md``);
- ``ha-soak`` — run a leader/standby pair under a cluster fault plan
  (``leader-kill``, ``replication-partition``, ``split-brain``) and
  assert the failover invariants (see ``docs/ha.md``);
- ``fleet`` — run the asyncio wire plane end to end: a daemon with the
  ``wire`` backend serving hundreds-to-thousands of UDP loopback
  clients under seeded Gilbert loss, with a digest-pinned summary
  (see ``docs/networking.md``);
- ``wire-chaos-soak`` — run the wire plane under a survivability plan:
  seeded datagram faults, scripted client deaths, or a live-fleet
  leader failover, with digest-pinned invariants (see
  ``docs/robustness.md``);
- ``tenancy-soak`` — run the multi-tenant key service under a tenancy
  abuse plan (noisy-neighbor flash crowd, tenant-WAL corruption, mass
  re-home of ~1k tenants) and assert the isolation invariants (see
  ``docs/tenancy.md``).

``serve --tenants N`` switches the daemon into multi-tenant mode: N
heterogeneous groups on one deadline-aware scheduler with per-tenant
WAL/snapshot namespacing under ``--state-dir`` (see
``docs/tenancy.md``).

Every ``serve`` role (standalone, ``--role leader``, ``--role standby``,
``--tenants``) runs through :func:`_cmd_serve` over the role table
:data:`_SERVE_ROLES`: the flags' config, backend and churn, the obs bus
and metrics endpoint, the table, the exit codes (0 = done or an
injected crash, 1 = fenced out or a failed check, 2 = configuration
error) and the teardown are written once; a row holds only its role's
boot, rows and health line.

The four soak commands (``chaos-soak``, ``ha-soak``,
``wire-chaos-soak``, ``tenancy-soak``) are one table,
:data:`_SOAK_COMMANDS`, over the soak families of the one harness
(:func:`repro.chaos.soak.run_soak`): each row names its family, its
``--plan`` choices and size flags, and its summary lines; the shared
flags (``--seed``, ``--obs-file``, ``--expect-digest``, ``--json``,
``--list-plans``) are added once.  They and ``fleet`` share one result
protocol and one exit-code contract, implemented by
:func:`run_soak_command`: 0 = all invariants green, 1 = a failure or a
violated invariant, 2 = configuration error, 3 = digest mismatch,
4 = a worker process died.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass


def _build_parser():
    from repro.service import CRASH_POINTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reliable group rekeying (SIGCOMM 2001) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small secure group demo")
    demo.add_argument("--members", type=int, default=16)
    demo.add_argument("--intervals", type=int, default=3)
    demo.add_argument("--lossy", action="store_true")

    simulate = sub.add_parser(
        "simulate", help="run the fleet transport simulator"
    )
    simulate.add_argument("--users", type=int, default=4096)
    simulate.add_argument("--degree", type=int, default=4)
    simulate.add_argument("--k", type=int, default=10)
    simulate.add_argument("--alpha", type=float, default=0.20)
    simulate.add_argument("--rho", type=float, default=1.0)
    simulate.add_argument("--num-nack", type=int, default=20)
    simulate.add_argument("--messages", type=int, default=10)
    simulate.add_argument(
        "--fixed-rho",
        action="store_true",
        help="disable the AdjustRho controller",
    )
    simulate.add_argument("--seed", type=int, default=1)

    analyze = sub.add_parser("analyze", help="print the analytic tables")
    analyze.add_argument("--users", type=int, default=4096)
    analyze.add_argument("--degree", type=int, default=4)

    serve = sub.add_parser(
        "serve", help="run the long-running rekey daemon"
    )
    serve.add_argument("--members", type=int, default=64)
    serve.add_argument("--intervals", type=int, default=20)
    serve.add_argument(
        "--churn",
        choices=["poisson", "flash", "trace", "none"],
        default="poisson",
    )
    serve.add_argument("--alpha", type=float, default=0.20)
    serve.add_argument("--trace-file", default=None)
    serve.add_argument(
        "--transport",
        choices=["direct", "sim", "wire"],
        default="sim",
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1",
        metavar="HOST",
        help="wire transport: the address the UDP server binds",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="wire transport: the UDP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--interval-seconds",
        type=float,
        default=0.0,
        help="real-time pacing per interval (0 = as fast as possible)",
    )
    serve.add_argument("--deadline-rounds", type=int, default=2)
    serve.add_argument(
        "--deadline-policy", choices=["unicast", "carry"], default="unicast"
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        help="directory for the WAL + snapshots (enables durability)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="recover from --state-dir instead of booting a fresh group",
    )
    serve.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="INTERVAL",
        help="inject a SIGKILL-style crash mid-interval N "
        "(then restart with --resume to exercise recovery)",
    )
    serve.add_argument(
        "--crash-point",
        choices=CRASH_POINTS,
        default="post-rekey",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the full metrics ledger as JSON at the end",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /healthz and /metrics on this port while running "
        "(0 = pick an ephemeral port; enables observability)",
    )
    serve.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="write the structured event stream as JSONL here "
        "(enables observability; analyse with `repro obs-report`)",
    )
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--role",
        choices=["standalone", "leader", "standby"],
        default="standalone",
        help="hot-standby role (leader/standby need --state-dir; "
        "see docs/ha.md)",
    )
    serve.add_argument(
        "--node-id",
        default=None,
        help="this node's cluster identity (default: the role name)",
    )
    serve.add_argument(
        "--replication-port",
        type=int,
        default=0,
        metavar="PORT",
        help="leader: accept replication subscribers here "
        "(0 = ephemeral)",
    )
    serve.add_argument(
        "--peer",
        default=None,
        metavar="HOST:PORT",
        help="standby: the leader's replication address",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        help="seconds without renewal before the leader lease lapses",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help="multi-tenant mode: run N heterogeneous groups on one "
        "deadline scheduler with per-tenant state under --state-dir "
        "(--intervals then counts scheduler ticks; see docs/tenancy.md)",
    )
    serve.add_argument(
        "--tick-budget",
        type=int,
        default=None,
        metavar="COST",
        help="multi-tenant mode: per-tick cost budget for overload "
        "control (default: unlimited)",
    )
    serve.add_argument(
        "--solo-fraction",
        type=float,
        default=0.5,
        help="multi-tenant mode: fraction of the tick budget one "
        "tenant may claim before it is treated as a whale",
    )

    obs_report = sub.add_parser(
        "obs-report",
        help="analyse obs event streams (JSONL files or directories)",
    )
    obs_report.add_argument(
        "paths",
        nargs="*",
        help="JSONL files or stream directories to merge and analyse",
    )
    obs_report.add_argument(
        "--obs-file",
        action="append",
        dest="obs_files",
        default=None,
        metavar="PATH",
        help="additional JSONL stream to merge in (repeatable)",
    )
    obs_report.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="a fleet --obs-dir: assemble per-member recovery "
        "timelines and the per-cohort latency CDF from its streams",
    )

    fleet = _add_run_parser(
        sub,
        "fleet",
        "drive a client fleet over real UDP loopback",
        "smoke",
        ("clients", "intervals", "workers"),
        "fleet digest",
    )
    fleet.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="collect distributed traces: one line-buffered JSONL "
        "stream per process (server.jsonl + worker-NN.jsonl); "
        "analyse with `repro obs-report --trace-dir DIR`",
    )
    for command, soak in _SOAK_COMMANDS.items():
        _add_run_parser(
            sub,
            command,
            soak.help,
            soak.plan_default,
            soak.sizes,
            soak.digest_label,
        )
    return parser


def _cmd_demo(args, out):
    from repro import GroupConfig, SecureGroup
    from repro.util import spawn_rng

    rng = spawn_rng(7)
    group = SecureGroup(
        ["member-%d" % i for i in range(args.members)],
        GroupConfig(block_size=5),
    )
    print("created %r" % group, file=out)
    print("group key: %s" % group.server.group_key.fingerprint(), file=out)
    for interval in range(args.intervals):
        group.churn(
            int(rng.integers(1, 4)),
            int(rng.integers(1, 4)),
            rng=rng,
            lossy=args.lossy,
        )
        report = group.last_delivery
        detail = ""
        if report is not None:
            detail = " (rounds=%d, NACKs=%d, unicast=%d)" % (
                report.multicast_rounds,
                report.first_round_nacks,
                report.unicast_served,
            )
        print(
            "interval %d: %d members, key %s%s"
            % (
                interval + 1,
                group.n_members,
                group.server.group_key.fingerprint(),
                detail,
            ),
            file=out,
        )
    agree = all(
        member.group_key == group.server.group_key
        for member in group.members.values()
    )
    print("all members agree on the group key: %s" % agree, file=out)
    locked = all(
        member.group_key != group.server.group_key
        for member in group.former_members.values()
    )
    print("all departed members locked out: %s" % locked, file=out)
    return 0 if agree and locked else 1


def _cmd_simulate(args, out):
    from repro.sim import build_paper_topology
    from repro.transport import FleetConfig, FleetSimulator
    from repro.transport.fleet import make_paper_workload

    workload = make_paper_workload(
        n_users=args.users, degree=args.degree, k=args.k, seed=args.seed
    )
    print(
        "workload: %d ENC packets, %d blocks (k=%d), %d active users"
        % (
            workload.n_enc_packets,
            workload.n_blocks,
            workload.k,
            workload.n_users,
        ),
        file=out,
    )
    topology = build_paper_topology(
        n_users=workload.n_users, alpha=args.alpha, seed=args.seed + 1
    )
    simulator = FleetSimulator(
        topology,
        FleetConfig(
            rho=args.rho,
            num_nack=args.num_nack,
            adapt_rho=not args.fixed_rho,
            multicast_only=True,
        ),
        seed=args.seed + 2,
    )
    sequence = simulator.run_sequence(lambda i: workload, args.messages)
    print("msg |  rho  | NACKs | bw-overhead | rounds", file=out)
    for index in range(sequence.n_messages):
        message = sequence.messages[index]
        print(
            "%3d | %.2f  | %5d | %11.2f | %6d"
            % (
                index,
                sequence.rho_trajectory[index],
                message.first_round_nacks,
                message.bandwidth_overhead,
                message.n_multicast_rounds,
            ),
            file=out,
        )
    print(
        "steady state: NACKs %.1f, overhead %.2f, rounds(all) %.2f"
        % (
            sequence.mean_first_round_nacks(skip=2),
            sequence.mean_bandwidth_overhead(skip=2),
            sequence.mean_rounds_for_all(skip=2),
        ),
        file=out,
    )
    return 0


def _cmd_analyze(args, out):
    from repro.analysis import (
        expected_encryptions_leaves_only,
        max_supported_group_size,
    )

    n_users, degree = args.users, args.degree
    print(
        "expected encryptions per rekey message (N=%d, d=%d, J=0):"
        % (n_users, degree),
        file=out,
    )
    for fraction in (0.05, 0.25, 0.5, 0.75):
        n_leaves = int(n_users * fraction)
        value = expected_encryptions_leaves_only(n_users, degree, n_leaves)
        print("  L = %6d : %10.1f" % (n_leaves, value), file=out)
    print("", file=out)
    print("max supportable group size (25%% churn, d=%d):" % degree, file=out)
    for interval in (1, 10, 60, 300):
        print(
            "  interval %4ds : %d"
            % (interval, max_supported_group_size(interval, degree=degree)),
            file=out,
        )
    return 0


class _Serve:
    """One ``serve`` run: its flags, its output, the
    :class:`contextlib.ExitStack` that closes whatever it opens, and the
    parts every role builds from the flags."""

    def __init__(self, args, out, cleanup):
        from repro.obs.recorder import NULL

        self.args, self.out, self.cleanup = args, out, cleanup
        #: intervals still to run (a promoted standby runs the rest)
        self.intervals = args.intervals
        #: called after each interval, before its row is printed
        self.on_interval = None
        self.obs = NULL
        if args.obs_file is not None or args.metrics_port is not None:
            from repro.obs import EventBus, Recorder

            bus = EventBus(path=args.obs_file)
            cleanup.callback(bus.close)
            self.obs = Recorder(bus=bus)

    def say(self, line):
        print(line, file=self.out)

    def churn(self):
        from repro.service import make_driver

        args = self.args
        return make_driver(
            args.churn, alpha=args.alpha, trace_path=args.trace_file
        )

    def backend(self, config):
        from repro.service import make_backend

        args = self.args
        backend = make_backend(args.transport, config, seed=config.seed + 1,
                               host=args.bind, port=args.port)
        if hasattr(backend, "close"):
            self.cleanup.callback(backend.close)
        return backend

    def group(self):
        """The single-group config, and the keyword arguments that boot,
        recover or promote a daemon over it."""
        from repro.core.config import GroupConfig
        from repro.service import CrashPlan, DaemonConfig

        args = self.args
        config = GroupConfig(block_size=5, seed=args.seed)
        service = DaemonConfig(
            state_dir=args.state_dir,
            interval_seconds=args.interval_seconds,
            deadline_rounds=args.deadline_rounds,
            deadline_policy=args.deadline_policy,
            crash_plan=None if args.crash_at is None
            else CrashPlan(args.crash_at, args.crash_point),
        )
        return config, dict(backend=self.backend(config), churn=self.churn(),
                            service=service, seed=args.seed, obs=self.obs)


def _start_group(serve, config, parts, **ha):
    """Boot the single-group daemon fresh, or recover it (``--resume``)."""
    from repro.service import RekeyDaemon

    args = serve.args
    if args.resume:
        daemon = serve.cleanup.enter_context(RekeyDaemon.recover(
            args.state_dir, config=config, **parts, **ha
        ))
        serve.say(
            "recovered: %d members at interval %d, %d request(s) replayed"
            % (daemon.server.n_users, daemon.server.intervals_processed,
               daemon.metrics.counters["requests_replayed"])
        )
        return daemon
    daemon = serve.cleanup.enter_context(RekeyDaemon.start_new(
        ["member-%03d" % i for i in range(args.members)],
        config=config, **parts, **ha
    ))
    serve.say(
        "serving a %d-member group (%s transport, %s churn, %s engine%s)"
        % (daemon.server.n_users, args.transport, args.churn, config.engine,
           ", durable" if args.state_dir else "")
    )
    return daemon


def _lease(serve):
    """This node's handle on the pair's lease file in ``--state-dir``."""
    import os

    from repro.ha.lease import Lease

    args = serve.args
    # The lease file is written before the daemon gets a chance to
    # create the directory.
    os.makedirs(args.state_dir, exist_ok=True)
    return Lease(os.path.join(args.state_dir, "lease.json"), args.node_id,
                 ttl=args.lease_ttl, obs=serve.obs)


def _boot_leader(serve):
    """The durable daemon, fenced by the lease, streaming its WAL."""
    from repro.ha.replication import LeaderPublisher, ReplicationServer

    args = serve.args
    config, parts = serve.group()
    lease = _lease(serve)
    epoch = lease.acquire()
    daemon = _start_group(serve, config, parts, epoch=epoch, fence=lease)
    serve.obs.emit("ha_role", node=args.node_id, role="leader", epoch=epoch)
    publisher = daemon.attach_replication(
        LeaderPublisher(epoch, wal=daemon.wal, obs=daemon.obs)
    )

    def on_subscribe(sink, payload):
        # Bootstrap under the daemon lock: the snapshot and the stream
        # position must name the same instant.
        with daemon._lock:
            publisher.subscribe(
                sink,
                since_seq=int(payload.get("since_seq", 0)),
                server=daemon.server,
            )

    replication = ReplicationServer(on_subscribe, port=args.replication_port)
    serve.cleanup.callback(replication.close)
    serve.say(
        "leader %r: epoch %d, %d members, replicating on port %d"
        % (args.node_id, epoch, daemon.server.n_users, replication.port)
    )

    def renew_and_heartbeat():
        lease.renew()
        publisher.heartbeat()

    serve.on_interval = renew_and_heartbeat
    return daemon


def _boot_standby(serve):
    """Tail the leader; promote if its lease lapses before the target."""
    import time

    from repro.errors import HaError, ReplicationError
    from repro.ha.replication import ReplicationClient
    from repro.ha.standby import StandbyReplica, promote

    args = serve.args
    config, parts = serve.group()
    lease = _lease(serve)
    host, _, port = args.peer.partition(":")
    replica = StandbyReplica(config=config, node_id=args.node_id,
                             obs=serve.obs)
    client = ReplicationClient(host, int(port or 0), args.node_id,
                               obs=serve.obs)
    serve.cleanup.callback(client.close)
    try:
        client.connect()
    except OSError as error:
        serve.say("error: cannot reach leader at %s: %s" % (args.peer, error))
        return 2
    serve.obs.emit("ha_role", node=args.node_id, role="standby", epoch=0)
    serve.say("standby %r: following %s, target %d interval(s)"
              % (args.node_id, args.peer, args.intervals))

    def caught_up():
        return (replica.server is not None
                and replica.server.intervals_processed >= args.intervals)

    while not caught_up():
        if not client.connected:
            # A finished or dead leader stops renewing, so the lease
            # lapses; until then, keep trying to rejoin.
            if lease.expired():
                break
            try:
                client.connect(since_seq=replica.applied_seq + 1)
            except OSError:
                time.sleep(0.2)
            continue
        payloads = client.poll(0.5)
        if payloads:
            replica.apply_frames(payloads)
        elif payloads is None:
            client.close()  # disconnected; reconnect or promote
    if caught_up():
        # The final commit's digest frame trails its WAL record; give it
        # a moment to arrive before reporting convergence.
        for _ in range(10):
            if replica.digest_ok is not None:
                break
            payloads = client.poll(0.2)
            if not payloads:
                break
            replica.apply_frames(payloads)
        digest = {True: "ok", False: "MISMATCH", None: "unverified"}
        serve.say("standby caught up: interval %d, lag %d, digest %s"
                  % (replica.server.intervals_processed, replica.lag(),
                     digest[replica.digest_ok]))
        return 0 if replica.digest_ok is not False else 1
    # The leader is gone and its lease has lapsed: take over.
    try:
        daemon = promote(replica, args.state_dir, lease, **parts)
    except (HaError, ReplicationError) as error:
        serve.say("cannot promote: %s" % error)
        return 1
    serve.cleanup.enter_context(daemon)
    done = daemon.server.intervals_processed
    serve.say("promoted to leader: epoch %d at interval %d"
              % (daemon.epoch, done))
    serve.intervals = max(0, args.intervals - done)
    return daemon


def _refuse_tenants(args):
    if args.role != "standalone":
        return ("error: --tenants runs standalone (bulk failover is the "
                "tenancy-soak mass-rehome plan; see docs/tenancy.md)")
    if args.metrics_port is not None:
        return "error: --metrics-port is not supported with --tenants"
    if args.transport not in ("direct", "sim"):
        return "error: --tenants supports the direct and sim transports"
    return None


def _boot_tenants(serve):
    """``--tenants N``: the multi-group daemon on one scheduler."""
    import tempfile

    from repro.tenancy import MultiGroupDaemon, make_fleet

    args = serve.args
    state_root = args.state_dir or tempfile.mkdtemp(prefix="repro-tenants-")
    registry = make_fleet(args.tenants, seed=args.seed)
    common = dict(
        churn={spec.name: serve.churn() for spec in registry},
        budget=args.tick_budget,
        solo_fraction=args.solo_fraction,
        backend_factory=lambda spec: serve.backend(spec.config),
        obs=serve.obs,
    )
    if args.resume:
        daemon = serve.cleanup.enter_context(
            MultiGroupDaemon.recover_all(state_root, **common)
        )
        serve.say("recovered %d tenant(s) from %s"
                  % (len(daemon.registry), state_root))
        return daemon
    daemon = serve.cleanup.enter_context(
        MultiGroupDaemon.start_new(registry, state_root, **common)
    )
    serve.say(
        "serving %d tenant group(s) under %s (%s transport, %s churn%s)"
        % (len(registry), state_root, args.transport, args.churn,
           ", budget %d/tick" % args.tick_budget if args.tick_budget else "")
    )
    return daemon


def _run_table(serve, daemon):
    """The per-interval table while the group daemon runs."""
    from repro.service import ServiceMetrics

    serve.say(ServiceMetrics.TABLE_HEADER)

    def on_interval(record):
        if serve.on_interval is not None:
            serve.on_interval()
        serve.say(ServiceMetrics.format_row(record))

    daemon.run(serve.intervals, on_interval=on_interval)
    return 0


def _run_ticks(serve, daemon):
    """One row per scheduler tick, then the per-tenant agreement check."""
    for _ in range(serve.intervals):
        plan = daemon.tick()
        serve.say("tick %3d: ran %d, deferred %d, quarantined %d, cost %d"
                  % (plan.tick, len(plan.run), len(plan.deferred),
                     len(daemon.quarantined_names()), plan.cost_total))
    broken = daemon.check_agreement()
    if broken:
        serve.say("key agreement broken in tenant(s): %s" % ", ".join(broken))
        return 1
    return 0


def _health_ledger(daemon):
    import json

    return json.dumps(daemon.health(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class _ServeRole:
    """One ``serve`` role: only what :func:`_cmd_serve` cannot share."""

    #: ``refuse(args)``: why these flags cannot run the role, or None
    refuse: object
    #: ``boot(serve)``: the daemon to run, or an exit code when the role
    #: is done without one (a standby that caught up)
    boot: object
    #: ``health(report)``: the closing line, from ``daemon.health()``
    health: object
    #: ``run(serve, daemon)``: run while printing rows; the exit code
    run: object = _run_table
    #: ``ledger(daemon)``: the ``--json`` dump
    ledger: object = lambda daemon: daemon.metrics.to_json(indent=2)


_SERVE_ROLES = {
    "standalone": _ServeRole(
        lambda args: None,
        lambda serve: _start_group(serve, *serve.group()),
        lambda h: "health: %s (%d members, %d intervals, "
        "%d deadline miss(es))" % (h["status"], h["members"],
                                   h["intervals_processed"],
                                   h["deadline_misses"]),
    ),
    "leader": _ServeRole(
        lambda args: None if args.state_dir else (
            "--role leader needs --state-dir "
            "(the shared WAL/snapshot/lease directory)"
        ),
        _boot_leader,
        lambda h: "health: %s (role %s, epoch %d, %d followers, "
        "%d intervals)" % (h["status"], h["ha"]["role"], h["ha"]["epoch"],
                           h["ha"]["replication"]["followers"],
                           h["intervals_processed"]),
    ),
    "standby": _ServeRole(
        lambda args: None if args.state_dir and args.peer else (
            "--role standby needs --state-dir and --peer HOST:PORT"
        ),
        _boot_standby,
        lambda h: "health: %s (role %s, epoch %d, %d intervals)"
        % (h["status"], h["ha"]["role"], h["ha"]["epoch"],
           h["intervals_processed"]),
    ),
    "tenants": _ServeRole(
        _refuse_tenants,
        _boot_tenants,
        lambda h: "health: %s (%d tenants, %d intervals, %d quarantined)"
        % (h["status"], h["tenants"], h["intervals_total"],
           len(h["quarantined"])),
        run=_run_ticks,
        ledger=_health_ledger,
    ),
}


def _cmd_serve(args, out):
    """``serve``: one runner for every role in :data:`_SERVE_ROLES`."""
    import contextlib

    from repro.errors import ReproError, StaleEpochError
    from repro.service import DaemonCrash

    role = _SERVE_ROLES["tenants" if args.tenants is not None else args.role]
    refusal = role.refuse(args)
    if refusal is None and args.resume and not args.state_dir:
        refusal = "--resume needs --state-dir"
    if refusal is not None:
        print(refusal, file=out)
        return 2
    if args.node_id is None:
        args.node_id = args.role
    with contextlib.ExitStack() as cleanup:
        serve = _Serve(args, out, cleanup)
        try:
            daemon = role.boot(serve)
        except ReproError as error:
            serve.say("error: %s" % error)
            return 2
        if isinstance(daemon, int):
            return daemon
        if args.metrics_port is not None:
            from repro.obs.httpd import MetricsServer

            scrape = MetricsServer.for_daemon(
                daemon, port=args.metrics_port
            ).start()
            cleanup.callback(scrape.stop)
            serve.say("metrics: %s/metrics  health: %s/healthz"
                      % (scrape.url, scrape.url))
        try:
            exit_code = role.run(serve, daemon)
        except DaemonCrash as crash:
            serve.say("daemon crashed: %s" % crash)
            serve.say(
                "state survives in %s; rerun with --resume to recover"
                % args.state_dir if args.state_dir
                else "no --state-dir was set: nothing survives this crash"
            )
            exit_code = 0 if args.crash_at is not None else 1
        except StaleEpochError as error:
            # A standby promoted over us: stop writing, immediately.
            serve.say("fenced out: %s" % error)
            exit_code = 1
    serve.say(role.health(daemon.health()))
    if args.json:
        serve.say(role.ledger(daemon))
    if args.obs_file:
        serve.say("wrote obs events to %s" % args.obs_file)
    return exit_code


def _cmd_obs_report(args, out):
    from repro.errors import ObsError
    from repro.obs.report import render_report

    paths = list(args.paths)
    if args.obs_files:
        paths.extend(args.obs_files)
    if not paths:
        if args.trace_dir is None:
            print(
                "error: nothing to analyse (give paths, --obs-file, "
                "or --trace-dir)",
                file=out,
            )
            return 2
        # The trace dir's streams double as the report's event input.
        paths = [args.trace_dir]
    try:
        lines = render_report(paths, trace_dir=args.trace_dir)
    except (OSError, ObsError) as error:
        print("error: %s" % error, file=out)
        return 2
    for line in lines:
        print(line, file=out)
    return 0


def run_soak_command(
    args,
    out,
    label,
    digest_label,
    run,
    error_types,
    list_plans=None,
    summarize=None,
    failure_note=None,
):
    """The shared driver behind every digest-pinned soak command.

    All five runners (``chaos-soak``, ``ha-soak``, ``fleet``,
    ``wire-chaos-soak``, ``tenancy-soak``) speak the same result
    protocol — ``digest`` / ``failure`` / ``ok`` / ``invariants`` /
    ``to_dict()`` — and differ only in how the run is launched and how
    its summary reads.  This helper owns everything else, including the
    exit-code contract:

    - 0 — the run finished and every invariant held;
    - 1 — the run failed outright or violated an invariant;
    - 2 — configuration error (unknown plan, bad arguments);
    - 3 — ``--expect-digest`` did not match the run's digest;
    - 4 — a worker process died (``result.worker_crash``).

    ``run`` launches the soak given a ``log`` callable and returns the
    result; ``error_types`` are the config-error exceptions mapped to
    exit 2; ``list_plans`` handles ``--list-plans``; ``summarize``
    prints the command's headline lines; ``failure_note`` may add
    diagnostics under a FAILED verdict.
    """
    import json

    if getattr(args, "list_plans", False):
        list_plans(out)
        return 0
    try:
        result = run(lambda line: print(line, file=out))
    except error_types as error:
        print("error: %s" % error, file=out)
        return 2
    if summarize is not None:
        summarize(result, out)
    print("%s: %s" % (digest_label, result.digest), file=out)
    if getattr(args, "json", False):
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True),
              file=out)
    if getattr(args, "obs_file", None):
        print("wrote obs events to %s" % args.obs_file, file=out)
    if getattr(args, "obs_dir", None):
        print("wrote trace streams to %s" % args.obs_dir, file=out)
    if args.expect_digest and args.expect_digest != result.digest:
        print(
            "digest mismatch: expected %s" % args.expect_digest, file=out
        )
        return 3
    if result.failure is not None:
        print("%s: FAILED: %s" % (label, result.failure), file=out)
        if failure_note is not None:
            failure_note(result, out)
        # A dead worker process is a different diagnosis than a missed
        # invariant — give operators (and CI) a distinct exit code.
        return 4 if getattr(result, "worker_crash", False) else 1
    if not result.ok:
        failed = sorted(
            name for name, passed in result.invariants.items() if not passed
        )
        print(
            "%s: invariant(s) violated: %s" % (label, ", ".join(failed)),
            file=out,
        )
        return 1
    print("%s: all invariants green" % label, file=out)
    return 0


def _cmd_fleet(args, out):
    from repro.errors import WireError
    from repro.wire.fleet import FLEET_PLANS, run_fleet

    def list_plans(out):
        for name, plan in FLEET_PLANS.items():
            print("  %-22s %s" % (name, plan.description), file=out)

    def summarize(result, out):
        print(
            "fleet: %d client(s)%s, %d/%d interval(s)"
            % (
                result.clients,
                " on %d workers" % result.workers if result.workers else "",
                result.intervals_completed,
                result.intervals_target,
            ),
            file=out,
        )
        for cohort in sorted(result.cohorts):
            stats = result.cohorts[cohort]
            print(
                "  cohort %-5s %4d report(s): recovery p50/p90/p99 "
                "%.1f/%.1f/%.1f ms, rounds %.2f, unicast %d, dropped %d"
                % (
                    cohort,
                    stats["reports"],
                    stats["recovery_ms"]["p50"],
                    stats["recovery_ms"]["p90"],
                    stats["recovery_ms"]["p99"],
                    stats["rounds_mean"],
                    stats["unicast"],
                    stats["dropped"],
                ),
                file=out,
            )

    return run_soak_command(
        args,
        out,
        label="fleet",
        digest_label="fleet digest",
        run=lambda log: run_fleet(
            plan=args.plan,
            seed=args.seed,
            clients=args.clients,
            intervals=args.intervals,
            workers=args.workers,
            obs_path=args.obs_file,
            obs_dir=args.obs_dir,
            log=log,
        ),
        error_types=(WireError,),
        list_plans=list_plans,
        summarize=summarize,
    )


#: flag help for each size override (the flag is ``--`` + the name
#: with dashes); ``None`` defaults come from the plan
_SIZE_HELP = {
    "intervals": "override the plan's designed interval count",
    "members": "override the plan's member count",
    "clients": "override the plan's client count",
    "workers": "override the plan's worker-process count (0 = in-process)",
    "tenants": "override the plan's tenant count",
    "ticks": "override the plan's scheduler tick count",
    "state_dir": "WAL/snapshot/lease directory, kept after the run "
    "(default: a scratch dir, removed)",
    "state_root": "shared storage root for all tenants, kept after the "
    "run (default: a scratch dir, removed)",
}


@dataclass(frozen=True)
class _SoakCommand:
    """One soak subcommand over a :class:`~repro.chaos.soak.SoakFamily`."""

    family: str
    help: str
    #: the default ``--plan`` (any name is accepted; the harness rejects
    #: unknown ones, exit 2)
    plan_default: str
    #: the family's size overrides, as flags
    sizes: tuple
    digest_label: str
    #: ``summary(result, out)`` prints the headline lines
    summary: object
    #: families whose plans ``--list-plans`` prints
    lists: tuple


def _chaos_summary(r, out):
    print(
        "chaos-soak: %d fault(s) injected, %d restart(s), "
        "%d/%d interval(s)"
        % (r.faults_injected, r.restarts, r.intervals_completed,
           r.intervals_target),
        file=out,
    )


def _ha_summary(r, out):
    print(
        "ha-soak: %d fault(s) injected, %d promotion(s), "
        "final epoch %d, %d/%d interval(s)"
        % (r.faults_injected, r.promotions, r.final_epoch,
           r.intervals_completed, r.intervals_target),
        file=out,
    )


def _wire_summary(r, out):
    print(
        "wire-chaos-soak: %d fault(s) applied, %d eviction(s), "
        "%d promotion(s), %d/%d interval(s)"
        % (sum(r.faults_applied.values()), r.evictions, r.promotions,
           r.intervals_completed, r.intervals_target),
        file=out,
    )


def _tenancy_summary(r, out):
    print(
        "tenancy-soak: %d tenant(s), %d/%d tick(s), %d interval(s), "
        "%d shed, %d quarantine(s), %d promotion(s)"
        % (r.tenants, r.ticks_completed, r.ticks_target,
           r.intervals_total, r.shed_total, r.quarantines, r.promotions),
        file=out,
    )
    if r.rehomed:
        print(
            "  re-homed %d tenant(s) under epoch %d "
            "(%d digest(s) verified, %d request(s) replayed)"
            % (r.rehomed, r.final_epoch, r.digests_verified,
               r.requests_replayed),
            file=out,
        )


_SOAK_COMMANDS = {
    "chaos-soak": _SoakCommand(
        "chaos",
        "run the daemon under a deterministic fault plan",
        "standard",
        ("intervals", "members", "state_dir"),
        "fault-timeline digest",
        _chaos_summary,
        ("chaos", "ha"),
    ),
    "ha-soak": _SoakCommand(
        "ha",
        "run a leader/standby pair under a cluster fault plan",
        "leader-kill",
        ("intervals", "members", "state_dir"),
        "fault-timeline digest",
        _ha_summary,
        ("ha",),
    ),
    "wire-chaos-soak": _SoakCommand(
        "wire",
        "run the wire plane under a survivability fault plan",
        "datagram-storm",
        ("clients", "intervals", "workers"),
        "wire-timeline digest",
        _wire_summary,
        ("wire",),
    ),
    "tenancy-soak": _SoakCommand(
        "tenancy",
        "run the multi-tenant key service under an abuse plan",
        "noisy-neighbor",
        ("tenants", "ticks", "state_root"),
        "tenancy-timeline digest",
        _tenancy_summary,
        ("tenancy",),
    ),
}


def _add_run_parser(sub, command, help, plan_default, sizes, digest_label):
    """A digest-pinned run command: ``--plan``, its size flags, and the
    flags every such command shares."""
    parser = sub.add_parser(command, help=help)
    parser.add_argument(
        "--plan",
        default=plan_default,
        help="named plan (see --list-plans)",
    )
    parser.add_argument("--seed", type=int, default=7)
    for size in sizes:
        parser.add_argument(
            "--" + size.replace("_", "-"),
            type=None if size.startswith("state_") else int,
            default=None,
            help=_SIZE_HELP[size],
        )
    parser.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    parser.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's %s matches" % digest_label,
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON at the end",
    )
    parser.add_argument(
        "--list-plans",
        action="store_true",
        help="list the named plans and exit",
    )
    return parser


def _cmd_soak(args, out):
    from repro.chaos.soak import run_soak, soak_family

    soak = _SOAK_COMMANDS[args.command]
    family = soak_family(soak.family)

    def list_plans(out):
        for name in soak.lists:
            listed = soak_family(name)
            print("%s plans (%s):" % (name, listed.command), file=out)
            for plan, entry in listed.plans.items():
                print("  %-22s %s" % (plan, entry.description), file=out)

    def failure_note(result, out):
        if not result.counters.get("expect_recoverable", True):
            print(
                "(plan %r is deliberately unrecoverable; the diagnostic "
                "above is its expected outcome)" % result.plan,
                file=out,
            )

    return run_soak_command(
        args,
        out,
        label=args.command,
        digest_label=soak.digest_label,
        run=lambda log: run_soak(
            family,
            args.plan,
            seed=args.seed,
            log=log,
            obs_path=args.obs_file,
            **{size: getattr(args, size) for size in soak.sizes},
        ),
        error_types=family.error_types,
        list_plans=list_plans,
        summarize=soak.summary,
        failure_note=failure_note,
    )


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "obs-report": _cmd_obs_report,
        "fleet": _cmd_fleet,
    }
    handlers.update(dict.fromkeys(_SOAK_COMMANDS, _cmd_soak))
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
