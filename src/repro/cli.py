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

The four digest-pinned soak commands (``chaos-soak``, ``ha-soak``,
``fleet``, ``wire-chaos-soak``, plus ``tenancy-soak``) share one
result protocol and one exit-code contract, implemented by
:func:`run_soak_command`: 0 = all invariants green, 1 = a failure or a
violated invariant, 2 = configuration error, 3 = digest mismatch,
4 = a worker process died.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser():
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
        choices=["mid-requests", "pre-rekey", "post-rekey",
                 "post-delivery", "post-snapshot"],
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

    chaos = sub.add_parser(
        "chaos-soak",
        help="run the daemon under a deterministic fault plan",
    )
    chaos.add_argument(
        "--plan",
        choices=["standard", "io-storm", "storage-corruptor",
                 "feedback-abuse", "unrecoverable"],
        default="standard",
        help="named fault plan (see docs/robustness.md)",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override the plan's designed interval count",
    )
    chaos.add_argument("--members", type=int, default=24)
    chaos.add_argument(
        "--state-dir",
        default=None,
        help="WAL/snapshot directory (default: a fresh temp dir)",
    )
    chaos.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    chaos.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's fault-timeline digest matches",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the soak result as JSON at the end",
    )
    chaos.add_argument(
        "--list-plans",
        action="store_true",
        help="list every named fault plan (single-node and HA) and exit",
    )

    ha = sub.add_parser(
        "ha-soak",
        help="run a leader/standby pair under a cluster fault plan",
    )
    ha.add_argument(
        "--plan",
        choices=["leader-kill", "replication-partition", "split-brain"],
        default="leader-kill",
        help="named cluster fault plan (see docs/ha.md)",
    )
    ha.add_argument("--seed", type=int, default=7)
    ha.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override the plan's designed interval count",
    )
    ha.add_argument("--members", type=int, default=24)
    ha.add_argument(
        "--state-dir",
        default=None,
        help="shared WAL/snapshot/lease directory (default: temp dir)",
    )
    ha.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    ha.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's fault-timeline digest matches",
    )
    ha.add_argument(
        "--json",
        action="store_true",
        help="emit the soak result as JSON at the end",
    )
    ha.add_argument(
        "--list-plans",
        action="store_true",
        help="list the cluster fault plans and exit",
    )

    fleet = sub.add_parser(
        "fleet",
        help="drive a client fleet over real UDP loopback",
    )
    fleet.add_argument(
        "--plan",
        default="smoke",
        help="named fleet plan (see --list-plans; docs/networking.md)",
    )
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument(
        "--clients",
        type=int,
        default=None,
        help="override the plan's client count",
    )
    fleet.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override the plan's interval count",
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the plan's worker-process count (0 = in-process)",
    )
    fleet.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    fleet.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="collect distributed traces: one line-buffered JSONL "
        "stream per process (server.jsonl + worker-NN.jsonl); "
        "analyse with `repro obs-report --trace-dir DIR`",
    )
    fleet.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's fleet digest matches",
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help="emit the fleet result as JSON at the end",
    )
    fleet.add_argument(
        "--list-plans",
        action="store_true",
        help="list every named fleet plan and exit",
    )

    wire_chaos = sub.add_parser(
        "wire-chaos-soak",
        help="run the wire plane under a survivability fault plan",
    )
    wire_chaos.add_argument(
        "--plan",
        default="datagram-storm",
        help="named wire fault plan (see --list-plans; "
        "docs/robustness.md)",
    )
    wire_chaos.add_argument("--seed", type=int, default=7)
    wire_chaos.add_argument(
        "--clients",
        type=int,
        default=None,
        help="override the plan's client count",
    )
    wire_chaos.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="override the plan's interval count",
    )
    wire_chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the plan's worker-process count (0 = in-process)",
    )
    wire_chaos.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    wire_chaos.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's wire-timeline digest matches",
    )
    wire_chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the soak result as JSON at the end",
    )
    wire_chaos.add_argument(
        "--list-plans",
        action="store_true",
        help="list every named wire fault plan and exit",
    )

    tenancy = sub.add_parser(
        "tenancy-soak",
        help="run the multi-tenant key service under an abuse plan",
    )
    tenancy.add_argument(
        "--plan",
        choices=["noisy-neighbor", "tenant-wal-corruption", "mass-rehome"],
        default="noisy-neighbor",
        help="named tenancy plan (see --list-plans; docs/tenancy.md)",
    )
    tenancy.add_argument("--seed", type=int, default=7)
    tenancy.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="override the plan's tenant count",
    )
    tenancy.add_argument(
        "--ticks",
        type=int,
        default=None,
        help="override the plan's scheduler tick count",
    )
    tenancy.add_argument(
        "--state-root",
        default=None,
        help="shared storage root for all tenants (default: temp dir)",
    )
    tenancy.add_argument(
        "--obs-file",
        default=None,
        metavar="PATH",
        help="also write the event stream as JSONL (for obs-report)",
    )
    tenancy.add_argument(
        "--expect-digest",
        default=None,
        metavar="SHA256",
        help="fail unless the run's tenancy-timeline digest matches",
    )
    tenancy.add_argument(
        "--json",
        action="store_true",
        help="emit the soak result as JSON at the end",
    )
    tenancy.add_argument(
        "--list-plans",
        action="store_true",
        help="list the tenancy plans and exit",
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


def _serve_tenants(args, out):
    """``serve --tenants N``: the multi-group daemon on one scheduler."""
    import tempfile

    from repro.errors import ReproError, ServiceError, TenancyError
    from repro.service import make_backend, make_driver
    from repro.tenancy import MultiGroupDaemon, make_fleet

    if args.role != "standalone":
        print(
            "error: --tenants runs standalone (bulk failover is the "
            "tenancy-soak mass-rehome plan; see docs/tenancy.md)",
            file=out,
        )
        return 2
    if args.metrics_port is not None:
        print("error: --metrics-port is not supported with --tenants",
              file=out)
        return 2
    if args.transport not in ("direct", "sim"):
        print(
            "error: --tenants supports the direct and sim transports",
            file=out,
        )
        return 2
    obs = bus = None
    if args.obs_file is not None:
        from repro.obs import EventBus, Recorder

        bus = EventBus(path=args.obs_file)
        obs = Recorder(bus=bus)
    state_root = args.state_dir or tempfile.mkdtemp(prefix="repro-tenants-")
    try:
        registry = make_fleet(args.tenants, seed=args.seed)
        churn = {
            spec.name: make_driver(
                args.churn, alpha=args.alpha, trace_path=args.trace_file
            )
            for spec in registry
        }
        backend_factory = None
        if args.transport == "sim":
            backend_factory = lambda spec: make_backend(
                "sim", spec.config, seed=spec.config.seed + 1
            )
        common = dict(
            churn=churn,
            budget=args.tick_budget,
            solo_fraction=args.solo_fraction,
            backend_factory=backend_factory,
            obs=obs,
        )
        if args.resume:
            daemon = MultiGroupDaemon.recover_all(state_root, **common)
            print(
                "recovered %d tenant(s) from %s"
                % (len(daemon.registry), state_root),
                file=out,
            )
        else:
            daemon = MultiGroupDaemon.start_new(
                registry, state_root, **common
            )
            print(
                "serving %d tenant group(s) under %s (%s transport, "
                "%s churn%s)"
                % (
                    len(registry),
                    state_root,
                    args.transport,
                    args.churn,
                    ", budget %d/tick" % args.tick_budget
                    if args.tick_budget
                    else "",
                ),
                file=out,
            )
    except (ServiceError, TenancyError, ReproError) as error:
        print("error: %s" % error, file=out)
        if bus is not None:
            bus.close()
        return 2
    try:
        for _ in range(args.intervals):
            plan = daemon.tick()
            print(
                "tick %3d: ran %d, deferred %d, quarantined %d, cost %d"
                % (
                    plan.tick,
                    len(plan.run),
                    len(plan.deferred),
                    len(daemon.quarantined_names()),
                    plan.cost_total,
                ),
                file=out,
            )
    finally:
        daemon.close()
        if bus is not None:
            bus.close()
    health = daemon.health()
    broken = daemon.check_agreement()
    print(
        "health: %s (%d tenants, %d intervals, %d quarantined)"
        % (
            health["status"],
            health["tenants"],
            health["intervals_total"],
            len(health["quarantined"]),
        ),
        file=out,
    )
    if args.json:
        import json

        print(json.dumps(health, indent=2, sort_keys=True), file=out)
    if args.obs_file:
        print("wrote obs events to %s" % args.obs_file, file=out)
    if broken:
        print(
            "key agreement broken in tenant(s): %s" % ", ".join(broken),
            file=out,
        )
        return 1
    return 0


def _cmd_serve(args, out):
    if args.tenants is not None:
        return _serve_tenants(args, out)
    if args.role != "standalone":
        if args.node_id is None:
            args.node_id = args.role
        from repro.ha.cli import run_leader, run_standby

        if args.role == "leader":
            return run_leader(args, out)
        return run_standby(args, out)
    from repro.core.config import GroupConfig
    from repro.errors import ServiceError
    from repro.service import (
        CrashPlan,
        DaemonConfig,
        DaemonCrash,
        RekeyDaemon,
        ServiceMetrics,
        make_backend,
        make_driver,
    )

    config = GroupConfig(block_size=5, seed=args.seed)
    service = DaemonConfig(
        state_dir=args.state_dir,
        interval_seconds=args.interval_seconds,
        deadline_rounds=args.deadline_rounds,
        deadline_policy=args.deadline_policy,
        crash_plan=(
            CrashPlan(args.crash_at, args.crash_point)
            if args.crash_at is not None
            else None
        ),
    )
    try:
        backend = make_backend(
            args.transport,
            config,
            seed=args.seed + 1,
            host=args.bind,
            port=args.port,
        )
        churn = make_driver(
            args.churn, alpha=args.alpha, trace_path=args.trace_file
        )
    except ServiceError as error:
        print("error: %s" % error, file=out)
        return 2
    obs = bus = None
    if args.obs_file is not None or args.metrics_port is not None:
        from repro.obs import EventBus, Recorder

        bus = EventBus(path=args.obs_file)
        obs = Recorder(bus=bus)
    if args.resume:
        if not args.state_dir:
            print("--resume needs --state-dir", file=out)
            return 2
        try:
            daemon = RekeyDaemon.recover(
                args.state_dir,
                config=config,
                backend=backend,
                churn=churn,
                service=service,
                seed=args.seed,
                obs=obs,
            )
        except ServiceError as error:
            print("error: %s" % error, file=out)
            return 2
        print(
            "recovered: %d members at interval %d, %d request(s) replayed"
            % (
                daemon.server.n_users,
                daemon.server.intervals_processed,
                daemon.metrics.counters["requests_replayed"],
            ),
            file=out,
        )
    else:
        daemon = RekeyDaemon.start_new(
            ["member-%03d" % i for i in range(args.members)],
            config=config,
            backend=backend,
            churn=churn,
            service=service,
            seed=args.seed,
            obs=obs,
        )
        print(
            "serving a %d-member group (%s transport, %s churn, "
            "%s engine%s)"
            % (
                daemon.server.n_users,
                args.transport,
                args.churn,
                config.engine,
                ", durable" if args.state_dir else "",
            ),
            file=out,
        )
    scrape = None
    if args.metrics_port is not None:
        from repro.obs.httpd import MetricsServer

        scrape = MetricsServer.for_daemon(
            daemon, port=args.metrics_port
        ).start()
        print("metrics: %s/metrics  health: %s/healthz"
              % (scrape.url, scrape.url), file=out)
    print(ServiceMetrics.TABLE_HEADER, file=out)

    def _print_row(record):
        print(ServiceMetrics.format_row(record), file=out)

    exit_code = 0
    try:
        daemon.run(args.intervals, on_interval=_print_row)
    except DaemonCrash as crash:
        print("daemon crashed: %s" % crash, file=out)
        if args.state_dir:
            print(
                "state survives in %s; rerun with --resume to recover"
                % args.state_dir,
                file=out,
            )
        else:
            print(
                "no --state-dir was set: nothing survives this crash",
                file=out,
            )
        exit_code = 0 if args.crash_at is not None else 1
    finally:
        if scrape is not None:
            scrape.stop()
        daemon.close()
        if hasattr(backend, "close"):
            backend.close()
        if bus is not None:
            bus.close()
    health = daemon.health()
    print(
        "health: %s (%d members, %d intervals, %d deadline miss(es))"
        % (
            health["status"],
            health["members"],
            health["intervals_processed"],
            health["deadline_misses"],
        ),
        file=out,
    )
    if args.json:
        print(daemon.metrics.to_json(indent=2), file=out)
    if args.obs_file:
        print("wrote obs events to %s" % args.obs_file, file=out)
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


def _print_plans(names, out):
    from repro.chaos.plans import describe_plans

    for name, description in describe_plans(names):
        print("  %-22s %s" % (name, description), file=out)


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


def _cmd_chaos_soak(args, out):
    from repro.chaos import run_soak
    from repro.errors import ChaosError

    def list_plans(out):
        from repro.chaos.plans import HA_PLAN_NAMES, PLAN_NAMES

        print("single-node plans (chaos-soak):", file=out)
        _print_plans(PLAN_NAMES, out)
        print("cluster plans (ha-soak):", file=out)
        _print_plans(HA_PLAN_NAMES, out)

    def summarize(result, out):
        print(
            "chaos-soak: %d fault(s) injected, %d restart(s), "
            "%d/%d interval(s)"
            % (
                result.faults_injected,
                result.restarts,
                result.intervals_completed,
                result.intervals_target,
            ),
            file=out,
        )

    def failure_note(result, out):
        if not result.expect_recoverable:
            print(
                "(plan %r is deliberately unrecoverable; the diagnostic "
                "above is its expected outcome)" % result.plan,
                file=out,
            )

    return run_soak_command(
        args,
        out,
        label="chaos-soak",
        digest_label="fault-timeline digest",
        run=lambda log: run_soak(
            plan=args.plan,
            seed=args.seed,
            intervals=args.intervals,
            members=args.members,
            state_dir=args.state_dir,
            obs_path=args.obs_file,
            log=log,
        ),
        error_types=(ChaosError,),
        list_plans=list_plans,
        summarize=summarize,
        failure_note=failure_note,
    )


def _cmd_ha_soak(args, out):
    from repro.errors import ChaosError
    from repro.ha.soak import run_ha_soak

    def list_plans(out):
        from repro.chaos.plans import HA_PLAN_NAMES

        print("cluster plans (ha-soak):", file=out)
        _print_plans(HA_PLAN_NAMES, out)

    def summarize(result, out):
        print(
            "ha-soak: %d fault(s) injected, %d promotion(s), "
            "final epoch %d, %d/%d interval(s)"
            % (
                result.faults_injected,
                result.promotions,
                result.final_epoch,
                result.intervals_completed,
                result.intervals_target,
            ),
            file=out,
        )

    return run_soak_command(
        args,
        out,
        label="ha-soak",
        digest_label="fault-timeline digest",
        run=lambda log: run_ha_soak(
            plan=args.plan,
            seed=args.seed,
            intervals=args.intervals,
            members=args.members,
            state_dir=args.state_dir,
            obs_path=args.obs_file,
            log=log,
        ),
        error_types=(ChaosError,),
        list_plans=list_plans,
        summarize=summarize,
    )


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


def _cmd_wire_chaos_soak(args, out):
    from repro.errors import ChaosError, WireError
    from repro.wire.chaos import run_wire_chaos_soak

    def list_plans(out):
        from repro.chaos.wire_faults import describe_wire_plans

        print("wire fault plans (wire-chaos-soak):", file=out)
        for name, description in describe_wire_plans():
            print("  %-22s %s" % (name, description), file=out)

    def summarize(result, out):
        print(
            "wire-chaos-soak: %d fault(s) applied, %d eviction(s), "
            "%d promotion(s), %d/%d interval(s)"
            % (
                sum(result.faults_applied.values()),
                result.evictions,
                result.promotions,
                result.intervals_completed,
                result.intervals_target,
            ),
            file=out,
        )

    return run_soak_command(
        args,
        out,
        label="wire-chaos-soak",
        digest_label="wire-timeline digest",
        run=lambda log: run_wire_chaos_soak(
            plan=args.plan,
            seed=args.seed,
            clients=args.clients,
            intervals=args.intervals,
            workers=args.workers,
            obs_path=args.obs_file,
            log=log,
        ),
        error_types=(ChaosError, WireError),
        list_plans=list_plans,
        summarize=summarize,
    )


def _cmd_tenancy_soak(args, out):
    from repro.errors import ChaosError, TenancyError
    from repro.tenancy import run_tenancy_soak

    def list_plans(out):
        from repro.tenancy.soak import (
            TENANCY_PLAN_DESCRIPTIONS,
            TENANCY_PLAN_NAMES,
        )

        print("tenancy plans (tenancy-soak):", file=out)
        for name in TENANCY_PLAN_NAMES:
            print(
                "  %-22s %s" % (name, TENANCY_PLAN_DESCRIPTIONS[name]),
                file=out,
            )

    def summarize(result, out):
        print(
            "tenancy-soak: %d tenant(s), %d/%d tick(s), %d interval(s), "
            "%d shed, %d quarantine(s), %d promotion(s)"
            % (
                result.tenants,
                result.ticks_completed,
                result.ticks_target,
                result.intervals_total,
                result.shed_total,
                result.quarantines,
                result.promotions,
            ),
            file=out,
        )
        if result.rehomed:
            print(
                "  re-homed %d tenant(s) under epoch %d "
                "(%d digest(s) verified, %d request(s) replayed)"
                % (
                    result.rehomed,
                    result.final_epoch,
                    result.digests_verified,
                    result.requests_replayed,
                ),
                file=out,
            )

    return run_soak_command(
        args,
        out,
        label="tenancy-soak",
        digest_label="tenancy-timeline digest",
        run=lambda log: run_tenancy_soak(
            plan=args.plan,
            seed=args.seed,
            tenants=args.tenants,
            ticks=args.ticks,
            state_root=args.state_root,
            obs_path=args.obs_file,
            log=log,
        ),
        error_types=(ChaosError, TenancyError),
        list_plans=list_plans,
        summarize=summarize,
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
        "chaos-soak": _cmd_chaos_soak,
        "ha-soak": _cmd_ha_soak,
        "fleet": _cmd_fleet,
        "wire-chaos-soak": _cmd_wire_chaos_soak,
        "tenancy-soak": _cmd_tenancy_soak,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
