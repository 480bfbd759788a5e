"""A rekey-daemon soak with a mid-flight crash and recovery.

The paper evaluates single rekey intervals; this example runs the key
server as a *service*: a `RekeyDaemon` soaking under Poisson churn at
the paper's α = 20 % rate over the simulated lossy transport, its ρ
controller adapting across intervals — then gets killed mid-interval by
an injected SIGKILL stand-in, and recovers from its write-ahead log and
snapshot with every security invariant intact.

Run: ``python examples/daemon_churn_soak.py``
"""

import shutil
import tempfile

from repro.core import GroupConfig
from repro.service import (
    CrashPlan,
    DaemonConfig,
    DaemonCrash,
    PoissonChurn,
    RekeyDaemon,
    ServiceMetrics,
    SessionDelivery,
)


class OverheardDelivery(SessionDelivery):
    """The sim transport, keeping each rekey message it delivers so the
    example can hand it to departed members too."""

    last_message = None

    def deliver(self, message, fleet, **kwargs):
        self.last_message = message
        return super().deliver(message, fleet, **kwargs)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main():
    state_dir = tempfile.mkdtemp(prefix="rekeyd-soak-")
    config = GroupConfig(block_size=5, crypto_seed=7, seed=7)
    churn = PoissonChurn(alpha=0.20)

    banner("Phase 1 — soak: 64 members, poisson churn, sim transport")
    daemon = RekeyDaemon.start_new(
        ["member-%03d" % i for i in range(64)],
        config=config,
        backend=SessionDelivery(config, seed=11),
        churn=churn,
        service=DaemonConfig(
            state_dir=state_dir,
            # die mid-interval 8, after delivery but BEFORE the
            # snapshot — the nastiest point: members already hold keys
            # the durable state has never heard of
            crash_plan=CrashPlan(8, "post-delivery"),
        ),
        seed=3,
    )
    print(ServiceMetrics.TABLE_HEADER)
    try:
        daemon.run(12, on_interval=lambda r: print(
            ServiceMetrics.format_row(r)))
    except DaemonCrash as crash:
        banner("CRASH — %s" % crash)
        print("no cleanup ran; all that survives is what was fsynced:")
        print("  %s/wal.jsonl + server.json" % state_dir)

    banner("Phase 2 — recover from WAL + snapshot")
    # The member fleet survives — members live on remote hosts and do
    # not die with the key server.
    recovered = RekeyDaemon.recover(
        state_dir,
        config=config,
        backend=OverheardDelivery(config, seed=13),
        fleet=daemon.fleet,
        churn=churn,
        service=DaemonConfig(state_dir=state_dir),
        seed=4,
    )
    counters = recovered.metrics.counters
    print(
        "recovered %d members at interval %d "
        "(%d request(s) replayed, %d member(s) resynced)"
        % (
            recovered.server.n_users,
            recovered.server.intervals_processed,
            counters["requests_replayed"],
            counters["members_resynced"],
        )
    )

    banner("Phase 3 — soak on; verify agreement and lockout")
    print(ServiceMetrics.TABLE_HEADER)
    departed = []  # evicted members' own key states: they keep listening
    for _ in range(4):
        before = dict(recovered.fleet.members)
        recovered.backend.last_message = None
        print(ServiceMetrics.format_row(recovered.run_interval()))
        departed += [
            member for name, member in before.items()
            if recovered.fleet.members.get(name) is not member
        ]
        if recovered.backend.last_message is not None:
            for member in departed:
                member.overhear(recovered.backend.last_message)
    # raises if a member is stale or the secrecy ledger found a breach
    recovered.fleet.check_agreement(recovered.server)
    assert all(m.group_key != recovered.server.group_key for m in departed)
    print()
    print(
        "agreement: all %d members hold group key %s"
        % (
            recovered.fleet.n_members,
            recovered.server.group_key.fingerprint(),
        )
    )
    print(
        "lockout:   none of the %d evicted members do, each handed every "
        "rekey message since it left" % len(departed)
    )
    health = recovered.health()
    print(
        "health:    %s (%d recovery, %d deadline miss(es))"
        % (
            health["status"],
            health["recoveries"],
            health["deadline_misses"],
        )
    )
    recovered.close()
    shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
