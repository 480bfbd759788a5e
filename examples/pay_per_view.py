#!/usr/bin/env python3
"""Pay-per-view broadcast: the paper's motivating workload.

A content provider streams to a large paying audience; subscriptions
start and lapse continuously.  The group key encrypts the stream, so
every membership change demands a rekey — which is exactly what
periodic batch rekeying makes affordable.

This example runs a 4096-user group through a broadcast with ~2 % churn
per rekey interval, delivers each interval's rekey message over the
simulated lossy multicast network, and reports the server-side costs
the paper analyses: crypto operations, modelled processing seconds, and
transport bandwidth overhead.

Run:  python examples/pay_per_view.py  [--subscribers N] [--intervals K]
"""

import argparse

import numpy as np

from repro import GroupConfig, SecureGroup
from repro.analysis import signature_savings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subscribers", type=int, default=1024)
    parser.add_argument("--intervals", type=int, default=6)
    parser.add_argument("--churn", type=float, default=0.02)
    args = parser.parse_args()

    subscribers = ["sub-%05d" % i for i in range(args.subscribers)]
    group = SecureGroup(subscribers, GroupConfig(block_size=10, seed=42))
    rng = np.random.default_rng(7)

    print(
        "broadcast start: %d subscribers, key %s"
        % (group.n_members, group.server.group_key.fingerprint())
    )
    per_interval = max(1, int(args.churn * args.subscribers))
    total_requests = 0

    for interval in range(args.intervals):
        n_lapse = int(rng.integers(per_interval // 2, per_interval + 1))
        n_new = int(rng.integers(per_interval // 2, per_interval + 1))
        total_requests += n_lapse + n_new
        message = group.churn(n_new, n_lapse, rng=rng, lossy=True)
        report = group.last_delivery
        counts, seconds = group.server.meter.snapshot()
        print(
            "interval %2d: %5d subs | +%2d/-%2d | "
            "%3d ENC pkts, bw overhead %.2f, rounds %d, unicast %d"
            % (
                interval + 1,
                group.n_members,
                n_new,
                n_lapse,
                message.n_enc_packets,
                report.detail["bandwidth_overhead"] if report else 0.0,
                report.multicast_rounds if report else 0,
                report.unicast_served if report else 0,
            )
        )

    counts, seconds = group.server.meter.snapshot()
    print("\nserver crypto work across the broadcast:")
    for op, count in counts.items():
        print("  %-8s %8d ops" % (op, count))
    print("  modelled processing time: %.2f s" % seconds)
    print(
        "  signatures saved by batching vs per-request rekeying: %d"
        % signature_savings(total_requests, 0)
    )

    # The contract that makes the business model work:
    assert all(
        member.group_key == group.server.group_key
        for member in group.members.values()
    )
    lapsed = list(group.former_members.values())
    assert all(m.group_key != group.server.group_key for m in lapsed)
    print(
        "\ninvariants hold: %d active subscribers keyed, "
        "%d lapsed subscribers locked out" % (group.n_members, len(lapsed))
    )


if __name__ == "__main__":
    main()
