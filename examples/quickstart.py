#!/usr/bin/env python3
"""Quickstart: a secure group in a dozen lines.

Creates a group, churns its membership through periodic batch rekeying,
and shows the two security properties the system exists for:

- *forward secrecy*: a departed user's keys stop working;
- *backward secrecy*: a new user's keys only start at its join interval.

Run:  python examples/quickstart.py
"""

from repro import GroupConfig, SecureGroup


def main():
    # A group of four, with the paper's default parameters (d=4 key
    # tree, 1027-byte ENC packets, FEC block size 10).
    group = SecureGroup(["alice", "bob", "carol", "dave"], GroupConfig())
    print("group created:", group)
    print("group key:", group.server.group_key.fingerprint())

    # Every member independently holds the same group key.
    for name, member in sorted(group.members.items()):
        assert member.group_key == group.server.group_key
        print("  %-6s holds keys for nodes %s" % (name, member.path_ids))

    # dave leaves; erin joins.  Requests queue up during the interval...
    group.leave("dave")
    group.join("erin")

    # ... and one rekey message handles the whole batch.
    message = group.rekey()
    print("\nafter rekey #1:", group)
    print(
        "rekey message: %d ENC packets, %d encryptions, signed=%s"
        % (
            message.n_enc_packets,
            len(message.encryption_map),
            message.signature is not None,
        )
    )
    print("new group key:", group.server.group_key.fingerprint())

    # Forward secrecy: dave's stale keys do not match the new group key.
    dave = group.former_members["dave"]
    assert dave.group_key != group.server.group_key
    print("dave's stale view:", dave.group_key.fingerprint(), "(locked out)")

    # erin is a first-class member now.
    assert group.members["erin"].group_key == group.server.group_key
    print("erin's view:      ", group.members["erin"].group_key.fingerprint())

    # Deliveries can also ride the full simulated lossy multicast
    # transport (proactive FEC + NACKs + unicast tail):
    group.leave("alice")
    group.rekey(lossy=True)
    report = group.last_delivery
    print(
        "\nlossy rekey #2: %d multicast round(s), %d NACK(s), "
        "%d user(s) served by unicast"
        % (
            report.multicast_rounds,
            report.first_round_nacks,
            report.unicast_served,
        )
    )
    for name, member in sorted(group.members.items()):
        assert member.group_key == group.server.group_key
    print("all %d members agree on the group key" % group.n_members)


if __name__ == "__main__":
    main()
