"""Property: WAL request replay is idempotent.

Recovery (and an HA replica's catch-up after a resubscribe) may see the
same request records more than once — the replay tolerance for
``ReproError`` is what makes that safe.  The property: replaying a
request log twice into a restored server leaves *exactly* the state one
replay produces, for any interleaving of valid, duplicate, and plainly
invalid join/leave requests.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.errors import ReproError
from repro.keytree.persistence import server_digest

BASE = ["m%02d" % i for i in range(8)]
NAMES = BASE + ["n%02d" % i for i in range(8)]

ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave"]), st.sampled_from(NAMES)
    ),
    max_size=24,
)


def replay(server, records):
    """The recovery/replication replay loop, tolerance included."""
    for op, user in records:
        try:
            if op == "join":
                server.request_join(user)
            else:
                server.request_leave(user)
        except ReproError:
            pass


def restored_server():
    config = GroupConfig(block_size=5, crypto_seed=9)
    snapshot = GroupKeyServer(BASE, config=config).snapshot()
    return GroupKeyServer.restore(snapshot, config=config)


@given(records=ops)
@settings(max_examples=60, deadline=None)
def test_replaying_twice_equals_replaying_once(records):
    once, twice = restored_server(), restored_server()
    replay(once, records)
    replay(twice, records)
    replay(twice, records)
    # Queue *order* may differ: a replayed leave cancels a pending join
    # and the replayed join re-queues it at the back.  Membership and
    # committed state must not.
    once_joins, once_leaves = once.pending_requests
    twice_joins, twice_leaves = twice.pending_requests
    assert set(once_joins) == set(twice_joins)
    assert set(once_leaves) == set(twice_leaves)
    assert once.users == twice.users
    assert server_digest(once) == server_digest(twice)


@given(records=ops)
@settings(max_examples=60, deadline=None)
def test_replay_then_rekey_is_deterministic(records):
    a, b = restored_server(), restored_server()
    replay(a, records)
    replay(b, records)
    a.rekey()
    b.rekey()
    assert server_digest(a) == server_digest(b)
    assert a.group_key.fingerprint() == b.group_key.fingerprint()
