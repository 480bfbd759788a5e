"""The hot standby: replay the leader's stream, promote on its death.

:class:`StandbyReplica` holds a shadow :class:`GroupKeyServer` built
from the leader's bootstrap snapshot and advanced by replaying streamed
WAL records through :func:`repro.service.wal.replay`, the rule crash
recovery uses too: each ``join``/``leave`` is queued exactly as the
leader queued it, and each ``commit`` triggers the same end-of-interval
:meth:`rekey` the leader ran.  Because key derivation is deterministic
in ``(seed, node id, version)`` and the marking algorithm is a pure
function of the request set, replaying the *inputs* reproduces the
leader's tree byte for byte — which the leader's per-commit ``digest``
frames verify continuously, not just at promotion time.

:func:`promote` is the failover step: acquire the lease (minting the
next epoch — every write the old leader might still attempt is fenced
from this instant), fold in the shared WAL's durable records the
stream had not delivered yet, wrap the replayed server in a
:class:`~repro.service.daemon.RekeyDaemon` bound to the shared state
directory, and resume service exactly the way crash recovery does
(:meth:`~repro.service.daemon.RekeyDaemon.take_over`).  A replica
whose last digest check failed refuses to promote: promoting a
diverged replica would split the key space silently, the one failure
mode worse than staying down.
"""

from __future__ import annotations

import os

from repro.chaos.seams import SYSTEM_CLOCK
from repro.core.server import GroupKeyServer
from repro.errors import HaError, ReplicationError
from repro.ha.digest import server_digest
from repro.obs.recorder import NULL
from repro.service.wal import replay, scan_records


class StandbyReplica:
    """A follower's replayed view of the leader's key server."""

    def __init__(self, config=None, node_id="standby", obs=None,
                 clock=None):
        self.config = config
        self.node_id = str(node_id)
        self.obs = obs if obs is not None else NULL
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        #: the shadow server (``None`` until the bootstrap snapshot)
        self.server = None
        #: highest WAL sequence folded into the shadow server
        self.applied_seq = -1
        #: highest sequence the leader has reported durable
        self.leader_seq = -1
        self.leader_epoch = 0
        #: outcome of the most recent digest frame (``None`` = never
        #: checked, ``True``/``False`` = matched / diverged)
        self.digest_ok = None
        self.last_digest = None
        self.last_heartbeat = None
        self.records_applied = 0

    # -- stream intake -------------------------------------------------

    def apply_frames(self, payloads):
        """Apply a batch of decoded frames in arrival order."""
        for payload in payloads:
            self.apply(payload)

    def apply(self, payload):
        """Fold one replication frame into the shadow state."""
        kind = payload.get("kind")
        if kind == "hello":
            self.leader_epoch = int(payload.get("epoch", 0))
            self.leader_seq = max(
                self.leader_seq, int(payload.get("last_seq", -1))
            )
        elif kind == "snapshot":
            self.server = GroupKeyServer.restore(
                payload["state"], config=self.config
            )
            self.applied_seq = int(payload.get("wal_seq", -1))
            self.leader_seq = max(self.leader_seq, self.applied_seq)
            self.leader_epoch = int(payload.get("epoch", 0))
        elif kind == "record":
            self._apply_record(payload["record"])
        elif kind == "digest":
            self._check_digest(payload)
        elif kind == "heartbeat":
            self.last_heartbeat = self.clock.time()
            self.leader_epoch = int(payload.get("epoch", 0))
            self.leader_seq = max(
                self.leader_seq, int(payload.get("last_seq", -1))
            )
        else:
            raise ReplicationError(
                "standby cannot apply frame kind %r" % (kind,)
            )

    def _apply_record(self, record):
        if self.server is None:
            raise ReplicationError(
                "record frame before the bootstrap snapshot"
            )
        seq = int(record["seq"])
        if seq <= self.applied_seq:
            return  # catch-up overlap: already folded in
        if seq != self.applied_seq + 1:
            raise ReplicationError(
                "replication gap: expected seq %d, got %d — resubscribe "
                "from the durable log" % (self.applied_seq + 1, seq)
            )
        replay(self.server, [record])
        self.applied_seq = seq
        self.leader_seq = max(self.leader_seq, seq)
        self.records_applied += 1

    def _check_digest(self, payload):
        if self.server is None:
            raise ReplicationError(
                "digest frame before the bootstrap snapshot"
            )
        self.leader_seq = max(
            self.leader_seq, int(payload.get("wal_seq", -1))
        )
        ours = server_digest(self.server)
        self.last_digest = ours
        self.digest_ok = ours == payload["digest"]
        detail = {
            "interval": int(payload.get("interval", -1)),
            "matched": self.digest_ok,
        }
        # Join the leader interval's distributed trace when the frame
        # carried its id.
        if payload.get("trace") is not None:
            detail["trace"] = payload["trace"]
        self.obs.emit("ha_digest_check", **detail)
        if self.digest_ok:
            self.obs.gauge("ha_replication_lag_records", self.lag())

    # -- introspection -------------------------------------------------

    def lag(self):
        """Durable-but-unapplied records (0 = fully caught up)."""
        return max(0, self.leader_seq - self.applied_seq)

    def health(self):
        return {
            "role": "standby",
            "node": self.node_id,
            "leader_epoch": self.leader_epoch,
            "applied_seq": self.applied_seq,
            "leader_seq": self.leader_seq,
            "lag_records": self.lag(),
            "records_applied": self.records_applied,
            "digest_ok": self.digest_ok,
            "intervals": (
                -1 if self.server is None
                else self.server.intervals_processed
            ),
        }


def promote(replica, state_dir, lease, backend=None, fleet=None,
            churn=None, service=None, seed=None, obs=None, fs=None,
            clock=None, retry=None):
    """Fail over: the replica becomes the leader, fenced by a new epoch.

    Returns the promoted :class:`~repro.service.daemon.RekeyDaemon`.
    The lease acquisition is the linearization point — from the moment
    the new epoch is on disk, the old leader's next append (which
    consults the lease as its fence) refuses with ``StaleEpochError``.

    Refuses (:class:`~repro.errors.HaError`) when the replica has no
    bootstrapped state, its last digest check showed divergence, or the
    shared WAL's records past ``replica.applied_seq`` cannot be folded
    in: an acknowledged request the stream lost is never dropped.
    """
    from repro.service.daemon import DaemonConfig, RekeyDaemon

    obs = obs if obs is not None else replica.obs
    if replica.server is None:
        raise HaError("cannot promote before the bootstrap snapshot")
    if replica.digest_ok is False:
        raise HaError(
            "refusing to promote a diverged replica (digest mismatch at "
            "seq %d): a split key space is worse than unavailability"
            % replica.applied_seq
        )
    epoch = lease.acquire()
    # The new epoch fences the old leader's appends, so the log is final
    # from here: whatever the stream lagged behind is read off the disk.
    records, error = scan_records(
        os.path.join(os.fspath(state_dir), "wal.jsonl"), fs
    )
    if error is not None:
        raise HaError("refusing to promote: the shared WAL is damaged "
                      "(%s)" % error)
    try:
        for record in records:
            if record["seq"] > replica.applied_seq:
                replica.apply({"kind": "record", "record": record})
    except ReplicationError as error:
        raise HaError("refusing to promote: %s" % error)
    if service is None:
        service = DaemonConfig()
    service.state_dir = state_dir
    daemon = RekeyDaemon(
        replica.server,
        backend=backend,
        fleet=fleet,
        churn=churn,
        service=service,
        seed=seed,
        obs=obs,
        fs=fs,
        clock=clock,
        retry=retry,
        epoch=epoch,
        fence=lease,
    )
    # Requests replayed from the stream but not yet committed are
    # consumed by a churn-free replay interval, and the fleet is
    # resynced, exactly as after a crash.
    daemon.take_over()
    obs.emit(
        "ha_promote",
        node=replica.node_id,
        epoch=epoch,
        interval=replica.server.intervals_processed,
        applied_seq=replica.applied_seq,
        digest_verified=bool(replica.digest_ok),
    )
    obs.emit("ha_role", node=replica.node_id, role="leader", epoch=epoch)
    obs.gauge("ha_epoch", epoch)
    return daemon
