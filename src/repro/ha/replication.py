"""WAL streaming: how the standby stays a few frames behind the leader.

The replication stream carries the *same bytes the durability layer
already trusts*: each frame body is one
:func:`repro.service.wal.encode_record` line — canonical JSON with an
embedded CRC32 — behind a 4-byte big-endian length prefix.  A damaged
frame is therefore detected by the identical check that catches at-rest
WAL corruption, and a follower can persist received records verbatim.

Frame kinds (the ``kind`` key of the payload):

- ``hello`` — leader's greeting: its epoch, so a follower connected to
  a deposed leader notices immediately;
- ``snapshot`` — bootstrap: the full :meth:`GroupKeyServer.snapshot`
  payload plus the WAL sequence it is current through;
- ``record`` — one WAL record, streamed tail-on after its durable
  append (the leader's :attr:`WriteAheadLog.on_append` tap); a
  ``commit`` record carries the leader's state digest, the follower's
  convergence check;
- ``heartbeat`` — liveness + the leader's last sequence, so a follower
  can measure replication lag even when the group is idle.

Two transports speak this format: :class:`DirectLink` (an in-memory
queue — deterministic, used by the HA soak and the tests) and a
loopback TCP pair (:class:`ReplicationServer` / the blocking
:class:`ReplicationClient`, used by ``python -m repro serve --role``).
The client reconnects with full-jitter backoff
(:class:`~repro.util.retry.RetryPolicy`), the standard cure for
reconnect stampedes after a leader restart.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from repro.errors import ReplicationError
from repro.obs.recorder import NULL
from repro.obs.trace import current_trace
from repro.service.wal import encode_record, record_crc
from repro.util.retry import RetryPolicy

#: payload kinds a frame may carry
FRAME_KINDS = (
    "hello",
    "snapshot",
    "record",
    "heartbeat",
    "subscribe",
)

#: refuse absurd length prefixes before allocating (a damaged prefix
#: otherwise reads as a multi-gigabyte frame)
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(payload):
    """One wire frame (length prefix + CRC-carrying JSON body)."""
    if payload.get("kind") not in FRAME_KINDS:
        raise ReplicationError(
            "unknown frame kind %r" % (payload.get("kind"),)
        )
    body = encode_record(payload).encode("utf-8")
    return _LENGTH.pack(len(body)) + body


def decode_body(body):
    """Parse and CRC-verify one frame body into its payload dict."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ReplicationError("undecodable replication frame: %s" % exc)
    if not isinstance(payload, dict):
        raise ReplicationError("replication frame is not an object")
    crc = payload.pop("crc", None)
    if crc is None or crc != record_crc(payload):
        raise ReplicationError(
            "replication frame CRC mismatch (stored %r)" % (crc,)
        )
    if payload.get("kind") not in FRAME_KINDS:
        raise ReplicationError(
            "unknown frame kind %r" % (payload.get("kind"),)
        )
    return payload


class FrameReader:
    """Incremental frame parser over an arbitrary byte stream."""

    def __init__(self):
        self._buffer = b""

    def feed(self, data):
        """Absorb ``data``; returns every complete payload it finished."""
        self._buffer += data
        payloads = []
        while len(self._buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ReplicationError(
                    "frame length %d exceeds the %d-byte cap"
                    % (length, MAX_FRAME_BYTES)
                )
            if len(self._buffer) < _LENGTH.size + length:
                break
            body = self._buffer[_LENGTH.size:_LENGTH.size + length]
            self._buffer = self._buffer[_LENGTH.size + length:]
            payloads.append(decode_body(body))
        return payloads


class DirectLink:
    """An in-memory leader→follower pipe with a partition switch.

    The soak harness's transport: :meth:`send` encodes through the real
    wire format (so CRC coverage is exercised), :meth:`poll` decodes
    and drains.  While :attr:`partitioned` is set, sends are counted in
    :attr:`dropped` and never arrive — frames lost to a partition are
    *gone*, exactly like the network; healing requires the leader to
    re-send (``catch_up``), not the link to deliver late.
    """

    def __init__(self):
        self._queue = []
        self._reader = FrameReader()
        self.partitioned = False
        self.sent = 0
        self.dropped = 0

    def send(self, payload):
        if self.partitioned:
            self.dropped += 1
            return
        self._queue.append(encode_frame(payload))
        self.sent += 1

    def poll(self):
        """Decode and return every pending payload, oldest first."""
        payloads = []
        while self._queue:
            payloads.extend(self._reader.feed(self._queue.pop(0)))
        return payloads


class LeaderPublisher:
    """The leader-side fan-out: every durable append, streamed.

    Wired into the daemon by
    :meth:`~repro.service.daemon.RekeyDaemon.attach_replication`, which
    points the WAL's ``on_append`` tap at :meth:`on_wal_record`.
    """

    def __init__(self, epoch, wal=None, obs=None):
        self.epoch = int(epoch)
        self.wal = wal
        self.obs = obs if obs is not None else NULL
        self.links = []
        #: highest WAL seq streamed (−1 before the first append)
        self.last_seq = wal.next_seq - 1 if wal is not None else -1
        #: commit records streamed
        self.commits = 0

    def subscribe(self, link, since_seq=0, server=None):
        """Attach a follower link and bootstrap it.

        With ``server`` given, bootstrap is a full state snapshot (the
        fresh-standby path) followed by the log from the commit the
        snapshot stands at — which :func:`~repro.service.wal.replay`
        checks the snapshot against — through the logged records of the
        server's current interval, which the snapshot leaves out and
        replay re-queues, as crash recovery does; otherwise the WAL
        suffix from ``since_seq`` is replayed (the reconnect path).
        """
        self.links.append(link)
        link.send({"kind": "hello", "epoch": self.epoch,
                   "last_seq": self.last_seq})
        if server is not None:
            current = server.intervals_processed
            queued = [
                record for record in self.wal.records()
                if record["interval"] >= current
                or (record["op"] == "commit"
                    and record["interval"] == current - 1)
            ] if self.wal is not None else []
            seq = queued[0]["seq"] - 1 if queued else self.last_seq
            link.send({
                "kind": "snapshot",
                "epoch": self.epoch,
                "state": server.snapshot(),
                "wal_seq": seq,
            })
            for record in queued:
                link.send({"kind": "record", "record": record})
        elif self.wal is not None:
            self.catch_up(link, since_seq)
        return link

    def catch_up(self, link, since_seq=0):
        """Re-send the WAL suffix from ``since_seq``; returns the count.

        The partition-heal path: frames lost while a link was down are
        recovered from the durable log, not from any in-memory buffer.
        """
        sent = 0
        if self.wal is not None:
            for record in self.wal.records():
                if record["seq"] >= since_seq:
                    link.send({"kind": "record", "record": record})
                    sent += 1
        self.obs.emit("ha_catchup", since_seq=int(since_seq), records=sent)
        return sent

    def on_wal_record(self, record):
        """The WAL's post-append tap: stream one durable record.

        The ambient interval trace id (if the daemon is mid-interval)
        rides on the frame, so a standby's apply events join the same
        distributed trace as the leader's interval that produced them.
        """
        self.last_seq = int(record["seq"])
        if record["op"] == "commit":
            self.commits += 1
        payload = {"kind": "record", "record": record}
        trace = current_trace()
        if trace is not None:
            payload["trace"] = trace
        for link in self.links:
            link.send(payload)

    def heartbeat(self):
        for link in self.links:
            link.send({
                "kind": "heartbeat",
                "epoch": self.epoch,
                "last_seq": self.last_seq,
            })

    def snapshot(self):
        """Health-surface view of the replication fan-out."""
        return {
            "followers": len(self.links),
            "last_seq": self.last_seq,
            "commits": self.commits,
            "dropped": sum(
                getattr(link, "dropped", 0) for link in self.links
            ),
        }


# -- loopback TCP (the ``serve --role`` transport) ----------------------

class SocketSink:
    """Adapts one accepted connection to the link ``send`` interface."""

    def __init__(self, sock):
        self._sock = sock
        self._lock = threading.Lock()
        self.closed = False
        self.dropped = 0

    def send(self, payload):
        if self.closed:
            self.dropped += 1
            return
        try:
            with self._lock:
                self._sock.sendall(encode_frame(payload))
        except OSError:
            # The follower went away; the leader keeps rekeying — a
            # reconnecting client bootstraps again via subscribe.
            self.closed = True
            self.dropped += 1

    def close(self):
        self.closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best effort
            pass


class ReplicationServer:
    """The leader's accept loop: one thread, one sink per follower.

    ``on_subscribe(sink, payload)`` is called (with the daemon lock
    held by the callback itself, not here) for each follower's opening
    ``subscribe`` frame; it is expected to call
    :meth:`LeaderPublisher.subscribe` with a consistent state snapshot.
    """

    def __init__(self, on_subscribe, host="127.0.0.1", port=0):
        self.on_subscribe = on_subscribe
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((host, int(port)))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._sinks = []
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._thread.start()

    @property
    def port(self):
        return self.address[1]

    def _accept_loop(self):
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._handshake, args=(conn,), daemon=True
            ).start()

    def _handshake(self, conn):
        reader = FrameReader()
        conn.settimeout(5.0)
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    conn.close()
                    return
                payloads = reader.feed(data)
                if payloads:
                    break
        except (OSError, ReplicationError):
            conn.close()
            return
        payload = payloads[0]
        if payload.get("kind") != "subscribe":
            conn.close()
            return
        sink = SocketSink(conn)
        self._sinks.append(sink)
        self.on_subscribe(sink, payload)

    def close(self):
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        for sink in self._sinks:
            sink.close()
        self._thread.join(timeout=2.0)


class ReplicationClient:
    """The standby's blocking subscriber with jittered reconnects."""

    def __init__(self, host, port, node_id, retry=None, obs=None,
                 clock=None):
        self.host = host
        self.port = int(port)
        self.node_id = str(node_id)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=8, base_delay=0.05, max_delay=2.0, jitter=True
        )
        self.obs = obs if obs is not None else NULL
        self.clock = clock
        self._sock = None
        self._reader = FrameReader()

    @property
    def connected(self):
        return self._sock is not None

    def connect(self, since_seq=0):
        """Dial the leader (retrying with full jitter) and subscribe."""
        def attempt():
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=5.0
            )

        # A fresh connection is a fresh frame stream: drop any partial
        # frame left over from the previous connection's last read.
        self._reader = FrameReader()
        self.retry.run(attempt, clock=self.clock)
        self._sock.sendall(encode_frame({
            "kind": "subscribe",
            "node": self.node_id,
            "since_seq": int(since_seq),
        }))
        self.obs.emit(
            "ha_replication_connect",
            node=self.node_id,
            since_seq=int(since_seq),
        )

    def poll(self, timeout=0.5):
        """Block up to ``timeout`` for bytes; returns decoded payloads.

        An empty list means the wait timed out; ``None`` means the
        leader closed the connection (reconnect or promote).
        """
        if self._sock is None:
            raise ReplicationError("poll before connect")
        self._sock.settimeout(timeout)
        try:
            data = self._sock.recv(65536)
        except socket.timeout:
            return []
        except OSError:
            return None
        if not data:
            return None
        return self._reader.feed(data)

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None
