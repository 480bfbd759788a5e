"""The daemon's write-ahead log of accepted membership requests.

Durability contract: a join/leave the daemon *acknowledged* must survive
a crash at any instant.  The snapshot
(:func:`repro.keytree.persistence.save_server`) only captures state as
of the last committed interval, so every accepted request is appended
here — JSON line, flushed and fsynced — *before* it is applied to the
in-memory server.  Recovery then replays the suffix of the log that the
snapshot has not folded in yet.

Record format v2 (one JSON object per line, CRC32-protected)::

    {"crc": "f3b1c2d4", "interval": 4, "op": "join", "seq": 17, "user": "u-9"}
    {"crc": "0a9e88c1", "digest": "5be0…", "interval": 4, "op": "commit", "seq": 19}

``crc`` is the CRC32 (hex) of the record's canonical JSON *without* the
``crc`` key, so any at-rest damage to a record — a flipped bit, a
spliced line — is detected rather than misparsed.  v1 records (no
``crc`` key) are still read; compaction rewrites survivors as v2, so a
log upgrades itself in place.

``interval`` is the server's ``intervals_processed`` at acceptance time,
i.e. the interval whose end-of-interval rekey will consume the request.
``commit`` marks that interval's rekey as durably snapshotted, and its
``digest`` is the state digest of what was snapshotted
(:func:`repro.keytree.persistence.server_digest`).
:func:`replay` is the one rule that says what the records mean: it
skips what the restored snapshot already holds (so a crash between
snapshot write and commit append is harmless), re-queues requests,
re-runs each interval the writer rekeyed, so a snapshot one generation
back (``server.json.prev``) replays interval by interval, and checks
every commit whose state it holds against that commit's digest.

A torn tail — a final line cut short by the crash — is expected and
dropped; torn or out-of-sequence records anywhere *else* mean real
corruption.  What happens next is the caller's choice:
``on_corruption="raise"`` (default) propagates :class:`WalError`, while
``"quarantine"`` — the daemon's setting — moves the damaged file to
``<path>.corrupt-<n>``, rewrites the intact prefix as a fresh log, and
emits a ``wal_quarantine`` event, so startup always has *a* log to
recover from (see ``docs/robustness.md``).

Appends run through a bounded-retry/backoff policy: a transient
``OSError`` from the write or fsync rolls the file back to its
pre-append length and retries; only a persistent failure escapes.

Under HA (``docs/ha.md``) every record additionally carries the
writer's ``epoch`` fencing token.  The log is constructed with the
current epoch and a ``fence`` (any object with ``current_epoch()`` —
in practice the cluster's :class:`repro.ha.lease.Lease`); an append
whose epoch is older than the fence's refuses with
:class:`StaleEpochError` *before any byte reaches the file*, which is
what keeps a deposed leader's late writes out of the shared log.  The
``epoch`` key rides through v2 parsing like any other field and is
covered by the record CRC.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.chaos.seams import REAL_FILESYSTEM, SYSTEM_CLOCK
from repro.errors import ReproError, StaleEpochError, WalError
from repro.keytree.persistence import server_digest
from repro.obs.recorder import NULL
from repro.util.retry import RetryPolicy

REQUEST_OPS = ("join", "leave")
_ALL_OPS = REQUEST_OPS + ("commit",)

#: current on-disk record format (v1 = bare JSON, v2 = + per-record CRC)
FORMAT_VERSION = 2


def record_crc(record):
    """CRC32 (8 hex chars) of a record's canonical JSON, sans ``crc``."""
    body = {k: v for k, v in record.items() if k != "crc"}
    data = json.dumps(body, sort_keys=True).encode("utf-8")
    return "%08x" % (zlib.crc32(data) & 0xFFFFFFFF)


def encode_record(record):
    """One v2 WAL line (no newline) for a logical record dict."""
    wire = dict(record)
    wire["crc"] = record_crc(record)
    return json.dumps(wire, sort_keys=True)


def _parse_line(line):
    """Parse and validate one line into a logical record.

    Raises ``ValueError``/``KeyError``/``TypeError`` on anything
    malformed — including a v2 CRC mismatch — for the caller to map to
    torn-tail tolerance or corruption.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    crc = record.pop("crc", None)
    if crc is not None and crc != record_crc(record):
        raise ValueError("CRC mismatch (stored %r)" % (crc,))
    if record["op"] not in _ALL_OPS:
        raise ValueError("unknown op %r" % (record["op"],))
    int(record["seq"])
    int(record["interval"])
    if "epoch" in record:
        int(record["epoch"])
    return record


def scan_records(path, fs=None):
    """Read as many intact records as possible; returns ``(records, error)``.

    ``error`` is ``None`` for a clean file (a torn *final* line is
    clean — the crash interrupted that append) and a :class:`WalError`
    describing the first damage otherwise.  ``records`` is always the
    longest intact prefix, which is what quarantine salvages.
    """
    records, error, _ = _scan(path, fs)
    return records, error


def _scan(path, fs=None):
    """The full scan: ``(records, error, intact_bytes)``.

    ``intact_bytes`` is the byte length of the intact record prefix —
    the offset a physical truncation must cut back to before appending,
    so a torn tail's leftover bytes can never merge with the next
    record into mid-file garbage.
    """
    fs = fs or REAL_FILESYSTEM
    try:
        raw_lines = fs.read_bytes(path).split(b"\n")
    except FileNotFoundError:
        return [], None, 0
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    records = []
    intact_bytes = 0
    for index, raw in enumerate(raw_lines):
        try:
            record = _parse_line(raw.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            if index == len(raw_lines) - 1:
                break  # torn tail: the crash interrupted this append
            return records, WalError(
                "corrupt WAL record at line %d of %s: %s"
                % (index + 1, path, exc)
            ), intact_bytes
        if records and record["seq"] != records[-1]["seq"] + 1:
            return records, WalError(
                "WAL sequence gap at line %d of %s (seq %d after %d)"
                % (index + 1, path, record["seq"], records[-1]["seq"])
            ), intact_bytes
        records.append(record)
        intact_bytes += len(raw) + 1
    return records, None, intact_bytes


def read_records(path):
    """Parse a WAL file into records, tolerating only a torn last line.

    Raises :class:`WalError` for corruption anywhere but the tail:
    unparseable non-final lines, CRC mismatches, unknown ops, or a
    non-contiguous ``seq`` run (evidence of interleaved writers or lost
    middles).
    """
    records, error = scan_records(path)
    if error is not None:
        raise error
    return records


def max_epoch(records):
    """Highest ``epoch`` fencing token among ``records`` (0 if none)."""
    return max((int(r.get("epoch", 0)) for r in records), default=0)


def epochs_monotonic(records):
    """True iff the ``epoch`` tokens never decrease along the log —
    the on-disk witness that no deposed leader's write ever landed."""
    last = 0
    for record in records:
        epoch = int(record.get("epoch", 0))
        if epoch < last:
            return False
        last = max(last, epoch)
    return True


def quarantine_path(path, fs=None):
    """First free ``<path>.corrupt-<n>`` quarantine destination."""
    fs = fs or REAL_FILESYSTEM
    n = 0
    while fs.exists("%s.corrupt-%d" % (path, n)):
        n += 1
    return "%s.corrupt-%d" % (path, n)


def queue_request(server, op, user):
    """Queue one ``join``/``leave`` on ``server`` for its next rekey."""
    if op == "join":
        server.request_join(user)
    else:
        server.request_leave(user)


def replay(server, records):
    """Fold logged records into ``server``; returns ``(replayed,
    rejected, checks)``.

    The one reading of the log: crash recovery, the standby's stream and
    promotion all go through it.  Records are walked in log order:

    - a record of an interval below ``server.intervals_processed`` is
      skipped, because its effect is already in the state;
    - a ``join``/``leave`` is re-queued; one the server refuses is
      counted, never fatal (a leave whose join it cancels may itself
      have been replayed into a cancellation, or an overlapping trace
      repeats a request);
    - a ``commit`` of the server's current interval re-runs that
      interval's :meth:`~repro.core.server.GroupKeyServer.rekey`, and so
      does a record of a later interval: the writer only moves to the
      next interval by rekeying, and a failed snapshot logs no commit.

    So each logged interval is rekeyed as the batch the writer rekeyed,
    never merged with the next one: key derivation is a function of tree
    state, and a merged batch would mint the bytes the writer delivered
    for a different member set.  ``replayed``/``rejected`` count the
    request records re-queued and refused.

    ``checks`` holds ``(interval, matched)`` for each commit whose state
    replay holds — right after re-running its rekey, or, for a skipped
    commit of interval ``intervals_processed - 1``, the state as loaded
    — comparing :func:`server_digest` with the commit's ``digest``.  A
    verdict is reported, never acted on: that is the caller's policy.
    """
    replayed = rejected = 0
    checks = []
    for record in records:
        op, interval = record["op"], int(record["interval"])
        if op not in _ALL_OPS:
            raise WalError("unknown WAL op %r" % (op,))
        if interval < server.intervals_processed:
            if op == "commit" and interval == server.intervals_processed - 1:
                _check(server, record, checks)
            continue
        while server.intervals_processed < interval:
            server.rekey()
        if op == "commit":
            server.rekey()
            _check(server, record, checks)
            continue
        try:
            queue_request(server, op, record["user"])
        except ReproError:
            rejected += 1
        else:
            replayed += 1
    return replayed, rejected, checks


def _check(server, record, checks):
    if "digest" in record:  # commits logged before digests check nothing
        checks.append(
            (record["interval"], server_digest(server) == record["digest"])
        )

class WriteAheadLog:
    """Append-only, fsynced, CRC-protected JSONL log with torn-tail-
    tolerant replay, corruption quarantine, and retried appends."""

    def __init__(
        self,
        path,
        fs=None,
        clock=None,
        retry=None,
        on_corruption="raise",
        obs=None,
        epoch=None,
        fence=None,
    ):
        if on_corruption not in ("raise", "quarantine"):
            raise WalError(
                "on_corruption must be 'raise' or 'quarantine', got %r"
                % (on_corruption,)
            )
        self.path = os.fspath(path)
        self.fs = fs or REAL_FILESYSTEM
        self.clock = clock or SYSTEM_CLOCK
        self.retry = retry or RetryPolicy()
        self.obs = obs if obs is not None else NULL
        self.on_corruption = on_corruption
        #: writer's fencing token; ``None`` = standalone (no HA, no
        #: ``epoch`` key in records)
        self.epoch = epoch if epoch is None else int(epoch)
        #: epoch authority consulted before every append (``Lease`` or
        #: anything else with ``current_epoch()``); ``None`` = only the
        #: epochs already in the log can fence us out
        self.fence = fence
        #: called with a copy of each record after its durable append —
        #: the leader's replication tap
        self.on_append = None
        self._handle = None
        records, error, intact_bytes = _scan(self.path, self.fs)
        if error is not None:
            if on_corruption == "raise":
                raise error
            records = self._quarantine(records, error)
        elif self.fs.exists(self.path):
            # A torn tail is *logically* dropped by the scan, but its
            # bytes are still on disk: cut them off now, or the next
            # append would splice onto the fragment and turn a clean
            # torn tail into mid-file corruption.
            size = self.fs.getsize(self.path)
            if size > intact_bytes:
                self.fs.truncate(self.path, intact_bytes)
            elif records and size == intact_bytes - 1:
                # The final record survived the crash but its newline
                # did not: restore the separator so the next append
                # starts a fresh line instead of splicing onto it.
                self._repair_missing_newline(size)
        self._next_seq = records[-1]["seq"] + 1 if records else 0
        self._max_epoch = max_epoch(records)

    def _repair_missing_newline(self, size):
        def attempt():
            handle = self.fs.open(self.path, "a")
            try:
                self.fs.write(handle, "\n")
                self.fs.fsync(handle)
            except OSError:
                try:  # undo a half-applied repair before the retry
                    self.fs.truncate(self.path, size)
                except OSError:  # pragma: no cover - best effort
                    pass
                raise
            finally:
                handle.close()

        self.retry.run(attempt, clock=self.clock)

    def _quarantine(self, salvaged, error):
        """Move the damaged log aside and rewrite the intact prefix."""
        destination = quarantine_path(self.path, self.fs)
        self.fs.replace(self.path, destination)
        if salvaged:
            handle = self.fs.open(self.path, "w")
            try:
                for record in salvaged:
                    self.fs.write(handle, encode_record(record) + "\n")
                self.fs.fsync(handle)
            finally:
                handle.close()
        self.fs.fsync_dir(os.path.dirname(self.path) or ".")
        self.obs.emit(
            "wal_quarantine",
            quarantined=os.path.basename(destination),
            salvaged=len(salvaged),
            error=str(error),
        )
        return salvaged

    def _ensure_handle(self):
        if self._handle is None or self._handle.closed:
            self._handle = self.fs.open(self.path, "a")
        return self._handle

    @property
    def next_seq(self):
        return self._next_seq

    def append(self, op, interval, user=None, digest=None):
        """Durably append one record; returns its sequence number.

        The call only returns once the bytes are fsynced — the caller
        may then acknowledge the request to the client.  A transient
        ``OSError`` is retried with backoff after rolling the file back
        to its pre-append length (so a half-written line never
        survives); a persistent one propagates after ``io_giveup``.
        """
        if op not in _ALL_OPS:
            raise WalError("unknown WAL op %r" % (op,))
        if self.epoch is not None:
            self._check_fence(op)
        record = {"seq": self._next_seq, "op": op, "interval": int(interval)}
        if user is not None:
            record["user"] = user
        if digest is not None:
            record["digest"] = digest
        if self.epoch is not None:
            record["epoch"] = self.epoch
        line = encode_record(record) + "\n"

        def attempt():
            handle = self._ensure_handle()
            size = self.fs.getsize(self.path)
            try:
                self.fs.write(handle, line)
                self.fs.fsync(handle)
            except OSError:
                self._rollback(size)
                raise

        self.retry.run(
            attempt,
            clock=self.clock,
            on_retry=lambda n, err: self.obs.emit(
                "io_retry", op="wal-append", attempt=n, error=str(err)
            ),
            on_giveup=lambda n, err: self.obs.emit(
                "io_giveup", op="wal-append", attempts=n, error=str(err)
            ),
        )
        self._next_seq += 1
        if self.epoch is not None:
            self._max_epoch = max(self._max_epoch, self.epoch)
        if self.on_append is not None:
            self.on_append(dict(record))
        return record["seq"]

    def _check_fence(self, op):
        """Refuse the append when a newer epoch has been minted."""
        current = self._max_epoch
        if self.fence is not None:
            current = max(current, int(self.fence.current_epoch()))
        if current > self.epoch:
            self.obs.emit(
                "ha_fenced", op=op, epoch=self.epoch, current_epoch=current
            )
            raise StaleEpochError(
                "append refused: writer epoch %d is fenced out by epoch %d"
                % (self.epoch, current)
            )

    def _rollback(self, size):
        """Drop any partial append so the log ends at ``size`` bytes."""
        try:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
        except OSError:  # pragma: no cover - close-time flush failure
            pass
        self._handle = None
        try:
            self.fs.truncate(self.path, size)
        except OSError:  # pragma: no cover - best effort
            pass

    def append_request(self, op, user, interval):
        """Log an accepted membership request (``join`` or ``leave``)."""
        if op not in REQUEST_OPS:
            raise WalError("not a membership op: %r" % (op,))
        return self.append(op, interval, user=user)

    def append_commit(self, interval, digest=None):
        """Mark ``interval``'s rekey as durably snapshotted, with the
        state digest of that snapshot."""
        return self.append("commit", interval, digest=digest)

    def records(self):
        """All intact records, oldest first (torn tail dropped)."""
        records, error = scan_records(self.path, self.fs)
        if error is not None:
            raise error
        return records

    def compact(self, before_interval):
        """Atomically drop records older than ``before_interval``.

        Safe at any time: only records a snapshot at ``before_interval``
        has already folded in are removed, so replay semantics are
        unchanged.  Survivors are rewritten in the current (v2) format,
        and the directory entry is fsynced after the rename so the
        compaction itself survives a crash.  Returns the number of
        records dropped.
        """
        records = self.records()
        keep = [r for r in records if r["interval"] >= before_interval]
        if len(keep) == len(records):
            return 0
        self.close()
        temp_path = self.path + ".compact"
        handle = self.fs.open(temp_path, "w")
        try:
            for record in keep:
                self.fs.write(handle, encode_record(record) + "\n")
            self.fs.fsync(handle)
        finally:
            handle.close()
        self.fs.replace(temp_path, self.path)
        self.fs.fsync_dir(os.path.dirname(self.path) or ".")
        return len(records) - len(keep)

    def close(self):
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return "WriteAheadLog(%r, next_seq=%d)" % (self.path, self._next_seq)
