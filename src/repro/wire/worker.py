"""Worker processes hosting wire clients (multi-process fleet mode).

One worker process = one asyncio loop running a slice of the client
fleet behind one :class:`~repro.wire.client.ReceiverShard`, which takes
the slice's ANNOUNCE, DATA and ROUND_END frames and answers with one
FEEDBACK table per round.  On start the worker sends
``("shard", address)`` up its pipe, so the parent can subscribe the
worker's members to that socket.  The parent
(:class:`~repro.wire.delivery.WireDelivery`) then talks to each worker
over a :mod:`multiprocessing` pipe with these commands:

- ``("add", [spec, ...])`` — build clients from serialised member state
  (name, index, user id, degree, path keys) and start them; each client
  registers itself with the server over UDP, so the parent's
  ``wait_registered`` barrier is the only synchronisation needed;
- ``("remove", [name, ...])`` — close clients of evicted members;
- ``("check", None)`` — reply ``("errors", ([...], data_gaps))`` with
  everything the clients' and the shard's socket paths recorded, so the
  parent can fail loudly, and the shard's gap count;
- ``("stats", None)`` — reply ``("stats", [(name, dict), ...])`` with
  each client's resync-FSM counters (see ``WireClient.stats``), so the
  failover harness can audit epochs across process boundaries;
- ``("stop", None)`` — close everything and exit.

Workers are started with the ``spawn`` context: the parent runs an
event-loop thread, and forking a multi-threaded process inherits lock
state no child should trust.

Member state crosses the process boundary *once*, at add time, when it
is registration-fresh; afterwards the worker's shadow
:class:`~repro.core.member.GroupMember` evolves exactly like the real
member would — by decrypting rekey messages off the wire.  The parent's
own copy goes stale, which is why worker mode pairs with
:class:`~repro.wire.delivery.WireFleet` (fingerprint-based agreement).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os

from repro.errors import WireError, WorkerCrashError

#: Seconds a spawned worker may take to import and report its shard.
START_TIMEOUT = 60.0


def worker_main(conn, server_address, loss, seed, spacing_seconds,
                obs_path=None, resync_timeout=None):
    """Entry point of one worker process.

    With ``obs_path`` the worker opens its own line-buffered JSONL
    event stream (one file per process — streams are merged later by
    the trace assembler), so client-side trace milestones survive even
    a SIGKILLed worker.
    """
    from repro.obs.events import EventBus
    from repro.obs.recorder import NULL, Recorder

    bus = None
    obs = NULL
    if obs_path is not None:
        bus = EventBus(path=obs_path, line_buffered=True)
        obs = Recorder(bus=bus)
    try:
        asyncio.run(
            _worker_loop(
                conn, tuple(server_address), loss, seed, spacing_seconds,
                obs=obs, resync_timeout=resync_timeout,
            )
        )
    finally:
        if bus is not None:
            bus.close()


async def _worker_loop(conn, server_address, loss, seed, spacing_seconds,
                       obs=None, resync_timeout=None):
    from repro.obs.recorder import NULL
    from repro.wire.client import ReceiverShard, WireClient

    if obs is None:
        obs = NULL

    loop = asyncio.get_running_loop()
    clients = {}
    errors = []
    stop = asyncio.Event()
    shard = await ReceiverShard(server_address, obs=obs).start()
    conn.send(("shard", shard.address))

    async def add_client(spec):
        try:
            name, member_index, user_id, degree, path_keys = spec[:5]
            crash_at = None
            if len(spec) > 5 and spec[5] is not None:
                crash_at = tuple(spec[5])
            client = WireClient(
                name,
                member_index,
                _rebuild_member(name, user_id, degree, path_keys),
                server_address,
                loss_params=loss,
                seed=seed,
                spacing_seconds=spacing_seconds,
                obs=obs,
                resync_timeout=resync_timeout,
                crash_at=crash_at,
                shard=shard,
            )
            clients[name] = client
            await client.start()
        except Exception as exc:  # noqa: BLE001 - reported via "check"
            errors.append(
                "add %r: %s: %s" % (spec[0], type(exc).__name__, exc)
            )

    async def remove_client(name):
        client = clients.pop(name, None)
        if client is not None:
            errors.extend(
                "%s: %s" % (client.name, error) for error in client.errors
            )
            await client.close()

    def collect_errors():
        found = list(errors) + ["shard: %s" % e for e in shard.errors]
        del shard.errors[:]
        for client in clients.values():
            found.extend(
                "%s: %s" % (client.name, error) for error in client.errors
            )
            del client.errors[:]
        del errors[:]
        return found

    def on_readable():
        try:
            while conn.poll():
                op, payload = conn.recv()
                if op == "add":
                    for spec in payload:
                        loop.create_task(add_client(spec))
                elif op == "remove":
                    for name in payload:
                        loop.create_task(remove_client(name))
                elif op == "check":
                    conn.send(("errors", (collect_errors(), shard.data_gaps)))
                elif op == "stats":
                    conn.send(
                        (
                            "stats",
                            [
                                (name, client.stats())
                                for name, client in sorted(clients.items())
                            ],
                        )
                    )
                elif op == "stop":
                    stop.set()
                    return
        except (EOFError, OSError):
            stop.set()

    loop.add_reader(conn.fileno(), on_readable)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        for client in list(clients.values()):
            await client.close()
        await shard.close()
        conn.close()


def _rebuild_member(name, user_id, degree, path_keys):
    from repro.core.member import GroupMember
    from repro.crypto.keys import SymmetricKey

    keys = {
        node_id: SymmetricKey(
            bytes.fromhex(material), node_id=node_id, version=version
        )
        for node_id, material, version in path_keys
    }
    return GroupMember(name, user_id, keys, degree)


class WorkerPool:
    """The parent-side handle on a set of client worker processes."""

    def __init__(self, n_workers, server_address, loss, seed,
                 spacing_seconds, obs_dir=None, resync_timeout=None):
        if n_workers < 1:
            raise WireError("worker pool needs at least one worker")
        context = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        self.names = set()
        self._where = {}  # name -> worker slot
        self.obs_paths = []
        for slot in range(int(n_workers)):
            obs_path = None
            if obs_dir is not None:
                obs_path = os.path.join(
                    obs_dir, "worker-%02d.jsonl" % slot
                )
                self.obs_paths.append(obs_path)
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                args=(
                    child_conn,
                    tuple(server_address),
                    loss,
                    int(seed),
                    float(spacing_seconds),
                    obs_path,
                    resync_timeout,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        #: DATA slots the workers' shards saw skipped, as of the last
        #: :meth:`check`
        self.data_gaps = 0
        #: per worker slot, its receiver shard's ``(host, port)``
        self.shard_addresses = []
        try:
            for slot in range(len(self._procs)):
                self.shard_addresses.append(
                    tuple(
                        self._reply(slot, "start", "shard", START_TIMEOUT)
                    )
                )
        except Exception:
            self.close()
            raise

    @property
    def n_workers(self):
        return len(self._procs)

    def _slot_of(self, member_index):
        # Deterministic placement; a member stays on one worker for life.
        return int(member_index) % len(self._conns)

    def shard_of(self, member_index):
        """The receiver shard address hosting ``member_index``."""
        return self.shard_addresses[self._slot_of(member_index)]

    def add(self, specs):
        by_slot = {}
        for spec in specs:
            slot = self._slot_of(spec[1])
            by_slot.setdefault(slot, []).append(spec)
            self._where[spec[0]] = slot
            self.names.add(spec[0])
        for slot, group in sorted(by_slot.items()):
            self._conns[slot].send(("add", group))

    def remove(self, names):
        by_slot = {}
        for name in names:
            slot = self._where.pop(name, None)
            self.names.discard(name)
            if slot is not None:
                by_slot.setdefault(slot, []).append(name)
        for slot, group in sorted(by_slot.items()):
            self._conns[slot].send(("remove", group))

    def dead_workers(self):
        """``[(slot, exitcode), ...]`` for every worker that died."""
        return [
            (slot, process.exitcode)
            for slot, process in enumerate(self._procs)
            if not process.is_alive()
        ]

    def _request(self, op, expect, timeout):
        """Round-robin ``(op, None)`` to every worker; returns replies.

        A dead worker raises :class:`WorkerCrashError` (with its exit
        code) instead of hanging on a pipe nobody will ever answer.
        """
        replies = []
        for slot, conn in enumerate(self._conns):
            if not self._procs[slot].is_alive():
                self._crashed(slot, op)
            try:
                conn.send((op, None))
            except (OSError, BrokenPipeError):
                self._crashed(slot, op)
            replies.append(self._reply(slot, op, expect, timeout))
        return replies

    def _reply(self, slot, op, expect, timeout):
        """Worker ``slot``'s next ``(expect, payload)``; returns payload."""
        if not self._conns[slot].poll(timeout):
            if not self._procs[slot].is_alive():
                self._crashed(slot, op)
            raise WireError(
                "worker %d did not answer a %s within %.1fs"
                % (slot, op, timeout)
            )
        try:
            kind, payload = self._conns[slot].recv()
        except EOFError:
            self._crashed(slot, op)
        if kind != expect:
            raise WireError(
                "worker %d answered %r to a %s" % (slot, kind, op)
            )
        return payload

    def _crashed(self, slot, op):
        self._procs[slot].join(timeout=1.0)
        raise WorkerCrashError(
            "worker %d crashed (exit code %r) during %s"
            % (slot, self._procs[slot].exitcode, op)
        )

    def check(self, timeout=10.0):
        """Collect every error the workers' clients recorded so far (and
        refresh :attr:`data_gaps`)."""
        errors = []
        data_gaps = 0
        for found, gaps in self._request("check", "errors", timeout):
            errors.extend(found)
            data_gaps += gaps
        self.data_gaps = data_gaps
        return errors

    def stats(self, timeout=10.0):
        """``{name: stats_dict}`` for every client across all workers."""
        stats = {}
        for payload in self._request("stats", "stats", timeout):
            stats.update(dict(payload))
        return stats

    def close(self, timeout=10.0):
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (OSError, BrokenPipeError):
                pass
        for process in self._procs:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._procs = []
        self.shard_addresses = []
        self.names = set()
        self._where = {}
