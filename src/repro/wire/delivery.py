"""The ``wire`` delivery backend: the daemon's bridge onto real UDP.

:class:`WireDelivery` plugs the asyncio wire plane into the synchronous
:class:`~repro.service.daemon.RekeyDaemon` pipeline behind the same
``deliver()`` interface as the simulated and loopback-thread backends.
It owns a dedicated event-loop thread running one :class:`WireServer`
and — in the default in-process mode — every member's
:class:`WireClient` plus the one :class:`ReceiverShard` they share;
each ``deliver()`` call is bridged with ``run_coroutine_threadsafe``
and blocks until the interval has been served over the sockets.

Two properties the simulated backends cannot offer:

- **real AdjustRho input**: the wire feedback carries each NACK's
  per-block parity shortfalls, so the cross-interval
  :class:`~repro.transport.adaptive.ProactivityController` is driven
  with the paper's actual ``A`` vector instead of the ``[1] * nacks``
  approximation documented in :mod:`repro.service.transports`;
- **real recovery rounds**: every member reports the round its keys
  actually arrived in over the socket, so the daemon's
  ``recovery_latency_rounds`` histogram measures the wire, not
  simulator bookkeeping.

With ``workers > 0`` the clients run in spawned worker processes
instead (:mod:`repro.wire.worker`), one receiver shard per worker; the
daemon-side fleet must then be a
:class:`WireFleet`, whose agreement oracle is the key fingerprints the
members reported over the wire — their real key state lives in the
workers.
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import WireError, WorkerCrashError
from repro.obs.trace import current_trace_id
from repro.service.members import MemberFleet
from repro.service.transports import (
    DeliveryBackend,
    DeliveryReport,
    rho_controller,
    step_rho,
    verdict,
)
from repro.util.rng import RandomSource
from repro.wire.client import ReceiverShard, WireClient
from repro.wire.loss import cohort_of
from repro.wire.server import Participant, WireServer

#: Per-fan-out pacing used automatically in worker mode, where the
#: receiving sockets drain in other processes: bounds the burst a client
#: socket must buffer so kernel drops never pollute the seeded loss.
WORKER_PACE_SECONDS = 0.0005

#: Ceiling on one bridged delivery (covers MAX_WINDOW_TRIES worst case).
DELIVER_TIMEOUT_SECONDS = 300.0


class WireFleet(MemberFleet):
    """A fleet whose agreement oracle is wire-reported fingerprints.

    In worker mode the members' real key state lives in other processes;
    the daemon-side :class:`GroupMember` objects stop absorbing keys
    after registration.  This fleet therefore checks agreement against
    the group-key fingerprints the members *reported over the wire* (12
    hex chars of BLAKE2b, same as ``SymmetricKey.fingerprint``) — which
    is also how a real operator would audit agreement across remote
    members.  Secrecy needs no member state at all: the inherited
    ledger reads the server's tree and the rekey message.
    """

    stale_error = "members reported stale group keys over the wire: %r"

    def __init__(self):
        super().__init__()
        #: name -> last group-key fingerprint the member reported (or
        #: held at registration, which the registration channel knows)
        self.wire_fingerprints = {}

    def register(self, server, name):
        member = super().register(server, name)
        self.wire_fingerprints[name] = server.group_key.fingerprint()
        return member

    def evict(self, name):
        super().evict(name)
        self.wire_fingerprints.pop(name, None)

    def note_fingerprint(self, name, fingerprint):
        """Record a member's wire-reported group-key fingerprint."""
        if name in self.wire_fingerprints:
            self.wire_fingerprints[name] = fingerprint

    def out_of_sync(self, server):
        expected = server.group_key.fingerprint()
        return sorted(
            name
            for name, fingerprint in self.wire_fingerprints.items()
            if fingerprint != expected
        )


class WireDelivery(DeliveryBackend):
    """Deliver rekey messages over the asyncio UDP wire plane."""

    def __init__(
        self,
        config,
        seed=None,
        host="127.0.0.1",
        port=0,
        workers=0,
        pace_seconds=None,
        obs_dir=None,
        resync_timeout=None,
        epoch=0,
        liveness_tries=None,
        faults=None,
        on_casualty=None,
        crash_plan=None,
        register_timeout=30.0,
        handoff=None,
    ):
        self.config = config
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        #: directory for per-worker trace streams (worker mode only)
        self.obs_dir = obs_dir
        pace_defaulted = pace_seconds is None
        if pace_defaulted:
            pace_seconds = WORKER_PACE_SECONDS if self.workers else 0.0
        self.pace_seconds = float(pace_seconds)
        #: client silence watchdog (seconds); None disables resync
        self.resync_timeout = resync_timeout
        #: HA fencing token stamped on ANNOUNCE and REGISTER acks.
        #: 0 = unfenced (every pre-failover run).
        self.epoch = int(epoch)
        #: feedback-window misses before the server declares a member
        #: dead mid-interval; None = wait forever (the legacy behaviour)
        self.liveness_tries = liveness_tries
        #: optional DatagramFaultInjector wired into the server's seam
        self.faults = faults
        #: callback(name) fired once per liveness casualty, from the
        #: daemon's own thread — safe to call ``daemon.submit_leave``
        self.on_casualty = on_casualty
        #: name -> (interval, round) scripted client deaths (chaos plans)
        self.crash_plan = dict(crash_plan or {})
        #: registration-barrier deadline per delivery
        self.register_timeout = float(register_timeout)
        self._seed = config.seed if seed is None else int(seed)
        self.controller = rho_controller(
            config, RandomSource(self._seed).generator()
        )
        self._loop = None
        self._thread = None
        self.server = None
        self._pool = None  # WorkerPool, worker mode only
        self._shard = None  # ReceiverShard, in-process mode only
        self._clients = {}  # name -> WireClient (in-process mode)
        self._indices = {}  # name -> member_index (never reused)
        self._next_index = 0
        self._calls = 0
        #: names declared dead (liveness casualties) — excluded from
        #: the registration barrier and the participant roster until
        #: the intake's leave removes them from the fleet entirely
        self._dead = set()
        #: canonical per-interval records — the fleet digest's input
        self.records = []
        #: shard subscriptions a new server must learn (handoff only)
        self._subscriptions = {}
        if handoff is not None:
            # Adopt a failed leader's live wire plane (see
            # :meth:`handoff`): same port so the clients' sockets keep
            # a valid destination, same index space so loss chains and
            # slot dedup continue, same interval counter so ANNOUNCEs
            # stay monotonic across the failover.
            self._pool = handoff["pool"]
            self.workers = self._pool.n_workers
            if pace_defaulted:
                self.pace_seconds = WORKER_PACE_SECONDS
            self._indices = dict(handoff["indices"])
            self._next_index = (
                max(self._indices.values(), default=-1) + 1
            )
            self._calls = int(handoff["first_interval"])
            self.port = int(handoff["port"])
            self._dead = set(handoff.get("dead", ()))
            self._subscriptions = dict(handoff["subscriptions"])

    @property
    def dead_members(self):
        """Names declared dead by the liveness path (frozen view)."""
        return frozenset(self._dead)

    # -- loop plumbing -----------------------------------------------------

    def _ensure_started(self):
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="wire-loop",
            daemon=True,
        )
        self._thread.start()
        self.server = self._run(self._start_server())
        for index, address in self._subscriptions.items():
            self.server.subscribe(index, address)
        if not self.workers:
            self._shard = self._run(
                ReceiverShard(self.server.address, obs=self.obs).start()
            )
        elif self._pool is None:
            from repro.wire.worker import WorkerPool

            self._pool = WorkerPool(
                self.workers,
                self.server.address,
                loss=self.config.loss,
                seed=self._seed,
                spacing_seconds=self.config.sending_interval_ms * 1e-3,
                obs_dir=self.obs_dir,
                resync_timeout=self.resync_timeout,
            )

    async def _start_server(self):
        server = WireServer(
            self.config,
            host=self.host,
            port=self.port,
            obs=self.obs,
            epoch=self.epoch,
            faults=self.faults,
            liveness_tries=self.liveness_tries,
        )
        return await server.start()

    def _run(self, coro, timeout=DELIVER_TIMEOUT_SECONDS):
        """Run a coroutine on the wire loop from the daemon's thread."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    # -- roster ------------------------------------------------------------

    def _member_index(self, name):
        index = self._indices.get(name)
        if index is None:
            # Indices are never reused: a member's index seeds its loss
            # chains and a rejoin must not resurrect an old chain state.
            index = self._next_index
            self._indices[name] = index
            self._next_index += 1
        return index

    def _sync_roster(self, fleet):
        """Make the wire population match ``fleet.members`` exactly."""
        current = set(
            self._clients if self._pool is None else self._pool.names
        )
        wanted = set(fleet.members)
        added = sorted(wanted - current)
        removed = sorted(current - wanted)
        if self._pool is not None:
            for name in removed:
                self.server.forget(self._indices[name])
            self._pool.remove(removed)
            self._pool.add(
                [
                    _member_spec(
                        name,
                        self._member_index(name),
                        fleet.members[name],
                        crash_at=self.crash_plan.get(name),
                    )
                    for name in added
                ]
            )
            for name in added:
                index = self._indices[name]
                self.server.subscribe(index, self._pool.shard_of(index))
        elif added or removed:
            leavers = [self._clients.pop(name) for name in removed]
            joiners = []
            for name in added:
                client = WireClient(
                    name,
                    self._member_index(name),
                    fleet.members[name],
                    self.server.address,
                    loss_params=self.config.loss,
                    seed=self._seed,
                    spacing_seconds=self.config.sending_interval_ms * 1e-3,
                    obs=self.obs,
                    resync_timeout=self.resync_timeout,
                    crash_at=self.crash_plan.get(name),
                    shard=self._shard,
                )
                self._clients[name] = client
                joiners.append(client)
            self._run(self._apply_roster(leavers, joiners))
        if added or removed:
            self.obs.gauge("wire_clients", len(wanted))
        return [self._indices[name] for name in sorted(wanted)]

    async def _apply_roster(self, leavers, joiners):
        """One loop hop per roster sync: close the leavers, start and
        subscribe the joiners (indices were assigned by the caller)."""
        for client in leavers:
            self.server.forget(client.member_index)
            await client.close()
        for client in joiners:
            await client.start()
            self.server.subscribe(client.member_index, self._shard.address)

    # -- delivery ----------------------------------------------------------

    def deliver(self, message, fleet, deadline_rounds=2, policy="unicast"):
        policy_ignored = policy == "carry"
        if policy_ignored:
            # Not silent: the wire plane always serves stragglers
            # inside the interval, so a configured carry policy is not
            # in force here — say so on the bus and in the report.
            self.obs.emit(
                "degradation_policy_ignored",
                transport="wire",
                policy=policy,
                effective="unicast",
            )
        self._ensure_started()
        fleet.relocate_all(message.max_kid)
        self._calls += 1
        interval = self._calls
        self._sync_roster(fleet)
        barrier = [
            self._indices[name]
            for name in sorted(fleet.members)
            if name not in self._dead
        ]
        self._run(
            self.server.wait_registered(
                barrier,
                timeout=self.register_timeout,
                abort=self._raise_if_workers_dead,
            )
        )

        self.controller.k = message.k
        rho = self.controller.rho
        names_by_index = {
            index: name for name, index in self._indices.items()
        }
        gaps_before = self._data_gaps()
        participants = [
            Participant(
                member_index=self._indices[name],
                user_id=member.user_id,
                served=member.user_id in message.needs_by_user,
            )
            for name, member in sorted(fleet.members.items())
            if name not in self._dead
        ]
        outcome = self._run(
            self.server.deliver(
                message,
                interval,
                participants,
                rho=rho,
                deadline_rounds=deadline_rounds,
                pace_seconds=self.pace_seconds,
                trace_id=current_trace_id(),
            )
        )
        self._check_errors()
        data_gaps = self._data_gaps() - gaps_before

        # Liveness casualties: members the server declared dead
        # mid-interval.  They leave this delivery as ``carried`` (the
        # daemon's carry ledger keeps the agreement check honest until
        # the intake evicts them) and ``on_casualty`` feeds each one to
        # the leave intake so the next interval rekeys them out.
        casualty_names = sorted(
            names_by_index[index]
            for index in outcome.casualties
            if index in names_by_index
        )
        for name in casualty_names:
            self._dead.add(name)
        if self.on_casualty is not None:
            for name in casualty_names:
                self.on_casualty(name)

        results = outcome.results
        not_done = sorted(
            names_by_index[index]
            for index, feedback in results.items()
            if not feedback.done and index not in outcome.casualties
        )
        if not_done:
            raise WireError(
                "wire delivery left members unserved: %r" % (not_done,)
            )
        step_rho(self.controller, outcome.first_round_requests, self.obs)

        ordered = sorted(i for i in results if i not in outcome.casualties)
        recovery_rounds = [results[i].recovery_round for i in ordered]
        dropped_total = sum(results[i].dropped for i in ordered)
        alpha = self.config.loss.alpha
        if isinstance(fleet, WireFleet):
            for index in ordered:
                fleet.note_fingerprint(
                    names_by_index[index], results[index].fingerprint
                )
        if self.obs.enabled:
            for index in ordered:
                feedback = results[index]
                cohort = cohort_of(index, alpha)
                self.obs.emit(
                    "wire_member_recovered",
                    member_index=index,
                    cohort=cohort,
                    recovery_round=feedback.recovery_round,
                    latency_ms=round(feedback.latency_ms, 3),
                    dropped=feedback.dropped,
                )
                # Per-cohort wire latency histogram: the /metrics view
                # of the paper's high- vs low-loss recovery split.
                self.obs.observe(
                    "wire_recovery_latency_ms",
                    feedback.latency_ms,
                    cohort=cohort,
                )
            self.obs.gauge("wire_rho", rho)
            self.obs.count(
                "wire_datagrams_sent", by=outcome.datagrams_sent
            )
            self.obs.count("wire_data_dropped", by=dropped_total)
            self.obs.count(
                "wire_feedback_retries", by=outcome.feedback_retries
            )

        unicast_served = len(outcome.unicast_user_ids)
        self.records.append(
            {
                "interval": interval,
                "members": len(participants),
                "served": len(ordered),
                "rounds": outcome.rounds,
                "rho": round(rho, 6),
                "first_round_requests": list(
                    outcome.first_round_requests
                ),
                "nacks_per_round": [
                    stat["nacks"] for stat in outcome.round_stats
                ],
                "packets_per_round": [
                    stat["packets"] for stat in outcome.round_stats
                ],
                "recovery_rounds": recovery_rounds,
                "dropped": dropped_total,
                "unicast_users": unicast_served,
            }
        )
        if casualty_names:
            # Key present only on casualty intervals: fault-free runs
            # keep producing byte-identical records (pinned digests).
            self.records[-1]["casualties"] = casualty_names
        detail = {
            "datagrams_sent": outcome.datagrams_sent,
            "data_datagrams": outcome.data_datagrams,
            "feedback_datagrams": outcome.feedback_datagrams,
            "data_gaps": data_gaps,
            "data_dropped": dropped_total,
            "announce_retries": outcome.announce_retries,
            "feedback_retries": outcome.feedback_retries,
            "unicast_retries": outcome.unicast_retries,
        }
        if policy_ignored:
            detail["policy_ignored"] = True
        if casualty_names:
            detail["casualties"] = casualty_names
        self.obs.emit(
            "wire_delivery_complete",
            interval=interval,
            rounds=outcome.rounds,
            served=len(ordered),
            unicast_served=unicast_served,
            dropped=dropped_total,
            data_datagrams=outcome.data_datagrams,
            feedback_datagrams=outcome.feedback_datagrams,
            data_gaps=data_gaps,
        )
        return DeliveryReport(
            mode="wire",
            decision=verdict(casualty_names, unicast_served),
            rho=rho,
            multicast_rounds=outcome.rounds,
            first_round_nacks=len(outcome.first_round_requests),
            unicast_served=unicast_served,
            recovery_rounds=recovery_rounds,
            carried=casualty_names,
            detail=detail,
        )

    def _data_gaps(self):
        """DATA slots the receiver shards saw skipped, so far (worker
        mode: as of the pool's last ``check``)."""
        if self._pool is not None:
            return self._pool.data_gaps
        return self._shard.data_gaps

    def _raise_if_workers_dead(self):
        """Raise :class:`WorkerCrashError` if any worker process died.

        Used as the registration barrier's abort hook: a crashed worker
        means its clients will never register, so waiting out the full
        deadline only delays the inevitable diagnosis.
        """
        if self._pool is None:
            return
        dead = self._pool.dead_workers()
        if dead:
            raise WorkerCrashError(
                "worker process(es) crashed: %s"
                % ", ".join(
                    "slot %d (exit code %r)" % (slot, code)
                    for slot, code in dead
                )
            )

    def client_stats(self):
        """``{name: stats}`` resync-FSM counters for every live client.

        Reaches across process boundaries in worker mode — this is how
        the failover harness audits that every surviving client adopted
        the promoted leader's epoch.
        """
        stats = {
            name: client.stats()
            for name, client in self._clients.items()
        }
        if self._pool is not None:
            stats.update(self._pool.stats())
        return stats

    def handoff(self):
        """Detach the live client fleet so a successor can adopt it.

        Returns the adoption record a promoted standby passes to a new
        :class:`WireDelivery` as ``handoff=``: the worker pool (whose
        processes — and their client and shard sockets — outlive this
        backend), the name→index map, the interval counter, the bound
        port and the shard subscriptions the new server must learn.
        The caller still ``close()``-s this backend afterwards, which
        frees the port for the successor to rebind; the pool is no
        longer ours, so ``close()`` leaves it running.

        Worker mode only: in-process clients live on this backend's
        event loop and die with it.
        """
        if self._loop is None or self.server is None:
            raise WireError("nothing to hand off: wire plane not started")
        if self._pool is None:
            raise WireError(
                "handoff requires worker mode (client processes that "
                "outlive this backend)"
            )
        pool, self._pool = self._pool, None
        return {
            "pool": pool,
            "indices": dict(self._indices),
            "first_interval": self._calls,
            "port": int(self.server.address[1]),
            "dead": set(self._dead),
            "subscriptions": self.server.subscriptions,
        }

    def _check_errors(self):
        """Surface anything the socket paths swallowed mid-delivery."""
        self._raise_if_workers_dead()
        errors = list(self.server.errors)
        if self._shard is not None:
            errors.extend("shard: %s" % error for error in self._shard.errors)
        for client in self._clients.values():
            errors.extend(
                "%s: %s" % (client.name, error) for error in client.errors
            )
        if self._pool is not None:
            errors.extend(self._pool.check())
        if errors:
            raise WireError(
                "wire plane reported %d error(s): %s"
                % (len(errors), "; ".join(errors[:5]))
            )

    # -- teardown ----------------------------------------------------------

    def close(self):
        if self._loop is None:
            return
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._clients:
            self._run(
                self._apply_roster(list(self._clients.values()), []),
                timeout=10.0,
            )
            self._clients.clear()
        if self._shard is not None:
            self._run(self._shard.close(), timeout=10.0)
            self._shard = None
        if self.server is not None:
            self._run(self.server.close(), timeout=10.0)
            self.server = None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _member_spec(name, member_index, member, crash_at=None):
    """Serialise one member's key state for a worker process."""
    return (
        name,
        member_index,
        member.user_id,
        member.degree,
        [
            (node_id, key.material.hex(), key.version)
            for node_id, key in sorted(member.path_keys.items())
        ],
        tuple(crash_at) if crash_at is not None else None,
    )
