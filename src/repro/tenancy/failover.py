"""Bulk failover: one promotion re-homes every tenant.

The single-group HA story (:mod:`repro.ha`) promotes one standby into
one group.  At tenancy scale the unit of failover is the *fleet*: the
storage root holds a thousand tenants' WALs and snapshots plus one
lease file, and :func:`promote_all` turns a cold standby into the
leader of all of them in one linearization step:

1. **Acquire the lease** — the root's single ``lease.json`` mints the
   next epoch.  Because every tenant's WAL was constructed with this
   lease as its fence, the one acquisition fences a deposed leader out
   of *every* tenant's write path before any byte lands.
2. **Recover every tenant** — each walks the ordinary snapshot + WAL
   recovery ladder under the new epoch
   (:meth:`~repro.tenancy.daemon.MultiGroupDaemon.recover_all`), so a
   tenant mid-crash replays its logged requests exactly as single-group
   recovery does: no interval is lost in any tenant.
3. **Verify the digests** — the old leader recorded each tenant's
   post-interval state digest beside its snapshot; a recovered tenant
   whose interval matches the record must reproduce that digest byte
   for byte.  A mismatch is surfaced (and fails the soak invariant)
   rather than silently splitting a tenant's key space.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.chaos.seams import REAL_FILESYSTEM, SYSTEM_CLOCK
from repro.errors import TenancyError
from repro.ha.digest import server_digest
from repro.ha.lease import DEFAULT_TTL, Lease
from repro.obs.recorder import NULL
from repro.tenancy.daemon import MultiGroupDaemon, read_digest

#: the fleet's single fencing domain, beside the registry
LEASE_FILENAME = "lease.json"


def fleet_lease(state_root, node_id, ttl=DEFAULT_TTL, fs=None, clock=None,
                obs=None):
    """The one lease every tenant of ``state_root`` is fenced by."""
    return Lease(
        os.path.join(os.fspath(state_root), LEASE_FILENAME),
        node_id,
        ttl=ttl,
        fs=fs,
        clock=clock,
        obs=obs,
    )


@dataclass
class PromotionReport:
    """What one bulk failover re-homed, and how it checked out."""

    node: str
    epoch: int
    tenants: int = 0
    digests_verified: int = 0
    digest_mismatches: list = field(default_factory=list)
    #: tenants recovered at a different interval than their recorded
    #: digest (a mid-crash tenant replaying its WAL suffix) — their
    #: digest check is deferred to their next committed interval
    digests_skipped: int = 0
    requests_replayed: int = 0

    @property
    def ok(self):
        return not self.digest_mismatches

    def to_dict(self):
        return {
            "node": self.node,
            "epoch": self.epoch,
            "tenants": self.tenants,
            "digests_verified": self.digests_verified,
            "digest_mismatches": list(self.digest_mismatches),
            "digests_skipped": self.digests_skipped,
            "requests_replayed": self.requests_replayed,
            "ok": self.ok,
        }


def promote_all(
    state_root,
    node_id,
    ttl=DEFAULT_TTL,
    churn=None,
    budget=None,
    solo_fraction=0.5,
    breaker_threshold=3,
    breaker_cooldown=4,
    backend_factory=None,
    service_factory=None,
    obs=None,
    fs=None,
    clock=None,
    retry=None,
):
    """Fail the whole fleet over to ``node_id``.

    Returns ``(daemon, report)`` — the promoted
    :class:`~repro.tenancy.daemon.MultiGroupDaemon` and the
    :class:`PromotionReport`.  Raises
    :class:`~repro.errors.HaError` while the old leader's lease is
    still live (promotion waits out the TTL, bounding split-brain), or
    :class:`~repro.errors.TenancyError` when the root has no registry.
    """
    obs = obs if obs is not None else NULL
    fs = fs if fs is not None else REAL_FILESYSTEM
    clock = clock if clock is not None else SYSTEM_CLOCK
    lease = fleet_lease(
        state_root, node_id, ttl=ttl, fs=fs, clock=clock, obs=obs
    )
    epoch = lease.acquire()
    daemon = MultiGroupDaemon.recover_all(
        state_root,
        churn=churn,
        budget=budget,
        solo_fraction=solo_fraction,
        breaker_threshold=breaker_threshold,
        breaker_cooldown=breaker_cooldown,
        backend_factory=backend_factory,
        service_factory=service_factory,
        obs=obs,
        fs=fs,
        clock=clock,
        retry=retry,
        epoch=epoch,
        fence=lease,
        lease=lease,
    )
    report = PromotionReport(node=str(node_id), epoch=epoch)
    for name, tenant in daemon.daemons.items():
        report.tenants += 1
        report.requests_replayed += tenant.metrics.counters[
            "requests_replayed"
        ]
        recorded = read_digest(state_root, name, fs=fs)
        interval = tenant.server.intervals_processed
        matched = None
        if (
            recorded is not None
            and int(recorded.get("interval", -1)) == interval
        ):
            matched = server_digest(tenant.server) == recorded.get("digest")
            if matched:
                report.digests_verified += 1
            else:
                report.digest_mismatches.append(name)
        else:
            report.digests_skipped += 1
        if obs.enabled:
            obs.emit(
                "tenant_rehomed",
                tenant=name,
                interval=interval,
                epoch=epoch,
                digest_ok=matched,
                replay=tenant._replay_interval,
            )
    if obs.enabled:
        obs.emit(
            "tenancy_promote",
            node=str(node_id),
            epoch=epoch,
            tenants=report.tenants,
            digests_verified=report.digests_verified,
            mismatches=len(report.digest_mismatches),
        )
        obs.gauge("tenancy_epoch", epoch)
    if report.digest_mismatches:
        # Surfaced, not fatal: the caller (soak, operator) decides —
        # unlike single-group promote there are 999 healthy tenants to
        # keep serving while one is investigated.
        for name in report.digest_mismatches:
            obs.count("tenancy_digest_mismatches", tenant=name)
    return daemon, report

