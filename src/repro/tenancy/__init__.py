"""Multi-tenant key service: many groups, one daemon, one fencing domain.

The paper analyzes one group's rekey pipeline; a production key server
(ROADMAP item 4) runs thousands of heterogeneous groups at once.  This
package is that layer:

- :mod:`repro.tenancy.registry` — :class:`TenantSpec` /
  :class:`TenantRegistry`: each tenant's group size, scheme knobs (a
  full per-tenant :class:`~repro.core.config.GroupConfig`), cadence and
  quota, persisted as ``registry.json`` under the storage root so a
  standby can rediscover the whole fleet;
- :mod:`repro.tenancy.quotas` — admission control (bounded join/leave
  intake per tenant, with the ``offered = accepted + shed +
  quarantined`` accounting identity) and the per-tenant quarantine
  breaker;
- :mod:`repro.tenancy.scheduler` — the shared deadline-aware tick
  scheduler: heterogeneous cadences, an estimated-cost budget per tick,
  and whale demotion so one overloaded tenant defers itself, never its
  neighbors;
- :mod:`repro.tenancy.daemon` — :class:`MultiGroupDaemon`: one
  :class:`~repro.service.daemon.RekeyDaemon` per tenant, namespaced
  WAL/snapshot state under one root, per-tenant observability labels;
- :mod:`repro.tenancy.failover` — :func:`promote_all`: a standby
  re-homes every tenant under one freshly minted lease epoch, verifying
  per-tenant state digests and interval continuity;
- :mod:`repro.tenancy.soak` — the ``tenancy-soak`` family and its
  three digest-pinned plans (noisy-neighbor, tenant-WAL-corruption,
  mass re-home), run by the one soak harness in :mod:`repro.chaos.soak`.

See ``docs/tenancy.md`` for the operational story.
"""

from repro.tenancy.daemon import MultiGroupDaemon
from repro.tenancy.failover import PromotionReport, promote_all
from repro.tenancy.quotas import AdmissionController, TenantBreaker, TenantQuota
from repro.tenancy.registry import TenantRegistry, TenantSpec, make_fleet
from repro.tenancy.scheduler import DeadlineScheduler, estimate_cost
from repro.tenancy.soak import TENANCY_PLAN_NAMES

__all__ = [
    "AdmissionController",
    "DeadlineScheduler",
    "MultiGroupDaemon",
    "PromotionReport",
    "TENANCY_PLAN_NAMES",
    "TenantBreaker",
    "TenantQuota",
    "TenantRegistry",
    "TenantSpec",
    "estimate_cost",
    "make_fleet",
    "promote_all",
]
