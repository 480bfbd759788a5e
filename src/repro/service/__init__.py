"""Long-running rekey service: daemon, churn drivers, WAL, health.

The paper's analysis is per-interval; this package runs the key server
*across* intervals as a durable, observable daemon:

- :mod:`repro.service.daemon` — :class:`RekeyDaemon`: scheduler,
  concurrent request intake, crash injection, snapshot+WAL recovery;
- :mod:`repro.service.churn` — sustained workload drivers (Poisson at
  the paper's α, flash crowds, trace replay);
- :mod:`repro.service.wal` — the fsynced write-ahead log of accepted
  membership requests;
- :mod:`repro.service.transports` — delivery backends (direct / the
  simulated lossy transport with AdjustRho / the asyncio UDP wire plane
  of :mod:`repro.wire`) with per-interval deadlines and recorded
  degradation decisions;
- :mod:`repro.service.members` — the in-process member population that
  survives daemon crashes and checks agreement/lockout invariants;
- :mod:`repro.service.group` — :class:`SecureGroup`, the one-process
  facade: a key server, its :class:`MemberFleet` and these backends;
- :mod:`repro.service.health` — per-interval metrics ledger, JSON
  export, and the probe-style health summary.

Driven from the CLI by ``python -m repro serve``; see ``docs/service.md``.
"""

from repro.service.churn import (
    ChurnEvents,
    FlashCrowdChurn,
    NoChurn,
    PoissonChurn,
    TraceChurn,
    make_driver,
    save_trace,
)
from repro.service.daemon import (
    CRASH_POINTS,
    CircuitBreaker,
    CrashPlan,
    DaemonConfig,
    DaemonCrash,
    RekeyDaemon,
)
from repro.service.group import SecureGroup
from repro.service.health import IntervalMetrics, ServiceMetrics
from repro.service.members import MemberFleet
from repro.service.transports import (
    DeliveryReport,
    DirectDelivery,
    SessionDelivery,
    make_backend,
)
from repro.service.wal import (
    WriteAheadLog,
    quarantine_path,
    read_records,
    scan_records,
)

__all__ = [
    "CRASH_POINTS",
    "ChurnEvents",
    "CircuitBreaker",
    "CrashPlan",
    "DaemonConfig",
    "DaemonCrash",
    "DeliveryReport",
    "DirectDelivery",
    "FlashCrowdChurn",
    "IntervalMetrics",
    "MemberFleet",
    "NoChurn",
    "PoissonChurn",
    "RekeyDaemon",
    "SecureGroup",
    "ServiceMetrics",
    "SessionDelivery",
    "TraceChurn",
    "WriteAheadLog",
    "make_backend",
    "make_driver",
    "quarantine_path",
    "read_records",
    "save_trace",
    "scan_records",
]
