"""Deterministic fault injection for the rekey service.

The paper argues that rekey transport must survive loss and member
failure; this package provokes the *rest* of the failure universe — the
classes a production key server meets that the analysis assumes away —
on demand and reproducibly:

- :mod:`repro.chaos.seams` — the :class:`Filesystem` and :class:`Clock`
  facades the storage/daemon layers write through.  The real
  implementations are trivial pass-throughs; the faulty ones inject
  ``OSError`` at scheduled operations and jump the wall clock.
- :mod:`repro.chaos.faults` — the fault vocabulary and the
  :class:`FaultPlan` that schedules faults by operation occurrence,
  interval, and protocol round, all derived from one seed.
- :mod:`repro.chaos.plans` — named, versioned plans (``standard``,
  ``io-storm``, ``storage-corruptor``, ``feedback-abuse``,
  ``unrecoverable``) the CLI and CI run.
- :mod:`repro.chaos.soak` — the one soak harness (:func:`run_soak`)
  behind every fault-soak family (chaos, HA, wire, tenancy), and the
  chaos family itself: run a durable daemon under a plan, restart it
  after every storage mutation, and assert the recovery invariants
  (agreement, bounded recovery, snapshot/WAL round-trip).  Every
  injection and recovery is an obs event, so the whole run digests to
  one reproducible hash.

Everything here is deterministic: the same ``(plan, seed)`` produces
the identical fault sequence, byte offsets included.  See
``docs/robustness.md``.
"""

from repro.chaos.faults import (
    ClockJump,
    FaultPlan,
    FeedbackChaos,
    FeedbackFault,
    IoFault,
    StorageFault,
)
from repro.chaos.plans import PLAN_INTERVALS, PLAN_NAMES, make_plan
from repro.chaos.seams import (
    REAL_FILESYSTEM,
    SYSTEM_CLOCK,
    Clock,
    FaultyClock,
    FaultyFilesystem,
    Filesystem,
)
from repro.chaos.soak import SoakResult, run_soak

__all__ = [
    "Clock",
    "ClockJump",
    "FaultPlan",
    "FaultyClock",
    "FaultyFilesystem",
    "FeedbackChaos",
    "FeedbackFault",
    "Filesystem",
    "IoFault",
    "PLAN_NAMES",
    "REAL_FILESYSTEM",
    "SYSTEM_CLOCK",
    "SoakResult",
    "StorageFault",
    "make_plan",
    "PLAN_INTERVALS",
    "run_soak",
]
