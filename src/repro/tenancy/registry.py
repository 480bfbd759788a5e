"""The tenant registry: who the groups are, persisted with the state.

A :class:`TenantSpec` is everything the multi-group daemon needs to run
one group as a tenant: its name (which doubles as its state-directory
namespace), initial size, a complete per-tenant
:class:`~repro.core.config.GroupConfig` (degree, block size, rho
bounds — the scheme/parameter choice the key-management surveys frame
as the per-group knob), its scheduler cadence in ticks,
and its admission quota.

The :class:`TenantRegistry` is the ordered collection of specs, and it
is *durable*: :meth:`TenantRegistry.save` writes ``registry.json``
beside the per-tenant state directories, so bulk failover
(:func:`repro.tenancy.failover.promote_all`) can rediscover the whole
fleet — names, cadences, quotas and every scheme knob — from the shared
storage root alone.  Loading re-validates every spec through the
``GroupConfig`` constructor: a damaged registry fails loudly at load
time, not deep inside a tenant's first interval.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from repro.core.config import GroupConfig
from repro.errors import TenancyError

#: tenant names become directory names under ``<root>/tenants/`` and
#: Prometheus label values — keep them boring
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: where the registry lives under a tenancy storage root
REGISTRY_FILENAME = "registry.json"


@dataclass
class TenantSpec:
    """One tenant's group: size, scheme knobs, cadence and quota."""

    name: str
    n_members: int = 8
    config: GroupConfig = field(default_factory=GroupConfig)
    #: run this tenant's interval every ``interval_ticks`` scheduler
    #: ticks (1 = every tick; heterogeneous cadences share the queue)
    interval_ticks: int = 1
    #: join/leave requests admitted per interval (``None`` = unlimited)
    quota: int = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise TenancyError(
                "tenant name %r is not a valid namespace (want %s)"
                % (self.name, _NAME_RE.pattern)
            )
        self.n_members = int(self.n_members)
        if self.n_members < 1:
            raise TenancyError(
                "tenant %r needs n_members >= 1, got %d"
                % (self.name, self.n_members)
            )
        if not isinstance(self.config, GroupConfig):
            raise TenancyError(
                "tenant %r config must be a GroupConfig, got %s"
                % (self.name, type(self.config).__name__)
            )
        self.interval_ticks = int(self.interval_ticks)
        if self.interval_ticks < 1:
            raise TenancyError(
                "tenant %r needs interval_ticks >= 1, got %d"
                % (self.name, self.interval_ticks)
            )
        if self.quota is not None:
            self.quota = int(self.quota)
            if self.quota < 1:
                raise TenancyError(
                    "tenant %r quota must be >= 1 (or None), got %d"
                    % (self.name, self.quota)
                )

    def initial_members(self):
        """The tenant's boot membership (deterministic in the spec)."""
        return [
            "%s-m%04d" % (self.name, index)
            for index in range(self.n_members)
        ]

    def to_dict(self):
        return {
            "name": self.name,
            "n_members": self.n_members,
            "config": self.config.to_dict(),
            "interval_ticks": self.interval_ticks,
            "quota": self.quota,
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise TenancyError(
                "tenant spec must be a dict, got %s" % type(data).__name__
            )
        kwargs = dict(data)
        config = kwargs.pop("config", None)
        if config is not None:
            kwargs["config"] = GroupConfig.from_dict(config)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise TenancyError("bad tenant spec field: %s" % (exc,)) from exc


class TenantRegistry:
    """The ordered, durable collection of tenant specs."""

    def __init__(self, specs=()):
        self._specs = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec):
        if not isinstance(spec, TenantSpec):
            raise TenancyError(
                "registry takes TenantSpec, got %s" % type(spec).__name__
            )
        if spec.name in self._specs:
            raise TenancyError("duplicate tenant name %r" % (spec.name,))
        self._specs[spec.name] = spec
        return spec

    def get(self, name):
        try:
            return self._specs[name]
        except KeyError:
            raise TenancyError("unknown tenant %r" % (name,)) from None

    @property
    def names(self):
        """Tenant names in registration order (the scheduler tiebreak)."""
        return list(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self):
        return len(self._specs)

    def __contains__(self, name):
        return name in self._specs

    # -- persistence ---------------------------------------------------

    def to_dict(self):
        return {
            "schema": 1,
            "tenants": [spec.to_dict() for spec in self],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "tenants" not in data:
            raise TenancyError("registry document needs a 'tenants' list")
        return cls(TenantSpec.from_dict(entry) for entry in data["tenants"])

    def save(self, state_root, fs=None):
        """Durably write ``registry.json`` under ``state_root``."""
        from repro.chaos.seams import REAL_FILESYSTEM

        fs = fs if fs is not None else REAL_FILESYSTEM
        root = os.fspath(state_root)
        os.makedirs(root, exist_ok=True)
        path = os.path.join(root, REGISTRY_FILENAME)
        temp = path + ".tmp"
        handle = fs.open(temp, "w")
        try:
            fs.write(handle, json.dumps(self.to_dict(), sort_keys=True))
            fs.fsync(handle)
        finally:
            handle.close()
        fs.replace(temp, path)
        fs.fsync_dir(root)
        return path

    @classmethod
    def load(cls, state_root, fs=None):
        """Read ``registry.json`` back; every spec is re-validated."""
        from repro.chaos.seams import REAL_FILESYSTEM

        fs = fs if fs is not None else REAL_FILESYSTEM
        path = os.path.join(os.fspath(state_root), REGISTRY_FILENAME)
        try:
            raw = fs.read_bytes(path)
        except FileNotFoundError:
            raise TenancyError(
                "no tenant registry at %s; nothing to recover" % path
            ) from None
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise TenancyError(
                "tenant registry %s is not valid JSON: %s" % (path, exc)
            ) from exc
        return cls.from_dict(data)


def make_fleet(count, seed=7, prefix="tenant", n_members=None,
               interval_ticks=None, quota=None):
    """A deterministic heterogeneous fleet of ``count`` tenant specs.

    Sizes, tree degrees, cadences and block sizes vary per tenant
    (cycled deterministically from the index and ``seed``), so a fleet
    exercises the scheduler's heterogeneity for free.  Explicit
    ``n_members`` / ``interval_ticks`` / ``quota`` pin that knob for
    every tenant instead (the mass-rehome plan pins tiny groups).
    """
    count = int(count)
    if count < 1:
        raise TenancyError("a fleet needs count >= 1, got %d" % count)
    sizes = (4, 6, 8, 12, 16, 24)
    degrees = (4, 2, 3, 4)
    cadences = (1, 1, 2, 1, 4)
    blocks = (10, 5, 10, 8)
    specs = []
    for index in range(count):
        specs.append(
            TenantSpec(
                name="%s-%04d" % (prefix, index),
                n_members=(
                    sizes[index % len(sizes)]
                    if n_members is None else n_members
                ),
                config=GroupConfig(
                    degree=degrees[index % len(degrees)],
                    block_size=blocks[index % len(blocks)],
                    seed=int(seed) * 1000003 + index,
                ),
                interval_ticks=(
                    cadences[index % len(cadences)]
                    if interval_ticks is None else interval_ticks
                ),
                quota=quota,
            )
        )
    return TenantRegistry(specs)
