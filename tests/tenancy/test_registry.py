"""TenantSpec validation and the durable registry round-trip."""

import json

import pytest

from repro.core.config import GroupConfig
from repro.errors import TenancyError
from repro.tenancy.registry import (
    REGISTRY_FILENAME,
    TenantRegistry,
    TenantSpec,
    make_fleet,
)


def test_spec_defaults_and_members():
    spec = TenantSpec(name="acme")
    assert spec.n_members == 8
    assert spec.interval_ticks == 1
    assert spec.quota is None
    members = spec.initial_members()
    assert len(members) == 8
    assert members[0] == "acme-m0000"
    assert members[-1] == "acme-m0007"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"name": "-leading-dash"},
        {"name": "has space"},
        {"name": "slash/y"},
        {"name": 42},
        {"name": "ok", "n_members": 0},
        {"name": "ok", "interval_ticks": 0},
        {"name": "ok", "quota": 0},
        {"name": "ok", "config": {"degree": 4}},
    ],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(TenancyError):
        TenantSpec(**kwargs)


def test_registry_rejects_duplicates_and_unknowns():
    registry = TenantRegistry([TenantSpec(name="a")])
    with pytest.raises(TenancyError):
        registry.add(TenantSpec(name="a"))
    with pytest.raises(TenancyError):
        registry.get("nobody")
    assert "a" in registry
    assert registry.names == ["a"]


def test_save_load_roundtrip(tmp_path):
    fleet = make_fleet(9, seed=11)
    path = fleet.save(tmp_path)
    assert path.endswith(REGISTRY_FILENAME)
    loaded = TenantRegistry.load(tmp_path)
    assert loaded.names == fleet.names
    for name in fleet.names:
        original, recovered = fleet.get(name), loaded.get(name)
        assert recovered.n_members == original.n_members
        assert recovered.interval_ticks == original.interval_ticks
        assert recovered.quota == original.quota
        assert recovered.config == original.config


def test_load_missing_and_damaged(tmp_path):
    with pytest.raises(TenancyError):
        TenantRegistry.load(tmp_path / "nowhere")
    target = tmp_path / REGISTRY_FILENAME
    target.write_text("{not json")
    with pytest.raises(TenancyError):
        TenantRegistry.load(tmp_path)
    target.write_text(json.dumps({"schema": 1}))
    with pytest.raises(TenancyError):
        TenantRegistry.load(tmp_path)


def test_load_revalidates_specs(tmp_path):
    fleet = make_fleet(2)
    data = fleet.to_dict()
    data["tenants"][0]["config"]["degree"] = 1
    (tmp_path / REGISTRY_FILENAME).write_text(json.dumps(data))
    with pytest.raises(ValueError):
        TenantRegistry.load(tmp_path)


def test_make_fleet_is_heterogeneous_and_deterministic():
    fleet = make_fleet(12, seed=7)
    assert len(fleet) == 12
    sizes = {spec.n_members for spec in fleet}
    cadences = {spec.interval_ticks for spec in fleet}
    assert len(sizes) > 1
    assert len(cadences) > 1
    seeds = [spec.config.seed for spec in fleet]
    assert len(set(seeds)) == 12
    again = make_fleet(12, seed=7)
    assert [s.to_dict() for s in again] == [s.to_dict() for s in fleet]
    other = make_fleet(12, seed=8)
    assert [s.config.seed for s in other] != seeds


def test_make_fleet_pinned_knobs():
    fleet = make_fleet(5, n_members=3, interval_ticks=2, quota=16)
    for spec in fleet:
        assert spec.n_members == 3
        assert spec.interval_ticks == 2
        assert spec.quota == 16
