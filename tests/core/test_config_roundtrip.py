"""GroupConfig construction-time validation and dict round-trips.

The tenant registry persists every tenant's ``GroupConfig`` via
``to_dict`` and re-validates it through ``from_dict`` at load time, so
the round-trip has to be lossless over the whole valid space and the
validation has to reject bad documents loudly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GroupConfig
from repro.errors import ConfigurationError
from repro.sim.topology import LossParameters

loss_params = st.builds(
    LossParameters,
    alpha=st.floats(min_value=0.0, max_value=1.0),
    p_high=st.floats(min_value=0.0, max_value=1.0),
    p_low=st.floats(min_value=0.0, max_value=1.0),
    p_source=st.floats(min_value=0.0, max_value=1.0),
    burst_scale_ms=st.floats(min_value=1e-3, max_value=1e4),
    bursty=st.booleans(),
)

# rho <= rho_max by construction: draw the pair together
rho_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=8.0, max_value=64.0),
)

valid_configs = st.builds(
    lambda rho_pair, **kw: GroupConfig(
        rho=rho_pair[0], rho_max=rho_pair[1], **kw
    ),
    rho_pairs,
    degree=st.integers(min_value=2, max_value=16),
    packet_size=st.integers(min_value=1, max_value=4096),
    block_size=st.integers(min_value=1, max_value=64),
    num_nack=st.integers(min_value=0, max_value=50),
    max_nack=st.integers(min_value=0, max_value=200),
    sending_interval_ms=st.floats(min_value=1.0, max_value=1000.0),
    max_multicast_rounds=st.integers(min_value=1, max_value=8),
    nack_window_seconds=st.floats(min_value=0.01, max_value=2.0),
    loss=loss_params,
    crypto_seed=st.integers(min_value=0, max_value=2**31),
    seed=st.integers(min_value=0, max_value=2**31),
    engine=st.sampled_from(["python", "numpy"]),
)


@settings(max_examples=60, deadline=None)
@given(config=valid_configs)
def test_roundtrip_is_lossless(config):
    assert GroupConfig.from_dict(config.to_dict()) == config


@settings(max_examples=60, deadline=None)
@given(config=valid_configs)
def test_to_dict_is_plain_json_data(config):
    data = config.to_dict()
    assert isinstance(data, dict)
    assert isinstance(data["loss"], dict)
    # a second hop must also be stable (registry save -> load -> save)
    assert GroupConfig.from_dict(data).to_dict() == data


@pytest.mark.parametrize(
    "kwargs",
    [
        {"degree": 1},
        {"degree": 0},
        {"degree": 2.5},
        {"packet_size": 0},
        {"block_size": -1},
        {"rho": -0.1},
        {"rho_max": 0.0},
        {"rho": 9.0, "rho_max": 8.0},
        {"num_nack": -1},
        {"max_nack": -2},
        {"sending_interval_ms": 0.0},
        {"nack_window_seconds": -0.5},
        {"max_multicast_rounds": 0},
        {"max_multicast_rounds": 1.5},
        {"engine": ""},
        {"engine": "fortran"},
    ],
)
def test_bad_values_raise_value_error(kwargs):
    with pytest.raises(ValueError):
        GroupConfig(**kwargs)


def test_configuration_error_is_a_value_error():
    # callers catching ValueError get the config failures too
    assert issubclass(ConfigurationError, ValueError)


def test_from_dict_rejects_non_dict():
    with pytest.raises(ConfigurationError):
        GroupConfig.from_dict([1, 2, 3])


def test_from_dict_rejects_unknown_field():
    data = GroupConfig().to_dict()
    data["flux_capacitor"] = 1.21
    with pytest.raises(ConfigurationError):
        GroupConfig.from_dict(data)


#: ``GroupConfig().to_dict()`` as the commit before the implementation
#: knobs collapsed wrote it into every ``registry.json``
PRE_COLLAPSE_DICT = {
    "degree": 4,
    "packet_size": 1027,
    "block_size": 10,
    "rho": 1.0,
    "rho_max": 8.0,
    "num_nack": 20,
    "max_nack": 100,
    "sending_interval_ms": 100.0,
    "max_multicast_rounds": 2,
    "deadline_rounds": 2,
    "nack_window_seconds": 0.3,
    "crypto_seed": 0,
    "seed": 20010827,
    "incremental_marking": True,
    "fec_coder": "matrix",
    "engine": "python",
    "loss": {
        "alpha": 0.2,
        "p_high": 0.2,
        "p_low": 0.02,
        "p_source": 0.01,
        "burst_scale_ms": 100.0,
        "bursty": True,
    },
}


def test_from_dict_loads_a_pre_collapse_registry_entry():
    config = GroupConfig.from_dict(PRE_COLLAPSE_DICT)
    assert config == GroupConfig(engine="python")
    saved = config.to_dict()
    for retired in ("incremental_marking", "fec_coder", "deadline_rounds"):
        assert retired not in saved
    # whatever the retired knobs said: they never changed behaviour
    assert GroupConfig.from_dict(
        {
            **PRE_COLLAPSE_DICT,
            "incremental_marking": False,
            "fec_coder": "reference",
            "deadline_rounds": 5,
        }
    ) == config


def test_from_dict_drops_only_the_retired_keys():
    # (a retired *engine name* in an old registry is refused too:
    # tests/fastpath/test_engines.py)
    with pytest.raises(ConfigurationError):
        GroupConfig.from_dict({**PRE_COLLAPSE_DICT, "batch_parity": True})


def test_from_dict_revalidates_values():
    data = GroupConfig().to_dict()
    data["degree"] = 1
    with pytest.raises(ValueError):
        GroupConfig.from_dict(data)


def test_from_dict_rebuilds_loss_parameters():
    config = GroupConfig()
    rebuilt = GroupConfig.from_dict(config.to_dict())
    assert isinstance(rebuilt.loss, LossParameters)
    assert rebuilt.loss == config.loss
