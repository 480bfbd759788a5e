"""Tests for repro.core.config — parameter validation and defaults."""

import pytest

from repro.core import GroupConfig
from repro.errors import ConfigurationError
from repro.sim import LossParameters


class TestDefaults:
    def test_paper_defaults(self):
        config = GroupConfig()
        assert config.degree == 4
        assert config.packet_size == 1027
        assert config.block_size == 10
        assert config.rho == 1.0
        assert config.num_nack == 20
        assert config.max_nack == 100
        assert config.sending_interval_ms == 100.0
        assert config.max_multicast_rounds == 2

    def test_default_loss_environment(self):
        loss = GroupConfig().loss
        assert loss.alpha == 0.20
        assert loss.p_high == 0.20
        assert loss.p_low == 0.02
        assert loss.p_source == 0.01
        assert loss.bursty


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("degree", 0),
            ("packet_size", 0),
            ("block_size", 0),
            ("rho", -1.0),
            ("num_nack", -1),
            ("max_nack", -2),
            ("sending_interval_ms", 0.0),
            ("max_multicast_rounds", 0),
            ("nack_window_seconds", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises((ConfigurationError, ValueError)):
            GroupConfig(**{field: value})

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig(degree=1)

    def test_custom_loss(self):
        config = GroupConfig(loss=LossParameters(alpha=0.5, bursty=False))
        assert config.loss.alpha == 0.5
        assert not config.loss.bursty

    def test_overrides(self):
        config = GroupConfig(degree=8, block_size=5, rho=1.5)
        assert (config.degree, config.block_size, config.rho) == (8, 5, 1.5)
