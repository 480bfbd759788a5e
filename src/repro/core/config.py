"""Top-level configuration with the paper's default parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.fastpath import ENGINE_KINDS
from repro.sim.topology import LossParameters
from repro.util.validation import check_non_negative, check_positive


@dataclass
class GroupConfig:
    """Everything a :class:`~repro.service.group.SecureGroup` needs.

    Defaults follow the paper's evaluation: tree degree 4, 1027-byte ENC
    packets, FEC block size 10, proactivity factor 1, NACK target 20,
    100 ms sending interval, and the heterogeneous burst-loss topology.

    ``engine`` selects an implementation, never behaviour — both values
    produce bit-identical protocol output: ``"numpy"`` (default) is the
    shipping array plane (:mod:`repro.fastpath`: path-local marking,
    batched GF(256) parity, the vectorised delivery session and fleet
    absorption); ``"python"`` is the per-object oracle the tests hold it
    to (from-scratch marking, per-block parity, per-user session).
    """

    degree: int = 4
    packet_size: int = 1027
    block_size: int = 10
    rho: float = 1.0
    #: hard ceiling on the adaptive proactivity factor — hostile NACK
    #: feedback saturates ρ here instead of growing parity unbounded
    rho_max: float = 8.0
    num_nack: int = 20
    max_nack: int = 100
    sending_interval_ms: float = 100.0
    max_multicast_rounds: int = 2
    deadline_rounds: int = 2
    #: how long the wire plane's server waits for NACKs after each
    #: multicast round (it caps the aggregation window; the window closes
    #: early once every member has reported)
    nack_window_seconds: float = 0.3
    loss: LossParameters = field(default_factory=LossParameters)
    crypto_seed: int = 0
    seed: int = 20010827
    engine: str = "numpy"

    def __post_init__(self):
        check_positive("degree", self.degree, integral=True)
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        check_positive("packet_size", self.packet_size, integral=True)
        check_positive("block_size", self.block_size, integral=True)
        check_non_negative("rho", self.rho)
        check_positive("rho_max", self.rho_max)
        if self.rho > self.rho_max:
            raise ConfigurationError(
                "rho %.3f exceeds rho_max %.3f" % (self.rho, self.rho_max)
            )
        check_non_negative("num_nack", self.num_nack, integral=True)
        check_non_negative("max_nack", self.max_nack, integral=True)
        check_positive("sending_interval_ms", self.sending_interval_ms)
        check_positive(
            "max_multicast_rounds", self.max_multicast_rounds, integral=True
        )
        check_positive("deadline_rounds", self.deadline_rounds, integral=True)
        check_positive("nack_window_seconds", self.nack_window_seconds)
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(
                "engine must be one of %s, got %r"
                % (", ".join(ENGINE_KINDS), self.engine)
            )

    # -- serialization -------------------------------------------------
    #
    # The tenant registry persists one GroupConfig per tenant inside
    # ``registry.json``, so a standby can rebuild every group's exact
    # scheme knobs on bulk failover.  Round-tripping re-runs
    # ``__post_init__``: a damaged registry fails loudly at load time
    # with the same ConfigurationError a bad constructor call gets.

    def to_dict(self):
        """Plain-JSON form; ``from_dict`` restores an equal config."""
        out = {
            name: getattr(self, name)
            for name in (
                "degree", "packet_size", "block_size", "rho", "rho_max",
                "num_nack", "max_nack", "sending_interval_ms",
                "max_multicast_rounds", "deadline_rounds",
                "nack_window_seconds", "crypto_seed", "seed", "engine",
            )
        }
        out["loss"] = {
            name: getattr(self.loss, name)
            for name in (
                "alpha", "p_high", "p_low", "p_source",
                "burst_scale_ms", "bursty",
            )
        }
        return out

    @classmethod
    def from_dict(cls, data):
        """Rebuild (and re-validate) a config from :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                "GroupConfig.from_dict needs a dict, got %s"
                % type(data).__name__
            )
        kwargs = dict(data)
        # Registries written before the implementation knobs collapsed
        # into ``engine`` still carry these two; they selected code
        # paths, never behaviour, so dropping them loses nothing.
        for retired in ("incremental_marking", "fec_coder"):
            kwargs.pop(retired, None)
        loss = kwargs.pop("loss", None)
        if loss is not None:
            if not isinstance(loss, dict):
                raise ConfigurationError(
                    "GroupConfig loss must be a dict, got %s"
                    % type(loss).__name__
                )
            kwargs["loss"] = LossParameters(**loss)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                "bad GroupConfig field: %s" % (exc,)
            ) from exc
