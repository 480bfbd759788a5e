"""The engine knob itself: two names, one default, nothing else.

The contract: ``engine`` selects an implementation, never behaviour.
``"numpy"`` (the array plane, :mod:`repro.fastpath`) is what ships and
what every config defaults to; ``"python"`` is the per-object oracle the
differential suites compare it with.  There is no third tier and no
degradation: any other name — ``"numba"`` included — is a
``ConfigurationError``.
"""

import pytest

from repro.core.config import GroupConfig
from repro.errors import ConfigurationError
from repro.fastpath import ENGINE_KINDS


class TestResolveEngine:
    """Name resolution is ``GroupConfig``'s own validation now."""

    def test_known_engines(self):
        for engine in ("python", "numpy"):
            assert GroupConfig(engine=engine).engine == engine

    def test_numpy_is_the_default(self):
        assert GroupConfig().engine == "numpy"

    def test_unknown_engine_rejected(self):
        for engine in ("cython", "numba", "", None):
            with pytest.raises(ConfigurationError):
                GroupConfig(engine=engine)
        # ... and a persisted config naming the retired tier fails at
        # load time, not deep inside a tenant's first interval
        persisted = {**GroupConfig().to_dict(), "engine": "numba"}
        with pytest.raises(ConfigurationError):
            GroupConfig.from_dict(persisted)

    def test_engine_kinds_is_the_full_menu(self):
        assert ENGINE_KINDS == ("numpy", "python")


class TestConfigIntegration:
    def test_config_validates_engine(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(engine="fortran")

    def test_make_marking_dispatch(self):
        from repro.fastpath.marking import ArrayMarkingAlgorithm
        from repro.keytree.marking import MarkingAlgorithm, make_marking

        # the oracle engine runs the from-scratch class itself, not a
        # subclass of it
        assert type(make_marking("python")) is MarkingAlgorithm
        assert type(make_marking("numpy")) is ArrayMarkingAlgorithm
        assert type(make_marking()) is ArrayMarkingAlgorithm

    def test_server_wires_the_engine_through(self):
        from repro.core.server import GroupKeyServer
        from repro.fastpath.marking import ArrayMarkingAlgorithm
        from repro.keytree.marking import MarkingAlgorithm

        users = ["u%d" % i for i in range(4)]
        shipping = GroupKeyServer(users)
        oracle = GroupKeyServer(users, config=GroupConfig(engine="python"))
        assert type(shipping._marking) is ArrayMarkingAlgorithm
        assert type(oracle._marking) is MarkingAlgorithm
        restored = GroupKeyServer.restore(
            oracle.snapshot(), config=GroupConfig(engine="python")
        )
        assert type(restored._marking) is MarkingAlgorithm
        assert restored._builder.engine == "python"
