"""Optional ``hypothesis`` for modules that mix properties with examples.

A module that imports ``given``, ``settings`` and ``st`` from here gets
hypothesis's own objects when it is installed.  Without it, ``@given``
marks the property skipped and ``settings``/``st`` are inert stand-ins,
so the deterministic tests of the same module still collect and run
(the minimal-dependency CI job relies on this).
"""

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:

    class _InertStrategies:
        """Accepts any ``st.<name>(...)`` chain at import time."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _InertStrategies()

    def settings(*args, **kwargs):
        return lambda test: test

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")


__all__ = ["given", "settings", "st"]
