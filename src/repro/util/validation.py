"""Argument-validation helpers.

The library is driven by many numeric protocol parameters (tree degree,
block size, proactivity factor, loss rates ...).  These helpers give each
module one-line validation with uniform, descriptive error messages; all
failures raise :class:`repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from numbers import Real

from repro.errors import ConfigurationError


def check_type(name, value, expected_type):
    """Raise unless ``value`` is an instance of ``expected_type``.

    ``bool`` is rejected where an integer is expected, because ``True``
    silently behaving as ``1`` hides caller bugs in protocol parameters.
    """
    if expected_type is int and isinstance(value, bool):
        raise ConfigurationError(
            "%s must be an int, got bool %r" % (name, value)
        )
    if not isinstance(value, expected_type):
        type_name = getattr(expected_type, "__name__", str(expected_type))
        raise ConfigurationError(
            "%s must be %s, got %s %r"
            % (name, type_name, type(value).__name__, value)
        )
    return value


def check_positive(name, value, integral=False):
    """Raise unless ``value`` is a real number strictly greater than zero."""
    # A plain positive int passes either way; everything else (bool,
    # floats, numpy scalars, out-of-range values) takes the full check.
    if type(value) is int and value > 0:
        return value
    check_type(name, value, int if integral else Real)
    if value <= 0:
        raise ConfigurationError("%s must be > 0, got %r" % (name, value))
    return value


def check_non_negative(name, value, integral=False):
    """Raise unless ``value`` is a real number greater than or equal to 0."""
    if type(value) is int and value >= 0:
        return value
    check_type(name, value, int if integral else Real)
    if value < 0:
        raise ConfigurationError("%s must be >= 0, got %r" % (name, value))
    return value


def check_probability(name, value):
    """Raise unless ``value`` lies in the closed interval [0, 1]."""
    check_type(name, value, Real)
    if not 0.0 <= float(value) <= 1.0:
        raise ConfigurationError(
            "%s must be a probability in [0, 1], got %r" % (name, value)
        )
    return float(value)


def check_in_range(name, value, low, high, integral=False):
    """Raise unless ``low <= value <= high``."""
    check_type(name, value, int if integral else Real)
    if not low <= value <= high:
        raise ConfigurationError(
            "%s must be in [%r, %r], got %r" % (name, low, high, value)
        )
    return value
