"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, KeyTreeError
from repro.keytree.ids import _check_degree
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestCheckType:
    def test_accepts_matching_type(self):
        assert check_type("x", 5, int) == 5

    def test_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError, match="x must be int"):
            check_type("x", "5", int)

    def test_rejects_bool_where_int_expected(self):
        with pytest.raises(ConfigurationError, match="got bool"):
            check_type("flag", True, int)

    def test_accepts_subclass(self):
        class MyInt(int):
            pass

        assert check_type("x", MyInt(3), int) == 3

    def test_message_contains_value(self):
        with pytest.raises(ConfigurationError, match="'oops'"):
            check_type("x", "oops", int)


class TestCheckPositive:
    def test_accepts_positive_int(self):
        assert check_positive("n", 3) == 3

    def test_accepts_positive_float(self):
        assert check_positive("rho", 1.5) == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive("n", 0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive("n", -1)

    def test_integral_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive("n", 1.5, integral=True)

    def test_integral_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive("n", True, integral=True)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("n", 0) == 0

    def test_accepts_positive(self):
        assert check_non_negative("n", 10) == 10

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("n", -0.1)


#: Arguments the plain-int fast path must not let through unchecked.
_NOT_PLAIN_INTS = {
    "true": True,
    "false": False,
    "negative": -1,
    "float": 2.5,
    "whole_float": 3.0,
    "np_int64": np.int64(3),
    "np_zero": np.int64(0),
    "np_negative": np.int64(-1),
}


def _outcome(check, value):
    try:
        return ("ok", check(value))
    except Exception as exc:  # the error *type* is the contract
        return ("raises", type(exc))


class TestFastPathParity:
    """The exact-``int`` shortcut returns early only for values the full
    check accepts; every other argument gets the full check's verdict.
    The expected table is the behaviour of the full check alone."""

    CE = ("raises", ConfigurationError)

    EXPECTED = {
        # name: (positive, positive integral,
        #        non-negative, non-negative integral)
        "true": ("ok", CE, "ok", CE),
        "false": (CE, CE, "ok", CE),
        "negative": (CE, CE, CE, CE),
        "float": ("ok", CE, "ok", CE),
        "whole_float": ("ok", CE, "ok", CE),
        "np_int64": ("ok", CE, "ok", CE),
        "np_zero": (CE, CE, "ok", CE),
        "np_negative": (CE, CE, CE, CE),
    }

    @pytest.mark.parametrize("name", sorted(_NOT_PLAIN_INTS))
    def test_validators(self, name):
        value = _NOT_PLAIN_INTS[name]
        checks = (
            lambda v: check_positive("x", v),
            lambda v: check_positive("x", v, integral=True),
            lambda v: check_non_negative("x", v),
            lambda v: check_non_negative("x", v, integral=True),
        )
        for check, expected in zip(checks, self.EXPECTED[name]):
            outcome = _outcome(check, value)
            if expected == "ok":
                assert outcome[0] == "ok" and outcome[1] is value
            else:
                assert outcome == expected

    @pytest.mark.parametrize("name", sorted(_NOT_PLAIN_INTS))
    def test_check_degree_rejects(self, name):
        with pytest.raises(ConfigurationError):
            _check_degree(_NOT_PLAIN_INTS[name])

    def test_check_degree_range(self):
        assert _check_degree(4) == 4
        with pytest.raises(KeyTreeError):
            _check_degree(1)
        with pytest.raises(ConfigurationError):
            _check_degree(0)

    @pytest.mark.parametrize("integral", [False, True])
    def test_plain_ints_pass_through(self, integral):
        assert check_positive("x", 7, integral=integral) == 7
        assert check_non_negative("x", 0, integral=integral) == 0
        with pytest.raises(ConfigurationError):
            check_positive("x", 0, integral=integral)
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -5, integral=integral)


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 0, 1])
    def test_accepts_valid(self, p):
        assert check_probability("p", p) == float(p)

    @pytest.mark.parametrize("p", [-0.01, 1.01, 2, -1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ConfigurationError):
            check_probability("p", p)

    def test_rejects_non_number(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", "0.5")

    def test_returns_float(self):
        assert isinstance(check_probability("p", 1), float)


class TestCheckInRange:
    def test_accepts_bounds(self):
        assert check_in_range("x", 1, 1, 3) == 1
        assert check_in_range("x", 3, 1, 3) == 3

    def test_rejects_below(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 0, 1, 3)

    def test_rejects_above(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 4, 1, 3)

    def test_integral_mode(self):
        assert check_in_range("x", 2, 1, 3, integral=True) == 2
        with pytest.raises(ConfigurationError):
            check_in_range("x", 2.5, 1, 3, integral=True)
