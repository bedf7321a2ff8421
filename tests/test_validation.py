import math
import re

import pytest

from kellymarket._validation import as_float, check_finite, check_positive, plain
from kellymarket.growth import (
    WalkSpec,
    sensitivity_bias,
    sensitivity_fraction,
    threshold_steps,
)
from kellymarket.kelly import (
    log_utility_alpha,
    odds_to_probability,
    optimal_fraction_alpha,
)
from kellymarket.montecarlo import SimConfig


# float() raises TypeError, ValueError or OverflowError naming no parameter,
# reads a bool as 0 or 1, and text with digit separators, non-ASCII digits
# or surrounding whitespace as the number it spells
@pytest.mark.parametrize("value, detail", [
    ("x", "is not a number: 'x'"),
    (None, "is not a number: None"),
    ([1], "is not a number: [1]"),
    (10 ** 400, "is beyond the float range"),
    (True, "is not a number: True"),
    (False, "is not a number: False"),
    ("0.5_0", "is not a number: '0.5_0'"),
    ("\u0660.\u0665", "is not a number: '\u0660.\u0665'"),
    (" 0.5", "is not a number: ' 0.5'"),
    ("0.5\n", "is not a number: '0.5\\n'"),
], ids=["string", "None", "list", "beyond-float", "True", "False",
        "digit-separator", "arabic-indic-digits", "leading-space",
        "trailing-newline"])
@pytest.mark.parametrize("call, name", [
    (odds_to_probability, "odds"),
    (lambda v: optimal_fraction_alpha(0.9, 0.5, v), "alpha"),
    (lambda v: threshold_steps(v, WalkSpec(10, 0.5), 0.0), "f"),
    (lambda v: sensitivity_bias(3, WalkSpec(10, 0.6), v), "eps"),
    (lambda v: sensitivity_fraction(0.6, v), "eps"),
    (lambda v: SimConfig(WalkSpec(10, 0.5), v, 10, 1), "fraction"),
    (lambda v: check_finite(v, "Q"), "Q"),
    (lambda v: check_positive(v, "capital"), "capital"),
], ids=["odds", "alpha", "threshold_f", "sensitivity_bias_eps",
        "sensitivity_fraction_eps", "sim_fraction", "check_finite",
        "check_positive"])
def test_real_parameter_refused_by_name(call, name, value, detail):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {detail}')}$"):
        call(value)


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("call, name", [
    (odds_to_probability, "odds"),
    (lambda v: optimal_fraction_alpha(0.9, 0.5, v), "alpha"),
    (lambda v: log_utility_alpha(0.9, 0.5, 0.1, v), "alpha"),
], ids=["odds", "optimal_fraction_alpha", "log_utility_alpha"])
def test_negative_or_non_finite_refused_by_name(call, name, value):
    message = f"{name} must be a non-negative finite number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# int() reads True as 1 and False as 0
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("call, message", [
    (lambda v: WalkSpec(v, 0.5), "steps must be a positive integer"),
    (lambda v: sensitivity_bias(v, WalkSpec(10, 0.6), 0.01),
     "k must be an integer in [0, 10]"),
    (lambda v: SimConfig(WalkSpec(10, 0.5), 0.2, v, 1),
     "paths must be a positive integer"),
    (lambda v: SimConfig(WalkSpec(10, 0.5), 0.2, 10, v),
     "seed must be an unsigned 64-bit integer"),
], ids=["steps", "k", "paths", "seed"])
def test_bool_refused_as_an_integer(call, message, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{message}, got {value}')}$"):
        call(value)


# what int() and float() read besides: Python's digit separators, every
# Unicode decimal digit, and any surrounding whitespace
@pytest.mark.parametrize("text, value", [
    ("1_0", 10.0), ("0.5_0", 0.5), ("1e1_0", 1e10), ("\u0661\u0660", 10.0),
    ("\uff11\uff10", 10.0), ("\U0001d7cf\U0001d7ce", 10.0), (" 10", 10.0),
    ("10 ", 10.0), ("\t10", 10.0), ("10\n", 10.0), ("\x0b10", 10.0),
    ("10\x0c", 10.0), ("10\r", 10.0), ("\u200310", 10.0), ("10\xa0", 10.0),
])
def test_other_spellings_are_not_plain(text, value):
    assert float(text) == value
    assert not plain(text)
    with pytest.raises(ValueError, match=f"^x is not a number: {re.escape(repr(text))}$"):
        as_float(text, "x")


@pytest.mark.parametrize("text", [
    "10", "+10", "-10", "0.5", ".5", "5.", "1e-3", "1E+3", "-inf", "inf",
    "Infinity", "nan", "-NaN", "0x10", "abc", "",
])
def test_ascii_spellings_read_as_float_reads_them(text):
    assert plain(text)
    try:
        expected = float(text)
    except ValueError:
        with pytest.raises(ValueError, match="^x is not a number: "):
            as_float(text, "x")
    else:
        assert repr(as_float(text, "x")) == repr(expected)


# a bool is no number; float() judges any other value that is not text
@pytest.mark.parametrize("value, expected", [
    (True, False), (False, False), (0, True), (10 ** 400, True), (0.5, True),
    (math.inf, True), (None, True), ([1], True),
])
def test_plain_beyond_text(value, expected):
    assert plain(value) is expected
