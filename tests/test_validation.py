import math
import re

import pytest

from kellymarket._validation import check_finite, check_positive
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
# and reads a bool as 0 or 1
@pytest.mark.parametrize("value, detail", [
    ("x", "is not a number: 'x'"),
    (None, "is not a number: None"),
    ([1], "is not a number: [1]"),
    (10 ** 400, "is beyond the float range"),
    (True, "is not a number: True"),
    (False, "is not a number: False"),
], ids=["string", "None", "list", "beyond-float", "True", "False"])
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
