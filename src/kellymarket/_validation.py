"""Input validation helpers shared across the package.

All checks raise ``ValueError`` with the offending name and value so CLI
error messages stay informative.
"""

import math


def check_finite(value, name="value"):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def check_probability(value, name="probability", open_interval=False):
    """Validate a probability, returning it as a float.

    With ``open_interval=True`` the endpoints 0 and 1 are rejected
    (required wherever odds value/(1-value) are formed).
    """
    x = check_finite(value, name)
    if open_interval:
        if not 0.0 < x < 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def check_fraction(value, name="fraction", lo=-1.0, hi=1.0,
                   open_lo=False, open_hi=False):
    """Validate a bet fraction (fraction of capital, signed)."""
    x = check_finite(value, name)
    if x < lo or (open_lo and x == lo):
        raise ValueError(f"{name} must be {'>' if open_lo else '>='} {lo}, got {x}")
    if x > hi or (open_hi and x == hi):
        raise ValueError(f"{name} must be {'<' if open_hi else '<='} {hi}, got {x}")
    return x


def check_positive(value, name="value"):
    x = float(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return x
