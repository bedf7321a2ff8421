"""Input validation helpers shared across the package.

Numbers are parsed and checked only here.  Every check raises
``ValueError`` with the offending name and value, for any input, so CLI
error messages stay informative; text is a number only if :func:`plain`.
"""

import math


def plain(value):
    """Whether ``float()`` or ``int()`` may read ``value`` here: no bool, and
    text only in ASCII with no ``_`` and no surrounding whitespace, so
    ``1_0``, ``١٠`` and `` 10`` are no numbers, though Python reads 10."""
    if isinstance(value, str):
        return value.isascii() and "_" not in value and value.strip() == value
    return type(value) is not bool


def as_float(value, name):
    """``float(value)`` of a :func:`plain` value, or a ``ValueError``
    naming ``name``."""
    try:
        if type(value) is float or plain(value):  # a float needs no call
            return float(value)
    except (TypeError, ValueError):
        pass
    except OverflowError:  # an integer past the float range
        raise ValueError(f"{name} is beyond the float range") from None
    raise ValueError(f"{name} is not a number: {value!r}")


def check_finite(value, name):
    x = as_float(value, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def check_integer(value, name, what, lo, hi):
    """``int(value)`` for an integer ``value`` in [lo, hi]; any other value,
    a string, a bool, None or NaN too, is a ``ValueError`` naming ``name``."""
    try:
        n = int(value)
        if n == value and lo <= n <= hi and type(value) is not bool:
            return n
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise ValueError(f"{name} must be {what}, got {value!r}")


def check_probability(value, name, open_interval=False):
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


def check_fraction(value, name, lo=-1.0, open_interval=False):
    """Validate a bet fraction (fraction of capital, signed): in [lo, 1],
    or in (lo, 1) with ``open_interval=True``."""
    x = check_finite(value, name)
    above, below = (">", "<") if open_interval else (">=", "<=")
    if x < lo or (open_interval and x == lo):
        raise ValueError(f"{name} must be {above} {lo}, got {x}")
    if x > 1.0 or (open_interval and x == 1.0):
        raise ValueError(f"{name} must be {below} 1.0, got {x}")
    return x


def check_positive(value, name):
    x = as_float(value, name)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return x


def check_nonnegative(value, name):
    x = as_float(value, name)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return x
