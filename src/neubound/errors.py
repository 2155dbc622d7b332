"""Exception types and argument checks shared across the package.

Input and validation problems raise ValueError (or a subclass); failures of
the numerics themselves (lost root brackets, degenerate meshes, stalled
iterations) raise NumericalError so callers can tell the two apart.
check_real and check_int are the one place that checks the type and range
of a declared number: a dimension, a norm, a coefficient, a length.  Both
take Python's numbers and NumPy's scalars alike, through the numbers ABCs,
so that this module loads no NumPy.
"""

import math
import numbers
import sys


class NumericalError(ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


def check_real(name: str, value, lo: float, hi: float = math.inf, strict: bool = False) -> float:
    """value as a float: a finite integer or float (not a bool) in [lo, hi), or (lo, hi) if strict."""
    x = math.nan  # anything else is rejected below
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        x = int(value)  # compared exactly: float() raises OverflowError beyond the float range
    elif isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        x = float(value)  # NumPy's narrower floats too, so that no comparison casts to them
    if not (abs(x) <= sys.float_info.max and (x > lo if strict else x >= lo) and x < hi):
        span = f"{'(' if strict else '['}{lo}, {hi})"
        raise ValueError(f"{name} must be a finite number in {span}, got {value!r}")
    return float(x)


def check_int(name: str, value, lo: int) -> int:
    """value as an int: an integer (not a bool) >= lo."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)
