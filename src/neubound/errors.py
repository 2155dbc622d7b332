"""Exception types and argument checks shared across the package.

Input and validation problems raise ValueError (or a subclass); failures of
the numerics themselves (lost root brackets, degenerate meshes, stalled
iterations) raise NumericalError so callers can tell the two apart.
check_real and check_int are the one place that checks the type and range
of a declared number: a dimension, a norm, a coefficient, a length.
"""

import math
import sys


class NumericalError(ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result."""


def check_real(name: str, value, lo: float, hi: float = math.inf, strict: bool = False) -> float:
    """value as a float: a finite int or float (not a bool) in [lo, hi), or (lo, hi) if strict."""
    # compared, not math.isfinite: that raises OverflowError on an int beyond the float range
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not (ok and (value > lo if strict else value >= lo) and value < hi):
        span = f"{'(' if strict else '['}{lo}, {hi})"
        raise ValueError(f"{name} must be a finite number in {span}, got {value!r}")
    return float(value)


def check_int(name: str, value, lo: int) -> int:
    """value itself if it is an int (not a bool) >= lo."""
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return value
