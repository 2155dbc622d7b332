"""Modified Bessel functions I and K of real order nu >= 0, and the radial Neumann constant.

bessel_i and bessel_k use the math module alone.  I_nu(x) sums its power
series, whose terms are all positive, so nothing cancels; above x = 700,
where exp(x) is about to overflow, it raises OverflowError.  K_nu(x) is the
trapezoidal rule on int_0^inf exp(-x cosh t) cosh(nu t) dt, summed in log
scale outward from the node nearest the peak t = asinh(nu/x) until 40
e-folds below it; the integrand decays double-exponentially, so the rule
converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  A K
beyond the float range raises OverflowError.

p_zero(n) is the first positive zero of d/dt [t^(1 - n/2) J_{n/2}(t)],
equivalently of J_{n/2}(t) - t J_{n/2 + 1}(t); its square is the first
nontrivial Neumann eigenvalue of the unit ball in dimension n.  At its
default tol for the paper's dimensions n = 2..8 it is read from a table of
the scan's own results; off the table the scan loads scipy.special for J.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import NumericalError, check_int, check_real

_I_OVERFLOW_X = 700.0          # exp(x) overflows float64 just above 709
_LOG_FLOAT_MAX = 1024 * math.log(2.0)  # log of the largest float, 1.8e308
_K_MAX_NODES = 100_000         # about 0.1 s; needed only with nu and x both above 1e8


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), nu >= 0, x >= 0; above order
    about 171, where Gamma(nu + 1) overflows, it carries about 1e-12 relative error."""
    nu, x = check_real("order", nu, 0), check_real("x", x, 0)
    if x > _I_OVERFLOW_X:
        raise OverflowError(f"I_nu grows like exp(x); x={x} exceeds the supported {_I_OVERFLOW_X}")
    q, term, total, k = 0.25 * x * x, 1.0, 1.0, 0
    # the series over its first term (x/2)^nu / Gamma(nu + 1), which can
    # underflow while I is normal; the terms rise while k (k + nu) < q and fall after
    while not (term <= 2.0**-53 * total and k * (k + nu) > q):
        k += 1
        term *= q / (k * (k + nu))
        total += term
    try:
        first = (0.5 * x) ** nu / math.gamma(nu + 1.0)
    except OverflowError:
        first = 0.0
    if first >= sys.float_info.min or not 0.5 * x:
        return first * total
    return math.exp(math.log(total) + nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0."""
    nu, x = check_real("order", nu, 0), check_real("x", x, 0, strict=True)
    # K <= sqrt(2 pi / x) exp(nu asinh(nu / x) - hypot(x, nu)), as cosh(nu t) <= exp(nu t) and
    # -x cosh t + nu t is concave with second derivative <= -x; below half the least subnormal, 0
    log_bound = 0.5 * math.log(2.0 * math.pi / x) + nu * math.asinh(nu / x) - math.hypot(x, nu)
    if log_bound < -1075 * math.log(2.0):
        return 0.0

    def log_f(t: float) -> float:  # log of exp(x) times the integrand, its large term nu t added last
        a, s = nu * t, math.sinh(0.5 * t)
        return a + (math.log1p(math.exp(-2.0 * a)) - math.log(2.0) - 2.0 * x * s * s)

    h = min(0.25, math.pi**2 / (40.0 + 2.0 * x + 2.0 * nu))
    k0 = round((math.log(nu + math.hypot(nu, x)) - math.log(x)) / h)  # asinh(nu / x), for any x > 0
    peak = log_f(k0 * h)
    total, budget = 0.0, _K_MAX_NODES
    for k, step in ((k0, 1), (k0 - 1, -1)):
        g = 0.0
        while k >= 0 and g > -40.0 and budget:
            g = log_f(k * h) - peak
            total += math.exp(g) if k else 0.5 * math.exp(g)  # the node t = 0 has half weight
            k, budget = k + step, budget - 1
    log_k = peak - x + math.log(h * total)
    if log_k > _LOG_FLOAT_MAX:  # with the budget spent, the part summed is a lower bound
        raise OverflowError(f"K_nu(x) exceeds the float range at nu={nu}, x={x}")
    if not budget:
        raise NumericalError(f"K_nu(x) needs more than {_K_MAX_NODES} nodes at nu={nu}, x={x}")
    # exp(-x) taken apart keeps its accuracy for large x; past 700, exp(peak)
    # could overflow or exp(-x) lose digits as a subnormal
    return h * total * math.exp(peak) * math.exp(-x) if max(peak, x) <= 700.0 else math.exp(log_k)


# ---------------------------------------------------------------------------
# the radial Neumann zero


_P_SCAN_STEP = 0.05
_P_SCAN_MAX = 20.0
# _scan_p_zero(n, 1e-10) for n = 2..8, bit for bit (tests/test_special.py)
_P_ZERO_TABLE = {2: 1.841183781251312, 3: 2.081575977802278, 4: 2.2999103302136064,
                 5: 2.501132620405404, 6: 2.6885891920886924, 7: 2.8646728462539595,
                 8: 3.0311646790243665}


@lru_cache(maxsize=128, typed=True)  # else p_zero(2.0, tol=t) hits p_zero(2, tol=t)
def p_zero(n: int, tol: float = 1e-10) -> float:
    """First positive zero of J_{n/2}(t) - t J_{n/2+1}(t) for dimension n >= 2.

    This is the first critical point of the radial profile t^(1-n/2)
    J_{n/2}(t); its square equals the first nontrivial Neumann eigenvalue
    of the unit ball in R^n.  For n = 2 it is the first maximum of J_1.
    The value is the lower end of a bracket of width tol around the zero,
    so it never exceeds the root and bounds built on it stay lower bounds.
    """
    check_int("dimension", n, 2)
    tol = check_real("tol", tol, 0, strict=True)
    if tol == 1e-10 and n in _P_ZERO_TABLE:
        return _P_ZERO_TABLE[n]
    return _scan_p_zero(n, tol)


def _scan_p_zero(n: int, tol: float) -> float:
    """p_zero(n, tol) by scan and bisection, the route behind _P_ZERO_TABLE."""
    from scipy.special import jv

    nu = 0.5 * n

    def f(t: float) -> float:
        j = jv(nu, t)
        if j == 0.0:
            return 0.0  # J_{n/2} > 0 below the root: an underflow, not a sign
        return j - t * jv(nu + 1.0, t)

    # f > 0 on (0, p_zero), so scan for the first negative value and bisect
    # that bracket down to width tol.  Signs are tested directly, never via
    # products: for n >= ~112 both f itself near t = 0 and f_lo * f_hi
    # underflow to 0.0, which must count as the positive side.  jv can return
    # 0.0 for J_{n/2} but not for the smaller J_{n/2+1} (jv(115, 0.25) is
    # 0.0, jv(116, 0.25) is 5.1e-296), so f returns 0.0 wherever J_{n/2} does.
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
