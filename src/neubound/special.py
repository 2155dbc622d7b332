"""Bessel functions of real nonnegative order and the radial Neumann constant.

bessel_j, bessel_i and bessel_k are scipy.special.jv, iv and kv behind
errors.check_real: the order and x must be finite ints or floats (not
bools or strings), order >= 0 and x >= 0 (x > 0 for K).  I raises
OverflowError above x = 700, where exp(x) is about to overflow.  Measured
against 40-digit reference values: J within 1.3e-15 absolute, I within
7.9e-16 relative and K within 1.8e-14 relative.

p_zero(n) is the first positive zero of d/dt [t^(1 - n/2) J_{n/2}(t)],
equivalently of J_{n/2}(t) - t J_{n/2 + 1}(t); its square is the first
nontrivial Neumann eigenvalue of the unit ball in dimension n.

scipy.special loads on first use, inside these functions, so importing
the package does not pay for it.  p_zero at its default tol for the paper's
dimensions n = 2..8 is read from a table of the scan's own results, so
bounds in those dimensions never load it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NumericalError, check_int, check_real

_I_OVERFLOW_X = 700.0          # exp(x) overflows float64 just above 709


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= 0, x >= 0."""
    from scipy.special import jv

    return float(jv(check_real("order", nu, 0), check_real("x", x, 0)))


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind I_nu(x), nu >= 0, x >= 0."""
    from scipy.special import iv

    nu, x = check_real("order", nu, 0), check_real("x", x, 0)
    if x > _I_OVERFLOW_X:
        raise OverflowError(
            f"I_nu grows like exp(x); x={x} exceeds the supported {_I_OVERFLOW_X}"
        )
    return float(iv(nu, x))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0."""
    from scipy.special import kv

    return float(kv(check_real("order", nu, 0), check_real("x", x, 0, strict=True)))


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
