"""Bessel evaluation and the radial Neumann zeros against frozen references.

The reference values were produced once with an arbitrary-precision
library at 40 digits and are frozen here; the one-sided p_zero check and
the I/K accuracy envelope ask mpmath for their references as they run.
The package itself never depends on that library.  J, which the package
evaluates only inside p_zero's scan, is tested through tests/oracles.py.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from neubound import special
from neubound.errors import NumericalError
from oracles import bessel_j

# (order, argument, value) triples, 17 significant digits
_J_REFERENCE = [
    (0, 1.0, 0.76519768655796655),
    (1, 1.0, 0.44005058574493352),
    (0.5, 2.0, 0.51301613656182775),
    (1.5, 10.0, 0.1979824927558931),
    (2, 5.0, 0.046565116277752216),
    (3.5, 50.0, 0.11178059493928059),
    (7, 20.0, -0.18422139772059443),
    (4, 30.0, -0.052609000321320352),
    (1, 0.05, 0.024992188313759701),
    (2.5, 12.0, 0.072422673831809522),
]

_I_REFERENCE = [
    (0, 1.0, 1.2660658777520083),
    (0.5, 3.0, 4.6148229034076009),
    (1, 2.0, 1.5906368546373291),
    (2.5, 10.0, 2028.5127573919357),
    (3, 25.0, 4806356106.5065391),
    (0.5, 0.1, 0.25273398460013198),
    (4, 12.0, 9508.9206980409495),
    (2, 600.0, 6.1258347994532885e+258),
    (1.5, 0.7, 0.16353076132992353),
    (6, 40.0, 9451107051140812.7),
]

_K_REFERENCE = [
    (0.5, 1.0, 0.46106850444789456),
    (1.5, 2.5, 0.091092320415613985),
    (1, 0.3, 3.0559920334573251),
    (2, 0.2, 49.512429287732863),
    (0.3, 1.5, 0.21893795473217302),
    (2.5, 30.0, 2.3624987811047992e-14),
    (1, 5.0, 0.0040446134454521642),
    (3, 100.0, 4.8698627477924549e-45),
    (0.7, 400.0, 1.2005142167249219e-175),
    (0, 0.4, 1.1145291345244344),
    (4, 0.45, 1151.0461758127664),
    (1.25, 0.8, 1.0817801412986129),
]

_P_REFERENCE = {
    2: 1.8411837813406593,
    3: 2.0815759778181006,
    4: 2.2999103302284109,
    5: 2.5011326204093967,
    6: 2.6885891921738058,
    7: 2.8646728462607231,
    8: 3.0311646790840329,
    10: 3.3405507521801356,
    64: 8.0641334857342857,
}


@pytest.mark.parametrize("nu,x,want", _J_REFERENCE)
def test_bessel_j_reference(nu, x, want):
    assert bessel_j(nu, x) == pytest.approx(want, abs=5e-13)


@pytest.mark.parametrize("nu,x,want", _I_REFERENCE)
def test_bessel_i_reference(nu, x, want):
    assert special.bessel_i(nu, x) == pytest.approx(want, rel=5e-12)


@pytest.mark.parametrize("nu,x,want", _K_REFERENCE)
def test_bessel_k_reference(nu, x, want):
    assert special.bessel_k(nu, x) == pytest.approx(want, rel=5e-11)


# the accuracy envelope the README states for x in [1e-3, 700], orders 0..50
_I_ENVELOPE, _K_ENVELOPE = 3e-14, 6e-14


def _envelope_grid():
    rng = np.random.default_rng(20171016)
    orders = [0.0, 1.0, 2.0, 3.0, 7.0, 16.0, 33.0, 50.0, 0.5, 1.5, 2.5, 9.5, 24.5, 49.5]
    orders += [float(v) for v in rng.uniform(0.0, 50.0, 8)]
    xs = [1e-3, 1.0, 700.0] + [float(v) for v in 10.0 ** rng.uniform(-3.0, math.log10(700.0), 9)]
    return orders, xs


def test_bessel_i_and_k_within_the_stated_envelope():
    # integer, half-integer and other orders against 30-digit mpmath values;
    # every value in this range is a normal float
    worst_i = worst_k = 0.0
    orders, xs = _envelope_grid()
    with mpmath.workdps(30):
        for nu in orders:
            for x in xs:
                ref_i, ref_k = mpmath.besseli(nu, x), mpmath.besselk(nu, x)
                worst_i = max(worst_i, abs(float((special.bessel_i(nu, x) - ref_i) / ref_i)))
                worst_k = max(worst_k, abs(float((special.bessel_k(nu, x) - ref_k) / ref_k)))
    assert worst_i <= _I_ENVELOPE
    assert worst_k <= _K_ENVELOPE


def test_bessel_at_the_ends_of_the_float_range():
    assert special.bessel_i(0, 0.0) == 1.0
    assert special.bessel_i(2.5, 0.0) == special.bessel_i(200, 0.0) == special.bessel_i(200, 5e-324) == 0.0
    # far from the envelope's range, still against mpmath: I tiny but normal,
    # I near the top of the range, K_0 at the least subnormal x, and K at a
    # peak past exp's range with a finite value
    for f, ref, nu, x in [
        (special.bessel_i, mpmath.besseli, 0.8, 5.4e-176),
        (special.bessel_i, mpmath.besseli, 300, 700.0),
        (special.bessel_k, mpmath.besselk, 0, 5e-324),
        (special.bessel_k, mpmath.besselk, 1000, 400.0),
        (special.bessel_k, mpmath.besselk, 400, 720.0),  # exp(-x) a subnormal
        (special.bessel_k, mpmath.besselk, 400, 746.0),  # exp(-x) a zero
    ]:
        assert f(nu, x) == pytest.approx(float(ref(nu, x)), rel=1e-12, abs=0.0)
    # past order 171, Gamma(nu + 1) overflows and the first term comes from
    # lgamma: the stated 1e-12 relative (measured 1.1e-13 and 1.1e-12)
    for nu in (300, 1500):
        assert special.bessel_i(nu, 700.0) == pytest.approx(float(mpmath.besseli(nu, 700)), rel=2e-12, abs=0.0)
    # the series' first term a zero, I normal; lgamma(1551) = 9,840 leaves 1e-12
    assert special.bessel_i(1550, 700.0) == pytest.approx(float(mpmath.besseli(1550, 700)), rel=1e-11, abs=0.0)
    assert special.bessel_k(0, 800.0) == special.bessel_k(2, 1e300) == 0.0  # below the float range
    for nu, x in [(200.0, 1e-3), (1e6, 1.0), (0.965, 5e-324), (152.5, 1.037), (1e12, 1.0)]:
        with pytest.raises(OverflowError):  # beyond it, never a finite number
            special.bessel_k(nu, x)


def test_bessel_k_past_its_node_budget_is_a_numerical_error():
    # the rule needs about 7 sqrt(x) nodes across its peak, past the budget here
    with pytest.raises(NumericalError, match="needs more than 100000 nodes at nu=600000000.0, x=400000000.0"):
        special.bessel_k(6e8, 4e8)


def test_half_integer_closed_forms():
    for x in (0.2, 0.9, 2.7, 7.5, 22.0):
        sqrt_fac = math.sqrt(2.0 / (math.pi * x))
        assert bessel_j(0.5, x) == pytest.approx(sqrt_fac * math.sin(x), rel=1e-9)
        assert bessel_j(1.5, x) == pytest.approx(
            sqrt_fac * (math.sin(x) / x - math.cos(x)), rel=1e-9, abs=1e-12
        )
        assert special.bessel_i(0.5, x) == pytest.approx(sqrt_fac * math.sinh(x), rel=1e-9)
        assert special.bessel_k(0.5, x) == pytest.approx(
            math.sqrt(0.5 * math.pi / x) * math.exp(-x), rel=1e-9, abs=0.0
        )


def test_half_integer_routes_agree():
    # K at half-integer orders and I at orders 1/2, 3/2 against their
    # elementary closed forms
    for x in (0.3, 1.0, 2.0, 6.0, 11.0, 25.0):
        k_fac = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        assert special.bessel_k(1.5, x) == pytest.approx(k_fac * (1.0 + 1.0 / x), rel=1e-11, abs=0.0)
        assert special.bessel_k(2.5, x) == pytest.approx(
            k_fac * (1.0 + 3.0 / x + 3.0 / x**2), rel=1e-11, abs=0.0
        )
        sqrt_fac = math.sqrt(2.0 / (math.pi * x))
        assert special.bessel_i(0.5, x) == pytest.approx(sqrt_fac * math.sinh(x), rel=1e-11)
        assert special.bessel_i(1.5, x) == pytest.approx(
            sqrt_fac * (math.cosh(x) - math.sinh(x) / x), rel=1e-11
        )


def test_wronskian_identity():
    # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x
    rng = np.random.default_rng(7)
    for _ in range(200):
        nu = float(rng.uniform(0.0, 8.0))
        x = float(rng.uniform(0.1, 50.0))
        lhs = special.bessel_i(nu, x) * special.bessel_k(nu + 1.0, x) + special.bessel_i(
            nu + 1.0, x
        ) * special.bessel_k(nu, x)
        assert lhs == pytest.approx(1.0 / x, rel=1e-9)


def test_j_three_term_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(100):
        nu = float(rng.uniform(1.0, 6.0))
        x = float(rng.uniform(0.5, 30.0))
        lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
        rhs = (2.0 * nu / x) * bessel_j(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-11)


def test_bessel_argument_validation():
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)
    with pytest.raises(ValueError):
        special.bessel_i(-0.5, 1.0)
    with pytest.raises(ValueError):
        special.bessel_k(0.5, 0.0)
    with pytest.raises(OverflowError):
        special.bessel_i(2.0, 800.0)


@pytest.mark.parametrize("n,want", sorted(_P_REFERENCE.items()))
def test_p_zero_reference(n, want):
    assert special.p_zero(n) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", [*range(2, 13), 230, 248])
def test_p_zero_never_exceeds_the_root(n):
    # the lower end of the final bisection bracket (width tol = 1e-10), so a
    # bound built on p_zero is never inflated by the bracket
    p = special.p_zero(n)
    with mpmath.workdps(40):
        nu = mpmath.mpf(n) / 2
        root = mpmath.findroot(lambda t: mpmath.besselj(nu, t) - t * mpmath.besselj(nu + 1, t), p)
        below = float(root - mpmath.mpf(p))
    assert 0.0 <= below <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_p_zero_table_is_the_scan_bit_for_bit(n):
    # p_zero reads the paper's dimensions at the default tol from a table, so
    # those processes skip the scipy.special import; the table must be exactly
    # what the scan returns, and any other tol must still run the scan
    assert special.p_zero(n) == special._P_ZERO_TABLE[n] == special._scan_p_zero(n, 1e-10)
    assert special.p_zero(n, tol=1e-6) == special._scan_p_zero(n, 1e-6)


def test_p_zero_solves_its_equation():
    for n in range(2, 9):
        p = special.p_zero(n)
        half = 0.5 * n
        residual = bessel_j(half, p) - p * bessel_j(half + 1.0, p)
        assert abs(residual) < 1e-9


@pytest.mark.parametrize(
    "n,want",
    [
        (120, 11.0007447361959893),
        (200, 14.177795987538353363),
        (230, 15.198967708929737853),
        (248, 15.779987293482349048),
        (300, 17.349542412947655526),
    ],
)
def test_p_zero_high_dimension(n, want):
    # J_{n/2}(0.05) and its square underflow here; the scan must not read
    # an underflowed 0.0 as the sign change (mpmath 40-digit references).
    # At n = 230 jv returns 0.0 for J_{n/2}(0.25) but not for J_{n/2+1}(0.25).
    assert special.p_zero(n) == pytest.approx(want, abs=1e-9)


def test_p_zero_monotone_in_dimension():
    values = [special.p_zero(n) for n in range(2, 13)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p_zero_rejects_bad_dimension():
    with pytest.raises(ValueError):
        special.p_zero(1)
    with pytest.raises(ValueError):
        special.p_zero(2.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        special.p_zero(3, tol=0.0)


def test_p_zero_past_its_scan_range_is_a_numerical_error():
    # the root passes the scan's end, 20, between n = 300 (17.35) and n = 420
    with pytest.raises(NumericalError, match=r"no sign change of the radial derivative in \(0.05, 20.0\] for n=420"):
        special.p_zero(420)
