"""Laguerre, Hahn and Legendre evaluation checks.

The Hahn evaluator must stay exact and pole-free at negative N, where
every classical formula written with Gamma(N) breaks down.  A Jacobi
recurrence, checked here too, is the reference for Hahn's large-N limit.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnium.orthopoly import (
    HahnParams,
    LaguerreSpec,
    chebyshev_discrete,
    hahn,
    hahn_recurrence_rhs,
    laguerre,
    legendre,
)
from hahnium.specfun import HypSeriesSpec, hyp_terminating_exact, pochhammer


def _laguerre_reference(n: int, alpha: Fraction, x: Fraction) -> Fraction:
    # confluent series definition, exact: (alpha+1)_n / n! 1F1(-n; alpha+1; x)
    series = hyp_terminating_exact(HypSeriesSpec((-n,), (alpha + 1,), x))
    return pochhammer(alpha + 1, n) * series / math.factorial(n)


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=-4, max_value=12),
    st.fractions(min_value=0, max_value=8, max_denominator=6),
)
@settings(max_examples=120, deadline=None)
def test_laguerre_recurrence_equals_series_definition(n, pa, x):
    alpha = Fraction(pa, 4) + Fraction(1, 3)  # non-integer, > -2 suffices
    if alpha + n + 1 <= 0:
        alpha = -alpha
    assert laguerre(LaguerreSpec(n, alpha), x) == _laguerre_reference(n, alpha, x)


def test_laguerre_connection_raises_alpha():
    # L_n^a(x) = L_n^{a+1}(x) - L_{n-1}^{a+1}(x)
    for n in range(1, 21):
        for alpha in (0.0, 1.5, -0.4):
            for x in (0.1, 2.0, 17.0):
                lhs = laguerre(LaguerreSpec(n, alpha), x)
                rhs = laguerre(LaguerreSpec(n, alpha + 1.0), x) - laguerre(
                    LaguerreSpec(n - 1, alpha + 1.0), x
                )
                scale = max(abs(lhs), 1.0)
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_laguerre_recurrence_lowers_degree():
    # x L_{n-1}^{a+1} = (a+n) L_{n-1}^a - n L_n^a
    for n in range(1, 21):
        for alpha in (0.0, 2.25, -0.6):
            for x in (0.3, 4.0, 11.0):
                lhs = x * laguerre(LaguerreSpec(n - 1, alpha + 1.0), x)
                rhs = (alpha + n) * laguerre(LaguerreSpec(n - 1, alpha), x) - n * laguerre(
                    LaguerreSpec(n, alpha), x
                )
                scale = max(abs(lhs), 1.0)
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_hahn_small_explicit_values():
    # h_0 = 1 and h_1^{(a,b)}(x, N) = (b+1)(1-N) + (a+b+2) x for any N
    for big_n in (Fraction(-7), Fraction(5), Fraction(-3, 2)):
        assert hahn(HahnParams(0, 2, 1, big_n), Fraction(3)) == 1
        for x in (Fraction(0), Fraction(5, 2)):
            got = hahn(HahnParams(1, 2, 1, big_n), x)
            want = 2 * (1 - big_n) + 5 * x
            assert got == want


def test_hahn_exact_at_negative_n_matches_recurrence():
    # degree recurrence climbed from h_0, h_1 must reproduce the series
    for alpha, beta, big_n in [(0, 0, Fraction(-7)), (1, 1, Fraction(-9)), (0, 0, Fraction(-1, 2))]:
        for x in (Fraction(2), Fraction(-5, 3)):
            h_prev = hahn(HahnParams(0, alpha, beta, big_n), x)
            h_curr = hahn(HahnParams(1, alpha, beta, big_n), x)
            for k in range(1, 6):
                h_next = hahn_recurrence_rhs(k, alpha, beta, big_n, x, h_prev, h_curr)
                assert h_next == hahn(HahnParams(k + 1, alpha, beta, big_n), x)
                h_prev, h_curr = h_curr, h_next


def test_hahn_positive_integer_n_pole_guard():
    # the series denominator (1-N)_k vanishes before termination; x must
    # stay off the integers or the -x numerator truncates the sum first
    with pytest.raises(ValueError):
        hahn(HahnParams(4, 0, 0, 3), 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hahn_refuses_a_non_finite_input(bad):
    cases = [
        (HahnParams(3, 0, 0, bad), 2),
        (HahnParams(3, 0, 0, -5.5), bad),
        (HahnParams(3, bad, 0, -5.5), 2),
        (HahnParams(3, 0, bad, -5.5), 2),
    ]
    for params, x in cases:
        with pytest.raises(ValueError, match="finite"):
            hahn(params, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chebyshev_discrete_refuses_a_non_finite_input(bad):
    for x, big_n in [(bad, -4), (2, bad)]:
        with pytest.raises(ValueError, match="finite"):
            chebyshev_discrete(3, x, big_n)


def test_chebyshev_discrete_is_zero_parameter_hahn():
    assert chebyshev_discrete(3, Fraction(2), Fraction(-5)) == hahn(
        HahnParams(3, 0, 0, Fraction(-5)), Fraction(2)
    )


def test_chebyshev_discrete_positive_beyond_support():
    # t_k(x, -a) stays positive for every integer x >= 0 once a > k
    for k in range(0, 6):
        for alpha in (k + 0.5, k + 1.0, k + 7.25):
            for x in range(0, 40):
                assert chebyshev_discrete(k, float(x), -alpha) > 0.0


def _jacobi(n: int, alpha: float, beta: float, s: float) -> float:
    """Jacobi polynomial P_n^{(alpha,beta)}(s) by the table recurrence.

    Coefficients of s P_k = a_k P_{k+1} + b_k P_k + c_k P_{k-1}; the
    k = 0 step is the explicit P_1 (the printed b_0 is 0/0 at
    alpha + beta = 0).  Needs alpha + beta > -2.
    """
    prev = 1.0
    if n == 0:
        return prev
    ab = alpha + beta
    curr = ((ab + 2) * s + (alpha - beta)) / 2
    for k in range(1, n):
        a_k = 2 * (k + 1) * (ab + k + 1) / ((ab + 2 * k + 1) * (ab + 2 * k + 2))
        b_k = (beta - alpha) * (beta + alpha) / ((ab + 2 * k) * (ab + 2 * k + 2))
        c_k = 2 * (alpha + k) * (beta + k) / ((ab + 2 * k) * (ab + 2 * k + 1))
        prev, curr = curr, ((s - b_k) * curr - c_k * prev) / a_k
    return curr


def test_jacobi_reduces_to_legendre():
    for n in range(0, 7):
        for s in (-0.9, -0.25, 0.0, 0.6, 1.0):
            assert _jacobi(n, 0.0, 0.0, s) == pytest.approx(legendre(n, s), rel=1e-13, abs=1e-14)


def test_jacobi_degree_one_explicit():
    for alpha, beta in [(0.5, 1.5), (2.0, 0.0), (1.0, 1.0)]:
        for s in (-0.4, 0.8):
            want = (alpha + 1.0) + (alpha + beta + 2.0) * (s - 1.0) / 2.0
            assert _jacobi(1, alpha, beta, s) == pytest.approx(want, rel=1e-14)


def test_legendre_fixed_points():
    for n in range(0, 9):
        assert legendre(n, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert legendre(n, -1.0) == pytest.approx((-1.0) ** n, rel=1e-14)
    assert legendre(2, 0.5) == pytest.approx(-0.125, rel=1e-15)


def test_hahn_approaches_jacobi_at_rate_one_over_n_squared():
    # h_n(Ntilde(1+s)/2 - (beta+1)/2, N) / Ntilde^n -> P_n^{(a,b)}(s)
    # with an O(1/Ntilde^2) error: doubling Ntilde divides the deviation
    # by about 4
    for alpha, beta in [(0.0, 0.0), (1.0, 2.0)]:
        for n in range(1, 5):
            for s in (-0.5, 0.0, 0.5):
                target = _jacobi(n, alpha, beta, s)
                devs = []
                for ntilde in (256.0, 512.0):
                    big_n = ntilde - (alpha + beta) / 2.0
                    x = ntilde * (1.0 + s) / 2.0 - (beta + 1.0) / 2.0
                    scaled = hahn(HahnParams(n, alpha, beta, big_n), x) / ntilde**n
                    devs.append(abs(scaled - target))
                if devs[0] < 1e-12:
                    continue  # deviation coefficient vanishes at this s
                ratio = devs[0] / devs[1]
                assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5, (alpha, beta, n, s, ratio)
