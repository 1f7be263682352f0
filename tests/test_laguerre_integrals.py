"""Master-integral checks: closed forms against quadrature and each other."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnium.laguerre_integrals import (
    JSpec,
    j_diag_negative_exact,
    j_diag_positive_exact,
    j_integral_exact,
    linearization_closed_form,
    linearization_coeffs,
)
from hahnium.oracle import quad_semi_infinite
from hahnium.orthopoly import LaguerreSpec, laguerre
from hahnium.specfun import pochhammer


def _quad_reference(spec: JSpec) -> float:
    ln = LaguerreSpec(spec.n, float(spec.alpha))
    lm = LaguerreSpec(spec.m, float(spec.beta))
    power = float(spec.alpha + spec.s)

    def integrand(x):
        return np.exp(-x) * x**power * laguerre(ln, x) * laguerre(lm, x)

    # the absolute floor lets exact orthogonality zeros certify
    return quad_semi_infinite(integrand, power, 1.0, 1e-13, abs_tol=1e-12).value


def test_j_integral_against_quadrature():
    # float parameters convert exactly, so the float specs reach the
    # exact evaluation unchanged
    specs = [
        JSpec(0, 0, 0, 1.0, 1.0),
        JSpec(2, 1, -1, 1.0, 1.0),
        JSpec(5, 4, -2, 3.0, 1.0),
        JSpec(5, 4, 1, 2.0, 1.0),
        JSpec(8, 8, -3, 3.0, 3.0),
        JSpec(7, 5, -1, 2.0, 0.0),
    ]
    for spec in specs:
        want = _quad_reference(spec)
        got = float(j_integral_exact(spec))
        if abs(want) < 1e-11:
            assert abs(got - want) <= 1e-12
        else:
            assert abs(got - want) <= 1e-10 * abs(want), spec
    assert j_integral_exact(JSpec(4, 1, 0.5, 1.5, 0.5)) == Fraction(-33, 128)


def test_j_integral_vanishes_above_degree_window():
    # x^s L_m^beta spans degrees <= m+s of the alpha family, so any
    # integer s >= 0 with n > m+s integrates to an exact zero
    for n, m, s, alpha, beta in [(8, 3, 3, 3, 1), (7, 4, 0, 2, 1)]:
        assert n > m + s
        assert j_integral_exact(JSpec(n, m, s, alpha, beta)) == 0


def test_j_integral_routes_agree():
    # both series are regular only for s >= n (or negative integer s,
    # where the transform is the singular one); compare on s >= n
    for spec in [JSpec(2, 2, 3, 1, 1), JSpec(3, 1, 5, 2, 1)]:
        direct = j_integral_exact(spec, route="direct")
        transformed = j_integral_exact(spec, route="transformed")
        assert direct == transformed


def test_jspec_validation():
    with pytest.raises(ValueError):
        JSpec(1, 2, 0, 1.0, 1.0)  # n < m
    with pytest.raises(ValueError):
        JSpec(2, 1, 0, 1.5, 1.0)  # alpha - beta not an integer
    with pytest.raises(ValueError):
        JSpec(2, 1, -3, 1.0, 1.0)  # alpha + s <= -1 diverges


def test_diagonal_hahn_forms_match_general_route():
    for alpha in (1, 3, 7):
        for n in range(0, 11):
            for k in range(0, 7):
                want = j_integral_exact(JSpec(n, n, k, alpha, alpha))
                assert j_diag_positive_exact(n, alpha, k) == want, (n, alpha, k)
                if k < alpha:
                    want = j_integral_exact(JSpec(n, n, -k - 1, alpha, alpha))
                    got = j_diag_negative_exact(n, alpha, k)
                    assert got == want, (n, alpha, -k)


def test_diagonal_exact_variants():
    assert j_diag_positive_exact(0, 0, 0) == 1
    with pytest.raises(ValueError):
        j_diag_positive_exact(3, 2, -1)  # k >= 0 violated
    with pytest.raises(ValueError):
        j_diag_negative_exact(3, 2, 2)  # k < alpha violated


def test_linearization_reconstructs_product_exactly():
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        for n in range(0, 6):
            for m in range(0, n + 1):
                triple = linearization_coeffs(n, m, alpha)
                assert triple.p_min == n - m and triple.p_max == n + m
                for x in (Fraction(0), Fraction(1, 2), Fraction(3)):
                    product = laguerre(LaguerreSpec(n, alpha), x) * laguerre(
                        LaguerreSpec(m, alpha), x
                    )
                    rebuilt = sum(
                        triple.coefficient(p) * laguerre(LaguerreSpec(p, alpha), x)
                        for p in range(triple.p_min, triple.p_max + 1)
                    )
                    assert rebuilt == product, (n, m, alpha, x)


def test_linearization_closed_form_matches_sum_form():
    for alpha in (Fraction(0), Fraction(1), Fraction(2)):
        for n in range(0, 6):
            for m in range(0, n + 1):
                triple = linearization_coeffs(n, m, alpha)
                for p in range(0, n + m + 2):
                    want = triple.coefficient(p) if triple.p_min <= p <= triple.p_max else Fraction(0)
                    assert linearization_closed_form(n, m, p, alpha) == want, (n, m, p)


def _fraction_linearization(n: int, m: int, p: int, alpha: Fraction) -> Fraction:
    """c_p of L_n^alpha L_m^alpha as the direct Fraction sum (-1)^p
    (-p)_(n-m) (alpha+1)_m / (p! m!) sum_k (-p)_k (-m)_k (2k)! /
    (k! (alpha+1)_k (n-m-p+2k)!), one Fraction operation at a time."""
    total = Fraction(0)
    for k in range(min(p, m) + 1):
        gap = n - m - p + 2 * k
        if gap >= 0:
            term = Fraction(pochhammer(-p, k) * pochhammer(-m, k), math.factorial(k))
            term /= pochhammer(alpha + 1, k)
            total += term * math.factorial(2 * k) / math.factorial(gap)
    pref = pochhammer(-p, n - m) * pochhammer(alpha + 1, m)
    pref /= math.factorial(p) * math.factorial(m)
    return (-1) ** p * pref * total


_ALPHAS = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.builds(Fraction, st.integers(min_value=-6, max_value=40), st.integers(2, 7)),
    st.fractions(min_value=-1, max_value=0, max_denominator=12),
).filter(lambda a: a > -1)


@given(st.integers(min_value=0, max_value=10), st.data(), _ALPHAS)
@settings(max_examples=150, deadline=None)
def test_exact_linearization_matches_direct_fraction_sum(n, data, alpha):
    m = data.draw(st.integers(min_value=0, max_value=n), label="m")
    triple = linearization_coeffs(n, m, alpha)
    for p, got in zip(range(n - m, n + m + 1), triple.coefficients):
        assert type(got) is Fraction, (n, m, p)
        assert got == _fraction_linearization(n, m, p, Fraction(alpha)), (n, m, p)


def test_exact_linearization_at_a_pole_raises():
    # (alpha+1+k) = 0 inside the sum: ZeroDivisionError, as a Fraction gives
    for alpha in (-1, Fraction(-2), Fraction(-3, 1)):
        with pytest.raises(ZeroDivisionError):
            linearization_coeffs(3, 2, alpha)


def test_float_linearization_is_correctly_rounded():
    for alpha in (0.5, 1.3, -0.4, 30.25):
        for n in range(13):
            for m in range(n + 1):
                got = linearization_coeffs(n, m, alpha).coefficients
                want = linearization_coeffs(n, m, Fraction(alpha)).coefficients
                assert got == tuple(float(c) for c in want), (n, m, alpha)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_alpha_refused(alpha):
    with pytest.raises((ValueError, ArithmeticError)):
        linearization_coeffs(3, 2, alpha)


def test_linearization_sign_pattern():
    # (-1)^(n+m+p) c_nmp >= 0 for alpha > -1, here checked exactly
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(3)):
        for n in range(0, 6):
            for m in range(0, n + 1):
                triple = linearization_coeffs(n, m, alpha)
                for p in range(triple.p_min, triple.p_max + 1):
                    signed = (-1) ** (n + m + p) * triple.coefficient(p)
                    assert signed >= 0, (n, m, p, alpha)
