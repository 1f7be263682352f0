"""Master-integral checks: closed forms against quadrature and each other."""

from fractions import Fraction

import numpy as np
import pytest

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


def test_linearization_sign_pattern():
    # (-1)^(n+m+p) c_nmp >= 0 for alpha > -1, here checked exactly
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(3)):
        for n in range(0, 6):
            for m in range(0, n + 1):
                triple = linearization_coeffs(n, m, alpha)
                for p in range(triple.p_min, triple.p_max + 1):
                    signed = (-1) ** (n + m + p) * triple.coefficient(p)
                    assert signed >= 0, (n, m, p, alpha)
