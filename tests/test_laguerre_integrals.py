"""Master-integral checks: closed forms against quadrature and each other."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hahnium.laguerre_integrals import (
    JSpec,
    connection_coeffs,
    j_diag_negative,
    j_diag_negative_exact,
    j_diag_positive,
    j_diag_positive_exact,
    j_integral,
    j_integral_exact,
    linearization_closed_form,
    linearization_coeffs,
    triple_product_integral,
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
    specs = [
        JSpec(0, 0, 0, 1.0, 1.0),
        JSpec(2, 1, -1, 1.0, 1.0),
        JSpec(3, 3, 2, 2.5, 1.5),
        JSpec(5, 2, 0, 2.5, 1.5),   # structural zero, small integrand
        JSpec(5, 4, -2, 3.0, 1.0),
        JSpec(5, 4, 1, 2.0, 1.0),
        JSpec(8, 8, -3, 3.0, 3.0),
        JSpec(6, 4, 2, 2.5, 1.5),
        JSpec(4, 4, 6, 0.5, 0.5),
        JSpec(7, 5, -1, 2.0, 0.0),
    ]
    for spec in specs:
        want = _quad_reference(spec)
        got = j_integral(spec)
        if abs(want) < 1e-11:
            assert abs(got - want) <= 1e-12
        else:
            assert abs(got - want) <= 1e-10 * abs(want), spec


def test_j_integral_vanishes_above_degree_window():
    # x^s L_m^beta spans degrees <= m+s of the alpha family, so any
    # integer s >= 0 with n > m+s integrates to an exact zero
    for n, m, s, alpha, beta in [
        (6, 0, 1, 1.5, 0.5),
        (8, 3, 3, 3.0, 1.0),
        (7, 4, 0, 2.0, 1.0),
        (5, 2, 2, 2.5, 1.5),
    ]:
        assert n > m + s
        assert j_integral(JSpec(n, m, s, alpha, beta)) == 0.0
        if float(alpha + s).is_integer():
            assert j_integral_exact(JSpec(n, m, s, int(alpha), int(beta))) == 0


def test_j_integral_routes_agree():
    # both series are regular only for s >= n (or negative integer s,
    # where the transform is the singular one); compare on s >= n
    for spec in [JSpec(2, 2, 3, 1.5, 1.5), JSpec(3, 1, 5, 2.0, 1.0)]:
        direct = j_integral(spec, route="direct")
        transformed = j_integral(spec, route="transformed")
        assert direct == pytest.approx(transformed, rel=1e-12)


def test_j_integral_exact_is_rational_twin():
    for spec in [
        JSpec(3, 2, 1, 2, 1),
        JSpec(5, 5, 0, 1, 1),
        JSpec(4, 1, -1, 3, 2),
        JSpec(8, 6, 2, 2, 0),
    ]:
        exact = j_integral_exact(spec)
        assert isinstance(exact, Fraction)
        assert j_integral(spec) == pytest.approx(float(exact), rel=1e-12, abs=1e-13)
    # float parameters convert exactly
    assert j_integral_exact(JSpec(4, 1, 0.5, 1.5, 0.5)) == Fraction(-33, 128)


def test_jspec_validation():
    with pytest.raises(ValueError):
        JSpec(1, 2, 0, 1.0, 1.0)  # n < m
    with pytest.raises(ValueError):
        JSpec(2, 1, 0, 1.5, 1.0)  # alpha - beta not an integer
    with pytest.raises(ValueError):
        JSpec(2, 1, -3, 1.0, 1.0)  # alpha + s <= -1 diverges


def test_diagonal_hahn_forms_match_general_route():
    for alpha in (1.0, 2.5, 7.0):
        for n in range(0, 11):
            for k in range(0, 7):
                want = j_integral(JSpec(n, n, k, alpha, alpha))
                got = j_diag_positive(n, alpha, k)
                assert abs(got - want) <= 1e-11 * abs(want), (n, alpha, k)
                if k < alpha:
                    want = j_integral(JSpec(n, n, -k - 1, alpha, alpha))
                    got = j_diag_negative(n, alpha, k)
                    assert abs(got - want) <= 1e-11 * abs(want), (n, alpha, -k)


def test_diagonal_exact_variants():
    assert j_diag_positive_exact(0, 0, 0) == 1
    for n, alpha, k in [(2, 3, 2), (5, 1, 0), (4, 7, 4)]:
        assert float(j_diag_positive_exact(n, alpha, k)) == pytest.approx(
            j_diag_positive(n, float(alpha), k), rel=1e-13
        )
        if k < alpha:
            assert float(j_diag_negative_exact(n, alpha, k)) == pytest.approx(
                j_diag_negative(n, float(alpha), k), rel=1e-13
            )
    with pytest.raises(ValueError):
        j_diag_negative(3, 2.0, 2)  # k < alpha violated


def test_connection_reconstructs_pointwise():
    for alpha, beta in [(Fraction(3), Fraction(1)), (Fraction(5, 2), Fraction(1, 2))]:
        for n in range(0, 7):
            coeffs = connection_coeffs(n, alpha, beta)
            for x in (Fraction(0), Fraction(2, 3), Fraction(4)):
                direct = laguerre(LaguerreSpec(n, alpha), x)
                mixed = sum(
                    c * laguerre(LaguerreSpec(m, beta), x) for m, c in enumerate(coeffs)
                )
                assert mixed == direct


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


def test_triple_product_is_norm_times_coefficient():
    got = triple_product_integral(3, 2, 3, Fraction(1))
    want = Fraction(math.factorial(4), math.factorial(3)) * linearization_coeffs(
        3, 2, Fraction(1)
    ).coefficient(3)
    assert got == want
