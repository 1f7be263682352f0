"""Spherical harmonics, Clebsch-Gordan coefficients and spinor harmonics."""

import cmath
import math
from fractions import Fraction

import pytest

from hahnium.angular import (
    HalfInt,
    clebsch_gordan_exact,
    spherical_harmonic,
    spinor_harmonic,
)
from hahnium.oracle import sphere_quad

HALF = Fraction(1, 2)
THETAS = (0.3, 1.1, 2.2)
PHIS = (0.0, 0.9, 4.0)


def test_halfint_arithmetic():
    assert float(HalfInt(3)) == 1.5
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(-3)) == "-3/2"
    assert str(HalfInt(4)) == "2"


def test_spherical_harmonic_degree_one_phases():
    # sqrt(8pi/3) Y_{1,+-1} = -+ sin(t) e^{+-i p}, sqrt(4pi/3) Y_10 = cos(t)
    for theta in THETAS:
        for phi in PHIS:
            want = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * cmath.exp(1j * phi)
            assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(want, abs=1e-15)
            want = math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * cmath.exp(-1j * phi)
            assert spherical_harmonic(1, -1, theta, phi) == pytest.approx(want, abs=1e-15)
            want = math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta)
            assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(want, abs=1e-15)


def test_spherical_harmonic_orthonormality():
    cases = [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2), (4, -4)]
    for la, ma in cases:
        for lb, mb in cases:
            def f(theta, phi, la=la, ma=ma, lb=lb, mb=mb):
                return spherical_harmonic(la, ma, theta, phi).conjugate() * \
                    spherical_harmonic(lb, mb, theta, phi)

            got = sphere_quad(f, la + lb + 1)
            want = 1.0 if (la, ma) == (lb, mb) else 0.0
            assert abs(got - want) <= 1e-12


def _factorial_harmonic(l, m, theta, phi):
    # the factorial-normalized form, exact enough for small l
    mm, x = abs(m), math.cos(theta)
    curr = math.prod(range(1, 2 * mm, 2)) * (1.0 - x * x) ** (mm / 2.0)
    prev, curr = 0.0, curr
    for degree in range(mm + 1, l + 1):
        prev, curr = curr, (x * (2 * degree - 1) * curr - (degree + mm - 1) * prev) / (degree - mm)
    scale = math.sqrt((2 * l + 1) / (4.0 * math.pi) * math.factorial(l - mm) / math.factorial(l + mm))
    value = (-1) ** mm * scale * curr * cmath.exp(1j * mm * phi)
    return value if m >= 0 else (-1) ** mm * value.conjugate()


def test_spherical_harmonic_matches_factorial_form_at_small_degree():
    for l in range(21):
        for m in range(-l, l + 1):
            for theta in THETAS + (0.0, math.pi):
                for phi in PHIS:
                    want = _factorial_harmonic(l, m, theta, phi)
                    assert abs(spherical_harmonic(l, m, theta, phi) - want) <= 1e-13, (l, m)


@pytest.mark.parametrize("l", [170, 171, 300])
def test_spherical_harmonic_addition_theorem_at_large_degree(l):
    # sum_m |Y_lm|^2 = (2l+1)/4pi; factorials left binary64 at l + |m| >= 171
    for theta in (0.7,) + THETAS:
        total = math.fsum(abs(spherical_harmonic(l, m, theta, 0.1)) ** 2 for m in range(-l, l + 1))
        assert total == pytest.approx((2 * l + 1) / (4.0 * math.pi), rel=1e-12), theta


def test_clebsch_gordan_exact_reference_values():
    sign, square = clebsch_gordan_exact(HALF, HALF, HALF, -HALF, 1, 0)
    assert (sign, square) == (1, Fraction(1, 2))
    sign, square = clebsch_gordan_exact(HALF, HALF, HALF, -HALF, 0, 0)
    assert (sign, square) == (1, Fraction(1, 2))
    sign, square = clebsch_gordan_exact(HALF, -HALF, HALF, HALF, 0, 0)
    assert sign == -1 and square == Fraction(1, 2)
    _, square = clebsch_gordan_exact(1, 1, 1, 0, 1, 1)
    assert square == Fraction(1, 2)
    _, square = clebsch_gordan_exact(1, 1, 1, -1, 2, 0)
    assert square == Fraction(1, 6)


def _y(l, m, theta, phi):
    if l < 0 or abs(m) > l:
        return 0j
    return spherical_harmonic(l, m, theta, phi)


def _ladder_term(num, l, m, den_shift, theta, phi):
    # sqrt(num/den) Y_{l+-1, m} with the term dropped at zero weight, so
    # out-of-range harmonics are never touched
    if num <= 0:
        return 0j
    den = (2 * l + 1) * (2 * l + 1 + 2 * den_shift)
    target_l = l + den_shift
    return math.sqrt(num / den) * _y(target_l, m, theta, phi)


def test_degree_one_product_ladders():
    # the three l2=1 product rules, checked pointwise; the lowering
    # radical of the first one is (l-m)(l-m+1): the printed (l-m)(l-m-1)
    # fails this grid by 0.2 while the corrected factor sits at 1e-15
    for l in range(0, 5):
        for theta in THETAS:
            for phi in PHIS:
                st, ct = math.sin(theta), math.cos(theta)
                for m in range(1 - l, l + 2):
                    lhs = -st * cmath.exp(1j * phi) * _y(l, m - 1, theta, phi)
                    rhs = _ladder_term((l + m) * (l + m + 1), l, m, 1, theta, phi) \
                        - _ladder_term((l - m) * (l - m + 1), l, m, -1, theta, phi)
                    assert abs(lhs - rhs) <= 1e-12, ("raise", l, m)
                for m in range(-l - 1, l):
                    lhs = st * cmath.exp(-1j * phi) * _y(l, m + 1, theta, phi)
                    rhs = _ladder_term((l - m) * (l - m + 1), l, m, 1, theta, phi) \
                        - _ladder_term((l + m) * (l + m + 1), l, m, -1, theta, phi)
                    assert abs(lhs - rhs) <= 1e-12, ("lower", l, m)
                for m in range(-l, l + 1):
                    lhs = ct * _y(l, m, theta, phi)
                    rhs = _ladder_term((l + 1) ** 2 - m * m, l, m, 1, theta, phi) \
                        + _ladder_term(l * l - m * m, l, m, -1, theta, phi)
                    assert abs(lhs - rhs) <= 1e-12, ("diag", l, m)


def test_spin_orbit_eigenvalue_identity():
    # j(j+1) - l(l+1) - 3/4 = -(1+kappa) for kappa = +-(j+1/2), exact
    for tj in (1, 3, 5, 7, 9):
        j = Fraction(tj, 2)
        for branch in (-1, 1):
            kappa = branch * (tj + 1) // 2
            l = j + Fraction(branch, 2)
            assert j * (j + 1) - l * (l + 1) - Fraction(3, 4) == -(1 + kappa)


def test_spinor_harmonic_validation():
    with pytest.raises(ValueError):
        spinor_harmonic(1, 0, 1, 0.5, 0.0)  # integer j is not allowed
    with pytest.raises(ValueError):
        spinor_harmonic(HALF, HALF, 0, 0.5, 0.0)  # branch must be +-1
    with pytest.raises(ValueError):
        spinor_harmonic(HalfInt(3), HalfInt(5), 1, 0.5, 0.0)  # |m| > j
