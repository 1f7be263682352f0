"""Gamma-family and terminating-series checks.

Exact rational mode is the arbiter: every float identity here is backed
either by a closed form or by the Fraction twin of the same series.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnium.specfun import (
    HypSeriesSpec,
    hyp_terminating,
    hyp_terminating_exact,
    inc_gamma_upper,
    pochhammer,
)
from hahnium.specfun import _inc_gamma_lower_series, _inc_gamma_upper_lentz, _quotient


def test_pochhammer_small_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(-2, 3) == 0  # hits zero inside the product
    assert pochhammer(-2, 2) == (-2) * (-1)
    empty = pochhammer(Fraction(1, 3), 0)
    assert empty == 1 and type(empty) is Fraction
    with pytest.raises(ValueError):
        pochhammer(1, -1)


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_pochhammer_refuses_a_non_finite_argument(bad):
    with pytest.raises(ValueError, match="finite"):
        pochhammer(bad, 3)


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize("entry", [hyp_terminating, hyp_terminating_exact])
def test_series_entries_refuse_a_non_finite_parameter(entry, bad):
    specs = [
        HypSeriesSpec((-3, bad), (2.0,), 1),
        HypSeriesSpec((-3, 1.5), (bad,), 1),
        HypSeriesSpec((-3, 1.5), (2.0,), bad),
    ]
    for spec in specs:
        with pytest.raises(ValueError, match="finite"):
            entry(spec)


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_pochhammer_splits_at_any_midpoint(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


_RATIONALS = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30)), max_size=5
)


@given(_RATIONALS, _RATIONALS)
def test_quotient_is_the_plain_fraction_product(ups, downs):
    if 0 in downs:
        with pytest.raises(ZeroDivisionError):
            _quotient(ups, downs)
        return
    got = _quotient(ups, downs)
    want = math.prod(ups, start=Fraction(1)) / math.prod(downs, start=Fraction(1))
    assert type(got) is Fraction and got == want


def test_chu_vandermonde_float_and_exact():
    # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
    for n in range(0, 9):
        for b, c in [(0.5, 2.0), (-1.75, 3.25), (4.0, 1.5)]:
            spec = HypSeriesSpec((-n, b), (c,), 1)
            want = pochhammer(c - b, n) / pochhammer(c, n)
            # the alternating terms reach ~1e3 while the sum can sit at
            # 4e-4, so the roundoff floor scales with the largest term
            # (k multiplications per term), not with the final value
            assert hyp_terminating(spec) == pytest.approx(want, rel=1e-12, abs=5e-12)
        bq, cq = Fraction(1, 3), Fraction(7, 2)
        exact = hyp_terminating_exact(HypSeriesSpec((-n, bq), (cq,), 1))
        assert exact == pochhammer(cq - bq, n) / pochhammer(cq, n)


def test_termination_requires_nonpositive_numerator():
    with pytest.raises(ValueError):
        HypSeriesSpec((0.5, 1.5), (2.0,), 1).termination_index()


def test_denominator_pole_before_termination_raises():
    # (b)_k crosses zero at k = 2 while the series wants 4 terms
    message = "denominator parameter -2{} hits a pole at index 3 before termination at 4"
    with pytest.raises(ValueError, match=message.format(r"\.0")):
        hyp_terminating(HypSeriesSpec((-4, 1.0), (-2.0,), 1))
    with pytest.raises(ValueError, match=message.format("")):
        hyp_terminating_exact(HypSeriesSpec((-4, 1), (Fraction(1, 2), -2), 1))


def test_exact_series_takes_every_rational_type():
    # a numpy integer converts through Fraction, as a Python int does
    import numpy as np

    want = hyp_terminating_exact(HypSeriesSpec((-3, 2), (Fraction(5, 2),), -1))
    got = hyp_terminating_exact(
        HypSeriesSpec((np.int64(-3), np.int64(2)), (Fraction(5, 2),), np.int64(-1))
    )
    assert got == want and type(got) is Fraction


def _forward_fraction_sum(numerators, denominators, z, stop):
    """sum_{k <= stop} of the series' terms, each from the one before,
    over Fraction: the plain reference for the exact kernel."""
    nums = [Fraction(a) for a in numerators]
    dens = [Fraction(b) for b in denominators]
    term = total = Fraction(1)
    for k in range(stop):
        for a in nums:
            term *= a + k
        for b in dens:
            term /= b + k
        term *= Fraction(z) / (k + 1)
        total += term
    return total


_PARAMS = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    st.floats(min_value=-6, max_value=6),
)


@given(
    st.integers(min_value=0, max_value=10),
    st.lists(_PARAMS, max_size=2),
    st.lists(
        _PARAMS.filter(lambda b: b > 0 or Fraction(b).denominator != 1), max_size=3
    ),
    st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=7),
        st.floats(min_value=-4, max_value=4),
    ),
    st.none() | st.integers(min_value=0, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_exact_series_matches_forward_fraction_sum(n, nums, dens, z, early):
    # -early, when drawn, is a second nonpositive integer numerator: for
    # early < n its zero ends the series before -n would
    numerators = (-n, *nums) if early is None else (-n, *nums, -early)
    got = hyp_terminating_exact(HypSeriesSpec(numerators, dens, z))
    assert type(got) is Fraction
    assert got == _forward_fraction_sum(numerators, dens, z, n)


def test_inc_gamma_upper_reference_points():
    # Gamma(1, z) = e^-z and Gamma(1/2, z) = sqrt(pi) erfc(sqrt z)
    for z in (0.0, 0.4, 3.0, 30.0):
        assert inc_gamma_upper(1.0, z) == pytest.approx(math.exp(-z), rel=1e-14)
    for z in (0.1, 1.0, 9.0):
        want = math.sqrt(math.pi) * math.erfc(math.sqrt(z))
        assert inc_gamma_upper(0.5, z) == pytest.approx(want, rel=1e-13)
    assert inc_gamma_upper(4.25, 0.0) == pytest.approx(math.gamma(4.25), rel=1e-14)
    with pytest.raises(ValueError):
        inc_gamma_upper(-1.0, 2.0)


@given(
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=150, deadline=None)
def test_inc_gamma_recurrence(alpha, z):
    lhs = inc_gamma_upper(alpha + 1.0, z)
    rhs = alpha * inc_gamma_upper(alpha, z) + z**alpha * math.exp(-z)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


def test_inc_gamma_routes_agree_on_crossover_band():
    # both algorithm branches must hold hands across z in [alpha, alpha+2]
    for alpha in (0.3, 1.0, 2.5, 7.0, 15.0):
        gamma_a = math.gamma(alpha)
        for frac in (0.0, 0.5, 1.0, 1.5, 2.0):
            z = alpha + frac
            via_series = gamma_a - _inc_gamma_lower_series(alpha, z)
            via_lentz = _inc_gamma_upper_lentz(alpha, z)
            assert abs(via_series - via_lentz) <= 1e-11 * abs(via_series)


def test_inc_gamma_integer_alpha_elementary_sum():
    # Gamma(n+1, z) = n! e^-z sum_{k<=n} z^k/k!
    for n in range(0, 21):
        for z in (0.2, 1.0, 7.0, 23.0, 50.0):
            tail = sum(z**k / math.factorial(k) for k in range(n + 1))
            want = math.factorial(n) * math.exp(-z) * tail
            got = inc_gamma_upper(float(n + 1), z)
            assert abs(got - want) <= 1e-13 * abs(want)
