"""Nonrelativistic bound-state moments, recurrences and screening."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnium import hydrogen_nr
from hahnium.hydrogen_nr import (
    NrState,
    energy_nr,
    expect_r_power_nr,
    expect_recurrence_nr,
    inversion_check_nr,
    radial_nr,
    screening_nr,
)
from hahnium.oracle import brute_expect_nr, brute_screening_nr, quad_semi_infinite
from hahnium.specfun import HypSeriesSpec, hyp_terminating_exact, pochhammer


def test_state_validation():
    with pytest.raises(ValueError):
        NrState(1.0, 0, 0)
    with pytest.raises(ValueError):
        NrState(1.0, 2, 2)  # l must stay below n
    with pytest.raises(ValueError):
        NrState(1.0, 2, 1, 2)  # |m| <= l
    with pytest.raises(ValueError):
        NrState(-1.0, 1, 0)
    with pytest.raises(ValueError):
        NrState(math.inf, 1, 0)


def test_energy_levels():
    assert energy_nr(NrState(Fraction(1), 1, 0)) == Fraction(-1, 2)
    assert energy_nr(NrState(Fraction(2), 3, 1)) == Fraction(-2, 9)
    assert energy_nr(NrState(1.0, 2, 0)) == -0.125


def test_radial_function_normalization():
    for z, n, l in [(1.0, 1, 0), (1.0, 3, 2), (10.0, 4, 1)]:
        state = NrState(z, n, l)

        def density(r):
            return radial_nr(state, r) ** 2 * r**2

        res = quad_semi_infinite(density, 2.0 * l, 2.0 * z / n, 1e-12)
        assert abs(res.value - 1.0) <= 1e-11


def test_ground_state_radial_value():
    # R_10 = 2 Z^(3/2) e^(-Zr)
    state = NrState(1.0, 1, 0)
    for r in (0.0, 0.5, 3.0):
        assert radial_nr(state, r) == pytest.approx(2.0 * math.exp(-r), rel=1e-14)
    arr = radial_nr(state, np.array([0.5, 3.0]))
    assert arr == pytest.approx(2.0 * np.exp(-np.array([0.5, 3.0])), rel=1e-14)


def test_moments_against_oracle_sample():
    for z, n, l in [(1.0, 1, 0), (1.0, 4, 2), (10.0, 3, 0), (10.0, 6, 5)]:
        state = NrState(z, n, l)
        for p in range(-2 * l - 2, 7):
            got = expect_r_power_nr(state, p)
            assert got.unit == "bohr_radius"
            assert got.length_power == p
            want = brute_expect_nr(state, p)
            assert abs(got.value - want) <= 1e-10 * abs(want), (z, n, l, p)


def test_moment_scaling_in_z():
    # <r^p> carries Z^-p exactly
    for n, l in [(2, 1), (5, 3)]:
        for p in range(-2 * l - 2, 7):
            base = expect_r_power_nr(NrState(Fraction(1), n, l), p).value
            scaled = expect_r_power_nr(NrState(Fraction(2), n, l), p).value
            assert scaled == base * Fraction(1, 2) ** p


def test_inversion_relation_exact():
    for n, l in [(1, 0), (3, 1), (5, 4), (8, 3)]:
        state = NrState(Fraction(1), n, l)
        for k in range(0, 2 * l + 1):
            lhs, rhs = inversion_check_nr(state, k)
            assert lhs == rhs
    with pytest.raises(ValueError):
        inversion_check_nr(NrState(Fraction(1), 2, 1), 3)


def _fraction_moment(z, n: int, l: int, p: int, scale_power=None) -> Fraction:
    """ratio t_k(n-l-1, -2l-1) (n/2Z)^q / (2n), q = p unless given, one
    Fraction operation at a time; t_k = (-1)^k (N-k)_k 3F2(-k, k+1,
    -(n-l-1); 1, 1-N; 1) with N = -2l-1."""
    if p >= -1:
        k, ratio = p + 1, Fraction(1)
    else:
        k = -p - 2
        ratio = Fraction(math.factorial(2 * l - k), math.factorial(2 * l + k + 1))
    big_n = -(2 * l + 1)
    series = hyp_terminating_exact(
        HypSeriesSpec((-k, k + 1, -(n - l - 1)), (1, 1 - big_n), 1)
    )
    t = Fraction((-1) ** k * pochhammer(big_n - k, k)) * series
    q = p if scale_power is None else scale_power
    return ratio * t * (Fraction(n) / (2 * Fraction(z))) ** q / (2 * n)


_CHARGES = st.one_of(
    st.integers(min_value=1, max_value=120),
    st.fractions(min_value=Fraction(1, 40), max_value=120, max_denominator=40),
)


@given(_CHARGES, st.data())
@settings(max_examples=150, deadline=None)
def test_exact_moments_match_plain_fraction_formula(z, data):
    n = data.draw(st.integers(min_value=1, max_value=14), label="n")
    l = data.draw(st.integers(min_value=0, max_value=n - 1), label="l")
    p = data.draw(st.integers(min_value=-2 * l - 4, max_value=24), label="p")
    state = NrState(z, n, l)
    if p < -2 * l - 2:
        with pytest.raises(ValueError):
            expect_r_power_nr(state, p)
    else:
        got = expect_r_power_nr(state, p).value
        assert type(got) is Fraction and got == _fraction_moment(z, n, l, p)
    k = data.draw(st.integers(min_value=-1, max_value=2 * l + 1), label="k")
    if not 0 <= k <= 2 * l:
        with pytest.raises(ValueError):
            inversion_check_nr(state, k)
        return
    lhs, rhs = inversion_check_nr(state, k)
    factor = (2 * Fraction(z) / n) ** (2 * k + 1)
    want_rhs = factor * _fraction_moment(z, n, l, -(k + 2), scale_power=k - 1)
    assert type(lhs) is Fraction and lhs == _fraction_moment(z, n, l, -(k + 2))
    assert type(rhs) is Fraction and rhs == want_rhs


def test_moment_domain_guard():
    state = NrState(1.0, 2, 0)
    with pytest.raises(ValueError, match="diverges"):
        expect_r_power_nr(state, -3)
    # boundary moment p = -2l-2 converges for l >= 1
    got = expect_r_power_nr(NrState(1.0, 2, 1), -4)
    assert got.value == pytest.approx(brute_expect_nr(NrState(1.0, 2, 1), -4), rel=1e-10)


def test_screening_ground_state_closed_form():
    # general multipole machinery against (Z-1)/r + (1/r + Z) e^(-2Zr)
    for z in (1.0, 2.0):
        state = NrState(z, 1, 0)
        for r in (0.1, 1.0, 5.0, 20.0):
            want = (z - 1.0) / r + (1.0 / r + z) * math.exp(-2.0 * z * r)
            assert screening_nr(state, r) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_screening_limits_and_anisotropy():
    # near the nucleus the bare charge shows; far away one unit is gone
    state = NrState(1.0, 1, 0)
    assert 1e-8 * screening_nr(state, 1e-8) == pytest.approx(1.0, abs=1e-6)
    assert screening_nr(state, 50.0) == pytest.approx(0.0, abs=1e-12)
    charged = NrState(2.0, 1, 0)
    assert 40.0 * screening_nr(charged, 40.0) == pytest.approx(1.0, abs=1e-9)
    # an m = +-l state is oblate: the potential keeps a quadrupole term
    eq = screening_nr(NrState(1.0, 2, 1, 1), 3.0, theta=math.pi / 2.0)
    pole = screening_nr(NrState(1.0, 2, 1, 1), 3.0, theta=0.0)
    assert eq != pytest.approx(pole, rel=1e-6)
    # the monopole of any state integrates one electron in total
    sphere_avg = screening_nr(NrState(1.0, 2, 1, 1), 60.0, theta=math.acos(1.0 / math.sqrt(3.0)))
    assert 60.0 * sphere_avg == pytest.approx(0.0, abs=1e-10)


def _deviation_from_quadrature(state, r, theta):
    """|closed form - quadrature| / max(|V|, electron term)."""
    want = brute_screening_nr(state, r, theta, rel_tol=1e-13)
    electron = state.Z / r - want
    return abs(screening_nr(state, r, theta) - want) / max(abs(want), abs(electron))


@pytest.mark.parametrize("n, l, r, value", [(6, 3, 0.01, 99.97), (8, 5, 1.0, 0.984),
                                            (8, 5, 0.01, 99.98)])
def test_screening_high_multipoles_near_the_nucleus(n, l, r, value):
    # full-minus-tail divided by r^(L+1) gave 93.2, -1.5e4 and -1.5e26 here
    state = NrState(1.0, n, l)
    assert screening_nr(state, r) == pytest.approx(value, rel=5e-4)
    assert _deviation_from_quadrature(state, r, 0.0) <= 1e-9


@pytest.mark.parametrize("n", [20, 25])
def test_screening_large_n_against_quadrature(n):
    for l in (0, n // 2, n - 1):
        state = NrState(1.0, n, l, l // 2)
        for r in (1e-3, 1.0, n * n, 4.0 * n * n):
            assert _deviation_from_quadrature(state, r, 0.7) <= 1e-9, (l, r)


@pytest.mark.parametrize("n", [20, 40, 60, 100])
def test_screening_s_states_between_bare_and_net_charge(n):
    # from r = 1e-8 out to eta = 2Zr/n = 800, where e^-eta underflows
    for z in (1.0, 30.0):
        r_far = 800.0 * n / (2.0 * z)
        for k in range(13):
            r = 1e-8 * (r_far / 1e-8) ** (k / 12)
            value = screening_nr(NrState(z, n, 0), r)
            assert (z - 1.0) / r <= value <= z / r, (z, r, value)


def test_screening_high_l_at_tiny_radius():
    # eta^-L times the interior moment overflowed to nan or raised here
    r = 1e-8
    for n, l in [(20, 19), (30, 25), (60, 40)]:
        value = screening_nr(NrState(1.0, n, l, l // 2), r, 0.4)
        assert math.isfinite(value)
        # r V = Z - r <1/r> + O(r^3)
        assert r * value == pytest.approx(1.0 - r / n**2, abs=1e-15)


def test_screening_caches_change_no_value():
    # the (l, |m|) weights and the (n, l) density polynomial are cached;
    # a warm cache, the call order and the sign of m must not move a bit
    caches = (hydrogen_nr._multipole_weights, hydrogen_nr._density_poly)
    for cache in caches:
        assert 0 < cache.cache_info().maxsize < math.inf
        cache.cache_clear()
    z = 2.0
    cases = [
        (n, l, m, r)
        for n, l, m_abs in [(3, 2, 1), (10, 9, 9), (40, 39, 7)]
        for m in (m_abs, -m_abs)
        for r in (1e-3, 1.0, 4.0 * n * n / z)
    ]
    cold = {c: screening_nr(NrState(z, *c[:3]), c[3], 0.7) for c in cases}
    assert caches[0].cache_info().misses == 3 and caches[1].cache_info().misses == 3
    for c in reversed(cases):
        warm = screening_nr(NrState(z, *c[:3]), c[3], 0.7)
        assert warm.hex() == cold[c].hex(), c
    for n, l, m, r in cases:
        assert cold[n, l, m, r].hex() == cold[n, l, -m, r].hex(), (n, l, m, r)


def test_screening_domain_guard():
    state = NrState(1.0, 2, 1)
    for r in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            screening_nr(state, r)
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta"):
            screening_nr(state, 1.0, theta)


def test_moments_beyond_binary64_raise():
    # 7.2e307 is in range although the product (n/2Z)^p t_k, before its
    # division by 2n, is not: the float route divides first there
    exact = expect_r_power_nr(NrState(Fraction(1, 100), 10, 2), 69).value
    got = expect_r_power_nr(NrState(0.01, 10, 2), 69).value
    assert got == pytest.approx(float(exact), rel=1e-15)
    assert float(exact) == pytest.approx(7.165725118749522e307, rel=1e-15)
    with pytest.raises(ArithmeticError, match="exceeds binary64 range"):
        expect_r_power_nr(NrState(0.01, 10, 2), 70)
    with pytest.raises(ArithmeticError, match="exceeds binary64 range"):
        expect_recurrence_nr(NrState(1.0, 40, 3), 120)
