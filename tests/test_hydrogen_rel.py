"""Dirac-Coulomb bound states: energies, radial functions and moments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hahnium.checks import rel_states
from hahnium.hydrogen_rel import (
    ALPHA_FS,
    RelState,
    _exact_moment,
    energy_rel,
    expect_hahn_form_rel,
    expect_r_power_rel,
    expect_special_rel,
    radial_rel,
    screening_rel_1s,
)
from hahnium.hydrogen_nr import NrState, radial_nr, screening_nr
from hahnium.oracle import brute_expect_rel, quad_semi_infinite
from hahnium.orthopoly import LaguerreSpec, laguerre


def _grid():
    return rel_states((1.0, 40.0, 92.0), (-3, -2, -1, 1, 2, 3), 3)


def test_state_validation():
    with pytest.raises(ValueError, match="kappa < 0"):
        RelState(1.0, 0, 1)  # the n_r = 0 state needs kappa < 0
    with pytest.raises(ValueError, match=r"mu >= \|kappa\|"):
        RelState(200.0, 1, -1)  # supercritical coupling
    with pytest.raises(ValueError):
        RelState(1.0, -1, -1)
    with pytest.raises(ValueError):
        RelState(1.0, 1, 0)
    for alpha_fs in (-ALPHA_FS, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha_fs"):
            RelState(1.0, 1, -1, alpha_fs=alpha_fs)


def test_quantum_number_bookkeeping():
    state = RelState(92.0, 2, -2)
    assert state.mu == pytest.approx(92.0 * ALPHA_FS, rel=1e-15)
    assert state.nu == pytest.approx(math.sqrt(4.0 - state.mu**2), rel=1e-15)


def test_ground_state_energy():
    state = RelState(1.0, 0, -1)
    assert energy_rel(state) == pytest.approx(math.sqrt(1.0 - state.mu**2), rel=1e-15)
    # binding tightens with Z
    assert energy_rel(RelState(92.0, 0, -1)) < energy_rel(RelState(1.0, 0, -1))


def test_fine_structure_coefficients():
    # epsilon = 1 - mu^2/2n^2 - (n/|kappa| - 3/4) mu^4/2n^4 + O(mu^6)
    # with n = n_r + |kappa|
    for Z in (1.0, 10.0):
        for n_r, kappa in ((0, -1), (1, 1), (1, -1), (2, -2), (1, 3)):
            state = RelState(Z, n_r, kappa)
            n, mu = n_r + abs(kappa), state.mu
            series = 1.0 - mu**2 / (2 * n**2) - (n / abs(kappa) - 0.75) * mu**4 / (2 * n**4)
            assert abs(series - energy_rel(state)) < 10.0 * mu**6, (Z, n_r, kappa)


def test_radial_normalization():
    for state in (
        RelState(1.0, 0, -1),
        RelState(1.0, 1, 1),
        RelState(20.0, 2, -2),
        RelState(80.0, 3, -3),
        RelState(92.0, 0, -1),
        RelState(92.0, 6, -2),
    ):
        def density(r, state=state):
            pair = radial_rel(state, r)
            return (pair.F**2 + pair.G**2) * r**2

        res = quad_semi_infinite(density, 2.0 * state.nu, 2.0 * state.a, 1e-13)
        assert abs(res.value - 1.0) <= 5e-12


def _radial_traditional(state, r):
    # same solution assembled from the equal-superscript Laguerre pair,
    # with sqrt(1 +- eps) weights; printed with the opposite overall sign
    # for kappa < 0, so callers align one global sign per state
    n, kappa = state.n_r, state.kappa
    eps, nu, a, mu = state.epsilon, state.nu, state.a, state.mu
    xi = 2.0 * a * r
    sp = math.sqrt(1.0 + eps)
    sm = math.sqrt(1.0 - eps)
    common_plus = (kappa - nu) * sp + mu * sm
    common_minus = (kappa - nu) * sp - mu * sm
    pref = a * a * math.sqrt(
        math.gamma(n + 1.0)
        / (mu * (kappa - nu) * (eps * kappa - nu) * math.gamma(n + 2.0 * nu))
    )
    shape = pref * xi ** (nu - 1.0) * math.exp(-xi / 2.0)
    low = laguerre(LaguerreSpec(n, 2.0 * nu), xi)
    up = laguerre(LaguerreSpec(n - 1, 2.0 * nu), xi) if n >= 1 else 0.0
    f_val = shape * (sp * common_plus * up - sp * common_minus * low)
    g_val = shape * (sm * common_plus * up + sm * common_minus * low)
    return f_val, g_val


def test_two_radial_representations_agree():
    for z, n_r, kappa in [(1.0, 0, -1), (1.0, 2, 1), (40.0, 1, -2), (80.0, 3, 2), (92.0, 5, -1)]:
        state = RelState(z, n_r, kappa)
        sign = None
        for r in (0.5 / state.mu, 2.0 / state.mu, 10.0 / state.mu):
            pair = radial_rel(state, r)
            f_ref, g_ref = _radial_traditional(state, r)
            if sign is None:
                sign = 1.0 if pair.F * f_ref > 0 else -1.0
            scale = max(abs(f_ref), abs(g_ref))
            assert abs(pair.F - sign * f_ref) <= 1e-10 * scale
            assert abs(pair.G - sign * g_ref) <= 1e-10 * scale


def test_ground_state_explicit_form():
    # F = -(2Z)^(3/2) sqrt((1+nu)/(2 Gamma(1+2nu))) (2Zr)^(nu-1) e^(-Zr),
    # G = -sqrt((1-nu)/(1+nu)) F, here in Bohr-radius units at Z = 1
    state = RelState(1.0, 0, -1)
    nu1 = state.nu
    for r_bohr in (0.3, 1.0, 4.0):
        xi = 2.0 * r_bohr
        pref = 2.0**1.5 * math.sqrt((nu1 + 1.0) / (2.0 * math.gamma(2.0 * nu1 + 1.0)))
        f_ref = -pref * xi ** (nu1 - 1.0) * math.exp(-xi / 2.0)
        g_ref = -f_ref * math.sqrt((1.0 - nu1) / (1.0 + nu1))
        pair = radial_rel(state, r_bohr / state.mu)
        assert pair.F * state.mu**-1.5 == pytest.approx(f_ref, rel=1e-13)
        assert pair.G * state.mu**-1.5 == pytest.approx(g_ref, rel=1e-12)


def test_radial_rel_of_an_array_is_the_scalar_values():
    # n_r = 0 and n_r >= 1, kappa of both signs
    for z, n_r, kappa in [(1.0, 0, -1), (92.0, 0, -2), (40.0, 1, -2), (80.0, 3, 2),
                          (92.0, 2, 1)]:
        state = RelState(z, n_r, kappa)
        radii = np.array([0.05, 0.5, 2.0, 10.0]) / state.mu
        pair = radial_rel(state, radii)
        for i, r in enumerate(radii):
            one = radial_rel(state, float(r))
            assert pair.F[i] == pytest.approx(one.F, rel=1e-14, abs=0.0)
            assert pair.G[i] == pytest.approx(one.G, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [2, 2.0, Fraction(2), np.float64(2.0)])
def test_radial_functions_of_a_scalar_radius_are_floats(r):
    pair = radial_rel(RelState(1.0, 1, -1), r)
    for value in (radial_nr(NrState(1.0, 3, 1), r), pair.F, pair.G):
        # numpy's float64 is a float subclass; every other radius gives a float
        assert isinstance(value, float), type(value)
        assert isinstance(r, np.float64) or type(value) is float, type(value)


@pytest.mark.parametrize("r", [
    -1.0, -1e-3, math.nan, math.inf, -math.inf,
    np.array([1.0, -1e-3]), np.array([1.0, math.inf]), np.array([math.nan, 1.0]),
])
def test_radial_functions_refuse_radii_outside_their_domain(r):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        radial_nr(NrState(1.0, 2, 1), r)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        radial_rel(RelState(1.0, 1, -1), r)


def test_hahn_forms_match_general_form():
    # the Hahn forms are the general route at p and at -(p+3)
    for state in _grid():
        for p in range(0, 5):
            general = expect_r_power_rel(state, p)
            assert general.unit == "compton_reduced"
            assert expect_hahn_form_rel(state, p, "positive") == general, (state, p)
            if 2.0 * state.nu - p - 2.0 > 0.0:
                mirror = expect_r_power_rel(state, -(p + 3))
                assert expect_hahn_form_rel(state, p, "negative") == mirror, (state, p)


def test_moment_domain_guard():
    with pytest.raises(ValueError, match="diverges"):
        expect_r_power_rel(RelState(92.0, 1, -1), -3)  # 2 nu < 2 here
    with pytest.raises(ValueError):
        expect_hahn_form_rel(RelState(92.0, 1, -1), 0, "negative")
    with pytest.raises(ValueError):
        expect_hahn_form_rel(RelState(1.0, 1, -1), -1, "positive")
    with pytest.raises(ValueError):
        expect_special_rel(RelState(1.0, 0, -1), "r3")


def test_nonrelativistic_limit():
    # as mu -> 0, (nu - |kappa|)/mu^2 -> -1/2|kappa| and, at 2.5 Bohr,
    # F -> sign(kappa) R_nl with an O(mu^2) error signature and G/F -> 0;
    # criterion 06 holds the moments to the same mu^2 rate
    radius = 2.5
    for kappa in (-1, 1, -2, 2):
        nr_state = NrState(1.0, 1 + abs(kappa), kappa if kappa > 0 else -kappa - 1)
        want = (1.0 if kappa > 0 else -1.0) * radial_nr(nr_state, radius)
        f_errs = []
        for mu in (4e-3, 2e-3, 1e-3):
            state = RelState(1.0, 1, kappa, alpha_fs=mu)
            pair = radial_rel(state, radius / mu)
            f_errs.append(abs(pair.F * mu**-1.5 - want))
        assert abs((state.nu - abs(kappa)) / mu**2 + 1.0 / (2 * abs(kappa))) < 1e-4
        assert abs(pair.G / pair.F) < 2e-3
        assert f_errs[0] / f_errs[1] > 3.0 and f_errs[1] / f_errs[2] > 3.0


def test_screened_potential_ground_state():
    # close to the nucleus the full charge acts; far out exactly one
    # electron screens; in between the nonrelativistic curve is close
    assert 1e-8 * screening_rel_1s(2.0, 1e-8) == pytest.approx(2.0, abs=1e-5)
    assert 40.0 * screening_rel_1s(2.0, 40.0) == pytest.approx(1.0, abs=1e-9)
    for r in (0.1, 1.0, 5.0):
        v_rel = screening_rel_1s(1.0, r)
        v_nr = screening_nr(NrState(1.0, 1, 0), r)
        assert abs(v_rel - v_nr) <= 5e-4 * max(abs(v_nr), 1.0 / r)
    errs = [
        abs(screening_rel_1s(1.0, 1.0, alpha_fs=mu) - screening_nr(NrState(1.0, 1, 0), 1.0))
        for mu in (4e-2, 2e-2, 1e-2)
    ]
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0
    for r in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            screening_rel_1s(1.0, r)
    for z in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="Z must be positive"):
            screening_rel_1s(z, 1.0)
    for alpha_fs in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha_fs must be positive and finite"):
            screening_rel_1s(1.0, 1.0, alpha_fs=alpha_fs)
    with pytest.raises(ValueError, match=r"mu >= \|kappa\|"):
        screening_rel_1s(1.01 / ALPHA_FS, 1.0)  # no bound 1S state past mu = 1


@pytest.mark.parametrize("potential, args", [
    (screening_nr, (NrState(1.0, 1, 0), 1e-310)),
    (screening_nr, (NrState(1.0, 3, 2), 5e-324)),
    (screening_rel_1s, (1.0, 1e-310)),
], ids=["nr 1s", "nr 3d", "rel 1s"])
def test_screening_refuses_a_potential_beyond_binary64(potential, args):
    # a subnormal r puts Z/r past the largest double
    with pytest.raises(ArithmeticError):
        potential(*args)


def test_rational_fallback_consistent_with_float_route():
    for z, n_r, kappa, p in [(40.0, 2, 2, 1), (92.0, 3, -2, -2)]:
        state = RelState(z, n_r, kappa)
        fallback = _exact_moment(state, p)
        direct = expect_r_power_rel(state, p).value
        assert abs(fallback - direct) <= 1e-11 * abs(direct)


def test_moments_match_exact_route_on_wide_grid():
    # the float bracket against the same bracket summed exactly (the
    # rescue), relative 1e-12; a raised flag is allowed
    cases = 0
    for z in (1.0, 40.0, 92.0, 130.0):
        for kappa in (-1, 1, -2, 2, -5, 5, -30, 30):
            for n_r in (0, 1, 2, 5, 10, 30, 60, 100, 150, 200):
                if n_r == 0 and kappa > 0:
                    continue
                state = RelState(z, n_r, kappa)
                for p in range(-3, 17):
                    if not 2.0 * state.nu + p + 1.0 > 0.0:
                        continue
                    got = expect_r_power_rel(state, p).value
                    want = _exact_moment(state, p)
                    assert abs(got - want) <= 1e-12 * abs(want), (z, n_r, kappa, p)
                    cases += 1
    assert cases == 5985


@pytest.mark.parametrize("z, n_r, kappa", [(1.0, 100, 5), (40.0, 100, -1)])
def test_inverse_r_at_large_n_r(z, n_r, kappa):
    # at large n_r the series behind <1/r> alternates and cancels inside
    # one term, where the flag cannot see it; rm1 is an independent form
    state = RelState(z, n_r, kappa)
    got = expect_r_power_rel(state, -1).value
    for want in (_exact_moment(state, -1), expect_special_rel(state, "rm1").value):
        assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("n_r", [1, 2])
@pytest.mark.parametrize("gap", [1e-3, 2e-4, 1.1e-4, 1e-5])
def test_moments_near_critical_charge_match_oracle(n_r, gap):
    # Z = 1/alpha - gap: the three terms cancel to ratios of 1e5..1e7,
    # where the float sum loses ~1e-14 per unit of ratio.  p >= 0 keeps
    # the oracle's head exponent 2*nu - 1 + p away from -1.
    state = RelState(1.0 / ALPHA_FS - gap, n_r, 1)
    for p in (16, 19, 22, 24):
        got = expect_r_power_rel(state, p).value
        want = brute_expect_rel(state, p)
        assert abs(got - want) <= 1e-9 * abs(want), (n_r, gap, p)


@pytest.mark.parametrize("z, n_r, kappa, p, want", [
    # a binary64 term overflows to inf ...
    (92.0, 0, -1, 97, 2.5329706926060186e+142),
    # ... or two of them, of opposite signs, which fsum cannot add
    (40.0, 5, -3, 93, 3.5101412896250976e+271),
])
def test_moments_past_binary64_terms_take_the_exact_route(z, n_r, kappa, p, want):
    got = expect_r_power_rel(RelState(z, n_r, kappa), p)
    assert got.cancellation_flag
    assert abs(got.value - want) <= 1e-14 * want


def test_moment_beyond_binary64_raises():
    with pytest.raises(ArithmeticError, match="exceeds binary64 range"):
        expect_r_power_rel(RelState(1.0, 0, -1), 150)
