"""Brute-force quadrature oracle: self-tests and independence guarantees."""

import math
import pathlib

import numpy as np
import pytest

import hahnium.oracle as oracle
from hahnium import hydrogen_nr
from hahnium.angular import clebsch_gordan, clebsch_gordan_exact
from hahnium.hydrogen_nr import NrState, expect_r_power_nr, screening_nr
from hahnium.hydrogen_rel import (
    RelState,
    expect_r_power_rel,
    expect_special_rel,
    radial_rel,
    screening_rel_1s,
)
from hahnium.oracle import (
    DEFAULT_BUDGET,
    G_WEIGHTS,
    GK_NODES,
    GK_WEIGHTS,
    QuadratureError,
    brute_expect_nr,
    brute_expect_rel,
    brute_screening,
    brute_screening_nr,
    brute_screening_rel,
    quad_semi_infinite,
    sphere_quad,
)


def _monomial_integral(k: int) -> float:
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


def test_gk_rule_polynomial_exactness():
    # Kronrod 15 points: exact through degree 3*7 + 1; embedded Gauss
    # 7 points: exact through degree 2*7 - 1
    for k in range(23):
        got = math.fsum(GK_WEIGHTS * GK_NODES**k)
        assert abs(got - _monomial_integral(k)) <= 1e-15, k
    gauss_nodes = GK_NODES[1::2]
    for k in range(14):
        got = math.fsum(G_WEIGHTS * gauss_nodes**k)
        assert abs(got - _monomial_integral(k)) <= 1e-15, k
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(gauss_nodes - nodes)) <= 1e-15
    assert np.max(np.abs(G_WEIGHTS - weights)) <= 1e-15


def test_gamma_self_test():
    for alpha in (0.3, 1.0, 2.5, 7.0):
        def integrand(x, alpha=alpha):
            return x ** (alpha - 1.0) * np.exp(-x)

        res = quad_semi_infinite(integrand, alpha - 1.0, 1.0, 1e-13)
        want = math.gamma(alpha)
        assert abs(res.value - want) <= 1e-12 * want
        assert res.error_estimate <= 1e-12 * want
        assert 0 < res.evaluations <= DEFAULT_BUDGET


def test_gamma_self_test_domain_edges():
    # sigma -> -1 (large head power) and a high-degree tail, with the
    # true polynomial degree alpha - 1 sizing the tail reach
    for alpha in (0.02, 0.05, 30.5):
        def integrand(x, alpha=alpha):
            return x ** (alpha - 1.0) * np.exp(-x)

        res = quad_semi_infinite(
            integrand, alpha - 1.0, 1.0, 1e-13, polynomial_degree=alpha - 1.0
        )
        want = math.gamma(alpha)
        assert abs(res.value - want) <= 1e-12 * want, alpha
        assert res.error_estimate <= 1e-12 * want, alpha


def test_head_underflow_refused():
    # at sigma = -0.995 half the mass lies below x ~ 1e-60 and the head
    # map x = t^200 underflows on the first panel: refuse, never guess
    with pytest.raises(QuadratureError, match="underflows"):
        quad_semi_infinite(lambda x: x**-0.995 * np.exp(-x), -0.995, 1.0, 1e-13)


def test_tail_stops_at_reach():
    # no node beyond x_max = x1 + reach/d reaches the integrand, where a
    # high power of x would overflow while exp(-d x) underflows
    seen = []
    for degree, decay in ((0.0, 1.0), (12.0, 0.1), (200.0, 2.0)):
        def integrand(x, degree=degree, decay=decay):
            seen.append(float(np.max(x)))
            y = decay * x
            return np.exp(degree * np.log(y) - y - math.lgamma(degree + 1.0))

        quad_semi_infinite(integrand, degree, decay, 1e-12, polynomial_degree=degree)
        x_max = (1.0 + 74.0 + 3.0 * degree) / decay
        assert max(seen) <= x_max * (1.0 + 1e-15), degree
        seen.clear()


@pytest.mark.parametrize("degree", [300, 600, 1000])
def test_tail_keeps_high_degree_peak_resolvable(degree):
    # x^q e^(-2x) / q! peaks at x ~ q/2; a stretch that ignores q pushes
    # the peak against t = 1 and refinement runs out of budget
    def integrand(x):
        return np.exp(degree * np.log(2.0 * x) - 2.0 * x - math.lgamma(degree + 1.0))

    res = quad_semi_infinite(integrand, degree, 2.0, 1e-12, polynomial_degree=degree)
    assert abs(res.value - 0.5) <= 1e-12 * 0.5
    assert res.evaluations <= 2000, res.evaluations


def test_decay_rate_rescales_tail():
    # integral of x^(a-1) e^(-3x) = Gamma(a) / 3^a
    def integrand(x):
        return x**1.5 * np.exp(-3.0 * x)

    res = quad_semi_infinite(integrand, 1.5, 3.0, 1e-13)
    want = math.gamma(2.5) / 3.0**2.5
    assert abs(res.value - want) <= 1e-12 * want


def test_budget_exhaustion_raises():
    def noisy(x):
        return np.sin(50.0 * x) ** 2 * np.exp(-x)

    with pytest.raises(QuadratureError):
        quad_semi_infinite(noisy, 0.0, 1.0, 1e-13, budget=500)

    # the budget is a hard cap on the points the integrand receives
    for budget in (500, 5000, 100):
        points = []

        def counted(x):
            points.append(np.size(x))
            return noisy(x)

        with pytest.raises(QuadratureError):
            quad_semi_infinite(counted, 0.0, 1.0, 1e-13, budget=budget)
        assert sum(points) <= budget, budget

    # and `evaluations` is that count on a converged run
    points = []

    def counted(x):
        points.append(np.size(x))
        return np.exp(-x)

    res = quad_semi_infinite(counted, 0.0, 1.0, 1e-13)
    assert res.evaluations == sum(points)


def test_invalid_inputs():
    def f(x):
        return np.exp(-x)

    with pytest.raises(ValueError):
        quad_semi_infinite(f, -1.5, 1.0, 1e-10)  # non-integrable at 0
    with pytest.raises(ValueError):
        quad_semi_infinite(f, 0.0, -1.0, 1e-10)  # decay must be positive


@pytest.mark.parametrize("controls", [
    {"decay_rate": math.nan},
    {"polynomial_degree": math.nan},
    {"rel_tol": math.nan},
    {"rel_tol": math.inf},
    {"singularity_exponent_at_0": math.inf},
    {"abs_tol": math.inf},
    {"abs_tol": math.nan},
    {"budget": math.nan},
    {"budget": math.inf},
    {"upper": math.nan},
], ids=["nan decay", "nan degree", "nan rel_tol", "inf rel_tol", "inf sigma",
        "inf abs_tol", "nan abs_tol", "nan budget", "inf budget", "nan upper"])
def test_non_finite_controls_refused(controls):
    # a NaN reach put every node outside and returned 0 after 0
    # evaluations; a non-finite rel_tol or an infinite abs_tol stopped
    # after the initial panels; an infinite sigma dropped the head and
    # reported convergence; a NaN abs_tol was ignored and a NaN budget
    # meant no budget
    args = {"singularity_exponent_at_0": 0.0, "decay_rate": 1.0, "rel_tol": 1e-12}
    with pytest.raises(ValueError):
        quad_semi_infinite(lambda x: np.exp(-x), **(args | controls))


def test_finite_upper_end():
    # int_0^u x^a e^-x by quadrature on the head map alone against the
    # series u^a e^-u sum_j u^(j+1) / (a+1)...(a+j+1); past the reach of
    # the integrand the cut leaves Gamma(a+1)
    for sigma, upper in ((0.0, 0.5), (0.0, 3.0), (1.5, 2.0), (-0.5, 1e-3)):
        terms, term = [], 1.0
        for j in range(100):
            term *= upper / (sigma + 1.0 + j)
            terms.append(term)
        want = upper**sigma * math.exp(-upper) * math.fsum(terms)
        res = quad_semi_infinite(lambda x, s=sigma: x**s * np.exp(-x), sigma, 1.0,
                                 1e-13, polynomial_degree=sigma, upper=upper)
        assert abs(res.value - want) <= 1e-12 * want, (sigma, upper)
    res = quad_semi_infinite(lambda x: x**4 * np.exp(-x), 4.0, 1.0, 1e-13,
                             polynomial_degree=4.0, upper=1e6)
    assert abs(res.value - 24.0) <= 1e-12 * 24.0


def test_brute_expect_refuses_a_non_finite_rel_tol():
    for rel_tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            brute_expect_nr(NrState(1.0, 2, 1), 1, rel_tol)
        with pytest.raises(ValueError):
            brute_expect_rel(RelState(1.0, 1, -1), 1, rel_tol)


@pytest.mark.parametrize("count", [64, 256, 1024, 2048])
def test_gauss_legendre_even_moments(count):
    # sum w x^(2k) = 2/(2k+1) up to degree 2n-2, which the outermost
    # nodes and weights dominate
    x, w = oracle._gauss_legendre(count)
    for k in (0, count // 4, count // 2, count - 1):
        want = 2.0 / (2 * k + 1)
        got = math.fsum(w * x ** (2 * k))
        assert abs(got - want) <= 1e-12 * want, (count, k)


def test_brute_expect_nr_reference_values():
    state = NrState(1.0, 1, 0)
    assert brute_expect_nr(state, 1) == pytest.approx(1.5, rel=1e-11)
    assert brute_expect_nr(state, 0) == pytest.approx(1.0, rel=1e-12)
    assert brute_expect_nr(state, -2) == pytest.approx(2.0, rel=1e-11)
    state = NrState(2.0, 3, 1)
    assert brute_expect_nr(state, -1) == pytest.approx(2.0 / 9.0, rel=1e-11)


def test_brute_expect_nr_high_n_edges():
    # l = n-1 with p = -2l-2 puts r^(-2l) against eta^(2l) in the head;
    # p = 12 at n = 20 puts a degree-52 polynomial in the tail
    for n in (12, 15, 20):
        for l in sorted({0, n // 2, n - 1}):
            state = NrState(1.0, n, l)
            for p in (-2 * l - 2, 0, 8, 12):
                want = expect_r_power_nr(state, p).value
                got = brute_expect_nr(state, p)
                assert abs(got - want) <= 1e-9 * abs(want), (n, l, p)


def test_brute_expect_rel_near_critical_charge():
    # nu -> 0 as Z alpha -> |kappa|: head exponents near -1 for p = -1
    for z in (120, 136):
        for kappa in (-1, 1, -2):
            for n_r in range(0 if kappa < 0 else 1, 13):
                state = RelState(z, n_r, kappa)
                for p in range(-2, 5):
                    if 2.0 * state.nu + p + 1.0 <= 0.0:
                        continue
                    want = expect_r_power_rel(state, p).value
                    got = brute_expect_rel(state, p)
                    assert abs(got - want) <= 1e-9 * abs(want), (z, kappa, n_r, p)


def _right_or_refuses(brute, state, p, want):
    try:
        got = brute(state, p)
    except QuadratureError:
        return True
    return abs(got - want) <= 1e-10 * abs(want)


def test_brute_expect_right_or_refuses_through_n_150():
    # a squared Laguerre density reaches its turning point, d*x ~ 4n,
    # and eta^(2l) or the squared components leave binary64 at large n:
    # every case agrees to 1e-10 or raises, a wrong value fails
    wrong = []
    for n in (30, 60, 100, 150):
        for l in sorted({0, n // 2, n - 1}):
            state = NrState(1.0, n, l)
            for p in (-2, -1, 1, 2, 4):
                want = expect_r_power_nr(state, p).value
                if not _right_or_refuses(brute_expect_nr, state, p, want):
                    wrong.append((state, p))
    explicit = {-2: "rm2", -1: "rm1", 1: "r1", 2: "r2"}
    for n_r in (30, 60, 100, 150):
        for kappa in (-1, 2, -5):
            for z in (1.0, 92.0):
                state = RelState(z, n_r, kappa)
                for p in (-2, -1, 1, 2, 4):
                    if p in explicit:
                        want = expect_special_rel(state, explicit[p]).value
                    else:
                        want = expect_r_power_rel(state, p).value
                    if not _right_or_refuses(brute_expect_rel, state, p, want):
                        wrong.append((state, p))
    assert not wrong, wrong


def test_oracle_work_per_integral(monkeypatch):
    # deterministic work guard: the Z = 1 half of the criterion-01 grid
    # and the Z = 92 part of the criterion-03 grid, mean evaluations per
    # integral (about 1300 with one panel at a time on the earlier maps)
    counts = []
    quad = oracle.quad_semi_infinite

    def counting(*args, **kwargs):
        result = quad(*args, **kwargs)
        counts.append(result.evaluations)
        return result

    monkeypatch.setattr(oracle, "quad_semi_infinite", counting)
    oracle._nr_moment.cache_clear()
    oracle._rel_moment.cache_clear()
    for n in range(1, 11):
        for l in range(n):
            for p in range(-2 * l - 2, 7):
                brute_expect_nr(NrState(1.0, n, l), p)
    for kappa in (-1, 1, -2, 2, -3, 3):
        for n_r in range(0 if kappa < 0 else 1, 7):
            state = RelState(92, n_r, kappa)
            powers = ([-3] if 2.0 * state.nu - 2.0 > 0.0 else []) + list(range(-2, 5))
            for p in powers:
                brute_expect_rel(state, p)
    assert len(counts) == 825 + 299  # p = 0 is shared with the normalizer
    assert sum(counts) / len(counts) <= 700, sum(counts) / len(counts)


def test_brute_expect_rel_normalization():
    for state in (RelState(1.0, 0, -1), RelState(92.0, 2, 1)):
        assert brute_expect_rel(state, 0) == pytest.approx(1.0, rel=1e-11)


def test_brute_screening_matches_closed_form_ground_state():
    # V = (Z-1)/r + (1/r + Z) e^(-2Zr) for the 1s electron cloud
    for z in (1.0, 2.0):
        state = NrState(z, 1, 0)

        def density(r, z=z):
            return 4.0 * z**3 * np.exp(-2.0 * z * r)

        for r in (0.1, 1.0, 5.0, 20.0):
            got = brute_screening(density, z, r, 0.0, 2.0 * z)
            want = screening_nr(state, r)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_screening_angular_weights_are_the_clebsch_gordan_pair():
    # the mean of P_L over |Y_lm|^2 is (l m L 0|l m)(l 0 L 0|l 0)
    for l in range(6):
        for m in range(-l, l + 1):
            weights = oracle._angular_weights(l, m, 0.0)
            for big_l, got in zip(range(0, 2 * l + 1, 2), weights):
                want = clebsch_gordan(l, m, big_l, 0, l, m) * clebsch_gordan(l, 0, big_l, 0, l, 0)
                assert abs(got - want) <= 1e-14, (l, m, big_l)
    # and the cached pairs screening_nr sums, keyed on |m|, for l <= 12;
    # an L the helper omits must carry no weight
    for l in range(13):
        for m in range(-l, l + 1):
            weights = oracle._angular_weights(l, m, 0.0)
            kept = dict(hydrogen_nr._multipole_weights(l, abs(m)))
            for big_l, want in zip(range(0, 2 * l + 1, 2), weights):
                if big_l in kept:
                    assert abs(kept[big_l] - want) <= 1e-14, (l, m, big_l)
                else:
                    assert abs(want) <= 1e-15, (l, m, big_l)
    # and the exact Racah values up to l = 100 at every |m| (numpy's
    # power-basis derivative and Gauss weights were off by up to 0.56);
    # every sixteenth even L, and the last
    for l in (40, 100):
        evens = list(range(0, 2 * l + 1, 2))
        sampled = sorted(set(evens[::16]) | {2 * l})
        pair = {big_l: clebsch_gordan_exact(l, 0, big_l, 0, l, 0) for big_l in sampled}
        for m in range(l + 1):
            weights = oracle._angular_weights(l, m, 0.0)
            for big_l in sampled:
                sign, square = clebsch_gordan_exact(l, m, big_l, 0, l, m)
                want = sign * pair[big_l][0] * math.sqrt(square * pair[big_l][1])
                assert abs(weights[big_l // 2] - want) <= 1e-14, (l, m, big_l)


def test_brute_screening_nr_right_at_large_l_and_m():
    # (n, l, m) = (101, 100, 50): the oracle's old angular weights put
    # rel_diff at 0.015 and 1.07 here
    state = NrState(1.0, 101, 100, 50)
    for r in (3000.0, 12000.0):
        want = screening_nr(state, r, 0.4)
        got = brute_screening_nr(state, r, 0.4)
        assert abs(got - want) <= 1e-10 * abs(want), r


def test_brute_screening_nr_right_or_refuses_over_the_whole_radial_range():
    # every state with n <= 6 and m >= 0 at Z in {1, 3.7, 92}, from
    # r = 1e-8 n^2/Z to 1e8 n^2/Z, and (101, 100, 50) around its peak:
    # within 1e-12 of max(|V|, Z/r) or QuadratureError, never non-finite.
    # Gauss-Legendre interiors on (0, r) lost the whole electron of
    # (1, 2, 1) for r >= 4e6 and returned Z/r
    cases = [(NrState(z, n, l, m), 10.0**e * n * n / z)
             for z in (1.0, 3.7, 92.0) for n in range(1, 7) for l in range(n)
             for m in range(l + 1) for e in range(-8, 9)]
    cases += [(NrState(1.0, 101, 100, 50), f * 101**2) for f in (0.3, 1.0, 3.0)]
    wrong, answered = [], 0
    for state, r in cases:
        want = screening_nr(state, r, 0.7)
        try:
            got = brute_screening_nr(state, r, 0.7)
        except QuadratureError:
            continue
        answered += 1
        if not abs(got - want) <= 1e-12 * max(abs(want), state.Z / r):
            wrong.append((state, r, got, want))
    assert not wrong, wrong[:5]
    assert answered >= 0.99 * len(cases), (answered, len(cases))


def test_screening_oracles_refuse_what_production_refuses():
    # theta = nan returned nan, r = inf ended in a QuadratureError after
    # a numpy warning, and a subnormal r returned inf
    def density(s):
        return 4.0 * np.exp(-2.0 * s)

    state, dirac = NrState(1.0, 2, 1, 1), RelState(1.0, 0, -1)
    for r in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            brute_screening(density, 1.0, r, 0.0, 2.0)
    for routine in (screening_nr, brute_screening_nr):
        with pytest.raises(ValueError, match="theta"):
            routine(state, 1.0, math.nan)
    for r in (1e-310, 5e-324):
        for call in (lambda: screening_nr(state, r), lambda: brute_screening_nr(state, r),
                     lambda: screening_rel_1s(1.0, r),
                     lambda: brute_screening_rel(dirac, r),
                     lambda: brute_screening(density, 1.0, r, 0.0, 2.0)):
            with pytest.raises(ArithmeticError):
                call()


def test_brute_screening_nr_ground_state_and_refusals():
    # V = (Z-1)/r + (1/r + Z) e^(-2Zr), whatever theta
    for r in (0.1, 1.0, 5.0):
        want = screening_nr(NrState(2.0, 1, 0), r)
        got = brute_screening_nr(NrState(2.0, 1, 0), r, theta=1.3)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
    with pytest.raises(ValueError):
        brute_screening_nr(NrState(1.0, 2, 1), 0.0)
    with pytest.raises(ValueError):
        brute_screening_nr(NrState(1.0, 2, 1, 1), -1.0)


def test_brute_screening_rel_matches_the_1s_closed_form():
    # |diff| <= 1e-9 max(|V|, electron term), from r << 1/Z to r >> 1/Z:
    # the fixed radii, then r = 1e-8/Z to 1e8/Z
    for z in (1.0, 20.0, 60.0, 80.0, 92.0, 120.0, 136.0):
        radii = (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 1.0, 2.0)
        for r in radii + tuple(10.0**e / z for e in range(-8, 9)):
            want = screening_rel_1s(z, r)
            got = brute_screening_rel(RelState(z, 0, -1), r)
            assert abs(got - want) <= 1e-9 * max(abs(want), abs(z / r - want)), (z, r)


def test_brute_screening_rel_matches_the_production_density():
    # excited j = 1/2 states have no closed form: the oracle's own density
    # against brute_screening over radial_rel's normalized F^2 + G^2
    for n_r, kappa in ((1, -1), (1, 1), (3, -1), (3, 1)):
        state = RelState(60.0, n_r, kappa)
        alpha = state.alpha_fs

        def density(s, state=state):
            pair = radial_rel(state, s)
            return pair.F**2 + pair.G**2

        for r in (1e-3, 0.05, 0.5):
            want = brute_screening(density, state.Z, r / alpha, 2.0 * state.nu - 2.0,
                                   2.0 * state.a, 1e-12, 2 * n_r) / alpha
            got = brute_screening_rel(state, r)
            electron = state.Z / r - want
            assert abs(got - want) <= 1e-9 * max(abs(want), abs(electron)), (n_r, kappa, r)


def test_brute_screening_rel_refusals():
    for kappa in (-2, 2):  # j >= 3/2: the density is not spherical
        with pytest.raises(ValueError, match="spherical"):
            brute_screening_rel(RelState(1.0, 1, kappa), 1.0)
    with pytest.raises(ValueError):
        brute_screening_rel(RelState(1.0, 0, -1), 0.0)


def test_sphere_quad_polynomial_exactness():
    assert sphere_quad(lambda t, p: 1.0 + 0j, 0) == pytest.approx(4.0 * math.pi)
    got = sphere_quad(lambda t, p: math.cos(t) ** 2 + 0j, 2)
    assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    got = sphere_quad(lambda t, p: math.sin(t) ** 2 * complex(math.cos(2.0 * p), math.sin(2.0 * p)), 4)
    assert abs(got) <= 1e-14


def test_oracle_imports_no_closed_form_modules():
    # the oracle must stay independent of everything it validates
    source = pathlib.Path(oracle.__file__).read_text()
    for forbidden in ("hydrogen_nr", "hydrogen_rel", "laguerre_integrals", "cli"):
        assert forbidden not in source, forbidden
