"""Top-level acceptance gate: one test per release criterion.

Each test pins its tolerance and, where stated, its runtime budget; a
check of `hahnium.checks` carries its tolerance in its record's tol (a
rate check its window in the record's name), which the test asserts.
Everything here is end-to-end: closed forms against independent
quadrature oracles, exact rational identities at zero residual, limit
scalings with their expected rates, and byte-frozen CLI behavior.

The checks that `hahnium verify` also runs live in `hahnium.checks`;
these tests call them on the release grids, which are larger than
verify's small and full grids.  Checks that only a criterion runs stay
here.
"""

import itertools
import math
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

from hahnium import checks
from hahnium.angular import HalfInt, clebsch_gordan, spherical_harmonic, spinor_harmonic
from hahnium.hydrogen_nr import NrState, screening_nr
from hahnium.laguerre_integrals import (
    JSpec,
    j_diag_negative_exact,
    j_diag_positive_exact,
    j_integral_exact,
    linearization_closed_form,
    linearization_coeffs,
)
from hahnium.oracle import brute_screening_nr, sphere_quad
from hahnium.specfun import pochhammer

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _rel_grid():
    """The relativistic acceptance grid: 117 bound states."""
    states = checks.rel_states((1, 40, 92), (-1, 1, -2, 2, -3, 3), 6)
    assert len(states) == 117
    return states


def _assert_ok(*results):
    for result in results:
        assert result["ok"], result


def test_criterion_01_nr_closed_forms_match_quadrature():
    # every state with n <= 10, every admissible power up to r^6,
    # against the brute-force oracle; relative 1e-9, under 30 s
    start = time.perf_counter()
    result = checks.nr_oracle((1.0, 10.0), 10, 6, 1e-12)
    elapsed = time.perf_counter() - start
    assert result["cases"] == 1650
    assert result["tol"] == 1e-9
    _assert_ok(result)
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_02_known_moments_exact_in_rational_mode():
    # <r>, <r^2>, <1/r>, <1/r^2>, <1/r^3>, <1/r^4> against their
    # textbook closed forms, and <r^k>, k = -1..8, from the three-term
    # moment recurrence against the closed form; exact Fraction
    # equality, under 5 s
    start = time.perf_counter()
    charges = (Fraction(1), Fraction(3))
    result = checks.nr_exact(charges, 8)
    assert result["cases"] == 400
    assert result["residual"] == 0.0, result
    recurrence = checks.nr_recurrence(charges, 8, 8)
    assert recurrence["cases"] == 720
    assert recurrence["residual"] == 0.0, recurrence
    assert time.perf_counter() - start < 5.0


def test_criterion_03_rel_closed_forms_match_quadrature():
    # n_r <= 6, kappa in {+-1, +-2, +-3}, Z in {1, 40, 92}, p in [-2, 4]
    # plus -3 where convergent; relative 1e-9 (1e-7 where the
    # cancellation flag is raised, count reported), under 2 min
    start = time.perf_counter()
    plain, flagged, flags = checks.rel_oracle(_rel_grid(), -3, 4, 1e-12)
    elapsed = time.perf_counter() - start
    print(
        f"relativistic sweep: {flags['cases']} cases, "
        f"{flags['residual']:.0f} cancellation flags"
    )
    assert flags["cases"] == 897
    assert (plain["tol"], flagged["tol"]) == (1e-9, 1e-7)
    _assert_ok(plain, flagged)
    assert flags["residual"] == 0.0, f"{flags['residual']:.0f} cancellation flags raised"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_04_special_cases_equal_general_form():
    # the six explicit closed forms against the general Hahn one on the
    # full relativistic grid, relative 1e-11; <r^0> = 1 to 1e-12 everywhere
    special, norm = checks.rel_special(_rel_grid())
    assert (special["tol"], norm["tol"]) == (1e-11, 1e-12)
    _assert_ok(special, norm)
    assert special["cases"] > 600


def test_criterion_05_energy_series_truncation_scales_mu_sixth():
    # remainder of the mu^4 fine-structure series under mu halving:
    # ratio strictly inside (55, 73) (64 would be exact mu^6); computed
    # in rational arithmetic because the remainder sits below binary64
    # resolution near epsilon = 1
    result = checks.sommerfeld_rate((0, 1, 2), -1, [Fraction(m, 1000) for m in (4, 2, 1)])
    assert result["cases"] == 6
    assert " in (55,73), " in result["check"]
    _assert_ok(result)


def test_criterion_06_moments_approach_nr_limit_at_mu_squared():
    # |<r^p>_rel - <r^p>_nr| must shrink ~4x per mu halving for both
    # kappa branches of every n <= 3 state
    pairs = [(0, -1), (1, -1), (2, -1), (1, 1), (2, 1), (0, -2), (1, -2), (1, 2), (0, -3)]
    result = checks.moment_nr_limit(pairs, (0.04, 0.02, 0.01))
    assert result["cases"] == 54
    assert " in (3,5), " in result["check"]
    _assert_ok(result)


def test_criterion_07_master_integral_identities_exact():
    # the whole identity web in rational arithmetic, zero residual,
    # n, m <= 5, under 20 s
    start = time.perf_counter()

    # both evaluation routes agree wherever both are regular (s >= n)
    for n in range(0, 6):
        for m in range(0, n + 1):
            for d in (0, 2):
                for beta in (0, 1):
                    for s in (n, n + 2):
                        spec = JSpec(n, m, s, beta + d, beta)
                        direct = j_integral_exact(spec, route="direct")
                        transformed = j_integral_exact(spec, route="transformed")
                        assert direct == transformed, spec

    # first diagonal moment and the first off-diagonal inverse moment
    for n in range(0, 6):
        for alpha in (0, 1, 4):
            got = j_integral_exact(JSpec(n, n, 1, alpha, alpha))
            want = Fraction(
                (alpha + 2 * n + 1) * math.factorial(alpha + n), math.factorial(n)
            )
            assert got == want, (n, alpha)
    for n in range(1, 6):
        for alpha in (2, 3, 6):
            got = j_integral_exact(JSpec(n, n - 1, 2, alpha - 2, alpha))
            want = Fraction(-2 * math.factorial(alpha + n - 1), math.factorial(n - 1))
            assert got == want, (n, alpha)

    # diagonal families against the master integral
    for n in range(0, 6):
        for alpha in (0, 2, 5):
            for k in range(0, 5):
                assert j_diag_positive_exact(n, alpha, k) == j_integral_exact(
                    JSpec(n, n, k, alpha, alpha)
                )
        for alpha in (3, 6):
            for k in range(0, min(5, alpha)):
                assert j_diag_negative_exact(n, alpha, k) == j_integral_exact(
                    JSpec(n, n, -k - 1, alpha, alpha)
                )

    # linearization: single sum equals the parity-split closed forms,
    # the leading coefficient is the pure gamma ratio, the expansion
    # rebuilds the product, and the sign pattern holds
    alphas = (0, 1, Fraction(1, 2))
    for alpha in alphas:
        for n in range(0, 6):
            for m in range(0, n + 1):
                triple = linearization_coeffs(n, m, alpha)
                for p in range(0, n + m + 3):
                    assert linearization_closed_form(n, m, p, alpha) == (
                        triple.coefficient(p)
                    ), (n, m, p, alpha)
                lead = pochhammer(Fraction(alpha) + 1, n) / (
                    math.factorial(m) * pochhammer(Fraction(alpha) + 1, n - m)
                )
                assert triple.coefficients[0] == lead, (n, m, alpha)
    xs = (Fraction(0), Fraction(1, 2), Fraction(3))
    result = checks.linearization(5, alphas, xs)
    assert result["residual"] == 0.0, result

    assert time.perf_counter() - start < 20.0


def test_criterion_08_angular_suite():
    thetas = (0.3, 1.1, 2.2)
    phis = (0.0, 0.9, 4.0)

    # Clebsch-Gordan orthogonality: the sum over m1, m2 of paired
    # coefficients is a Kronecker delta, 1e-12
    def half_range(tj):
        return [HalfInt(tm) for tm in range(-tj, tj + 1, 2)]

    for tj1 in (1, 2, 3, 4):
        for tj2 in (1, 2, 3, 4):
            couples = [
                (HalfInt(tj), m)
                for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                for m in half_range(tj)
            ]
            for ja, ma in couples:
                for jb, mb in couples:
                    total = 0.0
                    for m1 in half_range(tj1):
                        for m2 in half_range(tj2):
                            total += clebsch_gordan(
                                HalfInt(tj1), m1, HalfInt(tj2), m2, ja, ma
                            ) * clebsch_gordan(HalfInt(tj1), m1, HalfInt(tj2), m2, jb, mb)
                    want = 1.0 if (ja, ma) == (jb, mb) else 0.0
                    assert abs(total - want) <= 1e-12

    # aligned stretched coefficient closed form, relative 1e-12 (1e-14
    # absolute near zero):
    # C^{l0}_{l0,2s,0} = (-1)^s (l+s)!(2s)!/((l-s)!(s!)^2)
    #                    sqrt((2l+1)(2l-2s)!/(2l+2s+1)!)
    for l in range(0, 5):
        for s in range(0, l + 1):
            got = clebsch_gordan(l, 0, 2 * s, 0, l, 0)
            want = (
                (-1) ** s
                * math.factorial(l + s)
                * math.factorial(2 * s)
                / (math.factorial(l - s) * math.factorial(s) ** 2)
                * math.sqrt(
                    (2 * l + 1)
                    * math.factorial(2 * l - 2 * s)
                    / math.factorial(2 * l + 2 * s + 1)
                )
            )
            assert abs(got - want) <= max(1e-12 * abs(want), 1e-14), (l, s)

    # triple products on the sphere against the coefficient form, 1e-9:
    # integral of Y*_s0 Y*_lm Y_lm = sqrt((2s+1)/4pi) C^{lm}_{lm,s0} C^{l0}_{l0,s0}
    for l in range(0, 4):
        for m in range(-l, l + 1):
            for s in range(0, 2 * l + 3):
                def f(theta, phi, l=l, m=m, s=s):
                    y_s = spherical_harmonic(s, 0, theta, phi)
                    y_lm = spherical_harmonic(l, m, theta, phi)
                    return y_s.conjugate() * y_lm.conjugate() * y_lm

                got = sphere_quad(f, 2 * l + s + 1)
                want = math.sqrt((2 * s + 1) / (4.0 * math.pi)) * clebsch_gordan(
                    l, m, s, 0, l, m
                ) * clebsch_gordan(l, 0, s, 0, l, 0)
                assert abs(got - want) <= 1e-9, (l, m, s)

    # spinor harmonics: orthonormal, 1e-12, and (sigma . n) sends each
    # to minus its branch partner, pointwise 1e-12
    states = [
        (HalfInt(tj), HalfInt(tm), branch)
        for tj in (1, 3, 5)
        for branch in (-1, 1)
        for tm in range(-tj, tj + 1, 2)
    ]
    for ja, ma, ba in states:
        for jb, mb, bb in states:
            def f(theta, phi):
                sa = spinor_harmonic(ja, ma, ba, theta, phi)
                sb = spinor_harmonic(jb, mb, bb, theta, phi)
                return sa.up.conjugate() * sb.up + sa.down.conjugate() * sb.down

            got = sphere_quad(f, 8)
            want = 1.0 if (ja, ma, ba) == (jb, mb, bb) else 0.0
            assert abs(got - want) <= 1e-12, (ja, ma, ba, jb, mb, bb)
    flip = checks.sigma_flip((1, 3, 5), list(itertools.product(thetas, phis)))
    assert flip["cases"] == 216
    assert flip["tol"] == 1e-12
    _assert_ok(flip)


def test_criterion_09_screening_forms_and_limits():
    # general closed form vs the explicit ground-state one, absolute 1e-10
    ground = checks.screening_ground_state((1.0, 2.0), (0.1, 0.5, 2.0, 10.0))
    assert ground["tol"] == 1e-10

    # relativistic 1S potential collapses onto the nonrelativistic one
    # at O(mu^2): deviation ratio ~4 per mu halving
    rate = checks.screening_rel_rate((0.04, 0.02, 0.01), (0.2, 1.0, 3.0))
    assert " in (3,5), " in rate["check"]

    # Coulomb limits: bare charge at the origin, net charge far out
    limits = checks.coulomb_limits((1.0,), 1e-8, 50.0)
    assert limits["tol"] == 1e-6
    _assert_ok(ground, rate, limits)

    # every state with n <= 10, m = 0..l, against quadrature multipole by
    # multipole: |diff| <= 1e-9 max(|V|, electron term), under 60 s
    start = time.perf_counter()
    theta, worst, cases = 0.7, (0.0, None), 0
    for Z in (1.0, 30.0):
        for n in range(1, 11):
            for l in range(n):
                for r in (1e-3, 1.0, n * n / Z, 4.0 * n * n / Z):
                    for m in range(l + 1):
                        state = NrState(Z, n, l, m)
                        want = brute_screening_nr(state, r, theta, rel_tol=1e-13)
                        electron = Z / r - want
                        got = screening_nr(state, r, theta)
                        deviation = abs(got - want) / max(abs(want), abs(electron))
                        worst = max(worst, (deviation, (Z, n, l, m, r)))
                        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 1760
    assert worst[0] <= 1e-9, worst
    assert elapsed < 60.0, f"multipole sweep took {elapsed:.1f}s"


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hahnium.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc.stdout


def test_criterion_10_cli_golden_outputs_and_verify_all():
    # three canonical invocations, each run twice: byte-stable across
    # runs and byte-identical to the frozen files
    invocations = [
        (
            ("energy", "--nr", "-Z", "1", "-n", "1"),
            "energy_nr_z1_n1.json",
        ),
        (
            ("expectation", "--rel", "-Z", "92", "--nr-quantum", "0", "--kappa", "-1",
             "--p-min", "-2", "--p-max", "2"),
            "expectation_rel_z92_1s.jsonl",
        ),
        (
            ("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "0.5,1.0,2.0",
             "--format", "csv"),
            "screening_nr_z1.csv",
        ),
    ]
    for args, golden_name in invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first == second, f"unstable output for {args}"
        assert first == (GOLDEN / golden_name).read_text(), f"golden drift for {args}"

    start = time.perf_counter()
    out = _run_cli("verify", "--suite", "all", "--budget", "small")
    elapsed = time.perf_counter() - start
    assert "FAIL" not in out
    assert elapsed < 60.0, f"verify took {elapsed:.1f}s"
