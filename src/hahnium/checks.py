"""Self-checks of the closed forms, one function per check.

Each check takes its grid as arguments and returns a record (a list of
records when it gates several properties at once):

    {"check": name, "residual": worst residual, "tol": tol,
     "ok": whether the check passed, "cases": comparisons made}

Each tolerance is a constant of its check, carried in the record's tol;
only the grids vary.  Oracle checks also take the quadrature's rel_tol.
Exact checks count the cases that fail, with tol 0.  Rate checks need
every error ratio under mu halving strictly inside a fixed window, named
in the record's check; their residual is the worst distance outside it.
`hahnium verify` runs the checks on its small and full grids, the
acceptance tests on the release grids.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .angular import Spinor2, clebsch_gordan_exact, spinor_harmonic
from .hydrogen_nr import NrState, expect_r_power_nr, expect_recurrence_nr, screening_nr
from .hydrogen_rel import (
    _SPECIAL_POWERS,
    ALPHA_FS,
    RelState,
    _converges,
    _exact_params,
    expect_r_power_rel,
    expect_special_rel,
    screening_rel_1s,
)
from .laguerre_integrals import JSpec, j_integral_exact, linearization_coeffs
from .oracle import brute_expect_nr, brute_expect_rel, sphere_quad
from .orthopoly import LaguerreSpec, laguerre


def _record(name: str, residuals: Sequence[float], tol: float) -> dict:
    """Worst residual against tol; a NaN residual never passes."""
    nan = any(math.isnan(r) for r in residuals)
    residual = math.nan if nan else float(max(residuals, default=0.0))
    return {"check": name, "residual": residual, "tol": tol,
            "ok": residual <= tol, "cases": len(residuals)}


def _exact_record(name: str, matches: Sequence[bool]) -> dict:
    """Residual = the number of cases that do not hold, tol 0."""
    return {"check": name, "residual": float(matches.count(False)), "tol": 0.0,
            "ok": all(matches), "cases": len(matches)}


def _rate_record(name: str, ratios: Sequence[float], window: tuple) -> dict:
    """Every ratio strictly inside window; residual = worst distance outside."""
    lo, hi = window
    ratios = [float(r) for r in ratios]
    seen = f"[{min(ratios, default=math.nan):.6g},{max(ratios, default=math.nan):.6g}]"
    distances = [max(lo - r, r - hi, 0.0) for r in ratios]
    record = _record(f"{name} in ({lo:g},{hi:g}), seen {seen}", distances, 0.0)
    record["ok"] = all(lo < r < hi for r in ratios)
    return record


def _halving_ratios(errors: Sequence[float]) -> list:
    return [a / b for a, b in zip(errors, errors[1:])]


def rel_states(charges: Iterable, kappas: Iterable[int], n_r_max: int) -> list:
    """Every bound Dirac state with Z in charges, kappa in kappas and
    n_r <= n_r_max: n_r = 0 needs kappa < 0, and mu < |kappa|."""
    return [
        RelState(Z, n_r, kappa)
        for Z in charges
        for kappa in kappas
        if Z * ALPHA_FS < abs(kappa)
        for n_r in range(0 if kappa < 0 else 1, n_r_max + 1)
    ]


def nr_oracle(charges: Iterable, n_max: int, p_max: int, rel_tol: float) -> dict:
    """<r^p> closed form against quadrature, relative: every state with
    n <= n_max and every p from -2l-2 to p_max."""
    deviations = []
    for Z in charges:
        for n in range(1, n_max + 1):
            for l in range(n):
                state = NrState(Z, n, l)
                for p in range(-2 * l - 2, p_max + 1):
                    got = expect_r_power_nr(state, p).value
                    want = brute_expect_nr(state, p, rel_tol=rel_tol)
                    deviations.append(abs(got - want) / abs(want))
    name = f"moment closed form vs quadrature (n<={n_max}, p<={p_max})"
    return _record(name, deviations, 1e-9)


def _textbook_moments_nr(Z, n: int, l: int) -> dict:
    """<r>, <r^2>, <1/r>, <1/r^2> and, for l >= 1, <1/r^3>, <1/r^4>."""
    half = Fraction(1, 2)
    known = {
        1: Fraction(3 * n * n - l * (l + 1)) / (2 * Z),
        2: 2 * (Fraction(n, 2) / Z) ** 2 * (5 * n * n + 1 - 3 * l * (l + 1)),
        -1: Z / Fraction(n * n),
        -2: Z * Z / (n**3 * (l + half)),
    }
    if l >= 1:
        known[-3] = Z**3 / (n**3 * (l + 1) * (l + half) * l)
        known[-4] = Z**4 * (3 * n * n - l * (l + 1)) / (
            2 * n**5 * (l + 3 * half) * (l + 1) * (l + half) * l * (l - half)
        )
    return known


def nr_exact(charges: Iterable, n_max: int) -> dict:
    """Textbook moments equal the closed form exactly: rational Z, n <= n_max."""
    matches = [
        expect_r_power_nr(NrState(Z, n, l), p).value == want
        for Z in charges
        for n in range(1, n_max + 1)
        for l in range(n)
        for p, want in _textbook_moments_nr(Z, n, l).items()
    ]
    return _exact_record(f"textbook moments, exact (n<={n_max})", matches)


def nr_recurrence(charges: Iterable, n_max: int, k_max: int) -> dict:
    """The three-term moment recurrence equals the closed form exactly for
    <r^k>, k = -1 .. k_max: rational Z, every state with n <= n_max."""
    matches = []
    for Z in charges:
        for n in range(1, n_max + 1):
            for l in range(n):
                state = NrState(Z, n, l)
                matches += [
                    got.value == expect_r_power_nr(state, got.length_power).value
                    for got in expect_recurrence_nr(state, k_max)
                ]
    name = f"moment recurrence vs closed form, exact (n<={n_max}, k<={k_max})"
    return _exact_record(name, matches)


def rel_oracle(states: Sequence[RelState], p_min: int, p_max: int, rel_tol: float) -> list:
    """Dirac <r^p> closed form against quadrature, relative, for every
    convergent p in [p_min, p_max]: worst unflagged deviation, worst one
    where the cancellation flag is raised, and the number of flags."""
    plain, flagged, unflagged = [], [], []
    for state in states:
        for p in range(p_min, p_max + 1):
            if not _converges(state.nu, p):
                continue
            got = expect_r_power_rel(state, p)
            want = brute_expect_rel(state, p, rel_tol=rel_tol)
            deviation = abs(got.value - want) / abs(want)
            (flagged if got.cancellation_flag else plain).append(deviation)
            unflagged.append(not got.cancellation_flag)
    grid = f"{len(states)} states, p in [{p_min},{p_max}]"
    return [
        _record(f"moment closed form vs quadrature ({grid})", plain, 1e-9),
        _record(f"flagged moments vs quadrature ({grid})", flagged, 1e-7),
        _exact_record(f"cancellation flags raised ({grid})", unflagged),
    ]


def rel_special(states: Sequence[RelState]) -> list:
    """The six explicit Dirac moments against the general closed form
    (relative), and <r^0> = 1 (absolute)."""
    special, norm = [], []
    for state in states:
        norm.append(abs(expect_r_power_rel(state, 0).value - 1.0))
        for case, p in _SPECIAL_POWERS.items():
            if _converges(state.nu, p):
                want = expect_r_power_rel(state, p).value
                got = expect_special_rel(state, case).value
                special.append(abs(got - want) / abs(want))
    return [
        _record("explicit cases vs general closed form", special, 1e-11),
        _record("normalization <1> = 1", norm, 1e-12),
    ]


def linearization(n_max: int, alphas: Iterable, points: Sequence) -> dict:
    """L_n^alpha L_m^alpha rebuilt exactly from its linearization
    coefficients at each point, m <= n <= n_max, and the sign pattern
    (-1)^(n+m+p) c_p >= 0."""
    matches = []
    for alpha in alphas:
        for n in range(n_max + 1):
            for m in range(n + 1):
                coeffs = linearization_coeffs(n, m, alpha)
                degrees = range(coeffs.p_min, coeffs.p_max + 1)
                for x in points:
                    rebuilt = sum(
                        coeffs.coefficient(p) * laguerre(LaguerreSpec(p, alpha), x)
                        for p in degrees
                    )
                    product = laguerre(LaguerreSpec(n, alpha), x) * laguerre(
                        LaguerreSpec(m, alpha), x
                    )
                    matches.append(rebuilt == product)
                matches.extend(
                    (-1) ** (n + m + p) * coeffs.coefficient(p) >= 0 for p in degrees
                )
    return _exact_record(f"linearization rebuild and signs (n,m<={n_max})", matches)


def j_orthogonality(n_max: int) -> dict:
    """J(n, m; s=0, alpha=beta=1) = (n+1) delta_nm exactly, m <= n <= n_max."""
    matches = [
        j_integral_exact(JSpec(n, m, 0, 1, 1)) == (n + 1 if n == m else 0)
        for n in range(n_max + 1)
        for m in range(n + 1)
    ]
    return _exact_record(f"Laguerre orthogonality (n,m<={n_max})", matches)


def cg_square_sums(tj_max: int) -> dict:
    """Squared Clebsch-Gordan coefficients summed over m1 equal 1 exactly:
    2j1 <= tj_max, integer j2 < tj_max/2, every coupled (j, m)."""
    matches = []
    for tj1 in range(1, tj_max + 1):
        for tj2 in range(0, tj_max, 2):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    total = sum(
                        clebsch_gordan_exact(
                            Fraction(tj1, 2), Fraction(tm1, 2),
                            Fraction(tj2, 2), Fraction(tm - tm1, 2),
                            Fraction(tj, 2), Fraction(tm, 2),
                        )[1]
                        for tm1 in range(-tj1, tj1 + 1, 2)
                        if abs(tm - tm1) <= tj2
                    )
                    matches.append(total == 1)
    return _exact_record(f"coupling-coefficient orthogonality (2j<={tj_max})", matches)


def spinor_normalization(tjs: Iterable[int]) -> dict:
    """Each spinor harmonic with 2j in tjs has norm 1 on the sphere."""
    residuals = []
    for tj in tjs:
        for branch in (1, -1):
            for tm in range(-tj, tj + 1, 2):
                j, m = Fraction(tj, 2), Fraction(tm, 2)

                def density(theta, phi, j=j, m=m, branch=branch):
                    return spinor_harmonic(j, m, branch, theta, phi).norm_squared()

                residuals.append(abs(sphere_quad(density, 2 * tj + 2).real - 1.0))
    return _record("spinor harmonic normalization", residuals, 1e-12)


def _apply_sigma_n(spinor: Spinor2, theta: float, phi: float) -> Spinor2:
    """(sigma . n) applied pointwise; sends branch to -branch with a sign."""
    ct, st = math.cos(theta), math.sin(theta)
    phase_down = complex(math.cos(phi), -math.sin(phi))
    return Spinor2(
        ct * spinor.up + st * phase_down * spinor.down,
        st * phase_down.conjugate() * spinor.up - ct * spinor.down,
    )


def sigma_flip(tjs: Iterable[int], angles: Sequence[tuple]) -> dict:
    """(sigma . n) maps each spinor harmonic with 2j in tjs to minus its
    branch partner, pointwise at each (theta, phi) in angles."""
    residuals = []
    for tj in tjs:
        for tm in range(-tj, tj + 1, 2):
            j, m = Fraction(tj, 2), Fraction(tm, 2)
            for theta, phi in angles:
                for branch in (1, -1):
                    spinor = spinor_harmonic(j, m, branch, theta, phi)
                    got = _apply_sigma_n(spinor, theta, phi)
                    want = spinor_harmonic(j, m, -branch, theta, phi)
                    flip = max(abs(got.up + want.up), abs(got.down + want.down))
                    residuals.append(flip)
    return _record("sigma.n spinor flip", residuals, 1e-12)


def screening_ground_state(charges: Iterable[float], radii: Sequence[float]) -> dict:
    """General screening closed form against the explicit ground-state
    one, (Z-1)/r + (1/r + Z) e^{-2Zr}, absolute."""
    residuals = [
        abs(screening_nr(NrState(Z, 1, 0), r)
            - ((Z - 1.0) / r + (1.0 / r + Z) * math.exp(-2.0 * Z * r)))
        for Z in charges
        for r in radii
    ]
    return _record("ground-state screening vs explicit form", residuals, 1e-10)


def screening_rel_rate(mus: Sequence[float], radii: Sequence[float]) -> dict:
    """The relativistic 1S potential at Z = 1 meets the nonrelativistic
    one at O(mu^2): the worst deviation over radii shrinks ~4x per mu
    halving."""
    ground = NrState(1.0, 1, 0)
    deviations = [
        max(abs(screening_rel_1s(1.0, r, alpha_fs=mu) - screening_nr(ground, r))
            for r in radii)
        for mu in mus
    ]
    ratios = _halving_ratios(deviations)
    return _rate_record("relativistic -> nonrel screening rate", ratios, (3.0, 5.0))


def coulomb_limits(charges: Iterable[float], r_small: float, r_big: float) -> dict:
    """Both ground-state potentials approach the bare charge, r V -> Z,
    at r_small and the net charge, r V -> Z - 1, at r_big."""
    residuals = []
    for Z in charges:
        for potential in (lambda r: screening_nr(NrState(Z, 1, 0), r),
                          lambda r: screening_rel_1s(Z, r)):
            residuals.append(abs(r_small * potential(r_small) - Z))
            residuals.append(abs(r_big * potential(r_big) - (Z - 1.0)))
    name = f"Coulomb limits r*V -> Z at r={r_small:g}, Z-1 at r={r_big:g}"
    return _record(name, residuals, 1e-6)


def sommerfeld_rate(n_rs: Iterable[int], kappa: int, mus: Sequence) -> dict:
    """The remainder of the fine-structure series of the Z = 1 level,
    1 - mu^2/2n^2 - (n/|kappa| - 3/4) mu^4/2n^4 with n = n_r + |kappa|,
    shrinks ~64x per mu halving (mu^6).

    The remainder, around 1e-18 for mu ~ 1e-3, sits far below binary64
    resolution near epsilon = 1, so epsilon is built in rational
    arithmetic (square roots rounded to 40 decimals) before subtracting.
    """
    ratios = []
    for n_r in n_rs:
        n = n_r + abs(kappa)
        remainders = []
        for mu in map(Fraction, mus):
            _, eps, _ = _exact_params(n_r, kappa, mu)
            series = (1 - mu**2 / (2 * n**2)
                      - (Fraction(n, abs(kappa)) - Fraction(3, 4)) * mu**4 / (2 * n**4))
            remainders.append(abs(float(eps - series)))
        ratios += _halving_ratios(remainders)
    return _rate_record(f"level series mu^6 rate kappa={kappa}", ratios, (55.0, 73.0))


def moment_nr_limit(pairs: Iterable[tuple], mus: Sequence[float]) -> dict:
    """|<r^p>_rel - <r^p>_nr| in Bohr units at Z = 1 shrinks ~4x per mu
    halving (mu^2) for every (n_r, kappa) in pairs and p in {-1, 1, 2}."""
    ratios = []
    for n_r, kappa in pairs:
        nr_state = NrState(1.0, n_r + abs(kappa), kappa if kappa > 0 else -kappa - 1)
        for p in (-1, 1, 2):
            want = expect_r_power_nr(nr_state, p).value
            errors = [
                abs(expect_r_power_rel(RelState(1.0, n_r, kappa, alpha_fs=mu), p).value
                    * mu**p - want)
                for mu in mus
            ]
            ratios += _halving_ratios(errors)
    return _rate_record("moment mu^2 rate", ratios, (3.0, 5.0))
