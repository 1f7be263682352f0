"""Dirac-Coulomb bound states.

Sommerfeld energy levels, two-component radial functions, closed-form
radial moments <r^p> as one bracket of three Hahn polynomials of a
discrete variable, explicit special cases and the screened 1S potential.

Radial quantities use the reduced Compton length hbar/mc as the length
unit (the scale factor beta = mc/hbar is then 1), so xi = 2*a*r stays
dimensionless.  The command-line layer converts to Bohr radii via
a0 = (hbar/mc)/alpha.

Numerical policy: every moment <r^p> is one bracket of three terms whose
factors g1, g2, g3 are Hahn polynomials at negative parameter N (over
Pochhammer products for p <= -3, and in closed form at p = -1 and -2,
where no series is left to sum).  One body, `_bracket`, builds the terms
and their divisor in the field of its arguments: floats give the binary64
route, Fractions the exact one.  The three terms carry alternating
signs and can cancel almost completely for large p; summed with fsum
and the stable epsilon*kappa -+ nu factorizations they leave a relative
error of about 1e-14 times the cancellation ratio max|t_i| / |sum t_i|.
When that ratio exceeds 1e4, or a term or the quotient leaves binary64
range (large p), the same bracket is summed once more in rational
arithmetic, at the exact mu = Z*alpha with nu, epsilon and a from
square roots rounded to 40 decimals, and the result is flagged.
Gated: every moment, flagged or not, is within 1e-12 relative of the
exact route for Z in {1, 40, 92, 130}, kappa in {+-1, +-2, +-5, +-30},
n_r <= 200 and p in [-3, 16].  Nearer the critical charge 1/alpha no
tolerance is promised yet: within 1e-5 of it unflagged values have
been off by up to 3.1e-10.  The ratio peaks at about 3e3 over Z <= 137,
|kappa| <= 6, n_r <= 30, p in [-8, 24]; it reaches 1e5..1e7 at
kappa = 1 when Z is within 1e-3..1e-5 of 1/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hydrogen_nr import Expectation, _check_radius, _exp, _in_range
from .orthopoly import LaguerreSpec, _hahn, laguerre
from .specfun import _pochhammer, inc_gamma_upper

__all__ = [
    "ALPHA_FS",
    "RelState",
    "RadialPair",
    "energy_rel",
    "radial_rel",
    "expect_r_power_rel",
    "expect_special_rel",
    "expect_hahn_form_rel",
    "screening_rel_1s",
]

ALPHA_FS = 7.29735308e-3  # fine-structure constant


@dataclass(frozen=True)
class RelState:
    """Quantum numbers (Z, n_r, kappa) of a Dirac-Coulomb bound state.

    kappa = +(j+1/2) couples l = j+1/2, kappa = -(j+1/2) couples
    l = j-1/2.  Derived parameters: mu = Z*alpha, nu = sqrt(kappa^2-mu^2),
    epsilon = E/mc^2 and a = sqrt(1-epsilon^2).
    """

    Z: float
    n_r: int
    kappa: int
    alpha_fs: float = ALPHA_FS

    def __post_init__(self) -> None:
        if not self.Z > 0:
            raise ValueError("Z must be positive")
        if not 0 < self.alpha_fs < math.inf:
            raise ValueError("alpha_fs must be positive and finite")
        if not isinstance(self.n_r, int) or self.n_r < 0:
            raise ValueError("n_r must be a nonnegative integer")
        if not isinstance(self.kappa, int) or self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        if self.n_r == 0 and self.kappa > 0:
            raise ValueError("the n_r = 0 state exists only for kappa < 0")
        if not self.mu < abs(self.kappa):
            raise ValueError(
                f"mu >= |kappa|: mu = Z*alpha = {self.mu:.9f} must stay below "
                f"|kappa| = {abs(self.kappa)}"
            )

    @property
    def mu(self) -> float:
        return float(self.Z) * self.alpha_fs

    @property
    def nu(self) -> float:
        return self._levels()[1]

    @property
    def epsilon(self) -> float:
        return self._levels()[2]

    @property
    def a(self) -> float:
        return self._levels()[3]

    def _levels(self) -> tuple:
        """(mu, nu, epsilon, a), each evaluated once; a is
        sqrt(1 - epsilon^2) without the cancellation near epsilon = 1."""
        mu = self.mu
        nu = math.sqrt((self.kappa - mu) * (self.kappa + mu))
        n_eff = self.n_r + nu
        hyp = math.hypot(n_eff, mu)
        return mu, nu, n_eff / hyp, mu / hyp


@dataclass(frozen=True)
class RadialPair:
    """Large (F) and small (G) radial components at one radius."""

    F: float
    G: float


def energy_rel(state: RelState) -> float:
    """Level epsilon = E/mc^2 = 1/sqrt(1 + mu^2/(n_r+nu)^2)."""
    return state.epsilon


def _eps_kappa_pm(n: int, kappa: int, eps, nu, a):
    """(eps*kappa + nu, eps*kappa - nu) with the small member rebuilt
    from the eigenvalue identity (eps k - nu)(eps k + nu) = a^2 n (2nu+n),
    which avoids the O(mu^2) cancellation on one side.  In the field of
    the arguments: float or Fraction."""
    product = a * a * n * (2 * nu + n)
    if kappa < 0:
        minus = eps * kappa - nu
        plus = product / minus if n > 0 else product
    else:
        plus = eps * kappa + nu
        minus = product / plus
    return plus, minus


def radial_rel(state: RelState, r):
    """Radial pair (F, G) at r (reduced Compton lengths).

    Normalized so the integral of (F^2+G^2) r^2 is 1.  Accepts a scalar
    or an ndarray; ValueError for a negative, nan or infinite radius (+inf
    too, as in `radial_nr`).  The n_r = 0 state keeps only the
    L_n^{2nu-1} column.
    """
    _check_radius(r)
    n, kappa = state.n_r, state.kappa
    mu, nu, eps, a = state._levels()
    _, ek_minus = _eps_kappa_pm(n, kappa, eps, nu, a)
    xi = 2.0 * a * r
    norm = (a * a / nu) * math.sqrt(
        (ek_minus / (kappa - nu))
        * math.exp(math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * nu))
        / mu
    )
    shape = norm * xi ** (nu - 1.0) * _exp(-xi / 2.0)
    f1 = a * mu / ek_minus
    g1 = a * (kappa - nu) / ek_minus
    f2 = kappa - nu
    g2 = mu
    lower = laguerre(LaguerreSpec(n, 2.0 * nu - 1.0), xi)
    if n >= 1:
        upper = xi * laguerre(LaguerreSpec(n - 1, 2.0 * nu + 1.0), xi)
    else:
        upper = 0.0 * xi
    return RadialPair(
        F=shape * (f1 * upper + f2 * lower),
        G=shape * (g1 * upper + g2 * lower),
    )


def _converges(nu: float, p: int) -> bool:
    """Whether the Dirac <r^p> is finite: 2 nu + p + 1 > 0."""
    return 2.0 * nu + p + 1.0 > 0.0


def _check_admissible(nu: float, p: int) -> None:
    if not _converges(nu, p):
        raise ValueError(
            f"p={p} violates 2*nu+p+1 > 0 (nu={nu:.6f}): integral diverges"
        )


def _bracket(n: int, kappa: int, p: int, nu, mu, eps, a):
    """Terms (t1, t2, t3) and divisor D of the moment bracket at power p,
    <r^p> = (t1 + t2 + t3) / D, in the field of the arguments, type(nu):
    float, or Fraction for the exact sum.  The Hahn polynomials come from
    `orthopoly._hahn` in that field:

    4 mu nu^2 (2a)^p <r^p> = a k (eps k + nu) g1
        - 2(p+2) mu a^2 n (2nu+n) g2 + a k (eps k - nu) g3,
    with q = p for p >= 0 and q = -p-3 for p <= -3:
    g1 = h_{q+1}^{(0,0)}(n-1, -1-2nu), g2 = h_q^{(1,1)}(n-1, -1-2nu)/(q+1)
    and g3 = h_{q+1}^{(0,0)}(n, 1-2nu), for p <= -3 over (2nu-q)_{2q+3},
    (2nu-q-1)_{2q+3} and (2nu-q-2)_{2q+3}.  At p = -1 and -2 the
    underlying 3F2 series close by Chu-Vandermonde (DLMF 15.4.24).
    """
    if p == -1:
        g1, g2, g3 = 1, 1 / (2 * nu + n), 1
    elif p == -2:
        g1, g2, g3 = 1 / (2 * nu + 1), 0, 1 / (2 * nu - 1)
    else:
        field = type(nu)
        q = p if p >= 0 else -p - 3
        g1 = g2 = 0
        if n >= 1:
            g1 = _hahn(field, q + 1, 0, 0, -1 - 2 * nu, n - 1)
            g2 = _hahn(field, q, 1, 1, -1 - 2 * nu, n - 1) / (q + 1)
        g3 = _hahn(field, q + 1, 0, 0, 1 - 2 * nu, n)
        if p < 0:
            g1 /= _pochhammer(2 * nu - q, 2 * q + 3)
            g2 /= _pochhammer(2 * nu - q - 1, 2 * q + 3)
            g3 /= _pochhammer(2 * nu - q - 2, 2 * q + 3)
    if n == 0:
        g1 = g2 = 0
    ek_plus, ek_minus = _eps_kappa_pm(n, kappa, eps, nu, a)
    terms = (
        a * kappa * ek_plus * g1,
        -2 * (p + 2) * mu * a * a * n * (2 * nu + n) * g2,
        a * kappa * ek_minus * g3,
    )
    return terms, 4 * mu * nu * nu * (2 * a) ** p


def _sqrt_frac(x: Fraction) -> Fraction:
    """sqrt(x) rounded down to 40 decimals.  The denominator stays
    10**40, and the exact series, which multiply denominators without
    reducing them, grow by about its 40 digits per term: a larger one
    makes the exact bracket dearer in proportion."""
    scale = 10**40
    return Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)


def _exact_params(n: int, kappa: int, mu: Fraction) -> tuple:
    """(nu, eps, a) of the state (n_r = n, kappa) at the rational mu,
    through two square roots rounded to 40 decimals."""
    nu = _sqrt_frac(kappa * kappa - mu * mu)
    n_eff = n + nu
    hyp = _sqrt_frac(n_eff * n_eff + mu * mu)
    return nu, n_eff / hyp, mu / hyp


def _exact_moment(state: RelState, p: int) -> float:
    """<r^p> from the bracket summed once in rational arithmetic, at the
    exact mu = Z*alpha; free of the float sum's cancellation.
    OverflowError where <r^p> is beyond binary64 range."""
    n, kappa = state.n_r, state.kappa
    mu = Fraction(state.Z) * Fraction(state.alpha_fs)
    nu, eps, a = _exact_params(n, kappa, mu)
    terms, divisor = _bracket(n, kappa, p, nu, mu, eps, a)
    try:
        return float(sum(terms) / divisor)
    except OverflowError:
        raise OverflowError(f"<r^{p}> exceeds binary64 range") from None


def expect_r_power_rel(state: RelState, p: int) -> Expectation:
    """<r^p> in (hbar/mc)^p units from the Hahn bracket of `_bracket`,
    summed in binary64.

    Admissible when 2*nu+p+1 > 0.  Cancellation between the three terms
    beyond a ratio of 1e4, or a term or quotient outside binary64 range
    (an overflow at large p, or (2a)^p underflowing to 0), sums the same
    bracket exactly instead (`_exact_moment`) and sets cancellation_flag.
    That route raises OverflowError where the moment itself is out of
    range.
    """
    mu, nu, eps, a = state._levels()
    _check_admissible(nu, p)
    terms, divisor = _bracket(state.n_r, state.kappa, p, nu, mu, eps, a)
    if divisor and all(map(math.isfinite, terms)):
        total = math.fsum(terms)
        value = total / divisor
        cancelled = abs(total) < 1e-4 * max(map(abs, terms))
        if math.isfinite(value) and not cancelled:
            return Expectation(value, p, "compton_reduced")
    return Expectation(_exact_moment(state, p), p, "compton_reduced", True)


_SPECIAL_POWERS = {"r2": 2, "r1": 1, "one": 0, "rm1": -1, "rm2": -2, "rm3": -3}


def expect_special_rel(state: RelState, case: str) -> Expectation:
    """Explicit closed forms for p = 2, 1, 0, -1, -2, -3.

    case is one of r2, r1, one, rm1, rm2, rm3.  Each equals
    expect_r_power_rel at the same power; rm3 needs nu > 1.
    """
    if case not in _SPECIAL_POWERS:
        raise ValueError(f"unknown case {case!r}; expected one of "
                         f"{sorted(_SPECIAL_POWERS)}")
    p = _SPECIAL_POWERS[case]
    n, kappa = state.n_r, state.kappa
    mu, nu, eps, a = state._levels()
    _check_admissible(nu, p)
    if case == "r2":
        value = (
            5.0 * n * (n + 2.0 * nu)
            + 4.0 * nu * nu
            + 1.0
            - eps * kappa * (2.0 * eps * kappa + 3.0)
        ) / (2.0 * a * a)
    elif case == "r1":
        value = (
            3.0 * eps * n * (n + 2.0 * nu) + kappa * (2.0 * eps * kappa - 1.0)
        ) / (2.0 * mu)
    elif case == "one":
        value = 1.0
    elif case == "rm1":
        # canonical form 2 a eps kappa^2 - 2 mu a^2 n over 2 mu nu^2 / a
        value = a * a * (eps * kappa * kappa - mu * a * n) / (mu * nu * nu)
    elif case == "rm2":
        value = (
            2.0
            * a**3
            * kappa
            * (2.0 * eps * kappa - 1.0)
            / (mu * nu * (4.0 * nu * nu - 1.0))
        )
    else:  # rm3
        value = (
            2.0
            * a**3
            * (3.0 * eps * eps * kappa * kappa - 3.0 * eps * kappa - nu * nu + 1.0)
            / (nu * (nu * nu - 1.0) * (4.0 * nu * nu - 1.0))
        )
    return Expectation(value, p, "compton_reduced")


def expect_hahn_form_rel(state: RelState, p: int, which: str = "positive") -> Expectation:
    """<r^p> (which="positive") or <1/r^{p+3}> (which="negative") through
    the paper's Hahn forms at negative parameter N, for p >= 0.

    Both are expect_r_power_rel at power p or -(p+3), whose bracket is
    built from these Hahn polynomials; negative needs 2*nu - p - 2 > 0.
    """
    if p < 0:
        raise ValueError("the Hahn forms take p >= 0")
    if which == "positive":
        return expect_r_power_rel(state, p)
    if which != "negative":
        raise ValueError("which must be 'positive' or 'negative'")
    return expect_r_power_rel(state, -(p + 3))


def screening_rel_1s(Z: float, r: float, alpha_fs: float = ALPHA_FS) -> float:
    """Screened potential of the nucleus plus a 1S_1/2 Dirac electron.

    In e/a0 units with r in Bohr radii; nu1 = sqrt(1 - mu^2).  Recovers
    the nonrelativistic closed form as mu -> 0 and the Coulomb limits
    r*V -> Z (r -> 0), r*V -> Z-1 (r -> infinity).  ArithmeticError
    where V leaves binary64 range (a subnormal r); ValueError where
    RelState(Z, 0, -1, alpha_fs) does (Z, alpha_fs, or mu >= 1).
    """
    nu1 = RelState(Z, 0, -1, alpha_fs).nu
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    x = 2.0 * Z * r
    norm = math.gamma(2.0 * nu1 + 1.0)
    peak = (2.0 * Z) ** (2.0 * nu1) * r ** (2.0 * nu1 - 1.0) * math.exp(-x) / norm
    tail = inc_gamma_upper(2.0 * nu1, x) / norm * (2.0 * nu1 / r - 2.0 * Z)
    return _in_range((Z - 1.0) / r + peak + tail, "the potential at r = %r", r)
