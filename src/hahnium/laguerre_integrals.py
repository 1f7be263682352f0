"""Master integrals of products of two Laguerre polynomials.

Everything here reduces to

    J = integral_0^inf e^(-x) x^(alpha+s) L_n^alpha(x) L_m^beta(x) dx

for n >= m, integer alpha - beta and alpha + s > -1.  The closed form is a
single terminating 3F2 at unit argument; all gamma-function ratios collapse
to Pochhammer symbols, so only one Gamma(alpha+s+1) survives, and it is the
factorial (alpha+s)! that exact evaluation needs.

Two evaluation routes exist.  The direct route keeps the series produced by
repeated integration by parts; its partner is the image of that series under
the classical three-term transformation.  They agree wherever both are
regular, and the direct route is the one that stays finite when s is a
nonpositive integer (negative moments), because there the transformed
prefactor hits a gamma pole.

The diagonal case n = m with integer s is where the discrete Chebyshev
polynomials appear: J is a polynomial norm times t_k evaluated at the degree,
which is what makes hydrogenic moment formulas three-term-recursive.

Also here: linearization coefficients of a product L_n^alpha L_m^alpha back
into the same family.  (The screening potential's incomplete integrals live
with the density they integrate, in `hydrogen_nr.screening_nr`.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .orthopoly import chebyshev_discrete
from .specfun import (
    HypSeriesSpec,
    _field,
    _hyp_in,
    _integer_value,
    _quotient,
    hyp_terminating_exact,
    pochhammer,
)

__all__ = [
    "JSpec",
    "LinearizationTriple",
    "j_integral_exact",
    "j_diag_positive_exact",
    "j_diag_negative_exact",
    "linearization_coeffs",
    "linearization_closed_form",
]

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class JSpec:
    """Parameters of the master integral.

    n, m are the polynomial degrees (n >= m >= 0), alpha and beta their
    superscripts, and s shifts the weight exponent to alpha + s.  The
    integral converges iff alpha + s > -1; alpha - beta must be an integer
    for the closed form to terminate.
    """

    n: int
    m: int
    s: Real
    alpha: Real
    beta: Real

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"need n >= m >= 0, got n={self.n}, m={self.m}")
        if _integer_value(self.alpha - self.beta) is None:
            raise ValueError("alpha - beta must be an integer")
        if not self.alpha + self.s > -1:
            raise ValueError("need alpha + s > -1 for convergence")


@dataclass(frozen=True)
class LinearizationTriple:
    """Coefficients c_p of L_n^alpha L_m^alpha = sum_p c_p L_p^alpha.

    coefficients[i] belongs to p = n - m + i; the support is exactly
    p in [n - m, n + m].
    """

    n: int
    m: int
    alpha: Real
    coefficients: tuple

    @property
    def p_min(self) -> int:
        return self.n - self.m

    @property
    def p_max(self) -> int:
        return self.n + self.m

    def coefficient(self, p: int) -> Real:
        if p < self.p_min or p > self.p_max:
            return 0 * self.coefficients[0]
        return self.coefficients[p - self.p_min]


def _series_direct(spec: JSpec) -> HypSeriesSpec:
    # From n-fold integration by parts; denominator s-n+1 is safe because
    # the -m (or s+1, when s <= 0) termination always precedes its pole.
    return HypSeriesSpec(
        (-spec.m, spec.s + 1, spec.alpha + spec.s + 1),
        (spec.beta + 1, spec.s - spec.n + 1),
    )


def _series_transformed(spec: JSpec) -> HypSeriesSpec:
    return HypSeriesSpec(
        (-spec.m, spec.s + 1, spec.beta - spec.alpha - spec.s),
        (spec.beta + 1, spec.n - spec.m + 1),
    )


def _pick_route(spec: JSpec, route: str) -> str:
    if route == "auto":
        # Nonpositive-integer s+1 (negative moments) goes direct: there the
        # transformed series would truncate through a prefactor pole, while
        # the direct denominator pole sits beyond the termination index.
        # Everything else, including s = 0, goes through the transform,
        # whose denominators (beta+1, n-m+1) are never at a pole.
        if _integer_value(spec.s) is not None and spec.s <= -1:
            return "direct"
        return "transformed"
    if route not in ("direct", "transformed"):
        raise ValueError(f"unknown route {route!r}")
    return route


def j_integral_exact(spec: JSpec, route: str = "auto") -> Fraction:
    """Master integral in exact rational arithmetic.

    Requires alpha + s to be a nonnegative integer (so the surviving gamma
    factor is a factorial) and all parameters rational.  route="direct"
    uses the series straight from integration by parts, route="transformed"
    its three-term transform; "auto" picks the one that is regular for the
    given s.
    """
    total = Fraction(spec.alpha) + Fraction(spec.s)
    if total.denominator != 1 or total < 0:
        raise ValueError("exact evaluation needs integer alpha + s >= 0")
    # floats convert exactly; ints and Fractions stay as they are
    s, alpha, beta = (
        Fraction(x) if isinstance(x, float) else x
        for x in (spec.s, spec.alpha, spec.beta)
    )
    spec = JSpec(spec.n, spec.m, s, alpha, beta)
    if _pick_route(spec, route) == "direct":
        steps, series = spec.n, _series_direct(spec)
    else:
        steps, series = spec.n - spec.m, _series_transformed(spec)
    ups = (
        (-1) ** steps * math.factorial(total.numerator),
        pochhammer(beta + 1, spec.m),
        pochhammer(s - steps + 1, steps),
        hyp_terminating_exact(series),
    )
    return _quotient(ups, (math.factorial(steps), math.factorial(spec.m)))


def j_diag_positive_exact(n: int, alpha: int, k: int) -> Fraction:
    """Diagonal moment J with weight x^(alpha+k), k >= 0 integer, in exact
    arithmetic; needs integer alpha with alpha + n >= 0.

    Equals the squared norm (alpha+n)!/n! times the discrete Chebyshev
    polynomial t_k(n, -alpha).
    """
    if _integer_value(alpha) is None or alpha + n < 0:
        raise ValueError("exact evaluation needs integer alpha with alpha + n >= 0")
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    alpha = int(alpha)
    ups = (math.factorial(alpha + n), chebyshev_discrete(k, n, -alpha))
    return _quotient(ups, (math.factorial(n),))


def j_diag_negative_exact(n: int, alpha: int, k: int) -> Fraction:
    """Diagonal inverse moment J with weight x^(alpha-k-1), 0 <= k < alpha,
    in exact arithmetic; needs integer alpha.

    Same discrete Chebyshev value as the positive side; the norm is divided
    by the Pochhammer run (alpha-k)_(2k+1), which is where the k < alpha
    convergence bound shows up.
    """
    if _integer_value(alpha) is None:
        raise ValueError("exact evaluation needs integer alpha")
    if not 0 <= k < alpha:
        raise ValueError("need 0 <= k < alpha")
    alpha = int(alpha)
    ups = (math.factorial(alpha + n), chebyshev_discrete(k, n, -alpha))
    return _quotient(ups, (math.factorial(n), pochhammer(alpha - k, 2 * k + 1)))


def _linearization_single(n: int, m: int, p: int, alpha: Real, field: type) -> Real:
    """c_p for n - m <= p <= n + m, summed over integers at alpha = a/b."""
    a, b = alpha.as_integer_ratio()
    # coeff / den is (-p)_k (-m)_k / (k! (alpha+1)_k) and total / den the
    # running sum; gap < 0 puts the term's reciprocal gamma at a pole, so
    # the term vanishes, which enforces 2k >= p - n + m.  A zero
    # (alpha+1+k) zeroes den, and the division raises ZeroDivisionError.
    total, coeff, den = 0, 1, 1
    for k in range(min(p, m) + 1):
        gap = n - m - p + 2 * k
        if gap >= 0:
            total += coeff * math.perm(2 * k, 2 * k - gap)
        step = (k + 1) * (a + b * (1 + k))
        coeff *= (k - p) * (k - m) * b
        total *= step
        den *= step
    # (alpha+1)_m = prod (a + b(1+j)) / b^m
    top = pochhammer(-p, n - m) * math.prod(a + b * (1 + j) for j in range(m)) * total
    if p % 2:
        top = -top
    bottom = b**m * math.factorial(p) * math.factorial(m) * den
    return Fraction(top, bottom) if field is Fraction else top / bottom


def linearization_coeffs(n: int, m: int, alpha: Real) -> LinearizationTriple:
    """All linearization coefficients of L_n^alpha L_m^alpha, n >= m.

    Single finite sum per coefficient; exact Fractions for int/Fraction
    alpha, floats otherwise.  Both fields run one integer sum at
    alpha = a/b, a float alpha at its exact binary value: the term ratio
    (k-p)(k-m) b / ((k+1)(a + b(1+k))) and (2k)!/(n-m-p+2k)! accumulate
    on one numerator over one running denominator and the prefactor
    joins them.  The exact coefficient is that pair normalized once; the
    float one is its quotient rounded once, so it is correctly rounded.
    A non-finite alpha raises ValueError or OverflowError.
    """
    if m < 0 or n < m:
        raise ValueError(f"need n >= m >= 0, got n={n}, m={m}")
    field = _field(alpha)
    alpha = field(alpha)
    coeffs = tuple(
        _linearization_single(n, m, p, alpha, field) for p in range(n - m, n + m + 1)
    )
    return LinearizationTriple(n, m, alpha, coeffs)


def linearization_closed_form(n: int, m: int, p: int, alpha: Real) -> Real:
    """Single linearization coefficient via the parity-split closed forms.

    p = n - m is a pure gamma ratio; for larger p the sum collapses to a
    terminating 3F2 whose lower parameter is 1/2 or 3/2 by the parity of
    p - n + m.  Used as an independent cross-check of linearization_coeffs.
    """
    if m < 0 or n < m:
        raise ValueError(f"need n >= m >= 0, got n={n}, m={m}")
    field = _field(alpha)
    alpha = field(alpha)
    gap = p - n + m
    if gap < 0 or p > n + m:
        return field(0)
    if gap == 0:
        # Chu-Vandermonde collapse of the general sum.
        return pochhammer(alpha + 1, n) / (
            math.factorial(m) * pochhammer(alpha + 1, n - m)
        )
    # Shift the sum to start at its smallest admissible index k0 and split
    # (2k0+2j)! and the step factorial by the duplication formula: the
    # (k0+1)_j pair cancels, leaving a terminating 3F2.
    half = field(1) / 2
    sign = -1 if p % 2 else 1
    k0 = (gap + 1) // 2
    lead = pochhammer(-p, n - m) * pochhammer(-p, k0) * pochhammer(-m, k0)
    duplication = math.factorial(2 * k0) // math.factorial(k0)
    shift = alpha + k0 + 1
    rise = pochhammer(shift, m - k0)
    series = HypSeriesSpec(
        (k0 - p, k0 - m, k0 + half), (half if gap % 2 == 0 else 3 * half, shift)
    )
    if field is Fraction:
        return _quotient(
            (sign * lead * duplication, rise, _hyp_in(field, series)),
            (math.factorial(p), math.factorial(m)),
        )
    pref = field(lead) / (math.factorial(p) * math.factorial(m))
    pref *= field(duplication)
    pref *= rise
    return sign * pref * _hyp_in(field, series)
