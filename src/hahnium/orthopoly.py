"""Classical orthogonal polynomials and the discrete Hahn family.

Evaluation is by three-term recurrence in the degree throughout (never
by Rodrigues differentiation); the hypergeometric definitions stay
available as cross-checks.  Recurrences are written in plain arithmetic
so the same code runs on floats, Fractions and numpy arrays, and Hahn
prefactors use the Pochhammer rewrite (N-k)_k of Gamma(N)/Gamma(N-k) so
negative N never touches a gamma pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import HypSeriesSpec, _field, _hyp_in, _quotient, pochhammer

__all__ = [
    "HahnParams",
    "LaguerreSpec",
    "chebyshev_discrete",
    "hahn",
    "hahn_recurrence_rhs",
    "laguerre",
    "legendre",
]


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and weight parameter of a generalized Laguerre polynomial.

    alpha may be any real with alpha + degree + 1 > 0; non-integer
    alpha < 0 occurs in the relativistic radial problem.
    """

    degree: int
    alpha: float

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"Laguerre degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class HahnParams:
    """Degree and parameters of a Hahn polynomial h_k^{(alpha,beta)}(x, N).

    N may be negative or non-integer; the classical discrete
    orthogonality additionally needs k < N when N is a positive integer.
    """

    degree: int
    alpha: float
    beta: float
    N: float

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"Hahn degree must be >= 0, got {self.degree}")


def laguerre(spec: LaguerreSpec, x):
    """L_n^alpha(x) by the stable degree recurrence.

    Generic over the scalar type: exact for Fraction inputs,
    elementwise for numpy arrays.
    """
    n, alpha = spec.degree, spec.alpha
    prev = x * 0 + 1  # L_0 in the type of x
    if n == 0:
        return prev
    curr = alpha + 1 - x
    for k in range(1, n):
        prev, curr = curr, ((alpha + 2 * k + 1 - x) * curr - (alpha + k) * prev) / (k + 1)
    return curr


def hahn(params: HahnParams, x):
    """h_k^{(alpha,beta)}(x, N) via the Pochhammer-prefactor series.

    Exact (Fraction) when all inputs are int or Fraction, binary64
    otherwise.  The exact value is prefactor * series / k! joined by
    `specfun._quotient`, normalized once.  Raises if the series'
    denominator Pochhammer vanishes before termination (possible only
    for positive integer N <= k).
    """
    field, prefactor, series = _hahn_split(params, x)
    if field is float:
        return field(prefactor) * series / math.factorial(params.degree)
    return _quotient((prefactor, series), (math.factorial(params.degree),))


def _hahn_split(params: HahnParams, x):
    """(field, prefactor, series) with k! h = prefactor * series.

    The prefactor (-1)^k (N-k)_k (beta+1)_k keeps the parameters' type
    (an int for integer ones), so a caller can scale it exactly before
    it meets the field, where alone it may overflow.
    """
    k = params.degree
    alpha, beta, big_n = params.alpha, params.beta, params.N
    spec = HypSeriesSpec((-k, alpha + beta + k + 1, -x), (beta + 1, 1 - big_n), 1)
    prefactor = (-1) ** k * pochhammer(big_n - k, k) * pochhammer(beta + 1, k)
    field = _field(x, alpha, beta, big_n)
    return field, prefactor, _hyp_in(field, spec)


def chebyshev_discrete(k: int, x, big_n):
    """Discrete Chebyshev polynomial t_k(x, N) = h_k^{(0,0)}(x, N)."""
    return hahn(HahnParams(k, 0, 0, big_n), x)


def hahn_recurrence_rhs(k: int, alpha, beta, big_n, x, h_prev, h_curr):
    """h_{k+1} solved from the Hahn three-term recurrence in the degree.

    The recurrence reads x h_k = a_k h_{k+1} + b_k h_k + c_k h_{k-1};
    the running index in the printed coefficient formulas is the degree
    k.  h_prev is ignored at k = 0 (its coefficient multiplies h_{-1}).
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    one = _field(alpha, beta, big_n, x, h_prev, h_curr)(1)
    ab = alpha + beta
    lead = one * (k + 1) * (ab + k + 1) / ((ab + 2 * k + 1) * (ab + 2 * k + 2))
    if lead == 0:
        raise ValueError(f"leading recurrence coefficient vanishes at degree {k}")
    mid = one * (alpha - beta + 2 * big_n - 2) / 4
    skew = (beta - alpha) * (beta + alpha)
    if skew != 0:
        mid += one * skew * (ab + 2 * big_n) / (4 * (ab + 2 * k) * (ab + 2 * k + 2))
    if k == 0:
        trailing = 0
    else:
        low = (
            one
            * (alpha + k)
            * (beta + k)
            * (ab + big_n + k)
            * (big_n - k)
            / ((ab + 2 * k) * (ab + 2 * k + 1))
        )
        trailing = low * h_prev
    return ((x - mid) * h_curr - trailing) / lead


def legendre(n: int, x):
    """Legendre polynomial P_n(x) by the standard recurrence."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    prev = x * 0 + 1
    if n == 0:
        return prev
    curr = x * 1
    for k in range(1, n):
        prev, curr = curr, ((2 * k + 1) * x * curr - k * prev) / (k + 1)
    return curr
