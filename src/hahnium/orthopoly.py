"""Classical orthogonal polynomials and the discrete Hahn family.

Laguerre and Legendre polynomials are evaluated by three-term recurrence
in the degree (never by Rodrigues differentiation), written in plain
arithmetic so the same code runs on floats, Fractions and numpy arrays.

A Hahn polynomial is its terminating 3F2 times a Pochhammer prefactor;
the rewrite (N-k)_k of Gamma(N)/Gamma(N-k) keeps negative N off the
gamma poles.  Public `hahn` (and `chebyshev_discrete`, which is `hahn`
at alpha = beta = 0) decides the number field once, refuses non-finite
float inputs, and calls the one private body `_hahn`, which hands plain
parameter tuples and the known stopping index to `specfun`'s series body
of that field.  The NR and Dirac moments call `_hahn` / `_hahn_split`
directly with their field, so a moment pays for neither a parameter
object nor a series spec nor the public checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import (
    _field,
    _int_pair,
    _integer_value,
    _pochhammer,
    _quotient,
    _refuse_non_finite,
    _series_exact,
    _series_float,
)

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
    """h_k^{(alpha,beta)}(x, N) = (-1)^k (N-k)_k (beta+1)_k / k! times
    3F2(-k, alpha+beta+k+1, -x; beta+1, 1-N; 1).

    Exact (Fraction) when all inputs are int or Fraction, binary64
    otherwise; the field is decided here, once, and `_hahn` evaluates in
    it.  The exact value is prefactor * series / k! joined by
    `specfun._quotient`, normalized once.  ValueError for a non-finite
    float input, or if the series' denominator Pochhammer vanishes
    before termination (possible only for positive integer N <= k).
    """
    values = (x, params.alpha, params.beta, params.N)
    field = _field(*values)
    if field is float:
        _refuse_non_finite("hahn", values)
    return _hahn(field, params.degree, params.alpha, params.beta, params.N, x)


def _hahn(field: type, k: int, alpha, beta, big_n, x):
    """h_k^{(alpha,beta)}(x, N) in `field` (float or Fraction), unchecked."""
    prefactor, series = _hahn_split(field, k, alpha, beta, big_n, x)
    if field is float:
        return float(prefactor) * series / math.factorial(k)
    return _quotient((prefactor, series), (math.factorial(k),))


def _hahn_split(field: type, k: int, alpha, beta, big_n, x) -> tuple:
    """(prefactor, series) with k! h_k^{(alpha,beta)}(x, N) = prefactor *
    series, the series summed in `field` by `specfun`'s body of it.

    The series stops at the smallest nonpositive integer among its
    numerator parameters -k, alpha+beta+k+1 and -x.  The prefactor
    (-1)^k (N-k)_k (beta+1)_k keeps the parameters' type (an int for
    integer ones), so a caller can scale it exactly before it meets the
    field, where alone it may overflow.
    """
    up, down = alpha + beta + k + 1, 1 - big_n
    order = k
    for a in (up, -x):
        stop = _integer_value(a)
        if stop is not None and -order < stop <= 0:
            order = -stop
    prefactor = (-1) ** k * _pochhammer(big_n - k, k) * _pochhammer(beta + 1, k)
    if field is float:
        nums = (float(-k), float(up), float(-x))
        dens = (float(beta + 1), float(down))
        series = _series_float(nums, dens, 1.0, order)
    else:
        nums = (_int_pair(-k), _int_pair(up), _int_pair(-x))
        dens = (_int_pair(beta + 1), _int_pair(down))
        series = _series_exact(nums, dens, (1, 1), order)
    return prefactor, series


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
