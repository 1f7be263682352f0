"""Reference values the benchmark checks the program's outputs against.

Each reference takes a different route from the code it checks:

* ``ScreeningReference`` sums the interior and exterior multipole integrals
  of a hydrogen-like density directly.  The density r^2 R_nl^2 is e^-eta times
  a polynomial with exact rational coefficients, so each integral is a finite
  combination of lower or upper incomplete gammas of integer order.  Both are
  evaluated as sums of positive terms at 50 digits (lower: the series from the
  order upwards; upper: the finite sum below it), with no full-minus-tail
  subtraction.  The angular weights are exact integrals of |Y_lm|^2 P_L.
* ``laguerre_integral`` expands both Laguerre polynomials and integrates
  monomials exactly (x^k e^-x integrates to k!).
* ``linearization`` projects the expanded product onto L_p with the moments
  of the weight, (alpha+1)_k.
* ``hahn_by_recurrence`` climbs the degree recurrence from h_0 = 1.
* ``nr_moments_by_recurrence`` runs the three-term moment recurrence and the
  inversion relation (for p <= -2) in the type of Z.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from hahnium import hydrogen_nr as nr
from hahnium import orthopoly

_DPS = 50


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def laguerre_coeffs(k: int, alpha) -> list:
    """Monomial coefficients of L_k^alpha: (-1)^j (alpha+j+1)_(k-j) / ((k-j)! j!)."""
    alpha = Fraction(alpha)
    out = []
    for j in range(k + 1):
        run = Fraction(1)
        for i in range(k - j):
            run *= alpha + j + 1 + i
        out.append((-1) ** j * run / (math.factorial(k - j) * math.factorial(j)))
    return out


def _legendre_coeffs(degree: int) -> list:
    prev, curr = [Fraction(1)], [Fraction(0), Fraction(1)]
    if degree == 0:
        return prev
    for k in range(1, degree):
        nxt = [Fraction(0)] * (k + 2)
        for i, v in enumerate(curr):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * v
        for i, v in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * v
        prev, curr = curr, nxt
    return curr


def legendre_value(degree: int, x: float) -> float:
    prev, curr = 1.0, x
    if degree == 0:
        return prev
    for k in range(1, degree):
        prev, curr = curr, ((2 * k + 1) * x * curr - k * prev) / (k + 1)
    return curr


@lru_cache(maxsize=None)
def angular_weight(l: int, m: int, big_l: int) -> Fraction:
    """Integral of |Y_lm|^2 P_L(cos theta) over the sphere, exact."""
    m = abs(m)
    derivative = _legendre_coeffs(l)
    for _ in range(m):
        derivative = [i * derivative[i] for i in range(1, len(derivative))] or [Fraction(0)]
    weight = [Fraction(1)]
    for _ in range(m):
        weight = _poly_mul(weight, [Fraction(1), Fraction(0), Fraction(-1)])
    integrand = _poly_mul(
        _poly_mul(weight, _poly_mul(derivative, derivative)), _legendre_coeffs(big_l)
    )
    integral = sum(v * Fraction(2, k + 1) for k, v in enumerate(integrand) if k % 2 == 0)
    return (
        Fraction(2 * l + 1, 2)
        * Fraction(math.factorial(l - m), math.factorial(l + m))
        * integral
    )


@lru_cache(maxsize=None)
def _density_terms(n: int, l: int) -> tuple:
    """(power, coefficient) pairs of the normalized density in eta = 2Zr/n.

    r^2 R_nl^2 dr = e^-eta sum_j c_j eta^j d(eta), with sum_j c_j j! = 1.
    """
    shape = laguerre_coeffs(n - l - 1, 2 * l + 1)
    square = _poly_mul(shape, shape)
    terms = {2 * l + 2 + j: c for j, c in enumerate(square) if c}
    norm = sum(c * math.factorial(j) for j, c in terms.items())
    return tuple((j, c / norm) for j, c in sorted(terms.items()))


def screening_multipoles(Z: float, n: int, l: int, r: float) -> list:
    """[(L, radial_L)] for even L <= 2l: interior/r^(L+1) plus r^L times exterior.

    radial_L = (1/r) [xi^-L  sum_j c_j gamma(j+L+1, xi)
                      + xi^(L+1) sum_j c_j Gamma(j-L, xi)],  xi = 2Zr/n.
    """
    terms = _density_terms(n, l)
    top = max(j for j, _ in terms) + 2 * l + 1
    with mpmath.workdps(_DPS):
        xi = 2 * mpmath.mpf(Z) * mpmath.mpf(r) / n
        powers = [mpmath.mpf(1)]  # xi^k / k!
        floor = None
        k = 0
        while True:
            k += 1
            powers.append(powers[-1] * xi / k)
            if k == top:
                floor = powers[-1] * mpmath.mpf(10) ** (-_DPS - 5)
            if floor is not None and k > 2 * xi and powers[-1] < floor:
                break
        below = [mpmath.mpf(0)]
        for term in powers:
            below.append(below[-1] + term)
        above = [mpmath.mpf(0)] * (len(powers) + 1)
        for i in range(len(powers) - 1, -1, -1):
            above[i] = above[i + 1] + powers[i]
        damp = mpmath.exp(-xi)

        def lower(a: int):
            return mpmath.factorial(a - 1) * damp * above[a]

        def upper(a: int):
            return mpmath.factorial(a - 1) * damp * below[a]

        out = []
        for big_l in range(0, 2 * l + 1, 2):
            inner = sum(mpmath.mpf(c.numerator) / c.denominator * lower(j + big_l + 1)
                        for j, c in terms)
            outer = sum(mpmath.mpf(c.numerator) / c.denominator * upper(j - big_l)
                        for j, c in terms)
            radial = (inner * xi ** (-big_l) + outer * xi ** (big_l + 1)) / mpmath.mpf(r)
            out.append((big_l, float(radial)))
    return out


def screening_value(Z: float, l: int, m: int, r: float, theta: float, multipoles) -> tuple:
    """(V, scale): the potential and max(|V|, electron term) for one (m, theta)."""
    x = math.cos(theta)
    electron = 0.0
    for big_l, radial in multipoles:
        weight = angular_weight(l, m, big_l)
        if weight:
            electron += float(weight) * legendre_value(big_l, x) * radial
    value = Z / r - electron
    return value, max(abs(value), abs(electron))


def laguerre_integral(n: int, m: int, s: int, alpha, beta) -> Fraction:
    """Integral of e^-x x^(alpha+s) L_n^alpha L_m^beta over (0, inf); alpha+s integer >= 0."""
    power = Fraction(alpha) + s
    if power.denominator != 1 or power < 0:
        raise ValueError("needs integer alpha + s >= 0")
    product = _poly_mul(laguerre_coeffs(n, alpha), laguerre_coeffs(m, beta))
    return sum(c * math.factorial(int(power) + k) for k, c in enumerate(product))


def linearization(n: int, m: int, alpha) -> tuple:
    """Coefficients of L_n^alpha L_m^alpha over L_p^alpha, p = n-m .. n+m."""
    alpha = Fraction(alpha)
    product = _poly_mul(laguerre_coeffs(n, alpha), laguerre_coeffs(m, alpha))
    moments = [Fraction(1)]  # (alpha+1)_k
    for k in range(2 * (n + m) + 1):
        moments.append(moments[-1] * (alpha + 1 + k))
    out = []
    for p in range(n - m, n + m + 1):
        basis = laguerre_coeffs(p, alpha)
        overlap = sum(
            b * c * moments[i + j]
            for j, b in enumerate(basis)
            for i, c in enumerate(product)
        )
        out.append(overlap * math.factorial(p) / moments[p])
    return tuple(out)


def hahn_by_recurrence(k: int, alpha, beta, big_n, x):
    """h_k^{(alpha,beta)}(x, N) from h_0 = 1 and the degree recurrence."""
    prev, curr = Fraction(0), Fraction(1)
    for degree in range(k):
        prev, curr = curr, orthopoly.hahn_recurrence_rhs(
            degree, alpha, beta, big_n, x, prev, curr
        )
    return curr


def nr_moments_by_recurrence(state, powers) -> dict:
    """{p: <r^p>} from the moment recurrence, with the inversion relation for p <= -2."""
    n, l = state.n, state.l
    exact = isinstance(state.Z, (int, Fraction))
    k_max = max(8, 2 * l, max(powers))
    chain = [e.value for e in nr.expect_recurrence_nr(state, k_max)]  # chain[k] = <r^(k-1)>
    out = {}
    for p in powers:
        if p >= -1:
            out[p] = chain[p + 1]
            continue
        k = -p - 2
        if exact:
            factor = (2 * Fraction(state.Z) / n) ** (2 * k + 1) * Fraction(
                math.factorial(2 * l - k), math.factorial(2 * l + k + 1)
            )
        else:
            factor = (2.0 * state.Z / n) ** (2 * k + 1) * (
                math.factorial(2 * l - k) / math.factorial(2 * l + k + 1)
            )
        out[p] = factor * chain[k]
    return out
