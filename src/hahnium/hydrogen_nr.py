"""Nonrelativistic Coulomb bound states.

Energies, radial functions, closed-form radial moments <r^p> through
discrete Chebyshev polynomials evaluated at negative parameter, the
three-term moment recurrence with its inversion relation, and the mean
screening potential of the bound electron.

Lengths are in Bohr radii and energies in Hartree throughout; unit
conversions live in the command-line layer.  Every operation follows the
number field of ``Z`` (`specfun`'s rule): an int or Fraction charge
propagates exact rational arithmetic, a float charge stays in binary64
all the way down to the discrete Chebyshev series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .angular import clebsch_gordan
from .orthopoly import LaguerreSpec, _hahn_split, laguerre, legendre
from .specfun import _field, _quotient

__all__ = [
    "NrState",
    "Expectation",
    "energy_nr",
    "expect_r_power_nr",
    "expect_recurrence_nr",
    "inversion_check_nr",
    "screening_nr",
]

Real = Union[int, float, Fraction]

_LN2 = math.log(2.0)
# Entries kept by each of screening's two caches (angular weights per
# (l, |m|), density polynomial per (n, l)).  One density polynomial at
# n = 150 is ~60 kB, so a full cache of such states stays ~15 MB.
_SCREENING_CACHE = 256


@dataclass(frozen=True)
class NrState:
    """Quantum numbers (Z, n, l, m) of a bound hydrogen-like state."""

    Z: Real
    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.Z < math.inf:
            raise ValueError("Z must be positive and finite")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not isinstance(self.l, int) or not 0 <= self.l <= self.n - 1:
            raise ValueError("l must satisfy 0 <= l <= n-1")
        if not isinstance(self.m, int) or abs(self.m) > self.l:
            raise ValueError("m must satisfy |m| <= l")


@dataclass(frozen=True)
class Expectation:
    """A radial moment <r^p> together with its unit bookkeeping.

    value carries a factor unit**length_power.  The cancellation_flag is
    set by the relativistic closed form when it summed its bracket in
    exact rational arithmetic instead of binary64: after severe term
    cancellation, or where a binary64 term or the quotient left the
    range.  A value outside binary64 range is never returned: the
    routines raise ArithmeticError instead.
    """

    value: Real
    length_power: int
    unit: str  # "bohr_radius" | "compton_reduced"
    cancellation_flag: bool = False


def energy_nr(state: NrState) -> Real:
    """Bound level -Z^2/(2 n^2) in Hartree."""
    z = _field(state.Z)(state.Z)
    return -(z**2) / (2 * state.n**2)


def _exp(x):
    """e^x elementwise: math.exp on a float, numpy's exp on an array.

    The radial functions form x from a float, so a scalar radius (int,
    float, Fraction or numpy float64, a float subclass) takes math.exp;
    numpy is imported only when a caller passes an array.
    """
    if isinstance(x, float):
        return math.exp(x)
    import numpy as np

    return np.exp(x)


def _check_radius(r) -> None:
    """ValueError unless r (a scalar or an ndarray) is >= 0 and finite
    everywhere; numpy is consulted only for an array."""
    if isinstance(r, (int, float, Fraction)):
        inside = 0 <= r < math.inf
    else:
        import numpy as np

        inside = np.isfinite(r).all() and (r >= 0).all()
    if not inside:
        raise ValueError("r must be nonnegative and finite")


def radial_nr(state: NrState, r):
    """Radial function R_nl(r), r in Bohr radii, value in a0^(-3/2).

    Normalized so that the integral of R^2 r^2 over (0, inf) is 1.
    Accepts a scalar or an ndarray of radii; ValueError for a negative,
    nan or infinite radius (+inf too: R there is the limit 0, which the
    formula cannot form).
    """
    _check_radius(r)
    z = float(state.Z)
    n, l = state.n, state.l
    eta = (2.0 * z / n) * r
    norm = (
        (2.0 / n**2)
        * z**1.5
        * math.sqrt(math.factorial(n - l - 1) / math.factorial(n + l))
    )
    poly = laguerre(LaguerreSpec(n - l - 1, 2 * l + 1), eta)
    return norm * _exp(-eta / 2.0) * eta**l * poly


def expect_r_power_nr(state: NrState, p: int) -> Expectation:
    """<r^p> in a0^p units via the discrete Chebyshev closed forms.

    p >= -1 evaluates t_{p+1}(n-l-1, -2l-1); p <= -2 evaluates
    t_{-p-2}(n-l-1, -2l-1) times the inversion ratio (2l-k)!/(2l+k+1)!,
    admissible down to p = -2l-2.  ArithmeticError where the binary64
    moment leaves the range.
    """
    l = state.l
    if p >= -1:
        k = p + 1
        ratio = 1
    else:
        k = -p - 2
        if k > 2 * l:
            raise ValueError(
                f"p={p} violates p >= -2l-2 = {-2 * l - 2}: integral diverges"
            )
        ratio = _inversion_ratio(l, k)
    value = _chebyshev_moment(state, k, ratio, p)
    return Expectation(_in_range(value, "<r^%d>", p), p, "bohr_radius")


def _inversion_ratio(l: int, k: int) -> Fraction:
    """(2l-k)!/(2l+k+1)!, the factor tying <1/r^{k+2}> to <r^{k-1}>."""
    return Fraction(1, math.perm(2 * l + k + 1, 2 * k + 1))


def _chebyshev_moment(state: NrState, k: int, ratio, p: int):
    """ratio * t_k(n-l-1, -2l-1) * (n/2Z)^p / (2n) in the field of Z.

    The argument n-l-1 carries the field into the series; the int
    prefactor (-1)^k (N-k)_k k!, ~(4l+1)! at k = 2l, meets k! and the
    exact ratio first: each alone leaves binary64 range for l >= 43.
    In the exact field the quotient by k!, the ratio, the series, the
    scale (n z_den)^p / (2 z_num)^p with Z = z_num/z_den, and 1/(2n)
    are joined by `specfun._quotient`, normalized once.  Where the
    binary64 product t (n/2Z)^p overflows, t meets 1/(2n) first, which
    keeps moments up to the largest double; every other value keeps the
    rounding of dividing last.
    """
    n, l = state.n, state.l
    field = _field(state.Z)
    prefactor, series = _hahn_split(field, k, 0, 0, -(2 * l + 1), n - l - 1)
    lead = prefactor // math.factorial(k)
    if field is Fraction:
        z_num, z_den = state.Z.as_integer_ratio()
        up, down = (n * z_den) ** abs(p), (2 * z_num) ** abs(p)
        if p < 0:
            up, down = down, up
        return _quotient((lead, ratio, series, up), (down, 2 * n))
    t = field(lead * ratio) * series
    scale = (n / (2 * field(state.Z))) ** p
    if not math.isfinite(t * scale):
        return t / (2 * n) * scale
    return t * scale / (2 * n)


def expect_recurrence_nr(state: NrState, k_max: int) -> list:
    """<r^k> for k = -1 .. k_max from the three-term moment recurrence.

    Seeds <1/r> = Z/n^2 and <1> = 1; each further moment costs O(1).
    Must agree with expect_r_power_nr everywhere.  ArithmeticError where
    a binary64 value leaves the range.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    n, l = state.n, state.l
    field = _field(state.Z)
    z = field(state.Z)
    scale = n / (2 * z)
    values = [z / n**2, field(1)]
    for k in range(1, k_max + 1):
        lead = 2 * n * (2 * k + 1) * scale * values[-1]
        trail = k * ((2 * l + 1) ** 2 - k**2) * scale**2 * values[-2]
        values.append(_in_range((lead - trail) / (k + 1), "<r^%d>", k))
    return [Expectation(v, k, "bohr_radius") for k, v in enumerate(values, start=-1)]


def inversion_check_nr(state: NrState, k: int):
    """Both sides of the moment inversion relation, 0 <= k <= 2l.

    Returns (<1/r^{k+2}>, (2Z/n)^{2k+1} (2l-k)!/(2l+k+1)! <r^{k-1}>);
    the two are equal by construction of the closed forms.  In the exact
    field the factor (2Z/n)^(2k+1) folds, as integers, into the scale
    (n/2Z)^(k-1) of <r^{k-1}>; what is left is the one quotient of the
    left side, so that one Fraction is both sides.  In binary64 the right
    side is the factor times <r^{k-1}>, rounded on its own.
    """
    l = state.l
    if not 0 <= k <= 2 * l:
        raise ValueError(f"k={k} violates 0 <= k <= 2l = {2 * l}")
    # the ratio, ~1/(4l+1)! at k = 2l, joins each moment before the field
    ratio = _inversion_ratio(l, k)
    lhs = _in_range(_chebyshev_moment(state, k, ratio, -(k + 2)), "<r^%d>", -(k + 2))
    if _field(state.Z) is Fraction:
        return lhs, lhs
    factor = (2 * float(state.Z) / state.n) ** (2 * k + 1)
    return lhs, factor * _chebyshev_moment(state, k, ratio, k - 1)


@lru_cache(maxsize=_SCREENING_CACHE)
def _density_poly(n: int, l: int) -> tuple:
    """Integer coefficients, lowest power first, of (N! L_N^(2l+1))^2 with
    N = n-l-1.  In eta = 2Zr/n the density r^2 R^2 dr is e^-eta eta^(2l+2)
    times this polynomial, divided by K = N! (n+l)! 2n, d eta."""
    N = n - l - 1
    shape = [
        (-1) ** j * math.perm(N, N - j) * math.comb(n + l, N - j) for j in range(N + 1)
    ]
    return tuple(
        sum(shape[j] * shape[i - j] for j in range(max(0, i - N), min(i, N) + 1))
        for i in range(2 * N + 1)
    )


@lru_cache(maxsize=_SCREENING_CACHE)
def _multipole_weights(l: int, m_abs: int) -> tuple:
    """((L, c_L), ...) over the even L <= 2l whose Clebsch-Gordan pair
    c_L = (l m L 0|l m)(l 0 L 0|l 0) is nonzero, with m = m_abs.  For even L
    the 3j sign-reversal symmetry (DLMF 34.3) gives the same c_L at -m."""
    pairs = []
    for big_l in range(0, 2 * l + 1, 2):
        coupling = clebsch_gordan(l, m_abs, big_l, 0, l, m_abs) * clebsch_gordan(
            l, 0, big_l, 0, l, 0
        )
        if coupling != 0.0:
            pairs.append((big_l, coupling))
    return tuple(pairs)


def _damped(num: int, den: int, eta: float) -> float:
    """e^-eta num/den with no intermediate overflow or underflow."""
    if num == 0:
        return 0.0
    shift = num.bit_length() - den.bit_length()
    mantissa = (num << max(-shift, 0)) / (den << max(shift, 0))
    # past eta = 700 the exponential is taken 2^steps larger, ldexp undoes it
    steps = max(0, math.ceil((eta - 700.0) / _LN2))
    return math.ldexp(mantissa * math.exp(steps * _LN2 - eta), shift - steps)


def screening_nr(state: NrState, r: float, theta: float = 0.0) -> float:
    """Mean potential of nucleus plus bound electron, in e/a0 units.

    V = (Z - sum_L w_L M_L) / r over even L <= 2l, w_L the Clebsch-Gordan
    pair (l m L 0|l m)(l 0 L 0|l 0) times P_L(cos theta).  The pair depends
    only on the integers (l, |m|): for even L, reversing every projection
    of a 3j symbol multiplies it by (-1)^L = 1.  So the pairs of one
    (l, |m|), and the density polynomial of one (n, l), are computed once
    and reused by every later call (`_multipole_weights`, `_density_poly`;
    bounded caches).  In eta = 2Zr/n and the density rho of
    `_density_poly`, M_L = eta^-L int_0^eta rho t^L + eta^(L+1) int_eta^inf
    rho t^(-L-1).  With f_k k! the moments of the integrand's polynomial,
    C their sum and e_k the exponential series cut after eta^k/k!, each
    tail integral is e^-eta sum_k f_k k! e_k (DLMF 8.4.8).  Where the full
    multipole C eta^-L / K is at most 1 the interior is C minus its tail,
    costing at most one rounding in r V; elsewhere it is e^-eta sum_k f_k
    k! (e^eta - e_k), whose shared tail of positive terms is summed until
    it is below 2^-60 of the result.  Every sum is exact at the binary64
    eta and only e^-eta is rounded: any n, any finite r > 0 where V is
    within binary64 range (ArithmeticError otherwise, e.g. a subnormal
    r).  The ground state gives (Z-1)/r + (1/r + Z) e^{-2Zr}.
    """
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    n, l, m = state.n, state.l, state.m
    z = float(state.Z)
    eta = 2.0 * z * r / n
    p, q = eta.as_integer_ratio()
    e = q.bit_length() - 1  # eta = p / 2^e
    square = _density_poly(n, l)
    norm = math.factorial(n - l - 1) * math.factorial(n + l) * 2 * n
    top = 2 * (n + l)  # highest power of any integrand
    fact = [math.factorial(k) for k in range(top + 1)]
    term = fact[top] << e * top
    partial = [term]  # top! 2^(e top) e_k(eta), exact
    for k in range(1, top + 1):
        term = (term * p >> e) // k
        partial.append(partial[-1] + term)
    scale = fact[top] * norm << e * top

    def multipole(big_l: int) -> float:
        low = 2 * l + 2 + big_l  # interior t^low P, exterior t^(low-2L-1) P
        inner = [c * fact[low + i] for i, c in enumerate(square)]
        total = sum(inner)
        out = low - 2 * big_l - 1
        outer = sum(c * fact[out + i] * partial[out + i] for i, c in enumerate(square))
        p_l = p**big_l
        beyond = total << e * big_l <= norm * p_l
        if beyond:
            num, den = -sum(c * partial[low + i] for i, c in enumerate(inner)), 1
        else:
            # plus C times e^eta past eta^top/top!, on partial's scale
            num = sum(c * (partial[top] - partial[low + i]) for i, c in enumerate(inner))
            den, k, last = 1, top, term
            while True:
                k += 1
                last *= p
                step = total * last
                num, den = (num * k << e) + step, den * k << e
                # once k + 1 >= 2 eta each step at least halves, so what is
                # left is below this step, which is below 2^-60 of the sum
                if 2 * p <= (k + 1) << e and step << 60 <= num:
                    break
        # eta^-L (interior) + eta^(L+1) (exterior) over one denominator
        num = (num << e * (2 * big_l + 1)) + outer * den * p_l * p_l * p
        near = _damped(num, den * p_l * scale << e * (big_l + 1), eta)
        return ((total << e * big_l) / (norm * p_l) if beyond else 0.0) + near

    electron = 0.0
    for big_l, coupling in _multipole_weights(l, abs(m)):
        electron += coupling * legendre(big_l, math.cos(theta)) * multipole(big_l)
    return _in_range((z - electron) / r, "the potential at r = %r", r)


def _in_range(value: Real, what: str, *args) -> Real:
    """value, or ArithmeticError where a binary64 value left the range,
    named by `what % args` (formatted only then); exact values pass
    unchecked."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"{what % args} exceeds binary64 range")
    return value
