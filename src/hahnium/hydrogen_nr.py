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
from typing import Union

import numpy as np

from .angular import clebsch_gordan
from .laguerre_integrals import JSpec, j_diag_positive, j_integral_incomplete
from .orthopoly import HahnParams, LaguerreSpec, _hahn_split, laguerre, legendre
from .specfun import _field

__all__ = [
    "NrState",
    "Expectation",
    "energy_nr",
    "radial_nr",
    "expect_r_power_nr",
    "expect_recurrence_nr",
    "inversion_check_nr",
    "deviation_nr",
    "virial_check_nr",
    "screening_nr",
]

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class NrState:
    """Quantum numbers (Z, n, l, m) of a bound hydrogen-like state."""

    Z: Real
    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        if not self.Z > 0:
            raise ValueError("Z must be positive")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not isinstance(self.l, int) or not 0 <= self.l <= self.n - 1:
            raise ValueError("l must satisfy 0 <= l <= n-1")
        if not isinstance(self.m, int) or abs(self.m) > self.l:
            raise ValueError("m must satisfy |m| <= l")


@dataclass(frozen=True)
class Expectation:
    """A radial moment <r^p> together with its unit bookkeeping.

    value carries a factor unit**length_power; method records whether it
    came from a closed form or from the quadrature oracle.  The
    cancellation_flag is set by the relativistic closed form when severe
    term cancellation forced the rational fallback path.
    """

    value: Real
    length_power: int
    unit: str  # "bohr_radius" | "compton_reduced"
    method: str  # "closed_form" | "oracle"
    cancellation_flag: bool = False


def energy_nr(state: NrState) -> Real:
    """Bound level -Z^2/(2 n^2) in Hartree."""
    z = _field(state.Z)(state.Z)
    return -(z**2) / (2 * state.n**2)


def radial_nr(state: NrState, r):
    """Radial function R_nl(r), r in Bohr radii, value in a0^(-3/2).

    Normalized so that the integral of R^2 r^2 over (0, inf) is 1.
    Accepts a scalar or an ndarray of radii.
    """
    z = float(state.Z)
    n, l = state.n, state.l
    eta = (2.0 * z / n) * r
    norm = (
        (2.0 / n**2)
        * z**1.5
        * math.sqrt(math.factorial(n - l - 1) / math.factorial(n + l))
    )
    exp = np.exp if isinstance(eta, np.ndarray) else math.exp
    poly = laguerre(LaguerreSpec(n - l - 1, 2 * l + 1), eta)
    return norm * exp(-eta / 2.0) * eta**l * poly


def expect_r_power_nr(state: NrState, p: int) -> Expectation:
    """<r^p> in a0^p units via the discrete Chebyshev closed forms.

    p >= -1 evaluates t_{p+1}(n-l-1, -2l-1); p <= -2 evaluates
    t_{-p-2}(n-l-1, -2l-1) times the inversion ratio (2l-k)!/(2l+k+1)!,
    admissible down to p = -2l-2.
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
    return Expectation(value, p, "bohr_radius", "closed_form")


def _inversion_ratio(l: int, k: int) -> Fraction:
    """(2l-k)!/(2l+k+1)!, the factor tying <1/r^{k+2}> to <r^{k-1}>."""
    return Fraction(math.factorial(2 * l - k), math.factorial(2 * l + k + 1))


def _chebyshev_moment(state: NrState, k: int, ratio, p: int):
    """ratio * t_k(n-l-1, -2l-1) * (n/2Z)^p / (2n) in the field of Z.

    The argument n-l-1 carries the field into the series; the int
    prefactor (-1)^k (N-k)_k k!, ~(4l+1)! at k = 2l, meets k! and the
    exact ratio first: each alone leaves binary64 range for l >= 43.
    """
    n, l = state.n, state.l
    field = _field(state.Z)
    params = HahnParams(k, 0, 0, -(2 * l + 1))
    _, prefactor, series = _hahn_split(params, field(n - l - 1))
    t = field(prefactor // math.factorial(k) * ratio) * series
    scale = n / (2 * field(state.Z))
    return t * scale**p / (2 * n)


def expect_recurrence_nr(state: NrState, k_max: int) -> list:
    """<r^k> for k = -1 .. k_max from the three-term moment recurrence.

    Seeds <1/r> = Z/n^2 and <1> = 1; each further moment costs O(1).
    Must agree with expect_r_power_nr everywhere.
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
        values.append((lead - trail) / (k + 1))
    return [
        Expectation(v, k, "bohr_radius", "closed_form")
        for k, v in enumerate(values, start=-1)
    ]


def inversion_check_nr(state: NrState, k: int):
    """Both sides of the moment inversion relation, 0 <= k <= 2l.

    Returns (<1/r^{k+2}>, (2Z/n)^{2k+1} (2l-k)!/(2l+k+1)! <r^{k-1}>);
    the two are equal by construction of the closed forms.
    """
    l = state.l
    if not 0 <= k <= 2 * l:
        raise ValueError(f"k={k} violates 0 <= k <= 2l = {2 * l}")
    lhs = expect_r_power_nr(state, -(k + 2)).value
    # the ratio, ~1/(4l+1)! at k = 2l, joins <r^{k-1}> before the field
    ratio = _inversion_ratio(l, k)
    factor = (2 * _field(state.Z)(state.Z) / state.n) ** (2 * k + 1)
    rhs = factor * _chebyshev_moment(state, k, ratio, k - 1)
    return lhs, rhs


def deviation_nr(state: NrState) -> Real:
    """Mean square deviation <(r - <r>)^2> in a0^2 units."""
    n, l = state.n, state.l
    shape = n**2 * (n**2 + 2) - l**2 * (l + 1) ** 2
    return shape / (2 * _field(state.Z)(state.Z)) ** 2


def virial_check_nr(state: NrState):
    """(<U>, 2E) in Hartree: mean potential energy against twice the level."""
    mean_u = -state.Z * expect_r_power_nr(state, -1).value
    return mean_u, 2 * energy_nr(state)


def _screen_moment_scale(state: NrState) -> float:
    n, l = state.n, state.l
    z = float(state.Z)
    return (
        (4.0 * z**3 / n**4)
        * math.factorial(n - l - 1)
        / math.factorial(n + l)
    )


def screening_nr(state: NrState, r: float, theta: float = 0.0) -> float:
    """Mean potential of nucleus plus bound electron, in e/a0 units.

    V(r, theta) = Z/r minus the multipole sum over even orders 2s <= 2l;
    each order splits into an interior moment over r' < r and an exterior
    tail, the tails running through upper incomplete gamma functions.
    For the ground state this collapses to (Z-1)/r + (1/r + Z) e^{-2Zr}.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    n, l, m = state.n, state.l, state.m
    z = float(state.Z)
    degree, alpha = n - l - 1, 2 * l + 1
    norm = _screen_moment_scale(state)
    xi = 2.0 * z * r / n

    def tail(k: int) -> float:
        # integral of r'^{k+2} R^2 over (r, inf)
        spec = JSpec(degree, degree, k + 1, alpha, alpha)
        return norm * (n / (2.0 * z)) ** (k + 3) * j_integral_incomplete(spec, xi)

    potential = z / r
    for s in range(l + 1):
        coupling = clebsch_gordan(l, m, 2 * s, 0, l, m) * clebsch_gordan(
            l, 0, 2 * s, 0, l, 0
        )
        if coupling == 0.0:
            continue
        full = (
            norm
            * (n / (2.0 * z)) ** (2 * s + 3)
            * j_diag_positive(degree, alpha, 2 * s + 1)
        )
        radial = (full - tail(2 * s)) / r ** (2 * s + 1) + r ** (2 * s) * tail(
            -2 * s - 1
        )
        potential -= coupling * legendre(2 * s, math.cos(theta)) * radial
    return potential
