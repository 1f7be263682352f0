"""Angular machinery for central-field bound states.

Spherical harmonics in the physics convention (phase carried by the m >= 0
harmonics, Y_{l,-m} = (-1)^m conj(Y_lm)), Clebsch-Gordan coefficients by the
Racah single-sum formula in exact integer arithmetic, and two-component
spinor spherical harmonics for total angular momentum j = l -+ 1/2.

Half-integers are represented exactly by their doubled value (HalfInt), so
no parity information is lost to floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


__all__ = [
    "HalfInt",
    "Spinor2",
    "spherical_harmonic",
    "clebsch_gordan",
    "clebsch_gordan_exact",
    "spinor_harmonic",
]

HalfIntLike = Union["HalfInt", int, float, Fraction]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z stored as its doubled value."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int):
            raise ValueError("HalfInt stores the doubled value as an int")

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice(value: HalfIntLike) -> int:
    """Doubled value of an exact half-integer; rejects anything else."""
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, bool):
        raise ValueError("expected a half-integer, got a bool")
    if isinstance(value, int):
        return 2 * value
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return int(doubled)


@dataclass(frozen=True)
class Spinor2:
    """Two-component spinor (upper, lower)."""

    up: complex
    down: complex

    def norm_squared(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2


def _normalized_legendre(l: int, m: int, x: float) -> float:
    """sqrt((2l+1)/4pi (l-m)!/(l+m)!) P_l^m(x) for 0 <= m <= l, no phase.

    Starts from the normalized sectoral value sqrt((2m+1)/4pi prod_{i<=m}
    (2i-1)/(2i)) (1-x^2)^(m/2) and climbs in degree with the normalized
    three-term recurrence, so no factorial is formed and every
    intermediate stays within sqrt((2l+1)/4pi) for any l.
    """
    sine_sq = max(0.0, 1.0 - x * x)
    ratio = 1.0
    for i in range(1, m + 1):
        ratio *= (2 * i - 1) / (2 * i)
    curr = math.sqrt((2 * m + 1) / (4.0 * math.pi) * ratio) * sine_sq ** (m / 2.0)
    if l == m:
        return curr
    prev, curr = curr, x * math.sqrt(2 * m + 3) * curr
    for degree in range(m + 2, l + 1):
        lead = math.sqrt((4 * degree * degree - 1) / (degree * degree - m * m))
        back = math.sqrt(
            ((degree - 1) ** 2 - m * m) / (4 * (degree - 1) ** 2 - 1)
        )
        prev, curr = curr, lead * (x * curr - back * prev)
    return curr


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Y_lm(theta, phi), physics convention.

    Y_10 = sqrt(3/4pi) cos(theta) and Y_11 = -sqrt(3/8pi) sin(theta) e^(i phi)
    fix the phases; Y_{l,-m} = (-1)^m conj(Y_lm).  Any degree l.
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid harmonic index l={l}, m={m}")
    mm = abs(m)
    value = _normalized_legendre(l, mm, math.cos(theta))
    if mm % 2:
        value = -value
    result = value * cmath.exp(1j * mm * phi)
    if m < 0:
        result = result.conjugate()
        if mm % 2:
            result = -result
    return result


def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int):
    """(sign, squared value) of the Clebsch-Gordan coefficient, exact.

    Doubled arguments.  Zero (0, Fraction(0)) when a selection rule fails;
    ValueError for arguments that are not valid angular momenta.
    """
    for j, m in ((tj1, tm1), (tj2, tm2), (tj, tm)):
        if j < 0:
            raise ValueError("angular momentum must be nonnegative")
        if (j + m) % 2:
            raise ValueError("j and m must differ by an integer")
    zero = (0, Fraction(0))
    if tm1 + tm2 != tm:
        return zero
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return zero
    # Coupling requires an integer j1 + j2 - j within the triangle.
    if (tj1 + tj2 + tj) % 2:
        return zero
    if not abs(tj1 - tj2) <= tj <= tj1 + tj2:
        return zero

    def fact(doubled: int) -> int:
        return math.factorial(doubled // 2)

    running = Fraction(0)
    k_lo = max(0, (tj2 - tj - tm1) // 2, (tj1 - tj + tm2) // 2)
    k_hi = min(
        (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    for k in range(k_lo, k_hi + 1):
        den = (
            math.factorial(k)
            * fact(tj1 + tj2 - tj - 2 * k)
            * fact(tj1 - tm1 - 2 * k)
            * fact(tj2 + tm2 - 2 * k)
            * fact(tj - tj2 + tm1 + 2 * k)
            * fact(tj - tj1 - tm2 + 2 * k)
        )
        running += Fraction(-1 if k % 2 else 1, den)
    if running == 0:
        return zero
    square = Fraction(tj + 1) * running ** 2
    square *= Fraction(
        fact(tj1 + tj2 - tj) * fact(tj1 - tj2 + tj) * fact(tj2 - tj1 + tj),
        fact(tj1 + tj2 + tj + 2),
    )
    square *= (
        fact(tj + tm) * fact(tj - tm)
        * fact(tj1 + tm1) * fact(tj1 - tm1)
        * fact(tj2 + tm2) * fact(tj2 - tm2)
    )
    return (1 if running > 0 else -1), square


def clebsch_gordan_exact(
    j1: HalfIntLike, m1: HalfIntLike, j2: HalfIntLike, m2: HalfIntLike,
    j: HalfIntLike, m: HalfIntLike,
):
    """Exact Clebsch-Gordan data: (sign, squared coefficient as Fraction)."""
    return _cg_doubled(
        _twice(j1), _twice(m1), _twice(j2), _twice(m2), _twice(j), _twice(m)
    )


def clebsch_gordan(
    j1: HalfIntLike, m1: HalfIntLike, j2: HalfIntLike, m2: HalfIntLike,
    j: HalfIntLike, m: HalfIntLike,
) -> float:
    """<j1 m1, j2 m2 | j m> as a float (Condon-Shortley phases)."""
    sign, square = clebsch_gordan_exact(j1, m1, j2, m2, j, m)
    return sign * math.sqrt(square)


def spinor_harmonic(
    j: HalfIntLike, m: HalfIntLike, branch: int, theta: float, phi: float
) -> Spinor2:
    """Spin-orbital spinor harmonic for j = l -+ 1/2.

    branch=+1 couples l = j + 1/2 (kappa = +(j+1/2)), branch=-1 couples
    l = j - 1/2 (kappa = -(j+1/2)).  Components carry Y_{l, m-+1/2}; a
    component whose coefficient vanishes is skipped, never evaluated out of
    range.
    """
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    tj, tm = _twice(j), _twice(m)
    if tj < 1 or tj % 2 == 0:
        raise ValueError("j must be a positive half-odd-integer")
    if (tj + tm) % 2 != 0 or abs(tm) > tj:
        raise ValueError(f"invalid projection m={HalfInt(tm)} for j={HalfInt(tj)}")
    if branch == 1:
        l = (tj + 1) // 2
        up_sq = Fraction(tj - tm + 2, 2 * (tj + 2))
        up_sign = -1
        down_sq = Fraction(tj + tm + 2, 2 * (tj + 2))
    else:
        l = (tj - 1) // 2
        up_sq = Fraction(tj + tm, 2 * tj)
        up_sign = 1
        down_sq = Fraction(tj - tm, 2 * tj)
    up = 0j
    if up_sq:
        up = up_sign * math.sqrt(up_sq) * spherical_harmonic(
            l, (tm - 1) // 2, theta, phi
        )
    down = 0j
    if down_sq:
        down = math.sqrt(down_sq) * spherical_harmonic(l, (tm + 1) // 2, theta, phi)
    return Spinor2(up, down)
