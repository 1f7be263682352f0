"""Gamma-family primitives and terminating hypergeometric series.

Everything here is a pure function of its arguments.

Number fields: a closed form is evaluated exactly, over
`fractions.Fraction`, if and only if every numeric input is an int
(not a bool) or a Fraction; otherwise it runs in binary64.  `_field`
applies this rule.  Each public call decides its field once, at its
entry, and hands it to the private bodies below, which do not ask again.

A terminating series has two public entries, `hyp_terminating` (binary64)
and `hyp_terminating_exact`, which name their field, convert the
parameters of a `HypSeriesSpec` to it and find where the series stops.
Each runs the one private body of its field: `_series_float`, a
compensated binary64 sum, and `_series_exact`, a Horner sum, last term
first, on one integer numerator and one integer denominator.  The closed
forms whose parameters and stopping index are known (`orthopoly`'s Hahn
body, and through it the NR and Dirac moments) call those bodies
directly, so a hot moment builds no spec.  A public entry refuses a
non-finite float input with ValueError (`_refuse_non_finite`); the
private bodies trust their callers.

The exact closed forms made of such factors (`orthopoly.hahn`, the NR
moment, the master integrals and the linearization closed form) join
them through `_quotient`, the one exact join: it multiplies their integer
numerators and denominators and normalizes the one `Fraction` it
returns, so each exact value is normalized once where it is returned,
not once per operation.  `pochhammer` forms a Fraction's product over
the numerator.  The linearization sum (`laguerre_integrals`) runs on
integers in both fields, at the exact binary value of a float parameter,
and rounds a float result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HypSeriesSpec",
    "hyp_terminating",
    "hyp_terminating_exact",
    "inc_gamma_upper",
    "pochhammer",
]

_MAX_LENTZ_ITER = 500
_MAX_SERIES_ITER = 10_000
_TINY = 1e-300


def _field(*values) -> type:
    """The number field of `values`: `Fraction` when every one is an int
    (not a bool) or a Fraction, `float` otherwise."""
    for v in values:
        # a float answers at the first, cheapest test
        if isinstance(v, (float, bool)) or not isinstance(v, (int, Fraction)):
            return float
    return Fraction


def _refuse_non_finite(what: str, values) -> None:
    """ValueError, naming `what`, for a nan or infinite number among
    `values`; ints and Fractions pass unchecked."""
    for v in values:
        if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
            raise ValueError(f"{what} needs finite inputs, got {v!r}")


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a(a+1)...(a+n-1) as an exact product.

    Returns 0 when a is a nonpositive integer with |a| < n.  The result
    type follows `a`: int and Fraction inputs stay exact.  A Fraction
    p/q gives prod (p + kq) over ints divided by q^n, normalized once.
    ValueError for n < 0 or a non-finite a.
    """
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got {n}")
    _refuse_non_finite("pochhammer", (a,))
    return _pochhammer(a, n)


def _pochhammer(a, n: int):
    """`pochhammer` without the checks of its arguments.  The type test
    is exact, not isinstance, which costs an ABC dispatch per call on the
    hot float and int paths; a Fraction subclass takes the plain product,
    equally exact."""
    if type(a) is Fraction:
        p, q = a.as_integer_ratio()
        top = 1
        for k in range(n):
            top *= p + k * q
        return Fraction(top, q**n)
    result = a**0  # multiplicative unit in the type of a
    for k in range(n):
        result = result * (a + k)
    return result


def _integer_value(x) -> int | None:
    """int(x) when x is an integer-valued number, else None."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    return int(x) if float(x).is_integer() else None


@dataclass(frozen=True)
class HypSeriesSpec:
    """A generalized hypergeometric series at a fixed argument.

    The series is sum_k [prod_i (a_i)_k / prod_j (b_j)_k] z^k / k!.
    Terminating evaluation requires at least one numerator parameter to
    be a nonpositive integer; no denominator parameter may hit a pole
    before that termination index.
    """

    numerator_params: tuple
    denominator_params: tuple
    argument: object = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator_params", tuple(self.numerator_params))
        object.__setattr__(self, "denominator_params", tuple(self.denominator_params))

    def termination_index(self) -> int:
        """Smallest |a| over nonpositive-integer numerator parameters."""
        values = (_integer_value(p) for p in self.numerator_params)
        stops = [-v for v in values if v is not None and v <= 0]
        if not stops:
            raise ValueError(
                "series does not terminate: no nonpositive-integer numerator parameter"
            )
        return min(stops)


def _int_pair(x) -> tuple[int, int]:
    """x as (numerator, denominator) in lowest terms, exactly; anything
    `Fraction` takes (a numpy integer has no `as_integer_ratio`)."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return Fraction(x).as_integer_ratio()


def _quotient(ups, downs) -> Fraction:
    """prod(ups) / prod(downs) for ints and Fractions, as one Fraction:
    the integer numerators and denominators are multiplied out and the
    result is normalized once.  ZeroDivisionError for a zero in downs."""
    top = bottom = 1
    for x in ups:
        p, q = _int_pair(x)
        top *= p
        bottom *= q
    for x in downs:
        p, q = _int_pair(x)
        top *= q
        bottom *= p
    return Fraction(top, bottom)


def _pole_error(b, k: int, order: int) -> ValueError:
    return ValueError(
        f"denominator parameter {b} hits a pole at index {k + 1} "
        f"before termination at {order}"
    )


def hyp_terminating(spec: HypSeriesSpec) -> float:
    """Terminating series value in binary64 with compensated accumulation.

    ValueError for a non-finite parameter or argument."""
    nums, dens, z = spec.numerator_params, spec.denominator_params, spec.argument
    _refuse_non_finite("hyp_terminating", (*nums, *dens, z))
    return _series_float(
        [float(a) for a in nums],
        [float(b) for b in dens],
        float(z),
        spec.termination_index(),
    )


def _series_float(nums, dens, z: float, order: int) -> float:
    """The series' first order + 1 terms at float parameters: the one
    binary64 series loop.

    Each term is added as it is formed, with Neumaier's compensation,
    which keeps alternating-sign sums honest.
    """
    term = total = 1.0
    carry = 0.0
    for k in range(order):
        ratio = z / (k + 1)
        for a in nums:
            ratio *= a + k
        for b in dens:
            factor = b + k
            if factor == 0:
                raise _pole_error(b, k, order)
            ratio /= factor
        term *= ratio
        fresh = total + term
        if abs(total) >= abs(term):
            carry += (total - fresh) + term
        else:
            carry += (term - fresh) + total
        total = fresh
    return total + carry


def hyp_terminating_exact(spec: HypSeriesSpec) -> Fraction:
    """Terminating series value as a Fraction (parameters must be rational;
    a finite float is taken at its exact binary value, a non-finite one
    raises ValueError).
    """
    nums, dens, z = spec.numerator_params, spec.denominator_params, spec.argument
    _refuse_non_finite("hyp_terminating_exact", (*nums, *dens, z))
    return _series_exact(
        [_int_pair(a) for a in nums],
        [_int_pair(b) for b in dens],
        _int_pair(z),
        spec.termination_index(),
    )


def _series_exact(nums, dens, z: tuple, order: int) -> Fraction:
    """The series' first order + 1 terms at parameters given as integer
    pairs (p, q) = p/q, and z likewise: the one exact series loop.

    Each parameter p/q enters the term ratio as (p + kq)/q, so the sum
    1 + r_0 (1 + r_1 (1 + ... r_{N-1})) runs by Horner, last term first,
    on one integer numerator and one integer denominator, and the
    Fraction is normalized once at the end.
    """
    z_top, z_bottom = z
    # (p + kq) vanishes for k >= 0 only at an integer p/q = -k (q = 1)
    poles = [-p for p, q in dens if q == 1 and -order < p <= 0]
    if poles:
        k = min(poles)
        raise _pole_error(-k, k, order)
    up_const = z_top * math.prod(q for _, q in dens)
    down_const = z_bottom * math.prod(q for _, q in nums)
    top = bottom = 1
    for k in reversed(range(order)):
        up = up_const
        for p, q in nums:
            up *= p + k * q
        down = down_const * (k + 1)
        for p, q in dens:
            down *= p + k * q
        top, bottom = down * bottom + up * top, down * bottom
    return Fraction(top, bottom)


def _hyp_in(field: type, spec: HypSeriesSpec):
    """The series through the public evaluator of `field`."""
    if field is Fraction:
        return hyp_terminating_exact(spec)
    return hyp_terminating(spec)


def _inc_gamma_lower_series(alpha: float, z: float) -> float:
    """Lower incomplete gamma via its standard power series (z < alpha + 1)."""
    shifted = alpha
    term = 1.0 / alpha
    total = term
    for _ in range(_MAX_SERIES_ITER):
        shifted += 1.0
        term *= z / shifted
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(alpha * math.log(z) - z)
    raise ArithmeticError(
        f"lower incomplete gamma series failed to converge for alpha={alpha}, z={z}"
    )


def _inc_gamma_upper_lentz(alpha: float, z: float) -> float:
    """Upper incomplete gamma via the Lentz continued fraction (z >= alpha + 1)."""
    b = z + 1.0 - alpha
    c = 1.0 / _TINY
    d = 1.0 / (b if b != 0.0 else _TINY)
    h = d
    for i in range(1, _MAX_LENTZ_ITER + 1):
        coeff = -i * (i - alpha)
        b += 2.0
        d = coeff * d + b
        if d == 0.0:
            d = _TINY
        c = b + coeff / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(alpha * math.log(z) - z) * h
    raise ArithmeticError(
        f"incomplete gamma continued fraction failed to converge for alpha={alpha}, z={z}"
    )


def inc_gamma_upper(alpha: float, z: float) -> float:
    """Upper incomplete gamma Gamma(alpha, z) for alpha > 0, z >= 0.

    Split at z = alpha + 1: lower-series complement below, Lentz
    continued fraction above.  Satisfies the standard recurrence
    Gamma(alpha+1, z) = alpha*Gamma(alpha, z) + z^alpha e^{-z} and the
    finite elementary sum for integer alpha.
    """
    if alpha <= 0:
        raise ValueError(f"inc_gamma_upper requires alpha > 0, got {alpha}")
    if z < 0:
        raise ValueError(f"inc_gamma_upper requires z >= 0, got {z}")
    if z == 0.0:
        return math.gamma(alpha)
    if z < alpha + 1.0:
        return math.gamma(alpha) - _inc_gamma_lower_series(alpha, z)
    return _inc_gamma_upper_lentz(alpha, z)
