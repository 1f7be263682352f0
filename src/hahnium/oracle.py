"""Independent brute-force ground truth.

Adaptive Gauss-Kronrod quadrature on (0, inf) or (0, upper) with analytic
handling of an endpoint singularity, bound-state moment oracles,
screening oracles built on one radial multipole integral that holds
from r -> 0 to r >> n^2, and a product sphere quadrature.  Nothing here
calls the closed-form modules it validates: the only internal imports
are the polynomial primitives needed to evaluate integrands (Laguerre,
and the normalized associated Legendre recurrence behind
`angular.spherical_harmonic`, which production screening does not use),
and the relativistic density is built from the traditional radial form
rather than the production one.  Every oracle column of the command
line comes from this module alone, so a fault in a closed form cannot
show in both columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .angular import _normalized_legendre
from .orthopoly import LaguerreSpec, laguerre

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "brute_expect_nr",
    "brute_expect_rel",
    "brute_screening",
    "brute_screening_nr",
    "brute_screening_rel",
    "quad_semi_infinite",
    "sphere_quad",
]

DEFAULT_BUDGET = 2_000_000

# Gauss-Kronrod 7/15 pair on [-1, 1], positive half, nodes descending:
# the QUADPACK qk15 constants (Piessens et al., 1983).  Certified by the
# polynomial-exactness tests (Kronrod exact through degree 22, embedded
# Gauss through 13).
_NODES_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_K_WEIGHTS_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_G_WEIGHTS_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

GK_NODES = np.concatenate((-_NODES_HALF[:-1], _NODES_HALF[::-1]))
GK_WEIGHTS = np.concatenate((_K_WEIGHTS_HALF[:-1], _K_WEIGHTS_HALF[::-1]))
# The embedded Gauss rule lives on every second Kronrod node.
G_WEIGHTS = np.concatenate((_G_WEIGHTS_HALF[:-1], _G_WEIGHTS_HALF[::-1]))


class QuadratureError(ArithmeticError):
    """Raised when the evaluation budget is exhausted before convergence."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def quad_semi_infinite(
    integrand: Callable,
    singularity_exponent_at_0: float,
    decay_rate: float,
    rel_tol: float,
    abs_tol: float = 0.0,
    budget: int = DEFAULT_BUDGET,
    polynomial_degree: float = 0.0,
    upper: float = math.inf,
) -> QuadratureResult:
    """Adaptive integral of `integrand` over (0, upper), by default (0, inf).

    The integrand must accept numpy arrays elementwise, behave as
    x^sigma near 0 (sigma = singularity_exponent_at_0, supplied
    analytically by the caller and never estimated) and decay like
    exp(-d*x), d = decay_rate, times a polynomial of degree at most
    q = polynomial_degree; in this module a degree counts every power of
    x, x^sigma included.  The head (0, x1) and the tail (x1, inf),
    x1 = 1/d, are mapped from t in (0, 1) so that the mapped integrand
    is smooth at every end:

    * head, x = x1*t^m: m = 1 for integer sigma >= 0; m = 1/(sigma+1)
      for sigma < 0, which absorbs x^sigma; else m = ceil(4/(sigma+1)),
      which leaves t^(m*(sigma+1)-1), flat to third order at t = 0.
    * tail, x = x1 - s*log(1-t), s = max(16, reach/36, q/4)/d with
      reach = 74 + 3*q: exp(-d*x) becomes (1-t)^(s*d), at least
      (1-t)^16, which flattens the powers of log(1-t) at t = 1.  The
      q/4 term (it only acts for q > 64) keeps the peak of x^q e^(-d*x)
      at d*x ~ q near 1-t ~ e^(-4) instead of squeezing it against
      t = 1, where refinement would starve for q in the hundreds.

    Tail nodes beyond x_max = x1 + reach/d contribute 0 and never reach
    the integrand (t < 1 - eps caps the map at x1 + 36*s >= x_max
    anyway).  x^q e^(-d*x) alone would need a reach of about 1.5q; a
    squared polynomial of degree q needs 3q, because its roots, and so
    its mass, extend out to the classical turning point: a bound-state
    density L^2 x^k e^(-d*x) reaches d*x ~ 2q.  For the nonrelativistic
    densities with n <= 150 and every l, the integrand at x_max is below
    e^-69 of its peak; with a reach of 1.5q it was up to e^-0.6.
    Understating q silently biases the result, since mass that is never
    sampled cannot show in the error estimate.  Endpoints are never
    evaluated.  A finite `upper` cuts the integral at min(upper, x_max),
    all of it mapped as the head with x1 that end.

    Refinement runs in rounds over one shared panel list, as in
    QUADPACK's qk15/qag (Piessens et al., 1983) and
    scipy.integrate.quad_vec: each round bisects every panel whose
    |Kronrod - Gauss| exceeds its equal share of the tolerance (or the
    worst of them that the budget still pays for) and evaluates all
    new panels, head and tail, in one integrand call.  It converges
    when the error estimate is at most max(rel_tol*|value|, abs_tol);
    value and error are then summed exactly in panel order.

    `evaluations` counts the points passed to the integrand, at most
    `budget`.  QuadratureError is raised when the budget cannot pay for
    the next bisection, on a non-finite panel, and when a head node
    falls below the smallest normal float (sigma within about 0.01 of
    -1, where the head's mass is not representable, or a tiny upper
    end); ValueError for a non-finite or out-of-range control.
    """
    sigma = float(singularity_exponent_at_0)
    # written so that NaN fails: a NaN reach would leave every node outside
    if not -1.0 < sigma < math.inf:
        raise ValueError(f"singularity exponent must be > -1 and finite, got {sigma}")
    if not 0.0 < decay_rate < math.inf:
        raise ValueError(f"decay rate must be positive and finite, got {decay_rate}")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not math.isfinite(polynomial_degree):
        raise ValueError(f"polynomial degree must be finite, got {polynomial_degree}")
    if not 0.0 <= abs_tol < math.inf:
        raise ValueError(f"abs_tol must be finite and >= 0, got {abs_tol}")
    if not -math.inf < budget < math.inf:
        raise ValueError(f"budget must be finite, got {budget}")
    if not upper > 0.0:
        raise ValueError(f"upper end must be positive, got {upper}")

    x1 = 1.0 / decay_rate
    if sigma < 0.0:
        head_power = 1.0 / (sigma + 1.0)
    elif sigma.is_integer():
        head_power = 1.0
    else:
        head_power = float(math.ceil(4.0 / (sigma + 1.0)))
    degree = max(float(polynomial_degree), 0.0)
    reach = 74.0 + 3.0 * degree
    stretch = max(16.0, reach / 36.0, degree / 4.0) / decay_rate
    x_max = x1 + reach / decay_rate
    seeds = np.linspace(0.0, 2.0, 9)  # four head panels, four tail panels
    if upper < math.inf:  # a finite interval: the head panels alone
        x1 = x_max = min(upper, x_max)
        seeds = seeds[:5]

    # One coordinate u carries both pieces: the head's t = u on (0, 1),
    # the tail's t = u - 1 on (1, 2).
    def rule(lo: np.ndarray, hi: np.ndarray):
        """Kronrod values, |Kronrod - Gauss| and point count of panels."""
        half = 0.5 * (hi - lo)
        u = (0.5 * (lo + hi))[:, None] + half[:, None] * GK_NODES
        head = u < 1.0
        x = np.empty_like(u)
        weight = np.empty_like(u)
        t = u[head]
        x[head] = x1 * np.power(t, head_power)
        if np.any(x[head] < np.finfo(float).tiny):
            raise QuadratureError(
                f"head map {x1:g}*t^{head_power:g} underflows: sigma={sigma} "
                "is too close to -1 or the upper end too small"
            )
        weight[head] = x1 * head_power * np.power(t, head_power - 1.0)
        # 1 - t of the tail, exact; deep subdivision can round a node
        # onto t = 1, which is held at the last float below it.
        rest = np.maximum(2.0 - u[~head], 2.0**-52)
        x[~head] = x1 - stretch * np.log(rest)
        weight[~head] = stretch / rest
        inside = x <= x_max
        samples = np.zeros_like(u)
        samples[inside] = np.asarray(integrand(x[inside]), dtype=float) * weight[inside]
        kron = half * (samples @ GK_WEIGHTS)
        gauss = half * (samples[:, 1::2] @ G_WEIGHTS)
        return kron, np.abs(kron - gauss), int(np.count_nonzero(inside))

    panel_points = GK_NODES.size
    lo, hi = seeds[:-1], seeds[1:]
    if budget < lo.size * panel_points:
        raise QuadratureError(f"budget {budget} cannot pay for the initial panels")
    value, error, evaluations = rule(lo, hi)

    while True:
        total_value, total_error = float(value.sum()), float(error.sum())
        tolerance = max(rel_tol * abs(total_value), abs_tol)
        if not total_error > tolerance:
            break
        room = (budget - evaluations) // (2 * panel_points)
        if room < 1:
            raise QuadratureError(
                f"error estimate {total_error:.3e} above tolerance after "
                f"{evaluations} evaluations (value {total_value:.6e})"
            )
        split = np.flatnonzero(error > tolerance / error.size)
        if split.size > room:
            split = split[np.argsort(-error[split], kind="stable")[:room]]
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate((lo[split], mid))
        child_hi = np.concatenate((mid, hi[split]))
        child_value, child_error, points = rule(child_lo, child_hi)
        evaluations += points
        lo = np.concatenate((np.delete(lo, split), child_lo))
        hi = np.concatenate((np.delete(hi, split), child_hi))
        value = np.concatenate((np.delete(value, split), child_value))
        error = np.concatenate((np.delete(error, split), child_error))

    # Deterministic final reduction: exact summation in panel order.
    order = np.argsort(lo)
    value = math.fsum(value[order])
    error = math.fsum(error[order])
    if not (math.isfinite(value) and math.isfinite(error)):
        raise QuadratureError(
            f"non-finite panel encountered (value {value}, error {error})"
        )
    return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)


def _nr_density(z: float, n: int, l: int) -> Callable:
    """Unnormalized nonrelativistic radial density of r, from the Laguerre
    shape: e^(-eta) eta^(2l) L^2 with eta = 2zr/n."""
    scale = 2.0 * z / n
    spec = LaguerreSpec(n - l - 1, 2 * l + 1)
    peak = 2 * l

    def density(r: np.ndarray) -> np.ndarray:
        eta = scale * r
        shape = laguerre(spec, eta)
        # eta^(2l) e^(-eta) over its peak value, in log space: the plain
        # product overflows (eta^(2l)) or underflows (e^(-eta)) at large n
        if peak:
            weight = np.exp(peak * np.log(eta / peak) - (eta - peak))
        else:
            weight = np.exp(-eta)
        return weight * shape * shape

    return density


@lru_cache(maxsize=4096)
def _nr_moment(z: float, n: int, l: int, p: int, rel_tol: float) -> float:
    """Unnormalized nonrelativistic moment integral over the density shape."""
    density = _nr_density(z, n, l)
    return quad_semi_infinite(
        lambda r: density(r) * np.power(r, p + 2.0),
        2 * l + p + 2, 2.0 * z / n, rel_tol, polynomial_degree=2 * n + p,
    ).value


def brute_expect_nr(state, p: int, rel_tol: float = 1e-12) -> float:
    """Radial moment <r^p> (a0 units) of a nonrelativistic state by quadrature.

    The unnormalized density is assembled directly from the Laguerre
    shape; the normalization denominator is computed, not assumed.  The
    state object only needs Z, n, l attributes.
    """
    z, n, l = float(state.Z), int(state.n), int(state.l)
    if not 0 <= l < n:
        raise ValueError(f"need 0 <= l < n, got l={l}, n={n}")
    if p <= -2 * l - 3:
        raise ValueError(f"moment p={p} diverges for l={l} (need p >= {-2 * l - 2})")
    return _nr_moment(z, n, l, p, rel_tol) / _nr_moment(z, n, l, 0, rel_tol)


def _rel_density(mu: float, n_r: int, kappa: int) -> tuple:
    """(D, nu, a): the unnormalized Dirac radial density D = F^2 + G^2 of
    r (reduced Compton lengths) from the traditional radial form, with
    D ~ r^(2nu-2) at the origin and decay e^(-2ar).

    The large/small components are linear combinations of L_{n-1}^{2nu}
    and L_n^{2nu} (terms with L_{n-1} are zero at n_r = 0); overall
    constants are dropped.
    """
    nu = math.sqrt(kappa * kappa - mu * mu)
    hyp = math.hypot(n_r + nu, mu)
    eps = (n_r + nu) / hyp
    a = mu / hyp
    root_plus = math.sqrt(1.0 + eps)
    # sqrt(1 - eps) and kappa - nu both cancel catastrophically as
    # mu -> 0; route them through a and mu^2 instead.
    root_minus = a / root_plus
    kappa_minus_nu = mu * mu / (kappa + nu) if kappa > 0 else kappa - nu
    common_plus = kappa_minus_nu * root_plus + mu * root_minus
    common_minus = kappa_minus_nu * root_plus - mu * root_minus
    f_low, f_high = root_plus * common_plus, -root_plus * common_minus
    g_low, g_high = root_minus * common_plus, root_minus * common_minus
    spec_high = LaguerreSpec(n_r, 2.0 * nu)
    spec_low = LaguerreSpec(n_r - 1, 2.0 * nu) if n_r > 0 else None

    def density(r: np.ndarray) -> np.ndarray:
        xi = 2.0 * a * r
        high = laguerre(spec_high, xi)
        low = 0.0 if spec_low is None else laguerre(spec_low, xi)
        # the envelope xi^(nu-1) e^(-xi/2) goes on each component before
        # squaring, so that neither the square nor e^(-xi) leaves range
        envelope = np.power(xi, nu - 1.0) * np.exp(-xi / 2.0)
        f = (f_low * low + f_high * high) * envelope
        g = (g_low * low + g_high * high) * envelope
        return f * f + g * g

    return density, nu, a


@lru_cache(maxsize=4096)
def _rel_moment(mu: float, n_r: int, kappa: int, p: int, rel_tol: float) -> float:
    """Unnormalized Dirac moment integral over the density of `_rel_density`."""
    density, nu, a = _rel_density(mu, n_r, kappa)
    return quad_semi_infinite(
        lambda r: density(r) * np.power(r, p + 2.0), 2.0 * nu + p, 2.0 * a, rel_tol,
        polynomial_degree=2.0 * nu + 2 * n_r + p,
    ).value


def brute_expect_rel(state, p: int, rel_tol: float = 1e-12) -> float:
    """Radial moment <r^p> (Compton units) of a Dirac state by quadrature.

    The state object only needs mu, n_r, kappa attributes; the density
    route (traditional radial form) is disjoint from the production
    closed forms, and the normalization is computed.
    """
    mu, n_r, kappa = float(state.mu), int(state.n_r), int(state.kappa)
    if kappa == 0:
        raise ValueError("kappa must be a nonzero integer")
    if mu >= abs(kappa):
        raise ValueError(f"need mu < |kappa|, got mu={mu}, kappa={kappa}")
    if n_r < 0 or (n_r == 0 and kappa > 0):
        raise ValueError(f"state n_r={n_r}, kappa={kappa} does not exist")
    nu = math.sqrt(kappa * kappa - mu * mu)
    if 2.0 * nu + p + 1.0 <= 0.0:
        raise ValueError(f"moment p={p} diverges (need 2*nu + p + 1 > 0, nu={nu})")
    return (
        _rel_moment(mu, n_r, kappa, p, rel_tol)
        / _rel_moment(mu, n_r, kappa, 0, rel_tol)
    )


def _check_radius(z: float, r: float) -> None:
    """Refuse the r that production screening refuses (a subnormal r)."""
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if z / r == math.inf:
        raise ArithmeticError(f"the potential at r = {r!r} exceeds binary64 range")


def _multipole(density: Callable, sigma: float, decay_rate: float, degree: float,
               r: float, big_l: int, rel_tol: float, abs_tol: float = 0.0) -> float:
    """M_L(r) = r^-(L+1) int_0^r D s^(L+2) ds + r^L int_r^inf D s^(1-L) ds
    for a density D ~ s^sigma of polynomial degree `degree` times
    exp(-decay_rate*s).  Neither r^L nor s^L is formed: the interior is
    D s (s/r)^(L+1) over (0, r), cut at the density's reach, and the
    exterior D(s) s (r/s)^L at s = r + t over t > 0."""
    inner = quad_semi_infinite(
        lambda s: density(s) * s * (s / r) ** (big_l + 1),
        sigma + big_l + 2, decay_rate, rel_tol, abs_tol,
        polynomial_degree=degree + big_l + 2, upper=r,
    ).value
    outer = quad_semi_infinite(
        lambda t: density(r + t) * (r + t) * (r / (r + t)) ** big_l,
        0.0, decay_rate, rel_tol, abs_tol, polynomial_degree=degree + 1 - big_l,
    ).value
    return inner + outer


def brute_screening(
    radial_density: Callable,
    Z: float,
    r: float,
    singularity_exponent: float,
    decay_rate: float,
    rel_tol: float = 1e-12,
    polynomial_degree: float = 0.0,
) -> float:
    """Screened potential at r of a nucleus Z plus one electron, by
    quadrature over a spherically symmetric radial density D:

        V(r) = Z/r - M_0(r),  M_0 = (1/r) int_0^r D s^2 ds + int_r^inf D s ds

    assuming int_0^inf D s^2 ds = 1: one `_multipole` for every r.  D is
    s^singularity_exponent times a polynomial of degree at most
    polynomial_degree times exp(-decay_rate*s); this degree alone leaves
    out the power at the origin, and is converted here, once.
    """
    _check_radius(Z, r)
    return Z / r - _multipole(radial_density, singularity_exponent, decay_rate,
                              singularity_exponent + polynomial_degree, r, 0, rel_tol)


def brute_screening_rel(state, r: float, rel_tol: float = 1e-12) -> float:
    """Screened potential (e/a0) at r (Bohr radii) of a nucleus Z plus the
    electron of a Dirac state with |kappa| = 1, whose density is
    spherical: `brute_screening` over the density of `_rel_density`,
    normalized by its own quadrature.  The state object only needs Z, mu,
    alpha_fs, n_r, kappa attributes; ValueError for |kappa| != 1.
    """
    mu, n_r, kappa = float(state.mu), int(state.n_r), int(state.kappa)
    if abs(kappa) != 1:
        raise ValueError(f"kappa={kappa}: only |kappa| = 1 densities are spherical")
    _check_radius(float(state.Z), r)
    density, nu, a = _rel_density(mu, n_r, kappa)
    norm = _rel_moment(mu, n_r, kappa, 0, rel_tol)
    alpha = float(state.alpha_fs)
    return brute_screening(
        lambda s: density(s) / norm, float(state.Z), r / alpha, 2.0 * nu - 2.0,
        2.0 * a, rel_tol, polynomial_degree=2 * n_r,
    ) / alpha


@lru_cache(maxsize=64)
def _gauss_legendre(count: int) -> tuple:
    """(nodes, weights), ascending, of the count-point Gauss-Legendre rule
    on [-1, 1]: Tricomi's nodes (1 - 1/(8n^2) + 1/(8n^3)) cos(pi(4k-1) /
    (4n+2)) (Ann. Mat. Pura Appl. 31 (1950) 93) after three Newton steps
    on the Legendre recurrence, and weights 2 / ((1-x)(1+x) P'(x)^2),
    off by 6e-11 relative at 2048 nodes."""
    angle = math.pi * (4.0 * np.arange(count, 0, -1) - 1.0) / (4 * count + 2)
    x = (1.0 - (1.0 - 1.0 / count) / (8.0 * count * count)) * np.cos(angle)
    for step in range(4):
        prev, curr = np.ones_like(x), x
        for j in range(1, count):
            prev, curr = curr, ((2 * j + 1) * x * curr - j * prev) / (j + 1)
        sine_sq = (1.0 - x) * (1.0 + x)  # 1 - x*x loses digits next to +-1
        slope = count * (prev - x * curr) / sine_sq
        if step < 3:
            x = x - curr / slope
    return x, 2.0 / (sine_sq * slope * slope)


@lru_cache(maxsize=4096)
def _nr_multipoles(z: float, n: int, l: int, r: float, rel_tol: float) -> tuple:
    """(M_0, M_2, ...) for even L <= 2l by `_multipole`, over the Laguerre
    shape e^(-eta) eta^(2l) L^2 (degree 2n-2) normalized by its own
    quadrature.  D >= 0 gives |M_L| <= M_0, so past L = 0 an integral may
    also stop at an error of rel_tol times M_0: one far below M_0, even
    subnormal, then converges."""
    density = _nr_density(z, n, l)
    norm = _nr_moment(z, n, l, 0, rel_tol)
    out, abs_tol = [], 0.0
    for big_l in range(0, 2 * l + 1, 2):
        out.append(_multipole(density, 2 * l, 2.0 * z / n, 2 * n - 2, r, big_l,
                              rel_tol, abs_tol))
        abs_tol = rel_tol * out[0]
    return tuple(multipole / norm for multipole in out)


def _angular_weights(l: int, m: int, theta: float) -> list:
    """[w_L] for even L <= 2l: the mean of P_L(cos t) over the angular
    density |Y_lm(t)|^2 times P_L(cos theta).  |Y_lm|^2 is a polynomial
    of degree 2l in x = cos t, so 2l+1 Gauss-Legendre nodes in x integrate
    it times P_L exactly; the normalization is that same sum at L = 0.
    One Legendre three-term recurrence, run at the nodes and at cos theta,
    gives every P_L.  The density at the nodes is the square of the
    normalized associated Legendre recurrence: no factorial and no
    power-basis derivative, which loses every digit by l = 100."""
    count = 2 * l + 1
    x, weights = _gauss_legendre(count)
    points = np.append(x, math.cos(theta))
    rows = [np.ones_like(points), points]  # P_0, P_1, ..., P_2l
    for k in range(1, count - 1):
        rows.append(((2 * k + 1) * points * rows[k] - k * rows[k - 1]) / (k + 1))
    density = np.array([_normalized_legendre(l, abs(m), t) for t in x]) ** 2
    density *= weights
    density /= density.sum()
    return [
        float(density @ rows[big_l][:-1]) * float(rows[big_l][-1])
        for big_l in range(0, count, 2)
    ]


def brute_screening_nr(state, r: float, theta: float = 0.0,
                       rel_tol: float = 1e-12) -> float:
    """Mean potential (e/a0) at (r, theta) of a nucleus Z plus the
    electron of a nonrelativistic state, multipole by multipole:

        V = Z/r - sum_L w_L M_L

    with M_L the radial multipoles by quadrature of the Laguerre-shape
    density (cached per Z, n, l, r and rel_tol, so the states m = 0..l
    at one radius share them) and w_L the angular weights by exact
    Gauss-Legendre over |Y_lm|^2.  Any l; the state object only needs
    Z, n, l, m attributes.
    """
    z, n, l, m = float(state.Z), int(state.n), int(state.l), int(state.m)
    if not 0 <= l < n or abs(m) > l:
        raise ValueError(f"need 0 <= l < n and |m| <= l, got n={n}, l={l}, m={m}")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    _check_radius(z, r)
    multipoles = _nr_multipoles(z, n, l, float(r), rel_tol)
    weights = _angular_weights(l, m, theta)
    electron = math.fsum(w * radial for w, radial in zip(weights, multipoles))
    return z / r - electron


def sphere_quad(f: Callable, degree: int) -> complex:
    """Integral of f(theta, phi) over the unit sphere.

    Gauss-Legendre in cos(theta) crossed with a uniform phi grid; exact
    for integrands band-limited to the given spherical-harmonic degree.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n_theta = degree // 2 + 1
    roots, weights = _gauss_legendre(n_theta)
    n_phi = degree + 1
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    total = 0j
    for root, weight in zip(roots, weights):
        theta = math.acos(float(root))
        row = 0j
        for phi in phis:
            row += f(theta, float(phi))
        total += weight * row
    return total * (2.0 * math.pi / n_phi)
