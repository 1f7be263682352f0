"""Seeded request lists for the four workloads, each request with its check.

A draw is a list of groups; a group is one table (one state, one spec) whose
requests run one after another.  Every request carries a thunk that looks the
program's function up on its module at call time (so the traced run sees the
rebound, span-recording version), a check made outside the timed region, and
the number of values it yields.  References are computed here, before any
timing starts.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from hahnium import hydrogen_nr as nr
from hahnium import hydrogen_rel as rel
from hahnium import laguerre_integrals as li
from hahnium import oracle
from hahnium import orthopoly as op

import refs

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Draw sizes.  Chosen so one pass of each in-process workload takes about a
# second on a 2-core EPYC and every request type has a share of the time.
NR_Z_PER_STATE = 4  # tabulate: float Z draws per (n, l), n <= 12
REL_Z_PER_STATE = 4  # tabulate: Z draws per (n_r, kappa)
SCREEN_RADII = 4  # tabulate: log-spaced radii per screening table
REL1S_TABLES = 12  # tabulate: screening_rel_1s tables
RATIONAL_Z_PER_STATE = 3  # rational: Fraction Z draws per (n, l), n <= 8
J_SPECS = 240  # rational: master-integral specs, both routes each
J_DIAG = 160  # rational: diagonal specs, each of positive and negative
LIN_DENOMINATORS = (2, 3, 4)  # rational: one seeded alpha each per (n, m), n <= 8
HAHN_PER_DEGREE = 36  # rational: Hahn polynomials per degree k <= 8
CLI_RANDOM = 37  # cli: seeded invocations (plus the three golden ones)

NR_TOL = 1e-9
REL_SPECIAL_TOL = 1e-11
REL_HAHN_TOL = 1e-9
ORACLE_TOL = 1e-9
SCREEN_TOL = 1e-9
CLI_TOL = 1e-12

SPECIAL_CASES = {"r2": 2, "r1": 1, "one": 0, "rm1": -1, "rm2": -2, "rm3": -3}
KNOWN_DEFECTS = {
    "screening_nr": "ROADMAP item 3: multipole cancellation for l >= 3, large n, large r",
}


@dataclass
class Request:
    key: tuple  # JSON-able identity: function name first, then its inputs
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right
    values: int = 1


@dataclass
class Group:
    requests: list
    before: Optional[Callable[[], None]] = None  # runs untimed before the group


def _call(module, name: str, *args):
    return lambda: getattr(module, name)(*args)


def _rel_diff(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def _close(*pairs) -> Callable[[object], Optional[str]]:
    """Check on an Expectation or float against (reference, rel_tol) pairs."""

    def check(result) -> Optional[str]:
        got = getattr(result, "value", result)
        for want, tol in pairs:
            if not _rel_diff(got, want) <= tol:
                return f"got {got!r}, want {want!r} (rel {_rel_diff(got, want):.3e} > {tol:g})"
        return None

    return check


def _equal(want) -> Callable[[object], Optional[str]]:
    def check(got) -> Optional[str]:
        return None if got == want else f"got {got!r}, want {want!r}"

    return check


def _spread(lo: float, hi: float, count: int) -> list:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng: random.Random, groups: list) -> list:
    rng.shuffle(groups)
    return groups


# --------------------------------------------------------------------- tabulate


def _nr_tables(rng: random.Random) -> list:
    groups = []
    for n in range(1, 13):
        for l in range(n):
            for _ in range(NR_Z_PER_STATE):
                state = nr.NrState(rng.uniform(1.0, 100.0), n, l)
                powers = range(-2 * l - 2, 9)
                want = refs.nr_moments_by_recurrence(state, powers)
                groups.append(Group([
                    Request(("expect_r_power_nr", state.Z, n, l, p),
                            _call(nr, "expect_r_power_nr", state, p),
                            _close((want[p], NR_TOL)))
                    for p in powers
                ]))
    return groups


def _rel_states(rng: random.Random, z_max: float, n_r_max: int, per_state: int):
    for kappa in (-3, -2, -1, 1, 2, 3):
        for n_r in range(n_r_max + 1):
            if n_r == 0 and kappa > 0:
                continue
            for _ in range(per_state):
                yield rel.RelState(rng.uniform(1.0, z_max), n_r, kappa)


def _rel_tables(rng: random.Random) -> list:
    groups = []
    for state in _rel_states(rng, 136.0, 8, REL_Z_PER_STATE):
        key = (state.Z, state.n_r, state.kappa)
        powers = [p for p in range(-7, 9) if 2.0 * state.nu + p + 1.0 > 0.0]
        general = {p: rel.expect_r_power_rel(state, p).value for p in powers}
        special = {
            p: rel.expect_special_rel(state, case).value
            for case, p in SPECIAL_CASES.items() if p in general
        }
        hahn = {}
        for p in powers:
            if p >= 0:
                hahn[p] = (p, "positive")
            elif p <= -3:
                hahn[p] = (-p - 3, "negative")
        hahn_value = {
            p: rel.expect_hahn_form_rel(state, *args).value for p, args in hahn.items()
        }
        requests = []
        for p in powers:
            pairs = []
            if p in special:
                pairs.append((special[p], REL_SPECIAL_TOL))
            if p in hahn_value:
                pairs.append((hahn_value[p], REL_HAHN_TOL))
            requests.append(Request(("expect_r_power_rel", *key, p),
                                    _call(rel, "expect_r_power_rel", state, p),
                                    _close(*pairs)))
        for case, p in SPECIAL_CASES.items():
            if p in special:
                requests.append(Request(("expect_special_rel", *key, case),
                                        _call(rel, "expect_special_rel", state, case),
                                        _close((general[p], REL_SPECIAL_TOL))))
        for p, args in hahn.items():
            requests.append(Request(("expect_hahn_form_rel", *key, *args),
                                    _call(rel, "expect_hahn_form_rel", state, *args),
                                    _close((general[p], REL_HAHN_TOL))))
        groups.append(Group(requests))
    return groups


def _screening_check(reference: tuple) -> Callable[[object], Optional[str]]:
    want, scale = reference

    def check(got) -> Optional[str]:
        if abs(got - want) <= SCREEN_TOL * scale:
            return None
        return f"got {got!r}, want {want!r} (|diff|/scale {abs(got - want) / scale:.3e})"

    return check


def _screening_tables(rng: random.Random) -> list:
    groups = []
    for n in range(1, 11):
        for l in range(n):
            Z = rng.uniform(1.0, 100.0)
            radii = _spread(1e-3, 4.0 * n * n / Z, SCREEN_RADII)
            multipoles = {r: refs.screening_multipoles(Z, n, l, r) for r in radii}
            for m in range(-l, l + 1):
                theta = rng.uniform(0.0, math.pi)
                state = nr.NrState(Z, n, l, m)
                groups.append(Group([
                    Request(("screening_nr", Z, n, l, m, r, theta),
                            _call(nr, "screening_nr", state, r, theta),
                            _screening_check(
                                refs.screening_value(Z, l, m, r, theta, multipoles[r])))
                    for r in radii
                ]))
    return groups


def _rel1s_tables(rng: random.Random) -> list:
    groups = []
    for _ in range(REL1S_TABLES):
        Z = rng.uniform(1.0, 136.0)
        state = rel.RelState(Z, 0, -1)

        def density(s, state=state):
            pair = rel.radial_rel(state, s)
            return pair.F**2 + pair.G**2

        requests = []
        for r in _spread(1e-3, 4.0 / Z, SCREEN_RADII):
            # Same oracle call as `screening --with-oracle` for the 1S state.
            want = oracle.brute_screening(
                density, Z, r / rel.ALPHA_FS, 2.0 * state.nu - 2.0, 2.0 * state.a, 1e-12
            ) / rel.ALPHA_FS
            scale = max(abs(want), abs(Z / r - want))
            requests.append(Request(("screening_rel_1s", Z, r),
                                    _call(rel, "screening_rel_1s", Z, r),
                                    _screening_check((want, scale))))
        groups.append(Group(requests))
    return groups


def tabulate(seed: int) -> list:
    rng = _seeded("tabulate", seed)
    groups = (_nr_tables(rng) + _rel_tables(rng) + _screening_tables(rng)
              + _rel1s_tables(rng))
    return _shuffled(rng, groups)


# --------------------------------------------------------------------- rational


def _rational_nr_group(state) -> Group:
    n, l, Z = state.n, state.l, str(state.Z)
    powers = range(-2 * l - 2, 9)
    want = refs.nr_moments_by_recurrence(state, powers)
    requests = [
        Request(("expect_r_power_nr", Z, n, l, p),
                _call(nr, "expect_r_power_nr", state, p),
                lambda got, want=want[p]: _equal(want)(got.value))
        for p in powers
    ]
    chain = [nr.expect_r_power_nr(state, p).value for p in range(-1, 9)]
    requests.append(Request(
        ("expect_recurrence_nr", Z, n, l, 8),
        _call(nr, "expect_recurrence_nr", state, 8),
        lambda got: _equal(chain)([e.value for e in got]),
        values=len(chain),
    ))
    for k in range(2 * l + 1):
        side = want[-(k + 2)]
        requests.append(Request(("inversion_check_nr", Z, n, l, k),
                                _call(nr, "inversion_check_nr", state, k),
                                _equal((side, side)), values=2))
    return Group(requests)


def _rational_nr_tables(rng: random.Random) -> list:
    return [
        _rational_nr_group(nr.NrState(Fraction(rng.randint(1, 100), rng.randint(1, 6)), n, l))
        for n in range(1, 9)
        for l in range(n)
        for _ in range(RATIONAL_Z_PER_STATE)
    ]


def _direct_route_regular(n: int, m: int, s: int) -> bool:
    """The direct series' denominator s-n+1 meets no pole before it terminates."""
    stop = m if s + 1 > 0 else min(m, -(s + 1))
    return all(s - n + 1 + k != 0 for k in range(stop))


def _rational_j_tables(rng: random.Random) -> list:
    groups = []
    while len(groups) < J_SPECS:
        n = rng.randint(0, 8)
        m = rng.randint(0, n)
        alpha = rng.randint(0, 6)
        beta = rng.randint(0, 6)
        s = rng.randint(-alpha, 8)
        if not _direct_route_regular(n, m, s):
            continue
        spec = li.JSpec(n, m, s, alpha, beta)
        want = refs.laguerre_integral(n, m, s, alpha, beta)
        groups.append(Group([
            Request(("j_integral_exact", n, m, s, alpha, beta, route),
                    _call(li, "j_integral_exact", spec, route), _equal(want))
            for route in ("direct", "transformed")
        ]))
    for _ in range(J_DIAG):
        n, alpha, k = rng.randint(0, 8), rng.randint(0, 6), rng.randint(0, 8)
        groups.append(Group([Request(
            ("j_diag_positive_exact", n, alpha, k),
            _call(li, "j_diag_positive_exact", n, alpha, k),
            _equal(refs.laguerre_integral(n, n, k, alpha, alpha)))]))
        alpha = rng.randint(1, 6)
        k = rng.randint(0, alpha - 1)
        groups.append(Group([Request(
            ("j_diag_negative_exact", n, alpha, k),
            _call(li, "j_diag_negative_exact", n, alpha, k),
            _equal(refs.laguerre_integral(n, n, -k - 1, alpha, alpha)))]))
    return groups


def _rational_lin_tables(rng: random.Random) -> list:
    groups = []
    for n, m, denominator in itertools.product(range(9), range(9), LIN_DENOMINATORS):
        if m > n:
            continue
        alpha = Fraction(rng.randint(0, 12), denominator)
        want = refs.linearization(n, m, alpha)
        key = (n, m, str(alpha))
        requests = [Request(
            ("linearization_coeffs", *key),
            _call(li, "linearization_coeffs", n, m, alpha),
            lambda got, want=want: _equal(want)(tuple(got.coefficients)),
            values=len(want),
        )]
        for i, p in enumerate(range(n - m, n + m + 1)):
            requests.append(Request(("linearization_closed_form", *key, p),
                                    _call(li, "linearization_closed_form", n, m, p, alpha),
                                    _equal(want[i])))
        groups.append(Group(requests))
    return groups


def _rational_hahn_tables(rng: random.Random) -> list:
    groups = []
    for k in list(range(9)) * HAHN_PER_DEGREE:
        alpha = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        beta = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        big_n = Fraction(3 * rng.randint(-8, 8) + rng.choice((1, 2)), 3)  # never an integer
        x = Fraction(rng.randint(0, 12), rng.randint(1, 3))
        params = op.HahnParams(k, alpha, beta, big_n)
        groups.append(Group([Request(
            ("hahn", k, str(alpha), str(beta), str(big_n), str(x)),
            _call(op, "hahn", params, x),
            _equal(refs.hahn_by_recurrence(k, alpha, beta, big_n, x)))]))
    return groups


def rational(seed: int) -> list:
    rng = _seeded("rational", seed)
    groups = (_rational_nr_tables(rng) + _rational_j_tables(rng)
              + _rational_lin_tables(rng) + _rational_hahn_tables(rng))
    return _shuffled(rng, groups)


# ----------------------------------------------------------------- oracle_sweep


def clear_oracle_caches(totals: Optional[dict]) -> None:
    """Empty the oracle module's memo tables, first adding their hits and misses
    to totals.  The tables are found by their functools API, not by name."""
    for cache in list(vars(oracle).values()):
        if not callable(getattr(cache, "cache_clear", None)):
            continue
        if totals is not None:
            info = cache.cache_info()
            totals["hits"] += info.hits
            totals["misses"] += info.misses
        cache.cache_clear()


def _case(closed_module, closed_name, brute_name, state, p):
    def run():
        got = getattr(closed_module, closed_name)(state, p).value
        return got, getattr(oracle, brute_name)(state, p, rel_tol=1e-12)

    return run


def _case_check(pair) -> Optional[str]:
    got, want = pair
    if _rel_diff(got, want) <= ORACLE_TOL:
        return None
    return f"closed form {got!r}, quadrature {want!r} (rel {_rel_diff(got, want):.3e})"


def oracle_sweep(seed: int, cache_totals: dict) -> list:
    """cache_totals collects oracle cache hits and misses as each group starts."""
    rng = _seeded("oracle_sweep", seed)
    groups = []
    before = lambda: clear_oracle_caches(cache_totals)  # noqa: E731
    for n in range(1, 11):
        for l in range(n):
            state = nr.NrState(rng.uniform(1.0, 100.0), n, l)
            groups.append(Group([
                Request(("nr_case", state.Z, n, l, p),
                        _case(nr, "expect_r_power_nr", "brute_expect_nr", state, p),
                        _case_check)
                for p in range(-2 * l - 2, 7)
            ], before=before))
    for state in _rel_states(rng, 92.0, 6, 1):
        powers = list(range(-2, 5))
        if 2.0 * state.nu - 2.0 > 0.0:
            powers = [-3] + powers
        groups.append(Group([
            Request(("rel_case", state.Z, state.n_r, state.kappa, p),
                    _case(rel, "expect_r_power_rel", "brute_expect_rel", state, p),
                    _case_check)
            for p in powers
        ], before=before))
    return _shuffled(rng, groups)


# -------------------------------------------------------------------------- cli


@dataclass
class CliRequest:
    argv: list  # arguments after `python -m hahnium.cli`
    check: Callable[[str], Optional[str]]  # on stdout

    @property
    def key(self) -> tuple:
        return tuple(self.argv)


GOLDEN_INVOCATIONS = {
    "energy_nr_z1_n1.json": ["energy", "--nr", "-Z", "1", "-n", "1"],
    "expectation_rel_z92_1s.jsonl": [
        "expectation", "--rel", "-Z", "92", "--nr-quantum", "0", "--kappa", "-1",
        "--p-min", "-2", "--p-max", "2",
    ],
    "screening_nr_z1.csv": [
        "screening", "--nr", "-Z", "1", "-n", "1", "--radii", "0.5,1.0,2.0",
        "--format", "csv",
    ],
}


def golden_check(expected: str) -> Callable[[str], Optional[str]]:
    def check(stdout: str) -> Optional[str]:
        if stdout == expected:
            return None
        at = next((i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
                  min(len(stdout), len(expected)))
        return f"differs from its golden file at character {at}"

    return check


def _parse_rows(stdout: str, fmt: str) -> list:
    if fmt == "json":
        return [json.loads(line) for line in stdout.splitlines()]
    lines = stdout.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cli_check(fmt: str, index: str, fields: dict) -> Callable[[str], Optional[str]]:
    """fields: {row index value: {column: expected float}}; index None for one row."""

    def check(stdout: str) -> Optional[str]:
        try:
            rows = _parse_rows(stdout, fmt)
        except (ValueError, IndexError) as exc:
            return f"unparsable output: {exc}"
        got = {(float(row[index]) if index else None): row for row in rows}
        if set(got) != set(fields):
            return f"rows {sorted(got, key=str)} != expected {sorted(fields, key=str)}"
        for at, columns in fields.items():
            for column, want in columns.items():
                value = float(got[at][column])
                if not _rel_diff(value, want) <= CLI_TOL:
                    return f"{column} at {at}: got {value!r}, want {want!r}"
        return None

    return check


def _cli_state_flags(state) -> list:
    if isinstance(state, nr.NrState):
        return ["--nr", "-Z", repr(state.Z), "-n", str(state.n), "-l", str(state.l),
                "-m", str(state.m)]
    return ["--rel", "-Z", repr(state.Z), "--nr-quantum", str(state.n_r),
            "--kappa", str(state.kappa)]


def _draw_nr_state(rng: random.Random, n_max: int):
    n = rng.randint(1, n_max)
    l = rng.randint(0, n - 1)
    return nr.NrState(round(rng.uniform(1.0, 100.0), 4), n, l, rng.randint(-l, l))


def _draw_rel_state(rng: random.Random):
    kappa = rng.choice((-3, -2, -1, 1, 2, 3))
    n_r = rng.randint(0 if kappa < 0 else 1, 8)
    return rel.RelState(round(rng.uniform(1.0, 136.0), 4), n_r, kappa)


def _cli_energy(rng: random.Random, fmt: str) -> CliRequest:
    if rng.random() < 0.5:
        state = _draw_nr_state(rng, 12)
        fields = {"energy": nr.energy_nr(state)}
    else:
        state = _draw_rel_state(rng)
        eps = rel.energy_rel(state)
        fields = {"energy": eps, "epsilon": eps, "nu": state.nu, "binding": eps - 1.0}
    argv = ["energy", *_cli_state_flags(state), "--format", fmt]
    return CliRequest(argv, _cli_check(fmt, None, {None: fields}))


def _cli_expectation(rng: random.Random, fmt: str) -> CliRequest:
    if rng.random() < 0.5:
        state = _draw_nr_state(rng, 12)
        low = -2 * state.l - 2
        compute = nr.expect_r_power_nr
    else:
        state = _draw_rel_state(rng)
        low = math.floor(-2.0 * state.nu - 1.0) + 1
        compute = rel.expect_r_power_rel
    p_min = rng.randint(low, 0)
    p_max = rng.randint(p_min, 8)
    fields = {float(p): {"value": compute(state, p).value} for p in range(p_min, p_max + 1)}
    argv = ["expectation", *_cli_state_flags(state), "--p-min", str(p_min),
            "--p-max", str(p_max), "--format", fmt]
    return CliRequest(argv, _cli_check(fmt, "p", fields))


def _cli_screening(rng: random.Random, fmt: str) -> CliRequest:
    count = rng.randint(2, 6)
    if rng.random() < 0.5:
        state = _draw_nr_state(rng, 10)
        theta = round(rng.uniform(0.0, math.pi), 4)
        radii = [float(f"{r:.6g}") for r in _spread(1e-3, 4.0 * state.n**2 / state.Z, count)]
        fields = {r: {"value": nr.screening_nr(state, r, theta)} for r in radii}
        flags = [*_cli_state_flags(state), "--theta", repr(theta)]
    else:
        Z = round(rng.uniform(1.0, 136.0), 4)
        radii = [float(f"{r:.6g}") for r in _spread(1e-3, 4.0 / Z, count)]
        # natural_compton is the default unit system for --rel: e/(hbar/mc)
        fields = {r: {"value": rel.screening_rel_1s(Z, r) * rel.ALPHA_FS} for r in radii}
        flags = ["--rel", "-Z", repr(Z), "--nr-quantum", "0", "--kappa", "-1"]
    argv = ["screening", *flags, "--radii", ",".join(repr(r) for r in radii),
            "--format", fmt]
    return CliRequest(argv, _cli_check(fmt, "r_bohr", fields))


def cli(seed: int) -> list:
    rng = _seeded("cli", seed)
    makers = (_cli_energy, _cli_expectation, _cli_screening)
    mix = [rng.choice(makers)(rng, rng.choice(("json", "csv"))) for _ in range(CLI_RANDOM)]
    for name, argv in GOLDEN_INVOCATIONS.items():
        mix.append(CliRequest(list(argv), golden_check((GOLDEN / name).read_text())))
    rng.shuffle(mix)
    return mix
