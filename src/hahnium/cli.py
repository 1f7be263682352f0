"""Command-line front end: compute, tabulate, and verify.

Subcommands

  energy       bound-state level of one state
  expectation  table of radial moments <r^p>
  screening    screened nuclear potential on a radius grid
  verify       run a named self-check suite and report residuals

Output is machine-readable: JSON (one object per line, keys sorted) or
CSV with a header row.  Every JSON record carries schema_version, the
parsed inputs, the value(s), the unit, and the method.  Exit codes:
0 success, 1 internal numerical failure, 2 invalid input.

Half-integer quantum numbers are passed doubled (--two-j 3 is j = 3/2)
so no float parsing is involved.  Radius grids are always given in Bohr
radii regardless of the output unit system.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .angular import Spinor2, clebsch_gordan_exact, spinor_harmonic
from .hydrogen_nr import (
    NrState,
    energy_nr,
    expect_r_power_nr,
    radial_nr,
    screening_nr,
)
from .hydrogen_rel import (
    _SPECIAL_POWERS,
    ALPHA_FS,
    RelState,
    energy_rel,
    expect_hahn_form_rel,
    expect_r_power_rel,
    expect_special_rel,
    nonrel_limit_suite,
    radial_rel,
    screening_rel_1s,
    sommerfeld_remainder,
)
from .laguerre_integrals import JSpec, j_integral_exact, linearization_coeffs
from .oracle import (
    DEFAULT_BUDGET,
    brute_expect_nr,
    brute_expect_rel,
    brute_screening,
    sphere_quad,
)
from .orthopoly import LaguerreSpec, laguerre

SCHEMA_VERSION = 1

# cgs constants, quoted values
SPEED_OF_LIGHT_CM_S = 2.99792458e10
ELECTRON_MASS_G = 9.1093897e-28
BOHR_RADIUS_CM = 0.529177249e-8
ELEMENTARY_CHARGE = 1.60217733e-19
# reduced Compton length as the product a0 * alpha of two quoted values
COMPTON_REDUCED_CM = BOHR_RADIUS_CM * ALPHA_FS
MC2_ERG = ELECTRON_MASS_G * SPEED_OF_LIGHT_CM_S**2
HARTREE_ERG = ALPHA_FS**2 * MC2_ERG

SMALL_BUDGET = 150_000

_UNIT_SYSTEMS = ("hartree_bohr", "natural_compton", "cgs")

_LENGTH_LABEL = {
    "hartree_bohr": "a0",
    "natural_compton": "hbar_over_mc",
    "cgs": "cm",
}
_ENERGY_LABEL = {
    "hartree_bohr": "hartree",
    "natural_compton": "mc^2",
    "cgs": "erg",
}
_POTENTIAL_LABEL = {
    "hartree_bohr": "e/a0",
    "natural_compton": "e/(hbar/mc)",
    "cgs": "C/cm",
}

# multiplicative factor turning a native length into the requested unit
_LENGTH_FACTOR = {
    "bohr_radius": {
        "hartree_bohr": 1.0,
        "natural_compton": 1.0 / ALPHA_FS,
        "cgs": BOHR_RADIUS_CM,
    },
    "compton_reduced": {
        "hartree_bohr": ALPHA_FS,
        "natural_compton": 1.0,
        "cgs": COMPTON_REDUCED_CM,
    },
}
_ENERGY_FACTOR = {
    "hartree": {
        "hartree_bohr": 1.0,
        "natural_compton": ALPHA_FS**2,
        "cgs": HARTREE_ERG,
    },
    "mc^2": {
        "hartree_bohr": 1.0 / ALPHA_FS**2,
        "natural_compton": 1.0,
        "cgs": MC2_ERG,
    },
}
_POTENTIAL_FACTOR = {
    "hartree_bohr": 1.0,
    "natural_compton": ALPHA_FS,
    "cgs": ELEMENTARY_CHARGE / BOHR_RADIUS_CM,
}


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings shared by all subcommands."""

    unit_system: str
    rel_tol: float = 1e-10
    output_format: str = "json"
    verify_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.unit_system not in _UNIT_SYSTEMS:
            raise ValueError(
                f"unit_system must be one of {_UNIT_SYSTEMS}, "
                f"got {self.unit_system!r}"
            )
        if not 1e-15 <= self.rel_tol <= 1e-3:
            raise ValueError(
                f"rel_tol must lie in [1e-15, 1e-3], got {self.rel_tol:g}"
            )
        if self.output_format not in ("json", "csv"):
            raise ValueError(
                f"output_format must be json or csv, got {self.output_format!r}"
            )
        if self.verify_budget < 1:
            raise ValueError("verify_budget must be a positive integer")


def _read_config_file(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    allowed = {"unit_system", "rel_tol", "output_format", "verify_budget"}
    out: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip().strip("\"'")
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "rel_tol":
                out[key] = float(value)
            elif key == "verify_budget":
                out[key] = int(value)
            else:
                out[key] = value
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    if getattr(args, "units", None):
        settings["unit_system"] = args.units
    if getattr(args, "rel_tol", None) is not None:
        settings["rel_tol"] = args.rel_tol
    if getattr(args, "format", None):
        settings["output_format"] = args.format
    if getattr(args, "budget", None):
        settings["verify_budget"] = (
            SMALL_BUDGET if args.budget == "small" else DEFAULT_BUDGET
        )
    env_budget = os.environ.get("HAHNIUM_BUDGET")
    if env_budget is not None:
        settings["verify_budget"] = int(env_budget)
    if "unit_system" not in settings:
        model = getattr(args, "model", None)
        settings["unit_system"] = (
            "natural_compton" if model == "rel" else "hartree_bohr"
        )
    return RunConfig(**settings)


def _build_state(args: argparse.Namespace):
    """NrState or RelState from the parsed flags; ValueError on misuse."""
    if args.model == "nr":
        if args.n is None:
            raise ValueError("--nr needs -n (principal quantum number)")
        forbidden = [
            flag
            for flag, val in (
                ("--nr-quantum", args.nr_quantum),
                ("--kappa", args.kappa),
                ("--two-j", args.two_j),
            )
            if val is not None
        ]
        if forbidden:
            raise ValueError(f"{forbidden[0]} is a relativistic flag; use --rel")
        return NrState(args.Z, args.n, args.l or 0, args.m or 0)
    if args.nr_quantum is None:
        raise ValueError("--rel needs --nr-quantum (radial quantum number)")
    if args.n is not None or args.l is not None:
        raise ValueError("-n/-l are nonrelativistic flags; use --kappa or --two-j")
    if args.kappa is not None and args.two_j is not None:
        raise ValueError("give either --kappa or --two-j, not both")
    if args.kappa is not None:
        kappa = args.kappa
    elif args.two_j is not None:
        if args.two_j < 1 or args.two_j % 2 == 0:
            raise ValueError(
                f"--two-j takes a positive odd integer (doubled j), got {args.two_j}"
            )
        if args.branch is None:
            raise ValueError("--two-j needs --branch 1 (l=j+1/2) or --branch -1")
        kappa = args.branch * (args.two_j + 1) // 2
    else:
        raise ValueError("--rel needs --kappa (or --two-j with --branch)")
    return RelState(args.Z, args.nr_quantum, kappa)


def _inputs_record(args: argparse.Namespace, config: RunConfig, state) -> dict:
    record = {
        "command": args.command,
        "model": args.model,
        "unit_system": config.unit_system,
    }
    if isinstance(state, NrState):
        record.update({"Z": state.Z, "n": state.n, "l": state.l, "m": state.m})
    else:
        record.update({"Z": state.Z, "n_r": state.n_r, "kappa": state.kappa})
    return record


def _emit_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _emit_rows(config: RunConfig, rows: Sequence[dict], columns: Sequence[str]) -> None:
    """One JSON record per row, or CSV: a header and each row projected
    onto `columns` (looked up in the row, then in its quantum_numbers)."""
    if config.output_format == "json":
        for row in rows:
            _emit_json(row)
        return
    sys.stdout.write(",".join(columns) + "\n")
    for row in rows:
        cells = (row[c] if c in row else row["quantum_numbers"][c] for c in columns)
        sys.stdout.write(",".join(str(cell) for cell in cells) + "\n")


def cmd_energy(args: argparse.Namespace, config: RunConfig) -> int:
    state = _build_state(args)
    inputs = _inputs_record(args, config, state)
    unit = _ENERGY_LABEL[config.unit_system]
    if isinstance(state, NrState):
        value = energy_nr(state) * _ENERGY_FACTOR["hartree"][config.unit_system]
        record = {
            "schema_version": SCHEMA_VERSION,
            "model": "nr",
            "Z": state.Z,
            "quantum_numbers": {"n": state.n, "l": state.l, "m": state.m},
            "energy": value,
            "unit": unit,
            "method": "closed_form",
            "inputs": inputs,
        }
        columns = ["model", "Z", "n", "l", "m", "energy", "unit", "method"]
    else:
        factor = _ENERGY_FACTOR["mc^2"][config.unit_system]
        eps = energy_rel(state)
        record = {
            "schema_version": SCHEMA_VERSION,
            "model": "rel",
            "Z": state.Z,
            "quantum_numbers": {
                "n_r": state.n_r,
                "kappa": state.kappa,
                "two_j": 2 * abs(state.kappa) - 1,
            },
            "energy": eps * factor,
            "epsilon": eps,
            "nu": state.nu,
            "binding": (eps - 1.0) * factor,
            "unit": unit,
            "method": "closed_form",
            "inputs": inputs,
        }
        columns = [
            "model", "Z", "n_r", "kappa", "energy", "epsilon", "nu",
            "binding", "unit", "method",
        ]
    _emit_rows(config, [record], columns)
    return 0


def _power_list(args: argparse.Namespace) -> list:
    if args.p is not None:
        if args.p_min is not None or args.p_max is not None:
            raise ValueError("give either -p or --p-min/--p-max, not both")
        return [args.p]
    if args.p_min is None or args.p_max is None:
        raise ValueError("need -p or both --p-min and --p-max")
    if args.p_min > args.p_max:
        raise ValueError(f"--p-min {args.p_min} exceeds --p-max {args.p_max}")
    return list(range(args.p_min, args.p_max + 1))


def cmd_expectation(args: argparse.Namespace, config: RunConfig) -> int:
    state = _build_state(args)
    inputs = _inputs_record(args, config, state)
    powers = _power_list(args)
    if isinstance(state, NrState):
        native = "bohr_radius"
        compute: Callable = expect_r_power_nr
        oracle: Callable = brute_expect_nr
    else:
        native = "compton_reduced"
        compute = expect_r_power_rel
        oracle = brute_expect_rel
    factor = _LENGTH_FACTOR[native][config.unit_system]
    label = _LENGTH_LABEL[config.unit_system]
    rows = []
    for p in sorted(powers):
        result = compute(state, p)
        value = result.value * factor**p
        row = {
            "schema_version": SCHEMA_VERSION,
            "model": args.model,
            "inputs": inputs,
            "p": p,
            "value": value,
            "unit": f"{label}^{p}",
            "unit_power": p,
            "method": result.method,
        }
        if not isinstance(state, NrState):
            row["cancellation_flag"] = result.cancellation_flag
        if args.with_oracle:
            reference = oracle(state, p, rel_tol=config.rel_tol) * factor**p
            scale = max(abs(reference), sys.float_info.min)
            row["oracle"] = reference
            row["rel_diff"] = abs(value - reference) / scale
        rows.append(row)
    columns = ["p", "value", "unit", "unit_power", "method"]
    if args.with_oracle:
        columns += ["oracle", "rel_diff"]
    _emit_rows(config, rows, columns)
    return 0


def _parse_radii(text: str) -> list:
    try:
        radii = sorted(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--radii expects comma-separated floats: {exc}") from None
    if not radii or any(not r > 0 for r in radii):
        raise ValueError("--radii values must be positive")
    return radii


def cmd_screening(args: argparse.Namespace, config: RunConfig) -> int:
    radii = _parse_radii(args.radii)
    factor = _POTENTIAL_FACTOR[config.unit_system]
    label = _POTENTIAL_LABEL[config.unit_system]
    oracle_fn: Optional[Callable] = None
    if args.model == "nr":
        state = _build_state(args)
        theta = args.theta

        def closed_form(r: float) -> float:
            return screening_nr(state, r, theta)

        if args.with_oracle:
            if state.l != 0:
                raise ValueError(
                    "--with-oracle screening needs a spherical state (l = 0)"
                )
            density = lambda s: radial_nr(state, s) ** 2
            scale = 2.0 * state.Z / state.n

            def oracle_fn(r: float) -> float:
                return brute_screening(
                    density, state.Z, r, 2.0 * state.l, scale, config.rel_tol,
                    polynomial_degree=2.0 * (state.n - state.l - 1),
                )

    else:
        if args.nr_quantum not in (None, 0) or args.kappa not in (None, -1):
            raise ValueError(
                "relativistic screening covers the 1S state only "
                "(--nr-quantum 0 --kappa -1)"
            )
        if args.theta:
            raise ValueError("--theta applies to nonrelativistic screening only")
        state = RelState(args.Z, 0, -1)

        def closed_form(r: float) -> float:
            return screening_rel_1s(state.Z, r)

        if args.with_oracle:
            pair_density = lambda s: (
                lambda pair: pair.F**2 + pair.G**2
            )(radial_rel(state, s))
            nu, a = state.nu, state.a

            def oracle_fn(r: float) -> float:
                return (
                    brute_screening(
                        pair_density,
                        state.Z,
                        r / ALPHA_FS,
                        2.0 * nu - 2.0,
                        2.0 * a,
                        config.rel_tol,
                    )
                    / ALPHA_FS
                )

    inputs = _inputs_record(args, config, state)
    inputs["radii_bohr"] = radii
    if args.model == "nr":
        inputs["theta"] = args.theta
    rows = []
    for r in radii:
        value = closed_form(r) * factor
        row = {
            "schema_version": SCHEMA_VERSION,
            "model": args.model,
            "inputs": inputs,
            "r_bohr": r,
            "value": value,
            "unit": label,
            "method": "closed_form",
        }
        if oracle_fn is not None:
            reference = oracle_fn(r) * factor
            row["oracle"] = reference
            row["rel_diff"] = abs(value - reference) / max(
                abs(reference), sys.float_info.min
            )
        rows.append(row)
    columns = ["r_bohr", "value", "unit", "method"]
    if oracle_fn is not None:
        columns += ["oracle", "rel_diff"]
    _emit_rows(config, rows, columns)
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "check": name,
        "residual": float(residual),
        "tol": tol,
        "ok": bool(residual <= tol),
    }


def _window_check(name: str, value: float, lo: float, hi: float) -> dict:
    residual = 0.0 if lo <= value <= hi else min(abs(value - lo), abs(value - hi))
    return {
        "check": f"{name} value={value:.6g} window=[{lo:g},{hi:g}]",
        "residual": residual,
        "tol": 0.0,
        "ok": lo <= value <= hi,
    }


def _suite_nr_oracle(small: bool, rel_tol: float, budget: int) -> list:
    n_max = 3 if small else 6
    worst = 0.0
    for Z in (1.0, 10.0):
        for n in range(1, n_max + 1):
            for l in range(n):
                state = NrState(Z, n, l)
                for p in range(-2 * l - 2, 5):
                    got = expect_r_power_nr(state, p).value
                    want = brute_expect_nr(state, p, rel_tol=rel_tol, budget=budget)
                    worst = max(worst, abs(got - want) / abs(want))
    return [_check(f"moment closed form vs quadrature (n<={n_max})", worst, 1e-9)]


def _suite_nr_exact(small: bool) -> list:
    n_max = 4 if small else 8
    bad = 0
    for n in range(1, n_max + 1):
        for l in range(n):
            state = NrState(Fraction(1), n, l)
            nf, lf = Fraction(n), Fraction(l)
            known = {
                1: (3 * nf * nf - lf * (lf + 1)) / 2,
                2: nf * nf * (5 * n * n + 1 - 3 * lf * (lf + 1)) / 2,
                -1: Fraction(1, n * n),
            }
            if l >= 1:
                known[-3] = 2 / (nf**3 * lf * (lf + 1) * (2 * lf + 1))
            for p, want in known.items():
                if expect_r_power_nr(state, p).value != want:
                    bad += 1
    return [_check(f"rational specials (n<={n_max})", float(bad), 0.0)]


def _suite_rel_oracle(small: bool, rel_tol: float, budget: int) -> list:
    n_max = 2 if small else 4
    kappas = (-2, -1, 1) if small else (-3, -2, -1, 1, 2, 3)
    worst = 0.0
    flagged = 0
    for Z in (1.0, 92.0):
        for kappa in kappas:
            if Z * ALPHA_FS >= abs(kappa):
                continue
            for n_r in range(n_max + 1):
                if n_r == 0 and kappa > 0:
                    continue
                state = RelState(Z, n_r, kappa)
                for p in range(-2, 4):
                    got = expect_r_power_rel(state, p)
                    flagged += got.cancellation_flag
                    want = brute_expect_rel(state, p, rel_tol=rel_tol, budget=budget)
                    worst = max(worst, abs(got.value - want) / abs(want))
    return [
        _check(
            f"moment closed form vs quadrature (n_r<={n_max}, "
            f"{flagged} cancellation-flagged)",
            worst,
            1e-9,
        )
    ]


def _suite_rel_special(small: bool) -> list:
    worst = 0.0
    norm_worst = 0.0
    kappas = (-2, -1, 1) if small else (-3, -2, -1, 1, 2, 3)
    for Z in (1.0, 92.0):
        for kappa in kappas:
            if Z * ALPHA_FS >= abs(kappa):
                continue
            for n_r in range(0, 3):
                if n_r == 0 and kappa > 0:
                    continue
                state = RelState(Z, n_r, kappa)
                norm_worst = max(
                    norm_worst, abs(expect_r_power_rel(state, 0).value - 1.0)
                )
                for case, p in _SPECIAL_POWERS.items():
                    if 2.0 * state.nu + p + 1.0 <= 0.0:
                        continue
                    want = expect_r_power_rel(state, p).value
                    got = expect_special_rel(state, case).value
                    worst = max(worst, abs(got - want) / abs(want))
                for p in range(0, 3):
                    want = expect_r_power_rel(state, p).value
                    got = expect_hahn_form_rel(state, p, "positive").value
                    worst = max(worst, abs(got - want) / abs(want))
    return [
        _check("explicit cases vs general closed form", worst, 1e-11),
        _check("normalization <1> = 1", norm_worst, 1e-12),
    ]


def _suite_identities(small: bool) -> list:
    n_max = 3 if small else 5
    bad = 0
    points = (Fraction(3, 7), Fraction(5, 2))
    for n in range(n_max + 1):
        for m in range(n + 1):
            for alpha in (Fraction(0), Fraction(2), Fraction(5)):
                coeffs = linearization_coeffs(n, m, alpha)
                degrees = range(coeffs.p_min, coeffs.p_max + 1)
                for x in points:
                    total = sum(
                        coeffs.coefficient(p) * laguerre(LaguerreSpec(p, alpha), x)
                        for p in degrees
                    )
                    product = laguerre(LaguerreSpec(n, alpha), x) * laguerre(
                        LaguerreSpec(m, alpha), x
                    )
                    if total != product:
                        bad += 1
                if any(
                    (-1) ** (n + m + p) * coeffs.coefficient(p) < 0
                    for p in degrees
                ):
                    bad += 1
            orthogonality = j_integral_exact(JSpec(n, m, 0, 1, 1))
            expected = Fraction(n + 1) if n == m else Fraction(0)
            if orthogonality != expected:
                bad += 1
    return [_check(f"product-integral identity suite (n,m<={n_max})", float(bad), 0.0)]


def _apply_sigma_n(spinor: Spinor2, theta: float, phi: float) -> Spinor2:
    """(sigma . n) applied pointwise; sends branch to -branch with a sign."""
    ct, st = math.cos(theta), math.sin(theta)
    phase_down = complex(math.cos(phi), -math.sin(phi))
    phase_up = phase_down.conjugate()
    return Spinor2(
        ct * spinor.up + st * phase_down * spinor.down,
        st * phase_up * spinor.up - ct * spinor.down,
    )


def _suite_angular(small: bool) -> list:
    tj_max = 3 if small else 5
    worst_cg = 0.0
    for tj1 in range(1, tj_max + 1):
        for tj2 in range(0, tj_max, 2):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    total = Fraction(0)
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tm - tm1
                        if abs(tm2) > tj2:
                            continue
                        sign, square = clebsch_gordan_exact(
                            Fraction(tj1, 2), Fraction(tm1, 2),
                            Fraction(tj2, 2), Fraction(tm2, 2),
                            Fraction(tj, 2), Fraction(tm, 2),
                        )
                        total += square
                    worst_cg = max(worst_cg, abs(float(total - 1)))
    worst_orth = 0.0
    for tj in (1, 3):
        for branch in (1, -1):
            for tm in range(-tj, tj + 1, 2):
                j, m = Fraction(tj, 2), Fraction(tm, 2)

                def overlap(theta, phi, j=j, m=m, branch=branch):
                    spinor = spinor_harmonic(j, m, branch, theta, phi)
                    return spinor.norm_squared()

                value = sphere_quad(overlap, 2 * tj + 2).real
                worst_orth = max(worst_orth, abs(value - 1.0))
    worst_flip = 0.0
    for tj in range(1, tj_max + 1, 2):
        j = Fraction(tj, 2)
        for tm in range(-tj, tj + 1, 2):
            m = Fraction(tm, 2)
            for theta, phi in ((0.4, 0.3), (1.1, 2.0), (2.4, 4.9)):
                for branch in (1, -1):
                    got = _apply_sigma_n(
                        spinor_harmonic(j, m, branch, theta, phi), theta, phi
                    )
                    want = spinor_harmonic(j, m, -branch, theta, phi)
                    worst_flip = max(
                        worst_flip,
                        abs(got.up + want.up),
                        abs(got.down + want.down),
                    )
    return [
        _check("coupling-coefficient orthogonality", worst_cg, 1e-12),
        _check("spinor harmonic normalization", worst_orth, 1e-12),
        _check("sigma.n spinor flip", worst_flip, 1e-12),
    ]


def _suite_screening(small: bool) -> list:
    checks = []
    worst = 0.0
    for Z in (1.0, 2.0):
        for r in (0.1, 1.0, 5.0, 20.0):
            got = screening_nr(NrState(Z, 1, 0), r)
            want = (Z - 1.0) / r + math.exp(-2.0 * Z * r) * (Z + 1.0 / r)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    checks.append(_check("ground-state screening vs explicit form", worst, 1e-10))
    errs = [
        abs(screening_rel_1s(1.0, 1.0, alpha_fs=mu)
            - screening_nr(NrState(1.0, 1, 0), 1.0))
        for mu in (4e-2, 2e-2, 1e-2)
    ]
    checks.append(_window_check("relativistic -> nonrel rate", errs[0] / errs[1], 3.0, 5.0))
    checks.append(_window_check("relativistic -> nonrel rate", errs[1] / errs[2], 3.0, 5.0))
    r_small, r_big = 1e-8, 40.0
    checks.append(
        _check(
            "r -> 0 Coulomb limit r*V -> Z",
            abs(r_small * screening_rel_1s(2.0, r_small) - 2.0),
            1e-6,
        )
    )
    checks.append(
        _check(
            "r -> inf Coulomb limit r*V -> Z-1",
            abs(r_big * screening_rel_1s(2.0, r_big) - 1.0),
            1e-6,
        )
    )
    return checks


def _suite_limits(small: bool) -> list:
    checks = []
    for kappa in (-1, 1):
        report = nonrel_limit_suite(1, kappa, [4e-3, 2e-3], radius=2.5)
        for p, ratios in sorted(report["moment_ratios"].items()):
            checks.append(
                _window_check(
                    f"moment mu^2 rate kappa={kappa} p={p}", ratios[0], 3.0, 5.0
                )
            )
    for n_r in (0, 1, 2):
        rems = [
            abs(sommerfeld_remainder(n_r, -1, Fraction(m, 1000))) for m in (4, 2, 1)
        ]
        checks.append(
            _window_check(
                f"level series mu^6 rate n_r={n_r}", rems[0] / rems[1], 55.0, 73.0
            )
        )
        checks.append(
            _window_check(
                f"level series mu^6 rate n_r={n_r}", rems[1] / rems[2], 55.0, 73.0
            )
        )
    return checks


# Each suite takes (small grid?, oracle rel_tol, quadrature budget).
_SUITES = {
    "nr-oracle": _suite_nr_oracle,
    "nr-exact": lambda small, tol, budget: _suite_nr_exact(small),
    "rel-oracle": _suite_rel_oracle,
    "rel-special-cases": lambda small, tol, budget: _suite_rel_special(small),
    "identities": lambda small, tol, budget: _suite_identities(small),
    "angular": lambda small, tol, budget: _suite_angular(small),
    "screening": lambda small, tol, budget: _suite_screening(small),
    "limits": lambda small, tol, budget: _suite_limits(small),
}


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    unknown = [name for name in names if name not in _SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite {unknown[0]!r}; choose from "
            f"{', '.join(sorted(_SUITES))}, all"
        )
    small = config.verify_budget < DEFAULT_BUDGET
    oracle_tol = min(config.rel_tol, 1e-11)
    all_ok = True
    for name in names:
        for result in _SUITES[name](small, oracle_tol, config.verify_budget):
            all_ok &= result["ok"]
            if config.output_format == "json":
                _emit_json(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "suite": name,
                        "inputs": {"suite": args.suite, "budget": config.verify_budget},
                        "method": "verify",
                        "unit": "dimensionless",
                        **result,
                    }
                )
            else:
                status = "ok" if result["ok"] else "FAIL"
                sys.stdout.write(
                    f"{status:4s} {name}: {result['check']} "
                    f"residual={result['residual']:.3e}\n"
                )
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--units", choices=_UNIT_SYSTEMS, default=None,
        help="output unit system (default: hartree_bohr for --nr, "
        "natural_compton for --rel)",
    )
    shared.add_argument(
        "--format", choices=("json", "csv"), default=None,
        help="output format (default json, one object per line)",
    )
    shared.add_argument(
        "--rel-tol", type=float, default=None,
        help="relative tolerance for oracle columns (default 1e-10)",
    )
    shared.add_argument(
        "--config", default=None, metavar="FILE",
        help="key = value settings file (unit_system, rel_tol, "
        "output_format, verify_budget)",
    )
    shared.add_argument(
        "--budget", choices=("small", "full"), default=None,
        help="work budget for verify suites; HAHNIUM_BUDGET overrides",
    )

    state = argparse.ArgumentParser(add_help=False)
    model = state.add_mutually_exclusive_group(required=True)
    model.add_argument(
        "--nr", dest="model", action="store_const", const="nr",
        help="nonrelativistic bound state",
    )
    model.add_argument(
        "--rel", dest="model", action="store_const", const="rel",
        help="relativistic bound state",
    )
    state.add_argument("-Z", type=float, required=True, help="nuclear charge")
    state.add_argument("-n", type=int, default=None, help="principal quantum number")
    state.add_argument("-l", type=int, default=None, help="orbital quantum number")
    state.add_argument("-m", type=int, default=None, help="magnetic quantum number")
    state.add_argument(
        "--nr-quantum", type=int, default=None,
        help="radial quantum number n_r of the relativistic state",
    )
    state.add_argument(
        "--kappa", type=int, default=None,
        help="Dirac angular quantum number (nonzero integer)",
    )
    state.add_argument(
        "--two-j", type=int, default=None,
        help="doubled total angular momentum (3 means j = 3/2)",
    )
    state.add_argument(
        "--branch", type=int, choices=(1, -1), default=None,
        help="sign of kappa when --two-j is used (1: l = j+1/2)",
    )

    parser = argparse.ArgumentParser(
        prog="hahnium",
        description="Coulomb bound-state moments, levels, and screening "
        "from Hahn-polynomial closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    energy = sub.add_parser(
        "energy", parents=[shared, state], help="bound-state level"
    )
    energy.set_defaults(func=cmd_energy)

    expectation = sub.add_parser(
        "expectation", parents=[shared, state], help="radial moments <r^p>"
    )
    expectation.add_argument("-p", type=int, default=None, help="single power")
    expectation.add_argument("--p-min", type=int, default=None)
    expectation.add_argument("--p-max", type=int, default=None)
    expectation.add_argument(
        "--with-oracle", action="store_true",
        help="append an independent quadrature column and relative difference",
    )
    expectation.set_defaults(func=cmd_expectation)

    screening = sub.add_parser(
        "screening", parents=[shared, state],
        help="screened potential V(r) on a radius grid",
    )
    screening.add_argument(
        "--radii", required=True,
        help="comma-separated radii in Bohr radii (output is sorted)",
    )
    screening.add_argument(
        "--theta", type=float, default=0.0,
        help="polar angle for nonspherical states (radians)",
    )
    screening.add_argument("--with-oracle", action="store_true")
    screening.set_defaults(func=cmd_screening)

    verify = sub.add_parser(
        "verify", parents=[shared], help="run a self-check suite"
    )
    verify.add_argument(
        "--suite", required=True,
        help=f"one of {', '.join(sorted(_SUITES))}, all",
    )
    verify.set_defaults(func=cmd_verify, model=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _build_config(args)
        return args.func(args, config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
