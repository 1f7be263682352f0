"""Command-line front end: compute, tabulate, and verify.

Subcommands

  energy       bound-state level of one state
  expectation  table of radial moments <r^p>
  screening    screened nuclear potential on a radius grid
  verify       run a named self-check suite and report residuals

Output is machine-readable: JSON (one object per line, keys sorted) or
CSV, which has a header row except under verify, whose CSV is one status
line per check.  Every JSON record carries schema_version, the parsed
inputs, the value(s), the unit, and the method.  Exit codes: 0 success,
1 numerical failure (a value beyond binary64 range too), 2 invalid input.

Each subcommand takes only the flags it reads.  Every one takes
--format.  energy, expectation and screening take --units and a state:
--nr with -Z, -n, -l, -m, or --rel with -Z, --nr-quantum, --kappa; a
flag of the other model is refused.  expectation adds the powers and
--with-oracle, screening adds --radii, --theta (--nr only) and
--with-oracle.  verify takes --suite and --budget.  Radius grids are
always given in Bohr radii regardless of the output unit system.

The oracle columns of expectation and screening come from
`hahnium.oracle` alone, on its own densities, at ORACLE_REL_TOL; the
verify suites run the quadrature at VERIFY_ORACLE_REL_TOL.  The
suites hold no checks of their own: each runs functions of
`hahnium.checks` on a small or a full grid (--budget).  The acceptance
tests run the same functions on the release grids, which are the larger
ones.

energy, expectation and screening load only the closed-form modules.
Only verify and --with-oracle load `hahnium.oracle`, `hahnium.checks`
and numpy, which would otherwise take about half the wall time of a
one-shot call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .hydrogen_nr import NrState, energy_nr, expect_r_power_nr, screening_nr
from .hydrogen_rel import (
    ALPHA_FS,
    RelState,
    energy_rel,
    expect_r_power_rel,
    screening_rel_1s,
)

SCHEMA_VERSION = 1

# quadrature rel_tol of the oracle columns and of the verify oracle suites
ORACLE_REL_TOL = 1e-10
VERIFY_ORACLE_REL_TOL = 1e-11

# cgs constants, quoted values
SPEED_OF_LIGHT_CM_S = 2.99792458e10
ELECTRON_MASS_G = 9.1093897e-28
BOHR_RADIUS_CM = 0.529177249e-8
ELEMENTARY_CHARGE = 1.60217733e-19
# reduced Compton length as the product a0 * alpha of two quoted values
COMPTON_REDUCED_CM = BOHR_RADIUS_CM * ALPHA_FS
MC2_ERG = ELECTRON_MASS_G * SPEED_OF_LIGHT_CM_S**2
HARTREE_ERG = ALPHA_FS**2 * MC2_ERG

# Per unit system and quantity: the label, and the factor from the native
# unit of each model.  Native lengths are a0 (--nr) and hbar/mc (--rel),
# native energies hartree and mc^2; potentials are in e/a0 for both.
_UNITS = {
    "hartree_bohr": {
        "length": ("a0", {"nr": 1.0, "rel": ALPHA_FS}),
        "energy": ("hartree", {"nr": 1.0, "rel": 1.0 / ALPHA_FS**2}),
        "potential": ("e/a0", {"nr": 1.0, "rel": 1.0}),
    },
    "natural_compton": {
        "length": ("hbar_over_mc", {"nr": 1.0 / ALPHA_FS, "rel": 1.0}),
        "energy": ("mc^2", {"nr": ALPHA_FS**2, "rel": 1.0}),
        "potential": ("e/(hbar/mc)", {"nr": ALPHA_FS, "rel": ALPHA_FS}),
    },
    "cgs": {
        "length": ("cm", {"nr": BOHR_RADIUS_CM, "rel": COMPTON_REDUCED_CM}),
        "energy": ("erg", {"nr": HARTREE_ERG, "rel": MC2_ERG}),
        "potential": ("C/cm", {"nr": ELEMENTARY_CHARGE / BOHR_RADIUS_CM,
                               "rel": ELEMENTARY_CHARGE / BOHR_RADIUS_CM}),
    },
}


def _unit(args: argparse.Namespace, quantity: str) -> tuple:
    """(label, factor from native units) of `quantity` in --units."""
    label, factors = _UNITS[args.units][quantity]
    return label, factors[args.model]


# the state flags of each model, by argparse dest
_STATE_FLAGS = {
    "nr": {"n": "-n", "l": "-l", "m": "-m"},
    "rel": {"nr_quantum": "--nr-quantum", "kappa": "--kappa"},
}


def _build_state(args: argparse.Namespace):
    """NrState or RelState from the parsed flags, and --units defaulted
    from the model; ValueError on a state flag of the other model."""
    other = "rel" if args.model == "nr" else "nr"
    for dest, flag in _STATE_FLAGS[other].items():
        if getattr(args, dest) is not None:
            raise ValueError(f"{flag} is a --{other} flag; use --{other} or drop it")
    if args.units is None:
        args.units = "natural_compton" if args.model == "rel" else "hartree_bohr"
    if args.model == "nr":
        if args.n is None:
            raise ValueError("--nr needs -n (principal quantum number)")
        return NrState(args.Z, args.n, args.l or 0, args.m or 0)
    if args.nr_quantum is None or args.kappa is None:
        raise ValueError("--rel needs --nr-quantum and --kappa")
    return RelState(args.Z, args.nr_quantum, args.kappa)


def _quantum_numbers(state) -> dict:
    if isinstance(state, NrState):
        return {"n": state.n, "l": state.l, "m": state.m}
    return {"n_r": state.n_r, "kappa": state.kappa}


def _emit_json(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _emit_table(args: argparse.Namespace, state, rows: list, columns: list,
                oracle: Optional[Callable] = None, **inputs) -> int:
    """Write the rows of a compute command.

    Each row gets schema_version, model, method and the inputs record
    (the command, model, unit system and state, plus `inputs`).  With an
    `oracle`, which maps a row to its reference value, each row also gets
    that value and its relative difference from the row's value.  JSON
    writes one record per row; CSV a header and each row projected onto
    the columns (looked up in the row, then in its quantum_numbers).
    """
    record = {"command": args.command, "model": args.model, "unit_system": args.units,
              "Z": state.Z, **_quantum_numbers(state), **inputs}
    if oracle is not None:
        columns = [*columns, "oracle", "rel_diff"]
    for row in rows:
        row.update(schema_version=SCHEMA_VERSION, model=args.model, inputs=record,
                   method="closed_form")
        if oracle is not None:
            reference = oracle(row)
            row["oracle"] = reference
            row["rel_diff"] = abs(row["value"] - reference) / max(
                abs(reference), sys.float_info.min
            )
        if any(isinstance(v, float) and not math.isfinite(v) for v in row.values()):
            raise ArithmeticError(f"a value exceeds binary64 range in {args.units} units")
    if args.format == "json":
        for row in rows:
            _emit_json(row)
    else:
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            cells = (row[c] if c in row else row["quantum_numbers"][c] for c in columns)
            sys.stdout.write(",".join(str(cell) for cell in cells) + "\n")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    state = _build_state(args)
    label, factor = _unit(args, "energy")
    row = {"Z": state.Z, "quantum_numbers": _quantum_numbers(state), "unit": label}
    if args.model == "nr":
        row["energy"] = energy_nr(state) * factor
    else:
        eps = energy_rel(state)
        row["quantum_numbers"]["two_j"] = 2 * abs(state.kappa) - 1
        row.update(energy=eps * factor, epsilon=eps, nu=state.nu,
                   binding=(eps - 1.0) * factor)
    columns = ["model", "Z", *_quantum_numbers(state), "energy",
               *(["epsilon", "nu", "binding"] if args.model == "rel" else []),
               "unit", "method"]
    return _emit_table(args, state, [row], columns)


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


def cmd_expectation(args: argparse.Namespace) -> int:
    state = _build_state(args)
    powers = _power_list(args)
    nr = args.model == "nr"
    compute = expect_r_power_nr if nr else expect_r_power_rel
    label, factor = _unit(args, "length")
    rows = []
    for p in powers:
        result = compute(state, p)
        row = {"p": p, "value": result.value * factor**p, "unit": f"{label}^{p}",
               "unit_power": p}
        if not nr:
            row["cancellation_flag"] = result.cancellation_flag
        rows.append(row)
    oracle = None
    if args.with_oracle:
        from .oracle import brute_expect_nr, brute_expect_rel

        brute = brute_expect_nr if nr else brute_expect_rel

        def oracle(row: dict) -> float:
            return brute(state, row["p"], rel_tol=ORACLE_REL_TOL) * factor ** row["p"]

    return _emit_table(args, state, rows, ["p", "value", "unit", "unit_power", "method"],
                       oracle)


def _parse_radii(text: str) -> list:
    try:
        radii = sorted(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--radii expects comma-separated floats: {exc}") from None
    if not radii or any(not 0 < r < math.inf for r in radii):
        raise ValueError("--radii values must be positive and finite")
    return radii


def cmd_screening(args: argparse.Namespace) -> int:
    radii = _parse_radii(args.radii)
    # relativistic screening covers 1S only, the state when no Dirac flag is given
    if args.model == "rel" and args.nr_quantum is None and args.kappa is None:
        args.nr_quantum, args.kappa = 0, -1
    state = _build_state(args)
    label, factor = _unit(args, "potential")
    inputs = {"radii_bohr": radii}
    if args.model == "nr":
        inputs["theta"] = args.theta
        values = [screening_nr(state, r, args.theta) for r in radii]
    else:
        if (state.n_r, state.kappa) != (0, -1):
            raise ValueError(
                "relativistic screening covers the 1S state only "
                "(--nr-quantum 0 --kappa -1)"
            )
        if args.theta:
            raise ValueError("--theta applies to nonrelativistic screening only")
        values = [screening_rel_1s(state.Z, r) for r in radii]
    rows = [{"r_bohr": r, "value": v * factor, "unit": label} for r, v in zip(radii, values)]
    oracle = None
    if args.with_oracle:
        from .oracle import brute_screening_nr, brute_screening_rel

        def oracle(row: dict) -> float:
            r = row["r_bohr"]
            if args.model == "nr":
                return brute_screening_nr(state, r, args.theta, ORACLE_REL_TOL) * factor
            return brute_screening_rel(state, r, ORACLE_REL_TOL) * factor

    return _emit_table(args, state, rows, ["r_bohr", "value", "unit", "method"], oracle,
                       **inputs)


# ---------------------------------------------------------------------------
# verify: the checks of `checks` on a small or a full grid

_FLIP_ANGLES = ((0.4, 0.3), (1.1, 2.0), (2.4, 4.9))


def _rel_grid(checks, small: bool, n_r_max: int) -> list:
    kappas = (-2, -1, 1) if small else (-3, -2, -1, 1, 2, 3)
    return checks.rel_states((1.0, 92.0), kappas, n_r_max)


# Each suite maps the `checks` module and "small grid?" to its check
# records; the acceptance tests run the same checks on larger grids.
# cmd_verify imports `checks`, so the names here cost no import.
_SUITES = {
    "nr-oracle": lambda checks, small: [
        checks.nr_oracle((1.0, 10.0), 3 if small else 6, 4, VERIFY_ORACLE_REL_TOL)],
    "nr-exact": lambda checks, small: [
        checks.nr_exact((Fraction(1),), 4 if small else 8),
        checks.nr_recurrence((Fraction(1),), 4 if small else 8, 8)],
    "rel-oracle": lambda checks, small: checks.rel_oracle(
        _rel_grid(checks, small, 2 if small else 4), -2, 3, VERIFY_ORACLE_REL_TOL),
    "rel-special-cases": lambda checks, small: checks.rel_special(
        _rel_grid(checks, small, 2)),
    "identities": lambda checks, small: [
        checks.linearization(3 if small else 5, (Fraction(0), Fraction(2), Fraction(5)),
                             (Fraction(3, 7), Fraction(5, 2))),
        checks.j_orthogonality(3 if small else 5)],
    "angular": lambda checks, small: [
        checks.cg_square_sums(3 if small else 5),
        checks.spinor_normalization((1, 3)),
        checks.sigma_flip(range(1, 4 if small else 6, 2), _FLIP_ANGLES)],
    "screening": lambda checks, small: [
        checks.screening_ground_state((1.0, 2.0), (0.1, 1.0, 5.0, 20.0)),
        checks.screening_rel_rate((4e-2, 2e-2, 1e-2), (1.0,)),
        checks.coulomb_limits((2.0,), 1e-8, 40.0)],
    "limits": lambda checks, small: [
        checks.moment_nr_limit(((1, -1), (1, 1)), (4e-3, 2e-3)),
        checks.sommerfeld_rate((0, 1, 2), -1, [Fraction(m, 1000) for m in (4, 2, 1)])],
}

_VERIFY_KEYS = ("check", "residual", "tol", "ok")


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    small = args.budget == "small"
    all_ok = True
    for name in names:
        for result in _SUITES[name](checks, small):
            all_ok &= result["ok"]
            if args.format == "json":
                _emit_json(
                    {
                        "schema_version": SCHEMA_VERSION,
                        "suite": name,
                        "inputs": {"suite": args.suite, "budget": args.budget},
                        "method": "verify",
                        "unit": "dimensionless",
                        **{key: result[key] for key in _VERIFY_KEYS},
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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (default json, one object per line)",
    )

    state = argparse.ArgumentParser(add_help=False, parents=[output])
    state.add_argument(
        "--units", choices=tuple(_UNITS), default=None,
        help="output unit system (default: hartree_bohr for --nr, "
        "natural_compton for --rel)",
    )
    model = state.add_mutually_exclusive_group(required=True)
    model.add_argument(
        "--nr", dest="model", action="store_const", const="nr",
        help="nonrelativistic bound state: -n, -l (default 0), -m (default 0)",
    )
    model.add_argument(
        "--rel", dest="model", action="store_const", const="rel",
        help="relativistic bound state: --nr-quantum, --kappa",
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

    parser = argparse.ArgumentParser(
        prog="hahnium",
        description="Coulomb bound-state moments, levels, and screening "
        "from Hahn-polynomial closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    energy = sub.add_parser(
        "energy", parents=[state], help="bound-state level"
    )
    energy.set_defaults(func=cmd_energy)

    expectation = sub.add_parser(
        "expectation", parents=[state], help="radial moments <r^p>"
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
        "screening", parents=[state],
        help="screened potential V(r) on a radius grid (--rel: 1S only)",
    )
    screening.add_argument(
        "--radii", required=True,
        help="comma-separated radii in Bohr radii (output is sorted)",
    )
    screening.add_argument(
        "--theta", type=float, default=0.0,
        help="polar angle for nonspherical states (radians, --nr only)",
    )
    screening.add_argument(
        "--with-oracle", action="store_true",
        help="append a quadrature column and relative difference",
    )
    screening.set_defaults(func=cmd_screening)

    verify = sub.add_parser(
        "verify", parents=[output], help="run a self-check suite"
    )
    verify.add_argument(
        "--suite", required=True, choices=(*sorted(_SUITES), "all"),
        help="the suite to run, or all of them",
    )
    verify.add_argument(
        "--budget", choices=("small", "full"), default="full",
        help="grid of the suites: small or full (default full)",
    )
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
