"""End-to-end command-line checks, driven through subprocess except
where a check is skewed in-process to make verify fail."""

import argparse
import dataclasses
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from hahnium import checks, cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args, expect_code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "hahnium.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect_code, (proc.returncode, proc.stderr, proc.stdout)
    return proc


def test_energy_nr_ground_state_golden():
    proc = run_cli("energy", "--nr", "-Z", "1", "-n", "1")
    assert proc.stdout == (GOLDEN / "energy_nr_z1_n1.json").read_text()
    record = json.loads(proc.stdout)
    assert record["energy"] == -0.5
    assert record["unit"] == "hartree"
    assert record["schema_version"] == 1
    assert list(record) == sorted(record)


def test_expectation_rel_golden():
    proc = run_cli(
        "expectation", "--rel", "-Z", "92", "--nr-quantum", "0", "--kappa", "-1",
        "--p-min", "-2", "--p-max", "2",
    )
    assert proc.stdout == (GOLDEN / "expectation_rel_z92_1s.jsonl").read_text()
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["p"] for row in rows] == [-2, -1, 0, 1, 2]
    assert rows[2]["value"] == pytest.approx(1.0, abs=1e-12)
    assert all(row["cancellation_flag"] is False for row in rows)


def test_screening_csv_golden():
    proc = run_cli(
        "screening", "--nr", "-Z", "1", "-n", "1", "--radii", "0.5,1.0,2.0",
        "--format", "csv",
    )
    assert proc.stdout == (GOLDEN / "screening_nr_z1.csv").read_text()
    lines = proc.stdout.splitlines()
    assert lines[0] == "r_bohr,value,unit,method"
    assert float(lines[2].split(",")[1]) == pytest.approx(0.270671, abs=5e-7)


# Dirac energy columns, cgs and natural-unit factors, and Dirac screening
# rows; no oracle column, whose values depend on numpy
@pytest.mark.parametrize("name, args", [
    ("energy_rel_z92_cgs.csv",
     ("energy", "--rel", "-Z", "92", "--nr-quantum", "1", "--kappa", "-2",
      "--units", "cgs", "--format", "csv")),
    ("expectation_nr_z2_natural.csv",
     ("expectation", "--nr", "-Z", "2", "-n", "3", "-l", "1", "-m", "-1",
      "--p-min", "-3", "--p-max", "2", "--units", "natural_compton", "--format", "csv")),
    ("screening_rel_z80.jsonl",
     ("screening", "--rel", "-Z", "80", "--radii", "0.01,0.5", "--units", "hartree_bohr")),
])
def test_unit_and_model_goldens(name, args):
    assert run_cli(*args).stdout == (GOLDEN / name).read_text()


@pytest.mark.parametrize("args", [
    # the Dirac moment itself is beyond binary64 range
    ("expectation", "--rel", "-Z", "1", "--nr-quantum", "0", "--kappa", "-1", "-p", "150"),
    # the moment is in range in a0^70, not in (hbar/mc)^70
    ("expectation", "--nr", "-Z", "1", "-n", "12", "-p", "70", "--units", "natural_compton"),
])
def test_value_beyond_binary64_exits_1(args):
    proc = run_cli(*args, expect_code=1)
    assert proc.stderr.startswith("numerical failure:")
    assert "exceeds binary64 range" in proc.stderr
    assert proc.stdout == ""


def test_energy_rel_epsilon_value():
    proc = run_cli("energy", "--rel", "-Z", "1", "--nr-quantum", "0", "--kappa", "-1")
    record = json.loads(proc.stdout)
    assert record["energy"] == pytest.approx(0.999973374, abs=5e-10)
    assert record["unit"] == "mc^2"
    assert {"epsilon", "nu", "binding"} <= set(record)
    assert record["binding"] < 0.0


def test_energy_rel_supercritical_exits_2():
    proc = run_cli(
        "energy", "--rel", "-Z", "200", "--nr-quantum", "1", "--kappa", "-1",
        expect_code=2,
    )
    assert "mu >= |kappa|" in proc.stderr


def test_expectation_nr_known_value():
    proc = run_cli("expectation", "--nr", "-Z", "1", "-n", "2", "-l", "1", "-p", "-1")
    record = json.loads(proc.stdout)
    assert record["value"] == 0.25
    assert record["unit"] == "a0^-1"


def test_expectation_divergent_power_exits_2():
    proc = run_cli(
        "expectation", "--nr", "-Z", "1", "-n", "1", "-l", "0", "-p", "-3",
        expect_code=2,
    )
    assert "diverges" in proc.stderr


def test_expectation_with_oracle_column():
    proc = run_cli(
        "expectation", "--nr", "-Z", "1", "-n", "3", "-l", "1", "-p", "2",
        "--with-oracle",
    )
    record = json.loads(proc.stdout)
    assert record["rel_diff"] <= 1e-10
    assert record["oracle"] == pytest.approx(record["value"], rel=1e-9)


@pytest.mark.parametrize("args", [
    ("expectation", "--nr", "-Z", "1", "-n", "70", "-l", "0", "-p", "2"),
    ("screening", "--nr", "-Z", "1", "-n", "40", "--radii", "1,100"),
    # a nonspherical state: the screening oracle works multipole by multipole
    ("screening", "--nr", "-Z", "1", "-n", "3", "-l", "2", "-m", "1", "--theta", "0.7",
     "--radii", "0.5,4,20"),
    # far inside the density, (r/s)^L leaves subnormal exterior multipoles
    ("screening", "--nr", "-Z", "1", "-n", "150", "-l", "149", "-m", "3", "--radii", "1"),
])
def test_oracle_column_right_at_large_n(args):
    # the quadrature must cover the density out to its turning point
    proc = run_cli(*args, "--with-oracle")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows and all(row["rel_diff"] <= 1e-9 for row in rows), rows


# Run in a fresh interpreter, because pytest has numpy loaded already:
# each stage prints which of the heavy modules are in sys.modules after it.
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from hahnium import cli
    HEAVY = ("numpy", "hahnium.oracle", "hahnium.checks", "hahnium.laguerre_integrals")
    NR = ["--nr", "-Z", "1", "-n", "2", "-l", "1"]
    REL = ["--rel", "-Z", "92", "--nr-quantum", "1", "--kappa", "-1"]
    STAGES = {
        "compute": [
            ["energy", *NR], ["energy", *REL],
            ["expectation", *NR, "-p", "2"], ["expectation", *REL, "-p", "2"],
            ["screening", *NR, "--radii", "1,2"],
            ["screening", "--rel", "-Z", "92", "--radii", "0.01"],
        ],
        "with-oracle": [["expectation", *NR, "-p", "2", "--with-oracle"]],
        "verify": [["verify", "--suite", "identities", "--budget", "small"]],
    }
    loaded = {}
    for stage, argvs in STAGES.items():
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        loaded[stage] = [name for name in HEAVY if name in sys.modules]
    print(json.dumps(loaded))
""")


def test_compute_commands_load_only_the_closed_forms():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["compute"] == []
    # the lazy imports run: --with-oracle loads the oracle, verify the checks
    assert {"numpy", "hahnium.oracle"} <= set(loaded["with-oracle"])
    assert "hahnium.checks" not in loaded["with-oracle"]
    assert "hahnium.checks" in loaded["verify"]


def test_screening_far_field_keeps_net_charge():
    proc = run_cli("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "50")
    record = json.loads(proc.stdout)
    assert abs(50.0 * record["value"] - 0.0) < 1e-6


def test_screening_rel_matches_oracle():
    proc = run_cli(
        "screening", "--rel", "-Z", "80", "--radii", "0.5,2.0", "--with-oracle"
    )
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        assert record["rel_diff"] <= 1e-9


def test_screening_rel_defaults_to_1s():
    args = ("screening", "--rel", "-Z", "80", "--radii", "0.5,2.0")
    explicit = run_cli(*args, "--nr-quantum", "0", "--kappa", "-1")
    assert explicit.stdout == run_cli(*args).stdout


@pytest.mark.parametrize("args", [
    ("energy", "--nr", "-Z", "inf", "-n", "1"),
    ("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "0.5,inf"),
    ("screening", "--rel", "-Z", "1", "--radii", "inf"),
    ("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "1.0", "--theta", "nan"),
])
def test_non_finite_input_exits_2(args):
    proc = run_cli(*args, expect_code=2)
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "1e-310"),
    ("screening", "--rel", "-Z", "1", "--radii", "1e-310"),
])
def test_potential_beyond_binary64_exits_1(args):
    # a subnormal radius puts Z/r past the largest double
    proc = run_cli(*args, expect_code=1)
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stdout == ""


def test_energy_rel_reports_doubled_j():
    proc = run_cli("energy", "--rel", "-Z", "92", "--nr-quantum", "1", "--kappa", "-2")
    assert json.loads(proc.stdout)["quantum_numbers"]["two_j"] == 3


def test_cgs_units_energy():
    proc = run_cli("energy", "--nr", "-Z", "2", "-n", "2", "--units", "cgs")
    record = json.loads(proc.stdout)
    assert record["unit"] == "erg"
    # -0.5 hartree = -0.5 * alpha^2 m c^2, with the cgs constants verbatim
    assert record["energy"] == pytest.approx(-2.17987410165e-11, rel=1e-8)


VERIFY_SUITES = (
    "angular", "identities", "limits", "nr-exact", "nr-oracle", "rel-oracle",
    "rel-special-cases", "screening",
)


def test_verify_single_suites_pass():
    for suite in VERIFY_SUITES:
        proc = run_cli("verify", "--suite", suite, "--budget", "small")
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert records, suite
        for record in records:
            assert record["ok"] is True and record["suite"] == suite, record
            assert set(record) == {
                "check", "inputs", "method", "ok", "residual", "schema_version",
                "suite", "tol", "unit",
            }


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "bogus", expect_code=2)
    for suite in VERIFY_SUITES:  # the diagnostic lists valid names
        assert suite in proc.stderr


def test_verify_fails_when_a_check_is_off(monkeypatch, capsys):
    original = checks.expect_r_power_nr

    def skewed(*args):
        result = original(*args)
        return dataclasses.replace(result, value=result.value * 2)

    monkeypatch.setattr(checks, "expect_r_power_nr", skewed)
    code = cli.main(["verify", "--suite", "nr-exact", "--budget", "small",
                     "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(line.startswith("FAIL nr-exact:") for line in lines), lines


ENERGY = ("energy", "--nr", "-Z", "1", "-n", "1")
EXPECTATION = ("expectation", "--nr", "-Z", "1", "-n", "1", "-p", "1")
SCREENING = ("screening", "--nr", "-Z", "1", "-n", "1", "--radii", "1")
VERIFY = ("verify", "--suite", "identities", "--budget", "small")

# flags a subcommand does not take: argparse refuses them
UNKNOWN_FLAGS = [
    # settings are flags only: no settings file, and --budget belongs to verify
    (*ENERGY, "--config", "run.cfg"),
    (*ENERGY, "--budget", "small"),
    # the oracle tolerance is a constant, not a flag
    (*ENERGY, "--rel-tol", "1"),
    (*EXPECTATION, "--rel-tol", "1e-5"),
    (*SCREENING, "--rel-tol", "1e-5"),
    (*VERIFY, "--rel-tol", "1e-5"),
    # verify prints no unit-dependent value
    (*VERIFY, "--units", "cgs"),
    # --kappa is the one spelling of the Dirac angular quantum number
    ("energy", "--rel", "-Z", "1", "--nr-quantum", "1", "--two-j", "3"),
    ("energy", "--rel", "-Z", "1", "--nr-quantum", "1", "--kappa", "-2",
     "--branch", "-1"),
    ("screening", "--rel", "-Z", "1", "--radii", "1", "--two-j", "1"),
    (*VERIFY, "--branch", "1"),
]
# states the command cannot take: the model rule refuses them
REFUSED_STATES = [
    # a state flag of the other model
    ("energy", "--rel", "-Z", "1", "--nr-quantum", "0", "--kappa", "-1", "-m", "3"),
    ("expectation", "--nr", "-Z", "1", "-n", "1", "-p", "1", "--kappa", "-1"),
    ("screening", "--rel", "-Z", "1", "-n", "2", "--radii", "1"),
    # relativistic screening covers 1S only
    ("screening", "--rel", "-Z", "1", "--nr-quantum", "1", "--kappa", "1",
     "--radii", "1"),
]


@pytest.mark.parametrize("args, stderr", [
    *((args, "usage:") for args in UNKNOWN_FLAGS),
    *((args, "error:") for args in REFUSED_STATES),
])
def test_removed_settings_exit_2(args, stderr):
    proc = run_cli(*args, expect_code=2)
    assert proc.stderr.startswith(stderr)
    assert proc.stdout == ""


# the option strings of each subcommand, -h left out
SUBCOMMAND_FLAGS = {
    "energy": {
        "--format", "--units", "--nr", "--rel", "-Z", "-n", "-l", "-m",
        "--nr-quantum", "--kappa",
    },
    "expectation": {
        "--format", "--units", "--nr", "--rel", "-Z", "-n", "-l", "-m",
        "--nr-quantum", "--kappa", "-p", "--p-min", "--p-max", "--with-oracle",
    },
    "screening": {
        "--format", "--units", "--nr", "--rel", "-Z", "-n", "-l", "-m",
        "--nr-quantum", "--kappa", "--radii", "--theta", "--with-oracle",
    },
    "verify": {"--format", "--suite", "--budget"},
}


def test_each_subcommand_takes_only_its_flags():
    # a flag added to a shared parent parser fails here instead of being
    # accepted and ignored by the subcommands that do not read it
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    found = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert found == SUBCOMMAND_FLAGS


def test_missing_model_flag_exits_2():
    run_cli("energy", "-Z", "1", "-n", "1", expect_code=2)
