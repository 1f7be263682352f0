"""The benchmark's own tests: python -m pytest bench/tests -q"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import draws  # noqa: E402
import refs  # noqa: E402
from tracer import Tracer  # noqa: E402

from hahnium import hydrogen_nr as nr  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[-2])
    assert {"git_sha", "git_dirty", "python", "numpy", "nproc", "cpu_model"} <= set(
        record["environment"])
    assert record["seed"] == 3 and record["samples"]


def _request_keys(workload, seed):
    if workload == "cli":
        return [request.key for request in draws.cli(seed)]
    if workload == "oracle_sweep":
        groups = draws.oracle_sweep(seed, {"hits": 0, "misses": 0})
    else:
        groups = getattr(draws, workload)(seed)
    return [request.key for group in groups for request in group.requests]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    first = _request_keys(workload, 11)
    assert first == _request_keys(workload, 11)
    assert first != _request_keys(workload, 12)


def test_screening_reference_matches_the_ground_state_closed_form():
    for Z, r in ((1.0, 0.5), (2.5, 3.0), (80.0, 1e-3)):
        want, _ = refs.screening_value(Z, 0, 0, r, 0.0,
                                       refs.screening_multipoles(Z, 1, 0, r))
        exact = (Z - 1.0) / r + math.exp(-2.0 * Z * r) * (Z + 1.0 / r)
        assert want == pytest.approx(exact, rel=1e-14)


def test_screening_reference_matches_direct_quadrature_off_axis():
    mpmath = pytest.importorskip("mpmath")
    from hahnium.angular import spherical_harmonic

    Z, n, l, m, r, theta = 1.0, 3, 2, 1, 2.0, 0.4
    state = nr.NrState(Z, n, l, m)
    with mpmath.workdps(20):
        value = mpmath.mpf(Z) / r
        for big_l in range(0, 2 * l + 1, 2):
            weight = 2 * math.pi * mpmath.quad(
                lambda x: abs(spherical_harmonic(l, m, math.acos(float(x)), 0.0)) ** 2
                * refs.legendre_value(big_l, float(x)), [-1, 1])
            inner = mpmath.quad(lambda s: float(nr.radial_nr(state, float(s))) ** 2
                                * s ** (big_l + 2), [0, r]) / r ** (big_l + 1)
            outer = mpmath.quad(lambda s: float(nr.radial_nr(state, float(s))) ** 2
                                * s ** (1 - big_l), [r, mpmath.inf]) * r**big_l
            value -= weight * refs.legendre_value(big_l, math.cos(theta)) * (inner + outer)
    want, _ = refs.screening_value(Z, l, m, r, theta, refs.screening_multipoles(Z, n, l, r))
    assert want == pytest.approx(float(value), rel=1e-12)


def test_screening_check_flags_the_documented_defect():
    # ROADMAP item 3: (n, l) = (8, 5) at r = 1 is about 0.984.
    reference = refs.screening_value(1.0, 5, 0, 1.0, 0.0,
                                     refs.screening_multipoles(1.0, 8, 5, 1.0))
    assert reference[0] == pytest.approx(0.98437196, rel=1e-7)
    check = draws._screening_check(reference)
    assert check(reference[0]) is None
    assert check(nr.screening_nr(nr.NrState(1.0, 8, 5), 1.0)) is not None


@pytest.mark.parametrize("name", sorted(draws.GOLDEN_INVOCATIONS))
def test_golden_check_flags_a_one_byte_diff(name):
    text = (draws.GOLDEN / name).read_text()
    check = draws.golden_check(text)
    assert check(text) is None
    at = len(text) // 2
    assert check(text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]) is not None


def test_exact_references_agree_with_known_closed_forms():
    # Orthogonality and the norm Gamma(alpha+n+1)/n! of the Laguerre family.
    assert refs.laguerre_integral(3, 2, 0, 2, 2) == 0
    assert refs.laguerre_integral(3, 3, 0, 2, 2) == math.factorial(5) // math.factorial(3)
    # L_n^alpha L_0^alpha = L_n^alpha.
    assert refs.linearization(4, 0, 1) == (1,)


def test_tracer_records_nested_spans_and_restores_the_modules():
    from hahnium import angular, laguerre_integrals, orthopoly, specfun

    modules = {"specfun": specfun, "orthopoly": orthopoly,
               "laguerre_integrals": laguerre_integrals, "angular": angular,
               "hydrogen_nr": nr}
    original = nr.screening_nr
    tracer = Tracer(modules)
    tracer.install()
    try:
        assert nr.screening_nr is not original
        nr.screening_nr(nr.NrState(1.0, 3, 2, 1), 1.0, 0.3)
    finally:
        tracer.uninstall()
    assert nr.screening_nr is original
    assert nr.clebsch_gordan is angular.clebsch_gordan
    calls, self_s = tracer.layer_totals("angular")
    assert calls > 0 and self_s > 0
    top = [span for span in tracer.spans if span[1] == -1]
    assert [span[3] for span in top] == ["hydrogen_nr.screening_nr"]
    total = top[0][5] - top[0][4]
    assert sum(tracer.layer_totals(layer)[1] for layer in modules) == pytest.approx(
        total, rel=1e-6)
