"""The self-checks are not vacuous: each fails when what it checks is off.

Each case skews one function that a check calls, inside the `checks`
namespace, by a relative 1e-8 and reruns the check on a small grid: a
check against a reference must fail, an exact check must report a
nonzero residual.
"""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from hahnium import checks
from hahnium.angular import Spinor2


def _scale(x):
    return x * (Fraction(10**8 + 1, 10**8) if isinstance(x, Fraction) else 1.0 + 1e-8)


def _scale_value(result):
    return dataclasses.replace(result, value=_scale(result.value))


def _scale_spinor(spinor):
    return Spinor2(_scale(spinor.up), _scale(spinor.down))


def _rel_grid():
    return checks.rel_states((1.0, 92.0), (-1, 1), 1)


# case -> (function skewed inside checks, skew, the check's records)
CASES = {
    "nr_oracle": ("expect_r_power_nr", _scale_value, lambda: [
        checks.nr_oracle((1.0,), 2, 2, 1e-12)]),
    "rel_oracle": ("expect_r_power_rel", _scale_value, lambda: checks.rel_oracle(
        _rel_grid(), -2, 2, 1e-12)[:1]),
    "rel_special": ("expect_special_rel", _scale_value,
                    lambda: checks.rel_special(_rel_grid())[:1]),
    "rel_special norm": ("expect_r_power_rel", _scale_value,
                         lambda: checks.rel_special(_rel_grid())[1:]),
    "screening_ground_state": ("screening_nr", _scale, lambda: [
        checks.screening_ground_state((1.0, 2.0), (0.1, 2.0))]),
    "spinor_normalization": ("spinor_harmonic", _scale_spinor, lambda: [
        checks.spinor_normalization((1,))]),
    "sigma_flip": ("_apply_sigma_n", _scale_spinor, lambda: [
        checks.sigma_flip((1, 3), ((0.4, 0.3), (2.4, 4.9)))]),
    # exact checks
    "nr_exact": ("expect_r_power_nr", _scale_value, lambda: [
        checks.nr_exact((Fraction(1), Fraction(3)), 3)]),
    "nr_recurrence": ("expect_r_power_nr", _scale_value, lambda: [
        checks.nr_recurrence((Fraction(1), Fraction(3)), 3, 4)]),
    "linearization": ("laguerre", _scale, lambda: [
        checks.linearization(2, (Fraction(1, 2),), (Fraction(3, 7),))]),
    "j_orthogonality": ("j_integral_exact", _scale, lambda: [checks.j_orthogonality(2)]),
    "cg_square_sums": ("clebsch_gordan_exact", lambda pair: (pair[0], _scale(pair[1])),
                       lambda: [checks.cg_square_sums(2)]),
    "rel_oracle flags": (
        "expect_r_power_rel", lambda e: dataclasses.replace(e, cancellation_flag=True),
        lambda: checks.rel_oracle(_rel_grid(), -1, 1, 1e-12)[2:]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_fails_when_its_input_is_off(case, monkeypatch):
    name, skew, run = CASES[case]
    assert all(record["ok"] for record in run())
    original = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *args: skew(original(*args)))
    records = run()
    assert records and not any(record["ok"] for record in records), records
    if records[0]["tol"] == 0.0:
        assert all(record["residual"] > 0.0 for record in records), records


def test_rate_window_is_open_and_nan_fails():
    assert checks._rate_record("rate", [4.0, 4.5], (3.0, 5.0))["ok"]
    assert not checks._rate_record("rate", [4.0, 5.0], (3.0, 5.0))["ok"]
    outside = checks._rate_record("rate", [4.0, 5.5], (3.0, 5.0))
    assert not outside["ok"] and outside["residual"] == 0.5
    assert not checks._record("nan", [0.0, float("nan"), 1.0], 1e-9)["ok"]


def test_checks_take_no_tolerance():
    # each tolerance is a constant carried in the record's tol; only the
    # oracle checks' quadrature rel_tol is an argument
    public = [
        fn for name, fn in vars(checks).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == checks.__name__
    ]
    assert len(public) > 10
    for fn in public:
        for name in inspect.signature(fn).parameters:
            knob = name in ("tol", "window") or name.endswith("_tol")
            assert name == "rel_tol" or not knob, (fn.__name__, name)
