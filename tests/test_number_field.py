"""The number-field rule: exact iff every numeric input is an int (not a
bool) or a Fraction, binary64 otherwise, with nothing in between."""

import sys
from fractions import Fraction

import pytest

import hahnium.specfun as specfun
from hahnium.hydrogen_nr import (
    NrState,
    energy_nr,
    expect_r_power_nr,
    expect_recurrence_nr,
    inversion_check_nr,
    screening_nr,
)
from hahnium.hydrogen_rel import RelState, expect_r_power_rel
from hahnium.laguerre_integrals import (
    JSpec,
    j_diag_negative_exact,
    j_diag_positive_exact,
    j_integral_exact,
    linearization_closed_form,
    linearization_coeffs,
)
from hahnium.orthopoly import (
    HahnParams,
    _hahn,
    chebyshev_discrete,
    hahn,
    hahn_recurrence_rhs,
)


def _numbers(result) -> list:
    """The numbers inside a result, whatever container holds them."""
    if hasattr(result, "value"):
        return [result.value]
    if hasattr(result, "coefficients"):
        return list(result.coefficients)
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _numbers(item)]
    return [result]


@pytest.fixture
def no_exact_series(monkeypatch):
    """The public exact series entry and the private exact series body
    both raise, wherever a hahnium module holds them: the hot closed forms
    call the body without the entry."""

    def refuse(*args):
        raise AssertionError(f"float inputs reached the Fraction series: {args}")

    for attribute in ("hyp_terminating_exact", "_series_exact"):
        original = getattr(specfun, attribute)
        for name, module in list(sys.modules.items()):
            held = getattr(module, attribute, None)
            if name.startswith("hahnium") and held is original:
                monkeypatch.setattr(module, attribute, refuse)


def test_float_inputs_never_reach_the_fraction_series(no_exact_series):
    state = NrState(37.3, 9, 4)
    for p in range(-10, 9):
        assert isinstance(expect_r_power_nr(state, p).value, float), p
    assert isinstance(screening_nr(NrState(2.0, 4, 2, 1), 1.5, 0.3), float)
    assert isinstance(hahn(HahnParams(5, 1, 2, -7), 2.5), float)
    assert isinstance(expect_r_power_rel(RelState(40.0, 2, -2), 3).value, float)
    coefficients = linearization_coeffs(5, 3, 0.5).coefficients
    assert all(isinstance(c, float) for c in coefficients)
    assert isinstance(linearization_closed_form(5, 3, 6, 0.5), float)


def test_the_guard_fires_on_the_private_exact_body(no_exact_series):
    # a float sent into the exact Hahn body, as a wrong field decision in
    # a closed form would send it, must hit the refusing series body
    with pytest.raises(AssertionError, match="Fraction series"):
        _hahn(Fraction, 3, 0, 0, -7.5, 2)


EXACT_CASES = {
    "energy_nr": lambda: energy_nr(NrState(Fraction(3, 2), 3, 1)),
    "expect_r_power_nr": lambda: expect_r_power_nr(NrState(2, 4, 2), -4),
    "expect_r_power_nr, negative power, Fraction Z": lambda: expect_r_power_nr(
        NrState(Fraction(7, 3), 5, 3), -7
    ),
    "expect_recurrence_nr": lambda: expect_recurrence_nr(
        NrState(Fraction(5, 3), 3, 1), 3
    ),
    "inversion_check_nr": lambda: inversion_check_nr(NrState(3, 4, 2), 2),
    "hahn": lambda: hahn(HahnParams(3, Fraction(1, 2), 2, -9), 4),
    "chebyshev_discrete": lambda: chebyshev_discrete(4, 3, -7),
    "hahn_recurrence_rhs": lambda: hahn_recurrence_rhs(
        2, 1, Fraction(1, 3), -8, 2, Fraction(1, 5), Fraction(-2, 7)
    ),
    "linearization_coeffs": lambda: linearization_coeffs(3, 2, Fraction(1, 2)),
    "linearization_coeffs, negative alpha": lambda: linearization_coeffs(
        4, 3, Fraction(-2, 3)
    ),
    "linearization_closed_form": lambda: linearization_closed_form(3, 2, 4, 2),
    "j_integral_exact": lambda: j_integral_exact(JSpec(4, 2, 3, 1, 1)),
    "j_diag_positive_exact": lambda: j_diag_positive_exact(6, 3, 5),
    "j_diag_negative_exact": lambda: j_diag_negative_exact(6, 3, 2),
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_exact_inputs_stay_exact(name):
    numbers = _numbers(EXACT_CASES[name]())
    assert numbers and all(type(x) is Fraction for x in numbers), (name, numbers)


def test_bool_inputs_are_not_exact():
    assert specfun._field(1, Fraction(1, 2)) is Fraction
    assert specfun._field(True) is float
    assert specfun._field(1, False) is float
    assert isinstance(energy_nr(NrState(True, 1, 0)), float)
    assert isinstance(hahn(HahnParams(2, 0, 0, -5), True), float)
    coefficients = linearization_coeffs(2, 1, True).coefficients
    assert all(isinstance(c, float) for c in coefficients)


@pytest.mark.parametrize("n", [44, 60])
@pytest.mark.parametrize("z", [50, Fraction(373, 10)])
def test_float_charge_matches_exact_charge_at_large_l(n, z):
    # for l >= 43 the Chebyshev prefactor (about (4l+1)!) and the inversion
    # ratio each leave binary64 range, while the moment and both sides of
    # the inversion relation do not
    l = n - 1
    for p in (-2 * l - 2, -l, 0):
        exact = float(expect_r_power_nr(NrState(z, n, l), p).value)
        value = expect_r_power_nr(NrState(float(z), n, l), p).value
        assert value == pytest.approx(exact, rel=1e-13, abs=0), p
    for k in (l, 2 * l):
        lhs, rhs = inversion_check_nr(NrState(float(z), n, l), k)
        assert rhs == pytest.approx(lhs, rel=1e-13, abs=0), k
