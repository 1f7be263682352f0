"""Set-up probe: import a workload's modules and warm each public function.

Run in a fresh interpreter as ``python bench/probe.py <workload>`` with the
package's ``src`` directory on ``PYTHONPATH``.  Prints the seconds from the
first import to the end of the warm calls.  The benchmark process imports
``warm`` from here too, so the probe and the measured loop warm the same
functions.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def _warm_tabulate() -> None:
    from hahnium import hydrogen_nr as nr
    from hahnium import hydrogen_rel as rel

    state = nr.NrState(2.0, 3, 1, 1)
    nr.expect_r_power_nr(state, 2)
    nr.screening_nr(state, 1.0, 0.5)
    dirac = rel.RelState(20.0, 1, -1)
    rel.expect_r_power_rel(dirac, 2)
    rel.expect_special_rel(dirac, "r2")
    rel.expect_hahn_form_rel(dirac, 2)
    rel.screening_rel_1s(20.0, 0.1)


def _warm_rational() -> None:
    from hahnium import hydrogen_nr as nr
    from hahnium import laguerre_integrals as li
    from hahnium import orthopoly as op

    state = nr.NrState(Fraction(3, 2), 3, 1)
    nr.expect_r_power_nr(state, 2)
    nr.expect_recurrence_nr(state, 2)
    nr.inversion_check_nr(state, 1)
    spec = li.JSpec(3, 2, 4, 1, 1)
    li.j_integral_exact(spec, "direct")
    li.j_integral_exact(spec, "transformed")
    li.j_diag_positive_exact(3, 1, 2)
    li.j_diag_negative_exact(3, 2, 1)
    li.linearization_coeffs(2, 1, Fraction(1, 2))
    li.linearization_closed_form(2, 1, 2, Fraction(1, 2))
    op.hahn(op.HahnParams(2, Fraction(1), Fraction(0), Fraction(-5)), Fraction(1))


def _warm_oracle_sweep() -> None:
    from hahnium import hydrogen_nr as nr
    from hahnium import hydrogen_rel as rel
    from hahnium import oracle

    state = nr.NrState(2.0, 2, 1)
    nr.expect_r_power_nr(state, 1)
    oracle.brute_expect_nr(state, 1)
    dirac = rel.RelState(20.0, 1, -1)
    rel.expect_r_power_rel(dirac, 1)
    oracle.brute_expect_rel(dirac, 1)


WARM = {
    "tabulate": _warm_tabulate,
    "rational": _warm_rational,
    "oracle_sweep": _warm_oracle_sweep,
}


def warm(workload: str) -> None:
    """Import the workload's modules and make one call to each function it times."""
    WARM[workload]()


if __name__ == "__main__":
    warm(sys.argv[1])
    print(repr(time.perf_counter() - _START))
