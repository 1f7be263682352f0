"""Binary64 radial moments frozen bit for bit.

`golden/moments_float_grid.jsonl` holds, one line per state, the
`float.hex` of every `<r^p>` of `expect_r_power_nr` and
`expect_r_power_rel` on a fixed grid, the Dirac `cancellation_flag`, and
the name of the exception where a power is refused.  The test recomputes
each line and compares with `==`, so any change to the order of a binary64
operation on these routes shows.

The grids:
- Dirac: Z in {1, 17.3, 40, 92, 118.5, 130, 136}, kappa in {+-1, +-2,
  +-5, +-30}, n_r in {0, 1, 3, 15, 100}, p in [-8, 4] and {6, 8, 12, 16,
  20, 24}; plus the near-critical Z in {137.03, 137.035} with
  kappa = +-1 and n_r <= 3 on the same powers, where the exact rescue
  runs and the flag is set;
- NR: Z in {1, 3.7, 92}, every (n, l) with n <= 12, every admissible
  p <= 24.

`python tests/test_moments_golden.py` rewrites the file from the code as
it stands; it is meant to be run once, on the code the golden freezes.
"""

import json
import pathlib

import pytest

from hahnium.hydrogen_nr import NrState, expect_r_power_nr
from hahnium.hydrogen_rel import RelState, expect_r_power_rel

GOLDEN = pathlib.Path(__file__).parent / "golden" / "moments_float_grid.jsonl"
_REL_POWERS = list(range(-8, 5)) + [6, 8, 12, 16, 20, 24]


def _states():
    """(model, state, powers) of every line, in file order."""
    for z in (1.0, 17.3, 40.0, 92.0, 118.5, 130.0, 136.0):
        for kappa in (1, -1, 2, -2, 5, -5, 30, -30):
            for n_r in (0, 1, 3, 15, 100):
                if n_r or kappa < 0:
                    yield "rel", RelState(z, n_r, kappa), _REL_POWERS
    for z in (137.03, 137.035):
        for kappa in (1, -1):
            for n_r in range(4):
                if n_r or kappa < 0:
                    yield "rel", RelState(z, n_r, kappa), _REL_POWERS
    for z in (1.0, 3.7, 92.0):
        for n in range(1, 13):
            for l in range(n):
                yield "nr", NrState(z, n, l), list(range(-2 * l - 2, 25))


def _line(model: str, state, powers: list) -> dict:
    routine = expect_r_power_rel if model == "rel" else expect_r_power_nr
    if model == "rel":
        line = {"model": model, "Z": state.Z, "n_r": state.n_r, "kappa": state.kappa}
    else:
        line = {"model": model, "Z": state.Z, "n": state.n, "l": state.l}
    out, flags = [], []
    for p in powers:
        try:
            moment = routine(state, p)
        except (ValueError, ArithmeticError) as err:
            out.append(type(err).__name__)
            flags.append(0)
        else:
            out.append(moment.value.hex())
            flags.append(int(moment.cancellation_flag))
    line.update(p=powers, out=out, flag=flags)
    return line


@pytest.mark.parametrize("model", ["rel", "nr"])
def test_float_moments_match_the_golden_grid(model):
    want = [json.loads(row) for row in GOLDEN.read_text().splitlines()]
    cases = list(_states())
    assert len(want) == len(cases)
    checked = 0
    for expected, case in zip(want, cases):
        if case[0] == model:
            assert _line(*case) == expected
            checked += len(expected["p"])
    assert checked > 4000


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(_line(*case)) + "\n" for case in _states()))
