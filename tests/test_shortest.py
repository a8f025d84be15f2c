"""The trace.csv kernel against repr, cell for cell."""

import numpy as np
import pytest

from etcsim._shortest import _shortest_csv

_NCOLS = 8
_CHUNK_ROWS = 4096  # bounds the kernel's arrays; trace.csv calls it on smaller blocks


def _u64(values):
    return np.asarray(values, dtype=np.uint64).view(np.float64)


def _random_bits(rng):
    bits = _u64(rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False))
    return bits[np.isfinite(bits)]


def _with_neighbours(values):
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf),
                               -values])


# each kind of cell the 'r' rules treat apart; the sizes keep the test near one second
_CASES = {
    "random_bit_patterns": _random_bits,
    "powers_of_2_and_10": lambda rng: _with_neighbours(np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]])),
    "subnormals": lambda rng: _u64(np.arange(1, 2**17)),  # every significand below 2**17
    "zeros_infinities_nan": lambda rng: np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, _u64([0x7FF0_0000_0000_0001])[0]]),
    "integers_up_to_2_53": lambda rng: np.concatenate([
        rng.integers(0, 2**53, 20_000, endpoint=True), np.arange(1000),
        [2**53 - 1, 2**53, 2**53 + 2, 10**15, 10**16 - 1]]).astype(np.float64),
    "form_switches_and_long_exponents": lambda rng: _with_neighbours(np.array(
        [1e-4, 1e-5, 9999999999999998.0, 1e16, 1e100, 1e-100, 5e-324, 8e-323,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3, 1 / 3])),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_kernel_cells_equal_repr(case):
    # every row is ",".join(map(repr, row)) + "\n", whatever form repr picks
    values = _CASES[case](np.random.default_rng(20261019))
    values = np.concatenate([values, np.zeros(-len(values) % _NCOLS)]).reshape(-1, _NCOLS)
    for a in range(0, len(values), _CHUNK_ROWS):
        block = values[a : a + _CHUNK_ROWS]
        want = [",".join(map(repr, row)) + "\n" for row in block.tolist()]
        got = _shortest_csv(block, _NCOLS).decode()
        if got != "".join(want):
            rows = got.splitlines(keepends=True) + [""] * len(want)
            bad = next(i for i, w in enumerate(want) if rows[i] != w)
            pytest.fail(f"row {a + bad}: {rows[bad]!r} != {want[bad]!r}")
