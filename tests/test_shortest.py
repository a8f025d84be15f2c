"""The trace.csv kernel against repr, cell for cell."""

import math

import numpy as np
import pytest

from etcsim import _shortest as kernel
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


def _one_and_17_digits(rng):
    # every decimal point position with 1 digit and, where a double has that many, 17;
    # the two smallest subnormals; both signs
    values = [5e-324, 1e-323]
    for e in range(-323, 309):
        x = float(f"1.2345678901234567e{e}")
        for _ in range(8):  # a few ulps away from any digit pattern, one has all 17
            if len(repr(x).split("e")[0].replace(".", "").strip("0")) == 17:
                break
            x = math.nextafter(x, math.inf)
        values += [float(f"1e{e}"), x]
    return np.array(values + [-v for v in values])


def _every_binary_exponent(rng):
    # significands 1, 2**51, 2**52 - 1 and four drawn at each biased exponent 0..2046, and
    # 0: each power of two, whose decimal is its exponent's shorter-interval row
    t = np.concatenate([[0, 1, 2**51, 2**52 - 1], rng.integers(1, 2**52, 4)]).astype(np.uint64)
    bits = (np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52) | t).reshape(-1)
    return np.concatenate([bits, bits | np.uint64(2**63)]).view(np.float64)


def _rare_paths(bits):
    """Per path of the core that few cells take, which of the finite cells bits take it,
    from the kernel's own tables and products."""
    u64 = np.uint64
    bq, t = bits >> u64(52) & u64(0x7FF), bits & u64(2**52 - 1)
    c = t | (bq != 0).astype(np.uint64) << u64(52)
    u = (c << u64(1) | u64(1)) << kernel._at(kernel._BETA, bq)
    halves = u >> u64(32), u & kernel._M32
    zi, mid = kernel._mul128(*halves, *(kernel._at(kernel._PHI[i], bq) for i in (0, 1)))
    below = kernel._mul128(*halves, *(kernel._at(kernel._PHI[i], bq) for i in (2, 3)))[0]
    mid += below
    zi += mid < below
    r, delta = zi % u64(1000), kernel._at(kernel._DELTA, bq)
    odd = c & u64(1) == 1
    end = (mid == 0) & (r == 0) & odd  # the right end, out of the interval
    parity, exact = kernel._parity((c << u64(1)) - u64(1), bq)
    tie = r == delta
    kept = tie & ((parity == 1) | exact & ~odd)  # zi // 1000 where r = delta
    r[end] = 1000
    dist = r - (delta >> u64(1)) + u64(50)
    f = np.where(end, zi // u64(1000) - u64(1), zi // u64(1000)) * u64(10) + dist // u64(100)
    longer = (r > delta) | (tie & ~kept)
    parity, exact = kernel._parity(c << u64(1), bq)
    mismatch = parity != (dist ^ u64(50)) & u64(1)
    multiple = longer & (dist % u64(100) == 0)  # q or q - 1, by the parity of 2c
    regular = (t != 0) & np.isfinite(bits.view(np.float64))
    return {"excluded_right_end": end & regular, "tie_kept": kept & regular,
            "tie_longer": tie & ~kept & regular, "parity_correction": multiple & mismatch & regular,
            "even_correction": multiple & ~mismatch & exact & (f & u64(1) == 1) & regular,
            "shorter_interval_row": (t == 0) & (bq != 0) & (bq != 2047),
            "subnormal": (bq == 0) & (t != 0)}


def _cells_of_each_rare_path(rng):
    # scan seeded short decimals and random bits; keep up to 200 cells of each path
    digits = rng.integers(1, 10 ** rng.integers(1, 8, 100_000))
    short = [float(f"{d}e{e}") for d, e in zip(digits.tolist(),
                                                rng.integers(-330, 310, 100_000).tolist())]
    bits = np.concatenate([np.array(short).view(np.uint64),
                           rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)])
    taken = _rare_paths(bits)
    assert all(cells.any() for cells in taken.values()), {k: int(v.sum()) for k, v in taken.items()}
    return np.concatenate([bits[cells][:200] for cells in taken.values()]).view(np.float64)


# each kind of cell the 'r' rules treat apart; the sizes keep the test near one second
_CASES = {
    "random_bit_patterns": _random_bits,
    "powers_of_2_and_10": lambda rng: _with_neighbours(np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]])),
    "subnormals": lambda rng: _u64(np.arange(1, 2**17)),  # every significand below 2**17
    "every_decimal_point_position": _one_and_17_digits,
    "zeros_infinities_nan": lambda rng: np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, _u64([0x7FF0_0000_0000_0001])[0]]),
    "integers_up_to_2_53": lambda rng: np.concatenate([
        rng.integers(0, 2**53, 20_000, endpoint=True), np.arange(1000),
        [2**53 - 1, 2**53, 2**53 + 2, 10**15, 10**16 - 1]]).astype(np.float64),
    "form_switches_and_long_exponents": lambda rng: _with_neighbours(np.array(
        [1e-4, 1e-5, 9999999999999998.0, 1e16, 1e100, 1e-100, 5e-324, 8e-323,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3, 1 / 3])),
    "every_binary_exponent": _every_binary_exponent,
    "cells_of_each_rare_path": _cells_of_each_rare_path,
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
