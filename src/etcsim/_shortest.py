"""CSV text of float64 blocks whose cells are exactly repr(float(x)).

repr gives the shortest decimal that reads back as x, the closest one where several
have that length, laid out by Python's 'r' rules: exponent form when the decimal
point position decpt (x = 0.d1d2...dn * 10**decpt) is <= -4 or > 16, with a signed
exponent of at least two digits; otherwise positional, with ".0" after an integer.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), done in uint64 arithmetic over whole arrays: a 126-bit power of ten from a
table built once with Python ints, three round-to-odd products per cell (one
multiplication; the other two differ from it by a shifted power of ten), and a choice
between the cell's 16-17 digit candidates and the one a digit shorter. One rule
differs from Java's Double.toString, where Schubfach comes from: one digit is a valid
result, so the shorter candidate is tried for every cell (Java: s >= 100).

The layout depends on decpt alone, so tables indexed by decpt hold it: the first word
("0." and up to three zeros for -3 <= decpt <= 0), the exponent bytes and the ','
after them, the digits before the point and the least count of digits kept. The
fix-up set, the cells whose digits this Schubfach does not give, is written last from
fixed words: zeros, infinities, nan, and +-5e-324 and +-1e-323, the two subnormals
that Java scales by ten first.

Each cell becomes four little-endian words (32 bytes) with NUL where no character
goes; one translate per block drops the NULs. Digits stay in uint64 and digit counts
in int64, never mixed, so numpy 1.x never promotes an operation to float64. A
comparison enters the arithmetic as the sign bit of a difference of two values below
2**63, not as a bool or a select; only the carries of 128-bit sums add a bool. Spent
arrays are deleted as soon as possible: that bounds the memory a block takes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(2**63 - 1)
_ASCII8 = _U(0x3030_3030_3030_3030)  # eight '0' bytes: digit values to characters
_K_BIAS = 400  # decimal exponents are stored plus this, so they stay unsigned
_DOT, _MINUS = ord("."), ord("-")
_SEP = {b: ord(b) << 56 for b in ",\n"}  # the byte after a cell: top byte of its word 3


def _schubfach_tables():
    """Per index bq + 2048 * irregular (bq the biased binary exponent): the decimal
    exponent k plus _K_BIAS, the shift h + 1, and the 63-bit words g1, g0 of
    g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - r)) + 1, r = floor(log2(10**-k))."""
    q = np.arange(2048, dtype=np.int64) - 1075
    q[0] = -1074
    k = (q * 661_971_961_083) >> 41  # floor(log10(2**q))
    # floor(log10(3/4 * 2**q)) where the spacing below 2**52 * 2**q is half as wide
    k_irregular = np.where(q > -1074, (q * 661_971_961_083 - 274_743_187_321) >> 41, k)
    q, k = np.concatenate([q, q]), np.concatenate([k, k_irregular])
    r = (-k * 913_124_641_741) >> 38  # floor(log2(10**-k))
    words = []
    for kk in range(int(k.min()), int(k.max()) + 1):  # g with Python ints, once per k
        num, den = (10**-kk, 1) if kk <= 0 else (1, 10**kk)
        rr = (-kk * 913_124_641_741) >> 38
        g = (num << 125 - rr) // den + 1 if rr <= 125 else num // (den << rr - 125) + 1
        words.append([g >> 63, g & (2**63 - 1)])
    g = np.array(words, dtype=np.uint64)[k - k.min()]
    return (k + _K_BIAS).astype(np.uint64), (q + r + 3).astype(np.uint64), *g.T.copy()


_KB, _H1, _G1, _G0 = _schubfach_tables()
_P10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# the 4 digits of each number below 10**4 as byte values, the first in the lowest byte
_DIGITS4 = sum(np.arange(10_000, dtype=np.uint64) // _U(10 ** (3 - j)) % _U(10) << _U(8 * j)
               for j in range(4))
# by the biased exponent of float(2**e), the digits of 2**e: a number of bit length
# e + 1 has that many or one more
_DIGITS_OF_POW2 = np.array([0] * 1023 + [len(str(2**e)) for e in range(64)], dtype=np.uint64)


def _byte_masks(count, start):
    """Word masks keeping the bytes < count of the word at byte offset start."""
    return np.array([(1 << 8 * min(max(c - start, 0), 8)) - 1 for c in count], dtype=np.uint64)


# the mantissa field: 17 digit bytes over three words, a '.' inserted after p of them
# (none for p = 0), and 1 + m1 digits and the dot kept: bytes < m1 + 2
_LOW = [_byte_masks(range(18), 8 * i) for i in range(2)]
_DOTS = [np.array([_DOT << 8 * p - 64 * i if p and 8 * i <= p < 8 * i + 8 else 0
                   for p in range(18)], dtype=np.uint64) for i in range(3)]
_KEEP = [_byte_masks(range(2, 20), 8 * i) for i in range(3)]


def _layout_tables():
    """Per decpt + _K_BIAS, up to the largest a cell of the block can reach, fix-up set
    included: word 0 but the sign, word 3 but the digits ("e+XX" or "e-XXX" in bytes 2-6
    where it has an exponent, ',' in byte 7), P and W. W is decpt in positional form
    with digits before the point, and 0 otherwise; P is W, or 1 in exponent form. A cell
    of n digits has p = min(P, n - 1 + W) digits before the point and keeps
    1 + max(n - 1, W) digits: n, or W + 1 for the ".0" after an integer."""
    first, last, before, whole = [], [], [], []
    for d in range(-_K_BIAS, int(_KB.max()) + 21 - _K_BIAS):  # 1 <= ndig <= 20
        expo, small = not -4 < d <= 16, -4 < d <= 0
        first.append(int.from_bytes(b"\0" + b"0." + b"0" * -d if small else b"", "little"))
        exponent = f"e{d - 1:+03d}".encode() if expo else b""
        last.append(int.from_bytes(b"\0\0" + exponent, "little") | _SEP[","])
        before.append(1 if expo else 0 if small else d)
        whole.append(0 if expo or small else d)
    return (*(np.array(t, dtype=np.uint64) for t in (first, last)),
            *(np.array(t, dtype=np.int64) for t in (before, whole)))


_FIRST, _LAST, _BEFORE, _WHOLE = _layout_tables()
# the fix-up set: bits << 1 (the sign dropped) at each key, above the last one for nan,
# with its text and the sign's character
_FIXED_KEYS = np.array([0, 2, 4, 0x7FF << 53], dtype=np.uint64)
_FIXED_TEXT = np.array([int.from_bytes(text.encode(), "little")
                        for text in ("0.0", "5e-324", "1e-323", "inf", "nan")], dtype=np.uint64)
_FIXED_SIGN = np.array([_MINUS] * 4 + [0], dtype=np.uint64)


def _mul128(ah, al, bh, bl):
    """High and low words of a * b, from the 32-bit halves of each."""
    c32 = _U(32)
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> c32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> c32) + (hl >> c32) + (mid >> c32), mid << c32 | ll & _M32


def _plus(hi, lo, g, sh, rsh):
    """hi * 2**64 + lo + (g << sh) as high and low words; sh < 64, rsh = 64 - sh."""
    glo = g << sh
    lo = lo + glo
    return hi + (g >> rsh) + (lo < glo), lo


def _minus(hi, lo, g, sh, rsh):
    """hi * 2**64 + lo - (g << sh) as high and low words; sh < 64, rsh = 64 - sh."""
    glo = g << sh
    return hi - (g >> rsh) - (lo < glo), lo - glo


def _rop(x1, y1, y0):
    """Schubfach's round-to-odd g * cp / 2**127 from g0 * cp = x1 * 2**64 + x0 and
    g1 * cp = y1 * 2**64 + y0, g = g1 * 2**63 + g0 (x0 lies below its rounding)."""
    z = (y0 >> _U(1)) + x1
    return y1 + (z >> _U(63)) | (z & _M63) + _M63 >> _U(63)


def _at(table, index):
    """table[index] for an index array, without a cast of the index."""
    return table.take(index.view(np.int64))


def _decimal(bits):
    """(f, e): for each finite cell outside the fix-up set the shortest decimal
    f * 10**(e - _K_BIAS) that reads back as it, the closer one (then the one with even
    f) where two have that length; f may end in zeros. Garbage in the fix-up set."""
    bq = bits >> _U(52) & _U(0x7FF)
    t = bits & _U(2**52 - 1)
    irregular = (t - _U(1) & _U(1) - bq) >> _U(63)  # t == 0 and bq > 1
    ti = bq | irregular << _U(11)
    c = t | np.minimum(bq, _U(1)) << _U(52)
    del bq, t
    e = _at(_KB, ti)
    g1, g0, h1 = _at(_G1, ti), _at(_G0, ti), _at(_H1, ti)
    del ti
    out = c & _U(1)
    # g * (cb << h) once, cb = 4c; the neighbours cbr = cb + 2 and cbl = cb - 2 (cb - 1
    # where the spacing below is half as wide) differ from it by g << sh
    cp = c << h1 + _U(1)
    bh, bl = cp >> _U(32), cp & _M32
    del c, cp
    x1, x0 = _mul128(g0 >> _U(32), g0 & _M32, bh, bl)
    y1, y0 = _mul128(g1 >> _U(32), g1 & _M32, bh, bl)
    del bh, bl
    vb = _rop(x1, y1, y0)
    rh = _U(64) - h1
    vbr = _rop(_plus(x1, x0, g0, h1, rh)[0], *_plus(y1, y0, g1, h1, rh)) - out
    h1 -= irregular
    rh += irregular
    vbl = _rop(_minus(x1, x0, g0, h1, rh)[0], *_minus(y1, y0, g1, h1, rh)) + out
    del x1, x0, y1, y0, g1, g0, h1, rh, irregular, out
    # out = 1 (odd c) opens the rounding interval: with it folded into vbl and vbr,
    # a <= b tests membership throughout. Every term lies below 2**63, so (b - a) >> 63
    # is 1 exactly where a > b
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    s4, sp4 = s << _U(2), sp10 << _U(2)
    upout = sp4 - vbl >> _U(63)  # sp10 outside
    shorter = upout ^ vbr - sp4 - _U(40) >> _U(63)  # just one of sp10, sp10 + 10 inside
    uout = s4 - vbl >> _U(63)  # s outside
    wout = vbr - s4 - _U(4) >> _U(63)  # s + 1 outside
    far = s4 + _U(2) - vb - (s & _U(1)) >> _U(63)  # s + 1 closer (or as close, s odd)
    del vbl, vbr, vb, s4, sp4
    longer = s + (uout | far & ~wout)
    return longer + (sp10 + upout * _U(10) - longer & _U(0) - shorter), e


def _digits8(x):
    """The 8 decimal digits of each x < 10**8 as byte values 0-9, most significant in
    the lowest byte."""
    hi = x // _U(10_000)
    return _at(_DIGITS4, hi) | _at(_DIGITS4, x - hi * _U(10_000)) << _U(32)


def _byte_index(x, plus):
    """plus + the index of the highest nonzero byte of each x, as int64; below plus - 8
    for x = 0 (plus < 100)."""
    return (x.astype(np.float64).view(np.int64) >> 52) - (1023 - 8 * plus) >> 3


def _mantissa(f):
    """(digits, n1, ndig) for each f > 0 with ndig digits: its digits as 17 characters in
    three words, the first in the lowest byte and zeros after f's own, and n1 (int64),
    the count of digits after the first up to the last nonzero one."""
    # f | 1 has f's digit count and keeps zero cells, whose f is garbage, in the tables
    ndig = _at(_DIGITS_OF_POW2, (f | _U(1)).astype(np.float64).view(np.uint64) >> _U(52))
    ndig += _at(_P10, ndig) - _U(1) - f >> _U(63)  # one more where f >= 10**ndig
    f = f * _at(_P10, _U(17) - ndig)
    top = f // _U(10**16)
    f -= top * _U(10**16)
    hi8 = f // _U(10**8)
    d1, d2 = _digits8(hi8), _digits8(f - hi8 * _U(10**8))
    del f, hi8
    n1 = np.maximum(np.maximum(_byte_index(d2, 9), _byte_index(d1, 1)), 0)
    digits = (top | d1 << _U(8) | _ASCII8, d1 >> _U(56) | d2 << _U(8) | _ASCII8,
              d2 >> _U(56) | _U(0x30))
    return digits, n1, ndig


def _shortest_csv(block, ncols: int) -> bytes:
    """block's cells in row order as CSV rows of ncols cells: "," between cells, "\n"
    after each row, every cell repr(float(x)), nan, inf, -0.0 and subnormals included."""
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
    f, decpt = _decimal(bits)
    digits, n1, ndig = _mantissa(f)
    del f
    decpt += ndig  # plus _K_BIAS
    del ndig
    whole = _at(_WHOLE, decpt)
    p = np.minimum(_at(_BEFORE, decpt), n1 + whole)
    m1 = np.maximum(n1, whole)
    del n1, whole

    words = np.empty((len(bits), 4), dtype="<u8")
    w0, w1, w2, w3 = words.T
    carry = _U(0)
    for i, (d, w) in enumerate(zip(digits, (w1, w2))):
        low = d & _at(_LOW[i], p)
        d ^= low  # the bytes at or after the point, which move up one
        np.bitwise_and(d << _U(8) | low | carry | _at(_DOTS[i], p), _at(_KEEP[i], m1), out=w)
        carry = d >> _U(56)
    # p <= 16: the third word moves whole
    np.bitwise_and(digits[2] << _U(8) | carry | _at(_DOTS[2], p), _at(_KEEP[2], m1), out=w3)
    del digits, p, m1, low, carry
    np.bitwise_or(_at(_FIRST, decpt), (bits >> _U(63)) * _U(_MINUS), out=w0)
    w3 |= _at(_LAST, decpt)
    del decpt

    special = np.flatnonzero((bits << _U(1)) - _U(5) >= _U((0x7FF << 53) - 5))
    if special.size:  # the fix-up set
        kind = _FIXED_KEYS.searchsorted(bits[special] << _U(1))
        w0[special] = _FIXED_SIGN[kind] * (bits[special] >> _U(63))
        w1[special] = _FIXED_TEXT[kind]
        w2[special] = 0
        w3[special] = _SEP[","]
    w3[ncols - 1 :: ncols] ^= _U(_SEP[","] ^ _SEP["\n"])
    return words.tobytes().translate(None, b"\0")
