"""CSV text of float64 blocks whose cells are exactly repr(float(x)).

repr gives the shortest decimal that reads back as x, the closest one where several
have that length, laid out by Python's 'r' rules: exponent form when the decimal
point position decpt (x = 0.d1d2...dn * 10**decpt) is <= -4 or > 16, with a signed
exponent of at least two digits; otherwise positional, with ".0" after an integer.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), done in uint64 arithmetic over whole arrays: a 126-bit power of ten from a
table built once with Python ints, three round-to-odd products per cell (one
multiplication; the other two differ from it by a shifted power of ten), and a choice
between the cell's 16-17 digit candidates and the one a digit shorter. Two rules
differ from Java's Double.toString, where Schubfach comes from: one digit is a valid
result, so the shorter candidate is tried from s >= 10 (Java: s >= 100), and the
tenfold-scaled tiny subnormals keep their exponent correction on both branches.

Each cell becomes four little-endian words (32 bytes) with NUL where no character
goes; one translate per block drops the NULs. Every operation stays in uint64, so
numpy 1.x never promotes a mixed signed/unsigned operation to float64. Spent arrays
are deleted as soon as possible: that bounds the memory a block takes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(2**63 - 1)
_ASCII8 = _U(0x3030_3030_3030_3030)  # eight '0' bytes: digit values to characters
_K_BIAS = 400  # decimal exponents are stored plus this, so they stay unsigned
_DOT, _MINUS = ord("."), ord("-")


def _schubfach_tables():
    """Per index bq + 2048 * irregular (bq the biased binary exponent): the decimal
    exponent k plus _K_BIAS, the shift h, and the 63-bit words g1, g0 of
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
    return (k + _K_BIAS).astype(np.uint64), (q + r + 2).astype(np.uint64), *g.T.copy()


_KB, _H, _G1, _G0 = _schubfach_tables()
_P10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# the digits of 2**e: a number of bit length e + 1 has that many or one more
_DIGITS_OF_POW2 = np.array([len(str(2**e)) for e in range(64)], dtype=np.uint64)


def _byte_masks(count, start):
    """Word masks keeping the bytes < count of the word at byte offset start."""
    return np.array([(1 << 8 * min(max(c - start, 0), 8)) - 1 for c in count], dtype=np.uint64)


# the mantissa field: 17 digit bytes over three words, a '.' inserted after p of them
# (none for p = 0), and m digits and the dot kept: bytes < m + 1
_LOW = [_byte_masks(range(18), 8 * i) for i in range(2)]
_DOTS = [np.array([_DOT << 8 * p - 64 * i if p and 8 * i <= p < 8 * i + 8 else 0
                   for p in range(18)], dtype=np.uint64) for i in range(3)]
_KEEP = [_byte_masks(range(1, 19), 8 * i) for i in range(3)]
# word 0: the sign, then "0." and up to three zeros for -3 <= decpt <= 0 (index 1 - decpt)
_PREFIX = np.array([0] + [int.from_bytes(b"\0" + b"0." + b"0" * z, "little") for z in range(4)],
                   dtype=np.uint64)
# word 3 bytes 2-6: "e+XX" or "e-XXX" for exponent e at index e + 325, 0 for none
_EXPONENT = np.array([0] + [int.from_bytes(b"\0\0" + f"e{e:+03d}".encode(), "little")
                            for e in range(-324, 309)], dtype=np.uint64)
_SEP = {b: _U(ord(b) << 56) for b in ",\n"}
_SPECIAL = {name: _U(int.from_bytes(name.encode(), "little")) for name in ("0.0", "inf", "nan")}


def _mul128(ah, al, bh, bl):
    """High and low words of a * b, from the 32-bit halves of each."""
    c32 = _U(32)
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> c32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> c32) + (hl >> c32) + (mid >> c32), mid << c32 | ll & _M32


def _plus(hi, lo, g, sh):
    """hi * 2**64 + lo + (g << sh) as high and low words; sh < 64."""
    glo = g << sh
    lo = lo + glo
    return hi + (g >> _U(64) - sh) + (lo < glo), lo


def _minus(hi, lo, g, sh):
    """hi * 2**64 + lo - (g << sh) as high and low words; sh < 64."""
    glo = g << sh
    return hi - (g >> _U(64) - sh) - (lo < glo), lo - glo


def _rop(x1, y1, y0):
    """Schubfach's round-to-odd g * cp / 2**127 from g0 * cp = x1 * 2**64 + x0 and
    g1 * cp = y1 * 2**64 + y0, g = g1 * 2**63 + g0 (x0 lies below its rounding)."""
    z = (y0 >> _U(1)) + x1
    return y1 + (z >> _U(63)) | (z & _M63) + _M63 >> _U(63)


def _at(table, index):
    """table[index] for a uint64 index array, without a cast of the index."""
    return table.take(index.view(np.int64))


def _decimal(bits):
    """(f, e): for each finite nonzero cell the shortest decimal f * 10**(e - _K_BIAS)
    that reads back as it, the closer one (then the one with even f) where two have
    that length; f may end in zeros. Garbage for zero, inf and nan."""
    bq = bits >> _U(52) & _U(0x7FF)
    t = bits & _U(2**52 - 1)
    irregular = (t == 0) & (bq > 1)
    ti = bq | irregular * _U(2048)
    tiny = (bq == 0) & (t < 3)  # scaled by 10, one decimal exponent down
    c = t | np.minimum(bq, _U(1)) << _U(52)
    c += tiny * _U(9) * t
    del bq, t
    e = _at(_KB, ti) - tiny
    g1, g0, h = _at(_G1, ti), _at(_G0, ti), _at(_H, ti)
    del ti, tiny
    out = c & _U(1)
    # g * (cb << h) once, cb = 4c; the neighbours cbr = cb + 2 and cbl = cb - 2 (cb - 1
    # where the spacing below is half as wide) differ from it by g << sh
    cp = c << h + _U(2)
    bh, bl = cp >> _U(32), cp & _M32
    del c, cp
    x1, x0 = _mul128(g0 >> _U(32), g0 & _M32, bh, bl)
    y1, y0 = _mul128(g1 >> _U(32), g1 & _M32, bh, bl)
    del bh, bl
    vb = _rop(x1, y1, y0)
    h += _U(1)
    vbr = _rop(_plus(x1, x0, g0, h)[0], *_plus(y1, y0, g1, h))
    h -= irregular
    vbl = _rop(_minus(x1, x0, g0, h)[0], *_minus(y1, y0, g1, h))
    del x1, x0, y1, y0, g1, g0, h

    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    shorter = (s >= _U(10)) & (upin != ((sp10 + _U(10) << _U(2)) + out <= vbr))
    uin = vbl + out <= s << _U(2)
    win = (s + _U(1) << _U(2)) + out <= vbr
    mid = s + s + _U(1) << _U(1)  # 2 * (s + t), t = s + 1
    closer_s = (vb < mid) | (vb == mid) & (s & _U(1) == 0)
    return np.where(shorter, sp10 + ~upin * _U(10), s + ~(uin & (~win | closer_s))), e


def _digits8(x):
    """The 8 decimal digits of each x < 10**8 as byte values 0-9, most significant in
    the lowest byte."""
    hi = x * _U(109_951_163) >> _U(40)  # x // 10**4
    x = hi | x - hi * _U(10_000) << _U(32)
    hi = x * _U(10_486) >> _U(20) & _U(0x0000_007F_0000_007F)  # // 100 per 32-bit lane
    x = hi | x - hi * _U(100) << _U(16)
    hi = x * _U(103) >> _U(10) & _U(0x000F_000F_000F_000F)  # // 10 per 16-bit lane
    return hi | x - hi * _U(10) << _U(8)


def _top_byte(x):
    """Index of the highest nonzero byte of each x > 0 (garbage for x = 0)."""
    return (x.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1023) >> _U(3)


def _mantissa(f):
    """(digits, n, ndig) for each f > 0 with ndig digits: its digits as 17 characters in
    three words, the first in the lowest byte and zeros after f's own, and n, the count
    of digits up to the last nonzero one."""
    # f | 1 has f's digit count and keeps zero cells, whose f is garbage, in the tables
    ndig = _at(_DIGITS_OF_POW2, ((f | _U(1)).astype(np.float64).view(np.uint64) >> _U(52))
               - _U(1023))
    ndig += f >= _at(_P10, ndig)
    f = f * _at(_P10, _U(17) - ndig)
    top = f // _U(10**16)
    f -= top * _U(10**16)
    hi8 = f // _U(10**8)
    d1, d2 = _digits8(hi8), _digits8(f - hi8 * _U(10**8))
    del f, hi8
    n = np.where(d2 != 0, _top_byte(d2) + _U(10),
                 np.where(d1 != 0, _top_byte(d1) + _U(2), _U(1)))
    digits = (top | d1 << _U(8) | _ASCII8, d1 >> _U(56) | d2 << _U(8) | _ASCII8,
              d2 >> _U(56) | _U(0x30))
    return digits, n, ndig


def _shortest_csv(block, ncols: int) -> bytes:
    """block's cells in row order as CSV rows of ncols cells: "," between cells, "\n"
    after each row, every cell repr(float(x)), nan, inf, -0.0 and subnormals included."""
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(np.uint64)
    f, decpt = _decimal(bits)
    digits, n, ndig = _mantissa(f)
    del f
    decpt += ndig  # plus _K_BIAS
    del ndig
    # exponent form, or "0." and -decpt zeros before the digits, or the point after
    # decpt digits; p digits before the field's point (none for p = 0), m digits kept
    expo = (decpt <= _U(_K_BIAS - 4)) | (decpt > _U(_K_BIAS + 16))
    small = ~expo & (decpt <= _U(_K_BIAS))
    p = np.where(expo, n > 1, np.where(small, _U(0), decpt - _U(_K_BIAS)))
    m = np.where(expo | small, n, np.maximum(n, decpt - _U(_K_BIAS - 1)))
    del n

    words = np.empty((len(bits), 4), dtype="<u8")
    w0, w1, w2, w3 = words.T
    carry = _U(0)
    for i, (d, w) in enumerate(zip(digits, (w1, w2, w3))):
        low = d & _at(_LOW[i], p) if i < 2 else _U(0)  # p <= 16: the third word moves whole
        np.bitwise_and(low | (d ^ low) << _U(8) | carry | _at(_DOTS[i], p), _at(_KEEP[i], m),
                       out=w)
        carry = (d ^ low) >> _U(56)
    del digits, p, m, low, carry
    w0[:] = _at(_PREFIX, np.where(small, _U(_K_BIAS + 1) - decpt, _U(0)))
    w0 |= (bits >> _U(63)) * _U(_MINUS)
    sep = np.full(len(bits), _SEP[","])
    sep[ncols - 1 :: ncols] = _SEP["\n"]
    w3 |= _at(_EXPONENT, np.where(expo, decpt - _U(_K_BIAS - 325 + 1), _U(0))) | sep

    special = np.flatnonzero((bits << _U(1)) - _U(1) >= _U((0x7FF << 53) - 1))
    if special.size:  # zeros, infinities and nan
        sb = bits[special] << _U(1)
        nan = sb > _U(0x7FF << 53)
        w0[special] = ~nan * (bits[special] >> _U(63)) * _U(_MINUS)
        w1[special] = np.where(sb == 0, _SPECIAL["0.0"],
                               np.where(nan, _SPECIAL["nan"], _SPECIAL["inf"]))
        w2[special] = 0
        w3[special] = sep[special]
    return words.tobytes().translate(None, b"\0")
