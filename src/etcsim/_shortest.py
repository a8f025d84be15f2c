"""CSV text of float64 blocks whose cells are exactly repr(float(x)).

repr gives the shortest decimal that reads back as x, the closest one where several
have that length, laid out by Python's 'r' rules: exponent form when the decimal
point position decpt (x = 0.d1d2...dn * 10**decpt) is <= -4 or > 16, with a signed
exponent of at least two digits; otherwise positional, with ".0" after an integer.

The digits come from the nearest-to-even core of Dragonbox (J. Jeon, "Dragonbox: A
New Floating-Point Binary-to-Decimal Conversion Algorithm", 2020), done in uint64
arithmetic over whole arrays. Per binary exponent a table built once holds the
128-bit power of ten phi_k = ceil(10**k * 2**(127 - floor(k log2 10))) as four 32-bit
halves, the shift beta and the interval width delta (times 10**k). Each cell takes
one 64x128-bit product, zi: the upper end of its rounding interval times 10**k. The
remainder r of zi modulo 1000 against delta decides between zi // 1000 and a
candidate one digit longer, near the value itself. Two exact ties and an excluded
right end, rare, are settled on the cells that need them by a parity product. Exact
powers of two, whose interval is shorter below, take their decimal from a table row.

The layout depends on decpt alone, so tables indexed by decpt hold it: the first word
("0." and up to three zeros for -3 <= decpt <= 0), the exponent bytes and the ','
after them, the digits before the point and the least count of digits kept. The
fix-up set is written last from fixed words: zeros, infinities, nan, and +-5e-324
and +-1e-323, the two smallest subnormals.

Each cell becomes four little-endian words (32 bytes) with NUL where no character
goes; one translate per block drops the NULs. Digits stay in uint64 and digit counts
in int64, never mixed, so numpy 1.x never promotes an operation to float64. A
comparison enters the arithmetic as the sign bit of a difference of two values below
2**63, or as a bool combined with uint64 only; a full 64-bit word is compared with
==. Spent arrays are deleted as soon as possible: that bounds the memory a block
takes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_ASCII8 = _U(0x3030_3030_3030_3030)  # eight '0' bytes: digit values to characters
_K_BIAS = 400  # decimal exponents are stored plus this, so they stay unsigned
_DOT, _MINUS = ord("."), ord("-")
_SEP = {b: ord(b) << 56 for b in ",\n"}  # the byte after a cell: top byte of its word 3


def _dragonbox_tables():
    """Per biased binary exponent bq, for e = max(bq, 1) - 1075 and
    k = 2 - floor(e log10 2): beta, the 32-bit halves of phi_k high first, delta, and
    the decimal exponent plus _K_BIAS of zi / 100; then the shortest (f, exponent plus
    _K_BIAS) of 2**52 * 2**e, from its shorter interval
    [2**e * (2**52 - 1/4), 2**e * (2**52 + 1/2)]."""
    e = np.maximum(np.arange(2048, dtype=np.int64), 1) - 1075
    k = 2 - (e * 661_971_961_083 >> 41)  # floor(e log10 2) = e * 661_971_961_083 >> 41
    ks = -(e * 661_971_961_083 - 274_743_187_321 >> 41)  # minus floor(e log10 2 - log10 4/3)
    kmin = int(ks.min())
    words = []
    for kk in range(kmin, int(k.max()) + 1):  # phi_k with Python ints, once per k
        r = kk * 913_124_641_741 >> 38  # floor(kk log2 10)
        if kk < 0:
            phi = -((-1 << 127 - r) // 10**-kk)
        else:
            phi = 10**kk << 127 - r if r <= 127 else -(-(10**kk) >> r - 127)
        words.append([phi >> 96, phi >> 64 & 0xFFFF_FFFF, phi >> 32 & 0xFFFF_FFFF,
                      phi & 0xFFFF_FFFF])
    words = np.array(words, dtype=np.uint64)
    phi = words[k - kmin]
    beta = (e + (k * 913_124_641_741 >> 38)).astype(np.uint64)  # 6..9
    delta = (phi[:, 0] << _U(32) | phi[:, 1]) >> _U(63) - beta  # 100..998

    # the shorter interval as Dragonbox computes it, times 10**ks: xi and zi its ends
    # rounded in, and y the value rounded up, the fallback where no multiple of 10 fits.
    # xi is one above the floor even at e = 2, 3, where the end is an integer: no row
    # depends on it
    beta_s = (e + (ks * 913_124_641_741 >> 38)).astype(np.uint64)  # 0..3
    hi = words[ks - kmin]
    hi = hi[:, 0] << _U(32) | hi[:, 1]
    xi = (hi - (hi >> _U(54)) >> _U(11) - beta_s) + _U(1)
    zi = hi + (hi >> _U(53)) >> _U(11) - beta_s
    y = (hi >> _U(10) - beta_s) + _U(1) >> _U(1)
    y += y - xi >> _U(63)  # y < xi: one up
    y[998] -= _U(1)  # 2**-25 (e = -77) lies halfway between two 17-digit decimals
    zi //= _U(10)
    fits = xi - zi * _U(10) - _U(1) >> _U(63)  # a multiple of 10 lies in the interval
    f2 = y + (zi - y) * fits
    e2 = (_K_BIAS - ks).astype(np.uint64) + fits
    return (beta, *phi.T.copy(), delta, (_K_BIAS + 2 - k).astype(np.uint64), f2, e2)


_BETA, *_PHI, _DELTA, _E1, _F2, _E2 = _dragonbox_tables()
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
    for d in range(-_K_BIAS, int(max(_E1.max(), _E2.max())) + 21 - _K_BIAS):  # 1 <= ndig <= 20
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
    """High and low words of a * b, from the 32-bit halves of each. No sum overflows:
    each is below (2**32 - 1) * 2**32 + 2**32."""
    c32 = _U(32)
    ll = al * bl
    mid = (ll >> c32) + al * bh
    low = (mid & _M32) + ah * bl
    return ah * bh + (mid >> c32) + (low >> c32), low << c32 | ll & _M32


def _at(table, index):
    """table[index] for an index array, without a cast of the index."""
    return table.take(index.view(np.int64))


def _parity(two_f, bq):
    """Dragonbox's parity check of two_f * 10**k * 2**(e - 1), e and k by bq: its
    lowest integer bit and whether it is an integer, from the low 128 bits of
    two_f * phi_k (two_f < 2**55)."""
    beta = _at(_BETA, bq)
    hi, lo = _mul128(two_f >> _U(32), two_f & _M32, _at(_PHI[2], bq), _at(_PHI[3], bq))
    hi += two_f * (_at(_PHI[0], bq) << _U(32) | _at(_PHI[1], bq))
    return hi >> _U(64) - beta & _U(1), (hi << beta | lo >> _U(64) - beta) == _U(0)


def _decimal(bits):
    """(f, e): for each finite cell outside the fix-up set the shortest decimal
    f * 10**(e - _K_BIAS) that reads back as it, the closer one (then the one with even
    f) where two have that length; f may end in zeros. Garbage in the fix-up set."""
    bq = bits >> _U(52) & _U(0x7FF)
    t = bits & _U(2**52 - 1)
    pow2 = np.flatnonzero(t == _U(0))
    c2 = t << _U(1) | _U(0) - bq >> _U(63) << _U(53)  # 2c, c the significand
    del t
    u = (c2 | _U(1)) << _at(_BETA, bq)
    uh, ul = u >> _U(32), u & _M32
    del u
    # zi = (u * phi_k) >> 128 from u * phi_hi and the high word of u * phi_lo; mid,
    # the word below zi, is 0 where zi is exact
    zi, mid = _mul128(uh, ul, _at(_PHI[0], bq), _at(_PHI[1], bq))
    hi = _mul128(uh, ul, _at(_PHI[2], bq), _at(_PHI[3], bq))[0]
    del uh, ul
    mid += hi
    zi += mid < hi
    del hi
    s = zi // _U(1000)
    r = zi - s * _U(1000)
    del zi
    delta = _at(_DELTA, bq)
    longer = delta - _U(1) - r >> _U(63)  # r >= delta: the candidate a digit longer
    # the right end is in the interval only for even c: where zi // 1000 * 1000 is that
    # end, exactly, the cell steps one below it, to the longer candidate with r = 1000
    end = np.flatnonzero(mid == _U(0))
    end = end[(r[end] | c2[end] >> _U(1) & _U(1) ^ _U(1)) == _U(0)]
    s[end] -= _U(1)
    r[end] = 1000
    longer[end] = 1
    del mid
    # the longer candidate is 10 s + dist // 100; dist is all ones, no multiple of 100,
    # where r < delta
    dist = r - (delta >> _U(1)) + _U(50) | longer - _U(1)
    q = dist // _U(100)
    look = np.flatnonzero((r == delta) | (dist == q * _U(100)))
    if look.size:  # the cells that need a parity: r = delta, and dist a multiple of 100
        cl, bl = c2[look], bq[look]
        tie = np.flatnonzero(r[look] == delta[look])
        parity, exact = _parity(np.concatenate([cl, cl[tie] - _U(1)]),
                                np.concatenate([bl, bl[tie]]))
        n = look.size
        # r = delta: zi // 1000 stays where the left end, by 2c - 1's parity, lies
        # below it, or on it for even c
        longer[look[tie]] = (parity[n:] | exact[n:] & ~cl[tie] >> _U(1)) & _U(1) ^ _U(1)
    del r, delta
    f = s * _U(10) + q * longer  # zi // 1000 with a 0 appended, or the longer candidate
    e = _at(_E1, bq)
    del s
    if look.size:
        # dist a multiple of 100: q or q - 1 by 2c's parity, the even one at a tie
        d, fl = dist[look], f[look]
        fix = longer[look] & (d == q[look] * _U(100))
        f[look] = fl - (fix & (parity[:n] ^ (d ^ _U(50)) & _U(1) | exact[:n] & fl & _U(1)))
    del dist, q, longer, c2
    f[pow2] = _at(_F2, bq[pow2])
    e[pow2] = _at(_E2, bq[pow2])
    return f, e


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
