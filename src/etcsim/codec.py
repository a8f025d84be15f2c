"""Bit-exact sign + quantized-trigger-time codec.

A packet is one g-bit word: the sign bit (0 = positive error), then the low
g-1 bits of the send time's cell index floor(t_s/delta), delta = b*gamma/2^(g-2):
the parity of the b*gamma-wide window holding it and its (g-2)-bit sub-cell
index.  The decoder resolves the window from the parity bit and the known
delay bound, then reconstructs the cell midpoint; the quantization error is
at most b*gamma/2^(g-1).  A single-bit packet carries the sign alone, for
regimes where the reception time itself is precise enough.  Every packet
size passes bounds.check_packet_size, the one rule for g.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .bounds import _RANGES, _check_real, check_packet_size
from .errors import DecodeError, PreconditionError

# the packet paths compare inline, once per packet, and share these messages
_B_RULE = _RANGES["b"][0][1]
_GAMMA_RULE = "packets with timing bits need a positive finite delay bound"
_LN_MAX = math.log(sys.float_info.max)  # the largest x whose math.exp(x) has a float


@dataclass(frozen=True)
class Packet:
    """Payload sent at one triggering event: the g-bit word of the module docstring."""

    word: int
    g: int
    t_s: float

    def __post_init__(self):
        check_packet_size(self.g)
        if not isinstance(self.t_s, float):
            _check_real("send time", self.t_s, PreconditionError)
        if type(self.word) is not int or not 0 <= self.word < 1 << self.g:
            raise PreconditionError(f"word must be an int in [0, 2**{self.g}), got {self.word}")

    @property
    def sign(self) -> int:
        return -1 if self.word >> (self.g - 1) else 1

    def bits_hex(self) -> str:
        return f"{self.word:0{(self.g + 3) // 4}x}"


def _check_reals(*named) -> None:
    """Refuse the first of the (name, value) pairs whose value is not a real number.
    The packet paths call it only where a value is no float (numpy's float64 is one),
    so a packet pays for one isinstance per argument."""
    for name, value in named:
        _check_real(name, value, PreconditionError)


def cell_width(g: int, b: float, gamma: float) -> float:
    """Sub-cell width delta = b*gamma/2^(g-2); scaling by 2^k is exact."""
    return math.ldexp(b * gamma, 2 - g)


def check_resolvable(g: int, b: float, gamma: float, t_end: float) -> None:
    """Refuse a packet size whose half cell vanishes against send times up to t_end.

    The decoded send time is a cell midpoint; once b*gamma/2^(g-1) is below
    the rounding of t_end the midpoint cannot be told from the cell edge, so
    the quantization guarantee |t_s - q| <= b*gamma/2^(g-1) is meaningless.
    """
    check_packet_size(g)
    if not 1 < b < math.inf:
        raise PreconditionError(f"b {_B_RULE}, got {b}")
    if not 0 < gamma < math.inf:
        raise PreconditionError(f"{_GAMMA_RULE}, got gamma={gamma}")
    half = math.ldexp(b * gamma, 1 - g)
    if t_end + half == t_end:
        raise PreconditionError(
            f"packet size g={g} is too fine: its half cell b*gamma/2^(g-1) at b={b}, "
            f"gamma={gamma} vanishes against send times up to the horizon {t_end}"
        )


def encode(t_s: float, sign: int, g: int, b: float, gamma: float) -> Packet:
    """Quantize a send time into a g-bit packet.

    Cells are left-closed: a time exactly on an edge belongs to the cell it
    starts.  g = 1 emits the sign alone and is valid whenever timing needs no
    refinement (zero delay, or b*gamma within the quantization tolerance).
    A send time whose cell index t_s/delta has no float is refused.
    """
    if not (isinstance(t_s, float) and isinstance(b, float) and isinstance(gamma, float)):
        _check_reals(("send time", t_s), ("b", b), ("gamma", gamma))
    if not 0 <= t_s < math.inf:
        raise PreconditionError(f"send time must be finite and >= 0, got {t_s}")
    if not 1 < b < math.inf:
        raise PreconditionError(f"b {_B_RULE}, got {b}")
    if sign not in (1, -1) or type(sign) is bool:
        raise PreconditionError(f"sign must be +1 or -1, got {sign}")
    check_packet_size(g)
    sign_bit = 0 if sign > 0 else 1
    if g == 1:
        return Packet(sign_bit, 1, t_s)
    if not 0 < gamma < math.inf:
        raise PreconditionError(f"{_GAMMA_RULE}, got gamma={gamma}")
    delta = cell_width(g, b, gamma)
    cells = t_s / delta if 0 < delta < math.inf else math.inf
    if cells == math.inf:
        raise PreconditionError(f"send time {t_s} has no cell index at cell width {delta}")
    m = math.floor(cells)
    return Packet(sign_bit << (g - 1) | m & ((1 << (g - 1)) - 1), g, t_s)


def decode(packet: Packet, t_c: float, b: float, gamma: float) -> tuple[int, float]:
    """Recover (sign, quantized send time) from a packet received at t_c.

    The send time lies in [t_c - gamma, t_c], which meets at most two
    windows of width b*gamma > gamma; the parity bit picks one.  The result
    does not depend on where t_c falls in the admissible delay range.  A
    parity matching neither candidate window signals corrupted input.  A
    reception time whose window index t_c/(b*gamma) has no float is refused.
    """
    if not (isinstance(t_c, float) and isinstance(b, float) and isinstance(gamma, float)):
        _check_reals(("reception time", t_c), ("b", b), ("gamma", gamma))
    if not -math.inf < t_c < math.inf:
        raise PreconditionError(f"reception time must be finite, got {t_c}")
    if not 1 < b < math.inf:
        raise PreconditionError(f"b {_B_RULE}, got {b}")
    g = packet.g
    sign = packet.sign
    if g == 1:
        return sign, t_c
    if not 0 < gamma < math.inf:
        raise PreconditionError(f"{_GAMMA_RULE}, got gamma={gamma}")
    width = b * gamma
    parity, idx = divmod(packet.word & ((1 << (g - 1)) - 1), 1 << (g - 2))
    hi, lo = t_c / width, (t_c - gamma) / width
    if not (width < math.inf and -math.inf < lo and hi < math.inf):
        raise PreconditionError(f"reception time {t_c} has no window index at width {width}")
    later, earlier = math.floor(hi), math.floor(lo)
    if earlier == later:
        if (later & 1) != parity:
            raise DecodeError(
                f"window parity {parity} matches neither candidate at t_c={t_c}"
            )
        window = later
    else:
        window = earlier if (earlier & 1) == parity else later
    delta = cell_width(g, b, gamma)
    return sign, window * width + (idx + 0.5) * delta


def reconstruct_error(
    sign: int, q: float, t_c: float, v0: float, sigma: float, growth: float
) -> float:
    """Controller-side estimate of z at reception:
    sign * v(q) * e^{growth*(t_c - q)} with v(q) = v0*exp(-sigma*q).

    An exponent whose exponential has no float is refused (PreconditionError),
    not returned as inf, and so is a NaN exponent.
    """
    if type(sign) is not int or not (
            isinstance(q, float) and isinstance(t_c, float) and isinstance(v0, float)
            and isinstance(sigma, float) and isinstance(growth, float)):
        _check_reals(("sign", sign), ("q", q), ("t_c", t_c), ("v0", v0), ("sigma", sigma),
                     ("growth", growth))
    decay, rise = -sigma * q, growth * (t_c - q)
    if not (decay <= _LN_MAX and rise <= _LN_MAX):
        raise PreconditionError(
            f"exponent -sigma*q={decay} or growth*(t_c-q)={rise} exceeds ln(max float)"
        )
    return sign * v0 * math.exp(decay) * math.exp(rise)
