"""Bit-exact sign + quantized-trigger-time codec.

A packet of g bits carries the sign of the error, the parity of the
b*gamma-wide window holding the send time, and a (g-2)-bit index of a
uniform sub-cell of that window, most significant bit first.  The decoder
resolves the window from the parity bit and the known delay bound, then
reconstructs the cell midpoint; the quantization error is at most
b*gamma/2^(g-1).  A single-bit packet carries the sign alone, for regimes
where the reception time itself is precise enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _RANGES
from .errors import DecodeError, PreconditionError

# the packet paths compare inline, once per packet, and share these messages
_B_RULE = _RANGES["b"][0][1]
_GAMMA_RULE = "packets with timing bits need a positive finite delay bound"


@dataclass(frozen=True)
class Packet:
    """Payload sent at one triggering event.

    bits[0] is the sign bit (0 = positive error), bits[1] the window parity
    when present, bits[2:] the sub-cell index.
    """

    bits: tuple[int, ...]
    t_s: float

    def __post_init__(self):
        if len(self.bits) < 1 or any(b not in (0, 1) for b in self.bits):
            raise PreconditionError(f"bits must be a nonempty 0/1 sequence, got {self.bits}")

    @property
    def g(self) -> int:
        return len(self.bits)

    @property
    def sign(self) -> int:
        return 1 if self.bits[0] == 0 else -1

    def bits_hex(self) -> str:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return f"{value:0{(self.g + 3) // 4}x}"


def cell_width(g: int, b: float, gamma: float) -> float:
    """Sub-cell width delta = b*gamma/2^(g-2); scaling by 2^k is exact."""
    return math.ldexp(b * gamma, 2 - g)


def check_resolvable(g: int, b: float, gamma: float, t_end: float) -> None:
    """Refuse a packet size whose half cell vanishes against send times up to t_end.

    The decoded send time is a cell midpoint; once b*gamma/2^(g-1) is below
    the rounding of t_end the midpoint cannot be told from the cell edge, so
    the quantization guarantee |t_s - q| <= b*gamma/2^(g-1) is meaningless.
    """
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
    """
    if not 0 <= t_s < math.inf:
        raise PreconditionError(f"send time must be finite and >= 0, got {t_s}")
    if not 1 < b < math.inf:
        raise PreconditionError(f"b {_B_RULE}, got {b}")
    if sign not in (1, -1):
        raise PreconditionError(f"sign must be +1 or -1, got {sign}")
    if g < 1:
        raise PreconditionError(f"packet size must be >= 1 bit, got {g}")
    sign_bit = 0 if sign > 0 else 1
    if g == 1:
        return Packet((sign_bit,), t_s)
    if not 0 < gamma < math.inf:
        raise PreconditionError(f"{_GAMMA_RULE}, got gamma={gamma}")
    delta = cell_width(g, b, gamma)
    m = math.floor(t_s / delta)
    window, idx = m >> (g - 2), m & (2 ** (g - 2) - 1)
    parity = window & 1
    idx_bits = tuple((idx >> (g - 3 - j)) & 1 for j in range(g - 2))
    return Packet((sign_bit, parity, *idx_bits), t_s)


def decode(packet: Packet, t_c: float, b: float, gamma: float) -> tuple[int, float]:
    """Recover (sign, quantized send time) from a packet received at t_c.

    The send time lies in [t_c - gamma, t_c], which meets at most two
    windows of width b*gamma > gamma; the parity bit picks one.  The result
    does not depend on where t_c falls in the admissible delay range.  A
    parity matching neither candidate window signals corrupted input.
    """
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
    parity = packet.bits[1]
    idx = 0
    for bit in packet.bits[2:]:
        idx = (idx << 1) | bit
    later = math.floor(t_c / width)
    earlier = math.floor((t_c - gamma) / width)
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
    sign * v(q) * e^{growth*(t_c - q)} with v(q) = v0*exp(-sigma*q)."""
    return sign * v0 * math.exp(-sigma * q) * math.exp(growth * (t_c - q))
