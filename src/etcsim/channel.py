"""Bounded-delay channel models and the single-in-flight discipline.

Every model produces delays in [0, gamma] deterministically from its own
parameters and the packet index, so runs replay bit-identically from a
seed.  Each coordinate owns an independent channel that holds at most one
packet; triggering is suppressed while a packet is in flight.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .codec import Packet
from .errors import ConfigurationError


def _packet_index(k) -> int:
    """k as a packet index, an int (operator.index) >= 0; else ConfigurationError."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ConfigurationError(
            f"packet index k must be an integer, got {bounds._shown(k, repr)}") from None
    if k < 0:
        raise ConfigurationError(f"packet index k must be >= 0, got {k}")
    return k


@dataclass(frozen=True)
class ConstantDelay:
    """Every packet takes exactly `delay` seconds."""

    delay: float
    gamma: float

    def __post_init__(self):
        bounds._check_input("gamma", self.gamma)
        if not 0 <= bounds._check_real("constant delay", self.delay) <= self.gamma:
            raise ConfigurationError(
                f"constant delay must lie in [0, gamma={self.gamma}], got {self.delay}"
            )

    def sample(self, k: int) -> float:
        return self.delay


# numpy's SeedSequence (a pool of four uint32 words) and its PCG64 seeding; the
# constants and the order of the mixing steps are numpy's, so draws match it bit for bit
_POOL = 4
_LANES = 64  # packet indices per block: an aligned block never straddles a 2**32 boundary
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chain(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier columns (uint32) of steps first .. first+count-1 of a
    SeedSequence hash: step i xors init * mult**i (mod 2**32) into its word and then
    multiplies by the next constant of that chain."""
    c = [init * pow(mult, first, 1 << 32) & _M32]
    for _ in range(count):
        c.append(c[-1] * mult & _M32)
    column = np.array(c, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# steps 0-3 fill the pool; pool word s then mixes into each other word in turn (steps
# 4+3s .. 6+3s), and row s gets a dummy constant because its update is discarded
_FILL = _chain(_INIT_A, _MULT_A, 0, _POOL)
_PAIRS = [
    tuple(np.insert(c, s, 0, axis=0) for c in _chain(_INIT_A, _MULT_A, _POOL + 3 * s, 3))
    for s in range(_POOL)
]
_STATE = _chain(_INIT_B, _MULT_B, 0, 2 * _POOL)  # generate_state's eight uint32 words
_CYCLE = np.arange(2 * _POOL) % _POOL
_LANE = np.arange(_LANES, dtype=np.uint32)


def _words(n: int) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first ([0] for 0)."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _mix_into(pool: np.ndarray, source: np.ndarray, constants) -> None:
    """SeedSequence's mix(pool[d], hashmix(source)) for every pool word d at once."""
    h = source ^ constants[0]
    h *= constants[1]
    h ^= h >> 16
    pool *= _MIX_L
    pool -= h * _MIX_R
    pool ^= pool >> 16


def _uniform_block(seed: tuple[int, ...], block: int) -> list[list[int]]:
    """PCG64 seeds of packets 64*block .. 64*block+63, as numpy's SeedSequence((*seed, k))
    makes them: per packet, the high and low words of srandom's initstate and initseq.

    The lanes share every entropy word but the low word of k, so one pass over
    (pool word, lane) arrays hashes all 64 entropies.  uint32 arrays wrap silently."""
    prefix = [w for v in seed for w in _words(v)]
    words = prefix + _words(_LANES * block)
    entropy = np.zeros((max(len(words), _POOL), _LANES), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(prefix)] |= _LANE
    pool = entropy[:_POOL] ^ _FILL[0]
    pool *= _FILL[1]
    pool ^= pool >> 16
    for s, constants in enumerate(_PAIRS):
        kept = pool[s].copy()
        _mix_into(pool, kept, constants)
        pool[s] = kept
    for w in range(_POOL, len(words)):  # entropy beyond the pool: steps 4w .. 4w+3
        _mix_into(pool, entropy[w], _chain(_INIT_A, _MULT_A, _POOL * w, _POOL))
    state = pool[_CYCLE] ^ _STATE[0]
    state *= _STATE[1]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T.tolist()


def _uniform_draw(row: list[int], gamma: float) -> float:
    """numpy's Generator.uniform(0, gamma) from a fresh PCG64 seeded with one row."""
    s_high, s_low, q_high, q_low = row
    inc = ((q_high << 64 | q_low) << 1 | 1) & _M128
    state = (inc + (s_high << 64 | s_low)) & _M128  # srandom: step from 0, add initstate
    state = (state * _PCG_MULT + inc) & _M128  # srandom's closing step
    state = (state * _PCG_MULT + inc) & _M128  # the draw's step
    rot = state >> 122
    xsl = ((state >> 64) ^ state) & _M64
    out = (xsl >> rot | xsl << (64 - rot)) & _M64  # XSL-RR output
    return 0.0 + gamma * ((out >> 11) * 2.0**-53)


@dataclass(frozen=True)
class UniformDelay:
    """Independent uniform draws on [0, gamma], reproducible per (seed, k).

    The k-th delay is exactly float(np.random.default_rng((*seed, k)).uniform(0, gamma)).
    The generator seeds of k's aligned 64-packet block are computed at once and kept
    on this instance (never shared with an equal one) for the block's other packets."""

    gamma: float
    seed: tuple[int, ...] = (0,)
    _block: tuple[int, list[list[int]]] | None = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        bounds._check_input("gamma", self.gamma)
        seed = self.seed
        if type(seed) is not tuple or not all(isinstance(w, int) and w >= 0 for w in seed):
            raise ConfigurationError(
                f"uniform delay seed must be a tuple of ints >= 0, got {bounds._shown(seed)}")

    def sample(self, k: int) -> float:
        index, lane = divmod(_packet_index(k), _LANES)
        block = self._block
        if block is None or block[0] != index:
            block = (index, _uniform_block(self.seed, index))
            object.__setattr__(self, "_block", block)
        return _uniform_draw(block[1][lane], float(self.gamma))


class AdversarialDelay(ConstantDelay):
    """The constant delay beta that drags the post-jump error across one quantization
    cell, clamped to gamma: from_params computes it from the plant and the trigger."""

    @classmethod
    def from_params(
        cls, growth: float, sigma: float, rho0: float, gamma: float
    ) -> "AdversarialDelay":
        inp = bounds.BoundInputs.scalar(growth, sigma, rho0, gamma)  # checks each parameter
        beta, gamma = bounds._beta(inp.A, inp.sigma, inp.rho0, inp.gamma), inp.gamma
        if beta > gamma:
            warnings.warn(
                f"adversarial delay beta={beta:.6g} exceeds gamma={gamma:.6g}; clamping",
                stacklevel=2,
            )
        return cls(delay=min(beta, gamma), gamma=gamma)


@dataclass(frozen=True)
class ReplayDelay:
    """Plays back a recorded delay sequence, stored as a tuple (bounds._items)."""

    delays: tuple[float, ...]
    gamma: float

    def __post_init__(self):
        bounds._check_input("gamma", self.gamma)
        object.__setattr__(self, "delays", bounds._items(self.delays))
        if not isinstance(self.delays, tuple):
            raise ConfigurationError(
                f"replay delays must be a sequence, got {bounds._shown(self.delays, repr)}")
        if any(not 0 <= bounds._check_real("replay delay", d) <= self.gamma for d in self.delays):
            raise ConfigurationError(
                f"replay delays must lie in [0, gamma={self.gamma}], got {self.delays}"
            )

    def sample(self, k: int) -> float:
        if _packet_index(k) >= len(self.delays):
            raise ConfigurationError(
                f"replay sequence exhausted: packet {k} of {len(self.delays)} recorded delays"
            )
        return self.delays[k]


DelayModel = ConstantDelay | UniformDelay | AdversarialDelay | ReplayDelay


def sample_delay(model: DelayModel, k: int) -> float:
    """Delay of the k-th packet on this channel: a float (bounds._check_real) in [0, gamma]."""
    d = bounds._check_real("drawn delay", model.sample(k))
    if not 0 <= d <= model.gamma:
        raise ConfigurationError(f"delay model produced {d} outside [0, {model.gamma}]")
    return d


@dataclass
class ChannelState:
    """At most one packet in flight per coordinate."""

    in_flight: dict[int, tuple[Packet, float]] = field(default_factory=dict)

    def admit(self, coord: int) -> bool:
        """True iff the coordinate's channel is idle."""
        return coord not in self.in_flight

    def send(self, coord: int, packet: Packet, t_c: float) -> None:
        if not self.admit(coord):
            raise ConfigurationError(f"coordinate {coord} already has a packet in flight")
        self.in_flight[coord] = (packet, t_c)

    def next_delivery(self) -> tuple[float, int, Packet] | None:
        """Earliest pending (t_c, coord, packet), ties broken by coordinate."""
        if not self.in_flight:
            return None
        coord = min(self.in_flight, key=lambda c: (self.in_flight[c][1], c))
        packet, t_c = self.in_flight[coord]
        return t_c, coord, packet

    def deliver(self, coord: int) -> Packet:
        packet, _ = self.in_flight.pop(coord)
        return packet


def build_delay(
    spec: str,
    gamma: float,
    *,
    seed: int = 0,
    salt: tuple[int, ...] = (),
    growth: float | None = None,
    sigma: float | None = None,
    rho0: float | None = None,
):
    """Build a delay model from a textual spec.

    Recognized forms: "constant:<d>", "fraction:<f>" (constant f*gamma),
    "uniform", "adversarial", "replay:<d1,d2,...>", and "disabled" (no
    channel, returns None).  The adversarial form needs the plant growth
    rate and the trigger design parameters.
    """
    kind, _, arg = spec.partition(":")

    def number(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ConfigurationError(f"delay spec {spec!r}: {text!r} is not a number") from None

    if kind == "constant":
        return ConstantDelay(delay=number(arg), gamma=gamma)
    if kind == "fraction":
        f = number(arg)
        if not 0 <= f <= 1:
            raise ConfigurationError(f"delay fraction must lie in [0, 1], got {f}")
        return ConstantDelay(delay=f * gamma, gamma=gamma)
    if kind == "uniform":
        return UniformDelay(gamma=gamma, seed=(seed, *salt))
    if kind == "adversarial":
        if growth is None or sigma is None or rho0 is None:
            raise ConfigurationError("adversarial delays need growth, sigma and rho0")
        return AdversarialDelay.from_params(growth, sigma, rho0, gamma)
    if kind == "replay":
        return ReplayDelay(delays=tuple(number(v) for v in arg.split(",") if v), gamma=gamma)
    if kind == "disabled":
        return None
    raise ConfigurationError(f"unknown delay spec {spec!r}")
