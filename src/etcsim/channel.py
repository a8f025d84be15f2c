"""Bounded-delay channel models and the single-in-flight discipline.

Every model produces delays in [0, gamma] deterministically from its own
parameters and the packet index, so runs replay bit-identically from a
seed.  Each coordinate owns an independent channel that holds at most one
packet; triggering is suppressed while a packet is in flight.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .codec import Packet
from .errors import ConfigurationError


@dataclass(frozen=True)
class ConstantDelay:
    """Every packet takes exactly `delay` seconds."""

    delay: float
    gamma: float

    def __post_init__(self):
        if not 0 <= self.delay <= self.gamma:
            raise ConfigurationError(
                f"constant delay must lie in [0, gamma={self.gamma}], got {self.delay}"
            )

    def sample(self, k: int) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay:
    """Independent uniform draws on [0, gamma], reproducible per (seed, k)."""

    gamma: float
    seed: tuple[int, ...] = (0,)

    def sample(self, k: int) -> float:
        rng = np.random.default_rng((*self.seed, k))
        return float(rng.uniform(0.0, self.gamma))


@dataclass(frozen=True)
class AdversarialDelay:
    """The delay that drags the post-jump error across one quantization cell."""

    beta: float
    gamma: float
    clamped: bool = False

    @classmethod
    def from_params(
        cls, growth: float, sigma: float, rho0: float, gamma: float
    ) -> "AdversarialDelay":
        beta = bounds.beta(bounds.BoundInputs.scalar(growth, sigma, rho0, gamma))
        clamped = beta > gamma
        if clamped:
            warnings.warn(
                f"adversarial delay beta={beta:.6g} exceeds gamma={gamma:.6g}; clamping",
                stacklevel=2,
            )
        return cls(beta=beta, gamma=gamma, clamped=clamped)

    def sample(self, k: int) -> float:
        return min(self.beta, self.gamma)


@dataclass(frozen=True)
class ReplayDelay:
    """Plays back a recorded delay sequence."""

    delays: tuple[float, ...]
    gamma: float

    def __post_init__(self):
        if any(not 0 <= d <= self.gamma for d in self.delays):
            raise ConfigurationError(
                f"replay delays must lie in [0, gamma={self.gamma}], got {self.delays}"
            )

    def sample(self, k: int) -> float:
        if k >= len(self.delays):
            raise ConfigurationError(
                f"replay sequence exhausted: packet {k} of {len(self.delays)} recorded delays"
            )
        return self.delays[k]


DelayModel = ConstantDelay | UniformDelay | AdversarialDelay | ReplayDelay


def sample_delay(model: DelayModel, k: int) -> float:
    """Delay of the k-th packet on this channel; always in [0, gamma]."""
    d = model.sample(k)
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
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return ConstantDelay(delay=float(arg), gamma=gamma)
    if kind == "fraction":
        f = float(arg)
        if not 0 <= f <= 1:
            raise ConfigurationError(f"delay fraction must lie in [0, 1], got {f}")
        return ConstantDelay(delay=f * gamma, gamma=gamma)
    if kind == "uniform":
        return UniformDelay(gamma=gamma, seed=(int(seed), *salt))
    if kind == "adversarial":
        if growth is None or sigma is None or rho0 is None:
            raise ConfigurationError("adversarial delays need growth, sigma and rho0")
        return AdversarialDelay.from_params(growth, sigma, rho0, gamma)
    if kind == "replay":
        return ReplayDelay(delays=tuple(float(v) for v in arg.split(",") if v), gamma=gamma)
    if kind == "disabled":
        return None
    raise ConfigurationError(f"unknown delay spec {spec!r}")
