"""Closed-form rate bounds, bit bounds, critical delays and design checks.

Conventions: log2 for bit counts and rates, natural log elsewhere.  Clamped
max{0, .} terms return exactly 0.0, never a negative epsilon, so phase
transition tests can compare against zero.  Expressions are arranged around
expm1/log1p so they stay finite and accurate for very small and very large
delay bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import PreconditionError
from .model import contraction_ladders

LN2 = math.log(2.0)

_RANGES = {  # field: (admits, rule) for the scalar fields of BoundInputs
    "sigma": (lambda v: 0 < v < math.inf, "must be positive and finite"),
    "rho0": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "gamma": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "b": (lambda v: 1 < v < math.inf, "must be finite and exceed 1"),
    "nu": (lambda v: 1 <= v < math.inf, "must be finite and >= 1"),
}


def _check_input(name: str, value: float) -> float:
    """value, if BoundInputs admits it for the field name; else PreconditionError."""
    admits, rule = _RANGES[name]
    if not admits(value):
        raise PreconditionError(f"{name} {rule}, got {value}")
    return value


@dataclass(frozen=True)
class BoundInputs:
    """Parameter bundle shared by the analytic bounds.

    blocks lists (eigenvalue, order) pairs; a scalar system is a single
    (A, 1) block.  nu >= 1 is the quantization precision parameter of the
    necessity results (nu >= 2 where the design-window check is used).
    """

    blocks: tuple[tuple[float, int], ...]
    sigma: float
    rho0: float
    gamma: float
    b: float = 1.0001
    nu: float = 1.0
    rho_ladders: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        blocks = tuple((float(lam), int(p)) for lam, p in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not 0 < lam < math.inf or p < 1 for lam, p in blocks):
            raise PreconditionError(
                f"blocks must be (finite lam > 0, p >= 1) pairs, got {blocks}"
            )
        for name in _RANGES:
            _check_input(name, getattr(self, name))
        if self.rho_ladders is not None:
            contraction_ladders(self.rho0, [p for _, p in blocks], self.rho_ladders)

    @classmethod
    def scalar(cls, A, sigma, rho0, gamma=0.0, b=1.0001, nu=1.0) -> "BoundInputs":
        return cls(blocks=((A, 1),), sigma=sigma, rho0=rho0, gamma=gamma, b=b, nu=nu)

    @property
    def n(self) -> int:
        return sum(p for _, p in self.blocks)

    @property
    def trace(self) -> float:
        return sum(lam * p for lam, p in self.blocks)

    @property
    def A(self) -> float:
        """The growth rate, defined when all blocks share one eigenvalue."""
        lams = {lam for lam, _ in self.blocks}
        if len(lams) != 1:
            raise PreconditionError("scalar growth rate undefined for mixed eigenvalues")
        return lams.pop()

    def rho_flat(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        """Per block: (eigenvalue, per-coordinate contraction ladder)."""
        ladders = contraction_ladders(self.rho0, [p for _, p in self.blocks], self.rho_ladders)
        return tuple((lam, lad) for (lam, _), lad in zip(self.blocks, ladders))


def _ln_em1(u: float) -> float:
    """ln(e^u - 1), overflow-free and accurate for small u."""
    if u <= 0:
        raise PreconditionError(f"needs a positive exponent, got {u}")
    return u + math.log(-math.expm1(-u))


def _ln_em1s(blocks, gamma: float) -> tuple[float, ...]:
    """Per block, ln(e^{lam*gamma} - 1), the sigma-free part of the necessary rates.

    Empty at gamma = 0, where the rates that use it are 0.
    """
    return tuple(_ln_em1(lam * gamma) for lam, _ in blocks) if gamma else ()


def _ln_contraction(sigma: float, rho0: float, gamma: float) -> float:
    """-ln(rho0 * exp(-sigma*gamma)), always positive."""
    return sigma * gamma - math.log(rho0)


def access_rate_necessary(inp: BoundInputs) -> float:
    """Bits/s the controller must receive: (Tr(A) + n*sigma)/ln 2."""
    return (inp.trace + inp.n * inp.sigma) / LN2


def bits_lower_bound(t: float, L: float, z0_norm: float, inp: BoundInputs, kind: str) -> float:
    """Minimum bits over [0, t] for exponential-rate estimation or stabilization."""
    if t < 0:
        raise PreconditionError(f"horizon must be >= 0, got {t}")
    base = t * (inp.trace + inp.n * inp.sigma) / LN2
    if kind == "stabilization":
        return base
    if kind == "estimation":
        if z0_norm == 0:
            raise PreconditionError("estimation bound undefined for zero initial error")
        if not 0 < z0_norm <= L:
            raise PreconditionError(f"need 0 < |z(0)| <= L, got {z0_norm} vs L={L}")
        return base + inp.n * math.log2(L / z0_norm)
    raise PreconditionError(f"kind must be 'estimation' or 'stabilization', got {kind!r}")


def _packet_bits(ln_em1: float, sigma: float, rho0: float, gamma: float) -> float:
    """max{0, log2((e^{lam*gamma} - 1)/(rho0 e^{-sigma*gamma}))}, gamma > 0.

    ln_em1 is ln(e^{lam*gamma} - 1) for the eigenvalue lam.
    """
    return max(0.0, (ln_em1 + _ln_contraction(sigma, rho0, gamma)) / LN2)


def packet_bits_necessary(inp: BoundInputs) -> float:
    """Minimum bits per triggering event (single-eigenvalue systems)."""
    A = inp.A
    if inp.gamma == 0:
        return 0.0
    return _packet_bits(_ln_em1(A * inp.gamma), inp.sigma, inp.rho0, inp.gamma)


def _trigger_lower(lam: float, sigma: float, rho0: float, gamma: float, nu: float) -> float:
    # ln(2 + e^{sigma*gamma}/rho0) evaluated overflow-free.
    u = sigma * gamma
    ln_term = u + math.log(2 * math.exp(-u) + 1.0 / rho0)
    return (lam + sigma) / (math.log(nu) + ln_term)


def triggering_rate_upper(inp: BoundInputs) -> float:
    """Worst-case events/s of the triggering rule."""
    return (inp.A + inp.sigma) / _ln_contraction(inp.sigma, inp.rho0, inp.gamma)


def triggering_rate_lower(inp: BoundInputs) -> float:
    """Events/s forced by some delay realization under nu-precision."""
    return _trigger_lower(inp.A, inp.sigma, inp.rho0, inp.gamma, inp.nu)


def min_inter_event_time(inp: BoundInputs) -> float:
    """Uniform lower bound on the spacing of triggering events (seconds)."""
    return _ln_contraction(inp.sigma, inp.rho0, inp.gamma) / (inp.A + inp.sigma)


def _rate_necessary(blocks, ln_em1s, sigma, rho0, gamma, nu) -> float:
    """Necessary transmission rate; ln_em1s = _ln_em1s(blocks, gamma)."""
    if gamma == 0:
        return 0.0
    total = 0.0
    for (lam, p), ln_em1 in zip(blocks, ln_em1s):
        total += (
            p * _trigger_lower(lam, sigma, rho0, gamma, nu)
            * _packet_bits(ln_em1, sigma, rho0, gamma)
        )
    return total


def transmission_rate_necessary(inp: BoundInputs) -> float:
    """Bits/s forced by some delay realization; sums blocks with multiplicity."""
    ln_em1s = _ln_em1s(inp.blocks, inp.gamma)
    return _rate_necessary(inp.blocks, ln_em1s, inp.sigma, inp.rho0, inp.gamma, inp.nu)


def _rate_necessary_approx(blocks, ln_em1s, sigma, rho0, gamma) -> float:
    """Approximate necessary rate; ln_em1s = _ln_em1s(blocks, gamma)."""
    if gamma == 0:
        return 0.0
    total = 0.0
    den = _ln_contraction(sigma, rho0, gamma)
    for (lam, p), ln_em1 in zip(blocks, ln_em1s):
        total += p * (lam + sigma) / LN2 * max(0.0, 1.0 + ln_em1 / den)
    return total


def transmission_rate_necessary_approx(inp: BoundInputs) -> float:
    """Small-rho0 approximation of the necessary transmission rate.

    Intended regime rho0 << e^{sigma*gamma}/max{2, nu}; not enforced.
    """
    ln_em1s = _ln_em1s(inp.blocks, inp.gamma)
    return _rate_necessary_approx(inp.blocks, ln_em1s, inp.sigma, inp.rho0, inp.gamma)


def _log2_packet_term(lam: float, rho: float, sigma: float, gamma: float, b: float) -> float:
    """log2(b*gamma*(lam+sigma) / ln(1 + rho*e^{-(sigma+lam)*gamma}))."""
    u = (sigma + lam) * gamma
    num = math.log(b * gamma * (lam + sigma))
    if u < 700:
        den = math.log(math.log1p(rho * math.exp(-u)))
    else:
        # ln(1+x) ~ x once x underflows territory: ln ln(1+x) ~ ln(rho) - u
        den = math.log(rho) - u
    return (num - den) / LN2


def _rate_sufficient(rho_flat, sigma, rho0, gamma, b) -> float:
    """Sufficient rate; rho_flat as BoundInputs.rho_flat returns it."""
    if gamma == 0:
        return 0.0
    total = 0.0
    den = _ln_contraction(sigma, rho0, gamma)
    for lam, ladder in rho_flat:
        for rho in ladder:
            term = max(0.0, 1.0 + _log2_packet_term(lam, rho, sigma, gamma, b))
            total += (lam + sigma) / den * term
    return total


def transmission_rate_sufficient(inp: BoundInputs) -> float:
    """Bits/s achieved by the sign + quantized-trigger-time policy.

    Vector systems sum one term per coordinate, each using its ladder
    contraction in place of rho0.
    """
    return _rate_sufficient(inp.rho_flat(), inp.sigma, inp.rho0, inp.gamma, inp.b)


def critical_delay(inp: BoundInputs) -> float:
    """Delay bound gamma_c below which the necessary transmission rate is zero.

    Root of e^{A*gamma} - rho0*e^{-sigma*gamma} = 1, bisected on
    [0, ln2/A]; the residual is monotone increasing with a sign change
    guaranteed on that bracket for rho0 in (0, 1).
    """
    A = inp.A

    def residual(g: float) -> float:
        return math.expm1(A * g) - inp.rho0 * math.exp(-inp.sigma * g)

    lo, hi = 0.0, LN2 / A
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium_delay(A: float) -> float:
    """Delay equal to the inverse entropy rate, ln2/A."""
    if not A > 0:
        raise PreconditionError(f"growth rate must be positive, got {A}")
    return LN2 / A


def rate_asymptote(inp: BoundInputs) -> float:
    """Large-delay limit of the transmission rate, (A+sigma)/ln2*(1+A/sigma)."""
    return sum(
        p * (lam + inp.sigma) / LN2 * (1.0 + lam / inp.sigma) for lam, p in inp.blocks
    )


def beta(inp: BoundInputs) -> float:
    """Delay over which the error sweeps one full quantization cell."""
    return math.log1p(2.0 * inp.rho0 * math.exp(-inp.sigma * inp.gamma)) / inp.A


def packet_size_sufficient(inp: BoundInputs) -> int:
    """Integer packet size meeting the sufficient-rate quantization bound.

    gamma = 0 returns 1: the sign bit alone suffices when timing is exact.
    """
    if inp.gamma == 0:
        return 1
    raw = 1.0 + _log2_packet_term(inp.A, inp.rho0, inp.sigma, inp.gamma, inp.b)
    return max(1, math.ceil(raw))


def time_quantization_tolerance(inp: BoundInputs) -> float:
    """Largest trigger-time quantization error that preserves the jump contract."""
    u = (inp.A + inp.sigma) * inp.gamma
    return math.log1p(inp.rho0 * math.exp(-u)) / (inp.A + inp.sigma)


@dataclass
class AnalyticBounds:
    """Every closed-form quantity at one parameter set.

    The fields from packet_bits_necessary on are defined for single-eigenvalue
    systems only and stay None otherwise.
    """

    access_rate: float
    rate_necessary: float
    rate_necessary_approx: float
    rate_sufficient: float
    asymptote: float
    packet_bits_necessary: float | None = None
    triggering_rate_upper: float | None = None
    triggering_rate_lower: float | None = None
    min_inter_event_time: float | None = None
    gamma_c: float | None = None
    gamma_eq: float | None = None
    beta: float | None = None
    packet_size_sufficient: int | None = None
    time_quantization_tolerance: float | None = None


def analytic_bounds(inp: BoundInputs) -> AnalyticBounds:
    """Evaluate every bound; single-eigenvalue quantities where defined."""
    out = AnalyticBounds(
        access_rate=access_rate_necessary(inp),
        rate_necessary=transmission_rate_necessary(inp),
        rate_necessary_approx=transmission_rate_necessary_approx(inp),
        rate_sufficient=transmission_rate_sufficient(inp),
        asymptote=rate_asymptote(inp),
    )
    try:
        A = inp.A
    except PreconditionError:
        return out
    out.packet_bits_necessary = packet_bits_necessary(inp)
    out.triggering_rate_upper = triggering_rate_upper(inp)
    out.triggering_rate_lower = triggering_rate_lower(inp)
    out.min_inter_event_time = min_inter_event_time(inp)
    out.gamma_c = critical_delay(inp)
    out.gamma_eq = equilibrium_delay(A)
    out.beta = beta(inp)
    out.packet_size_sufficient = packet_size_sufficient(inp)
    out.time_quantization_tolerance = time_quantization_tolerance(inp)
    return out


@dataclass(frozen=True)
class Assumption1Window:
    """Result of the constant-packet-size design check."""

    lower_ok: bool
    upper_ok: bool
    expansion_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.expansion_ok


def assumption1_window(inp: BoundInputs, g: int) -> Assumption1Window:
    """Check a constant packet size g against the nu-precision design window.

    lower_ok: g meets the sufficient-rate quantization bound.
    upper_ok: g does not quantize finer than nu-precision allows.
    expansion_ok: the cell-to-cell expansion condition with delta = b*gamma/2^(g-2).
    Requires nu >= 2 (the upper bound is undefined below that) and g >= 2,
    and refuses inputs whose precision term eps or cell width underflow.

    The lower and upper bounds share the term log2(b*gamma*(A+sigma)), so the
    window's width does not depend on b; b only shifts it by log2(b).  When
    ln(1 + rho0*e^{-(sigma+A)*gamma}) < 4*|ln(1 - eps)| the width is under one
    bit, and then b alone decides whether an integer fits.
    """
    if inp.nu < 2:
        raise PreconditionError(f"the design window needs nu >= 2, got {inp.nu}")
    if g < 2:
        raise PreconditionError(f"the design window needs g >= 2, got {g}")
    if inp.gamma == 0:
        raise PreconditionError("the design window needs a positive delay bound")
    lower = 1.0 + _log2_packet_term(inp.A, inp.rho0, inp.sigma, inp.gamma, inp.b)
    lower_ok = g >= lower

    re = inp.rho0 * math.exp(-inp.sigma * inp.gamma)
    eps = 1.0 / ((inp.nu - 1.0) * (2.0 + 1.0 / re)) if re > 0.0 else 0.0
    u = (inp.A + inp.sigma) * math.ldexp(inp.b * inp.gamma, 2 - g)  # delta = b*gamma/2^(g-2)
    if eps == 0.0:
        raise PreconditionError(
            f"the design window's precision term underflows at gamma={inp.gamma}, nu={inp.nu}"
        )
    if u / 4.0 == 0.0:
        raise PreconditionError(
            f"the design window's cell width b*gamma/2^(g-2) underflows at gamma={inp.gamma}, g={g}"
        )
    upper = math.log2(inp.b * inp.gamma * (inp.A + inp.sigma) / abs(math.log1p(-eps)))
    upper_ok = g <= upper

    lhs = (-math.expm1(-u / 2.0)) / (-math.expm1(-u / 4.0))
    # lhs = 1 + e^{-u/4} <= 2 < e^{3u/4} once 3u/4 >= 1; the guard also keeps exp in range
    expansion_ok = 3.0 * u / 4.0 < 1.0 and lhs >= math.exp(3.0 * u / 4.0)
    return Assumption1Window(lower_ok, upper_ok, expansion_ok)


@dataclass(frozen=True)
class CascadeBounds:
    """Per-coordinate trigger-level caps and envelope constants for one block."""

    upper: tuple[float, ...]  # max v0_i given v0_{i-1}, for i = 2..p
    envelope: tuple[float, ...]  # ((rho0 - rho_i) + e^{(lam+sigma)*gamma}), i = 1..p


def v0_cascade_bound(
    block: tuple[float, int],
    *,
    v0: tuple[float, ...],
    rho: tuple[float, ...],
    sigma: float,
    rho0: float,
    gamma: float,
) -> CascadeBounds:
    """Caps on the trigger levels of chained coordinates in one Jordan block.

    For i = 2..p the level v0_i may not exceed
    v0_{i-1}*(lam+sigma)*(rho0-rho_{i-1}) / (((rho0-rho_{i-1}) + E)*(E - 1)),
    E = e^{(lam+sigma)*gamma}: the slack rho0 - rho_{i-1} of the coordinate
    above must absorb the coupling that coordinate i injects.  gamma = 0
    degenerates to an infinite cap.  Also returns each coordinate's envelope
    constant (rho0 - rho_i) + E.
    """
    lam, p = block
    if len(v0) != p or len(rho) != p:
        raise PreconditionError(f"need {p} trigger levels and contractions, got {v0}, {rho}")
    try:
        E = math.exp((lam + sigma) * gamma)
    except OverflowError:
        raise PreconditionError(
            f"e^((lam+sigma)*gamma) leaves float range at lam={lam}, sigma={sigma}, gamma={gamma}"
        ) from None
    envelope = tuple((rho0 - r) + E for r in rho)
    upper = []
    for i in range(1, p):  # cap on v0[i] from v0[i-1]
        slack = rho0 - rho[i - 1]
        if slack <= 0:
            raise PreconditionError(
                f"ladder value {rho[i - 1]} leaves no coupling slack below rho0={rho0}"
            )
        if gamma == 0:
            upper.append(math.inf)
            continue
        upper.append(v0[i - 1] * (lam + sigma) * slack / ((slack + E) * (E - 1.0)))
    return CascadeBounds(upper=tuple(upper), envelope=envelope)


def per_coordinate_inputs(inp: BoundInputs, lam: float, rho: float) -> BoundInputs:
    """Scalar view of one coordinate: its eigenvalue and ladder contraction."""
    return replace(inp, blocks=((lam, 1),), rho0=rho, rho_ladders=None)
