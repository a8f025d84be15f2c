"""Closed-form rate bounds, bit bounds, critical delays and design checks.

Conventions: log2 for bit counts and rates, natural log elsewhere.  Clamped
max{0, .} terms return exactly 0.0, never a negative epsilon, so phase
transition tests can compare against zero.  Expressions are arranged around
expm1/log1p so they stay finite and accurate for very small and very large
delay bounds.

The module also holds the one check of each design parameter (_RANGES,
check_blocks, check_gains, contraction_ladders), which model's types call,
and the per-coordinate table of a trigger design (coordinates), which the
engine and its checks read.  It imports nothing but the standard library
and errors, so the analytic commands run without numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ConfigurationError, PreconditionError

LN2 = math.log(2.0)
# largest plant order (sum of block orders): the closed loop's stack of 256 n x n
# powers then stays within sim.MAX_TRACE_BYTES
MAX_ORDER = 512

_RANGES = {  # parameter: its (admits, rule) pairs, the one check of each design parameter
    "sigma": [(lambda v: 0 < v < math.inf, "must be positive and finite")],
    "rho0": [(lambda v: 0 < v < 1, "must lie in (0, 1)"),
             # the rate kernels take 1/rho0, which overflows for the smallest subnormals
             (lambda v: v >= sys.float_info.min,
              f"must not be subnormal (< {sys.float_info.min})")],
    "gamma": [(lambda v: 0 <= v < math.inf, "must be finite and >= 0")],
    "b": [(lambda v: 1 < v < math.inf, "must be finite and exceed 1")],
    "nu": [(lambda v: 1 <= v < math.inf, "must be finite and >= 1")],
}


def _check_input(name: str, value: float) -> float:
    """value, if the parameter name admits it; else ConfigurationError."""
    for admits, rule in _RANGES[name]:
        if not admits(value):
            raise ConfigurationError(f"{name} {rule}, got {value}")
    return value


def check_blocks(blocks) -> tuple[tuple[float, int], ...]:
    """(eigenvalue, order) pairs as (float, int), each checked; else ConfigurationError.

    An order with a fractional part is refused, not truncated, and so is a
    plant whose orders sum past MAX_ORDER.
    """
    if not blocks:
        raise ConfigurationError("at least one Jordan block is required")
    checked = []
    for lam, p in blocks:
        lam = float(lam)
        if not 0 < lam < math.inf:
            raise ConfigurationError(f"eigenvalue must be positive and finite, got {lam}")
        try:
            order = int(p)
        except (TypeError, ValueError, OverflowError):
            order = None
        if order != p:
            raise ConfigurationError(f"block order must be a positive integer, got {p}")
        if order < 1:
            raise ConfigurationError(f"block order must be >= 1, got {order}")
        checked.append((lam, order))
    n = sum(p for _, p in checked)
    if n > MAX_ORDER:
        raise ConfigurationError(f"plant order (sum of block orders) must be <= {MAX_ORDER}, "
                                 f"got {n}")
    return tuple(checked)


def _gain_rows(name: str, M) -> tuple[tuple[float, ...], ...]:
    """M as rows of floats; a number is one 1 x 1 row and a flat sequence one row."""
    M = M.tolist() if hasattr(M, "tolist") else M  # numpy arrays and scalars
    if not isinstance(M, (list, tuple)):
        M = [[M]]
    elif M and not isinstance(M[0], (list, tuple)):
        M = [M]
    rows = tuple(tuple(float(v) for v in row) for row in M)
    if len({len(row) for row in rows}) > 1:
        raise ConfigurationError(
            f"{name} rows must have equal lengths, got {[list(row) for row in rows]}"
        )
    return rows


def check_gains(n: int, B, K) -> tuple[tuple, tuple]:
    """Input map B (n x m) and feedback gain K (m x n) as rows of floats, each checked.

    A matrix with no rows fits any column count.  Else ConfigurationError.
    """
    B, K = _gain_rows("B", B), _gain_rows("K", K)
    m = len(B[0]) if B else 0
    if len(B) != n:
        raise ConfigurationError(f"input map B must have {n} rows, got shape {(len(B), m)}")
    if len(K) != m or any(len(row) != n for row in K):
        raise ConfigurationError(
            f"feedback gain K must have shape {(m, n)}, got {(len(K), len(K[0]) if K else 0)}"
        )
    for name, M in (("B", B), ("K", K)):
        if not all(map(math.isfinite, (v for row in M for v in row))):
            raise ConfigurationError(f"{name} entries must be finite, got {[list(r) for r in M]}")
    return B, K


def contraction_ladders(
    rho0: float,
    orders: Sequence[int],
    ladders: tuple[tuple[float, ...], ...] | None,
) -> tuple[tuple[float, ...], ...]:
    """Per block of the given orders, its per-coordinate contraction ladder.

    A ladder lies in (0, rho0], increases strictly and ends at rho0; without
    ladders a block of order p gets the default rho0*i/p, i = 1..p.  Given
    ladders are checked against the orders and these rules.
    """
    if ladders is None:
        return tuple(tuple(rho0 * i / p for i in range(1, p + 1)) for p in orders)
    for ladder in ladders:  # values first: TriggerConfig checks them without the plant
        if not ladder or any(not 0 < r <= rho0 for r in ladder):
            raise ConfigurationError(f"ladder values must lie in (0, rho0], got {ladder}")
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ConfigurationError(f"ladder must be strictly increasing, got {ladder}")
        if ladder[-1] != rho0:
            raise ConfigurationError(f"ladder must end at rho0={rho0}, got {ladder}")
    if len(ladders) != len(orders) or any(len(lad) != p for lad, p in zip(ladders, orders)):
        raise ConfigurationError("rho_ladders shape must match the plant blocks")
    return tuple(tuple(lad) for lad in ladders)


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
        object.__setattr__(self, "blocks", check_blocks(self.blocks))
        for name in _RANGES:
            _check_input(name, getattr(self, name))
        if self.rho_ladders is not None:
            contraction_ladders(self.rho0, [p for _, p in self.blocks], self.rho_ladders)

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


def _ln_em1(u: float) -> float:
    """ln(e^u - 1), overflow-free and accurate for small u."""
    if u <= 0:
        raise PreconditionError(f"needs a positive exponent, got {u}")
    return u + math.log(-math.expm1(-u))


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


def packet_bits_necessary(inp: BoundInputs) -> float:
    """Minimum bits per triggering event (single-eigenvalue systems).

    max{0, log2((e^{A*gamma} - 1)/(rho0 e^{-sigma*gamma}))}, 0 at gamma = 0.
    """
    A = inp.A
    if inp.gamma == 0:
        return 0.0
    ln_em1 = _ln_em1(A * inp.gamma)
    return max(0.0, (ln_em1 + _ln_contraction(inp.sigma, inp.rho0, inp.gamma)) / LN2)


def triggering_rate_upper(inp: BoundInputs) -> float:
    """Worst-case events/s of the triggering rule."""
    return (inp.A + inp.sigma) / _ln_contraction(inp.sigma, inp.rho0, inp.gamma)


def triggering_rate_lower(inp: BoundInputs) -> float:
    """Events/s forced by some delay realization under nu-precision."""
    # ln(2 + e^{sigma*gamma}/rho0) evaluated overflow-free.
    u = inp.sigma * inp.gamma
    ln_term = u + math.log(2 * math.exp(-u) + 1.0 / inp.rho0)
    return (inp.A + inp.sigma) / (math.log(inp.nu) + ln_term)


def min_inter_event_time(inp: BoundInputs) -> float:
    """Uniform lower bound on the spacing of triggering events (seconds)."""
    return _spacing(inp.A, inp.sigma, inp.gamma, inp.rho0, inp.rho0)


def _spacing(lam: float, sigma: float, gamma: float, rho0: float, rho: float) -> float:
    """Guaranteed spacing of triggering events for one coordinate (seconds).

    A coordinate contracted to rho0 (a chain end, or a scalar plant) regrows
    purely exponentially, giving -ln(rho0 e^{-sigma gamma})/(lam+sigma).  A
    coupled coordinate is additionally driven by the coordinate below it,
    whose envelope (absorbed via the ladder slack rho0 - rho and the cascade
    caps) shortens the guaranteed spacing to
    ln((1+c)/(rho e^{-sigma gamma} + (rho0-rho) + c))/(lam+sigma) with
    c = (rho0-rho)/(e^{(lam+sigma) gamma} - 1).
    """
    if rho >= rho0:
        return _ln_contraction(sigma, rho0, gamma) / (lam + sigma)
    if gamma == 0.0:
        return 0.0  # the zero-delay cascade cap is infinite: no spacing floor
    c = (rho0 - rho) / math.expm1((lam + sigma) * gamma)
    u = (1.0 + c) / (rho * math.exp(-sigma * gamma) + (rho0 - rho) + c)
    return math.log(u) / (lam + sigma)


def _log2_packet_term(lam: float, rho: float, sigma: float, gamma: float, b: float) -> float:
    """log2(b*gamma*(lam+sigma) / ln(1 + rho*e^{-(sigma+lam)*gamma}))."""
    u = (sigma + lam) * gamma
    width = b * gamma * (lam + sigma)
    # a width that underflows (gamma near the smallest float) is taken as a sum of logs
    num = math.log(width) if width > 0.0 else math.log(b) + math.log(gamma) + math.log(lam + sigma)
    x = rho * math.exp(-u) if u < 700 else 0.0
    # once x underflows, ln(1+x) ~ x: ln ln(1+x) ~ ln(rho) - u
    den = math.log(math.log1p(x)) if x > 0.0 else math.log(rho) - u
    return (num - den) / LN2


def _packet_size(lam: float, rho: float, sigma: float, gamma: float, b: float) -> int:
    """Integer packet size meeting the sufficient-rate bound at eigenvalue lam
    and contraction rho; 1 at gamma = 0."""
    if gamma == 0:
        return 1
    return max(1, math.ceil(1.0 + _log2_packet_term(lam, rho, sigma, gamma, b)))


def _rate_curves(
    inp: BoundInputs, gammas: Sequence[float], sigmas: Sequence[float] | None = None
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Per delay in gammas: the necessary, approximate-necessary and sufficient
    rates at inp.sigma, and the largest necessary rate over sigmas (empty
    if sigmas is None), as four lists.

    One walk of the grid holds the one copy of each rate formula.  ln nu,
    ln rho0, 1/rho0 and each block's lam + sigma at the curve's sigma are
    taken once per call, each block's ln(e^{lam*gamma} - 1) once per delay.
    Each block adds p * triggering_rate_lower * packet_bits_necessary at its
    eigenvalue to the necessary rate, with the same float operations in the
    same order, so every value matches those factors bit for bit; a block
    whose packet bits clamp to 0 adds exactly 0.0 and is skipped.  The
    sufficient rate adds one term per coordinate, with its ladder contraction
    in place of rho0.  Every rate is 0 at gamma = 0.
    """
    sigma, rho0, b, blocks = inp.sigma, inp.rho0, inp.b, inp.blocks
    ln_nu, ln_rho0, inv_rho0 = math.log(inp.nu), math.log(rho0), 1.0 / rho0
    at_sigmas = (sigma, *(sigmas or ()))  # the curve's own sigma, then the supremum's
    weights = [p * (lam + sigma) / LN2 for lam, p in blocks]  # approximate rate per unit term
    ladders = contraction_ladders(rho0, [p for _, p in blocks], inp.rho_ladders)
    coords = [(lam, lam + sigma, ladder) for (lam, _), ladder in zip(blocks, ladders)]
    nec, app, suf, sup = [], [], [], []
    for gamma in gammas:
        if gamma == 0:
            rates, approx, sufficient = [0.0] * len(at_sigmas), 0.0, 0.0
        else:
            terms = [(lam, p, _ln_em1(lam * gamma)) for lam, p in blocks]
            rates = []
            for s in at_sigmas:
                u = s * gamma
                den = ln_nu + (u + math.log(2 * math.exp(-u) + inv_rho0))
                ln_contraction = u - ln_rho0
                total = 0.0
                for lam, p, ln_em1 in terms:
                    bits = (ln_em1 + ln_contraction) / LN2
                    if bits > 0.0:
                        total += p * ((lam + s) / den) * bits
                rates.append(total)
            den = sigma * gamma - ln_rho0  # _ln_contraction at the curve's sigma
            approx = 0.0
            for w, (_, _, ln_em1) in zip(weights, terms):
                approx += w * max(0.0, 1.0 + ln_em1 / den)
            sufficient = 0.0
            for lam, ls, ladder in coords:
                for rho in ladder:
                    term = max(0.0, 1.0 + _log2_packet_term(lam, rho, sigma, gamma, b))
                    sufficient += ls / den * term
        nec.append(rates[0])
        app.append(approx)
        suf.append(sufficient)
        if sigmas is not None:
            sup.append(max(rates[1:]))
    return nec, app, suf, sup


def transmission_rate_necessary(inp: BoundInputs) -> float:
    """Bits/s forced by some delay realization; sums blocks with multiplicity."""
    return _rate_curves(inp, (inp.gamma,))[0][0]


def transmission_rate_necessary_approx(inp: BoundInputs) -> float:
    """Small-rho0 approximation of the necessary transmission rate.

    Intended regime rho0 << e^{sigma*gamma}/max{2, nu}; not enforced.
    """
    return _rate_curves(inp, (inp.gamma,))[1][0]


def transmission_rate_sufficient(inp: BoundInputs) -> float:
    """Bits/s achieved by the sign + quantized-trigger-time policy.

    Vector systems sum one term per coordinate, each using its ladder
    contraction in place of rho0.
    """
    return _rate_curves(inp, (inp.gamma,))[2][0]


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
    return _packet_size(inp.A, inp.rho0, inp.sigma, inp.gamma, inp.b)


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
    (nec,), (app,), (suf,), _ = _rate_curves(inp, (inp.gamma,))
    out = AnalyticBounds(
        access_rate=access_rate_necessary(inp),
        rate_necessary=nec,
        rate_necessary_approx=app,
        rate_sufficient=suf,
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


@dataclass
class PhaseCurve:
    """Analytic rate curves over a delay grid, with the transition markers."""

    gammas: tuple[float, ...]
    necessary: tuple[float, ...]
    necessary_approx: tuple[float, ...]
    sufficient: tuple[float, ...]
    gamma_c: float | None
    gamma_eq: float | None
    asymptote: float
    access_rate: float
    necessary_sup_sigma: tuple[float, ...] | None = None
    necessary_exceeds_sufficient: int = 0


def phase_curves(
    inp: BoundInputs,
    gamma_grid: Sequence[float],
    sigma_grid: Sequence[float] | None = None,
) -> PhaseCurve:
    """Necessary, approximate-necessary, and sufficient rates per grid delay.

    With sigma_grid, additionally reports the supremum over those decay rates
    of the necessary rate.  Grid points where the necessary rate exceeds the
    sufficient one are counted, not asserted.  inp was checked when it was
    built; each grid value is checked once, as BoundInputs checks gamma and
    sigma, and the rates come from one walk of the grid by the rate kernel.
    The delay markers gamma_c and gamma_eq need a single eigenvalue; they are
    None for mixed ones, as in analytic_bounds.
    """
    gammas = tuple(_check_input("gamma", float(g)) for g in gamma_grid)
    sigmas = None if sigma_grid is None else [_check_input("sigma", float(s)) for s in sigma_grid]
    nec, app, suf, sup = _rate_curves(inp, gammas, sigmas)
    try:
        A = inp.A
    except PreconditionError:
        A = None  # mixed eigenvalues: the delay markers are undefined
    return PhaseCurve(
        gammas=gammas,
        necessary=tuple(nec),
        necessary_approx=tuple(app),
        sufficient=tuple(suf),
        gamma_c=None if A is None else critical_delay(inp),
        gamma_eq=None if A is None else equilibrium_delay(A),
        asymptote=rate_asymptote(inp),
        access_rate=access_rate_necessary(inp),
        necessary_sup_sigma=None if sigmas is None else tuple(sup),
        necessary_exceeds_sufficient=sum(n > s * (1.0 + 1e-12) for n, s in zip(nec, suf)),
    )


@dataclass(frozen=True)
class Assumption1Window:
    """Result of the constant-packet-size design check."""

    lower_ok: bool
    upper_ok: bool
    expansion_ok: bool


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


class Coordinate(NamedTuple):
    """One flat coordinate of a plant with its share of the trigger design."""

    lam: float  # eigenvalue of its Jordan block
    start: int  # flat index of the block's first coordinate
    order: int  # order of the block
    index: int  # position in the block; order - 1 is the chain end
    rho: float  # ladder contraction
    v0: float  # trigger level
    envelope: float  # (rho0 - rho) + e^{(lam+sigma)*gamma}
    spacing: float  # guaranteed spacing of its triggering events
    g: int  # sufficient packet size


def coordinates(inp: BoundInputs, v0: Sequence[float]) -> tuple[Coordinate, ...]:
    """The per-coordinate table of inp's plant and the trigger levels v0.

    The one place that broadcasts per-coordinate parameters: a single level
    applies to every coordinate, ladders default as contraction_ladders says.
    Refuses, with ConfigurationError, a level count other than one or the
    plant order and a chained level above its coupling cap (v0_cascade_bound).
    """
    n = inp.n
    levels = tuple(v0) * n if len(v0) == 1 else tuple(v0)
    if len(levels) != n:
        raise ConfigurationError(f"need one trigger level per coordinate ({n}), got {len(levels)}")
    sigma, rho0, gamma = inp.sigma, inp.rho0, inp.gamma
    ladders = contraction_ladders(rho0, [p for _, p in inp.blocks], inp.rho_ladders)
    table, at = [], 0
    for (lam, p), ladder in zip(inp.blocks, ladders):
        v_blk = levels[at : at + p]
        caps = v0_cascade_bound((lam, p), v0=v_blk, rho=ladder, sigma=sigma, rho0=rho0, gamma=gamma)
        for i, cap in enumerate(caps.upper, start=1):
            if v_blk[i] > cap * (1.0 + 1e-12):
                raise ConfigurationError(
                    f"trigger level v0={v_blk[i]} for chained coordinate {at + i} "
                    f"exceeds its coupling cap {cap:.6g}"
                )
        table += [
            Coordinate(lam, at, p, i, rho, v, env, _spacing(lam, sigma, gamma, rho0, rho),
                       _packet_size(lam, rho, sigma, gamma, inp.b))
            for i, (rho, v, env) in enumerate(zip(ladder, v_blk, caps.envelope))
        ]
        at += p
    return tuple(table)
