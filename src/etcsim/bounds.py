"""Closed-form rate bounds, critical delays and design checks.

Conventions: log2 for bit counts and rates, natural log elsewhere.  Clamped
max{0, .} terms return exactly 0.0, never a negative epsilon, so phase
transition tests can compare against zero.  Expressions are arranged around
expm1/log1p so they stay finite and accurate for very small and very large
delay bounds.

Each rate formula lives once, in the rate kernel _rate_curves, which
passes over the blocks once per delay and adds up the necessary,
approximate-necessary and sufficient rates together: analytic_bounds, the
one bound table and the one public path to each bound, reads it at one
delay and phase_curves over a delay grid.  The supremum of the necessary
rate over a decay-rate grid is the rate at the grid's largest sigma
whenever a rounding-safe upper bound on the others certifies it
(_sup_certified), and the largest rate over every sigma of the grid
otherwise: the same float either way, which _largest_rate computes with the
kernel's float operations at each sigma.  The
table's single-eigenvalue fields come from private kernels on plain floats
(_triggering_rates, _spacing, _critical_delay, _beta, _packet_size,
_tolerance), so a caller that needs one value in a hot loop skips the
table: channel's adversarial delay calls _beta, and the per-coordinate
table _spacing, _packet_size and _tolerance.  packet_bits_necessary and
triggering_rate_lower are the rate kernel's factors, which it inlines for
speed.

The module also holds the one check of each design parameter (_RANGES,
check_blocks, check_gains, contraction_ladders), which model's types call,
and of a packet size (check_packet_size), which codec and coordinates call,
the one rule that a number argument is a real number (_check_real), which
every entry point applies before its range rules, and the per-coordinate
table of a trigger design (coordinates), which the engine and its checks
read; its cap column bounds each chained trigger level,
v0_i <= v0_{i-1}*(lam+sigma)*(rho0-rho_{i-1}) / (((rho0-rho_{i-1}) + E)*(E - 1))
with E = e^{(lam+sigma)*gamma}.  It imports nothing but the standard library
and errors, so the analytic commands run without numpy, and its records are
NamedTuples, so they load no dataclasses either.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .errors import ConfigurationError, PreconditionError

LN2 = math.log(2.0)
# largest plant order (sum of block orders): the closed loop's stack of 256 n x n
# powers then stays within sim.MAX_TRACE_BYTES
MAX_ORDER = 512
# the largest g whose cell width b*gamma/2^(g-2) is nonzero for some finite b*gamma
MAX_PACKET_BITS = 2100

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


def _real_type(kind: type) -> bool:
    """kind is int or float, or numpy's integer or floating scalar type, but not bool
    (check_packet_size refuses a bool too): the types of a real number argument."""
    if issubclass(kind, (float, int)):  # numpy's float64 too
        return kind is not bool
    import numbers  # numpy's other scalar types: the analytic commands never load it

    return issubclass(kind, numbers.Real)


def _check_real(name: str, value, error=ConfigurationError):
    """value, if it is a real number (_real_type); else error."""
    if not _real_type(type(value)):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def _check_input(name: str, value: float) -> float:
    """value, if the parameter name admits it; else ConfigurationError."""
    _check_real(name, value)
    for admits, rule in _RANGES[name]:
        if not admits(value):
            raise ConfigurationError(f"{name} {rule}, got {value}")
    return value


def _check_grid(name: str, values: Sequence[float]) -> list[float]:
    """values as floats, each admitted by the parameter name; else the error that
    checking and converting them one at a time, in order, raises first."""
    values = list(values)  # an iterator is read once, for both passes
    floats = None
    if all(map(_real_type, set(map(type, values)))):  # then one pass per rule
        try:
            floats = list(map(float, values))
        except OverflowError:  # an int past float range: the loop below raises it again
            pass
    if floats is None or not all(all(map(admits, floats)) for admits, _ in _RANGES[name]):
        return [float(_check_input(name, v)) for v in values]
    return floats


def check_blocks(blocks) -> tuple[tuple[float, int], ...]:
    """(eigenvalue, order) pairs as (float, int), each checked; else ConfigurationError.

    An order with a fractional part is refused, not truncated, and so is a
    plant whose orders sum past MAX_ORDER.
    """
    if not blocks:
        raise ConfigurationError("at least one Jordan block is required")
    checked = []
    for lam, p in blocks:
        lam = float(_check_real("eigenvalue", lam))
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


def check_packet_size(g) -> int:
    """g, if it is an int (not a bool) in [1, MAX_PACKET_BITS]; else PreconditionError.

    The one rule for a packet size, which the codec and coordinates call too:
    a float, 3.0 too, or a numpy integer is refused, not converted.
    """
    if type(g) is not int:
        raise PreconditionError(f"packet size must be an integer number of bits, got {g}")
    if not 1 <= g <= MAX_PACKET_BITS:
        raise PreconditionError(f"packet size must lie in [1, {MAX_PACKET_BITS}] bits, got {g}")
    return g


def _gain_rows(name: str, M) -> tuple[tuple[float, ...], ...]:
    """M as rows of floats; a number is one 1 x 1 row and a flat sequence one row."""
    M = M.tolist() if hasattr(M, "tolist") else M  # numpy arrays and scalars
    if not isinstance(M, (list, tuple)):
        M = [[M]]
    elif M and not isinstance(M[0], (list, tuple)):
        M = [M]
    rows = tuple(tuple(float(_check_real(f"{name} entry", v)) for v in row) for row in M)
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
    orders: Sequence[int] | None,
    ladders,
) -> tuple[tuple[float, ...], ...]:
    """Per block of the given orders, its per-coordinate contraction ladder.

    A ladder lies in (0, rho0], increases strictly and ends at rho0; without
    ladders a block of order p gets the default rho0*i/p, i = 1..p.  Given
    ladders, per-block sequences of real numbers, are read once, checked
    against these rules and, unless orders is None (a trigger design without
    its plant), against the orders.
    """
    if ladders is None:
        return tuple(tuple(rho0 * i / p for i in range(1, p + 1)) for p in orders)
    try:
        read = tuple(tuple(ladder) for ladder in ladders)
    except TypeError:  # a number where a sequence belongs
        read = None
    if read is None or not all(_real_type(type(r)) for ladder in read for r in ladder):
        raise ConfigurationError(
            f"rho_ladders must be per-block sequences of real numbers, got {ladders!r}")
    for ladder in read:
        if not ladder:
            raise ConfigurationError("a ladder needs at least one value, got an empty one")
        if any(not 0 < r <= rho0 for r in ladder):
            raise ConfigurationError(f"ladder values must lie in (0, rho0], got {ladder}")
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ConfigurationError(f"ladder must be strictly increasing, got {ladder}")
        if ladder[-1] != rho0:
            raise ConfigurationError(f"ladder must end at rho0={rho0}, got {ladder}")
    if orders is not None and (len(read) != len(orders)
                               or any(len(lad) != p for lad, p in zip(read, orders))):
        raise ConfigurationError("rho_ladders shape must match the plant blocks")
    return read


class _BoundFields(NamedTuple):  # a NamedTuple's own body may not define __new__ or _make
    blocks: tuple[tuple[float, int], ...]
    sigma: float
    rho0: float
    gamma: float
    b: float
    nu: float
    rho_ladders: tuple[tuple[float, ...], ...] | None


class BoundInputs(_BoundFields):
    """Parameter bundle shared by the analytic bounds.

    blocks lists (eigenvalue, order) pairs; a scalar system is a single
    (A, 1) block.  nu >= 1 is the quantization precision parameter of the
    necessity results (nu >= 2 where the design-window check is used).
    rho_ladders is kept as contraction_ladders returns it, a tuple of tuples.
    Every way to build one (the constructor, _make, _replace, pickle and
    copy) runs the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, blocks, sigma, rho0, gamma, b=1.0001, nu=1.0, rho_ladders=None):
        blocks = check_blocks(blocks)
        for name, value in zip(("sigma", "rho0", "gamma", "b", "nu"), (sigma, rho0, gamma, b, nu)):
            _check_input(name, value)
        if rho_ladders is not None:
            rho_ladders = contraction_ladders(rho0, [p for _, p in blocks], rho_ladders)
        return super().__new__(cls, blocks, sigma, rho0, gamma, b, nu, rho_ladders)

    @classmethod
    def _make(cls, iterable) -> "BoundInputs":
        return cls(*iterable)

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


def _ln_em1(lam: float, gamma: float) -> float:
    """ln(e^{lam*gamma} - 1) for gamma > 0, overflow-free and accurate for small lam*gamma."""
    u = lam * gamma
    if u <= 0:
        raise ConfigurationError(
            f"gamma={gamma} is too small for eigenvalue lam={lam}: lam*gamma underflows to 0"
        )
    return u + math.log(-math.expm1(-u))


def _ln_contraction(sigma: float, rho0: float, gamma: float) -> float:
    """-ln(rho0 * exp(-sigma*gamma)), always positive."""
    return sigma * gamma - math.log(rho0)


def _triggering_rates(
    lam: float, sigma: float, rho0: float, gamma: float, nu: float
) -> tuple[float, float]:
    """Worst-case events/s of the triggering rule, and the events/s forced by
    some delay realization under nu-precision."""
    upper = (lam + sigma) / _ln_contraction(sigma, rho0, gamma)
    # ln(2 + e^{sigma*gamma}/rho0) evaluated overflow-free.
    u = sigma * gamma
    ln_term = u + math.log(2 * math.exp(-u) + 1.0 / rho0)
    return upper, (lam + sigma) / (math.log(nu) + ln_term)


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
    em1 = math.expm1((lam + sigma) * gamma)
    if em1 == 0.0:
        return 0.0  # gamma = 0 or too small to move e^{(lam+sigma) gamma}: no spacing floor
    c = (rho0 - rho) / em1
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
    and contraction rho; 1 at gamma = 0.  The rate kernel and coordinates refuse
    a b*(lam+sigma)*gamma that overflows before it reaches here."""
    if gamma == 0:
        return 1
    return max(1, math.ceil(1.0 + _log2_packet_term(lam, rho, sigma, gamma, b)))


def _rate_curves(
    inp: BoundInputs, gammas: Sequence[float], sigmas: Sequence[float] | None = None
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Per delay in gammas: the necessary, approximate-necessary and sufficient
    rates at inp.sigma, and the largest necessary rate over sigmas (empty
    if sigmas is None), as four lists.

    One pass over the blocks per delay adds up the three rates at the
    curve's sigma together.  ln nu, ln rho0, 1/rho0 and each block's
    lam + sigma are taken once per call; per delay, -ln(rho0 e^{-sigma*gamma})
    once, which is both the necessary rate's contraction term and the
    approximate and sufficient rates' denominator, and each block's
    ln(e^{lam*gamma} - 1) once.  Each block adds
    p * triggering_rate_lower * packet_bits_necessary at its eigenvalue to
    the necessary rate, with the same float operations in the same order, so
    every value matches those factors bit for bit; a block whose packet bits
    clamp to 0 adds nothing to it.  The sufficient rate adds one term per
    coordinate, with its ladder contraction in place of rho0.  Every rate is
    0 at gamma = 0.  A grid on which b*(lam+sigma)*gamma/ln2 overflows at any
    of its sigmas is refused.

    The supremum, from _largest_rate, is the necessary rate at the grid's
    largest sigma whenever _sup_certified proves that no other sigma of the
    grid exceeds it; only when that certificate fails is the whole grid
    scanned.  Either way it is the same float as the maximum of the rates at
    every sigma of the grid.
    """
    sigma, rho0, b, blocks = inp.sigma, inp.rho0, inp.b, inp.blocks
    ln_nu, ln_rho0, inv_rho0 = math.log(inp.nu), math.log(rho0), 1.0 / rho0
    grid = sigmas is not None
    if grid:
        order = sorted(sigmas)
        rest = order[:-1] or order  # the others; a one-point grid's is its point, a sound cover
    growth = max(lam for lam, _ in blocks) + (max(sigma, order[-1]) if grid else sigma)
    if gammas and not max(gammas) * b * growth / LN2 < math.inf:
        raise ConfigurationError(
            f"the rate bounds and the sufficient packet size leave float range: "
            f"b*(lam+sigma)*gamma/ln2 overflows at lam+sigma={growth}, gamma={max(gammas)}, b={b}"
        )
    ladders = contraction_ladders(rho0, [p for _, p in blocks], inp.rho_ladders)
    coords = [  # lam + sigma, and the approximate rate per unit term
        (lam, p, lam + sigma, p * (lam + sigma) / LN2, ladder)
        for (lam, p), ladder in zip(blocks, ladders)
    ]
    nec, app, suf, sup = [], [], [], []
    for gamma in gammas:
        necessary = approx = sufficient = largest = 0.0
        if gamma != 0:
            u = sigma * gamma
            den = u - ln_rho0  # _ln_contraction
            # both factors of the necessary rate inline: a helper call per block slows
            # the sweeps; test_kernel_bitwise_equals_factor_product keeps them equal
            den_trig = ln_nu + (u + math.log(2 * math.exp(-u) + inv_rho0))
            terms = []
            for lam, p, ls, w, ladder in coords:
                ln_em1 = _ln_em1(lam, gamma)
                bits = (ln_em1 + den) / LN2
                if bits > 0.0:
                    necessary += p * (ls / den_trig) * bits
                approx += w * max(0.0, 1.0 + ln_em1 / den)
                for rho in ladder:
                    term = max(0.0, 1.0 + _log2_packet_term(lam, rho, sigma, gamma, b))
                    sufficient += ls / den * term
                if grid:
                    terms.append((lam, p, ln_em1))
            if grid:
                largest = _largest_rate(terms, order[-1:], gamma, ln_nu, ln_rho0, inv_rho0)
                if not _sup_certified(terms, gamma, rest[0], rest[-1], ln_nu, rho0, ln_rho0,
                                      largest):
                    largest = _largest_rate(terms, order, gamma, ln_nu, ln_rho0, inv_rho0)
        nec.append(necessary)
        app.append(approx)
        suf.append(sufficient)
        if grid:
            sup.append(largest)
    return nec, app, suf, sup


def _largest_rate(terms, sigmas, gamma, ln_nu, ln_rho0, inv_rho0) -> float:
    """The largest necessary rate over sigmas at a delay gamma > 0, from each
    block's (lam, p, ln(e^{lam*gamma} - 1)).

    The float operations of _rate_curves' necessary rate, in its order, at
    each sigma; test_columns_equal_point_functions_bitwise keeps the two equal.
    """
    largest = 0.0
    for s in sigmas:
        u = s * gamma
        den = ln_nu + (u + math.log(2 * math.exp(-u) + inv_rho0))
        ln_contraction = u - ln_rho0
        total = 0.0
        for lam, p, ln_em1 in terms:
            bits = (ln_em1 + ln_contraction) / LN2
            if bits > 0.0:
                total += p * ((lam + s) / den) * bits
        if total > largest:
            largest = total
    return largest


def _sup_certified(terms, gamma, lo, hi, ln_nu, rho0, ln_rho0, best) -> bool:
    """True when no sigma in [lo, hi] gives _rate_curves a necessary rate above best.

    A filter in the manner of Shewchuk's filtered predicates (1997): a cheap
    upper bound that may fail to decide, never decides wrongly.  With
    x = sigma*gamma - ln rho0, the kernel's denominator is
    ln nu + x + eps(sigma), eps(sigma) = ln(1 + 2 rho0 e^{-sigma*gamma}), and
    eps falls as sigma grows, so D = ln nu + eps(hi) bounds it below by D + x
    on [lo, hi].  Each block then adds at most p/ln2 * max(0, g(x)) with
    g = (lam+sigma)(L+x)/(D+x), L = ln(e^{lam*gamma} - 1).  As lam + sigma is
    affine in x, g*gamma = (x+a)(x+L)/(x+D) = x + c + k/(x+D) for x > -D: it
    increases where k <= 0 and is convex where k > 0, so on [x(lo), x(hi)]
    its largest value is at an end.

    Margins.  Every operation on both sides rounds by a relative 2^-53, and
    exp, log and log1p by an ulp.  The denominators are sums of nonnegative
    terms, the kernel's at least ln 3, so they keep those relative errors.
    fl(hi*gamma) moves eps(hi) by a relative hi*gamma*2^-53 < 746*2^-53
    (exp(-746) is 0), or by an absolute 1e-323 where exp is subnormal, which
    is nothing against x >= -ln rho0 >= 2^-53.  With the sums over at most
    MAX_ORDER blocks, the kernel's rate and the bound are each within a
    relative 2,000*2^-53 (2.2e-13) of the exact bound; 1e-12 covers both.
    The one cancellation is L + x: x comes from two roundings, off by up to
    2.01*2^-53*x, and x/(D+x) <= 1, so it moves each block's term by at most
    2.1*2^-53*p(lam+hi)/ln2 on each side; 1e-14*p(lam+hi)/ln2 covers both.
    No term is NaN: x(lo) > 0 since rho0 < 1, and an overflow gives inf,
    which decides nothing.

    The bits of each block at hi take the kernel's own float operations, and
    fl is monotone, so when none is positive every rate on [lo, hi] is
    exactly 0.0 and best >= 0.0 is the supremum without the bound.
    """
    x_lo, x_hi = lo * gamma - ln_rho0, hi * gamma - ln_rho0
    d = ln_nu + math.log1p(2.0 * rho0 * math.exp(-hi * gamma))
    bound = slack = 0.0
    clamped = True
    for lam, p, ln_em1 in terms:
        clamped = clamped and ln_em1 + x_hi <= 0.0
        bound += p * max(0.0, (lam + lo) * (ln_em1 + x_lo) / (d + x_lo),
                         (lam + hi) * (ln_em1 + x_hi) / (d + x_hi))
        slack += p * (lam + hi)
    return clamped or (bound * (1.0 + 1e-12) + slack * 1e-14) / LN2 <= best


def _critical_delay(A: float, sigma: float, rho0: float) -> float:
    """Delay bound gamma_c below which the necessary transmission rate is zero.

    Root of e^{A*gamma} - rho0*e^{-sigma*gamma} = 1, bisected on
    [0, ln2/A]; the residual is monotone increasing with a sign change
    guaranteed on that bracket for rho0 in (0, 1).  Once the midpoint equals
    an end no later halving moves either end, so the loop stops there.
    """
    lo, hi = 0.0, LN2 / A
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if math.expm1(A * mid) - rho0 * math.exp(-sigma * mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _beta(lam: float, sigma: float, rho0: float, gamma: float) -> float:
    """Delay over which the error sweeps one full quantization cell at eigenvalue lam."""
    return math.log1p(2.0 * rho0 * math.exp(-sigma * gamma)) / lam


def _tolerance(lam: float, sigma: float, gamma: float, rho0: float) -> float:
    """ln(1 + rho0 e^{-(lam+sigma) gamma})/(lam+sigma): the largest trigger-time
    quantization error that preserves the jump contract at eigenvalue lam."""
    u = (lam + sigma) * gamma
    return math.log1p(rho0 * math.exp(-u)) / (lam + sigma)


class AnalyticBounds(NamedTuple):
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


def _access_rate(inp: BoundInputs) -> float:
    """(Tr(A) + n*sigma)/ln 2, the rate of the access bound at any delay."""
    return (inp.trace + inp.n * inp.sigma) / LN2


def analytic_bounds(inp: BoundInputs) -> AnalyticBounds:
    """Evaluate every bound; single-eigenvalue quantities where defined."""
    (nec,), (app,), (suf,), _ = _rate_curves(inp, (inp.gamma,))
    sigma, rho0, gamma = inp.sigma, inp.rho0, inp.gamma
    asymptote = sum(p * (lam + sigma) / LN2 * (1.0 + lam / sigma) for lam, p in inp.blocks)
    rates = (_access_rate(inp), nec, app, suf, asymptote)
    try:
        A = inp.A
    except PreconditionError:
        return AnalyticBounds(*rates)
    upper, lower = _triggering_rates(A, sigma, rho0, gamma, inp.nu)
    return AnalyticBounds(
        *rates,
        gamma_c=_critical_delay(A, sigma, rho0),
        gamma_eq=LN2 / A,
        # max{0, log2((e^{A*gamma} - 1)/(rho0 e^{-sigma*gamma}))}, 0 at gamma = 0
        packet_bits_necessary=0.0 if gamma == 0 else max(
            0.0, (_ln_em1(A, gamma) + _ln_contraction(sigma, rho0, gamma)) / LN2
        ),
        triggering_rate_upper=upper,
        triggering_rate_lower=lower,
        min_inter_event_time=_spacing(A, sigma, gamma, rho0, rho0),
        beta=_beta(A, sigma, rho0, gamma),
        # gamma = 0 gives 1: the sign bit alone suffices when timing is exact
        packet_size_sufficient=_packet_size(A, rho0, sigma, gamma, inp.b),
        time_quantization_tolerance=_tolerance(A, sigma, gamma, rho0),
    )


class PhaseCurve(NamedTuple):
    """Analytic rate curves over a delay grid, and the plant's access rate."""

    gammas: tuple[float, ...]
    necessary: tuple[float, ...]
    necessary_approx: tuple[float, ...]
    sufficient: tuple[float, ...]
    access_rate: float
    necessary_sup_sigma: tuple[float, ...] | None = None


def phase_curves(
    inp: BoundInputs,
    gamma_grid: Sequence[float],
    sigma_grid: Sequence[float] | None = None,
) -> PhaseCurve:
    """Necessary, approximate-necessary, and sufficient rates per grid delay.

    With sigma_grid, additionally reports the supremum over those decay rates
    of the necessary rate; an empty sigma_grid is refused.
    inp was checked when it was built; each grid is checked once, as
    BoundInputs checks gamma and sigma, and the rate kernel passes over the
    blocks once per delay.
    """
    gammas = tuple(_check_grid("gamma", gamma_grid))
    sigmas = None if sigma_grid is None else _check_grid("sigma", sigma_grid)
    if sigmas == []:
        raise ConfigurationError("sigma_grid must hold at least one decay rate, got none")
    nec, app, suf, sup = _rate_curves(inp, gammas, sigmas)
    return PhaseCurve(
        gammas=gammas,
        necessary=tuple(nec),
        necessary_approx=tuple(app),
        sufficient=tuple(suf),
        access_rate=_access_rate(inp),
        necessary_sup_sigma=None if sigmas is None else tuple(sup),
    )


class Assumption1Window(NamedTuple):
    """Result of the constant-packet-size design check."""

    lower_ok: bool
    upper_ok: bool
    expansion_ok: bool


def assumption1_window(inp: BoundInputs, g: int) -> Assumption1Window:
    """Check a constant packet size g against the nu-precision design window.

    lower_ok: g meets the sufficient-rate quantization bound.
    upper_ok: g does not quantize finer than nu-precision allows.
    expansion_ok: the cell-to-cell expansion condition with delta = b*gamma/2^(g-2).
    Requires nu >= 2 (the upper bound is undefined below that) and an integer g >= 2,
    and refuses inputs whose precision term eps or cell width underflow.

    The lower and upper bounds share the term log2(b*gamma*(A+sigma)), so the
    window's width does not depend on b; b only shifts it by log2(b).  When
    ln(1 + rho0*e^{-(sigma+A)*gamma}) < 4*|ln(1 - eps)| the width is under one
    bit, and then b alone decides whether an integer fits.
    """
    if inp.nu < 2:
        raise PreconditionError(f"the design window needs nu >= 2, got {inp.nu}")
    check_packet_size(g)
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


class Coordinate(NamedTuple):
    """One flat coordinate of a plant with its share of the trigger design."""

    lam: float  # eigenvalue of its Jordan block
    start: int  # flat index of the block's first coordinate
    order: int  # order of the block
    index: int  # position in the block; order - 1 is the chain end
    rho: float  # ladder contraction
    v0: float  # trigger level
    cap: float  # coupling cap on v0 from the level above; inf at the block's head
    envelope: float  # (rho0 - rho) + e^{(lam+sigma)*gamma}
    spacing: float  # guaranteed spacing of its triggering events
    g: int  # the run's packet size: the given g, or the sufficient size
    tolerance: float  # time-quantization tolerance at (lam, rho0): grid mode's largest step


def _levels(n: int, v0: Sequence[float]) -> tuple[float, ...]:
    """The trigger levels of n coordinates; a single level applies to every one."""
    levels = tuple(v0) * n if len(v0) == 1 else tuple(v0)
    if len(levels) != n:
        raise ConfigurationError(f"need one trigger level per coordinate ({n}), got {len(levels)}")
    return levels


def coordinates(inp: BoundInputs, v0: Sequence[float],
                g: int | None = None) -> tuple[Coordinate, ...]:
    """The per-coordinate table of inp's plant, the trigger levels v0 and the packet size g.

    The one place that broadcasts per-coordinate parameters: a single level, and a g that
    check_packet_size admits first, apply to every coordinate; without g each coordinate
    sends its sufficient size, and ladders default as contraction_ladders says.
    The slack rho0 - rho_{i-1} of a block's coordinate i - 1 must absorb the
    coupling that coordinate i injects, which caps v0_i at
    v0_{i-1}*(lam+sigma)*(rho0-rho_{i-1}) / (((rho0-rho_{i-1}) + E)*(E - 1)),
    E = e^{(lam+sigma)*gamma}, E - 1 by expm1; inf at the block's head and
    where E - 1 rounds to 0.  Before a block's rows, an E out of float range
    is refused (PreconditionError) and so is a level above its cap
    (ConfigurationError), as is a level count other than one or the order.
    """
    if g is not None:
        check_packet_size(g)
    levels = _levels(inp.n, v0)
    sigma, rho0, gamma = inp.sigma, inp.rho0, inp.gamma
    ladders = contraction_ladders(rho0, [p for _, p in inp.blocks], inp.rho_ladders)
    table, at = [], 0
    for (lam, p), ladder in zip(inp.blocks, ladders):
        v_blk = levels[at : at + p]
        try:
            E = math.exp((lam + sigma) * gamma)
        except OverflowError:
            raise PreconditionError(
                f"e^((lam+sigma)*gamma) leaves float range at lam={lam}, sigma={sigma}, gamma={gamma}"
            ) from None
        em1 = math.expm1((lam + sigma) * gamma)
        caps = [math.inf] + [  # coordinate i's cap, from level i - 1 and its slack
            math.inf if em1 == 0.0 else v * (lam + sigma) * (rho0 - r) / (((rho0 - r) + E) * em1)
            for v, r in zip(v_blk, ladder[:-1])
        ]
        for i, (v, cap) in enumerate(zip(v_blk, caps)):
            if v > cap * (1.0 + 1e-12):
                raise ConfigurationError(
                    f"trigger level v0={v} for chained coordinate {at + i} "
                    f"exceeds its coupling cap {cap:.6g}"
                )
        tol = _tolerance(lam, sigma, gamma, rho0)
        table += [
            Coordinate(lam, at, p, i, rho, v, cap, (rho0 - rho) + E,
                       _spacing(lam, sigma, gamma, rho0, rho),
                       _packet_size(lam, rho, sigma, gamma, inp.b) if g is None else g, tol)
            for i, (rho, v, cap) in enumerate(zip(ladder, v_blk, caps))
        ]
        at += p
    return tuple(table)
