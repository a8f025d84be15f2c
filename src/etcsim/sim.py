"""Closed-loop event-driven simulation with trace capture and rate measurement.

The engine propagates the factored closed loop exactly between boundaries
(grid sample instants, packet deliveries, triggering events) and detects
triggers on the sample grid: a coordinate fires at the first grid instant
where its error magnitude meets the threshold and its channel is idle,
replicating a discretized run.  With refine=True the crossing instant is
additionally resolved inside the bracketing step (closed form for chain-end
coordinates, bisection for coupled ones) and events occur off-grid.

Recorded samples are left limits: a sample coinciding exactly with a
delivery shows the pre-jump state, while the event log carries post-jump
values.  Receptions are processed before trigger evaluation at the same
instant.

The error z moves by the closed-form Jordan block exponentials.  The estimate
xhat moves by the closed-loop matrix Acl = A - BK: across whole steps by the
precomputed powers of Phi(h) = expm(Acl h), and by offsets within one step
through _Engine._flow, a Taylor sum of Acl^k/k! tabulated once per run.
_flow keeps model.expm (the scaling-and-squaring Pade) in two cases: a
diagonal Acl, so every scalar plant keeps its elementwise exponential bit for
bit, and ||Acl||_1 h > 1/2, where the Taylor terms would cancel.  On other
plants x and xhat agree with the Pade path within 1e-12 of each column's
largest magnitude; events, z and v never depend on the propagator.

Detection writes each window of error columns in place into the trace's
coordinate-major z storage and compares it with the thresholds of v, stored
the same way, so a committed chunk is never copied; x = xhat + z is formed
once, when the trace is cut.  The first window of a chunk (the samples up
to the next delivery) is _DETECT_WINDOW samples and each next one doubles.
A window costs about 16 us of numpy dispatch against about 7 ns of
arithmetic per sample (n = 3), and on vector_dense's plant (5 s, seeds
1701-1710) the median chunk is 392 samples and the median first trigger
falls at sample 649 of its chunk, so 1024 samples cover most chunks in one
window (115 windows per run, against 293 at 64).  Every window is evaluated
from the chunk's start state, so the window size never changes a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import bounds as bnd
from .channel import ChannelState, DelayModel, sample_delay
from .codec import check_resolvable, decode, encode, reconstruct_error
from .errors import ConfigurationError, DecodeError, DivergenceError, PreconditionError
from .model import OVERFLOW_LIMIT, JordanPlant, TriggerConfig, block_matexp, expm

_FP_SLACK = 1e-9  # relative allowance for float roundoff in contract checks
_DETECT_WINDOW = 1024  # samples in the first trigger-detection window of a chunk
_POWER_BLOCK = 256  # samples committed per block of precomputed powers of Phi(h)
MAX_TRACE_BYTES = 1 << 30  # largest trace (times and x/xhat/z/v) a run may allocate


@dataclass
class Event:
    """One entry of the event log: a trigger (t = t_s) or a reception (t = t_c)."""

    kind: str
    coord: int
    t: float
    t_s: float
    t_c: float
    g: int
    bits_hex: str
    sign: int
    delta: float | None = None
    q: float | None = None
    zbar: float | None = None
    post_jump: float | None = None
    jump_bound: float | None = None
    v_ts: float | None = None
    flagged: bool = False


@dataclass
class SimTrace:
    """Sampled trajectories plus the ordered event log of one run, with the
    design it ran: the analytic-bound inputs and their bound table, the
    per-coordinate table (bounds.coordinates), the packet size of each
    coordinate and the detection mode.

    Every array has one row per sample.  z and v are transposed views of the
    engine's coordinate-major storage, so they are not C-contiguous: take
    np.ascontiguousarray(trace.z) for their raw bytes in row order."""

    times: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    z: np.ndarray
    v: np.ndarray
    events: list[Event]
    bits_sent: np.ndarray
    trigger_counts: np.ndarray
    horizon: float
    step: float
    inputs: bnd.BoundInputs
    bounds: bnd.AnalyticBounds
    coords: tuple[bnd.Coordinate, ...]
    g: tuple[int, ...]
    refine: bool
    diverged: bool = False

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def receptions(self) -> list[Event]:
        return [e for e in self.events if e.kind == "reception"]

    def triggers(self) -> list[Event]:
        return [e for e in self.events if e.kind == "trigger"]


@dataclass
class RateReport:
    """Empirical rates of one run next to the analytic bounds."""

    horizon: float
    total_bits: int
    trigger_count: int
    rate_empirical: float
    trigger_rate_empirical: float
    per_coord_bits: tuple[int, ...]
    per_coord_rate: tuple[float, ...]
    per_coord_triggers: tuple[int, ...]
    bounds: bnd.AnalyticBounds


class _Engine:
    """Single deterministic run over a Jordan-form plant."""

    def __init__(
        self,
        plant: JordanPlant,
        cfg: TriggerConfig,
        delay_models: Sequence[DelayModel | None],
        horizon: float,
        step: float,
        x0,
        xhat0,
        refine: bool,
        g: int | None,
        nu: float,
    ):
        if not 0 < step < math.inf:
            raise PreconditionError(f"step must be positive and finite, got {step}")
        if not 0 < horizon < math.inf:
            raise PreconditionError(f"horizon must be positive and finite, got {horizon}")
        self.cfg = cfg
        self.n = plant.n
        if len(delay_models) != self.n:
            raise ConfigurationError(
                f"need one delay model per coordinate ({self.n}), got {len(delay_models)}"
            )
        self.delay_models = list(delay_models)
        self.h = step
        steps = horizon / step
        columns = 4 * self.n + 1  # times, and x, xhat, z and v of each coordinate
        trace_bytes = (steps + 1) * columns * 8
        if not trace_bytes <= MAX_TRACE_BYTES:
            raise PreconditionError(
                f"horizon/step = {steps:.6g} samples need a {trace_bytes:.3g}-byte trace "
                f"({columns} float64 columns: times, and x, xhat, z and v of each coordinate), "
                f"over the {MAX_TRACE_BYTES}-byte limit"
            )
        self.S = int(round(steps)) if abs(steps - round(steps)) < 1e-9 else int(steps)
        if self.S == 0:
            raise PreconditionError(
                f"horizon {horizon} is shorter than one step {step}: the run has no samples"
            )
        self.t_end = self.S * step
        self.refine = refine
        self.sigma = cfg.sigma

        self.inputs = cfg.bound_inputs(plant.blocks, nu)
        self.bounds = bnd.analytic_bounds(self.inputs)  # a bound that fails stops the run here
        self.coords = bnd.coordinates(self.inputs, cfg.v0_flat())
        self.block_slices = plant.block_slices()
        self.enabled = np.array([m is not None for m in self.delay_models])

        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.xhat0 = np.atleast_1d(np.asarray(xhat0, dtype=float))
        if self.x0.shape != (self.n,) or self.xhat0.shape != (self.n,):
            raise ConfigurationError(f"initial conditions must have shape ({self.n},)")
        z0, v0s = np.abs(self.x0 - self.xhat0), np.array([co.v0 for co in self.coords])
        if np.any(z0 > v0s):
            raise PreconditionError(f"initial errors {z0} must not exceed trigger levels {v0s}")

        if g is None:
            self.g = tuple(co.g for co in self.coords)
        elif g < 1:
            raise PreconditionError(f"packet size must be >= 1 bit, got {g}")
        else:
            self.g = (int(g),) * self.n
        for gc in self.g:
            if gc >= 2 and cfg.gamma > 0:  # at gamma = 0 encode refuses timing bits itself
                check_resolvable(gc, cfg.b, cfg.gamma, self.t_end)

        self.acl = plant.closed_loop_matrix()
        self._taylor = self._flow_table()

        # run state
        self.events: list[Event] = []
        self.bits_sent = np.zeros(self.n, dtype=np.int64)
        self.trigger_counts = np.zeros(self.n, dtype=np.int64)
        self.channel = ChannelState()
        self._k = [0] * self.n
        self._fired_at = [-math.inf] * self.n

    # -- propagation helpers --------------------------------------------------

    def _advance(self, z: np.ndarray, xhat: np.ndarray, dt: float):
        """(z, xhat) dt later, for dt in [0, h]: z by the Jordan blocks, xhat by _flow."""
        if dt == 0.0:
            return z, xhat
        z_new = np.empty_like(z)
        for lam, p, sl in self.block_slices:
            z_new[sl] = block_matexp(lam, p, dt) @ z[sl]
        return z_new, self._flow(dt, xhat)

    def _flow_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The exponents 0..m and the terms Acl^k/k! (shape (m+1, n, n)) of
        _flow's Taylor sum, or None where _flow calls expm.

        m is the lowest degree whose Taylor remainder at theta = ||Acl||_1 h,
        at most theta^(m+1)/(m+1)! e^theta, is below 2^-53 (Moler & Van Loan,
        SIAM Rev. 45(1), 2003).  A diagonal Acl (every scalar plant) keeps the
        elementwise exponential of expm, bit for bit, and theta > 1/2 keeps the
        Pade, since there the Taylor terms of a stiff loop would cancel.
        """
        A = self.acl
        if np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
            return None
        theta = float(np.abs(A).sum(axis=0).max()) * self.h
        if not theta <= 0.5:
            return None
        W = [np.eye(self.n)]
        remainder = theta * math.exp(theta)
        while remainder >= 2.0**-53:
            W.append(W[-1] @ A / len(W))
            remainder *= theta / len(W)
        return np.arange(len(W), dtype=float), np.array(W)

    def _flow(self, dt: float, v: np.ndarray) -> np.ndarray:
        """exp(Acl*dt) @ v for an offset dt in [0, h], summed from the table
        of _flow_table, or by expm where there is none."""
        if self._taylor is None:
            return expm(self.acl * dt) @ v
        ks, W = self._taylor
        return np.dot(dt**ks, W.dot(v))

    def _z_at_offsets(self, z: np.ndarray, offsets: np.ndarray, out=None) -> np.ndarray:
        """Exact error trajectory at current time + offsets, shape (n, m),
        written into out when given."""
        if out is None:
            out = np.empty((self.n, offsets.size))
        for lam, p, sl in self.block_slices:
            grow = np.exp(lam * offsets)
            zb = z[sl]
            for i in range(p):
                acc, powh, fact = zb[i], offsets, 1.0
                for k in range(1, p - i):
                    if k > 1:
                        powh = powh * offsets
                    fact *= k
                    acc = acc + zb[i + k] * powh / fact
                np.multiply(acc, grow, out=out[sl.start + i])
        return out

    def _phi_powers(self) -> np.ndarray:
        """Phi(h)^(k+1) for k < _POWER_BLOCK, by doubling from Phi(h), stacked
        into one (_POWER_BLOCK*n, n) matrix: rows k*n..(k+1)*n hold power k+1.

        The last power, which carries the estimate from block to block, is
        its own expm, so rounding in Phi(h) does not compound across blocks.
        """
        P = np.empty((_POWER_BLOCK, self.n, self.n))
        P[0] = expm(self.acl * self.h)
        m = 1
        while m < _POWER_BLOCK:
            P[m : 2 * m] = P[:m] @ P[m - 1]
            m *= 2
        P[-1] = expm(self.acl * (self.h * _POWER_BLOCK))
        return P.reshape(_POWER_BLOCK * self.n, self.n)

    def _scan(self, t: float, z: np.ndarray, i0: int, i1: int):
        """The first trigger among samples i0..i1, from the state (t, z).

        Writes the error columns of the samples it scans in place into the
        trace storage Z and returns None when no sample up to i1 is
        eligible, otherwise (i, fire): i is the first eligible sample and
        fire flags the coordinates that may fire there.  Windows of
        _DETECT_WINDOW, 2*_DETECT_WINDOW, ... samples are scanned until one
        holds an eligible sample or i1 is reached.  Every window is
        evaluated from the same (t, z), so the columns equal those of a
        single scan over i0..i1.
        """
        idle = np.array([self.channel.admit(c) for c in range(self.n)]) & self.enabled
        times, Z, V = self._times, self._Z, self._V
        lo, width = i0, _DETECT_WINDOW
        while lo <= i1:
            hi = min(lo + width, i1 + 1)
            zw = self._z_at_offsets(z, times[lo:hi] - t, out=Z[:, lo:hi])
            ew = (np.abs(zw) >= V[:, lo:hi]) & idle[:, None]
            if np.count_nonzero(ew):
                j = int(ew.any(axis=0).argmax())
                return lo + j, ew[:, j]
            lo, width = hi, 2 * width
        return None

    def _v_at(self, coord: int, t: float) -> float:
        return self.coords[coord].v0 * math.exp(-self.sigma * t)

    # -- main loop (exact propagation) ----------------------------------------

    def run(self) -> SimTrace:
        n, h, S = self.n, self.h, self.S
        # z and v are coordinate-major, so a detection window is written in place
        # and read row by row; xhat is sample-major for the Phi(h) power products
        times = np.arange(S + 1) * h
        V = np.array([co.v0 for co in self.coords])[:, None] * np.exp(-self.sigma * times)
        XH = np.empty((S + 1, n))
        Z = np.empty((n, S + 1))
        self._times, self._XH, self._Z, self._V = times, XH, Z, V
        self._powers = self._phi_powers()

        t = 0.0
        z = self.x0 - self.xhat0
        xhat = self.xhat0.copy()
        XH[0], Z[:, 0] = self.xhat0, z
        next_idx = 1
        self._check_overflow(self.x0, 0.0, next_idx)

        while True:
            nd = self.channel.next_delivery()
            t_rx = nd[0] if nd is not None else math.inf
            if t_rx <= t:
                self._receive(t, z, xhat, next_idx)
                continue
            chunk_end = min(t_rx, self.t_end)
            idx_hi = next_idx - 1 + int(
                np.searchsorted(times[next_idx:], chunk_end + 1e-15, side="right")
            )
            hit = self._scan(t, z, next_idx, idx_hi) if idx_hi >= next_idx else None
            # commit the chunk's last sample, or grid mode's hit, or the sample before
            # refine mode's hit, whose crossing lies inside the step after it
            i = idx_hi if hit is None else hit[0] - self.refine
            if i >= next_idx:
                xhat = self._commit(t, xhat, next_idx, i)
                t, z, next_idx = times[i], Z[:, i].copy(), i + 1
            if hit is not None:
                gi, fire = hit
                if self.refine:
                    t, z, xhat = self._refine_fire(t, z, xhat, next_idx, gi, fire)
                else:
                    for c in np.flatnonzero(fire):
                        self._fire(int(c), t, z)
                continue
            if chunk_end > t:
                z, xhat = self._advance(z, xhat, chunk_end - t)
                t = chunk_end
                self._check_overflow(xhat + z, t, next_idx)
            if t_rx > self.t_end:
                break  # otherwise the top of the loop applies the delivery at t = t_rx

        return self._trace(S + 1, diverged=False)

    def _trace(self, k: int, diverged: bool) -> SimTrace:
        """The trace of the first k samples; x is formed here as xhat + z,
        except row 0, which is x0 itself."""
        XH, Z = self._XH[:k], self._Z[:, :k]
        X = XH + Z.T
        X[0] = self.x0
        return SimTrace(
            self._times[:k], X, XH, Z.T, self._V[:, :k].T,
            self.events, self.bits_sent, self.trigger_counts, horizon=self.t_end, step=self.h,
            inputs=self.inputs, bounds=self.bounds, coords=self.coords, g=self.g,
            refine=self.refine, diverged=diverged,
        )

    # -- boundary processing ----------------------------------------------------

    def _commit(self, t_from: float, xhat: np.ndarray, i0: int, i1: int) -> np.ndarray:
        """Fill the estimate of samples i0..i1, whose errors _scan has written;
        returns xhat at i1.

        The estimate reaches sample i0 from t_from, at most one step back,
        through _flow and the later samples through the powers of Phi(h), one
        matrix-vector product per block.
        """
        times, XH, Q, n = self._times, self._XH, self._powers, self.n
        XH[i0] = self._flow(times[i0] - t_from, xhat)
        for i in range(i0 + 1, i1 + 1, _POWER_BLOCK):
            k = min(_POWER_BLOCK, i1 + 1 - i)
            XH[i : i + k] = (Q[: k * n] @ XH[i - 1]).reshape(k, n)
        self._check_overflow(XH[i1] + self._Z[:, i1], times[i1], i1 + 1)
        return XH[i1].copy()

    def _check_overflow(self, x: np.ndarray, t: float, next_idx: int) -> None:
        # NaN compares false, so NaN, infinities and magnitudes above the limit all fail
        if np.count_nonzero(np.abs(x) <= OVERFLOW_LIMIT) < x.size:
            raise DivergenceError(
                f"state overflow at t={t:.6g}", trace=self._trace(next_idx, diverged=True)
            )

    def _fire(self, c: int, t_s: float, z: np.ndarray) -> None:
        if self._fired_at[c] == t_s:
            return
        self._fired_at[c] = t_s
        sign = 1 if z[c] > 0 else -1
        g = self.g[c]
        packet = encode(t_s, sign, g, self.cfg.b, self.cfg.gamma, coord=c)
        delta = sample_delay(self.delay_models[c], self._k[c])
        if delta > self.cfg.gamma + 1e-12:
            raise ConfigurationError(
                f"delay {delta} exceeds the configured bound gamma={self.cfg.gamma}"
            )
        self._k[c] += 1
        t_c = t_s + delta
        self.channel.send(c, packet, t_c)
        self.bits_sent[c] += g
        self.trigger_counts[c] += 1
        self.events.append(
            Event(
                kind="trigger", coord=c, t=t_s, t_s=t_s, t_c=t_c, g=g,
                bits_hex=packet.bits_hex(), sign=sign, delta=delta,
                v_ts=self._v_at(c, t_s),
            )
        )

    def _deliver(self, c: int, t_eff: float, z: np.ndarray, xhat: np.ndarray) -> None:
        """Decode, reconstruct and apply the jump for coordinate c at t_eff."""
        packet = self.channel.deliver(c)
        gamma, b = self.cfg.gamma, self.cfg.b
        co = self.coords[c]
        sign, q = decode(packet, t_eff, b, gamma)
        zbar = reconstruct_error(sign, q, t_eff, co.v0, self.sigma, co.lam)
        z[c] -= zbar
        xhat[c] += zbar
        v_ts = self._v_at(c, packet.t_s)
        jump_bound = co.rho * math.exp(-self.sigma * gamma) * v_ts + (
            self.cfg.rho0 - co.rho
        ) * self._v_at(c, t_eff)
        self.events.append(
            Event(
                kind="reception", coord=c, t=t_eff, t_s=packet.t_s, t_c=t_eff,
                g=packet.g, bits_hex=packet.bits_hex(), sign=sign,
                delta=t_eff - packet.t_s, q=q, zbar=zbar, post_jump=abs(z[c]),
                jump_bound=jump_bound, v_ts=v_ts,
                flagged=not (t_eff - gamma - 1e-12 <= q <= t_eff + 1e-12),
            )
        )

    def _receive(self, t: float, z: np.ndarray, xhat: np.ndarray, next_idx: int) -> None:
        """Apply, in place, every delivery due by t, then re-evaluate triggers at t.

        Grid runs only re-evaluate when t is a grid point; refined runs fire
        at any boundary where a coordinate sits at or above its threshold.
        """
        nd = self.channel.next_delivery()
        while nd is not None and nd[0] <= t:
            self._deliver(nd[1], nd[0], z, xhat)
            nd = self.channel.next_delivery()
        at_grid = next_idx >= 1 and self._times[next_idx - 1] == t
        if not (self.refine or at_grid):
            return
        for c in range(self.n):
            if not self.enabled[c] or not self.channel.admit(c):
                continue
            if abs(z[c]) >= self._v_at(c, t):
                self._fire(c, t, z)

    def _refine_fire(self, t_a, z_a, xhat, next_idx, gi, fire):
        """Fire the earliest exact crossing of the coordinates flagged in fire,
        inside the step from the state (t_a, z_a, xhat) to the hit sample gi;
        returns the state (t, z, xhat) at the crossing.  next_idx is the first
        sample not yet committed."""
        hi = self._times[gi] - t_a
        crossings = {int(c): self._crossing(int(c), t_a, z_a, hi) for c in np.flatnonzero(fire)}
        t_star = min(crossings.values())
        z_new, xhat_new = self._advance(z_a, xhat, t_star - t_a)
        for c, s in crossings.items():
            if s == t_star:
                self._fire(c, t_star, z_new)
        self._check_overflow(xhat_new + z_new, t_star, next_idx)
        return t_star, z_new, xhat_new

    def _crossing(self, c: int, t_a: float, z_a: np.ndarray, hi: float) -> float:
        """First s in (0, hi] with |z_c(t_a+s)| = v_c(t_a+s), as absolute time."""
        co = self.coords[c]
        lam, p, i_in = co.lam, co.order, co.index
        v_a = self._v_at(c, t_a)
        if abs(z_a[c]) >= v_a:
            return t_a
        if i_in == p - 1:
            # chain-end coordinate grows purely exponentially against the threshold
            s = math.log(v_a / abs(z_a[c])) / (lam + self.sigma)
            return t_a + min(s, hi)
        zb = z_a[co.start : co.start + p]
        lo_s, hi_s = 0.0, hi
        for _ in range(80):
            if t_a + lo_s == t_a + hi_s:
                break  # rounding is monotone: further halving returns the same time
            mid = 0.5 * (lo_s + hi_s)
            zc = (block_matexp(lam, p, mid) @ zb)[i_in]
            if abs(zc) - v_a * math.exp(-self.sigma * mid) < 0.0:
                lo_s = mid
            else:
                hi_s = mid
        return t_a + hi_s


def _delay_list(delay_models, n):
    if delay_models is None:
        raise ConfigurationError("a delay model is required")
    if not isinstance(delay_models, (list, tuple)):
        return [delay_models] * n
    return list(delay_models)


def run_vector(
    plant: JordanPlant,
    cfg: TriggerConfig,
    delay_models: Sequence[DelayModel | None] | DelayModel,
    horizon: float,
    step: float,
    *,
    x0: Sequence[float] | float,
    xhat0: Sequence[float] | float,
    refine: bool = False,
    g: int | None = None,
    nu: float = 2.0,
) -> SimTrace:
    """Closed-loop run of a Jordan-form plant over per-coordinate channels.

    Requires |z_i(0)| <= v0_i on every coordinate.  Trigger levels must
    satisfy the coupling cascade bound within each block (checked up front;
    violations refuse to run).  A None delay model disables that
    coordinate's channel entirely.  A single delay model serves every
    coordinate, and a scalar x0/xhat0 is the state of a one-coordinate plant.
    """
    return _Engine(
        plant, cfg, _delay_list(delay_models, plant.n), horizon, step,
        x0, xhat0, refine, g, nu,
    ).run()


# Not a second entry point: the benchmark tracer (bench/spans.py) patches this
# name, and tests/test_tooling.py checks that its hooks resolve.  Delete the alias
# together with that hook.
run_scalar = run_vector
phase_curves = bnd.phase_curves  # the same: the curves live in bounds, free of numpy


def measure_rates(trace: SimTrace) -> RateReport:
    """Empirical sent-bit and triggering rates over the run horizon, next to the
    bound table the engine computed before the run."""
    T = trace.horizon
    if not T > 0:
        raise PreconditionError("rate measurement needs a positive horizon")
    bits = trace.bits_sent
    trig = trace.trigger_counts
    return RateReport(
        horizon=T,
        total_bits=int(bits.sum()),
        trigger_count=int(trig.sum()),
        rate_empirical=float(bits.sum()) / T,
        trigger_rate_empirical=float(trig.sum()) / T,
        per_coord_bits=tuple(int(b) for b in bits),
        per_coord_rate=tuple(float(b) / T for b in bits),
        per_coord_triggers=tuple(int(c) for c in trig),
        bounds=trace.bounds,
    )


@dataclass
class Validation:
    """Outcome of the runtime-invariant checks on a trace."""

    ok: bool
    violations: list[str]
    checks: dict[str, bool]


def validate_trace(trace: SimTrace) -> Validation:
    """Check delays, post-jump contracts, envelopes, spacing, and rate caps.

    Grid-mode runs get the documented discretization allowance: detection and
    delivery each lag by at most one step, inflating the pre-jump error by at
    most e^{2(lam+sigma)h}.
    """
    inp, coords, refine = trace.inputs, trace.coords, trace.refine
    gamma, sigma, h = inp.gamma, inp.sigma, trace.step
    violations: list[str] = []
    checks: dict[str, bool] = {}

    receptions = trace.receptions()
    ok = True
    for e in receptions:
        if not -1e-12 <= e.delta <= gamma + 1e-12:
            ok = False
            violations.append(f"delay {e.delta} outside [0, {gamma}] at t={e.t}")
    checks["delays_in_bound"] = ok

    ok = True
    for e in receptions:
        lam = coords[e.coord].lam
        slack = e.jump_bound * _FP_SLACK + 1e-15
        if not refine:
            slack += math.expm1(2.0 * (lam + sigma) * h) * e.v_ts * math.exp(lam * gamma)
        if e.post_jump > e.jump_bound + slack:
            ok = False
            violations.append(
                f"post-jump error {e.post_jump} exceeds bound {e.jump_bound} "
                f"(coord {e.coord}, t={e.t})"
            )
    checks["post_jump_contract"] = ok

    ok = True
    decay = np.exp(-sigma * trace.times)
    for c, co in enumerate(coords):
        env = (co.v0 * co.envelope) * decay
        zc = np.abs(trace.z[:, c])
        zmax = float(np.nanmax(zc)) if zc.size else 0.0
        slack = 2.0 * h * (co.lam + sigma) * zmax + env * _FP_SLACK
        bad = zc > env + slack
        if bad.any():
            ok = False
            i = int(np.argmax(bad))
            violations.append(
                f"envelope exceeded on coord {c} at t={trace.times[i]:.6g}: "
                f"|z|={zc[i]:.6g} > {env[i]:.6g}"
            )
    checks["decay_envelope"] = ok

    ok = True
    sent: list[list[float]] = [[] for _ in coords]
    for e in trace.triggers():
        sent[e.coord].append(e.t_s)
    for c, (co, ts) in enumerate(zip(coords, sent)):
        for a, b_ in zip(ts, ts[1:]):
            if b_ - a < co.spacing - 2.0 * h - 1e-12:
                ok = False
                violations.append(
                    f"inter-event time {b_ - a:.6g} below {co.spacing:.6g} - 2h on coord {c}"
                )
    checks["no_zeno"] = ok

    ok = True
    T = trace.horizon
    for c, co in enumerate(coords):
        if co.spacing <= 0.0:
            continue
        upper = 1.0 / co.spacing
        r_emp = trace.trigger_counts[c] / T
        if r_emp > upper * (1.0 + 2.0 * (co.lam + sigma) * h) + 1.0 / T + 1e-12:
            ok = False
            violations.append(f"trigger rate {r_emp:.6g} above cap {upper:.6g} on coord {c}")
    checks["trigger_rate_cap"] = ok

    return Validation(ok=not violations, violations=violations, checks=checks)


@dataclass
class SweepRow:
    """One delay-bound setting of an empirical sweep."""

    gamma: float
    g: int | None = None
    rate_empirical: float | None = None
    trigger_rate_empirical: float | None = None
    bounds: bnd.AnalyticBounds | None = None
    x0_norm: float | None = None
    xT_norm: float | None = None
    invariants_ok: bool | None = None
    error: str | None = None


def sweep_gamma(
    plant: JordanPlant,
    cfg: TriggerConfig,
    gamma_grid: Sequence[float],
    horizon: float,
    step: float,
    *,
    delay_factory: Callable[[float, int, int], DelayModel],
    x0,
    xhat0,
    refine: bool = False,
    nu: float = 2.0,
) -> list[SweepRow]:
    """Re-run the closed loop across delay bounds, one row per grid value.

    The packet size is recomputed for every gamma.  delay_factory(gamma, row,
    coord) builds the per-coordinate delay model.  A row whose run fails with
    a package error (divergence, configuration, precondition, decoding)
    records the error and the sweep continues.  Rows are deterministic and
    mutually independent, so execution order never affects the results.
    """
    rows: list[SweepRow] = []
    for r, gamma in enumerate(gamma_grid):
        if not gamma > 0:
            raise ConfigurationError(f"sweep grid values must be positive, got {gamma}")
        cfg_g = replace(cfg, gamma=float(gamma))
        models = [delay_factory(float(gamma), r, c) for c in range(plant.n)]
        try:
            trace = run_vector(
                plant, cfg_g, models, horizon, step, x0=x0, xhat0=xhat0, refine=refine, nu=nu
            )
            report = measure_rates(trace)
            rows.append(
                SweepRow(
                    gamma=float(gamma),
                    g=max(trace.g),
                    rate_empirical=report.rate_empirical,
                    trigger_rate_empirical=report.trigger_rate_empirical,
                    bounds=report.bounds,
                    x0_norm=float(np.linalg.norm(trace.x[0])),
                    xT_norm=float(np.linalg.norm(trace.x[-1])),
                    invariants_ok=validate_trace(trace).ok,
                )
            )
        except (DivergenceError, ConfigurationError, PreconditionError, DecodeError) as err:
            rows.append(SweepRow(gamma=float(gamma), error=str(err)))
    return rows
