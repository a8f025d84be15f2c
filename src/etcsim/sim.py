"""Closed-loop event-driven simulation: run_vector, the one run entry point, and
the trace's rate measurement (measure_rates) and invariant checks
(validate_trace).  A delay sweep is a loop over run_vector; `etcsim sweep` is
that loop with CSV output.

The engine propagates the factored closed loop exactly between boundaries
(grid sample instants, packet deliveries, triggering events) and detects
triggers on the sample grid: a coordinate fires at the first grid instant
where its error magnitude meets the threshold and its channel is idle,
replicating a discretized run.  With refine=True the crossing instant is
additionally resolved inside the bracketing step, or before a delivery between
samples (closed form for chain-end coordinates, bisection for coupled ones), and
events occur off-grid.  A coordinate fires at most once per instant.

Recorded samples are left limits: a sample coinciding exactly with a
delivery shows the pre-jump state, while the event log carries post-jump
values.  Receptions are processed before trigger evaluation at the same
instant.

The error z moves by the closed-form Jordan block exponentials.  The estimate
xhat moves by the closed-loop matrix Acl = A - BK: across whole steps by the
precomputed powers of Phi(h) = expm(Acl h), and by offsets within one step
through _Engine._flow, a sum of the terms Acl^k/k! of model.taylor_terms (the
kernel of expm too) tabulated once per run.  _flow calls expm in two cases: a
diagonal Acl, so every scalar plant keeps its elementwise exponential bit for
bit, and ||Acl||_1 h > 1/2, where the unscaled terms would cancel.  On other
plants x and xhat agree with expm on every offset within 1e-12 of each
column's largest magnitude; events, z and v never depend on the propagator.

Detection writes each window of error columns in place into the trace's
coordinate-major z storage and compares it with the thresholds of v, stored
the same way, so a committed chunk is never copied; x = xhat + z is formed
once, when the trace is cut.  The first window of a chunk (the samples up
to the next delivery) is _DETECT_WINDOW samples and each next one doubles.
A window costs about 11 us of dispatch against about 16 ns of arithmetic
per sample (n = 3; a one-sample scan, and the slope from 1024 to 4096
samples, best of 7 x 2,000 scans on a shared 2-core host): one exponential
call serves every block, and the rows of busy channels are cleared in place
only when some channel is busy.  On vector_dense's plant (5 s, seeds
1701-1710) the median chunk is 392 samples and the median first trigger
falls at sample 649 of its chunk, so 1024 samples cover most chunks in one
window (115 windows per run, against 293 at 64).  Every window is evaluated
from the chunk's start state, so the window size never changes a trace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds as bnd
from .channel import ChannelState, DelayModel, sample_delay
from .codec import check_resolvable, decode, encode, reconstruct_error
from .errors import ConfigurationError, DivergenceError, PreconditionError
from .model import (OVERFLOW_LIMIT, JordanPlant, TriggerConfig, block_matexp, exp_or_inf, expm,
                    taylor_terms)

_FP_SLACK = 1e-9  # relative allowance for float roundoff in contract checks
_DETECT_WINDOW = 1024  # samples in the first trigger-detection window of a chunk
_POWER_BLOCK = 256  # samples committed per block of precomputed powers of Phi(h)
# samples per block of validate_trace's envelope check.  Its four buffers take
# 256 KiB, which the allocator can keep from call to call; 65,536 samples (2 MiB)
# were a fresh mapping that every call faulted in, 782 of vector_dense's 3,094
# faults per operation.  8,192 gave vector_dense's lowest op_p50_s of 4,096, 8,192
# and 16,384 in three rounds of bench/run.py on a shared 2-core host
_VALIDATE_BLOCK = 8192
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
    per-coordinate table (bounds.coordinates) with each packet size in its g
    column, and the detection mode; bits_sent is trigger_counts times g.

    Every array has one row per sample.  x, z and v are transposed views of
    coordinate-major arrays, so they are not C-contiguous: take
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


def _sample_count(horizon: float, step: float, n: int) -> int:
    """The samples after t = 0 of a run of an n-coordinate plant, horizon and step
    checked. No other input enters, so a sweep checks them once, before its rows."""
    if not 0 < bnd._check_real("step", step, PreconditionError) < math.inf:
        raise PreconditionError(f"step must be positive and finite, got {step}")
    if not 0 < bnd._check_real("horizon", horizon, PreconditionError) < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {horizon}")
    steps = horizon / step
    columns = 4 * n + 1  # times, and x, xhat, z and v of each coordinate
    trace_bytes = (steps + 1) * columns * 8
    if not trace_bytes <= MAX_TRACE_BYTES:
        raise PreconditionError(
            f"horizon/step = {steps:.6g} samples need a {trace_bytes:.3g}-byte trace "
            f"({columns} float64 columns: times, and x, xhat, z and v of each coordinate), "
            f"over the {MAX_TRACE_BYTES}-byte limit"
        )
    samples = int(round(steps)) if abs(steps - round(steps)) < 1e-9 else int(steps)
    if samples == 0:
        raise PreconditionError(
            f"horizon {horizon} is shorter than one step {step}: the run has no samples"
        )
    return samples


def _initial_state(x0, xhat0, levels: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """x0 and xhat0 as finite float arrays, one entry per trigger level, each error
    |x0 - xhat0| checked against its level. No other input enters, so a sweep checks them once."""
    x0, xhat0 = (np.atleast_1d(np.asarray(a)) for a in (x0, xhat0))
    if x0.dtype.kind not in "iuf" or xhat0.dtype.kind not in "iuf":  # no str, bool or complex
        raise ConfigurationError(f"initial states must be real numbers, got x0={x0}, xhat0={xhat0}")
    x0, xhat0 = x0.astype(float, copy=False), xhat0.astype(float, copy=False)
    if x0.shape != (len(levels),) or xhat0.shape != x0.shape:
        raise ConfigurationError(f"initial conditions must have shape ({len(levels)},)")
    if not (np.isfinite(x0).all() and np.isfinite(xhat0).all()):
        raise ConfigurationError(f"initial states must be finite, got x0={x0}, xhat0={xhat0}")
    z0, v0s = np.abs(x0 - xhat0), np.array(levels)
    if np.any(z0 > v0s):
        raise PreconditionError(f"initial errors {z0} must not exceed trigger levels {v0s}")
    return x0, xhat0


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
        self.S = _sample_count(horizon, step, plant.n)
        self.n = plant.n
        if len(delay_models) != self.n:
            raise ConfigurationError(
                f"need one delay model per coordinate ({self.n}), got {len(delay_models)}"
            )
        for c, m in enumerate(delay_models):  # before any step, not at the coordinate's first draw
            if m is not None and not callable(getattr(m, "sample", None)):
                raise ConfigurationError(f"delay model of coordinate {c} has no sample "
                                         f"method: got {type(m).__name__}")
        self.delay_models = list(delay_models)
        self.h = step
        self.t_end = self.S * step
        if not isinstance(refine, (bool, np.bool_)):
            raise PreconditionError(f"refine must be a bool, got {refine!r}")
        self.refine = bool(refine)
        self.sigma = cfg.sigma

        self.inputs = cfg.bound_inputs(plant.blocks, nu)
        self.bounds = bnd.analytic_bounds(self.inputs)  # a bound that fails stops the run here
        self.coords = bnd.coordinates(self.inputs, cfg.v0, g)
        self.block_slices = [(co.lam, co.order, slice(co.start, co.start + co.order))
                             for co in self.coords if co.index == 0]
        self._block_lams = np.array([lam for lam, _, _ in self.block_slices])
        # coordinates with a channel, and those without, which never fire
        self._enabled = [c for c, m in enumerate(self.delay_models) if m is not None]
        self._muted = [c for c, m in enumerate(self.delay_models) if m is None]

        self.x0, self.xhat0 = _initial_state(x0, xhat0, [co.v0 for co in self.coords])

        for co in self.coords:
            if co.g >= 2:
                check_resolvable(co.g, self.inputs.b, self.inputs.gamma, self.t_end)
        if not refine:  # after every refusal: a refused run prints its error alone
            self._check_step()

        self.acl = plant.closed_loop_matrix()
        self._taylor = self._flow_table()

        # run state
        self.events: list[Event] = []
        self.trigger_counts = np.zeros(self.n, dtype=np.int64)
        self.channel = ChannelState()
        self._fired_at = [-math.inf] * self.n

    def _check_step(self) -> None:
        """Warn, once, when the grid step exceeds the time-quantization tolerance
        of some coordinate with a channel: a grid trigger lags its crossing by up
        to one step, so a post-jump error may then land above v and the contract
        fails in a cascade that validate_trace reports without naming the step."""
        over = [(self.h / self.coords[c].tolerance, c) for c in self._enabled
                if self.h > self.coords[c].tolerance]
        if not over:
            return
        ratio, c = max(over)
        largest = min(self.coords[c].tolerance for c in self._enabled)
        others = f" and {len(over) - 1} more" if len(over) > 1 else ""
        warnings.warn(
            f"grid step h={self.h:.6g} exceeds the time-quantization tolerance of "
            f"coordinate {c}{others} (h/tolerance = {ratio:.3g}); the largest admissible "
            f"step is {largest:.6g}: use a smaller step or --refine",
            stacklevel=4,
        )

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
        _flow's Taylor sum, model.taylor_terms at theta = ||Acl||_1 h, or None
        where _flow calls expm.

        A diagonal Acl (every scalar plant) keeps the elementwise exponential
        of expm, bit for bit, and theta > 1/2 keeps expm's scaling and
        squaring, since there the Taylor terms of a stiff loop would cancel.
        """
        A = self.acl
        if np.count_nonzero(A) == np.count_nonzero(A.diagonal()):
            return None
        theta = float(np.abs(A).sum(axis=0).max()) * self.h
        if not theta <= 0.5:
            return None
        W = taylor_terms(A, theta)
        return np.arange(len(W), dtype=float), W

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
        grow = np.exp(np.multiply.outer(self._block_lams, offsets))
        for (_, p, sl), grow_b in zip(self.block_slices, grow):
            zb = z[sl]
            for i in range(p):
                acc, powh, fact = zb[i], offsets, 1.0
                for k in range(1, p - i):
                    if k > 1:
                        powh = powh * offsets
                    fact *= k
                    term = zb[i + k] * powh
                    acc = acc + (term if k == 1 else term / fact)  # x / 1.0 == x
                np.multiply(acc, grow_b, out=out[sl.start + i])
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
        admit = self.channel.admit
        busy = self._muted + [c for c in self._enabled if not admit(c)]
        times, Z, V = self._times, self._Z, self._V
        lo, width = i0, _DETECT_WINDOW
        while lo <= i1:
            hi = min(lo + width, i1 + 1)
            zw = self._z_at_offsets(z, times[lo:hi] - t, out=Z[:, lo:hi])
            ew = np.abs(zw) >= V[:, lo:hi]
            if busy:
                ew[busy] = False
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
        # both are built in place: no temporary spans the horizon
        times = np.arange(S + 1, dtype=float)
        times *= h
        V = np.empty((n, S + 1))
        np.exp(np.multiply(-self.sigma, times, out=V[0]), out=V[0])
        for c in range(n - 1, -1, -1):  # row 0 holds the decay until it is scaled last
            np.multiply(self.coords[c].v0, V[0], out=V[c])
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
            # every committed sample lies at or before t < chunk_end
            idx_hi = int(times.searchsorted(chunk_end + 1e-15, side="right")) - 1
            hit = self._scan(t, z, next_idx, idx_hi) if idx_hi >= next_idx else None
            # commit the chunk's last sample, or grid mode's hit, or the sample before
            # refine mode's hit, whose crossing lies inside the step after it
            i = idx_hi if hit is None else hit[0] - self.refine
            if i >= next_idx:
                xhat = self._commit(t, xhat, next_idx, i)
                t, z, next_idx = times[i], Z[:, i].copy(), i + 1
            if hit is not None:
                gi, fire = hit[0], np.flatnonzero(hit[1]).tolist()
                if self.refine:
                    t, z, xhat, next_idx = self._refine_fire(t, z, xhat, next_idx, times[gi], fire)
                else:
                    for c in fire:
                        self._fire(c, t, z)
                continue
            if chunk_end > t:
                z_end, xhat_end = self._advance(z, xhat, chunk_end - t)
                # refine: a crossing after the chunk's last sample fires before its delivery
                fire = [c for c in self._enabled if abs(z_end[c]) >= self._v_at(c, chunk_end)
                        and self.channel.admit(c)] if self.refine else []
                if fire:
                    t, z, xhat, next_idx = self._refine_fire(t, z, xhat, next_idx, chunk_end, fire)
                    continue
                t, z, xhat = chunk_end, z_end, xhat_end
                self._check_overflow(xhat + z, t, next_idx)
            if t_rx > self.t_end:
                break  # otherwise the top of the loop applies the delivery at t = t_rx

        return self._trace(S + 1, diverged=False)

    def _trace(self, k: int, diverged: bool) -> SimTrace:
        """The trace of the first k samples; x is formed here as xhat + z,
        except row 0, which is x0 itself."""
        XH, Z = self._XH[:k], self._Z[:, :k]
        X = (XH.T + Z).T  # coordinate-major, so Z is read in its own order
        X[0] = self.x0
        bits_sent = self.trigger_counts * np.array([co.g for co in self.coords], dtype=np.int64)
        return SimTrace(
            self._times[:k], X, XH, Z.T, self._V[:, :k].T,
            self.events, bits_sent, self.trigger_counts, horizon=self.t_end, step=self.h,
            inputs=self.inputs, bounds=self.bounds, coords=self.coords,
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
        flat = XH.reshape(-1)
        for i in range(i0 + 1, i1 + 1, _POWER_BLOCK):
            k = min(_POWER_BLOCK, i1 + 1 - i)
            np.matmul(Q[: k * n], XH[i - 1], out=flat[i * n : (i + k) * n])
        self._check_overflow(XH[i1] + self._Z[:, i1], times[i1], i1 + 1)
        return XH[i1].copy()

    def _check_overflow(self, x: np.ndarray, t: float, next_idx: int) -> None:
        # NaN compares false, so NaN, infinities and magnitudes above the limit all fail
        if not all(abs(v) <= OVERFLOW_LIMIT for v in x.tolist()):
            raise DivergenceError(
                f"state overflow at t={t:.6g}", trace=self._trace(next_idx, diverged=True)
            )

    def _fire(self, c: int, t_s: float, z: np.ndarray) -> None:
        self._fired_at[c] = t_s
        sign = 1 if z[c] > 0 else -1
        g = self.coords[c].g
        gamma = self.inputs.gamma
        packet = encode(t_s, sign, g, self.inputs.b, gamma)
        delta = sample_delay(self.delay_models[c], int(self.trigger_counts[c]))
        if delta > gamma + 1e-12:
            raise ConfigurationError(f"delay {delta} exceeds the configured bound gamma={gamma}")
        t_c = t_s + delta
        self.channel.send(c, packet, t_c)
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
        gamma, b = self.inputs.gamma, self.inputs.b
        co = self.coords[c]
        sign, q = decode(packet, t_eff, b, gamma)
        zbar = reconstruct_error(sign, q, t_eff, co.v0, self.sigma, co.lam)
        z[c] -= zbar
        xhat[c] += zbar
        v_ts = self._v_at(c, packet.t_s)
        jump_bound = co.rho * math.exp(-self.sigma * gamma) * v_ts + (
            self.inputs.rho0 - co.rho
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
        if not (self.refine or self._times[next_idx - 1] == t):
            return
        for c in self._enabled:  # once per instant: a coordinate that fired at t waits
            if self._fired_at[c] != t and self.channel.admit(c) and abs(z[c]) >= self._v_at(c, t):
                self._fire(c, t, z)

    def _refine_fire(self, t_a, z_a, xhat, next_idx, t_b, fire):
        """Fire the earliest exact crossing of the coordinates in fire inside (t_a, t_b]
        from the state (t_a, z_a, xhat); returns the state (t, z, xhat, next_idx) there.
        t_b is either the hit sample next_idx, the first not committed, where a crossing
        commits the sample and fires there as grid mode does, or the delivery that ends
        the chunk, where _receive fires a crossing after the delivery."""
        crossings = {c: self._crossing(c, t_a, z_a, t_b - t_a) for c in fire}
        t_star = min(crossings.values())
        fire = [c for c, s in crossings.items() if s == t_star]
        if t_star == self._times[next_idx]:
            xhat = self._commit(t_a, xhat, next_idx, next_idx)
            z, next_idx = self._Z[:, next_idx].copy(), next_idx + 1
        else:
            z, xhat = self._advance(z_a, xhat, t_star - t_a)
            fire = [] if t_star == t_b else fire
        for c in fire:
            self._fire(c, t_star, z)
        self._check_overflow(xhat + z, t_star, next_idx)
        return t_star, z, xhat, next_idx

    def _crossing(self, c: int, t_a: float, z_a: np.ndarray, hi: float) -> float:
        """First s in (0, hi] with |z_c(t_a+s)| = v_c(t_a+s), as absolute time.

        A coupled coordinate bisects on the sign of |z_c| - v, with z_c row
        i_in of block_matexp(lam, p, mid) @ zb.  Each step first sums that row
        in Python from the same matrix entries.  Any order of summing p
        products lies within p*2^-53*sum|terms| of the exact sum (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1), so a
        sum that clears v by 4*p*2^-53*sum|terms| decides as the product would
        (a floating-point filter, as in Shewchuk's exact predicates, DCG 18,
        1997); 2^-1060 more covers products that underflow.  Any other step
        evaluates the product, so every midpoint and the result are those of
        the product alone.
        """
        co = self.coords[c]
        lam, p, i_in = co.lam, co.order, co.index
        v_a = self._v_at(c, t_a)
        if abs(z_a[c]) >= v_a:  # a coordinate that fired at t_a waits for the hit sample
            return t_a + hi if self._fired_at[c] == t_a else t_a
        if i_in == p - 1:
            # chain-end coordinate grows purely exponentially against the threshold
            s = math.log(v_a / abs(z_a[c])) / (lam + self.sigma)
            return t_a + min(s, hi)
        zb = z_a[co.start : co.start + p]
        tail = [(math.factorial(k), zk) for k, zk in enumerate(zb[i_in:].tolist())]
        # NaN, for a block with a non-finite error, sends every step to the product
        tol = 4.0 * p * 2.0**-53 if np.isfinite(zb).all() else math.nan
        lo_s, hi_s = 0.0, hi
        for _ in range(80):
            if t_a + lo_s == t_a + hi_s:
                break  # rounding is monotone: further halving returns the same time
            mid = 0.5 * (lo_s + hi_s)
            w = v_a * math.exp(-self.sigma * mid)
            e = exp_or_inf(lam * mid)
            terms = [e * (mid**k / f) * zk for k, (f, zk) in enumerate(tail)]
            gap = abs(sum(terms)) - w
            if not abs(gap) > tol * sum(map(abs, terms)) + 2.0**-1060:
                gap = abs((block_matexp(lam, p, mid) @ zb)[i_in]) - w
            if gap < 0.0:
                lo_s = mid
            else:
                hi_s = mid
        return t_a + hi_s


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
    coordinate's channel entirely; any other needs a sample method.  A single
    delay model serves every coordinate, and a scalar x0/xhat0 is the state
    of a one-coordinate plant.
    bounds.coordinates broadcasts the packet size g (None: each coordinate's
    sufficient size); a run's sizes are trace.coords[c].g.
    """
    if delay_models is None:
        raise ConfigurationError("a delay model is required")
    if not isinstance(delay_models, (list, tuple)):
        delay_models = [delay_models] * plant.n
    with np.errstate(over="ignore", invalid="ignore"):  # _check_overflow reports these
        return _Engine(plant, cfg, delay_models, horizon, step, x0, xhat0, refine, g, nu).run()


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

    # the envelope check walks the samples in blocks through four reused buffers,
    # so its memory stays bounded at any horizon; max(...) below equals nanmax(|z|)
    times, z = trace.times, trace.z
    zslack = [2.0 * h * (co.lam + sigma) * max(np.nanmax(z[:, c]), -np.nanmin(z[:, c]))
              if times.size else 0.0 for c, co in enumerate(coords)]
    first: dict[int, str] = {}  # the first violation of each coordinate
    buffers = np.empty((4, min(times.size, _VALIDATE_BLOCK)))
    for a in range(0, times.size, _VALIDATE_BLOCK):
        decay, env, zc, lim = buffers[:, : min(_VALIDATE_BLOCK, times.size - a)]
        np.exp(np.multiply(-sigma, times[a : a + decay.size], out=decay), out=decay)
        for c, co in enumerate(coords):
            if c in first:
                continue
            np.multiply(co.v0 * co.envelope, decay, out=env)
            np.abs(z[a : a + env.size, c], out=zc)
            np.multiply(env, _FP_SLACK, out=lim)
            np.add(zslack[c], lim, out=lim)  # env + (zslack + env*_FP_SLACK), in that order
            np.add(env, lim, out=lim)
            bad = zc > lim
            if bad.any():
                i = int(np.argmax(bad))
                first[c] = (f"envelope exceeded on coord {c} at t={times[a + i]:.6g}: "
                            f"|z|={zc[i]:.6g} > {env[i]:.6g}")
    violations.extend(first[c] for c in sorted(first))
    checks["decay_envelope"] = not first

    ok = True
    sent: list[list[float]] = [[] for _ in coords]
    for e in trace.triggers():
        sent[e.coord].append(e.t_s)
    for c, (co, ts) in enumerate(zip(coords, sent)):
        for a, b_ in zip(ts, ts[1:]):  # two triggers at one instant fail at any step
            if b_ - a <= 0.0 or b_ - a < co.spacing - 2.0 * h - 1e-12:
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
