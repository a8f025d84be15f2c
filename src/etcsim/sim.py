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
from .model import (
    OVERFLOW_LIMIT,
    JordanPlant,
    ScalarPlant,
    TriggerConfig,
    block_matexp,
    expm,
)

_FP_SLACK = 1e-9  # relative allowance for float roundoff in contract checks
_DETECT_WINDOW = 64  # samples in the first trigger-detection window of a chunk
_POWER_BLOCK = 256  # samples committed per block of precomputed powers of Phi(h)
MAX_TRACE_BYTES = 1 << 30  # largest x/xhat/z/v trace a run may allocate


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
    """Sampled trajectories plus the ordered event log of one run."""

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
    params: dict
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
        x0: np.ndarray,
        xhat0: np.ndarray,
        refine: bool,
        g: int | None,
        nu: float,
    ):
        if not 0 < step < math.inf:
            raise PreconditionError(f"step must be positive and finite, got {step}")
        if not 0 < horizon < math.inf:
            raise PreconditionError(f"horizon must be positive and finite, got {horizon}")
        self.plant = plant
        self.cfg = cfg
        self.n = plant.n
        if len(delay_models) != self.n:
            raise ConfigurationError(
                f"need one delay model per coordinate ({self.n}), got {len(delay_models)}"
            )
        self.delay_models = list(delay_models)
        self.h = step
        steps = horizon / step
        trace_bytes = (steps + 1) * 4 * self.n * 8
        if not trace_bytes <= MAX_TRACE_BYTES:
            raise PreconditionError(
                f"horizon/step = {steps:.6g} samples needs a {trace_bytes:.3g}-byte trace, "
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

        self.v0s = np.asarray(cfg.v0_levels(plant.blocks), dtype=float)
        self.rhos = np.asarray(cfg.rho_flat(plant.blocks), dtype=float)
        self.block_slices = plant.block_slices()
        self.coord_map = plant.coord_map()
        self.lams = np.array([lam for _, lam, _, _ in self.coord_map])
        self._coord_slice = []
        for _, _, sl in self.block_slices:
            self._coord_slice.extend([sl] * (sl.stop - sl.start))
        self.enabled = np.array([m is not None for m in self.delay_models])

        self.x0 = np.asarray(x0, dtype=float)
        self.xhat0 = np.asarray(xhat0, dtype=float)
        if self.x0.shape != (self.n,) or self.xhat0.shape != (self.n,):
            raise ConfigurationError(f"initial conditions must have shape ({self.n},)")
        validate_cascade(plant, cfg)
        z0 = np.abs(self.x0 - self.xhat0)
        if np.any(z0 > self.v0s):
            raise PreconditionError(
                f"initial errors {z0} must not exceed trigger levels {self.v0s}"
            )

        self.inputs = bnd.BoundInputs(
            blocks=plant.blocks, sigma=cfg.sigma, rho0=cfg.rho0, gamma=cfg.gamma,
            b=cfg.b, nu=nu, rho_ladders=cfg.rho_ladders,
        )
        if g is None:
            self.gs = [
                bnd.packet_size_sufficient(bnd.per_coordinate_inputs(self.inputs, lam, rho))
                for lam, rho in zip(self.lams, self.rhos)
            ]
        elif g < 1:
            raise PreconditionError(f"packet size must be >= 1 bit, got {g}")
        else:
            self.gs = [int(g)] * self.n
        for gc in self.gs:
            if gc >= 2 and cfg.gamma > 0:  # at gamma = 0 encode refuses timing bits itself
                check_resolvable(gc, cfg.b, cfg.gamma, self.t_end)

        self.acl = plant.closed_loop_matrix()

        # run state
        self.events: list[Event] = []
        self.bits_sent = np.zeros(self.n, dtype=np.int64)
        self.trigger_counts = np.zeros(self.n, dtype=np.int64)
        self.channel = ChannelState()
        self._k = [0] * self.n
        self._fired_at = [-math.inf] * self.n

    # -- propagation helpers --------------------------------------------------

    def _z_step(self, z: np.ndarray, dt: float) -> np.ndarray:
        out = np.empty_like(z)
        for lam, p, sl in self.block_slices:
            out[sl] = block_matexp(lam, p, dt) @ z[sl]
        return out

    def _advance(self, z: np.ndarray, xhat: np.ndarray, dt: float):
        if dt == 0.0:
            return z, xhat
        return self._z_step(z, dt), expm(self.acl * dt) @ xhat

    def _z_at_offsets(self, z: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Exact error trajectory at current time + offsets, shape (n, m)."""
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
        """Error columns of samples i0.. from the state (t, z), and the first trigger.

        Returns (zmat, hit).  hit is None when no sample up to i1 is eligible;
        otherwise it is (j, fire): zmat's column j is the first eligible
        sample and fire flags the coordinates that may fire there.  Windows
        of _DETECT_WINDOW, 2*_DETECT_WINDOW, ... samples are scanned until
        one holds an eligible sample or i1 is reached.  Every window is
        evaluated from the same (t, z), so the columns equal those of a
        single scan over i0..i1.
        """
        idle = np.array([self.channel.admit(c) for c in range(self.n)]) & self.enabled
        zparts, hit = [], None
        lo, width = i0, _DETECT_WINDOW
        while hit is None and lo <= i1:
            hi = min(lo + width, i1 + 1)
            zw = self._z_at_offsets(z, self._times[lo:hi] - t)
            ew = (np.abs(zw) >= self._V[lo:hi].T) & idle[:, None]
            zparts.append(zw)
            if np.count_nonzero(ew):
                j = int(ew.any(axis=0).argmax())
                hit = (lo - i0 + j, ew[:, j])
            lo, width = hi, 2 * width
        zmat = zparts[0] if len(zparts) == 1 else np.concatenate(zparts, axis=1)
        return zmat, hit

    def _v_at(self, coord: int, t: float) -> float:
        return self.v0s[coord] * math.exp(-self.sigma * t)

    # -- main loop (exact propagation) ----------------------------------------

    def run(self) -> SimTrace:
        n, h, S = self.n, self.h, self.S
        times = np.arange(S + 1) * h
        V = self.v0s[None, :] * np.exp(-self.sigma * times)[:, None]
        X = np.full((S + 1, n), np.nan)
        XH = np.full((S + 1, n), np.nan)
        Z = np.full((S + 1, n), np.nan)
        self._times, self._X, self._XH, self._Z, self._V = times, X, XH, Z, V
        self._powers = self._phi_powers()

        t = 0.0
        z = self.x0 - self.xhat0
        xhat = self.xhat0.copy()
        X[0], XH[0], Z[0] = self.x0, self.xhat0, z
        next_idx = 1
        self._check_overflow(self.x0, 0.0, next_idx)

        while True:
            nd = self.channel.next_delivery()
            t_rx = nd[0] if nd is not None else math.inf
            if t_rx <= t:
                z, xhat = self._process_receptions(t, z, xhat)
                self._instant_eval(t, z, next_idx)
                continue
            chunk_end = min(t_rx, self.t_end)
            is_rx = t_rx <= self.t_end

            idx_hi = next_idx - 1 + int(
                np.searchsorted(times[next_idx:], chunk_end + 1e-15, side="right")
            )
            if idx_hi >= next_idx:
                zmat, hit = self._scan(t, z, next_idx, idx_hi)
                if hit is not None:
                    jcol, fire = hit
                    gi = next_idx + jcol
                    if self.refine:
                        t, z, xhat, next_idx = self._refine_fire(
                            t, z, xhat, next_idx, gi, jcol, zmat, fire
                        )
                    else:
                        xhat = self._commit(zmat[:, : jcol + 1], t, xhat, next_idx, gi)
                        z = zmat[:, jcol].copy()
                        t = times[gi]
                        next_idx = gi + 1
                        for c in np.flatnonzero(fire):
                            self._fire(int(c), t, z)
                    continue
                xhat = self._commit(zmat, t, xhat, next_idx, idx_hi)
                z = zmat[:, -1].copy()
                t = times[idx_hi]
                next_idx = idx_hi + 1

            if chunk_end > t:
                z, xhat = self._advance(z, xhat, chunk_end - t)
                t = chunk_end
                self._check_overflow(xhat + z, t, next_idx)
            if is_rx:
                z, xhat = self._process_receptions(t, z, xhat)
                self._instant_eval(t, z, next_idx)
                continue
            break

        return SimTrace(
            times, X, XH, Z, V, self.events, self.bits_sent, self.trigger_counts,
            horizon=self.t_end, step=h, params=self._params(),
        )

    def _params(self) -> dict:
        return dict(
            plant=self.plant,
            trigger=self.cfg,
            inputs=self.inputs,
            g=tuple(self.gs),
            refine=self.refine,
        )

    # -- boundary processing ----------------------------------------------------

    def _commit(self, zcols: np.ndarray, t_from: float, xhat: np.ndarray,
                i0: int, i1: int) -> np.ndarray:
        """Fill samples i0..i1 from precomputed error columns; returns xhat at i1.

        The estimate reaches sample i0 from t_from through one exponential and
        the later samples through the powers of Phi(h), one matrix-vector
        product per block.
        """
        times, XH, Q, n = self._times, self._XH, self._powers, self.n
        XH[i0] = expm(self.acl * (times[i0] - t_from)) @ xhat
        for i in range(i0 + 1, i1 + 1, _POWER_BLOCK):
            k = min(_POWER_BLOCK, i1 + 1 - i)
            XH[i : i + k] = (Q[: k * n] @ XH[i - 1]).reshape(k, n)
        self._Z[i0 : i1 + 1] = zcols.T
        self._X[i0 : i1 + 1] = XH[i0 : i1 + 1] + zcols.T
        self._check_overflow(self._X[i1], times[i1], i1 + 1)
        return XH[i1].copy()

    def _check_overflow(self, x: np.ndarray, t: float, next_idx: int) -> None:
        # NaN compares false, so NaN, infinities and magnitudes above the limit all fail
        if np.count_nonzero(np.abs(x) <= OVERFLOW_LIMIT) < x.size:
            raise DivergenceError(
                f"state overflow at t={t:.6g}", trace=self._partial_trace(next_idx)
            )

    def _partial_trace(self, next_idx: int) -> SimTrace:
        k = next_idx
        return SimTrace(
            self._times[:k], self._X[:k], self._XH[:k], self._Z[:k], self._V[:k],
            self.events, self.bits_sent, self.trigger_counts,
            horizon=self.t_end, step=self.h, params=self._params(),
            diverged=True,
        )

    def _fire(self, c: int, t_s: float, z: np.ndarray) -> None:
        if self._fired_at[c] == t_s:
            return
        self._fired_at[c] = t_s
        sign = 1 if z[c] > 0 else -1
        g = self.gs[c]
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
        sign, q = decode(packet, t_eff, b, gamma)
        zbar = reconstruct_error(sign, q, t_eff, self.v0s[c], self.sigma, self.lams[c])
        z[c] -= zbar
        xhat[c] += zbar
        v_ts = self._v_at(c, packet.t_s)
        jump_bound = self.rhos[c] * math.exp(-self.sigma * gamma) * v_ts + (
            self.cfg.rho0 - self.rhos[c]
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

    def _process_receptions(self, t: float, z: np.ndarray, xhat: np.ndarray):
        while True:
            nd = self.channel.next_delivery()
            if nd is None or nd[0] > t:
                return z, xhat
            self._deliver(nd[1], nd[0], z, xhat)

    def _instant_eval(self, t: float, z: np.ndarray, next_idx: int) -> None:
        """Trigger re-evaluation right after receptions at the same instant.

        Grid runs only re-evaluate when the instant is a grid point; refined
        runs fire at any boundary where a coordinate sits at or above its
        threshold.
        """
        at_grid = next_idx >= 1 and self._times[next_idx - 1] == t
        if not (self.refine or at_grid):
            return
        for c in range(self.n):
            if not self.enabled[c] or not self.channel.admit(c):
                continue
            if abs(z[c]) >= self._v_at(c, t):
                self._fire(c, t, z)

    def _refine_fire(self, t, z, xhat, next_idx, gi, jcol, zmat, elig_col):
        """Resolve exact crossings inside the detection step, fire the earliest."""
        times = self._times
        if jcol > 0:
            xhat = self._commit(zmat[:, :jcol], t, xhat, next_idx, gi - 1)
            t_a = times[gi - 1]
            z_a = zmat[:, jcol - 1].copy()
            next_idx = gi
        else:
            t_a, z_a = t, z
        hi = times[gi] - t_a
        crossings = {
            int(c): self._crossing(int(c), t_a, z_a, hi) for c in np.flatnonzero(elig_col)
        }
        t_star = min(crossings.values())
        z_new, xhat_new = self._advance(z_a, xhat, t_star - t_a)
        for c, s in crossings.items():
            if s == t_star:
                self._fire(c, t_star, z_new)
        self._check_overflow(xhat_new + z_new, t_star, next_idx)
        return t_star, z_new, xhat_new, next_idx

    def _crossing(self, c: int, t_a: float, z_a: np.ndarray, hi: float) -> float:
        """First s in (0, hi] with |z_c(t_a+s)| = v_c(t_a+s), as absolute time."""
        _, lam, p, i_in = self.coord_map[c]
        v_a = self._v_at(c, t_a)
        if abs(z_a[c]) >= v_a:
            return t_a
        if i_in == p - 1:
            # chain-end coordinate grows purely exponentially against the threshold
            s = math.log(v_a / abs(z_a[c])) / (lam + self.sigma)
            return t_a + min(s, hi)
        zb = z_a[self._coord_slice[c]]
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


def run_scalar(
    plant: ScalarPlant,
    cfg: TriggerConfig,
    delay_model: DelayModel,
    horizon: float,
    step: float,
    *,
    x0: float,
    xhat0: float,
    refine: bool = False,
    g: int | None = None,
    nu: float = 2.0,
) -> SimTrace:
    """Closed-loop run of a scalar plant; requires |z(0)| <= v0 (see run_vector)."""
    return run_vector(
        plant.as_jordan(), cfg, [delay_model], horizon, step,
        x0=[float(x0)], xhat0=[float(xhat0)], refine=refine, g=g, nu=nu,
    )


def run_vector(
    plant: JordanPlant,
    cfg: TriggerConfig,
    delay_models: Sequence[DelayModel | None] | DelayModel,
    horizon: float,
    step: float,
    *,
    x0: Sequence[float],
    xhat0: Sequence[float],
    refine: bool = False,
    g: int | None = None,
    nu: float = 2.0,
) -> SimTrace:
    """Closed-loop run of a Jordan-form plant over per-coordinate channels.

    Requires |z_i(0)| <= v0_i on every coordinate.  Trigger levels must
    satisfy the coupling cascade bound within each block (checked up front;
    violations refuse to run).  A None delay model disables that
    coordinate's channel entirely.
    """
    return _Engine(
        plant, cfg, _delay_list(delay_models, plant.n), horizon, step,
        x0, xhat0, refine, g, nu,
    ).run()


def validate_cascade(plant: JordanPlant, cfg: TriggerConfig) -> None:
    """Refuse trigger levels whose chained coordinates exceed the coupling caps."""
    v0s = cfg.v0_levels(plant.blocks)
    rhos = cfg.rho_flat(plant.blocks)
    at = 0
    for lam, p in plant.blocks:
        v_blk = v0s[at : at + p]
        r_blk = rhos[at : at + p]
        caps = bnd.v0_cascade_bound(
            (lam, p), v0=v_blk, rho=r_blk, sigma=cfg.sigma, rho0=cfg.rho0, gamma=cfg.gamma
        )
        for i, cap in enumerate(caps.upper, start=1):
            if v_blk[i] > cap * (1.0 + 1e-12):
                raise ConfigurationError(
                    f"trigger level v0={v_blk[i]} for chained coordinate {at + i} "
                    f"exceeds its coupling cap {cap:.6g}"
                )
        at += p


def measure_rates(trace: SimTrace) -> RateReport:
    """Empirical sent-bit and triggering rates over the run horizon."""
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
        bounds=bnd.analytic_bounds(trace.params["inputs"]),
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
    plant: JordanPlant = trace.params["plant"]
    cfg: TriggerConfig = trace.params["trigger"]
    refine = trace.params.get("refine", False)
    gamma, sigma, h = cfg.gamma, cfg.sigma, trace.step
    rhos = cfg.rho_flat(plant.blocks)
    v0s = cfg.v0_levels(plant.blocks)
    coord_map = plant.coord_map()
    violations: list[str] = []
    checks: dict[str, bool] = {}

    ok = True
    for e in trace.receptions():
        if not -1e-12 <= e.delta <= gamma + 1e-12:
            ok = False
            violations.append(f"delay {e.delta} outside [0, {gamma}] at t={e.t}")
    checks["delays_in_bound"] = ok

    ok = True
    for e in trace.receptions():
        lam = coord_map[e.coord][1]
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
    for c in range(trace.n):
        lam = coord_map[c][1]
        env = v0s[c] * ((cfg.rho0 - rhos[c]) + math.exp((lam + sigma) * gamma)) * np.exp(
            -sigma * trace.times
        )
        zc = np.abs(trace.z[:, c])
        zmax = float(np.nanmax(zc)) if zc.size else 0.0
        slack = 2.0 * h * (lam + sigma) * zmax + env * _FP_SLACK
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
    dmins = [
        _min_spacing(coord_map[c][1], sigma, gamma, cfg.rho0, rhos[c])
        for c in range(trace.n)
    ]
    for c in range(trace.n):
        ts = [e.t_s for e in trace.triggers() if e.coord == c]
        for a, b_ in zip(ts, ts[1:]):
            if b_ - a < dmins[c] - 2.0 * h - 1e-12:
                ok = False
                violations.append(
                    f"inter-event time {b_ - a:.6g} below {dmins[c]:.6g} - 2h on coord {c}"
                )
    checks["no_zeno"] = ok

    ok = True
    T = trace.horizon
    for c in range(trace.n):
        if dmins[c] <= 0.0:
            continue
        lam = coord_map[c][1]
        upper = 1.0 / dmins[c]
        r_emp = trace.trigger_counts[c] / T
        if r_emp > upper * (1.0 + 2.0 * (lam + sigma) * h) + 1.0 / T + 1e-12:
            ok = False
            violations.append(f"trigger rate {r_emp:.6g} above cap {upper:.6g} on coord {c}")
    checks["trigger_rate_cap"] = ok

    return Validation(ok=not violations, violations=violations, checks=checks)


def _min_spacing(lam, sigma, gamma, rho0, rho_i):
    """Guaranteed spacing of triggering events for one coordinate.

    Chain-end coordinates regrow purely exponentially from the post-jump
    contraction, giving -ln(rho0 e^{-sigma gamma})/(lam+sigma).  A coupled
    coordinate is additionally driven by the coordinate below it, whose
    envelope (absorbed via the ladder slack rho0 - rho_i and the cascade
    caps) shortens the guaranteed spacing to
    ln((1+c)/(rho_i e^{-sigma gamma} + (rho0-rho_i) + c))/(lam+sigma) with
    c = (rho0-rho_i)/(e^{(lam+sigma) gamma} - 1).
    """
    if rho_i >= rho0:
        return (sigma * gamma - math.log(rho0)) / (lam + sigma)
    if gamma == 0.0:
        return 0.0  # the zero-delay cascade cap is infinite: no spacing floor
    c = (rho0 - rho_i) / math.expm1((lam + sigma) * gamma)
    u = (1.0 + c) / (rho_i * math.exp(-sigma * gamma) + (rho0 - rho_i) + c)
    return math.log(u) / (lam + sigma)


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
    plant: ScalarPlant | JordanPlant,
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
    jp = plant.as_jordan() if isinstance(plant, ScalarPlant) else plant
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xhat0 = np.atleast_1d(np.asarray(xhat0, dtype=float))
    rows: list[SweepRow] = []
    for r, gamma in enumerate(gamma_grid):
        if not gamma > 0:
            raise ConfigurationError(f"sweep grid values must be positive, got {gamma}")
        cfg_g = replace(cfg, gamma=float(gamma))
        models = [delay_factory(float(gamma), r, c) for c in range(jp.n)]
        try:
            trace = run_vector(
                jp, cfg_g, models, horizon, step, x0=x0, xhat0=xhat0, refine=refine, nu=nu
            )
            report = measure_rates(trace)
            rows.append(
                SweepRow(
                    gamma=float(gamma),
                    g=max(trace.params["g"]),
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


@dataclass
class PhaseCurve:
    """Analytic rate curves over a delay grid, with the transition markers."""

    gammas: np.ndarray
    necessary: np.ndarray
    necessary_approx: np.ndarray
    sufficient: np.ndarray
    gamma_c: float | None
    gamma_eq: float | None
    asymptote: float
    access_rate: float
    necessary_sup_sigma: np.ndarray | None = None
    necessary_exceeds_sufficient: int = 0


def phase_curves(
    inp: bnd.BoundInputs,
    gamma_grid: Sequence[float],
    sigma_grid: Sequence[float] | None = None,
) -> PhaseCurve:
    """Necessary, approximate-necessary, and sufficient rates per grid delay.

    With sigma_grid, additionally reports the supremum over those decay rates
    of the necessary rate.  Grid points where the necessary rate exceeds the
    sufficient one are counted, not asserted.  inp was checked when it was
    built; each grid value is checked once, as BoundInputs checks gamma and
    sigma, and the rates come from the bound kernels at plain floats.  The
    delay markers gamma_c and gamma_eq need a single eigenvalue; they are
    None for mixed ones, as in analytic_bounds.
    """
    gammas = [bnd._check_input("gamma", float(g)) for g in gamma_grid]
    sigmas = None if sigma_grid is None else [
        bnd._check_input("sigma", float(s)) for s in sigma_grid
    ]
    blocks, rho_flat = inp.blocks, inp.rho_flat()
    sigma, rho0, b, nu = inp.sigma, inp.rho0, inp.b, inp.nu
    nec, app, suf, sup = [], [], [], []
    for g in gammas:
        ln_em1s = bnd._ln_em1s(blocks, g)  # sigma-free, shared by the supremum
        nec.append(bnd._rate_necessary(blocks, ln_em1s, sigma, rho0, g, nu))
        app.append(bnd._rate_necessary_approx(blocks, ln_em1s, sigma, rho0, g))
        suf.append(bnd._rate_sufficient(rho_flat, sigma, rho0, g, b))
        if sigmas is not None:
            sup.append(max(bnd._rate_necessary(blocks, ln_em1s, s, rho0, g, nu) for s in sigmas))
    nec, suf = np.array(nec, dtype=float), np.array(suf, dtype=float)
    try:
        A = inp.A
    except PreconditionError:
        A = None  # mixed eigenvalues: the delay markers are undefined
    return PhaseCurve(
        gammas=np.array(gammas, dtype=float),
        necessary=nec,
        necessary_approx=np.array(app, dtype=float),
        sufficient=suf,
        gamma_c=None if A is None else bnd.critical_delay(inp),
        gamma_eq=None if A is None else bnd.equilibrium_delay(A),
        asymptote=bnd.rate_asymptote(inp),
        access_rate=bnd.access_rate_necessary(inp),
        necessary_sup_sigma=None if sigmas is None else np.array(sup, dtype=float),
        necessary_exceeds_sufficient=int(np.sum(nec > suf * (1.0 + 1e-12))),
    )
