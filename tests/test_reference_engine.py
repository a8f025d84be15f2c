"""Cross-validation of the chunked engine against a naive reference loop.

The reference walks boundaries one at a time with the exact stepper
propagate() below and plain sequential logic: deliveries applied at their
exact times, grid-locked trigger detection, samples as left limits,
receptions processed before trigger evaluation at coinciding instants, one
fire per coordinate per instant.  Agreement here pins down the engine's event bookkeeping; the
trajectories match to float tolerance (the engine evaluates each chunk with
single exponentials rather than step products).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from etcsim import bounds as bnd
from etcsim.channel import UniformDelay, sample_delay
from etcsim.codec import decode, encode, reconstruct_error
from etcsim.errors import DivergenceError
from etcsim.model import OVERFLOW_LIMIT, JordanPlant, TriggerConfig, block_matexp
from etcsim.sim import run_vector


@dataclass(frozen=True)
class SimState:
    """Closed-loop snapshot: time, true state, and controller estimate."""

    t: float
    x: np.ndarray
    xhat: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.x - self.xhat


def propagate(state, plant, h):
    """Advance the closed loop by h under u = -K xhat held as a linear law.

    Evaluates the flow of the augmented linear system: z moves by the
    closed-form Jordan exponential of each block and xhat by
    expm((A - B K) h), the augmented-matrix solution in the (xhat, z) basis.
    tests/test_model.py::TestPropagate checks this stepper against
    numerical integration.
    """
    z = np.empty_like(state.z)
    for lam, p, sl in plant.block_slices():
        z[sl] = block_matexp(lam, p, h) @ state.z[sl]
    xhat = scipy.linalg.expm(plant.closed_loop_matrix() * h) @ state.xhat
    x = xhat + z
    if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > OVERFLOW_LIMIT:
        raise DivergenceError(f"state overflow at t={state.t + h}")
    return SimState(state.t + h, x, xhat)


def reference_run(plant, cfg, delay_models, horizon, step, x0, xhat0, nu=2.0):
    n = plant.n
    S = int(round(horizon / step))
    times = np.arange(S + 1) * step
    v0s = np.asarray(cfg.v0_flat(), dtype=float)
    if v0s.size == 1:
        v0s = np.full(n, v0s[0])
    ladders = bnd.contraction_ladders(cfg.rho0, [p for _, p in plant.blocks], cfg.rho_ladders)
    rhos = [r for ladder in ladders for r in ladder]
    lams = [lam for lam, p in plant.blocks for _ in range(p)]
    gs = [bnd.packet_size_sufficient(bnd.BoundInputs.scalar(lams[c], cfg.sigma, rhos[c],
                                                            gamma=cfg.gamma, b=cfg.b, nu=nu))
          for c in range(n)]

    state = SimState(0.0, np.asarray(x0, float), np.asarray(xhat0, float))
    in_flight = {}  # coord -> (packet, t_c)
    k = [0] * n
    fired_at = {}
    samples = [state]
    triggers, receptions = [], []

    def v_at(c, t):
        return v0s[c] * math.exp(-cfg.sigma * t)

    def deliver_due(state, upto, strictly_before):
        while in_flight:
            c = min(in_flight, key=lambda c: (in_flight[c][1], c))
            packet, t_c = in_flight[c]
            if t_c > upto or (strictly_before and t_c == upto):
                break
            if t_c > state.t:
                state = propagate(state, plant, t_c - state.t)
            del in_flight[c]
            sign, q = decode(packet, t_c, cfg.b, cfg.gamma)
            zbar = reconstruct_error(sign, q, t_c, v0s[c], cfg.sigma, lams[c])
            xhat = state.xhat.copy()
            xhat[c] += zbar
            state = SimState(state.t, state.x.copy(), xhat)
            receptions.append((c, packet.t_s, t_c, q, zbar, abs(state.z[c])))
            fire_eligible(state)  # grid instants only; checked inside
        return state

    def fire_eligible(state):
        t = state.t
        if t not in times:
            return
        for c in range(n):
            if delay_models[c] is None or c in in_flight or fired_at.get(c) == t:
                continue
            if abs(state.z[c]) >= v_at(c, t):
                fired_at[c] = t
                sign = 1 if state.z[c] > 0 else -1
                packet = encode(t, sign, gs[c], cfg.b, cfg.gamma, coord=c)
                t_c = t + sample_delay(delay_models[c], k[c])
                k[c] += 1
                in_flight[c] = (packet, t_c)
                triggers.append((c, t, t_c, gs[c]))

    for i in range(1, S + 1):
        t_i = times[i]
        state = deliver_due(state, t_i, strictly_before=True)
        if t_i > state.t:
            state = propagate(state, plant, t_i - state.t)
        samples.append(state)  # left limit: before any delivery at exactly t_i
        state = deliver_due(state, t_i, strictly_before=False)
        fire_eligible(state)
    return times, samples, triggers, receptions


class TestEngineAgainstReference:
    def compare(self, plant, cfg, seeds, horizon, step, x0, xhat0):
        models = [UniformDelay(gamma=cfg.gamma, seed=s) for s in seeds]
        trace = run_vector(plant, cfg, models, horizon, step, x0=x0, xhat0=xhat0)
        times, samples, triggers, receptions = reference_run(
            plant, cfg, models, horizon, step, x0, xhat0
        )
        assert np.array_equal(trace.times, times)
        ref_x = np.array([s.x for s in samples])
        ref_z = np.array([s.z for s in samples])
        np.testing.assert_allclose(trace.x, ref_x, rtol=1e-8, atol=1e-11)
        np.testing.assert_allclose(trace.z, ref_z, rtol=1e-8, atol=1e-11)
        got_triggers = [(e.coord, e.t_s, e.t_c, e.g) for e in trace.triggers()]
        assert got_triggers == triggers
        got_rx = [(e.coord, e.t_s, e.t_c) for e in trace.receptions()]
        assert got_rx == [(c, ts, tc) for c, ts, tc, _, _, _ in receptions]
        for e, (_, _, _, q, zbar, post) in zip(trace.receptions(), receptions):
            assert e.q == pytest.approx(q, rel=1e-12, abs=1e-15)
            assert e.zbar == pytest.approx(zbar, rel=1e-10, abs=1e-14)
            # the post-jump residual is a near-cancellation of z and zbar, so
            # trajectory-level float drift is amplified relative to it
            assert e.post_jump == pytest.approx(post, rel=1e-6, abs=1e-11)

    def test_scalar_run_matches(self):
        plant = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
        cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)
        self.compare(plant, cfg, [(7, 0)], 3.0, 0.001, [0.2], [0.1])

    def test_busy_scalar_run_matches(self):
        plant = JordanPlant.scalar(A=2.0, B=1.0, K=5.0)
        cfg = TriggerConfig(v0=0.5, sigma=1.5, rho0=0.3, gamma=0.15)
        self.compare(plant, cfg, [(3,)], 4.0, 0.002, [0.3], [0.0])

    def test_jordan_block_run_matches(self):
        plant = JordanPlant(blocks=((1.0, 2),), B=np.eye(2), K=3 * np.eye(2))
        cfg = TriggerConfig(v0=((0.5, 0.6),), sigma=1.0, rho0=0.5, gamma=0.1,
                            rho_ladders=((0.25, 0.5),))
        self.compare(plant, cfg, [(5, 0), (5, 1)], 3.0, 0.002, [0.3, 0.4], [0.0, 0.0])

    def test_vector_dense_plant_matches(self):
        # the benchmark's dense plant: two blocks, multi-bit packets, events every few ms
        plant = JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3), K=15.0 * np.eye(3))
        cfg = TriggerConfig(v0=((0.5, 0.6), (0.5,)), sigma=2.0, rho0=0.5, gamma=0.05)
        self.compare(plant, cfg, [(1, c) for c in range(3)], 0.5, 1e-4,
                     [0.1, 0.1, 0.1], [0.0, 0.0, 0.0])

    def test_non_normal_closed_loop_matches(self):
        # a full, non-triangular K couples every estimate coordinate: A - BK is non-normal
        K = np.array([[6.0, 2.0, -1.0], [3.0, 5.0, 2.0], [-2.0, 1.0, 7.0]])
        plant = JordanPlant(blocks=((1.0, 2), (2.0, 1)), B=np.eye(3), K=K)
        cfg = TriggerConfig(v0=((0.5, 0.6), (0.5,)), sigma=1.0, rho0=0.5, gamma=0.1)
        self.compare(plant, cfg, [(9, c) for c in range(3)], 3.0, 0.001,
                     [0.3, 0.4, 0.2], [0.0, 0.0, 0.0])
