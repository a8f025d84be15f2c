import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from etcsim import bounds as bnd
from etcsim import sim
from etcsim.bounds import phase_curves
from etcsim.channel import ConstantDelay, ReplayDelay, UniformDelay
from etcsim.errors import ConfigurationError, DivergenceError, PreconditionError
from etcsim.model import OVERFLOW_LIMIT, JordanPlant, TriggerConfig, block_matexp, expm
from etcsim.sim import (
    measure_rates,
    run_vector,
    sweep_gamma,
    validate_trace,
)

FIG7_PLANT = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
FIG7_CFG = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)


def fig7_run(horizon=3.0, step=0.001, seed=(7, 0), **kw):
    return run_vector(
        FIG7_PLANT, FIG7_CFG, UniformDelay(gamma=1.2, seed=seed),
        horizon, step, x0=0.2, xhat0=0.1, **kw,
    )


class TestRunScalar:
    def test_invariants_hold(self):
        trace = fig7_run()
        val = validate_trace(trace)
        assert val.ok, val.violations
        assert all(val.checks.values())

    def test_event_log_consistency(self):
        trace = fig7_run(horizon=5.0)
        triggers = trace.triggers()
        receptions = trace.receptions()
        assert triggers, "expected at least one event"
        # time-ordered log, receptions pair with triggers, delays within bound
        times = [e.t for e in trace.events]
        assert times == sorted(times)
        by_ts = {e.t_s: e for e in triggers}
        for r in receptions:
            assert r.t_s in by_ts
            assert 0.0 <= r.delta <= FIG7_CFG.gamma
            assert r.g == by_ts[r.t_s].g
        assert int(trace.trigger_counts[0]) == len(triggers)
        assert int(trace.bits_sent[0]) == sum(e.g for e in triggers)

    def test_packet_size_follows_sufficient_rule(self):
        trace = fig7_run(horizon=1.5)
        inp = bnd.BoundInputs.scalar(1.0, 0.1, 0.1, gamma=1.2, b=1.0001, nu=2.0)
        assert trace.g == (bnd.packet_size_sufficient(inp),) == (7,)

    def test_zero_initial_error_never_triggers(self):
        trace = run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(0.1, gamma=1.2),
                           2.0, 0.001, x0=0.15, xhat0=0.15)
        assert trace.events == []
        assert np.all(np.abs(trace.z) < 1e-15)

    def test_initial_error_precondition(self):
        dm = ConstantDelay(0.0, gamma=1.2)
        with pytest.raises(PreconditionError):
            run_vector(FIG7_PLANT, FIG7_CFG, dm, 1.0, 0.001, x0=0.5, xhat0=0.1)
        with pytest.raises(PreconditionError):
            run_vector(FIG7_PLANT, FIG7_CFG, [dm], 1.0, 0.001, x0=[0.5], xhat0=[0.1])

    @pytest.mark.parametrize("g", [0, -1])
    def test_packet_size_below_one_refused(self, g):
        # x0 = xhat0 never triggers, so only an up-front check can refuse g
        dm = ConstantDelay(0.0, gamma=1.2)
        with pytest.raises(PreconditionError, match="packet size must be >= 1 bit"):
            run_vector(FIG7_PLANT, FIG7_CFG, dm, 1.0, 0.001, x0=0.15, xhat0=0.15, g=g)

    def test_initial_error_at_trigger_level_runs(self):
        cfg = TriggerConfig(v0=0.25, sigma=0.1, rho0=0.1, gamma=1.2)
        dm = UniformDelay(gamma=1.2, seed=(3, 0))
        a = run_vector(FIG7_PLANT, cfg, dm, 1.0, 0.001, x0=0.25, xhat0=0.0)
        b = run_vector(FIG7_PLANT, cfg, [dm], 1.0, 0.001, x0=[0.25], xhat0=[0.0])
        assert a.triggers() and a.events == b.events

    def test_zero_delay_sign_bit_exactness(self):
        cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=0.0)
        trace = run_vector(FIG7_PLANT, cfg, ConstantDelay(0.0, gamma=0.0),
                           3.0, 0.001, x0=0.2, xhat0=0.1, refine=True)
        receptions = trace.receptions()
        assert receptions
        for e in receptions:
            assert e.g == 1
            assert e.post_jump <= 1e-12
            assert e.delta == 0.0

    def test_determinism(self):
        a = fig7_run(seed=(123, 0))
        b = fig7_run(seed=(123, 0))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.xhat, b.xhat)
        assert a.events == b.events
        c = fig7_run(seed=(124, 0))
        assert a.events != c.events

    def test_divergence_partial_trace(self):
        plant = JordanPlant.scalar(A=2.0, B=0.0, K=0.0)  # no actuation, open loop
        cfg = TriggerConfig(v0=2e11, sigma=0.1, rho0=0.1, gamma=0.0)
        with pytest.raises(DivergenceError) as exc:
            run_vector(plant, cfg, ConstantDelay(0.0, gamma=0.0),
                       10.0, 0.01, x0=1e11, xhat0=1e9)
        trace = exc.value.trace
        assert trace is not None and trace.diverged
        assert trace.times.size < 1001
        assert np.all(np.isfinite(trace.x))

    def test_refine_mode_tightens_trigger_instants(self):
        grid = fig7_run(horizon=2.0)
        fine = fig7_run(horizon=2.0, refine=True)
        tg = [e.t_s for e in grid.triggers()]
        tf = [e.t_s for e in fine.triggers()]
        assert len(tg) == len(tf)
        for a, b in zip(tf, tg):
            assert a <= b <= a + 2 * grid.step
        rx_times = [e.t_c for e in fine.receptions()]
        for e in fine.triggers():
            # refined instants sit exactly on the threshold crossing; rebuild
            # |z(t_s)| from the last sample before it, skipping any trigger
            # with a jump inside that window
            i = int(np.searchsorted(fine.times, e.t_s, side="left")) - 1
            if any(fine.times[i] < t <= e.t_s for t in rx_times):
                continue
            z_at = fine.z[i, 0] * math.exp(1.0 * (e.t_s - fine.times[i]))
            v_at = 0.2671 * math.exp(-0.1 * e.t_s)
            assert abs(abs(z_at) - v_at) <= 1e-11
        val = validate_trace(fine)
        assert val.ok, val.violations

    def test_replay_exhaustion_surfaces(self):
        model = ReplayDelay(delays=(0.2,), gamma=1.2)
        with pytest.raises(ConfigurationError, match="exhausted"):
            run_vector(FIG7_PLANT, FIG7_CFG, model, 7.0, 0.001, x0=0.2, xhat0=0.1)


class TestStabilization:
    def test_state_contracts_over_full_horizon(self):
        # A - B*K = -0.6 is Hurwitz and the error envelope decays, so the
        # state norm must shrink across the run
        trace = fig7_run(horizon=7.0, step=0.0002)
        assert abs(trace.x[-1, 0]) < abs(trace.x[0, 0])
        # envelope scale: v0 * e^{(A+sigma)*gamma} just below one
        assert 0.2671 * math.exp(1.1 * 1.2) == pytest.approx(1.0, abs=2e-4)
        assert np.max(np.abs(trace.z)) <= 1.0

    def test_estimate_tracks_state_at_receptions(self):
        trace = fig7_run(horizon=5.0)
        idx = np.searchsorted(trace.times, [e.t_c for e in trace.receptions()])
        for i in idx:
            i = min(int(i), trace.times.size - 1)
            gap_before = abs(trace.z[i - 1, 0])
            gap_after = abs(trace.z[min(i + 1, trace.times.size - 1), 0])
            assert gap_after < gap_before


class TestMeasureRates:
    def test_empty_run(self):
        trace = run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(0.0, gamma=1.2),
                           1.0, 0.001, x0=0.15, xhat0=0.15)
        rep = measure_rates(trace)
        assert rep.rate_empirical == 0.0
        assert rep.trigger_rate_empirical == 0.0

    def test_exact_arithmetic(self):
        trace = fig7_run(horizon=5.0)
        rep = measure_rates(trace)
        N = len(trace.triggers())
        assert rep.trigger_count == N
        assert rep.rate_empirical == pytest.approx(N * 7 / trace.horizon, rel=1e-12)
        assert rep.bounds.access_rate == pytest.approx(1.1 / math.log(2), rel=1e-12)
        assert rep.bounds.gamma_c is not None

    def test_trigger_rate_under_cap(self):
        trace = fig7_run(horizon=6.0)
        rep = measure_rates(trace)
        cap = rep.bounds.triggering_rate_upper
        assert rep.trigger_rate_empirical <= cap * 1.01 + 1.0 / trace.horizon

    def test_per_coordinate_breakdown(self):
        plant2 = JordanPlant(blocks=((1.0, 1), (1.0, 1)),
                             B=np.diag([0.2, 0.2]), K=np.diag([8.0, 8.0]))
        models = [UniformDelay(gamma=1.2, seed=(99, c)) for c in range(2)]
        trace = run_vector(plant2, FIG7_CFG, models, 5.0, 0.001,
                           x0=[0.2, 0.15], xhat0=[0.1, 0.05])
        rep = measure_rates(trace)
        assert len(rep.per_coord_bits) == 2
        assert sum(rep.per_coord_bits) == rep.total_bits
        assert sum(rep.per_coord_triggers) == rep.trigger_count
        for c in range(2):
            assert rep.per_coord_rate[c] == pytest.approx(
                rep.per_coord_bits[c] / trace.horizon
            )


class TestRunVector:
    def make_jordan(self):
        return JordanPlant(blocks=((1.0, 2),), B=np.eye(2), K=3 * np.eye(2))

    def make_cfg(self):
        return TriggerConfig(v0=((0.5, 0.6),), sigma=1.0, rho0=0.5, gamma=0.1,
                             rho_ladders=((0.25, 0.5),))

    def test_single_block_bit_identical_to_scalar(self):
        dm = UniformDelay(gamma=1.2, seed=(42, 0))
        for refine in (False, True):
            a = run_vector(FIG7_PLANT, FIG7_CFG, dm, 3.0, 0.001, x0=0.2, xhat0=0.1,
                           refine=refine)
            b = run_vector(FIG7_PLANT, FIG7_CFG, [dm], 3.0, 0.001,
                           x0=[0.2], xhat0=[0.1], refine=refine)
            for name in ("times", "x", "xhat", "z", "v"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a.events and a.events == b.events

    def test_diagonal_blocks_sum_of_scalar_runs(self):
        plant2 = JordanPlant(blocks=((1.0, 1), (1.0, 1)),
                             B=np.diag([0.2, 0.2]), K=np.diag([8.0, 8.0]))
        models = [UniformDelay(gamma=1.2, seed=(99, c)) for c in range(2)]
        both = run_vector(plant2, FIG7_CFG, models, 3.0, 0.001,
                          x0=[0.2, 0.15], xhat0=[0.1, 0.05])
        solo = [
            run_vector(FIG7_PLANT, FIG7_CFG, models[c], 3.0, 0.001,
                       x0=[0.2, 0.15][c], xhat0=[0.1, 0.05][c])
            for c in range(2)
        ]
        for c in range(2):
            assert both.bits_sent[c] == solo[c].bits_sent[0]
            assert [e.t_s for e in both.triggers() if e.coord == c] == [
                e.t_s for e in solo[c].triggers()
            ]
        assert both.bits_sent.sum() == sum(s.bits_sent.sum() for s in solo)

    def test_jordan_block_envelopes(self):
        plant, cfg = self.make_jordan(), self.make_cfg()
        models = [UniformDelay(gamma=0.1, seed=(5, c)) for c in range(2)]
        trace = run_vector(plant, cfg, models, 5.0, 0.001, x0=[0.3, 0.4], xhat0=[0.0, 0.0])
        val = validate_trace(trace)
        assert val.ok, val.violations
        E = math.exp((1.0 + 1.0) * 0.1)
        env_consts = [(0.5 - 0.25) + E, E]
        v0s = [0.5, 0.6]
        for c in range(2):
            env = v0s[c] * env_consts[c] * np.exp(-1.0 * trace.times)
            slack = 2 * trace.step * 2.0 * np.max(np.abs(trace.z[:, c]))
            assert np.all(np.abs(trace.z[:, c]) <= env + slack + 1e-12)

    def test_cascade_violation_refuses_to_run(self):
        plant = self.make_jordan()
        cfg = TriggerConfig(v0=((0.5, 2.0),), sigma=1.0, rho0=0.5, gamma=0.1,
                            rho_ladders=((0.25, 0.5),))
        with pytest.raises(ConfigurationError, match="coupling cap"):
            run_vector(plant, cfg, UniformDelay(gamma=0.1, seed=(1,)), 1.0, 0.001,
                       x0=[0.1, 0.1], xhat0=[0.0, 0.0])

    def test_disabled_coupling_channel_breaks_envelope(self):
        # starving the chain-end coordinate of service must eventually push the
        # driven coordinate past its decay envelope
        plant, cfg = self.make_jordan(), self.make_cfg()
        models = [UniformDelay(gamma=0.1, seed=(5, 0)), None]
        trace = run_vector(plant, cfg, models, 5.0, 0.001, x0=[0.3, 0.4], xhat0=[0.0, 0.0])
        val = validate_trace(trace)
        assert not val.checks["decay_envelope"]
        assert all(e.coord == 0 for e in trace.triggers())

    def test_initial_error_bound(self):
        plant, cfg = self.make_jordan(), self.make_cfg()
        with pytest.raises(PreconditionError):
            run_vector(plant, cfg, UniformDelay(gamma=0.1, seed=(1,)), 1.0, 0.001,
                       x0=[0.3, 0.7], xhat0=[0.0, 0.0])

    def test_third_order_block_both_modes(self):
        # deep chain: the middle coordinate is both driven and serving, and
        # coupled coordinates may retrigger faster than the chain-end floor
        lam, sigma, gamma, rho0 = 0.8, 1.0, 0.08, 0.6
        ladder = (0.2, 0.4, 0.6)
        v01 = 0.5
        caps1 = bnd.v0_cascade_bound((lam, 3), v0=(v01, 1.0, 1.0), rho=ladder,
                                     sigma=sigma, rho0=rho0, gamma=gamma)
        v02 = 0.9 * caps1.upper[0]
        caps2 = bnd.v0_cascade_bound((lam, 3), v0=(v01, v02, 1.0), rho=ladder,
                                     sigma=sigma, rho0=rho0, gamma=gamma)
        v03 = 0.9 * caps2.upper[1]
        plant = JordanPlant(blocks=((lam, 3),), B=np.eye(3), K=2.5 * np.eye(3))
        cfg = TriggerConfig(v0=((v01, v02, v03),), sigma=sigma, rho0=rho0,
                            gamma=gamma, rho_ladders=(ladder,))
        x0 = np.array([0.3 * v01, 0.5 * v02, 0.5 * v03])
        models = [UniformDelay(gamma=gamma, seed=(9, c)) for c in range(3)]
        counts = []
        for refine in (False, True):
            trace = run_vector(plant, cfg, models, 6.0, 0.0005,
                               x0=x0, xhat0=np.zeros(3), refine=refine)
            val = validate_trace(trace)
            assert val.ok, val.violations
            assert not np.any(np.isnan(trace.z))
            counts.append(trace.trigger_counts.tolist())
            scalar_floor = (sigma * gamma - math.log(rho0)) / (lam + sigma)
            ts0 = [e.t_s for e in trace.triggers() if e.coord == 0]
            assert min(b - a for a, b in zip(ts0, ts0[1:])) < scalar_floor
        assert counts[0] == counts[1]

    def test_adversarial_delay_run(self):
        from etcsim.channel import AdversarialDelay

        plant = JordanPlant.scalar(A=2.0, B=1.0, K=5.0)
        cfg = TriggerConfig(v0=0.5, sigma=1.5, rho0=0.3, gamma=0.15)
        with pytest.warns(UserWarning):
            model = AdversarialDelay.from_params(2.0, 1.5, 0.3, 0.15)
        trace = run_vector(plant, cfg, model, 6.0, 0.0005, x0=0.3, xhat0=0.0)
        val = validate_trace(trace)
        assert val.ok, val.violations
        assert all(e.delta == pytest.approx(0.15) for e in trace.receptions())

    def test_grid_coincident_deliveries(self):
        # power-of-two step and delay: every delivery lands exactly on a grid
        # instant, exercising the reception-then-trigger ordering path
        plant = JordanPlant.scalar(A=2.0, B=1.0, K=5.0)
        cfg = TriggerConfig(v0=0.5, sigma=1.5, rho0=0.3, gamma=0.25)
        trace = run_vector(plant, cfg, ConstantDelay(0.125, gamma=0.25),
                           6.0, 0.0078125, x0=0.3, xhat0=0.0)
        val = validate_trace(trace)
        assert val.ok, val.violations
        assert not np.any(np.isnan(trace.z))
        on_grid = [e for e in trace.receptions() if (e.t_c / 0.0078125) % 1 == 0]
        assert len(on_grid) == len(trace.receptions()) > 0


VECTOR_PLANT = JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3), K=15.0 * np.eye(3))
VECTOR_CFG = TriggerConfig(v0=((0.5, 0.6), (0.5,)), sigma=2.0, rho0=0.5, gamma=0.05)


OPEN_LOOP_PLANT = JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3), K=np.zeros((3, 3)))
NON_NORMAL_PLANT = JordanPlant(blocks=((1.0, 2), (2.0, 1)), B=np.eye(3),
                               K=[[6.0, 2.0, -1.0], [3.0, 5.0, 2.0], [-2.0, 1.0, 7.0]])


def _engine(plant, cfg, step):
    n = plant.n
    return sim._Engine(plant, cfg, [None] * n, 1.0, step, np.zeros(n), np.zeros(n),
                       False, None, 2.0)


class TestFlow:
    @pytest.mark.parametrize("plant, h", [
        (VECTOR_PLANT, 1e-4),
        (NON_NORMAL_PLANT, 1e-3),
        (NON_NORMAL_PLANT, 0.045),  # theta = ||Acl||_1 h = 0.45, near the fallback
    ], ids=["vector_dense", "non_normal", "non_normal_theta_0.45"])
    def test_matches_scipy_expm_within_a_step(self, plant, h):
        eng = _engine(plant, VECTOR_CFG, h)
        assert eng._taylor is not None
        rng = np.random.default_rng(17)
        for dt in [0.0, h / 3, h, *rng.uniform(0.0, h, 20)]:
            v = rng.uniform(-1.0, 1.0, plant.n)
            want = scipy.linalg.expm(eng.acl * dt) @ v
            got = eng._flow(dt, v)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), dt

    @pytest.mark.parametrize("plant, cfg, h", [
        (FIG7_PLANT, FIG7_CFG, 1e-3),
        (JordanPlant(blocks=((1.0, 1), (2.0, 1)), B=np.eye(2), K=np.diag([4.0, 5.0])),
         TriggerConfig(v0=0.5, sigma=1.0, rho0=0.5, gamma=0.05), 1e-3),
        (VECTOR_PLANT, VECTOR_CFG, 0.05),  # theta = 0.55: a stiff step keeps the Pade
    ], ids=["scalar", "diagonal_two_blocks", "stiff"])
    def test_falls_back_to_expm_bit_for_bit(self, plant, cfg, h):
        eng = _engine(plant, cfg, h)
        assert eng._taylor is None
        rng = np.random.default_rng(18)
        for dt in [0.0, h / 3, h, *rng.uniform(0.0, h, 5)]:
            v = rng.uniform(-1.0, 1.0, plant.n)
            assert np.array_equal(eng._flow(dt, v), expm(eng.acl * dt) @ v), dt

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    def test_offsets_stay_within_one_step(self, refine):
        # the table's degree is chosen for offsets up to h: every caller stays inside
        offsets = []

        class Recording(sim._Engine):
            def _flow(self, dt, v):
                offsets.append(dt)
                return super()._flow(dt, v)

        h = 1e-4
        models = [UniformDelay(gamma=0.05, seed=(4, c)) for c in range(3)]
        Recording(VECTOR_PLANT, VECTOR_CFG, models, 1.0, h, np.full(3, 0.1), np.zeros(3),
                  refine, None, 2.0).run()
        assert len(offsets) > 20
        assert 0.0 <= min(offsets) and max(offsets) <= h * (1.0 + 1e-12)


class _FullScanEngine(sim._Engine):
    """Oracle: detection evaluates every sample of the chunk in one scan."""

    def _scan(self, t, z, i0, i1):
        idle = np.array([self.channel.admit(c) for c in range(self.n)]) & self.enabled
        zmat = self._z_at_offsets(z, self._times[i0 : i1 + 1] - t, out=self._Z[:, i0 : i1 + 1])
        eligible = (np.abs(zmat) >= self._V[:, i0 : i1 + 1]) & idle[:, None]
        hits = eligible.any(axis=0)
        if not hits.any():
            return None
        j = int(np.argmax(hits))
        return i0 + j, eligible[:, j]


class TestEnginePaths:
    @pytest.mark.parametrize("plant, cfg, xhat_anchor", [
        (VECTOR_PLANT, VECTOR_CFG, [0.3, -0.2, 0.1]),
        (FIG7_PLANT, FIG7_CFG, [0.3]),
    ], ids=["three_coordinates", "scalar"])
    def test_commit_matches_expm_from_off_grid_anchor(self, plant, cfg, xhat_anchor):
        h = 1e-4
        n = plant.n
        eng = sim._Engine(plant, cfg, [None] * n, 0.1, h, np.zeros(n), np.zeros(n),
                          False, None, 2.0)
        eng.run()  # allocates the trace arrays and the powers of Phi(h)
        i0 = 101
        i1 = i0 + 2 * sim._POWER_BLOCK + 37
        t_anchor = eng._times[i0 - 1] + 0.37 * h  # off-grid, as after a reception
        xhat_anchor = np.array(xhat_anchor)
        eng._Z[:, i0 : i1 + 1] = 0.0  # the error columns _scan would have written
        out = eng._commit(t_anchor, xhat_anchor, i0, i1)
        for i in range(i0, i1 + 1):
            want = scipy.linalg.expm(plant.closed_loop_matrix() * (eng._times[i] - t_anchor))
            want = want @ xhat_anchor
            assert np.max(np.abs(eng._XH[i] - want)) <= 1e-12 * np.max(np.abs(want)), i
        assert np.array_equal(out, eng._XH[i1])
        x = eng._trace(i1 + 1, diverged=False).x
        assert np.array_equal(x[i0 : i1 + 1], eng._XH[i0 : i1 + 1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_z_at_offsets_matches_block_exponentials(self, seed):
        plant = JordanPlant(blocks=((0.7, 1), (1.3, 2), (2.1, 3)), B=np.eye(6), K=3.0 * np.eye(6))
        cfg = TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.05)
        eng = sim._Engine(plant, cfg, [None] * 6, 0.1, 1e-3, np.zeros(6), np.zeros(6),
                          False, None, 2.0)
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.0, 1.0, 6)
        offsets = np.concatenate(([0.0, 1e-4], np.sort(rng.uniform(0.0, 3.0, 7)), [5.0]))
        got = eng._z_at_offsets(z, offsets)
        assert got.shape == (6, offsets.size)
        for j, s in enumerate(offsets):
            want = np.concatenate([block_matexp(lam, p, s) @ z[sl]
                                   for lam, p, sl in plant.block_slices()])
            assert np.max(np.abs(got[:, j] - want)) <= 1e-14 * np.max(np.abs(want)), j

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf,
        np.nextafter(OVERFLOW_LIMIT, math.inf), -np.nextafter(OVERFLOW_LIMIT, math.inf),
    ], ids=["nan", "inf", "-inf", "above_limit", "below_minus_limit"])
    def test_check_overflow_refuses_with_partial_trace(self, bad):
        eng = sim._Engine(VECTOR_PLANT, VECTOR_CFG, [None] * 3, 0.1, 1e-3, np.zeros(3),
                          np.zeros(3), False, None, 2.0)
        eng.run()  # allocates the trace arrays the partial trace is cut from
        with pytest.raises(DivergenceError) as exc:
            eng._check_overflow(np.array([0.1, bad, -0.2]), 0.05, 51)
        assert exc.value.trace.diverged
        assert exc.value.trace.times.shape == (51,) and exc.value.trace.x.shape == (51, 3)

    def test_check_overflow_admits_the_limit(self):
        eng = sim._Engine(VECTOR_PLANT, VECTOR_CFG, [None] * 3, 0.1, 1e-3, np.zeros(3),
                          np.zeros(3), False, None, 2.0)
        eng.run()
        eng._check_overflow(np.array([OVERFLOW_LIMIT, -OVERFLOW_LIMIT, 0.0]), 0.05, 51)

    def test_trace_cap_counts_times(self):
        # 3e7 samples of one coordinate: 0.96 GB in x/xhat/z/v, 1.2 GB with times
        with pytest.raises(PreconditionError) as exc:
            sim._Engine(FIG7_PLANT, FIG7_CFG, [None], 29_999_999.0, 1.0, [0.0], [0.0],
                        False, None, 2.0)
        assert str(exc.value) == (
            "horizon/step = 3e+07 samples need a 1.2e+09-byte trace (5 float64 columns: "
            "times, and x, xhat, z and v of each coordinate), over the 1073741824-byte limit"
        )

    @staticmethod
    def _runs(plant, cfg, models, horizon, step, x0, xhat0, refine):
        args = (plant, cfg, models, horizon, step, np.asarray(x0, float),
                np.asarray(xhat0, float), refine, None, 2.0)
        return sim._Engine(*args).run(), _FullScanEngine(*args).run()

    @staticmethod
    def _assert_same(windowed, full):
        assert windowed.events and windowed.events == full.events
        for name in ("times", "x", "xhat", "z", "v"):
            assert np.array_equal(getattr(windowed, name), getattr(full, name)), name

    def _first_hit_case(self, refine, first_hit):
        # z = z0 e^{t} meets v = e^{-t} halfway between samples first_hit - 1 and first_hit
        h = 1e-3
        plant = JordanPlant.scalar(A=1.0, B=1.0, K=3.0)
        cfg = TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.1)
        z0 = math.exp(-2.0 * h * (first_hit - 0.5))
        horizon = h * max(2000, 2 * first_hit)  # the hit, and at least as many samples after it
        windowed, full = self._runs(plant, cfg, [ConstantDelay(0.05, 0.1)],
                                    horizon, h, [z0], [0.0], refine)
        t_first = windowed.events[0].t
        if refine:
            assert (first_hit - 1) * h < t_first < first_hit * h
        else:
            assert t_first == windowed.times[first_hit]
        self._assert_same(windowed, full)

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    @pytest.mark.parametrize("first_hit", [
        64,  # last sample of the first window
        65,  # first sample of the second window
        3 * 64 + 100,  # inside the third window
    ])
    def test_windowed_detection_matches_full_chunk_scan(self, monkeypatch, refine, first_hit):
        monkeypatch.setattr(sim, "_DETECT_WINDOW", 64)
        self._first_hit_case(refine, first_hit)

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    @pytest.mark.parametrize("first_hit", [
        sim._DETECT_WINDOW,
        sim._DETECT_WINDOW + 1,
        3 * sim._DETECT_WINDOW + 100,
    ], ids=["last_of_first", "first_of_second", "inside_third"])
    def test_default_windows_match_full_chunk_scan(self, refine, first_hit):
        self._first_hit_case(refine, first_hit)

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    def test_windowed_detection_matches_full_chunk_scan_vector(self, refine):
        models = [UniformDelay(gamma=0.05, seed=(3, 0, c)) for c in range(3)]
        self._assert_same(*self._runs(VECTOR_PLANT, VECTOR_CFG, models, 1.0, 1e-4,
                                      [0.1, 0.1, 0.1], [0.0, 0.0, 0.0], refine))

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    @pytest.mark.parametrize("plant, x0, xhat0, diverges", [
        (VECTOR_PLANT, [0.1] * 3, [0.0] * 3, False),
        (OPEN_LOOP_PLANT, [1e10 + 0.1] * 3, [1e10] * 3, True),
    ], ids=["finished", "diverged"])
    def test_detection_window_never_changes_the_trace(self, monkeypatch, refine, plant, x0,
                                                      xhat0, diverges):
        traces = []
        for window in (1, 7, sim._DETECT_WINDOW):
            monkeypatch.setattr(sim, "_DETECT_WINDOW", window)
            models = [UniformDelay(gamma=0.05, seed=(5, c)) for c in range(3)]
            try:
                trace = run_vector(plant, VECTOR_CFG, models, 0.5, 1e-4, x0=x0, xhat0=xhat0,
                                   refine=refine)
            except DivergenceError as err:
                trace = err.trace
            assert trace.diverged == diverges
            for name in ("times", "x", "xhat", "z", "v"):
                assert not np.isnan(getattr(trace, name)).any(), (window, name)
            traces.append(trace)
        if diverges:
            assert traces[0].times.size < 5001
        for trace in traces[1:]:
            self._assert_same(trace, traces[0])


class TestValidateTrace:
    def test_violation_text(self):
        # coords 0 and 2 leave their envelopes, coords 0 and 1 fire twice at one instant
        models = [UniformDelay(gamma=0.05, seed=(5, c)) for c in range(3)]
        trace = run_vector(VECTOR_PLANT, VECTOR_CFG, models, 0.5, 1e-4,
                           x0=[0.1] * 3, xhat0=[0.0] * 3)
        assert validate_trace(trace).ok
        z = trace.z * [3.0, 1.0, 3.0]
        events = list(trace.events)
        for c in (0, 1):
            i = next(i for i, e in enumerate(events) if e.kind == "trigger" and e.coord == c)
            events.insert(i + 1, events[i])
        val = validate_trace(replace(trace, z=z, events=events))
        assert not val.ok
        assert val.checks == {
            "delays_in_bound": True, "post_jump_contract": True, "decay_envelope": False,
            "no_zeno": False, "trigger_rate_cap": True,
        }
        assert val.violations == [
            "envelope exceeded on coord 0 at t=0.1292: |z|=0.646318 > 0.644499",
            "envelope exceeded on coord 2 at t=0.093: |z|=0.760353 > 0.756429",
            "inter-event time 0 below 0.056801 - 2h on coord 0",
            "inter-event time 0 below 0.113307 - 2h on coord 1",
        ]


class TestSweep:
    FIG8_PLANT = JordanPlant.scalar(A=2.4, B=1.0, K=8.0)
    FIG8_CFG = TriggerConfig(v0=0.0442, sigma=0.2, rho0=0.1, gamma=1.0, b=1.0001)

    def factory(self, seed):
        def make(gamma, row, coord):
            return UniformDelay(gamma=gamma, seed=(seed, row, coord))
        return make

    def test_rows_and_determinism(self):
        grid = [0.0005, 0.5, 1.0]
        a = sweep_gamma(self.FIG8_PLANT, self.FIG8_CFG, grid, 2.0, 0.001,
                        delay_factory=self.factory(1), x0=[0.201], xhat0=[0.2])
        b = sweep_gamma(self.FIG8_PLANT, self.FIG8_CFG, grid, 2.0, 0.001,
                        delay_factory=self.factory(1), x0=[0.201], xhat0=[0.2])
        assert a == b
        assert [r.gamma for r in a] == grid
        assert all(r.error is None for r in a)

    def test_packet_size_monotone_in_gamma(self):
        grid = [0.0005 + 0.2 * i for i in range(11)]
        rows = sweep_gamma(self.FIG8_PLANT, self.FIG8_CFG, grid, 0.5, 0.001,
                           delay_factory=self.factory(3), x0=[0.201], xhat0=[0.2])
        gs = [r.g for r in rows]
        assert all(x <= y for x, y in zip(gs, gs[1:]))

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ConfigurationError):
            sweep_gamma(self.FIG8_PLANT, self.FIG8_CFG, [0.0], 1.0, 0.001,
                        delay_factory=self.factory(1), x0=[0.201], xhat0=[0.2])

    def test_configuration_error_row_recorded_and_sweep_continues(self):
        def replay(gamma, row, coord):
            return ReplayDelay(delays=(0.01,) * 3, gamma=gamma)

        rows = sweep_gamma(self.FIG8_PLANT, self.FIG8_CFG, [0.1, 0.5], 7.0, 0.0002,
                           delay_factory=replay, x0=[0.201], xhat0=[0.2])
        assert "replay sequence exhausted" in rows[0].error
        assert rows[1].error is None and rows[1].invariants_ok

    def test_divergent_row_recorded_and_sweep_continues(self):
        plant = JordanPlant.scalar(A=2.0, B=0.0, K=0.0)
        cfg = TriggerConfig(v0=2e11, sigma=0.1, rho0=0.1, gamma=1.0)
        rows = sweep_gamma(plant, cfg, [0.5, 1.0], 14.0, 0.01,
                           delay_factory=self.factory(1), x0=[1e11], xhat0=[1e9])
        assert all(r.error is not None and "overflow" in r.error for r in rows)
        assert len(rows) == 2


class TestPhaseCurves:
    def test_markers_and_grid(self):
        inp = bnd.BoundInputs.scalar(5.0, 3.0, 0.7, b=1.0001, nu=2.0)
        grid = np.linspace(0.002, 0.4, 100)
        pc = phase_curves(inp, grid)
        assert pc.gamma_c == pytest.approx(0.0864, abs=1e-3)
        assert pc.gamma_eq == pytest.approx(0.1386, abs=1e-3)
        assert pc.access_rate == pytest.approx(11.5416, abs=1e-3)
        # necessary rate is zero up to gamma_c and positive afterwards
        below = [r for g, r in zip(pc.gammas, pc.necessary) if g < pc.gamma_c]
        above = [r for g, r in zip(pc.gammas, pc.necessary) if not g < pc.gamma_c]
        assert len(pc.gammas) == len(pc.necessary) == len(grid)
        assert all(r == 0.0 for r in below)
        assert all(r > 0.0 for r in above[1:])

    def test_mixed_eigenvalues_leave_delay_markers_undefined(self):
        inp = bnd.BoundInputs(blocks=((1.0, 1), (2.0, 1)), sigma=1.0, rho0=0.5, gamma=0.5)
        pc = phase_curves(inp, [0.5, 1.0])
        assert pc.gamma_c is None and pc.gamma_eq is None
        assert pc.asymptote == bnd.rate_asymptote(inp)
        assert list(pc.necessary) == [
            bnd.analytic_bounds(replace(inp, gamma=g)).rate_necessary for g in (0.5, 1.0)
        ]

    def test_sup_over_sigma(self):
        inp = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, b=1.0001, nu=2.0)
        pc = phase_curves(inp, [0.5, 1.0, 2.0], sigma_grid=[0.5, 1.0, 2.0, 4.0])
        assert pc.necessary_sup_sigma is not None
        assert len(pc.necessary_sup_sigma) == len(pc.necessary) == 3
        assert all(s >= n - 1e-12 for s, n in zip(pc.necessary_sup_sigma, pc.necessary))

    def test_approx_at_equilibrium_equals_access(self):
        inp = bnd.BoundInputs.scalar(1.0, 0.5, 0.3, nu=2.0)
        pc = phase_curves(inp, [pc_geq := math.log(2.0)])
        assert pc.necessary_approx[0] == pytest.approx(pc.access_rate, rel=1e-12)

    @pytest.mark.parametrize("inp", [
        bnd.BoundInputs.scalar(1.3, 1.0, 0.9, b=1.0001, nu=2.0),
        bnd.BoundInputs(blocks=((1.2, 2), (1.2, 1)), sigma=0.7, rho0=0.6, gamma=0.0,
                        b=1.05, nu=3.0, rho_ladders=((0.2, 0.6), (0.6,))),
    ], ids=["scalar", "two_blocks_with_ladders"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columns_equal_point_functions_bitwise(self, inp, seed):
        # one walk of the grid equals the bound table at each delay alone, so no state
        # leaks from one grid point to the next; gamma = 0, small delays, and delays
        # past the (sigma + A)*gamma >= 700 branch
        rng = np.random.default_rng(seed)
        gammas = np.concatenate(([0.0], rng.uniform(0.0, 3.0, 12), rng.uniform(400.0, 600.0, 3)))
        sigmas = rng.uniform(0.05, 6.0, 5)
        pc = phase_curves(inp, gammas, sigma_grid=sigmas)
        points = [replace(inp, gamma=float(g)) for g in gammas]
        tables = [bnd.analytic_bounds(at) for at in points]
        expected = {
            "necessary": [t.rate_necessary for t in tables],
            "necessary_approx": [t.rate_necessary_approx for t in tables],
            "sufficient": [t.rate_sufficient for t in tables],
            "necessary_sup_sigma": [
                max(bnd.analytic_bounds(replace(at, sigma=float(s))).rate_necessary for s in sigmas)
                for at in points
            ],
        }
        for name, values in expected.items():
            column = getattr(pc, name)
            assert isinstance(column, tuple), name
            assert list(map(float.hex, column)) == list(map(float.hex, values)), name

    @pytest.mark.parametrize("gammas, sigmas, message", [
        ([0.1, -0.5], None, "gamma must be finite and >= 0, got -0.5"),
        ([math.nan], None, "gamma must be finite and >= 0, got nan"),
        ([0.1, math.inf], [1.0], "gamma must be finite and >= 0, got inf"),
        ([0.1], [1.0, 0.0], "sigma must be positive and finite, got 0.0"),
        ([0.1], [math.nan], "sigma must be positive and finite, got nan"),
        ([0.0, 0.1], [math.inf], "sigma must be positive and finite, got inf"),
    ], ids=["gamma_negative", "gamma_nan", "gamma_inf", "sigma_zero", "sigma_nan", "sigma_inf"])
    def test_bad_grid_value_raises(self, gammas, sigmas, message):
        inp = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, nu=2.0)
        with pytest.raises(ConfigurationError) as exc:
            phase_curves(inp, gammas, sigma_grid=sigmas)
        assert str(exc.value) == message
