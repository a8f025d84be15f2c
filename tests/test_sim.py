import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from etcsim import bounds as bnd
from etcsim import cli, sim
from etcsim.bounds import phase_curves
from etcsim.channel import AdversarialDelay, ConstantDelay, ReplayDelay, UniformDelay
from etcsim.errors import ConfigurationError, DivergenceError, PreconditionError
from etcsim.model import OVERFLOW_LIMIT, JordanPlant, TriggerConfig, block_matexp, expm
from etcsim.sim import (
    measure_rates,
    run_vector,
    validate_trace,
)

FIG7_PLANT = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
FIG7_CFG = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)
FIG6_INPUTS = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, b=1.0001, nu=2.0)
FIG6_SIGMAS = [0.1 + i * 0.1 for i in range(50)]  # fig6's 0.1:0.1:50, as cli._grid builds it
# at gamma = 1.931 the supremum over FIG6_SIGMAS is at sigma = 0.3, an interior point
INTERIOR_INPUTS = bnd.BoundInputs.scalar(3.623, 1.0, 0.654, b=1.0001, nu=2.0)


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
        (co,) = trace.coords
        assert co.g == bnd.analytic_bounds(inp).packet_size_sufficient == 7

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
        with pytest.raises(PreconditionError,
                           match=re.escape(f"packet size must lie in [1, 2100] bits, got {g}")):
            run_vector(FIG7_PLANT, FIG7_CFG, dm, 1.0, 0.001, x0=0.15, xhat0=0.15, g=g)

    def test_timing_bits_at_zero_delay_bound_refused_before_running(self, monkeypatch):
        # a g >= 2 at gamma = 0 used to fail only at the first trigger, so a short run passed
        def never(self):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim._Engine, "run", never)
        cfg = replace(FIG7_CFG, gamma=0.0)
        with pytest.raises(PreconditionError,
                           match=re.escape("packets with timing bits need a positive finite "
                                           "delay bound, got gamma=0.0")):
            run_vector(FIG7_PLANT, cfg, ConstantDelay(0.0, gamma=0.0), 0.001, 0.0002,
                       x0=0.2, xhat0=0.1, g=5)

    @pytest.mark.parametrize("g", [2.5, math.inf, math.nan])
    def test_packet_size_not_an_integer_refused(self, g):
        # 2.5 used to run as 2 bits, inf and nan to end in int()'s traceback
        dm = ConstantDelay(0.0, gamma=1.2)
        with pytest.raises(PreconditionError,
                           match=f"packet size must be an integer number of bits, got {g}"):
            run_vector(FIG7_PLANT, FIG7_CFG, dm, 1.0, 0.001, x0=0.15, xhat0=0.15, g=g)

    @pytest.mark.parametrize("refine", [math.nan, 0.5, 1, "yes"])
    def test_refine_not_a_bool_refused(self, refine):
        # nan and 1 used to run in refine mode, 0.5 to end in a TypeError mid-run
        dm = ConstantDelay(0.1, gamma=1.2)
        with pytest.raises(PreconditionError,
                           match=re.escape(f"refine must be a bool, got {refine!r}")):
            run_vector(FIG7_PLANT, FIG7_CFG, dm, 1.0, 0.001, x0=0.2, xhat0=0.1, refine=refine)

    def test_numpy_bool_refine_is_stored_as_bool(self):
        trace = run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(0.1, gamma=1.2), 1.0, 0.001,
                           x0=0.2, xhat0=0.1, refine=np.True_)
        assert trace.refine is True

    def test_delay_model_count_and_missing_model_refused(self):
        dm = ConstantDelay(0.1, gamma=1.2)
        with pytest.raises(ConfigurationError,
                           match=re.escape("need one delay model per coordinate (1), got 2")):
            run_vector(FIG7_PLANT, FIG7_CFG, [dm, dm], 1.0, 0.001, x0=0.2, xhat0=0.1)
        with pytest.raises(ConfigurationError, match="a delay model is required"):
            run_vector(FIG7_PLANT, FIG7_CFG, None, 1.0, 0.001, x0=0.2, xhat0=0.1)

    @pytest.mark.parametrize("build, coord, kind", [
        (lambda m: [m, 3, m], 1, "int"),
        (lambda m: np.array([m, m, m]), 0, "ndarray"),
        (lambda m: (m for _ in range(3)), 0, "generator"),
    ], ids=["int_entry", "array", "generator"])
    def test_delay_model_without_sample_refused_before_the_first_step(self, build, coord, kind):
        # [m, 3, m] used to run to the end, since coordinate 1 never fired, and an array
        # or a generator, broadcast as one model, to fail mid-run with an AttributeError
        models = build(UniformDelay(0.05, (1,)))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"delay model of coordinate {coord} has no sample method: got {kind}")):
            run_vector(VECTOR_PLANT, VECTOR_CFG, models, 0.2, 1e-4, x0=(0.1,) * 3,
                       xhat0=(0.0,) * 3)

    def test_duck_typed_delay_model_runs(self):
        class Fixed:  # no channel class: a gamma and a sample method are all a run reads
            gamma = 0.05

            def sample(self, k):
                return 0.01

        runs = [run_vector(VECTOR_PLANT, VECTOR_CFG, dm, 0.2, 1e-4, x0=(0.1,) * 3,
                           xhat0=(0.0,) * 3) for dm in (Fixed(), ConstantDelay(0.01, 0.05))]
        assert runs[0].events == runs[1].events != []

    def test_packet_size_refused_before_initial_state(self):
        # bounds.coordinates admits g before the engine reads x0
        with pytest.raises(PreconditionError, match="packet size must lie in"):
            run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(0.1, gamma=1.2), 1.0, 0.001,
                       x0=5.0, xhat0=0.0, g=0)

    def test_delay_above_the_trigger_gamma_refused(self):
        # the model's own bound admits 0.2, the trigger's gamma = 0.1 does not
        cfg = replace(FIG7_CFG, gamma=0.1)
        with pytest.raises(ConfigurationError,
                           match="delay 0.2 exceeds the configured bound gamma=0.1"):
            run_vector(FIG7_PLANT, cfg, ConstantDelay(0.2, gamma=0.2), 3.0, 0.001,
                       x0=0.2, xhat0=0.1)

    def test_initial_error_at_trigger_level_runs(self):
        cfg = TriggerConfig(v0=0.25, sigma=0.1, rho0=0.1, gamma=1.2)
        dm = UniformDelay(gamma=1.2, seed=(3, 0))
        a = run_vector(FIG7_PLANT, cfg, dm, 1.0, 0.001, x0=0.25, xhat0=0.0)
        b = run_vector(FIG7_PLANT, cfg, [dm], 1.0, 0.001, x0=[0.25], xhat0=[0.0])
        assert a.triggers() and a.events == b.events
        assert a.triggers()[0].t_s == 0.001  # grid mode detects from the first sample on
        c = run_vector(FIG7_PLANT, cfg, dm, 1.0, 0.001, x0=0.25, xhat0=0.0, refine=True)
        assert c.triggers()[0].t_s == 0.0  # refine mode fires at the crossing itself

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

    def test_random_designs_keep_every_contract(self):
        # the sufficiency theorem on 200 seeded designs drawn as in ROADMAP item 17: in
        # refine mode, with the sufficient packet size, validate_trace finds no violation;
        # nor in grid mode at half the finest time-quantization tolerance, with no warning
        rng = np.random.default_rng(1917)
        for i in range(200):
            lam, sigma, rho0 = rng.uniform(0.2, 5.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 0.9)
            gamma, b = rng.uniform(0.01, 1.5), rng.uniform(1.0001, 1.5)
            p = int(rng.integers(1, 3))
            v0 = [rng.uniform(0.05, 1.0)]
            if p == 2:  # the chained level under its cascade cap, or the run is refused
                block = bnd.BoundInputs(blocks=((lam, 2),), sigma=sigma, rho0=rho0, gamma=gamma)
                v0.append(bnd.coordinates(block, (v0[0], 0.0))[1].cap * rng.uniform(0.05, 1.0))
            x0 = rng.uniform(-1.0, 1.0, p)
            xhat0 = x0 + np.array(v0) * rng.uniform(-1.0, 1.0, p)
            plant = JordanPlant(blocks=((lam, p),), B=np.eye(p),
                                K=(lam + rng.uniform(0.5, 5.0)) * np.eye(p))
            cfg = TriggerConfig(v0=(tuple(v0),), sigma=sigma, rho0=rho0, gamma=gamma, b=b)
            if i % 2:
                with warnings.catch_warnings():  # beta above gamma is clamped, with a warning
                    warnings.simplefilter("ignore", UserWarning)
                    delays = AdversarialDelay.from_params(lam, sigma, rho0, gamma)
            else:
                seed = int(rng.integers(2**64, dtype=np.uint64))  # fresh u64 seeds, as --seed takes
                delays = [UniformDelay(gamma=gamma, seed=(seed, c)) for c in range(p)]
            trace = run_vector(plant, cfg, delays, 5.0, 1e-3, x0=x0, xhat0=xhat0, refine=True)
            check = validate_trace(trace)
            assert check.ok, (i, check.violations[:1])
            step = min(1e-3, 0.5 * min(co.tolerance for co in trace.coords))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = run_vector(plant, cfg, delays, 5.0, step, x0=x0, xhat0=xhat0)
            check = validate_trace(grid)
            assert check.ok, (i, step, check.violations[:1])


class TestStepTolerance:
    # ROADMAP item 17's failing scalar design: at h = 1e-3, 13.7 times its tolerance,
    # a grid trigger lags its crossing so far that the contract fails in a cascade
    PLANT = JordanPlant.scalar(A=4.023421330248466, B=1.0, K=8.265796292401253)
    CFG = TriggerConfig(v0=0.13890751039046972, sigma=1.3595958862623714,
                        rho0=0.7682696278330945, gamma=1.4081277427198269, b=1.0114066026706126)
    WARNING = ("grid step h=0.001 exceeds the time-quantization tolerance of coordinate 0 "
               "(h/tolerance = 13.7); the largest admissible step is 7.28553e-05: use a "
               "smaller step or --refine")

    def run(self, step, refine=False):
        return run_vector(self.PLANT, self.CFG, UniformDelay(gamma=self.CFG.gamma, seed=(21, 0)),
                          5.0, step, x0=0.19904894610655433, xhat0=0.2656233646547711,
                          refine=refine)

    def test_step_above_tolerance_warns_once_before_the_run(self, monkeypatch):
        started = []  # warnings shown when the run started
        run = sim._Engine.run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monkeypatch.setattr(sim._Engine, "run",
                                lambda eng: started.append(len(caught)) or run(eng))
            trace = self.run(1e-3)
        assert [str(w.message) for w in caught] == [self.WARNING] and started == [1]
        (co,) = trace.coords
        assert co.tolerance == trace.bounds.time_quantization_tolerance
        assert 1e-3 / co.tolerance == pytest.approx(13.7, abs=0.05)
        check = validate_trace(trace)
        assert not check.checks["post_jump_contract"] and not check.ok

    @pytest.mark.parametrize("step, refine", [(1e-5, False), (1e-3, True)],
                             ids=["grid_1e-5", "refine_1e-3"])
    def test_fine_step_and_refine_mode_are_silent_and_clean(self, step, refine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = self.run(step, refine)
        assert validate_trace(trace).ok

    def test_warning_names_the_worst_coordinate_and_the_finest_tolerance(self):
        # two scalar blocks, both above their tolerances at h = 2e-3; a muted third
        # coordinate never fires, so its finer tolerance is not checked
        plant = JordanPlant(blocks=((4.0, 1), (6.0, 1), (9.0, 1)), B=np.eye(3),
                            K=np.diag([6.0, 8.0, 11.0]))
        cfg = TriggerConfig(v0=0.5, sigma=1.0, rho0=0.1, gamma=0.5)
        tol = [co.tolerance for co in bnd.coordinates(cfg.bound_inputs(plant.blocks, 2.0), (0.5,))]
        assert 2e-3 > tol[0] > tol[1] > tol[2]
        with pytest.warns(UserWarning) as caught:
            run_vector(plant, cfg, [ConstantDelay(0.1, gamma=0.5)] * 2 + [None], 0.01, 2e-3,
                       x0=[0.0] * 3, xhat0=[0.0] * 3)
        assert [str(w.message) for w in caught] == [
            f"grid step h=0.002 exceeds the time-quantization tolerance of coordinate 1 and 1 "
            f"more (h/tolerance = {2e-3 / tol[1]:.3g}); the largest admissible step is "
            f"{tol[1]:.6g}: use a smaller step or --refine"
        ]


class TestMeasureRates:
    def test_empty_run(self):
        trace = run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(0.0, gamma=1.2),
                           1.0, 0.001, x0=0.15, xhat0=0.15)
        rep = measure_rates(trace)
        assert rep.rate_empirical == 0.0
        assert rep.trigger_rate_empirical == 0.0
        with pytest.raises(PreconditionError, match="rate measurement needs a positive horizon"):
            measure_rates(replace(trace, horizon=0.0))

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
        block = bnd.BoundInputs(blocks=((lam, 3),), sigma=sigma, rho0=rho0, gamma=gamma,
                                rho_ladders=(ladder,))
        v02 = 0.9 * bnd.coordinates(block, (v01, 0.0, 0.0))[1].cap
        v03 = 0.9 * bnd.coordinates(block, (v01, v02, 0.0))[2].cap
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
        (VECTOR_PLANT, VECTOR_CFG, 0.05),  # theta = 0.55: a stiff step keeps expm's squaring
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
        idle = np.array([self.channel.admit(c) and self.delay_models[c] is not None
                         for c in range(self.n)])
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
                                   for lam, p, sl in eng.block_slices])
            assert np.max(np.abs(got[:, j] - want)) <= 1e-14 * np.max(np.abs(want)), j

    def test_z_at_offsets_equals_the_per_block_formula_bitwise(self):
        # the formula with one exponential per block and a division by every k!, 1 included
        def per_block(eng, z, offsets):
            out = np.empty((eng.n, offsets.size))
            for lam, p, sl in eng.block_slices:
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

        plant = JordanPlant(blocks=((0.7, 1), (13.0, 2), (2.1, 3), (0.35, 4)), B=np.eye(10),
                            K=30.0 * np.eye(10))
        cfg = TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.05)
        h = 1e-4
        eng = sim._Engine(plant, cfg, [None] * 10, 1.0, h, np.zeros(10), np.zeros(10),
                          False, None, 2.0)
        eng.run()  # allocates the trace's sample times
        times = eng._times
        rng = np.random.default_rng(21)
        for width in (1, 7, 2000):
            for lo in (1, 4321, times.size - width):
                for t in (times[lo], times[lo - 1] + 0.37 * h):  # first offset 0, or off-grid
                    z = rng.uniform(-1.0, 1.0, 10)
                    offsets = times[lo : lo + width] - t
                    got, want = eng._z_at_offsets(z, offsets), per_block(eng, z, offsets)
                    assert got.tobytes() == want.tobytes(), (width, lo, t)

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

    @pytest.mark.parametrize("plant, cfg", [(FIG7_PLANT, FIG7_CFG), (VECTOR_PLANT, VECTOR_CFG)],
                             ids=["n1", "n3"])
    def test_check_overflow_at_the_edges(self, plant, cfg):
        n = plant.n
        eng = sim._Engine(plant, cfg, [None] * n, 0.1, 1e-3, np.zeros(n), np.zeros(n),
                          False, None, 2.0)
        eng.run()
        above = np.nextafter(OVERFLOW_LIMIT, math.inf)
        for bad in (math.nan, math.inf, -math.inf, above, -above):
            with pytest.raises(DivergenceError) as exc:
                eng._check_overflow(np.array([0.5] * (n - 1) + [bad]), 0.0375, 38)
            assert str(exc.value) == "state overflow at t=0.0375"
            assert exc.value.trace.diverged and exc.value.trace.times.size == 38
            assert exc.value.trace.x.shape == (38, n)
        for ok in (OVERFLOW_LIMIT, -OVERFLOW_LIMIT, np.nextafter(OVERFLOW_LIMIT, 0.0)):
            eng._check_overflow(np.array([-0.5] * (n - 1) + [ok]), 0.0375, 38)

    @staticmethod
    def _bisect_with_product(eng, c, t_a, z_a, hi):
        """The refine bisection as it was before its row-sum filter, and its
        step count: every step evaluates row i_in of block_matexp(lam, p, mid) @ zb."""
        co = eng.coords[c]
        lam, p, i_in = co.lam, co.order, co.index
        v_a = eng._v_at(c, t_a)
        if abs(z_a[c]) >= v_a:
            return t_a, 0
        zb = z_a[co.start : co.start + p]
        lo_s, hi_s = 0.0, hi
        for step in range(80):
            if t_a + lo_s == t_a + hi_s:
                break
            mid = 0.5 * (lo_s + hi_s)
            zc = (block_matexp(lam, p, mid) @ zb)[i_in]
            if abs(zc) - v_a * math.exp(-eng.sigma * mid) < 0.0:
                lo_s = mid
            else:
                hi_s = mid
        return t_a + hi_s, step

    def test_crossing_equals_the_matrix_product_bisection(self, monkeypatch):
        # blocks of orders 2 and 3: coordinates 0, 2 and 3 are coupled (not chain ends)
        plant = JordanPlant(blocks=((1.3, 2), (2.1, 3)), B=np.eye(5), K=3.0 * np.eye(5))
        cfg = TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.05)
        eng = sim._Engine(plant, cfg, [None] * 5, 0.1, 1e-3, np.zeros(5), np.zeros(5),
                          False, None, 2.0)
        products = []
        monkeypatch.setattr(sim, "block_matexp",
                            lambda *a: products.append(a) or block_matexp(*a))
        rng = np.random.default_rng(20)
        steps = 0
        for k in range(240):
            c = (0, 2, 3)[k % 3]
            t_a = float(rng.uniform(0.0, 3.0))
            hi = float(10.0 ** rng.uniform(-4.0, -1.0))
            v_a = eng._v_at(c, t_a)
            z_a = rng.uniform(-1.0, 1.0, 5) * v_a
            if k % 4 == 0:  # a few ulps below the threshold
                zc = v_a
                for _ in range(1 + k % 5):
                    zc = float(np.nextafter(zc, 0.0))
            else:
                zc = v_a * (1.0 - 10.0 ** rng.uniform(-14.0, -1.0))
            z_a[c] = zc if rng.random() < 0.5 else -zc
            if k % 40 == 1:
                z_a[c - 1 if c == 3 else c + 1] = math.nan  # a non-finite error in the block
            want, n_steps = self._bisect_with_product(eng, c, t_a, z_a.copy(), hi)
            assert eng._crossing(c, t_a, z_a, hi) == want, k
            steps += n_steps
        # the row sum decided most steps, the product the rest
        assert 0 < len(products) < steps / 4

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


class TestTriggerGuards:
    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    def test_retrigger_at_the_delivery_instant(self, monkeypatch, refine):
        # a delay above ln2/(lam+sigma) leaves the post-jump error at or above v, so
        # the delivery re-triggers at its own instant: 6 of the 7 triggers fire there
        fired_in_receive = []
        receive = sim._Engine._receive

        def counting(self, *args):
            before = int(self.trigger_counts.sum())
            receive(self, *args)
            fired_in_receive.append(int(self.trigger_counts.sum()) - before)

        monkeypatch.setattr(sim._Engine, "_receive", counting)
        trace = run_vector(FIG7_PLANT, FIG7_CFG, ConstantDelay(1.0, gamma=1.2), 7.0, 0.0002,
                           x0=0.2, xhat0=0.1, refine=refine, g=1)
        delivered = {e.t for e in trace.receptions()}
        assert len(trace.triggers()) == 7
        assert sum(e.t_s in delivered for e in trace.triggers()) == 6
        assert sum(fired_in_receive) == 6

    def test_one_trigger_per_coordinate_and_instant(self, monkeypatch):
        # zero delays deliver at the trigger instant, and the re-evaluation there finds
        # the error still above v: it skips the coordinate, which fired at that instant
        repeats = []
        fire = sim._Engine._fire

        def counting(self, c, t_s, z):
            repeats.append(self._fired_at[c] == t_s)
            fire(self, c, t_s, z)

        monkeypatch.setattr(sim._Engine, "_fire", counting)
        cfg = TriggerConfig(v0=0.5, sigma=0.1, rho0=0.5, gamma=0.1)
        with pytest.warns(UserWarning, match="grid step h=1 exceeds"):
            trace = run_vector(JordanPlant.scalar(2.0, 1.0, 5.0), cfg, ConstantDelay(0.0, 0.1),
                               10.0, 1.0, x0=0.3, xhat0=0.0, g=1)
        instants = [(e.coord, e.t_s) for e in trace.triggers()]
        assert len(instants) == len(set(instants)) == 10
        assert sum(repeats) == 0  # _fire is never asked to repeat an instant
        # a repeat fails no_zeno though 2h exceeds the spacing floor; a zero gap used to pass
        first = trace.triggers()[0]
        events = list(trace.events)
        events.insert(events.index(first) + 1, first)
        val = validate_trace(replace(trace, events=events))
        assert val.checks["no_zeno"] is False
        assert any(v.startswith("inter-event time 0 below") for v in val.violations)

    def test_refine_zero_delay_retrigger_waits_for_the_next_sample(self, monkeypatch):
        # the zero delays deliver at the trigger instant and leave the error above v; the
        # crossing search then returned that instant forever, where the coordinate had fired
        calls = []
        refine_fire = sim._Engine._refine_fire

        def bounded(self, *args):
            calls.append(None)
            if len(calls) > 10_000:
                raise AssertionError("refine mode keeps re-scanning one instant")
            return refine_fire(self, *args)

        monkeypatch.setattr(sim._Engine, "_refine_fire", bounded)
        cfg = TriggerConfig(v0=0.5, sigma=0.1, rho0=0.5, gamma=1.0)
        trace = run_vector(JordanPlant.scalar(2.0, 1.0, 5.0), cfg,
                           ReplayDelay((1.0,) + (0.0,) * 200, gamma=1.0), 3.0, 1e-3,
                           x0=0.3, xhat0=0.0, g=1, refine=True)
        instants = [e.t_s for e in trace.triggers()]
        assert len(instants) == len(set(instants))
        assert instants[0] == pytest.approx(0.24325, abs=1e-5)
        assert instants[1] == instants[0] + 1.0  # the first delivery re-triggers at once
        # later ones fire once per grid sample, as grid mode does, until the error drops
        assert instants[2:8] == list(trace.times[1244:1250]) and instants[8] > 1.9
        assert not validate_trace(trace).checks["post_jump_contract"]


    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
    def test_sample_at_a_reception_is_its_left_limit(self, refine):
        # zero delays re-trigger at samples: each such sample holds the pre-jump error,
        # so it less the reconstruction is the post-jump error of the first reception there
        cfg = TriggerConfig(v0=0.5, sigma=0.1, rho0=0.5, gamma=1.0)
        trace = run_vector(JordanPlant.scalar(2.0, 1.0, 5.0), cfg,
                           ReplayDelay((1.0,) + (0.0,) * 200, gamma=1.0), 3.0, 1e-3,
                           x0=0.3, xhat0=0.0, g=1, refine=refine)
        index = {t: i for i, t in enumerate(trace.times.tolist())}
        first = {}
        for e in trace.receptions():
            if e.t in index:
                first.setdefault(e.t, e)
        assert len(first) >= 6
        for t, e in first.items():
            pre = trace.z[index[t], e.coord]
            assert abs(pre - e.zbar) == pytest.approx(e.post_jump, rel=1e-12), t


    @pytest.mark.parametrize("seed, coord, late, crossing", [
        (2, 2, 1.2789418787793798, 1.2784128410425668),
        (7, 0, 0.881820809167172, 0.8814309953398296),
        (9, 0, 3.9838534945247175, 3.9836087477671964),
    ])
    def test_refine_crossing_before_a_delivery_fires_there(self, seed, coord, late, crossing):
        # the crossing lies after the chunk's last sample, before another coordinate's
        # delivery: refine mode used to fire it late, at that delivery
        models = [UniformDelay(gamma=0.05, seed=(seed, 0, c)) for c in range(3)]
        trace = run_vector(VECTOR_PLANT, VECTOR_CFG, models, 5.0, 1e-3,
                           x0=[0.1] * 3, xhat0=[0.0] * 3, refine=True)
        near = [e.t_s for e in trace.triggers() if e.coord == coord and abs(e.t_s - late) < 1e-3]
        assert near == [pytest.approx(crossing, abs=1e-12)]
        assert validate_trace(trace).ok

    def test_refine_crossing_at_a_delivery_fires_after_it(self):
        # coordinate 0 re-triggers at its zero-delay delivery and stays above v; coordinate
        # 1's delivery ends the chunk before the next sample, and coordinate 0 fires there
        # after that reception, as receptions come first at an instant
        plant = JordanPlant(blocks=((2.0, 1), (2.0, 1)), B=np.eye(2), K=5.0 * np.eye(2))
        cfg = TriggerConfig(v0=0.5, sigma=0.1, rho0=0.5, gamma=1.0)
        models = [ReplayDelay((d,) + (0.0,) * 200, gamma=1.0) for d in (0.999, 0.9995)]
        trace = run_vector(plant, cfg, models, 3.0, 1e-3, x0=[0.3, 0.3], xhat0=[0.0, 0.0],
                           g=1, refine=True)
        t_rx = next(e.t for e in trace.receptions() if e.coord == 1)
        assert trace.times[1242] < t_rx < trace.times[1243]
        at = [(e.kind, e.coord) for e in trace.events if e.t == t_rx]
        assert at[:3] == [("reception", 1), ("trigger", 0), ("trigger", 1)]


class TestValidateTrace:
    def test_reception_delay_outside_bound_reported(self):
        trace = fig7_run(horizon=2.0)
        late = next(e for e in trace.events if e.kind == "reception")
        events = [replace(e, delta=1.5) if e is late else e for e in trace.events]
        val = validate_trace(replace(trace, events=events))
        assert val.checks["delays_in_bound"] is False
        assert f"delay 1.5 outside [0, 1.2] at t={late.t}" in val.violations

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


    @pytest.mark.parametrize("block", [1, 7, 930])
    def test_blockwise_envelope_check_equals_one_block(self, monkeypatch, block):
        # coords 0 and 2 leave their envelopes (at samples 1292 and 930), and NaN
        # errors on coord 1 are skipped by the maximum and fail no comparison
        models = [UniformDelay(gamma=0.05, seed=(5, c)) for c in range(3)]
        trace = run_vector(VECTOR_PLANT, VECTOR_CFG, models, 0.5, 1e-4,
                           x0=[0.1] * 3, xhat0=[0.0] * 3)
        z = trace.z * [3.0, 1.0, 3.0]
        z[2000:2100, 1] = math.nan
        trace = replace(trace, z=z)
        whole = validate_trace(trace)
        assert trace.times.size <= sim._VALIDATE_BLOCK
        assert whole.checks["decay_envelope"] is False and len(whole.violations) == 2
        monkeypatch.setattr(sim, "_VALIDATE_BLOCK", block)
        blocks = validate_trace(trace)
        assert blocks.checks == whole.checks
        assert blocks.violations == whole.violations

    def test_envelope_check_memory_does_not_grow_with_the_horizon(self):
        # tracemalloc sees numpy's allocations: above the trace it is given, the check
        # holds only its block buffers, as much at fig7's 7 s (35,001 samples) as at
        # 20 s (100,001); a horizon-sized scratch took 1.16 and 2.20 MB
        peaks = []
        for horizon in (7.0, 20.0):
            trace = fig7_run(horizon=horizon, step=0.0002)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                assert validate_trace(trace).ok
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16384 and peaks[1] < 1 << 20, peaks


def fig8_sweep(tmp_path, grid, *flags, text=None):
    """`etcsim sweep`'s exit code and sweep.csv rows, one dict each, on the fig8 recipe (or
    text) with gamma_grid = grid.  The recipe's uniform delays of seed s give row r, coordinate
    c the model UniformDelay(gamma, seed=(s, r, c))."""
    text = cli.recipe_path("fig8").read_text() if text is None else text
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "sweep.cfg"
    path.write_text(re.sub(r"(?m)^gamma_grid = .*$", f"gamma_grid = {grid}", text))
    rc = cli.main(["sweep", "--config", str(path), *flags, "--out", str(tmp_path)])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    return rc, [dict(zip(cli.SWEEP_COLUMNS, line.split(",", len(cli.SWEEP_COLUMNS) - 1)))
                for line in lines[1:]]


class TestSweep:
    """The empirical sweep: `etcsim sweep` runs run_vector once per grid value."""

    def test_rows_and_determinism(self, tmp_path):
        flags = ("--horizon", "2", "--step", "0.001", "--seed", "1")
        rc_a, a = fig8_sweep(tmp_path / "a", "0.0005, 0.5, 1.0", *flags)
        rc_b, _ = fig8_sweep(tmp_path / "b", "0.0005, 0.5, 1.0", *flags)
        assert rc_a == rc_b == cli.EXIT_OK
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv").read_bytes()
        assert [r["gamma"] for r in a] == ["0.0005", "0.5", "1.0"]
        assert all(r["error"] == "" for r in a)

    def test_packet_size_monotone_in_gamma(self, tmp_path, capsys):
        rc, rows = fig8_sweep(tmp_path, "0.0005:0.2:11", "--horizon", "0.5", "--step", "0.001",
                              "--seed", "3")
        assert rc == cli.EXIT_OK
        assert "warning: grid step" in capsys.readouterr().err  # h tops long delays' tolerances
        gs = [int(r["g"]) for r in rows]
        assert len(gs) == 11 and all(x <= y for x, y in zip(gs, gs[1:]))

    def test_rejects_nonpositive_grid(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text(cli.recipe_path("fig8").read_text().replace(
            "gamma_grid = 0.0005:0.2:11", "gamma_grid = 0.0"))
        rc = cli.main(["sweep", "--config", str(path), "--horizon", "1", "--step", "0.001",
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "sweep grid values must be positive, got 0.0" in capsys.readouterr().err

    def test_divergent_row_recorded_and_sweep_continues(self, tmp_path, capsys):
        text = ("mode = empirical\nA = 2\nB = 0\nK = 0\nv0 = 2e11\nsigma = 0.1\n"
                "rho0 = 0.1\nx0 = 1e11\nxhat0 = 1e9\nhorizon = 14\nstep = 0.01\n"
                "gamma_grid = 0\nseed = 1\n")
        rc, rows = fig8_sweep(tmp_path, "0.5, 1.0", text=text)
        assert rc == cli.EXIT_INVARIANT  # every row failed
        assert "warning: grid step" in capsys.readouterr().err  # a coarse step on purpose
        assert all("overflow" in r["error"] for r in rows)
        assert len(rows) == 2


class TestPhaseCurves:
    def test_markers_and_grid(self):
        inp = bnd.BoundInputs.scalar(5.0, 3.0, 0.7, b=1.0001, nu=2.0)
        grid = np.linspace(0.002, 0.4, 100)
        pc = phase_curves(inp, grid)
        markers = bnd.analytic_bounds(inp)  # the curve's delay markers depend on no delay
        assert markers.gamma_c == pytest.approx(0.0864, abs=1e-3)
        assert markers.gamma_eq == pytest.approx(0.1386, abs=1e-3)
        assert pc.access_rate == pytest.approx(11.5416, abs=1e-3)
        assert pc.access_rate == markers.access_rate
        # necessary rate is zero up to gamma_c and positive afterwards
        below = [r for g, r in zip(pc.gammas, pc.necessary) if g < markers.gamma_c]
        above = [r for g, r in zip(pc.gammas, pc.necessary) if not g < markers.gamma_c]
        assert len(pc.gammas) == len(pc.necessary) == len(grid)
        assert all(r == 0.0 for r in below)
        assert all(r > 0.0 for r in above[1:])

    def test_mixed_eigenvalues_leave_delay_markers_undefined(self):
        inp = bnd.BoundInputs(blocks=((1.0, 1), (2.0, 1)), sigma=1.0, rho0=0.5, gamma=0.5)
        pc = phase_curves(inp, [0.5, 1.0])
        table = bnd.analytic_bounds(inp)
        assert table.gamma_c is None and table.gamma_eq is None
        assert pc.access_rate == table.access_rate
        assert not {"gamma_c", "gamma_eq", "asymptote"} & set(pc._fields)
        assert list(pc.necessary) == [
            bnd.analytic_bounds(inp._replace(gamma=g)).rate_necessary for g in (0.5, 1.0)
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
        points = [inp._replace(gamma=float(g)) for g in gammas]
        tables = [bnd.analytic_bounds(at) for at in points]
        expected = {
            "necessary": [t.rate_necessary for t in tables],
            "necessary_approx": [t.rate_necessary_approx for t in tables],
            "sufficient": [t.rate_sufficient for t in tables],
            "necessary_sup_sigma": [
                max(bnd.analytic_bounds(at._replace(sigma=float(s))).rate_necessary for s in sigmas)
                for at in points
            ],
        }
        for name, values in expected.items():
            column = getattr(pc, name)
            assert isinstance(column, tuple), name
            assert list(map(float.hex, column)) == list(map(float.hex, values)), name

    def test_sup_column_equals_grid_maximum_bitwise(self):
        # the supremum, however it is decided, is the maximum of the bound table over
        # the sigma grid bit for bit: shuffled grids, a duplicated largest sigma, one
        # point, ladders, gamma = 0, (sigma + lam)*gamma >= 700, and tiny delays at a
        # tiny rho0, where the packet bits cancel to near 0
        ladders = bnd.BoundInputs(blocks=((1.2, 2), (1.2, 1)), sigma=0.7, rho0=0.6, gamma=0.0,
                                  b=1.05, nu=3.0, rho_ladders=((0.2, 0.6), (0.6,)))
        mixed = bnd.BoundInputs(blocks=((0.3, 2), (2.5, 1), (6.0, 2)), sigma=0.4, rho0=0.4,
                                gamma=0.0, nu=1.0, rho_ladders=((0.1, 0.4), (0.4,), (0.05, 0.4)))
        tiny = bnd.BoundInputs.scalar(1.0, 0.5, 1e-300, b=1.5, nu=1.0)
        shuffled = list(FIG6_SIGMAS)
        np.random.default_rng(6).shuffle(shuffled)
        delays = [0.0, 0.02, 0.1, 0.25, 0.3, 1.0, 5.0, 40.0, 200.0, 600.0]
        cases = [
            (FIG6_INPUTS, delays, shuffled),
            (FIG6_INPUTS, delays, [2.0, 0.5, 5.0, 0.5, 5.0, 1.0]),
            (FIG6_INPUTS, delays, [0.7]),
            (ladders, delays, [0.05, 3.0, 6.0, 1.5, 3.0]),
            (mixed, delays, [4.0, 0.05, 1.0, 0.3]),
            (tiny, [0.0, 5e-301, 1e-300, 1.001e-300, 2e-300, 1e-299, 1e-200],
             [3.0, 0.5, 3.0, 0.02]),
            (INTERIOR_INPUTS, [1.931], FIG6_SIGMAS),
            # near ties at gamma = 1.931: the rate at 0.0533 is one ulp above the rate at
            # the largest sigma, and an endpoint bound without margins one ulp below it
            (INTERIOR_INPUTS, [1.931], [0.0533, 0.5968433169686265]),
            (INTERIOR_INPUTS, [1.931], [0.5968433169686265, 0.001, 0.0533]),
        ]
        rng = np.random.default_rng(34)
        for _ in range(60):
            count = int(rng.integers(1, 4))
            inp = bnd.BoundInputs(
                blocks=tuple((float(10 ** rng.uniform(-2, 1)), int(rng.integers(1, 3)))
                             for _ in range(count)),
                sigma=1.0, rho0=float(rng.choice([rng.uniform(0.01, 0.99),
                                                  10 ** -rng.uniform(2, 200)])),
                gamma=0.0, nu=float(rng.choice([1.0, rng.uniform(1.0, 8.0)])),
            )
            cases.append((inp, 10 ** rng.uniform(-4, 2, 5), 10 ** rng.uniform(-2, 1.5, 8)))
        for inp, gammas, sigmas in cases:
            pc = phase_curves(inp, gammas, sigma_grid=sigmas)
            want = [
                max(bnd.analytic_bounds(inp._replace(gamma=float(g), sigma=float(s))).rate_necessary
                    for s in sigmas)
                for g in gammas
            ]
            assert list(map(float.hex, pc.necessary_sup_sigma)) == list(map(float.hex, want)), inp

    def test_sup_branches(self, monkeypatch):
        # every fig6 row is certified at the grid's largest sigma: below gamma_c by the
        # zero shortcut (the bound alone never certifies a 0.0), above it by the bound;
        # an interior maximum falls back to the whole grid
        calls = []
        certify = bnd._sup_certified

        def spy(terms, gamma, lo, hi, ln_nu, rho0, ln_rho0, best):
            calls.append((gamma, lo, hi, best, certify(terms, gamma, lo, hi, ln_nu, rho0,
                                                         ln_rho0, best)))
            return calls[-1][-1]

        monkeypatch.setattr(bnd, "_sup_certified", spy)
        gammas = [0.02 + 0.02 * i for i in range(200)]  # fig6's 0.02:0.02:200
        phase_curves(FIG6_INPUTS, gammas, sigma_grid=FIG6_SIGMAS)
        assert [(g, lo, hi, ok) for g, lo, hi, _, ok in calls] == [
            (g, 0.1, FIG6_SIGMAS[-2], True) for g in gammas
        ]
        zero = [g for g, _, _, best, _ in calls if best == 0.0]
        assert len(zero) == 10 and max(zero) < bnd.analytic_bounds(FIG6_INPUTS).gamma_c

        calls.clear()
        pc = phase_curves(INTERIOR_INPUTS, [1.931], sigma_grid=FIG6_SIGMAS)
        at = INTERIOR_INPUTS._replace(gamma=1.931)
        assert [(best, ok) for *_, best, ok in calls] == [(19.717659886270475, False)]
        assert pc.necessary_sup_sigma == (20.148994388653094,)
        assert bnd.analytic_bounds(at._replace(sigma=FIG6_SIGMAS[2])).rate_necessary == (
            20.148994388653094)

    def test_empty_sigma_grid_refused(self):
        inp = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, nu=2.0)
        with pytest.raises(ConfigurationError) as exc:
            phase_curves(inp, [0.1], [])
        assert str(exc.value) == "sigma_grid must hold at least one decay rate, got none"

    @pytest.mark.parametrize("gammas, sigmas, message", [
        ([0.1, -0.5], None, "gamma must be finite and >= 0, got -0.5"),
        ([math.nan], None, "gamma must be finite and >= 0, got nan"),
        ([0.1, math.inf], [1.0], "gamma must be finite and >= 0, got inf"),
        ([0.1], [1.0, 0.0], "sigma must be positive and finite, got 0.0"),
        ([0.1], [math.nan], "sigma must be positive and finite, got nan"),
        ([0.0, 0.1], [math.inf], "sigma must be positive and finite, got inf"),
        ([0.5, 1e308], None, "the rate bounds and the sufficient packet size leave float range: "
         "b*(lam+sigma)*gamma/ln2 overflows at lam+sigma=2.3, gamma=1e+308, b=1.0001"),
        ([1.0], [1.0, 1.5e308], "the rate bounds and the sufficient packet size leave float "
         "range: b*(lam+sigma)*gamma/ln2 overflows at lam+sigma=1.5e+308, gamma=1.0, b=1.0001"),
    ], ids=["gamma_negative", "gamma_nan", "gamma_inf", "sigma_zero", "sigma_nan", "sigma_inf",
            "rates_overflow", "sup_rates_overflow"])
    def test_bad_grid_value_raises(self, gammas, sigmas, message):
        inp = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, nu=2.0)
        with pytest.raises(ConfigurationError) as exc:
            phase_curves(inp, gammas, sigma_grid=sigmas)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sigmas", [None, [0.5, 1.0]], ids=["no_sigma_grid", "sigma_grid"])
    def test_underflowing_delay_refused_after_earlier_blocks(self, sigmas):
        # lam*gamma underflows for the second block alone: the pass over the blocks at
        # that delay stops there, after the first block's terms, with the kernel's refusal
        inp = bnd.BoundInputs(blocks=((1.3, 1), (0.1, 1)), sigma=1.0, rho0=0.9, gamma=0.0)
        with pytest.raises(ConfigurationError) as exc:
            phase_curves(inp, [0.0, 0.5, 5e-324], sigma_grid=sigmas)
        assert str(exc.value) == ("gamma=5e-324 is too small for eigenvalue lam=0.1: "
                                  "lam*gamma underflows to 0")

    @pytest.mark.parametrize("grid, rule", [
        ("gamma", "gamma must be finite and >= 0"), ("sigma", "sigma must be positive and finite"),
    ])
    @pytest.mark.parametrize("values, error, message", [
        ([0.1, -1.0, "x"], ConfigurationError, "{rule}, got -1.0"),
        ([0.1, "x", -1.0], ConfigurationError, "{grid} must be a real number, got 'x'"),
        ([0.1, math.nan], ConfigurationError, "{rule}, got nan"),
    ], ids=["check_before_later_conversion", "conversion_before_later_check", "nan"])
    def test_grid_refused_at_its_first_bad_value(self, grid, rule, values, error, message):
        # a grid is refused as checking and converting its values one at a time, in
        # order, refuses it: the first value that fails either, with that failure; a
        # str fails its type check, which comes before the range rules
        inp = bnd.BoundInputs.scalar(1.3, 1.0, 0.9, nu=2.0)
        gammas, sigmas = (values, None) if grid == "gamma" else ([0.1], values)
        with pytest.raises(ValueError) as exc:
            phase_curves(inp, gammas, sigma_grid=sigmas)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(rule=rule, grid=grid)
