"""Plant and trigger types, plus the propagation laws the engine implements.

TestPropagate validates the exact reference stepper of
test_reference_engine.py against numerical integration; the threshold,
jump and feedback laws are checked on the engine's traces.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from test_reference_engine import SimState, propagate

from etcsim import bounds, sim
from etcsim.bounds import BoundInputs
from etcsim.channel import ConstantDelay
from etcsim.errors import ConfigurationError, DivergenceError, PreconditionError
from etcsim.model import JordanPlant, TriggerConfig, block_matexp, expm
from etcsim.sim import run_vector

FIG7_PLANT = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)


def integrate_error(blocks, z0, h):
    """Independent oracle: fine-tolerance numerical integration of zdot = A z."""
    A = JordanPlant(blocks=blocks, B=np.zeros((sum(p for _, p in blocks), 1)),
                    K=np.zeros((1, sum(p for _, p in blocks)))).a_matrix()
    sol = solve_ivp(lambda t, z: A @ z, (0.0, h), z0, rtol=1e-12, atol=1e-14,
                    method="DOP853")
    return sol.y[:, -1]


class TestPlants:
    def test_scalar_requires_positive_growth(self):
        with pytest.raises(ConfigurationError):
            JordanPlant.scalar(A=-1.0, B=1.0, K=1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_growth_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            JordanPlant.scalar(A=value, B=1.0, K=2.0)
        with pytest.raises(ConfigurationError, match="finite"):
            JordanPlant(blocks=((1.0, 1), (value, 2)), B=np.eye(3), K=np.eye(3))

    def test_jordan_dimensions(self):
        plant = JordanPlant(blocks=((1.0, 2), (2.0, 1)), B=np.eye(3), K=np.zeros((3, 3)))
        assert plant.n == 3
        assert np.trace(plant.a_matrix()) == pytest.approx(1.0 * 2 + 2.0)
        A = plant.a_matrix()
        assert A[0, 1] == 1.0 and A[1, 2] == 0.0 and A[2, 2] == 2.0

    def test_jordan_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            JordanPlant(blocks=((1.0, 2),), B=np.eye(3), K=np.zeros((3, 3)))
        with pytest.raises(ConfigurationError):
            JordanPlant(blocks=((-1.0, 1),), B=np.eye(1), K=np.eye(1))
        with pytest.raises(ConfigurationError, match="at least one Jordan block is required"):
            JordanPlant(blocks=(), B=np.eye(1), K=np.eye(1))

    @pytest.mark.parametrize("order", [1.7, 2.9, math.nan, math.inf])
    def test_non_integral_block_order_refused(self, order):
        # int() used to truncate the order: 1.7 became a first-order block, 2.9 a second
        messages = set()
        for build in (lambda: JordanPlant(blocks=((1.0, order),), B=np.eye(1), K=np.eye(1)),
                      lambda: BoundInputs(blocks=((1.0, order),), sigma=1, rho0=0.5, gamma=0.1)):
            with pytest.raises(ConfigurationError) as exc:
                build()
            messages.add(str(exc.value))
        assert messages == {f"block order must be a positive integer, got {order}"}

    @pytest.mark.parametrize("order", [2, 2.0, np.int64(2)], ids=["int", "float", "np_int64"])
    def test_integral_block_order_accepted(self, order):
        plant = JordanPlant(blocks=((1.0, order),), B=np.eye(2), K=np.zeros((2, 2)))
        inputs = BoundInputs(blocks=((1.0, order),), sigma=1, rho0=0.5, gamma=0.1)
        assert plant.blocks == inputs.blocks == ((1.0, 2),)
        assert type(plant.blocks[0][1]) is type(inputs.blocks[0][1]) is int

    @pytest.mark.parametrize("blocks, n", [
        (((1.0, 100_000),), 100_000),
        (((1.0, 500), (2.0, 13)), 513),
        (((1.0, 1),) * 513, 513),
    ], ids=["one_huge_block", "two_blocks", "many_blocks"])
    def test_plant_order_capped(self, blocks, n):
        # an order of 100000 used to pass: the CLI built an n x n identity of floats from it,
        # and the engine a (256, n, n) stack of powers
        assert bounds.MAX_ORDER == 512
        with pytest.raises(ConfigurationError) as exc:
            bounds.check_blocks(blocks)
        assert str(exc.value) == f"plant order (sum of block orders) must be <= 512, got {n}"

    def test_order_at_cap_accepted(self):
        assert bounds.check_blocks(((1.0, 500), (2.0, 12))) == ((1.0, 500), (2.0, 12))

    def test_power_stack_at_cap_within_trace_limit(self):
        assert sim._POWER_BLOCK * bounds.MAX_ORDER**2 * 8 <= sim.MAX_TRACE_BYTES

    def test_ragged_gain_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="B rows must have equal lengths"):
            JordanPlant(blocks=((1.0, 2),), B=[[1.0, 0.0], [0.0]], K=np.zeros((2, 2)))

    def test_scalar_is_one_block(self):
        plant = JordanPlant.scalar(A=2.4, B=1.0, K=8.0)
        assert plant.blocks == ((2.4, 1),)
        assert plant.closed_loop_matrix()[0, 0] == pytest.approx(2.4 - 8.0)
        flat = JordanPlant(blocks=((2.4, 1),), B=[1.0], K=(8.0,))  # a flat sequence is one row
        assert flat.B.tolist() == plant.B.tolist() and flat.K.tolist() == plant.K.tolist()


class TestTriggerConfig:
    @pytest.mark.parametrize("v0", [(0.5, 0.6, 0.5), ((0.5, 0.6), (0.5,)), [[0.5], [0.6, 0.5]],
                                    np.array([0.5, 0.6, 0.5])],
                             ids=["flat", "per_block", "nested_lists", "array"])
    def test_levels_stored_flat_in_coordinate_order(self, v0):
        cfg = TriggerConfig(v0=v0, sigma=2.0, rho0=0.5, gamma=0.05)
        assert cfg.v0 == (0.5, 0.6, 0.5) and all(type(v) is float for v in cfg.v0)
        assert TriggerConfig(v0=0.5, sigma=2.0, rho0=0.5, gamma=0.05).v0 == (0.5,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerConfig(v0=1.0, sigma=0.0, rho0=0.5, gamma=0.1)
        with pytest.raises(ConfigurationError):
            TriggerConfig(v0=1.0, sigma=1.0, rho0=1.0, gamma=0.1)
        with pytest.raises(ConfigurationError):
            TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=-0.1)
        with pytest.raises(ConfigurationError):
            TriggerConfig(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.1, b=1.0)

    @pytest.mark.parametrize("field", ["sigma", "gamma", "b"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        kw = dict(v0=1.0, sigma=1.0, rho0=0.5, gamma=0.1, b=1.0001)
        with pytest.raises(ConfigurationError, match=field):
            TriggerConfig(**{**kw, field: value})

    def test_ladder_must_end_at_rho0(self):
        with pytest.raises(ConfigurationError):
            TriggerConfig(v0=((1.0, 1.0),), sigma=1.0, rho0=0.5, gamma=0.1,
                          rho_ladders=((0.2, 0.4),))
        cfg = TriggerConfig(v0=((1.0, 1.0),), sigma=1.0, rho0=0.5, gamma=0.1,
                            rho_ladders=((0.25, 0.5),))
        table = bounds.coordinates(cfg.bound_inputs(((1.0, 2),), 2.0), cfg.v0)
        assert tuple(co.rho for co in table) == (0.25, 0.5)

    def test_ladders_stored_as_tuples(self):
        # a design given as lists equals, and hashes as, the same design given as tuples
        kw = dict(v0=((1.0, 1.0),), sigma=1.0, rho0=0.5, gamma=0.1)
        lists = TriggerConfig(**kw, rho_ladders=[[0.25, 0.5]])
        tuples = TriggerConfig(**kw, rho_ladders=((0.25, 0.5),))
        assert lists.rho_ladders == ((0.25, 0.5),) and type(lists.rho_ladders[0]) is tuple
        assert lists == tuples and hash(lists) == hash(tuples)

    def test_default_ladder(self):
        cfg = TriggerConfig(v0=((1.0, 1.0, 1.0),), sigma=1.0, rho0=0.6, gamma=0.1)
        table = bounds.coordinates(cfg.bound_inputs(((1.0, 3),), 2.0), cfg.v0)
        assert tuple(co.rho for co in table) == (pytest.approx(0.2), pytest.approx(0.4), 0.6)


def quiet_run(cfg, horizon, step, x0=0.2, **kw):
    """fig7 plant with zero initial error: no trigger ever fires."""
    return run_vector(FIG7_PLANT, cfg, ConstantDelay(0.0, gamma=cfg.gamma),
                      horizon, step, x0=x0, xhat0=x0, **kw)


def grid_reception_run():
    """Power-of-two step and delay: every reception lands on a sample instant,
    whose recorded sample is the pre-jump left limit."""
    plant = JordanPlant.scalar(A=2.0, B=1.0, K=5.0)
    cfg = TriggerConfig(v0=0.5, sigma=1.5, rho0=0.3, gamma=0.25)
    trace = run_vector(plant, cfg, ConstantDelay(0.125, gamma=0.25),
                       6.0, 2.0**-7, x0=0.3, xhat0=0.0)
    rows = [int(np.flatnonzero(trace.times == e.t_c)[0]) for e in trace.receptions()]
    assert rows
    return plant, trace, rows


class TestTriggerValue:
    def test_reported_initial_value(self):
        cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2)
        trace = run_vector(FIG7_PLANT, cfg, ConstantDelay(0.5, gamma=1.2),
                           3.0, 0.001, x0=0.2, xhat0=0.1)
        assert trace.v[0, 0] == pytest.approx(0.2671, abs=1e-12)
        np.testing.assert_allclose(trace.v[:, 0], 0.2671 * np.exp(-0.1 * trace.times),
                                   rtol=1e-12)
        assert trace.triggers()
        for e in trace.events:
            assert e.v_ts == pytest.approx(0.2671 * math.exp(-0.1 * e.t_s), rel=1e-12)

    def test_halving_time(self):
        cfg = TriggerConfig(v0=1.0, sigma=1.0, rho0=0.1, gamma=0.0)
        trace = quiet_run(cfg, math.log(2.0), math.log(2.0) / 1000)
        assert trace.times[-1] == pytest.approx(math.log(2.0), rel=1e-12)
        assert trace.v[-1, 0] == pytest.approx(0.5, rel=1e-12)

    def test_monotone_decay(self):
        cfg = TriggerConfig(v0=0.7, sigma=0.3, rho0=0.1, gamma=0.0)
        with pytest.warns(UserWarning, match="grid step"):  # a coarse step on purpose
            vals = quiet_run(cfg, 50.0, 0.25).v[:, 0]
        assert np.all(vals[1:] < vals[:-1])
        assert vals[-1] < 1e-6


class TestPropagate:
    def test_pure_exponential_growth(self):
        # A=1, B=0, x=1, xhat=0, h=ln2 doubles the state
        plant = JordanPlant.scalar(A=1.0, B=0.0, K=0.0)
        state = SimState(0.0, np.array([1.0]), np.array([0.0]))
        out = propagate(state, plant, math.log(2.0))
        assert out.x[0] == pytest.approx(2.0, rel=1e-12)
        assert out.xhat[0] == 0.0
        assert out.z[0] == pytest.approx(2.0, rel=1e-12)

    def test_zero_error_stays_zero(self):
        plant = JordanPlant.scalar(A=1.0, B=0.5, K=2.0)
        state = SimState(0.0, np.array([0.7]), np.array([0.7]))
        out = propagate(state, plant, 1.3)
        assert abs(out.z[0]) < 1e-14

    def test_jordan_coupled_block_closed_form(self):
        # z = (0, 1) on a second-order block: z1(h) = h*e^{lam h}, z2(h) = e^{lam h}
        blocks = ((1.0, 2),)
        plant = JordanPlant(blocks=blocks, B=np.zeros((2, 1)), K=np.zeros((1, 2)))
        state = SimState(0.0, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        out = propagate(state, plant, 1.0)
        oracle = integrate_error(blocks, np.array([0.0, 1.0]), 1.0)
        assert out.z == pytest.approx([math.e, math.e], rel=1e-12)
        assert out.z == pytest.approx(oracle, rel=1e-9)

    def test_error_transition_matches_integration(self):
        rng = np.random.default_rng(11)
        blocks = ((0.8, 3), (1.7, 1))
        plant = JordanPlant(blocks=blocks, B=np.zeros((4, 1)), K=np.zeros((1, 4)))
        for _ in range(10):
            z0 = rng.normal(size=4)
            h = float(rng.uniform(0.05, 1.5))
            state = SimState(0.0, z0, np.zeros(4))
            out = propagate(state, plant, h)
            oracle = integrate_error(blocks, z0, h)
            np.testing.assert_allclose(out.z, oracle, rtol=1e-9, atol=1e-13)

    def test_additive_in_time(self):
        plant = JordanPlant.scalar(A=1.3, B=0.4, K=5.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0, xh0 = rng.normal(size=2)
            h1, h2 = rng.uniform(0.01, 1.0, size=2)
            s = SimState(0.0, np.array([x0]), np.array([xh0]))
            once = propagate(s, plant, h1 + h2)
            twice = propagate(propagate(s, plant, h1), plant, h2)
            np.testing.assert_allclose(once.x, twice.x, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(once.xhat, twice.xhat, rtol=1e-12, atol=1e-15)

    def test_rejects_bad_step(self):
        cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2)
        with pytest.raises(PreconditionError):
            quiet_run(cfg, 1.0, 0.0)

    def test_overflow_raises_divergence(self):
        plant = JordanPlant.scalar(A=1.0, B=0.0, K=0.0)
        s = SimState(0.0, np.array([1e11]), np.array([0.0]))
        with pytest.raises(DivergenceError):
            propagate(s, plant, 10.0)


class TestBlockMatexp:
    def test_against_scipy_expm(self):
        import scipy.linalg

        for lam, p in ((0.5, 1), (1.0, 2), (2.0, 4)):
            plant = JordanPlant(blocks=((lam, p),), B=np.zeros((p, 1)), K=np.zeros((1, p)))
            for h in (0.01, 0.3, 2.0):
                closed = block_matexp(lam, p, h)
                pade = scipy.linalg.expm(plant.a_matrix() * h)
                np.testing.assert_allclose(closed, pade, rtol=1e-12, atol=1e-14)

    def test_block_diagonal_assembly(self):
        # with every channel disabled the engine's error follows exp(A t) block
        # by block: a unit error on the last block never leaks into the first
        plant = JordanPlant(blocks=((1.0, 2), (2.0, 1)), B=np.zeros((3, 1)), K=np.zeros((1, 3)))
        cfg = TriggerConfig(v0=((10.0, 10.0), (10.0,)), sigma=1.0, rho0=0.5, gamma=0.0)
        for col, lam in ((2, 2.0), (0, 1.0)):
            z0 = np.zeros(3)
            z0[col] = 1.0
            trace = run_vector(plant, cfg, [None] * 3, 0.5, 0.05, x0=z0, xhat0=np.zeros(3))
            M_col = trace.z[-1]
            assert M_col[col] == pytest.approx(math.exp(lam * 0.5))
            assert all(M_col[i] == 0.0 for i in range(3) if i != col)


def _random_matrix(rng, n, kind, norm):
    """A dense, defective (similar to one Jordan block) or non-normal
    (triangular, large off-diagonal) n x n matrix scaled to the given 1-norm."""
    if kind == "dense":
        M = rng.standard_normal((n, n))
    elif kind == "defective":
        J = rng.uniform(-3.0, 3.0) * np.eye(n) + np.eye(n, k=1)
        S = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        M = S @ J @ np.linalg.inv(S)
    else:
        M = np.triu(5.0 * rng.standard_normal((n, n)))
    return M * (norm / np.abs(M).sum(axis=0).max())


class TestExpm:
    """model.expm against scipy.linalg.expm, an independent implementation."""

    # norms on both sides of 1/2, where squaring starts (0 and 1 squarings), up to
    # 50 (7 squarings)
    NORMS = (1e-3, 0.2, 0.5, math.nextafter(0.5, 1), 0.9, 2.0, 5.0, 12.0, 20.0, 50.0)

    @pytest.mark.parametrize("kind", ["dense", "defective", "non_normal"])
    def test_against_scipy(self, kind):
        import scipy.linalg

        rng = np.random.default_rng(["dense", "defective", "non_normal"].index(kind))
        for _ in range(60):
            for norm in self.NORMS:
                M = _random_matrix(rng, int(rng.integers(2, 6)), kind, norm)
                want = scipy.linalg.expm(M)
                got = expm(M)
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), (norm, M)

    def test_engine_closed_loop_matrices(self):
        import scipy.linalg

        acl = JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3),
                          K=15.0 * np.eye(3)).closed_loop_matrix()
        for dt in (0.0, 3.7e-5, 1e-4, 0.0256, 0.5, 7.0):
            want = scipy.linalg.expm(acl * dt)
            np.testing.assert_allclose(expm(acl * dt), want, rtol=1e-12, atol=1e-300)

    def test_diagonal_is_elementwise_exp_bitwise(self):
        import scipy.linalg

        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5):
            d = rng.uniform(-30.0, 30.0, n)
            got = expm(np.diag(d))
            assert np.array_equal(got, np.diag(np.exp(d)))
            assert np.array_equal(got, scipy.linalg.expm(np.diag(d)))
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_gives_nan(self, bad):
        M = np.array([[-1.0, bad], [0.5, -2.0]])
        assert np.isnan(expm(M)).all()

    def test_out_of_float_range_gives_inf_without_warning(self):
        # these raised numpy overflow warnings, in the squaring loop and in np.exp
        # (pyproject.toml turns an etcsim RuntimeWarning into a test failure)
        swap = expm([[0.0, 1e308], [1e308, 0.0]])
        jordan = expm([[800.0, 1.0], [0.0, 800.0]])
        diag = expm(np.diag([800.0, 1.0]))
        assert np.isposinf(swap).all()
        assert np.isposinf(jordan[0]).all() and jordan[1, 0] == 0.0 and np.isposinf(jordan[1, 1])
        assert np.isposinf(diag[0, 0]) and diag[1, 1] == math.e and diag[0, 1] == diag[1, 0] == 0.0


class TestApplyJump:
    def test_perfect_estimate(self):
        # zero delay: the decoded error equals the error at the trigger, so
        # the jump leaves no residual
        cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=0.0)
        trace = run_vector(FIG7_PLANT, cfg, ConstantDelay(0.0, gamma=0.0),
                           3.0, 0.001, x0=0.2, xhat0=0.1, refine=True)
        assert trace.receptions()
        for e in trace.receptions():
            assert e.zbar == pytest.approx(e.sign * e.v_ts, rel=1e-12)
            assert e.post_jump <= 1e-12

    def test_zero_jump_is_identity(self):
        # between receptions the estimate only follows the nominal flow
        plant, trace, _ = grid_reception_run()
        h = trace.step
        acl = plant.closed_loop_matrix()[0, 0]
        rx = np.array([e.t_c for e in trace.receptions()])
        quiet = 0
        for i in range(trace.times.size - 1):
            if np.any((rx >= trace.times[i]) & (rx < trace.times[i + 1])):
                continue
            quiet += 1
            assert trace.xhat[i + 1, 0] == pytest.approx(
                math.exp(acl * h) * trace.xhat[i, 0], rel=1e-12, abs=1e-15
            )
        assert quiet > trace.times.size // 2

    def test_residual_arithmetic(self):
        _, trace, rows = grid_reception_run()
        for e, j in zip(trace.receptions(), rows):
            assert e.post_jump == pytest.approx(abs(trace.z[j, 0] - e.zbar), abs=1e-15)

    def test_never_modifies_state(self):
        # the jump moves xhat by +zbar and z by -zbar, so x = xhat + z is untouched
        plant, trace, rows = grid_reception_run()
        h = trace.step
        acl = plant.closed_loop_matrix()[0, 0]
        for e, j in zip(trace.receptions(), rows):
            xhat_next = math.exp(acl * h) * (trace.xhat[j, 0] + e.zbar)
            z_next = math.exp(plant.blocks[0][0] * h) * (trace.z[j, 0] - e.zbar)
            assert trace.xhat[j + 1, 0] == pytest.approx(xhat_next, rel=1e-12, abs=1e-15)
            assert trace.z[j + 1, 0] == pytest.approx(z_next, rel=1e-9, abs=1e-15)
            assert trace.x[j + 1, 0] == pytest.approx(xhat_next + z_next, rel=1e-12, abs=1e-15)

    def test_control_input(self):
        # u = -K xhat: with zero error x follows exp((A - B K) t) x(0)
        trace = quiet_run(TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2),
                          1.0, 0.01, x0=0.25)
        np.testing.assert_allclose(trace.x[:, 0], 0.25 * np.exp((1.0 - 0.2 * 8.0) * trace.times),
                                   rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        plant = JordanPlant(blocks=((1.0, 1), (1.0, 1)), B=np.eye(2), K=np.eye(2))
        cfg = TriggerConfig(v0=0.5, sigma=1.0, rho0=0.5, gamma=0.1)
        with pytest.raises(ConfigurationError):
            run_vector(plant, cfg, [ConstantDelay(0.0, gamma=0.1)] * 2, 1.0, 0.01,
                       x0=np.zeros(2), xhat0=np.zeros(3))
