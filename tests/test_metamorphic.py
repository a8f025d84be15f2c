"""Metamorphic relations of the engine: exact relations that need no stored output.

The error z = x - xhat obeys zdot = A z whatever the input, and the trigger,
the codec and the jumps read z and v alone.  So the feedback gain and the
way the estimate is propagated reach x and xhat, never the event log, z or v.
A run sees its delays only through their values, so delay models that give
the same values give the same run; the Jordan blocks are independent, so
reordering them permutes the coordinates; and a run is causal, so a shorter
horizon gives a prefix of a longer run.
The plant is the benchmark's dense one (blocks ((5,2),(10,1)), B = I).
"""

from dataclasses import replace

import numpy as np
import pytest

from etcsim import sim
from etcsim.channel import ConstantDelay, ReplayDelay, UniformDelay, build_delay
from etcsim.model import JordanPlant, TriggerConfig

BLOCKS = ((5.0, 2), (10.0, 1))
V0 = ((0.5, 0.6), (0.5,))
CFG = TriggerConfig(v0=V0, sigma=2.0, rho0=0.5, gamma=0.05)
STEP = 1e-4
HORIZON = 2.0
MODES = pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])


def uniform_models(salts):
    return [UniformDelay(gamma=CFG.gamma, seed=(11, s)) for s in salts]


def dense_run(k: float, refine: bool, models=None, blocks=BLOCKS, cfg=CFG, horizon=HORIZON):
    plant = JordanPlant(blocks=blocks, B=np.eye(3), K=k * np.eye(3))
    if models is None:
        models = uniform_models(range(3))
    return sim.run_vector(plant, cfg, models, horizon, STEP, x0=(0.1, 0.1, 0.1),
                          xhat0=(0.0, 0.0, 0.0), refine=refine)


def assert_same_events(a, b):
    assert a.events and a.events == b.events
    for name in ("times", "z", "v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_run(a, b):
    assert_same_events(a, b)
    for name in ("x", "xhat"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@MODES
def test_gain_reaches_only_the_estimate(refine):
    a, b = dense_run(15.0, refine), dense_run(7.0, refine)
    assert_same_events(a, b)
    assert not np.array_equal(a.xhat, b.xhat)


@MODES
def test_sub_step_propagator_reaches_only_the_estimate(refine, monkeypatch):
    table = dense_run(15.0, refine)
    monkeypatch.setattr(sim._Engine, "_flow_table", lambda self: None)  # expm on every offset
    scaled = dense_run(15.0, refine)
    assert_same_events(table, scaled)
    for name in ("x", "xhat"):
        got, want = getattr(table, name), getattr(scaled, name)
        assert not np.array_equal(got, want), name  # the two paths did run
        err = np.max(np.abs(got - want), axis=0)
        assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=0)), name


@MODES
def test_delay_specs_of_one_value_give_one_run(refine):
    d = 0.03
    assert 0.6 * CFG.gamma == d  # otherwise the fraction run differs by one rounding
    runs = [
        dense_run(15.0, refine, models=[build_delay(spec, CFG.gamma)] * 3)
        for spec in (f"constant:{d}", "fraction:0.6", "replay:" + ",".join([repr(d)] * 1000))
    ]
    assert all(runs[0].trigger_counts > 1)
    for other in runs[1:]:
        assert_same_run(runs[0], other)


@MODES
def test_uniform_run_equals_replay_of_its_draws(refine):
    uniform = dense_run(15.0, refine)
    draws = [tuple(e.delta for e in uniform.triggers() if e.coord == c) for c in range(3)]
    assert all(len(d) > 1 for d in draws)
    replayed = dense_run(15.0, refine,
                         models=[ReplayDelay(delays=d, gamma=CFG.gamma) for d in draws])
    assert_same_run(uniform, replayed)


@MODES
def test_uniform_run_equals_replay_of_numpys_draws(refine):
    # a uniform delay is defined as numpy's default_rng((*seed, k)).uniform(0, gamma)
    draws = [
        tuple(float(np.random.default_rng((11, s, k)).uniform(0.0, CFG.gamma)) for k in range(100))
        for s in range(3)
    ]
    replayed = dense_run(15.0, refine,
                         models=[ReplayDelay(delays=d, gamma=CFG.gamma) for d in draws])
    assert_same_run(dense_run(15.0, refine), replayed)


def test_uniform_draws_depend_on_neither_call_order_nor_an_equal_instance():
    a, b = (UniformDelay(gamma=CFG.gamma, seed=(11, 0)) for _ in range(2))
    ks = (200, 3, 64, 63)  # blocks 3, 0, 1, 0
    shuffled = {k: a.sample(k) for k in ks}
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert b._block is None  # the block lives on its instance, not under its value
    assert shuffled == {k: b.sample(k) for k in sorted(ks)}
    assert a._block is not b._block


PERM = [2, 0, 1]  # coordinate j of the reordered run is coordinate PERM[j] of the original


@MODES
def test_block_permutation_permutes_coordinates(refine):
    a = dense_run(15.0, refine)
    b = dense_run(15.0, refine, blocks=BLOCKS[::-1], cfg=replace(CFG, v0=V0[::-1]),
                  models=uniform_models(PERM))
    assert np.array_equal(a.times, b.times)
    for name in ("z", "v", "bits_sent", "trigger_counts"):
        got, want = getattr(b, name), getattr(a, name)
        assert np.array_equal(got, want[..., PERM]), name
    # next_delivery breaks ties at one instant by coordinate, so compare in (t, kind, coord) order
    new_coord = {old: new for new, old in enumerate(PERM)}
    key = lambda e: (e.t, e.kind, e.coord)  # noqa: E731
    mapped = sorted((replace(e, coord=new_coord[e.coord]) for e in a.events), key=key)
    assert mapped and mapped == sorted(b.events, key=key)
    for name in ("x", "xhat"):  # the BLAS summation order changes with the block order
        got, want = getattr(b, name), getattr(a, name)[:, PERM]
        err = np.max(np.abs(got - want), axis=0)
        assert np.all(err <= 1e-15 * np.max(np.abs(want), axis=0)), name


def assert_prefix(short, long, k):
    assert short.horizon == long.times[k], k
    for name in ("times", "x", "xhat", "z", "v"):
        assert np.array_equal(getattr(short, name), getattr(long, name)[: k + 1]), (k, name)
    assert short.events == [e for e in long.events if e.t <= long.times[k]], k


@MODES
def test_shorter_horizon_gives_a_prefix(refine):
    long = dense_run(15.0, refine)
    for k in (1, 777, 5000, 12345, 19999):
        assert_prefix(dense_run(15.0, refine, horizon=float(long.times[k])), long, k)


def test_horizon_at_a_grid_reception_ends_with_it():
    # power-of-two step and delay: every delivery lands on a grid instant, so a
    # horizon there ends the run at a reception (the run's last boundary)
    h = 0.0078125
    plant = JordanPlant.scalar(A=2.0, B=1.0, K=5.0)
    cfg = TriggerConfig(v0=0.5, sigma=1.5, rho0=0.3, gamma=0.25)

    def run(horizon):
        return sim.run_vector(plant, cfg, ConstantDelay(0.125, gamma=0.25), horizon, h,
                              x0=0.3, xhat0=0.0)

    long = run(6.0)
    receptions = long.receptions()
    for rx in (receptions[0], receptions[len(receptions) // 2]):
        k = int(rx.t_c / h)
        assert long.times[k] == rx.t_c
        short = run(rx.t_c)
        assert short.events[-1] == rx
        assert_prefix(short, long, k)
