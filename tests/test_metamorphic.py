"""Metamorphic relations of the engine: exact relations that need no stored output.

The error z = x - xhat obeys zdot = A z whatever the input, and the trigger,
the codec and the jumps read z and v alone.  So the feedback gain and the
way the estimate is propagated reach x and xhat, never the event log, z or v.
The plant is the benchmark's dense one (blocks ((5,2),(10,1)), B = I).
"""

import numpy as np
import pytest

from etcsim import sim
from etcsim.channel import UniformDelay
from etcsim.model import JordanPlant, TriggerConfig

BLOCKS = ((5.0, 2), (10.0, 1))
CFG = TriggerConfig(v0=((0.5, 0.6), (0.5,)), sigma=2.0, rho0=0.5, gamma=0.05)
STEP = 1e-4


def dense_run(k: float, refine: bool):
    plant = JordanPlant(blocks=BLOCKS, B=np.eye(3), K=k * np.eye(3))
    models = [UniformDelay(gamma=CFG.gamma, seed=(11, c)) for c in range(3)]
    return sim.run_vector(plant, CFG, models, 2.0, STEP, x0=(0.1, 0.1, 0.1),
                          xhat0=(0.0, 0.0, 0.0), refine=refine)


def assert_same_events(a, b):
    assert a.events and a.events == b.events
    for name in ("times", "z", "v"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
def test_gain_reaches_only_the_estimate(refine):
    a, b = dense_run(15.0, refine), dense_run(7.0, refine)
    assert_same_events(a, b)
    assert not np.array_equal(a.xhat, b.xhat)


@pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
def test_sub_step_propagator_reaches_only_the_estimate(refine, monkeypatch):
    taylor = dense_run(15.0, refine)
    monkeypatch.setattr(sim._Engine, "_flow_table", lambda self: None)  # expm on every offset
    pade = dense_run(15.0, refine)
    assert_same_events(taylor, pade)
    for name in ("x", "xhat"):
        got, want = getattr(taylor, name), getattr(pade, name)
        assert not np.array_equal(got, want), name  # the two paths did run
        err = np.max(np.abs(got - want), axis=0)
        assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=0)), name
