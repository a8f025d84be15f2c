import math
import re

import numpy as np
import pytest

from etcsim.bounds import BoundInputs, analytic_bounds
from etcsim.channel import (
    AdversarialDelay,
    ChannelState,
    ConstantDelay,
    ReplayDelay,
    UniformDelay,
    build_delay,
    sample_delay,
)
from etcsim.codec import encode
from etcsim.errors import ConfigurationError


class TestDelayModels:
    def test_constant(self):
        m = ConstantDelay(0.3, gamma=1.2)
        assert all(sample_delay(m, k) == 0.3 for k in range(10))
        with pytest.raises(ConfigurationError):
            ConstantDelay(1.3, gamma=1.2)

    def test_uniform_reproducible_and_bounded(self):
        m = UniformDelay(gamma=0.7, seed=(42, 0))
        seq1 = [sample_delay(m, k) for k in range(50)]
        seq2 = [sample_delay(m, k) for k in range(50)]
        assert seq1 == seq2
        assert all(0.0 <= d <= 0.7 for d in seq1)
        assert len(set(seq1)) > 40  # actually random across k
        other = UniformDelay(gamma=0.7, seed=(43, 0))
        assert [other.sample(k) for k in range(50)] != seq1

    def test_uniform_index_order_independent(self):
        m = UniformDelay(gamma=1.0, seed=(7,))
        assert m.sample(10) == m.sample(10)
        a = [m.sample(k) for k in (3, 1, 2)]
        b = [m.sample(k) for k in (3, 1, 2)]
        assert a == b

    def test_adversarial_value(self):
        # beta = ln(1 + 2 rho0 e^{-sigma gamma}) / A
        m = AdversarialDelay.from_params(1.0, 0.1, 0.1, 1.2)
        expect = math.log1p(0.2 * math.exp(-0.12))
        assert m.sample(0) == pytest.approx(expect, rel=1e-12)
        assert m.sample(5) == m.sample(0)
        assert m.delay < m.gamma  # beta, below gamma here: not clamped

    def test_adversarial_clamps_with_warning(self):
        # the unclamped beta is kept in the warning and in the bound table
        beta = analytic_bounds(BoundInputs.scalar(1.0, 1.0, 0.9, 0.1)).beta
        assert beta > 0.1
        with pytest.warns(UserWarning, match=re.escape(f"beta={beta:.6g} exceeds gamma=0.1; "
                                                       "clamping")):
            m = AdversarialDelay.from_params(1.0, 1.0, 0.9, 0.1)
        assert m.delay == m.gamma == 0.1
        assert m.sample(0) == pytest.approx(0.1)

    @pytest.mark.parametrize("delay, gamma, message", [
        (-1.0, -2.0, "gamma must be finite and >= 0, got -2.0"),
        ("x", None, "gamma must be a real number, got None"),
        (0.05, math.inf, "gamma must be finite and >= 0, got inf"),
        (0.2, 0.1, "constant delay must lie in [0, gamma=0.1], got 0.2"),
    ], ids=["negative", "not_numbers", "infinite_gamma", "over_gamma"])
    def test_adversarial_built_directly_is_checked(self, delay, gamma, message):
        # AdversarialDelay(beta=-1.0, gamma=-2.0) used to construct and draw -2.0
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            AdversarialDelay(delay=delay, gamma=gamma)
        assert AdversarialDelay(delay=0.05, gamma=0.1).sample(3) == 0.05

    @pytest.mark.parametrize("model", [ConstantDelay, ReplayDelay])
    @pytest.mark.parametrize("gamma", [math.inf, -5.0])
    def test_gamma_range_refused(self, model, gamma):
        # ConstantDelay(0.5, inf) and ReplayDelay((), -5.0) used to construct
        with pytest.raises(ConfigurationError, match=re.escape(
                f"gamma must be finite and >= 0, got {gamma}")):
            model(0.5 if model is ConstantDelay else (), gamma)

    def test_replay(self):
        m = ReplayDelay(delays=(0.1, 0.0, 0.25), gamma=0.3)
        assert [m.sample(k) for k in range(3)] == [0.1, 0.0, 0.25]
        with pytest.raises(ConfigurationError):
            m.sample(3)
        with pytest.raises(ConfigurationError):
            ReplayDelay(delays=(0.5,), gamma=0.3)


class _StrayDelay:
    """A delay model outside its own bound: -0.25 for packet 0, 0.75 after."""

    gamma = 0.5

    def sample(self, k):
        return 0.75 if k else -0.25


@pytest.mark.parametrize("k, delay", [(0, -0.25), (1, 0.75)])
def test_sample_delay_refuses_a_delay_outside_the_bound(k, delay):
    with pytest.raises(ConfigurationError, match=f"delay model produced {delay} outside"):
        sample_delay(_StrayDelay(), k)


class _Drawn:
    gamma = 0.5

    def __init__(self, value):
        self.value = value

    def sample(self, k):
        return self.value


@pytest.mark.parametrize("value", [None, "0.1", True, 1j])
def test_sample_delay_refuses_a_drawn_delay_that_is_no_real_number(value):
    # None and '0.1' raised a bare TypeError, and True passed as a delay of 1
    with pytest.raises(ConfigurationError) as exc:
        sample_delay(_Drawn(value), 0)
    assert str(exc.value) == f"drawn delay must be a real number, got {value!r}"
    assert type(sample_delay(_Drawn(0), 0)) is float


@pytest.mark.parametrize("model", [ReplayDelay((0.05, 0.1), 0.1), UniformDelay(0.1)],
                         ids=["replay", "uniform"])
@pytest.mark.parametrize("k, message", [
    (-1, "packet index k must be >= 0, got -1"),
    (1.5, "packet index k must be an integer, got 1.5"),
    ("1", "packet index k must be an integer, got '1'"),
], ids=["negative", "float", "str"])
def test_bad_packet_index_refused(model, k, message):
    # replay's -1 returned the last delay, uniform's 1.5 raised a bare TypeError and its
    # -1 was reported as -64
    with pytest.raises(ConfigurationError) as exc:
        model.sample(k)
    assert str(exc.value) == message
    assert model.sample(np.int64(1)) == model.sample(1)


def test_replay_delays_stored_as_a_tuple():
    with pytest.raises(ConfigurationError) as exc:
        ReplayDelay(0.05, 0.1)  # raised a bare TypeError
    assert str(exc.value) == "replay delays must be a sequence, got 0.05"
    with pytest.raises(ConfigurationError, match="replay delays must be a sequence"):
        ReplayDelay({0.05, 0.1}, 0.1)
    for delays in ([0.05, 0.1], np.array([0.05, 0.1]), (d for d in (0.05, 0.1))):
        m = ReplayDelay(delays, 0.1)
        assert m.delays == (0.05, 0.1) and hash(m) == hash(ReplayDelay((0.05, 0.1), 0.1))


def numpy_draw(seed, k, gamma):
    """The definition of a uniform delay: numpy's generator seeded with (*seed, k)."""
    return float(np.random.default_rng((*seed, k)).uniform(0.0, gamma))


@pytest.mark.filterwarnings("error")  # the CLI prints any warning as a `warning:` line
class TestUniformBlockKernel:
    KS = (0, 1, 63, 64, 65, 127, 2**32 - 1, 2**32, 2**32 + 63, 2**32 + 64, 2**40 + 5, 2**64 + 1)

    @pytest.mark.parametrize("case", range(40))
    def test_matches_numpy_bit_for_bit(self, case):
        rng = np.random.default_rng([2016, case])
        # 0-4 seed words of 1-70 bits: words >= 2**32 and >= 2**64 (the CLI's u64 seed
        # plus salts) take two or three entropy words each
        seed = tuple(int(rng.integers(2**62)) << int(rng.integers(9)) >> int(rng.integers(62))
                     for _ in range(int(rng.integers(5))))
        seed += (2**64 + int(rng.integers(2**32)),) if case % 4 == 0 else ()
        gamma = 0.0 if case % 10 == 9 else float(rng.uniform(0.0, 2.0))
        ks = self.KS + tuple(int(k) for k in rng.integers(2**34, size=8))
        m = UniformDelay(gamma=gamma, seed=seed)
        for k in ks:
            assert m.sample(k).hex() == numpy_draw(seed, k, gamma).hex(), (seed, k)

    @pytest.mark.parametrize("seed", [(7,), (), (0,), (2**64 - 1,), (2**32, 0, 2**64)])
    def test_short_and_wide_seeds_match_numpy(self, seed):
        m = UniformDelay(gamma=0.7, seed=seed)
        assert [m.sample(k).hex() for k in range(130)] == [
            numpy_draw(seed, k, 0.7).hex() for k in range(130)
        ]

    def test_built_seeds_match_numpy(self):
        for salt in ((), (2, 1)):
            m = build_delay("uniform", 0.3, seed=2**63 + 5, salt=salt)
            assert m.seed == (2**63 + 5, *salt)
            assert [m.sample(k) for k in (0, 63, 64, 65)] == [
                numpy_draw(m.seed, k, 0.3) for k in (0, 63, 64, 65)
            ]

    @pytest.mark.parametrize("seed, k", [((-1,), 0), ((5, -2**40), 0), ((5,), -1)])
    def test_negative_words_refused_as_numpy_refuses_them(self, seed, k):
        with pytest.raises(ValueError):
            numpy_draw(seed, k, 0.5)
        with pytest.raises(ValueError):
            UniformDelay(gamma=0.5, seed=seed).sample(k)

    @pytest.mark.parametrize("seed", [3, (1.5,), (-1,), [1, 2], (1, None)])
    def test_seed_not_a_tuple_of_non_negative_ints_refused(self, seed):
        # seed=3 used to construct and fail at the first draw with a TypeError
        with pytest.raises(ConfigurationError, match="uniform delay seed must be a tuple of ints"):
            UniformDelay(gamma=0.5, seed=seed)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_non_finite_gamma_refused(self, gamma):
        with pytest.raises(OverflowError):
            numpy_draw((1,), 0, gamma)
        with pytest.raises(ConfigurationError, match="gamma must be finite and >= 0"):
            UniformDelay(gamma=gamma)

    def test_negative_gamma_refused_when_built(self):
        # it used to be refused only at a run's first draw, by sample_delay
        with pytest.raises(ConfigurationError,
                           match=re.escape("gamma must be finite and >= 0, got -1.0")):
            UniformDelay(-1.0, (1,))
        assert UniformDelay(0.0, (1,)).sample(0) == 0.0


class TestBuildDelay:
    def test_specs(self):
        assert isinstance(build_delay("constant:0.2", 1.0), ConstantDelay)
        assert isinstance(build_delay("uniform", 1.0, seed=3, salt=(1,)), UniformDelay)
        m = build_delay("fraction:0.5", 2.0)
        assert m.delay == pytest.approx(1.0)
        r = build_delay("replay:0.1,0.2", 1.0)
        assert r.delays == (0.1, 0.2)
        assert build_delay("disabled", 1.0) is None
        adv = build_delay("adversarial", 1.2, growth=1.0, sigma=0.1, rho0=0.1)
        assert isinstance(adv, AdversarialDelay)

    def test_bad_specs(self):
        with pytest.raises(ConfigurationError):
            build_delay("gaussian", 1.0)
        with pytest.raises(ConfigurationError):
            build_delay("adversarial", 1.0)
        with pytest.raises(ConfigurationError):
            build_delay("fraction:1.5", 1.0)
        with pytest.raises(ConfigurationError, match=r"must be a tuple of ints >= 0, got \(-1,\)"):
            build_delay("uniform", 1.0, seed=-1)
        with pytest.raises(ConfigurationError, match=r"tuple of ints >= 0, got \(2\.5,\)"):
            build_delay("uniform", 1.0, seed=2.5)  # once truncated to (2,)


class TestChannelState:
    def test_single_in_flight_discipline(self):
        ch = ChannelState()
        assert ch.admit(0) and ch.admit(1)
        pkt = encode(0.5, +1, 3, 1.1, 1.0)
        ch.send(0, pkt, 1.0)
        assert not ch.admit(0)
        assert ch.admit(1)
        with pytest.raises(ConfigurationError):
            ch.send(0, pkt, 2.0)
        got = ch.deliver(0)
        assert got is pkt
        assert ch.admit(0)

    def test_next_delivery_ordering(self):
        ch = ChannelState()
        ch.send(1, encode(0.0, +1, 1, 1.1, 0.0), 2.0)
        ch.send(0, encode(0.0, +1, 1, 1.1, 0.0), 1.0)
        t_c, coord, _ = ch.next_delivery()
        assert (t_c, coord) == (1.0, 0)
        ch.deliver(0)
        assert ch.next_delivery()[1] == 1

    def test_tie_broken_by_coordinate(self):
        ch = ChannelState()
        ch.send(2, encode(0.0, +1, 1, 1.1, 0.0), 1.0)
        ch.send(1, encode(0.0, +1, 1, 1.1, 0.0), 1.0)
        assert ch.next_delivery()[1] == 1
