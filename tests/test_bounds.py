import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from etcsim import bounds as bnd
from etcsim.errors import ConfigurationError, PreconditionError
from etcsim.model import TriggerConfig

LN2 = math.log(2.0)
RATE_TABLE = Path(__file__).parent / "data" / "rate_table.json"


def scalar(A, sigma, rho0, gamma=0.0, b=1.0001, nu=1.0):
    return bnd.BoundInputs.scalar(A, sigma, rho0, gamma=gamma, b=b, nu=nu)


def random_inputs(rng, gamma_zero_ok=True):
    gamma = float(rng.uniform(0.0 if gamma_zero_ok else 1e-3, 3.0))
    return scalar(
        A=float(rng.uniform(0.05, 8.0)),
        sigma=float(rng.uniform(0.02, 5.0)),
        rho0=float(rng.uniform(0.01, 0.99)),
        gamma=gamma,
        b=float(rng.uniform(1.0001, 2.0)),
        nu=float(rng.uniform(1.0, 8.0)),
    )


class TestAccessRate:
    def test_reported_values(self):
        for args, want in (((5, 3, 0.7), 11.5416), ((2.4, 0.2, 0.5), 3.7512)):
            assert bnd.analytic_bounds(scalar(*args)).access_rate == pytest.approx(want, abs=1e-3)

    def test_classic_limit(self):
        # sigma -> 0 recovers the plain entropy-rate requirement A/ln2
        val = bnd.analytic_bounds(scalar(1.0, 1e-12, 0.5)).access_rate
        assert val == pytest.approx(1.0 / LN2, rel=1e-9)

    def test_vector_uses_trace_and_dimension(self):
        inp = bnd.BoundInputs(blocks=((1.0, 2), (2.0, 1)), sigma=0.5, rho0=0.5, gamma=0.1)
        assert bnd.analytic_bounds(inp).access_rate == pytest.approx((4.0 + 3 * 0.5) / LN2)


class TestPacketBits:
    def test_zero_delay_clamps(self):
        assert bnd.analytic_bounds(scalar(1.0, 0.5, 0.7, gamma=0.0)).packet_bits_necessary == 0.0

    def test_boundary_at_critical_delay(self):
        inp = scalar(5.0, 3.0, 0.7, gamma=0.0864)
        # just past the transition: the bit requirement is barely positive
        assert 0.0 <= bnd.analytic_bounds(inp).packet_bits_necessary < 2e-3

    def test_equilibrium_limit(self):
        # rho0 -> 1, sigma -> 0 at gamma = ln2/A gives log2(1/1) = 0+
        inp = scalar(1.0, 1e-9, 0.999999, gamma=LN2)
        assert bnd.analytic_bounds(inp).packet_bits_necessary == pytest.approx(0.0, abs=1e-4)

    def test_matches_unclamped_formula(self):
        inp = scalar(2.0, 1.0, 0.3, gamma=0.8)
        direct = math.log2((math.exp(2.0 * 0.8) - 1.0) / (0.3 * math.exp(-0.8)))
        assert bnd.analytic_bounds(inp).packet_bits_necessary == pytest.approx(direct, rel=1e-12)

    def test_large_delay_no_overflow(self):
        inp = scalar(3.0, 1.0, 0.5, gamma=400.0)
        val = bnd.analytic_bounds(inp).packet_bits_necessary
        assert math.isfinite(val)
        assert val == pytest.approx((3 * 400 + 1 * 400 - math.log(0.5)) / LN2, rel=1e-9)


class TestTriggeringRates:
    def test_upper_plug_in(self):
        inp = scalar(1.0, 0.5, 0.7, gamma=0.0)
        expect = 1.5 / (-math.log(0.7))
        assert bnd.analytic_bounds(inp).triggering_rate_upper == pytest.approx(expect, rel=1e-12)

    def test_upper_decreases_with_delay(self):
        vals = [bnd.analytic_bounds(scalar(1.0, 0.5, 0.7, gamma=g)).triggering_rate_upper
                for g in np.linspace(0, 3, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_upper_blows_up_as_rho_to_one(self):
        table = bnd.analytic_bounds(scalar(1.0, 0.5, 1 - 1e-12, gamma=0.0))
        assert table.triggering_rate_upper > 1e9

    def test_lower_plug_in(self):
        inp = scalar(1.0, 0.5, 0.7, gamma=0.0, nu=1.0)
        expect = 1.5 / math.log(2.0 + 1.0 / 0.7)
        assert bnd.analytic_bounds(inp).triggering_rate_lower == pytest.approx(expect, rel=1e-12)

    def test_lower_decreases_with_precision(self):
        vals = [bnd.analytic_bounds(scalar(1.0, 0.5, 0.7, gamma=0.2, nu=nu)).triggering_rate_lower
                for nu in (1.0, 2.0, 4.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_min_inter_event_inverse(self):
        table = bnd.analytic_bounds(scalar(1.0, 0.5, 0.7, gamma=0.3))
        assert table.min_inter_event_time == pytest.approx(
            1.0 / table.triggering_rate_upper, rel=1e-12
        )


class TestTransmissionRateNecessary:
    def test_zero_below_critical_delay(self):
        inp = scalar(5.0, 3.0, 0.7, nu=2.0)
        gc = bnd.analytic_bounds(inp).gamma_c
        assert bnd.analytic_bounds(inp._replace(gamma=0.9 * gc)).rate_necessary == 0.0
        assert bnd.analytic_bounds(inp._replace(gamma=1.1 * gc)).rate_necessary > 0.0

    def test_factor_product_cross_check(self):
        table = bnd.analytic_bounds(scalar(5.0, 3.0, 0.7, gamma=0.2, nu=2.0))
        product = table.triggering_rate_lower * table.packet_bits_necessary
        assert table.rate_necessary == pytest.approx(product, rel=1e-12)

    def test_kernel_bitwise_equals_factor_product(self):
        # the rate kernel inlines packet_bits_necessary's formula; any drift changes some bits
        rng = np.random.default_rng(2016)
        cases = [random_inputs(rng) for _ in range(400)]
        cases += [inp._replace(nu=1.0) for inp in cases[:100]]
        cases += [inp._replace(gamma=0.0) for inp in cases[:20]]
        cases += [  # packet bits just above and at their clamp to 0
            inp._replace(gamma=bnd.analytic_bounds(inp).gamma_c * f)
            for inp in cases[:50] for f in (1 - 1e-9, 1 + 1e-9, 1 + 1e-6)
        ]
        cases += [  # (sigma + A)*gamma >= 700
            inp._replace(gamma=float(rng.uniform(700.0, 2000.0)) / (inp.A + inp.sigma))
            for inp in cases[:100]
        ]
        for inp in cases:
            table = bnd.analytic_bounds(inp)
            trig, bits = table.triggering_rate_lower, table.packet_bits_necessary
            assert table.rate_necessary.hex() == (trig * bits).hex(), inp
            p = int(rng.integers(2, 7))
            block = inp._replace(blocks=((inp.A, p),))
            got = bnd.analytic_bounds(block).rate_necessary
            assert got.hex() == (p * trig * bits).hex(), (inp, p)

    def test_two_identical_blocks_double_scalar(self):
        one = scalar(1.5, 0.8, 0.4, gamma=0.9, nu=2.0)
        two = bnd.BoundInputs(blocks=((1.5, 1), (1.5, 1)), sigma=0.8, rho0=0.4,
                              gamma=0.9, b=1.0001, nu=2.0)
        assert bnd.analytic_bounds(two).rate_necessary == pytest.approx(
            2.0 * bnd.analytic_bounds(one).rate_necessary, rel=1e-12
        )

    def test_block_multiplicity(self):
        blk = bnd.BoundInputs(blocks=((1.5, 3),), sigma=0.8, rho0=0.4, gamma=0.9, nu=2.0)
        one = scalar(1.5, 0.8, 0.4, gamma=0.9, nu=2.0)
        assert bnd.analytic_bounds(blk).rate_necessary == pytest.approx(
            3.0 * bnd.analytic_bounds(one).rate_necessary, rel=1e-12
        )


class TestTransmissionRateApprox:
    def test_equilibrium_matches_access_rate(self):
        for A, sigma, rho in ((1.0, 0.5, 0.3), (2.4, 0.2, 0.1), (5.0, 3.0, 0.7)):
            table = bnd.analytic_bounds(scalar(A, sigma, rho, gamma=LN2 / A))
            assert table.rate_necessary_approx == pytest.approx(table.access_rate, rel=1e-12)

    def test_asymptote_at_moderate_depth(self):
        # convergence is O(log(gamma)/gamma): a few percent at gamma = 50/A
        table = bnd.analytic_bounds(scalar(1.0, 1.0, 0.5, gamma=50.0))
        assert table.rate_necessary_approx == pytest.approx(table.asymptote, rel=0.01)

    def test_deep_asymptote_figure_parameters(self):
        for A, sigma, rho in ((1.0, 0.5, 0.5), (1.3, 1.0, 0.9), (2.4, 0.2, 0.1)):
            table = bnd.analytic_bounds(scalar(A, sigma, rho, gamma=5000.0 / A))
            assert table.rate_necessary_approx == pytest.approx(table.asymptote, rel=0.01)

    def test_ordering_swap_across_equilibrium(self):
        # smaller rho0 costs more rate below ln2/A and less above it
        below = [bnd.analytic_bounds(scalar(1.0, 0.5, r, gamma=0.3)).rate_necessary_approx
                 for r in (0.1, 0.9)]
        above = [bnd.analytic_bounds(scalar(1.0, 0.5, r, gamma=2.0)).rate_necessary_approx
                 for r in (0.1, 0.9)]
        assert below[0] > below[1]
        assert above[0] < above[1]


class TestTransmissionRateSufficient:
    def test_zero_delay_clamps(self):
        assert bnd.analytic_bounds(scalar(1.0, 1.0, 0.5, gamma=0.0)).rate_sufficient == 0.0

    def test_figure_caption_asymptotes(self):
        # the asymptote values quoted for the curve families
        for args, want in (((1.0, 1.0, 0.5), 5.7708), ((1.3, 1.0, 0.9), 7.6319),
                           ((1.0, 0.5, 0.5), 6.4921)):
            assert bnd.analytic_bounds(scalar(*args)).asymptote == pytest.approx(want, abs=1e-3)

    def test_convergence_to_asymptote(self):
        inp = scalar(1.0, 1.0, 0.5, b=1.0001)
        asym = bnd.analytic_bounds(inp).asymptote
        gaps = [abs(bnd.analytic_bounds(inp._replace(gamma=g)).rate_sufficient - asym) / asym
                for g in (50.0, 200.0, 1000.0)]
        assert gaps[0] < 0.05 and gaps[1] < 0.02 and gaps[2] < 0.005
        assert gaps[0] > gaps[1] > gaps[2]

    def test_dominates_approx_necessary_on_figure_grid(self):
        inp = scalar(1.3, 1.0, 0.9, b=1.0001, nu=2.0)
        for g in np.linspace(0.02, 4.0, 200):
            table = bnd.analytic_bounds(inp._replace(gamma=float(g)))
            assert table.rate_sufficient >= table.rate_necessary_approx * (1 - 1e-12)

    def test_vector_sums_ladder_terms(self):
        inp = bnd.BoundInputs(blocks=((1.0, 2),), sigma=1.0, rho0=0.5, gamma=0.4,
                              b=1.0001, rho_ladders=((0.25, 0.5),))
        by_hand = 0.0
        for rho in (0.25, 0.5):
            term = 1.0 + math.log2(
                1.0001 * 0.4 * 2.0 / math.log1p(rho * math.exp(-2.0 * 0.4))
            )
            by_hand += 2.0 / (0.4 - math.log(0.5)) * max(0.0, term)
        assert bnd.analytic_bounds(inp).rate_sufficient == pytest.approx(by_hand, rel=1e-12)


class TestCriticalDelay:
    def test_figure_value(self):
        assert bnd.analytic_bounds(scalar(5.0, 3.0, 0.7)).gamma_c == pytest.approx(0.0864, abs=1e-3)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            inp = random_inputs(rng)
            gc = bnd._critical_delay(inp.A, inp.sigma, inp.rho0)
            res = math.exp(inp.A * gc) - inp.rho0 * math.exp(-inp.sigma * gc) - 1.0
            assert abs(res) <= 1e-8
            assert 0.0 < gc < LN2 / inp.A

    def test_limit_toward_equilibrium(self):
        inp = scalar(1.0, 1e-9, 1 - 1e-9)
        assert bnd.analytic_bounds(inp).gamma_c == pytest.approx(LN2, abs=1e-6)

    def test_vanishes_with_rho(self):
        assert bnd.analytic_bounds(scalar(1.0, 1.0, 1e-9)).gamma_c == pytest.approx(0.0, abs=1e-6)

    def test_below_equilibrium_delay(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            table = bnd.analytic_bounds(random_inputs(rng))
            assert table.gamma_c < table.gamma_eq


class TestSmallFormulas:
    def test_equilibrium_delay_values(self):
        for A, want in ((5.0, 0.1386), (1.0, 0.6931)):
            gamma_eq = bnd.analytic_bounds(scalar(A, 0.5, 0.5)).gamma_eq
            assert gamma_eq == pytest.approx(want, abs=1e-3)

    def test_beta_plug_in(self):
        val = bnd.analytic_bounds(scalar(1.0, 1.0, 0.5, gamma=0.0)).beta
        assert val == pytest.approx(LN2, rel=1e-12)
        val = bnd.analytic_bounds(scalar(1.0, 0.1, 0.1, gamma=1.2)).beta
        assert val == pytest.approx(math.log1p(0.2 * math.exp(-0.12)), rel=1e-12)

    def test_time_quantization_tolerance(self):
        tol = bnd.analytic_bounds(scalar(1.0, 0.1, 0.1, gamma=1.2)).time_quantization_tolerance
        expect = math.log1p(0.1 * math.exp(-1.1 * 1.2)) / 1.1
        assert tol == pytest.approx(expect, rel=1e-12)
        assert tol == pytest.approx(0.02397, abs=1e-4)

    def test_tolerance_limits(self):
        tiny_rho = bnd.analytic_bounds(scalar(1.0, 1.0, 1e-12, gamma=0.5))
        long_delay = bnd.analytic_bounds(scalar(1.0, 1.0, 0.5, gamma=200.0))
        assert tiny_rho.time_quantization_tolerance < 1e-11
        assert long_delay.time_quantization_tolerance < 1e-10


class TestPacketSizeSufficient:
    def test_example_configuration(self):
        inp = scalar(1.0, 0.1, 0.1, gamma=1.2, b=1.0001)
        assert bnd.analytic_bounds(inp).packet_size_sufficient == 7

    def test_tiny_delay_clamps_to_sign_bit(self):
        for gamma in (1e-5, 0.0):
            table = bnd.analytic_bounds(scalar(1.0, 0.1, 0.1, gamma=gamma))
            assert table.packet_size_sufficient == 1

    def test_monotone_beyond_clamp(self):
        inp = scalar(2.4, 0.2, 0.1, b=1.0001)
        gs = [bnd.analytic_bounds(inp._replace(gamma=g)).packet_size_sufficient
              for g in np.linspace(1e-4, 3.0, 400)]
        assert all(a <= b for a, b in zip(gs, gs[1:]))

    def test_meets_real_valued_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            inp = random_inputs(rng, gamma_zero_ok=False)
            g = bnd.analytic_bounds(inp).packet_size_sufficient
            u = (inp.A + inp.sigma) * inp.gamma
            need = 1.0 + math.log2(
                inp.b * inp.gamma * (inp.A + inp.sigma)
                / math.log1p(inp.rho0 * math.exp(-u))
            )
            assert g >= max(0.0, need) - 1e-9
            assert g >= 1


class TestAssumption1Window:
    def test_requires_nu_and_g(self):
        inp = scalar(1.0, 1.0, 0.5, gamma=0.5, nu=1.0)
        with pytest.raises(PreconditionError):
            bnd.assumption1_window(inp, 4)
        with pytest.raises(PreconditionError):
            bnd.assumption1_window(inp._replace(nu=4.0), 1)
        with pytest.raises(PreconditionError, match="needs a positive delay bound"):
            bnd.assumption1_window(inp._replace(nu=4.0, gamma=0.0), 4)
        # a fractional g used to reach ldexp's TypeError
        with pytest.raises(PreconditionError, match="must be an integer number of bits, got 3.5"):
            bnd.assumption1_window(inp._replace(nu=4.0), 3.5)
        # 4.0 used to run as 4 bits; a packet size is an int, as at the codec
        with pytest.raises(PreconditionError, match="must be an integer number of bits, got 4.0"):
            bnd.assumption1_window(inp._replace(nu=4.0), 4.0)

    def test_lower_bound_gate(self):
        inp = scalar(1.0, 1.0, 0.5, gamma=0.5, b=1.0001, nu=4.0)
        assert not bnd.assumption1_window(inp, 2).lower_ok
        assert bnd.assumption1_window(inp, 8).lower_ok

    def test_upper_bound_finite(self):
        inp = scalar(1.0, 1.0, 0.5, gamma=0.5, b=1.0001, nu=2.0)
        assert not bnd.assumption1_window(inp, 30).upper_ok

    def test_expansion_holds_for_fine_cells(self):
        inp = scalar(1.0, 1.0, 0.5, gamma=0.5, b=1.0001, nu=4.0)
        assert bnd.assumption1_window(inp, 12).expansion_ok
        assert not bnd.assumption1_window(inp, 2).expansion_ok


class TestCascadeBound:  # the coupling caps of the chained levels, Coordinate.cap
    def test_first_order_block_has_no_caps(self):
        (co,) = bnd.coordinates(scalar(1.0, 1.0, 0.5, gamma=0.1), (1.0,))
        assert co.cap == math.inf
        assert co.envelope == pytest.approx(math.exp(0.2))

    def test_zero_delay_cap_is_infinite(self):
        inp = bnd.BoundInputs(blocks=((1.0, 2),), sigma=1.0, rho0=0.5, gamma=0.0,
                              rho_ladders=((0.25, 0.5),))
        assert [co.cap for co in bnd.coordinates(inp, (1.0, 5.0))] == [math.inf, math.inf]

    def test_worked_example(self):
        inp = bnd.BoundInputs(blocks=((1.0, 2),), sigma=1.0, rho0=0.5, gamma=0.1,
                              rho_ladders=((0.25, 0.5),))
        head, chained = bnd.coordinates(inp, (1.0, 0.5))
        E = math.exp(0.2)
        expect = 1.0 * 2.0 * 0.25 / ((0.25 + E) * (E - 1.0))
        assert head.cap == math.inf
        assert chained.cap == pytest.approx(expect, rel=1e-12)
        assert chained.cap == pytest.approx(1.5348, abs=1e-3)
        assert (head.envelope, chained.envelope) == (pytest.approx(0.25 + E), pytest.approx(E))

    def test_saturated_ladder_rejected(self):
        # a ladder value at rho0 before the chain end leaves no coupling slack
        with pytest.raises(ConfigurationError, match="ladder must be strictly increasing"):
            bnd.contraction_ladders(0.5, [2], ((0.5, 0.5),))


class TestRealNumbers:
    # a number argument is an int or a float, numpy's scalars too, never a bool or a str

    @pytest.mark.parametrize("value", [True, "0.5", None, 1j, np.bool_(True)])
    def test_non_real_refused_before_the_range(self, value):
        with pytest.raises(ConfigurationError) as exc:
            scalar(1.0, value, 0.5)
        assert str(exc.value) == f"sigma must be a real number, got {value!r}"
        with pytest.raises(ConfigurationError) as exc:
            scalar(value, 1.0, 0.5)
        assert str(exc.value) == f"eigenvalue must be a real number, got {value!r}"

    def test_numpy_scalars_and_ints_admitted(self):
        assert scalar(np.float32(1.5), np.int64(1), np.float64(0.5)) == scalar(1.5, 1.0, 0.5)

    def test_grids_of_any_real_type_give_the_same_curves(self):
        inp = scalar(1.3, 1.0, 0.9, nu=2.0)
        want = bnd.phase_curves(inp, [0.0, 0.5, 2.0], sigma_grid=[1.0, 2.0])
        for gammas, sigmas in (([0, 0.5, 2], [1, 2]), (np.array([0.0, 0.5, 2.0]), np.arange(1, 3)),
                               ((np.float32(0), 0.5, np.int8(2)), iter([1.0, 2.0]))):
            assert bnd.phase_curves(inp, gammas, sigma_grid=sigmas) == want

    def test_grid_refused_at_its_first_bad_value_past_float_range(self):
        # an int past float range fails float(), but only after the earlier value's rule
        inp = scalar(1.3, 1.0, 0.9, nu=2.0)
        with pytest.raises(ConfigurationError, match="gamma must be finite and >= 0, got -1"):
            bnd.phase_curves(inp, [0.5, -1, 10**400])
        with pytest.raises(ConfigurationError, match="gamma must be a real number, got True"):
            bnd.phase_curves(inp, [0.5, True])


class TestLadderShapes:
    # each level is read once, by both constructors: an iterable of iterables of real
    # numbers is a ladder set, and any other shape is one ConfigurationError
    SHAPE = "rho_ladders must be per-block sequences of real numbers, got "
    BUILDERS = {
        "BoundInputs": lambda ladders: bnd.BoundInputs(
            blocks=((1.0, 2),), sigma=1.0, rho0=0.5, gamma=0.1, rho_ladders=ladders),
        "TriggerConfig": lambda ladders: TriggerConfig(
            v0=1.0, sigma=1.0, rho0=0.5, gamma=0.1, rho_ladders=ladders),
    }

    @pytest.mark.parametrize("builder", list(BUILDERS))
    @pytest.mark.parametrize("ladders", [
        [0.5], 0.5, [[0.25, "a"]], [[None]], [[0.25, True]], [[0.25, 0.5j]],
    ], ids=["number_as_ladder", "number_as_ladders", "str", "none", "bool", "complex"])
    def test_wrong_shape_refused(self, builder, ladders):
        with pytest.raises(ConfigurationError) as exc:
            self.BUILDERS[builder](ladders)
        assert str(exc.value) == self.SHAPE + repr(ladders)

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_empty_ladder_has_its_own_message(self, builder):
        for ladders in ([()], [[0.25, 0.5], []]):
            with pytest.raises(ConfigurationError) as exc:
                self.BUILDERS[builder](ladders)
            assert str(exc.value) == "a ladder needs at least one value, got an empty one"

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_iterators_are_read_once(self, builder):
        build = self.BUILDERS[builder]
        want = build(((0.25, 0.5),)).rho_ladders
        assert want == ((0.25, 0.5),)
        assert build(lad for lad in [[0.25, 0.5]]).rho_ladders == want  # a generator of ladders
        assert build([iter([0.25, 0.5])]).rho_ladders == want  # an iterator as a ladder
        assert build([np.array([0.25, 0.5])]).rho_ladders == want  # numpy's floats are real


class TestCoordinates:
    # the plant and design of tests/data/vector_ladder.cfg
    LADDER = bnd.BoundInputs(blocks=((0.8, 3), (2.0, 1)), sigma=1.0, rho0=0.5, gamma=0.1,
                             nu=2.0, rho_ladders=((0.1, 0.3, 0.5), (0.5,)))
    LEVELS = (0.4, 0.05, 0.004, 0.5)

    def test_each_field_matches_its_formula(self):
        inp = self.LADDER
        table = bnd.coordinates(inp, self.LEVELS)
        ladders = bnd.contraction_ladders(inp.rho0, (3, 1), inp.rho_ladders)
        rows = [(lam, start, p, i, ladder)
                for (lam, p), start, ladder in zip(inp.blocks, (0, 3), ladders) for i in range(p)]
        assert len(table) == inp.n == len(rows)
        for co, v0, (lam, start, p, i, ladder) in zip(table, self.LEVELS, rows):
            rho = ladder[i]
            assert (co.lam, co.start, co.order, co.index) == (lam, start, p, i)
            assert (co.rho, co.v0) == (rho, v0)
            ls = lam + inp.sigma
            assert co.envelope == (inp.rho0 - rho) + math.exp(ls * inp.gamma)
            if i == 0:
                assert co.cap == math.inf
            else:  # the slack of the coordinate above absorbs this one's coupling
                slack, E = inp.rho0 - ladder[i - 1], math.exp(ls * inp.gamma)
                v_above = self.LEVELS[start + i - 1]
                assert co.cap == v_above * ls * slack / ((slack + E) * math.expm1(ls * inp.gamma))
            alone = bnd.BoundInputs.scalar(lam, inp.sigma, rho, gamma=inp.gamma, b=inp.b, nu=inp.nu)
            at_rho0 = bnd.analytic_bounds(alone._replace(rho0=inp.rho0))
            assert co.g == bnd.analytic_bounds(alone).packet_size_sufficient
            # every coordinate's tolerance is the scalar one at (lam, rho0), bit for bit
            assert co.tolerance == at_rho0.time_quantization_tolerance
            if i == p - 1:  # a chain end regrows from rho0 alone
                assert co.spacing == at_rho0.min_inter_event_time
            else:
                ls, slack = lam + inp.sigma, inp.rho0 - rho
                c = slack / math.expm1(ls * inp.gamma)
                want = math.log((1 + c) / (rho * math.exp(-inp.sigma * inp.gamma) + slack + c)) / ls
                assert co.spacing == pytest.approx(want, rel=1e-12)
                assert 0 < co.spacing < at_rho0.min_inter_event_time
        assert [co.g for co in table] == [3, 1, 1, 1]

    def test_one_level_applies_to_every_coordinate(self):
        table = bnd.coordinates(self.LADDER._replace(rho_ladders=None), (0.01,))
        assert [co.v0 for co in table] == [0.01] * 4
        assert [co.rho for co in table] == [0.5 / 3, 0.5 * 2 / 3, 0.5, 0.5]

    @pytest.mark.parametrize("levels, message", [
        ((0.4, 0.05, 0.004), "need one trigger level per coordinate (4), got 3"),
        ((0.4, 1.0, 0.004, 0.5),
         "trigger level v0=1.0 for chained coordinate 1 exceeds its coupling cap 0.914289"),
        ((0.4, 0.05, 0.1, 0.5),
         "trigger level v0=0.1 for chained coordinate 2 exceeds its coupling cap 0.0653226"),
    ], ids=["level_count", "cap_coordinate_1", "cap_coordinate_2"])
    def test_refusals(self, levels, message):
        with pytest.raises(ConfigurationError) as exc:
            bnd.coordinates(self.LADDER, levels)
        assert str(exc.value) == message


class TestBoundInputsRecord:
    # a NamedTuple whose every way to a new record runs the constructor's checks
    BASE = TestCoordinates.LADDER
    BAD_LADDERS = ((0.1, 0.3, 0.4), (0.5,))  # the first does not end at rho0

    @staticmethod
    def refusal(build) -> str:
        with pytest.raises(ConfigurationError) as exc:
            build()
        return str(exc.value)

    @pytest.mark.parametrize("change", [
        dict(gamma=-1.0), dict(blocks=((0.8, 2.5), (2.0, 1))), dict(rho0=1.0),
        dict(rho_ladders=BAD_LADDERS),
    ], ids=["gamma", "fractional_order", "rho0_one", "ladder"])
    def test_replace_and_make_refuse_as_the_constructor(self, change):
        fields = {**self.BASE._asdict(), **change}
        messages = {self.refusal(build) for build in (
            lambda: bnd.BoundInputs(**fields),
            lambda: self.BASE._replace(**change),
            lambda: bnd.BoundInputs._make(fields.values()),
        )}
        assert len(messages) == 1, messages

    def test_checks_blocks_then_ranges_then_ladders(self):
        assert self.refusal(lambda: self.BASE._replace(
            blocks=((0.8, 2.5), (2.0, 1)), gamma=-1.0,
        )) == "block order must be a positive integer, got 2.5"
        assert self.refusal(lambda: self.BASE._replace(
            gamma=-1.0, rho_ladders=self.BAD_LADDERS,
        )) == "gamma must be finite and >= 0, got -1.0"

    def test_ladders_stored_as_tuples(self):
        # [[0.25, 0.5]] used to be kept as given: unequal to the tuple form, and unhashable
        lists = bnd.BoundInputs(blocks=[(1.0, 2)], sigma=1.0, rho0=0.5, gamma=0.1,
                                rho_ladders=[[0.25, 0.5]])
        tuples = bnd.BoundInputs(blocks=((1.0, 2),), sigma=1.0, rho0=0.5, gamma=0.1,
                                 rho_ladders=((0.25, 0.5),))
        assert lists.rho_ladders == ((0.25, 0.5),) and type(lists.rho_ladders[0]) is tuple
        assert lists == tuples and hash(lists) == hash(tuples)

    def test_pickle_and_copy_keep_the_record_and_its_checks(self):
        for twin in (pickle.loads(pickle.dumps(self.BASE)), copy.deepcopy(self.BASE),
                     copy.copy(self.BASE)):
            assert twin == self.BASE and type(twin) is bnd.BoundInputs
        unchecked = tuple.__new__(bnd.BoundInputs, (*self.BASE[:-1], self.BAD_LADDERS))
        for restore in (lambda: pickle.loads(pickle.dumps(unchecked)),
                        lambda: copy.deepcopy(unchecked)):
            assert self.refusal(restore) == "ladder must end at rho0=0.5, got (0.1, 0.3, 0.4)"


class TestUncertaintyIntervalInclusion:
    def test_sensor_interval_inside_controller_interval(self):
        # positive branch endpoints: [v(ts), v(ts) e^{A g}] vs [v(tc), v(tc) e^{(A+s)g}]
        rng = np.random.default_rng(21)
        for _ in range(500):
            A = float(rng.uniform(0.1, 4.0))
            sigma = float(rng.uniform(0.05, 2.0))
            gamma = float(rng.uniform(0.01, 2.0))
            v0 = float(rng.uniform(0.1, 2.0))
            ts = float(rng.uniform(0.0, 5.0))
            tc = ts + float(rng.uniform(0.0, gamma))
            v_ts = v0 * math.exp(-sigma * ts)
            v_tc = v0 * math.exp(-sigma * tc)
            assert v_tc <= v_ts * (1 + 1e-12)
            assert v_ts * math.exp(A * gamma) <= v_tc * math.exp((A + sigma) * gamma) * (1 + 1e-12)


def _rate_table_cases():
    """(inputs, sigma grid, rows) per case of rate_table.json, rows as float.hex strings."""
    table = json.loads(RATE_TABLE.read_text())
    for case in table["cases"]:
        f = float.fromhex
        ladders = case["rho_ladders"]
        inp = bnd.BoundInputs(
            blocks=tuple((f(lam), p) for lam, p in case["blocks"]),
            sigma=f(case["sigma"]), rho0=f(case["rho0"]), gamma=0.0,
            b=f(case["b"]), nu=f(case["nu"]),
            rho_ladders=None if ladders is None else tuple(tuple(map(f, lad)) for lad in ladders),
        )
        yield inp, [f(s) for s in case["sigma_grid"]], case["rows"]


class TestRateTable:
    """The rates bit for bit as recorded (tests/data/make_rate_table.py), not as recomputed."""

    def test_table_covers_the_edge_cases(self):
        cases = list(_rate_table_cases())
        gammas = [(inp, float.fromhex(r[0])) for inp, _, rows in cases for r in rows]
        assert len(gammas) >= 290
        assert any(g == 0.0 for _, g in gammas)
        assert any(inp.rho_ladders and len(inp.blocks) > 1 for inp, _, _ in cases)
        assert any(inp.nu == 1.0 for inp, _, _ in cases)
        assert any(len(sigmas) == 50 for _, sigmas, _ in cases)
        assert any((inp.sigma + min(lam for lam, _ in inp.blocks)) * g >= 700 for inp, g in gammas)
        near_gc = [
            g for inp, g in gammas
            if len({lam for lam, _ in inp.blocks}) == 1 and g
            and abs(g - bnd.analytic_bounds(inp).gamma_c) <= 1e-9
        ]
        assert len(near_gc) >= 30
        # a supremum above the necessary rate at both ends of its sigma grid
        interior = [
            (inp, g) for inp, sigmas, rows in cases for g, sup in
            ((float.fromhex(r[0]), float.fromhex(r[4])) for r in rows)
            if all(bnd.analytic_bounds(inp._replace(gamma=g, sigma=s)).rate_necessary < sup
                   for s in (min(sigmas), max(sigmas)))
        ]
        assert interior
        assert any(inp.rho0 <= 1e-300 and 0 < g <= 1e-299 for inp, g in gammas)

    def test_point_functions_match(self):
        # the bound table evaluated at each delay on its own, one delay per kernel call
        for inp, sigmas, rows in _rate_table_cases():
            for row in rows:
                at = inp._replace(gamma=float.fromhex(row[0]))
                table = bnd.analytic_bounds(at)
                got = [
                    table.rate_necessary, table.rate_necessary_approx, table.rate_sufficient,
                    max(bnd.analytic_bounds(at._replace(sigma=s)).rate_necessary for s in sigmas),
                ]
                assert list(map(float.hex, got)) == row[1:], (inp, row[0])

    def test_sup_certificate_absolute_margin(self):
        # one block, lam = 1, p = 1, on [lo, hi] = [0.1, 1.0] at gamma = 0.5, nu = 2,
        # rho0 = 0.5: the bound as the docstring's float operations give it. A best just
        # above the relative margin alone certifies nothing; with the absolute margin
        # (lam + hi)*1e-14 added, it certifies, with equality
        lam, p, gamma, lo, hi, rho0 = 1.0, 1, 0.5, 0.1, 1.0, 0.5
        ln_em1, ln_nu, ln_rho0 = bnd._ln_em1(lam, gamma), math.log(2.0), math.log(rho0)
        x_lo, x_hi = lo * gamma - ln_rho0, hi * gamma - ln_rho0
        d = ln_nu + math.log1p(2.0 * rho0 * math.exp(-hi * gamma))
        bound = p * max(0.0, (lam + lo) * (ln_em1 + x_lo) / (d + x_lo),
                        (lam + hi) * (ln_em1 + x_hi) / (d + x_hi))
        terms = [(lam, p, ln_em1)]

        def certified(best):
            return bnd._sup_certified(terms, gamma, lo, hi, ln_nu, rho0, ln_rho0, best)

        assert not certified(bound * (1 + 1e-12) / LN2)
        assert certified((bound * (1 + 1e-12) + (lam + hi) * 1e-14) / LN2)

    def test_phase_curves_match(self):
        for inp, sigmas, rows in _rate_table_cases():
            pc = bnd.phase_curves(inp, [float.fromhex(r[0]) for r in rows], sigma_grid=sigmas)
            columns = (pc.necessary, pc.necessary_approx, pc.sufficient, pc.necessary_sup_sigma)
            for k, column in enumerate(columns, start=1):
                assert list(map(float.hex, column)) == [r[k] for r in rows], (inp, k)
