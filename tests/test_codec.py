import math
import re
import sys

import numpy as np
import pytest

from etcsim import bounds as bnd
from etcsim.channel import ConstantDelay
from etcsim.codec import Packet, cell_width, check_resolvable, decode, encode, reconstruct_error
from etcsim.errors import DecodeError, PreconditionError
from etcsim.model import JordanPlant, TriggerConfig
from etcsim.sim import run_vector


_WINDOW_INPUTS = bnd.BoundInputs.scalar(1.0, 1.0, 0.5, gamma=0.5, nu=4.0)
# each path that takes a packet size, called with a g and otherwise valid arguments
_PACKET_SIZE_PATHS = {
    "run_vector": lambda g: run_vector(
        JordanPlant.scalar(A=1.0, B=0.2, K=8.0),
        TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001),
        ConstantDelay(0.0, gamma=1.2), 1.0, 0.001, x0=0.15, xhat0=0.15, g=g),
    "encode": lambda g: encode(0.5, +1, g, 1.0001, 1.0),
    "Packet": lambda g: Packet(0, g, 0.0),
    "check_resolvable": lambda g: check_resolvable(g, 1.0001, 1.2, 7.0),
    "assumption1_window": lambda g: bnd.assumption1_window(_WINDOW_INPUTS, g),
}


@pytest.mark.parametrize("path", _PACKET_SIZE_PATHS)
@pytest.mark.parametrize("g, message", [
    (3.0, "packet size must be an integer number of bits, got 3.0"),
    (np.int64(3), "packet size must be an integer number of bits, got 3"),
    (True, "packet size must be an integer number of bits, got True"),
    (0, "packet size must lie in [1, 2100] bits, got 0"),
    (2101, "packet size must lie in [1, 2100] bits, got 2101"),
], ids=["float", "numpy_int", "bool", "zero", "past_cap"])
def test_one_packet_size_rule(path, g, message):
    # run_vector used to run 3.0 and np.int64(3) as 3 bits and True as 1 bit,
    # assumption1_window to take 3.0 as 3, and check_resolvable to call 2101 too fine
    with pytest.raises(PreconditionError) as refused:
        _PACKET_SIZE_PATHS[path](g)
    assert str(refused.value) == message


# each packet path with one argument a bool, and the name its refusal gives it
_BOOL_ARGUMENTS = {
    "encode_t_s": (lambda: encode(True, +1, 3, 1.0001, 1.0), "send time must be a real number"),
    "encode_gamma": (lambda: encode(0.5, +1, 3, 1.0001, True), "gamma must be a real number"),
    "encode_sign": (lambda: encode(0.5, True, 3, 1.0001, 1.0), "sign must be +1 or -1"),
    "decode_t_c": (lambda: decode(encode(0.5, 1, 3, 1.0001, 1.0), True, 1.0001, 1.0),
                   "reception time must be a real number"),
    "reconstruct_sign": (lambda: reconstruct_error(True, 0.5, 1.0, 0.1, 0.1, 1.0),
                         "sign must be a real number"),
    "reconstruct_v0": (lambda: reconstruct_error(1, 0.5, 1.0, True, 0.1, 1.0),
                       "v0 must be a real number"),
    "Packet_t_s": (lambda: Packet(5, 3, True), "send time must be a real number"),
}


@pytest.mark.parametrize("path", _BOOL_ARGUMENTS)
def test_packet_paths_refuse_a_bool(path):
    # a bool is an int to Python's arithmetic, but no number argument of etcsim's
    call, message = _BOOL_ARGUMENTS[path]
    with pytest.raises(PreconditionError, match=re.escape(message)):
        call()


def test_packet_paths_admit_ints_and_numpy_scalars():
    packet = encode(np.float32(0.5), np.int64(1), 3, 2, np.float64(1.0))
    assert packet == encode(0.5, 1, 3, 2.0, 1.0)
    assert decode(packet, np.float64(1.0), 2, 1) == decode(packet, 1.0, 2.0, 1.0)
    assert reconstruct_error(np.int8(-1), 0.5, 1, 0.1, 0, 1) == reconstruct_error(
        -1, 0.5, 1.0, 0.1, 0.0, 1.0)


class TestEncode:
    def test_first_cell(self):
        pkt = encode(0.0, +1, 3, 2.0, 1.0)
        assert (pkt.word, pkt.g) == (0, 3)
        assert pkt.sign == 1

    def test_worked_example(self):
        # t_s = 1.0, g = 8, b = 1.0001, gamma = 1.2: cell index 53 of 64
        pkt = encode(1.0, +1, 8, 1.0001, 1.2)
        # sign 0, window parity 0, sub-cell index 110101
        assert (pkt.word, pkt.g) == (0b00110101, 8)
        delta = cell_width(8, 1.0001, 1.2)
        assert math.floor((1.0 % (1.0001 * 1.2)) / delta) == 53

    def test_cell_width_scales_exactly(self):
        for g in (1, 2, 8, 64, 1000, 1025):
            assert cell_width(g, 1.0001, 1.2) == 1.0001 * 1.2 / 2 ** (g - 2)
        assert cell_width(2_000_000, 1.0001, 1.2) == 0.0  # 2**(g-2) has no float

    def test_resolvable_packet_size_bound(self):
        # at fig7's 7 s horizon the half cell b*gamma/2^(g-1) stops resolving at g = 53
        check_resolvable(52, 1.0001, 1.2, 7.0)
        with pytest.raises(PreconditionError, match="g=53 is too fine"):
            check_resolvable(53, 1.0001, 1.2, 7.0)
        # a NaN b or gamma used to pass, and a fractional g to raise ldexp's TypeError
        for args, message in [
            ((3, 1.0001, math.nan, 7.0), "packets with timing bits need a positive finite delay "
                                         "bound, got gamma=nan"),
            ((3, math.nan, 1.2, 7.0), "b must be finite and exceed 1, got nan"),
            ((2.5, 1.0001, 1.2, 7.0), "packet size must be an integer number of bits, got 2.5"),
        ]:
            with pytest.raises(PreconditionError, match=re.escape(message)):
                check_resolvable(*args)

    def test_deterministic(self):
        a = encode(3.7, -1, 9, 1.2, 0.8)
        b = encode(3.7, -1, 9, 1.2, 0.8)
        assert a == b

    def test_sign_bit_convention(self):
        assert encode(0.5, -1, 1, 1.1, 0.0).word == 1
        assert encode(0.5, +1, 1, 1.1, 0.0).word == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            encode(-0.1, +1, 3, 1.1, 1.0)
        with pytest.raises(PreconditionError):
            encode(0.1, 0, 3, 1.1, 1.0)
        with pytest.raises(PreconditionError):
            encode(0.1, +1, 0, 1.1, 1.0)
        with pytest.raises(PreconditionError):
            encode(0.1, +1, 3, 1.1, 0.0)  # timing bits need a delay bound
        # a non-finite send time used to raise OverflowError or ValueError, an infinite
        # gamma to encode (0, 0, 0) silently, and b <= 1 to encode windows that decode wrong
        for args, message in [
            ((math.inf, +1, 3, 1.0001, 1.0), "send time must be finite and >= 0, got inf"),
            ((math.nan, +1, 3, 1.0001, 1.0), "send time must be finite and >= 0, got nan"),
            ((0.5, +1, 3, 1.0001, math.inf), "positive finite delay bound, got gamma=inf"),
            ((0.5, +1, 3, 0.5, 1.0), "b must be finite and exceed 1, got 0.5"),
            ((0.5, +1, 1, math.nan, 0.0), "b must be finite and exceed 1, got nan"),
            # these raised ldexp's TypeError, OverflowError and ZeroDivisionError
            ((0.5, +1, 2.5, 1.0001, 1.0), "packet size must be an integer number of bits, got 2.5"),
            ((0.5, +1, 3.0, 1.0001, 1.0), "packet size must be an integer number of bits, got 3.0"),
            ((0.5, +1, 0, 1.0001, 1.0), "packet size must lie in [1, 2100] bits, got 0"),
            ((1e308, +1, 3, 1.0001, 1.0), "send time 1e+308 has no cell index at cell width 0.5"),
            ((0.5, +1, 3, 1.0001, 5e-324), "send time 0.5 has no cell index at cell width 0.0"),
            ((0.5, +1, 3, 1e308, 10.0), "send time 0.5 has no cell index at cell width inf"),
        ]:
            with pytest.raises(PreconditionError, match=re.escape(message)):
                encode(*args)
        for args, message in [
            ((8, 3), "word must be an int in [0, 2**3), got 8"),
            ((-1, 3), "word must be an int in [0, 2**3), got -1"),
            ((1.0, 3), "word must be an int in [0, 2**3), got 1.0"),
            ((0, 0), "packet size must lie in [1, 2100] bits, got 0"),
            ((0, 2.5), "packet size must be an integer number of bits, got 2.5"),
            # past 2100 bits no cell width has a float; 1 << g would be sized by any g
            ((0, 2101), "packet size must lie in [1, 2100] bits, got 2101"),
            ((0, 10**12), "packet size must lie in [1, 2100] bits, got 1000000000000"),
        ]:
            with pytest.raises(PreconditionError, match=re.escape(message)):
                Packet(*args, 0.0)
        big = sys.float_info.max
        assert cell_width(2100, big, 1.0) > 0.0 == cell_width(2101, big, 1.0)
        assert Packet(2**2100 - 1, 2100, 0.0).sign == -1

    def test_bits_hex_width(self):
        pkt = Packet(0b101, 3, 0.0)
        assert pkt.bits_hex() == "5"
        pkt = Packet(0b10101, 5, 0.0)
        assert pkt.bits_hex() == "15"

    def test_word_layout_random(self):
        # the top bit is the sign and the g-1 bits below it the low bits of the cell index;
        # a send time whose index has no float is refused
        rng = np.random.default_rng(2016)
        for _ in range(2000):
            g = int(rng.integers(1, 1026))
            b = float(rng.uniform(1.0001, 1.8))
            gamma = float(rng.uniform(0.01, 3.0))
            t_s = float(10.0 ** rng.uniform(-3.0, 2.0))
            sign = 1 if rng.random() < 0.5 else -1
            cells = t_s / cell_width(g, b, gamma) if g > 1 else 0.0
            if cells == math.inf:
                with pytest.raises(PreconditionError, match="has no cell index"):
                    encode(t_s, sign, g, b, gamma)
                continue
            pkt = encode(t_s, sign, g, b, gamma)
            assert pkt.word % 2 ** (g - 1) == math.floor(cells) % 2 ** (g - 1)
            assert pkt.word >> (g - 1) == (sign < 0) and pkt.sign == sign
            assert pkt.bits_hex() == format(pkt.word, "x").zfill((g + 3) // 4)


class TestDecode:
    def test_round_trip_worked_example(self):
        b, gamma = 1.0001, 1.2
        pkt = encode(1.0, +1, 8, b, gamma)
        for tc in np.linspace(1.0, 2.2, 50):
            sign, q = decode(pkt, float(tc), b, gamma)
            assert sign == 1
            assert q == pytest.approx(1.0032253125, rel=1e-12)
            assert abs(1.0 - q) <= b * gamma / 2 ** 7

    def test_first_cell_midpoint(self):
        b, gamma = 2.0, 1.0
        pkt = encode(0.0, +1, 3, b, gamma)
        sign, q = decode(pkt, 0.5, b, gamma)
        assert q == pytest.approx(cell_width(3, b, gamma) / 2.0)

    def test_sign_only_mode_returns_reception_time(self):
        pkt = encode(4.2, -1, 1, 1.1, 0.0)
        assert decode(pkt, 4.2, 1.1, 0.0) == (-1, 4.2)

    def test_window_parity_resolves_wraparound(self):
        # send near the end of a window, receive in the next one
        b, gamma = 1.25, 1.0
        width = b * gamma
        t_s = width - 0.01
        pkt = encode(t_s, +1, 6, b, gamma)
        for tc in (t_s, t_s + 0.5 * gamma, t_s + gamma):
            _, q = decode(pkt, tc, b, gamma)
            assert abs(t_s - q) <= width / 2 ** 5 * (1 + 1e-9)

    def test_rejects_bad_arguments(self):
        # each used to raise ZeroDivisionError or OverflowError, or (b = 0.5) to decode a
        # wrong send time without an error
        pkt = Packet(0b010, 3, 0.5)
        for args, message in [
            ((pkt, 1.0, 1.0001, 0.0), "positive finite delay bound, got gamma=0.0"),
            ((pkt, 1.0, 1.0001, math.inf), "positive finite delay bound, got gamma=inf"),
            ((pkt, math.inf, 1.0001, 1.0), "reception time must be finite, got inf"),
            ((Packet(0, 1, 0.5), math.nan, 1.0001, 0.0), "reception time must be finite, got nan"),
            ((pkt, 1.0, 0.5, 1.0), "b must be finite and exceed 1, got 0.5"),
            ((pkt, 1.0, 0.0, 1.0), "b must be finite and exceed 1, got 0.0"),
            # these raised OverflowError or decoded a NaN send time
            ((pkt, 1.0, 1.0001, 5e-324), "reception time 1.0 has no window index at width 5e-324"),
            ((pkt, 1e308, 1.0001, 1e-3), "reception time 1e+308 has no window index"),
            ((pkt, -1.7e308, 1.0001, 1e308), "reception time -1.7e+308 has no window index"),
            ((pkt, 1.0, 1e308, 10.0), "reception time 1.0 has no window index at width inf"),
        ]:
            with pytest.raises(PreconditionError, match=re.escape(message)):
                decode(*args)

    def test_decode_error_on_corrupted_parity(self):
        # reception deep inside one window: both candidates coincide, so a
        # flipped parity bit cannot match either and must be rejected
        b, gamma = 1.5, 1.0
        pkt = encode(2.0, +1, 4, b, gamma)
        bad = Packet(pkt.word ^ 1 << (pkt.g - 2), pkt.g, pkt.t_s)
        with pytest.raises(DecodeError):
            decode(bad, 2.9, b, gamma)

    def test_early_reception_flags_negative_window(self):
        # candidates {-1, 0} disagree; a corrupted parity picks the impossible
        # window and yields q < 0, which the caller flags rather than clamps
        b, gamma = 1.5, 1.0
        pkt = encode(0.2, +1, 4, b, gamma)
        bad = Packet(pkt.word ^ 1 << (pkt.g - 2), pkt.g, pkt.t_s)
        _, q = decode(bad, 0.25, b, gamma)
        assert q < 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(5000):
            g = int(rng.integers(2, 16))
            b = float(rng.uniform(1.0001, 1.8))
            gamma = float(rng.uniform(0.01, 3.0))
            t_s = float(rng.uniform(0.0, 40.0))
            t_c = t_s + float(rng.uniform(0.0, gamma))
            pkt = encode(t_s, +1 if rng.random() < 0.5 else -1, g, b, gamma)
            sign, q = decode(pkt, t_c, b, gamma)
            assert sign == pkt.sign
            assert abs(t_s - q) <= b * gamma / 2 ** (g - 1) * (1 + 1e-9) + 1e-12

    def test_decoded_time_independent_of_delay(self):
        b, gamma = 1.0001, 0.7
        rng = np.random.default_rng(5)
        for _ in range(200):
            t_s = float(rng.uniform(0.0, 20.0))
            pkt = encode(t_s, +1, 7, b, gamma)
            qs = {decode(pkt, t_s + f * gamma, b, gamma)[1] for f in np.linspace(0, 1, 17)}
            assert len(qs) == 1


class TestReconstruct:
    def test_exact_timing_recovers_error(self):
        v0, sigma, A = 0.3, 0.4, 1.1
        t_s = 2.0
        z_ts = v0 * math.exp(-sigma * t_s)
        zbar = reconstruct_error(+1, t_s, t_s, v0, sigma, A)
        assert zbar == pytest.approx(z_ts, rel=1e-14)

    def test_mismatch_identity(self):
        # |z(tc) - zbar(tc)| = v(ts) e^{A(tc-ts)} |1 - e^{(A+sigma)(ts-q)}|
        rng = np.random.default_rng(8)
        for _ in range(2000):
            A = float(rng.uniform(0.2, 3.0))
            sigma = float(rng.uniform(0.05, 2.0))
            v0 = float(rng.uniform(0.1, 2.0))
            t_s = float(rng.uniform(0.0, 5.0))
            q = t_s + float(rng.uniform(-0.05, 0.05))
            t_c = t_s + float(rng.uniform(0.0, 1.0))
            sign = 1 if rng.random() < 0.5 else -1
            v_ts = v0 * math.exp(-sigma * t_s)
            z_tc = sign * v_ts * math.exp(A * (t_c - t_s))
            zbar = reconstruct_error(sign, q, t_c, v0, sigma, A)
            identity = v_ts * math.exp(A * (t_c - t_s)) * abs(
                1.0 - math.exp((A + sigma) * (t_s - q))
            )
            assert abs(z_tc - zbar) == pytest.approx(identity, rel=1e-12, abs=1e-15)

    def test_jump_contract_with_quantization_tolerance(self):
        # any |t_s - q| within the tolerance keeps the post-jump error inside
        # rho0 e^{-sigma gamma} v(t_s) for every delay in [0, gamma]
        A, sigma, rho0, gamma, v0 = 1.0, 0.1, 0.1, 1.2, 0.2671
        inp = bnd.BoundInputs.scalar(A, sigma, rho0, gamma=gamma)
        tol = bnd.analytic_bounds(inp).time_quantization_tolerance
        bound = rho0 * math.exp(-sigma * gamma)
        for t_s in np.linspace(0.0, 6.0, 13):
            v_ts = v0 * math.exp(-sigma * t_s)
            for off in np.linspace(-tol, tol, 21):
                for d in np.linspace(0.0, gamma, 21):
                    z_tc = v_ts * math.exp(A * d)
                    zbar = reconstruct_error(+1, t_s - off, t_s + d, v0, sigma, A)
                    assert abs(z_tc - zbar) <= bound * v_ts * (1 + 1e-9)


    def test_rejects_exponents_without_a_float(self):
        # these raised OverflowError; an exponent of exactly ln(max float) still has one
        ln_max = math.log(sys.float_info.max)
        assert reconstruct_error(+1, 0.0, ln_max, 1.0, 0.0, 1.0) == math.exp(ln_max)
        for args, message in [
            ((+1, 0.5, 1e308, 0.1, 0.1, 1.0), "growth*(t_c-q)=1e+308 exceeds ln(max float)"),
            ((-1, -1e4, 1.0, 0.1, 0.1, 0.0), "-sigma*q=1000.0 or"),
            ((+1, math.nan, 1.0, 0.1, 0.1, 1.0), "-sigma*q=nan"),
        ]:
            with pytest.raises(PreconditionError, match=re.escape(message)):
                reconstruct_error(*args)


class TestEndToEndContract:
    def test_packet_rule_meets_jump_bound(self):
        rng = np.random.default_rng(31337)
        for _ in range(3000):
            A = float(rng.uniform(0.1, 3.0))
            sigma = float(rng.uniform(0.05, 2.0))
            rho0 = float(rng.uniform(0.05, 0.95))
            gamma = float(rng.uniform(0.01, 3.0))
            b = float(rng.uniform(1.0001, 1.5))
            g = bnd._packet_size(A, rho0, sigma, gamma, b)  # the table's packet_size_sufficient
            v0 = float(rng.uniform(0.1, 2.0))
            t_s = float(rng.uniform(0.0, 30.0))
            t_c = t_s + float(rng.uniform(0.0, gamma))
            sign = 1 if rng.random() < 0.5 else -1
            pkt = encode(t_s, sign, g, b, gamma)
            dsign, q = decode(pkt, t_c, b, gamma)
            zbar = reconstruct_error(dsign, q, t_c, v0, sigma, A)
            v_ts = v0 * math.exp(-sigma * t_s)
            z_tc = sign * v_ts * math.exp(A * (t_c - t_s))
            bound = rho0 * math.exp(-sigma * gamma) * v_ts
            assert abs(z_tc - zbar) <= bound * (1 + 1e-9) + 1e-15
