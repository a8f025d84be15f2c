"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 has two halves.  The recorded-table half pins the full
g = 2..32 scan at (A=1, sigma=1, rho0=0.5, gamma=0.5, b=1.0001, nu=4), where
the design window is [3.566, 3.944] and holds no integer (see the table in
tests/data).  The witness half checks the scan against the closed-form window
there and at nu=6, where the window is over one bit wide for every b, so a
packet size always fits.
"""

import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from etcsim import bounds as bnd
from etcsim import cli
from etcsim.channel import AdversarialDelay, ConstantDelay, ReplayDelay, UniformDelay
from etcsim.codec import check_resolvable, decode, encode, reconstruct_error
from etcsim.errors import DivergenceError, PreconditionError
from etcsim.model import JordanPlant, TriggerConfig
from etcsim.sim import run_vector, validate_trace

DATA = Path(__file__).parent / "data"
DATA_RATE_FIG8 = 3.7512  # (A + sigma)/ln2 threshold quoted for the sweep


def _line(num: int, ok: bool, desc: str, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[criterion {num}] {status} - {desc}{tail}")


def test_criterion_1_bound_golden_values():
    t0 = time.time()
    checks = []

    def close(value, target):
        checks.append(abs(value - target) <= 1e-3)
        return checks[-1]

    fast = bnd.analytic_bounds(bnd.BoundInputs.scalar(5.0, 3.0, 0.7))
    close(fast.access_rate, 11.5416)
    close(fast.gamma_eq, 0.1386)
    close(fast.gamma_c, 0.0864)

    mid = bnd.analytic_bounds(bnd.BoundInputs.scalar(1.0, 0.5, 0.5))
    close(mid.access_rate, 2.1640)
    close(mid.gamma_eq, 0.6931)
    close(mid.asymptote, 6.4921)

    close(bnd.analytic_bounds(bnd.BoundInputs.scalar(1.0, 1.0, 0.5)).asymptote, 5.7708)
    close(bnd.analytic_bounds(bnd.BoundInputs.scalar(1.3, 1.0, 0.9)).asymptote, 7.6319)
    close(bnd.analytic_bounds(bnd.BoundInputs.scalar(2.4, 0.2, 0.1)).access_rate, 3.7512)

    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 1.0
    _line(1, ok, "analytic bound golden values", f"{len(checks)} values, {elapsed:.2f}s")
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_2_critical_delay_residual():
    t0 = time.time()
    rng = np.random.default_rng(20240813)
    worst = 0.0
    for _ in range(1000):
        inp = bnd.BoundInputs.scalar(
            A=float(rng.uniform(0.05, 10.0)),
            sigma=float(rng.uniform(0.02, 6.0)),
            rho0=float(rng.uniform(0.01, 0.99)),
        )
        gc = bnd._critical_delay(inp.A, inp.sigma, inp.rho0)  # the table's float kernel
        res = abs(math.exp(inp.A * gc) - inp.rho0 * math.exp(-inp.sigma * gc) - 1.0)
        worst = max(worst, res)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _line(2, ok, "critical-delay residual on 1000 random triples",
          f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def _fig7_checks(trace, refine: bool):
    A, sigma, rho0, gamma = 1.0, 0.1, 0.1, 1.2
    step = trace.step
    # (a) decay envelope at every sample with the stated grid slack
    zabs = np.abs(trace.z[:, 0])
    slack = 2.0 * step * (A + sigma) * float(zabs.max())
    env_ok = bool(np.all(zabs <= np.exp(-0.1 * trace.times) + slack))
    # (b) post-jump contract at every reception
    contract = rho0 * math.exp(-sigma * gamma)
    jump_ok = True
    for e in trace.receptions():
        bound = contract * e.v_ts
        allow = bound * 1e-9 if refine else bound * 1e-9 + math.expm1(
            2.0 * (A + sigma) * step
        ) * e.v_ts * math.exp(A * gamma)
        jump_ok &= e.post_jump <= bound + allow
    # (c) inter-event spacing
    dmin = (sigma * gamma - math.log(rho0)) / (A + sigma) - 2.0 * step
    ts = [e.t_s for e in trace.triggers()]
    spacing_ok = all(b - a >= dmin for a, b in zip(ts, ts[1:]))
    return env_ok, jump_ok, spacing_ok


def test_criterion_3_fig7_replication():
    t0 = time.time()
    plant = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
    cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)
    delays = UniformDelay(gamma=1.2, seed=(7, 0, 0))

    fine = run_vector(plant, cfg, delays, 7.0, 0.0002, x0=0.2, xhat0=0.1, refine=True)
    env_ok, jump_ok, spacing_ok = _fig7_checks(fine, refine=True)
    # the paper-style grid-locked run keeps (a) and (c) as well
    grid = run_vector(plant, cfg, delays, 7.0, 0.0002, x0=0.2, xhat0=0.1)
    g_env_ok, g_jump_ok, g_spacing_ok = _fig7_checks(grid, refine=False)

    elapsed = time.time() - t0
    ok = all((env_ok, jump_ok, spacing_ok, g_env_ok, g_jump_ok, g_spacing_ok))
    ok = ok and len(fine.receptions()) >= 2 and elapsed < 30.0
    _line(3, ok, "scalar run replication: envelope, post-jump contract, spacing",
          f"{len(fine.triggers())} triggers, {elapsed:.2f}s")
    assert env_ok and jump_ok and spacing_ok
    assert g_env_ok and g_jump_ok and g_spacing_ok
    assert elapsed < 30.0


def test_criterion_4_fig8_sweep_threshold_crossing(tmp_path):
    t0 = time.time()
    argv = ["sweep", "--config", str(cli.recipe_path("fig8")), "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(cli.SWEEP_COLUMNS, line.split(","))) for line in lines[1:]]
    elapsed = time.time() - t0
    rates = [float(r["R_s_empirical"] or "nan") for r in rows]
    clean = all(not r["error"] for r in rows)
    below = rates[0] < DATA_RATE_FIG8
    above = rates[-1] > DATA_RATE_FIG8
    stable = all(float(r["xT_norm"]) < float(r["x0_norm"]) for r in rows if not r["error"])
    ok = clean and below and above and stable and len(rows) == 11 and elapsed < 120.0
    _line(4, ok, "delay sweep crosses the data-rate threshold with stable rows",
          f"R_s[0]={rates[0]:.3f}, R_s[-1]={rates[-1]:.3f}, {elapsed:.2f}s")
    assert clean and len(rows) == 11
    assert below and above
    assert stable
    assert elapsed < 120.0


def _finest_admitted(b: float, gamma: float, t_s: float) -> int:
    """The largest packet size that check_resolvable admits at send time t_s."""
    # from a size whose half cell is at least 2 ulps of t_s, which is admitted
    g = max(2, math.frexp(b * gamma)[1] - math.frexp(math.ulp(t_s))[1])
    while t_s + math.ldexp(b * gamma, -g) != t_s:  # the half cell of g + 1 shows
        g += 1
    check_resolvable(g, b, gamma, t_s)
    try:
        check_resolvable(g + 1, b, gamma, t_s)
    except PreconditionError:
        return g
    raise AssertionError(f"g={g + 1} admitted at t_s={t_s!r}, b*gamma={b * gamma!r}")


def test_criterion_5_codec_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(777)
    n_cases = 100_000
    round_trip_ok = True
    contract_ok = True
    refused_broken = 0  # draws whose first refused g misses b*gamma/2^(g-1)
    for i in range(n_cases):
        A = float(rng.uniform(0.1, 3.0))
        sigma = float(rng.uniform(0.05, 2.0))
        rho0 = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.01, 3.0))
        b = float(rng.uniform(1.0001, 1.5))
        t_s = float(rng.uniform(0.0, 30.0))
        t_c = t_s + float(rng.uniform(0.0, gamma))
        sign = 1 if rng.random() < 0.5 else -1

        # every g that check_resolvable admits at t_s round-trips within the half cell
        # plus the rounding of t_s: a neighbouring cell when t_s/delta rounds across an
        # integer (1 ulp) and the roundings of the decoded midpoint (2 ulps)
        g_max = _finest_admitted(b, gamma, t_s)
        g_rand = int(rng.integers(2, g_max + 1))
        pkt = encode(t_s, sign, g_rand, b, gamma)
        dsign, q = decode(pkt, t_c, b, gamma)
        half = b * gamma / 2 ** (g_rand - 1)
        if not (dsign == sign and abs(t_s - q) <= half * (1 + 1e-9) + 3 * math.ulp(t_s)):
            round_trip_ok = False
        if i % 10 == 0:  # the first refused g, whose half cell is below the rounding of t_s
            dsign, q = decode(encode(t_s, sign, g_max + 1, b, gamma), t_c, b, gamma)
            refused_broken += abs(t_s - q) > b * gamma / 2**g_max * (1 + 1e-9)

        g_rule = bnd._packet_size(A, rho0, sigma, gamma, b)  # the table's packet_size_sufficient
        pkt = encode(t_s, sign, g_rule, b, gamma)
        dsign, q = decode(pkt, t_c, b, gamma)
        v0 = float(rng.uniform(0.1, 2.0))
        v_ts = v0 * math.exp(-sigma * t_s)
        z_tc = sign * v_ts * math.exp(A * (t_c - t_s))
        zbar = reconstruct_error(dsign, q, t_c, v0, sigma, A)
        bound = rho0 * math.exp(-sigma * gamma) * v_ts
        if not abs(z_tc - zbar) <= bound * (1 + 1e-9) + 1e-15:
            contract_ok = False
    elapsed = time.time() - t0
    ok = round_trip_ok and contract_ok and refused_broken > 0 and elapsed < 60.0
    _line(5, ok, f"codec round-trip and jump contract on {n_cases} random cases",
          f"{elapsed:.2f}s, first refused g misses its half cell in {refused_broken} cases")
    assert round_trip_ok
    assert contract_ok
    assert refused_broken > 0
    assert elapsed < 60.0


def test_criterion_6_zero_delay_exactness():
    t0 = time.time()
    plant = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
    cfg = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=0.0)
    trace = run_vector(plant, cfg, ConstantDelay(0.0, gamma=0.0), 40.0, 0.0002,
                       x0=0.2, xhat0=0.1, refine=True)
    receptions = trace.receptions()
    worst = max(e.post_jump for e in receptions)
    elapsed = time.time() - t0
    ok = len(receptions) >= 2 and worst <= 1e-12 and elapsed < 10.0
    ok = ok and all(e.g == 1 for e in receptions)
    _line(6, ok, "zero-delay sign-only packets cancel the error exactly",
          f"{len(receptions)} receptions, worst {worst:.2e}, {elapsed:.2f}s")
    assert len(receptions) >= 2
    assert all(e.g == 1 for e in receptions)
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_7_sandwich_and_phase_properties():
    t0 = time.time()
    rng = np.random.default_rng(4242)
    sandwich_ok = True
    for _ in range(10_000):
        inp = bnd.BoundInputs.scalar(
            A=float(rng.uniform(0.05, 8.0)),
            sigma=float(rng.uniform(0.02, 5.0)),
            rho0=float(rng.uniform(0.01, 0.99)),
            gamma=float(rng.uniform(0.0, 3.0)),
            nu=float(rng.uniform(1.0, 8.0)),
        )
        upper, lower = bnd._triggering_rates(inp.A, inp.sigma, inp.rho0, inp.gamma, inp.nu)
        if lower > upper * (1 + 1e-12):
            sandwich_ok = False

    phase_ok = True
    for _ in range(500):
        inp = bnd.BoundInputs.scalar(
            A=float(rng.uniform(0.1, 5.0)),
            sigma=float(rng.uniform(0.05, 3.0)),
            rho0=float(rng.uniform(0.05, 0.95)),
            nu=2.0,
        )
        gc = bnd.analytic_bounds(inp).gamma_c
        lo = bnd.analytic_bounds(inp._replace(gamma=max(gc - 1e-9, 0.0))).rate_necessary
        hi = bnd.analytic_bounds(inp._replace(gamma=gc + 1e-6)).rate_necessary
        if not (lo == 0.0 and hi > 0.0):
            phase_ok = False

    eq_inp = bnd.BoundInputs.scalar(1.7, 0.9, 0.35, gamma=math.log(2.0) / 1.7)
    eq = bnd.analytic_bounds(eq_inp)
    eq_ok = abs(eq.rate_necessary_approx - eq.access_rate) <= 1e-12 * eq.access_rate

    # asymptote within 1% at gamma = 50/A; the log(gamma)/gamma tail of the
    # sufficient curve needs the high-sigma/A regime at this depth
    asy_inp = bnd.BoundInputs.scalar(1.0, 20.0, 0.9, gamma=50.0, b=1.0001)
    asy = bnd.analytic_bounds(asy_inp)
    gap_app = abs(asy.rate_necessary_approx - asy.asymptote) / asy.asymptote
    gap_suf = abs(asy.rate_sufficient - asy.asymptote) / asy.asymptote
    asy_ok = gap_app <= 0.01 and gap_suf <= 0.01

    elapsed = time.time() - t0
    ok = sandwich_ok and phase_ok and eq_ok and asy_ok and elapsed < 30.0
    _line(7, ok, "rate sandwich, transition threshold, equilibrium, asymptote",
          f"gaps {gap_app:.4f}/{gap_suf:.4f}, {elapsed:.2f}s")
    assert sandwich_ok
    assert phase_ok
    assert eq_ok
    assert asy_ok
    assert elapsed < 30.0


def test_criterion_8_vector_consistency():
    t0 = time.time()
    plant_s = JordanPlant.scalar(A=1.0, B=0.2, K=8.0)
    cfg_s = TriggerConfig(v0=0.2671, sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)
    dm = UniformDelay(gamma=1.2, seed=(42, 0))
    a = run_vector(plant_s, cfg_s, dm, 7.0, 0.0002, x0=0.2, xhat0=0.1)
    b = run_vector(plant_s, cfg_s, [dm], 7.0, 0.0002, x0=[0.2], xhat0=[0.1])
    identical = (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.xhat, b.xhat)
        and np.array_equal(a.z, b.z)
        and a.events == b.events
    )

    plant2 = JordanPlant(blocks=((1.0, 1), (1.0, 1)), B=np.diag([0.2, 0.2]),
                         K=np.diag([8.0, 8.0]))
    models = [UniformDelay(gamma=1.2, seed=(99, c)) for c in range(2)]
    both = run_vector(plant2, cfg_s, models, 7.0, 0.0002,
                      x0=[0.2, 0.15], xhat0=[0.1, 0.05])
    solo_bits = 0
    for c, (x0, xh0) in enumerate(((0.2, 0.1), (0.15, 0.05))):
        solo = run_vector(plant_s, cfg_s, models[c], 7.0, 0.0002, x0=x0, xhat0=xh0)
        solo_bits += int(solo.bits_sent.sum())
    bits_match = int(both.bits_sent.sum()) == solo_bits

    lam, sigma, gamma, rho0 = 1.0, 1.0, 0.1, 0.5
    plant_j = JordanPlant(blocks=((lam, 2),), B=np.eye(2), K=3 * np.eye(2))
    cfg_j = TriggerConfig(v0=((0.5, 0.6),), sigma=sigma, rho0=rho0, gamma=gamma,
                          rho_ladders=((0.25, 0.5),))
    trace = run_vector(plant_j, cfg_j, [UniformDelay(gamma=gamma, seed=(5, c))
                                        for c in range(2)],
                       7.0, 0.0002, x0=[0.3, 0.4], xhat0=[0.0, 0.0])
    E = math.exp((lam + sigma) * gamma)
    env_ok = True
    for c, (v0c, rc) in enumerate(((0.5, 0.25), (0.6, 0.5))):
        env = v0c * ((rho0 - rc) + E) * np.exp(-sigma * trace.times)
        zc = np.abs(trace.z[:, c])
        slack = 2.0 * trace.step * (lam + sigma) * float(zc.max())
        env_ok &= bool(np.all(zc <= env + slack))

    elapsed = time.time() - t0
    ok = identical and bits_match and env_ok and elapsed < 60.0
    _line(8, ok, "vector runs: scalar identity, block additivity, chain envelopes",
          f"{elapsed:.2f}s")
    assert identical
    assert bits_match
    assert env_ok
    assert elapsed < 60.0


# Pinned design point of criterion 9; nu and b vary in the witness test.
_A1 = dict(A=1.0, sigma=1.0, rho0=0.5, gamma=0.5)


def _assumption1_scan(nu: float = 4.0, b: float = 1.0001):
    inp = bnd.BoundInputs.scalar(
        _A1["A"], _A1["sigma"], _A1["rho0"], gamma=_A1["gamma"], b=b, nu=nu
    )
    table = {}
    witness = []
    for g in range(2, 33):
        w = bnd.assumption1_window(inp, g)
        table[str(g)] = [w.lower_ok, w.upper_ok, w.expansion_ok]
        if w.lower_ok and w.upper_ok and w.expansion_ok:
            witness.append(g)
    return table, witness


def _closed_form_window(nu: float, b: float) -> tuple[float, float]:
    """Design window [lower, upper] for g, written out from the closed forms.

    lower = 1 + log2(b*gamma*(A+sigma) / ln(1 + rho0*e^{-(sigma+A)*gamma}))
    upper = log2(b*gamma*(A+sigma) / |ln(1 - eps)|),
    eps = 1/((nu-1)*(2 + 1/(rho0*e^{-sigma*gamma}))).
    """
    A, sigma, rho0, gamma = _A1["A"], _A1["sigma"], _A1["rho0"], _A1["gamma"]
    scale = b * gamma * (A + sigma)
    quant = math.log(1.0 + rho0 * math.exp(-(sigma + A) * gamma))
    eps = 1.0 / ((nu - 1.0) * (2.0 + 1.0 / (rho0 * math.exp(-sigma * gamma))))
    return 1.0 + math.log2(scale / quant), math.log2(scale / abs(math.log(1.0 - eps)))


def _nu_for_one_bit_window() -> float:
    """Smallest nu at which the window is at least one bit wide.

    Both bounds carry log2(b*gamma*(A+sigma)), so the width
    log2(ln(1 + rho0*e^{-(sigma+A)*gamma}) / |ln(1 - eps)|) - 1 does not
    depend on b.  It reaches 1 when |ln(1 - eps)| = ln(1 + ...)/4; solving
    eps = 1/((nu-1)*(2 + 1/(rho0*e^{-sigma*gamma}))) for nu gives the bound.
    From there on an integer lies in the window whatever b is.
    """
    A, sigma, rho0, gamma = _A1["A"], _A1["sigma"], _A1["rho0"], _A1["gamma"]
    quant = math.log(1.0 + rho0 * math.exp(-(sigma + A) * gamma))
    eps = 1.0 - math.exp(-quant / 4.0)
    return 1.0 + 1.0 / (eps * (2.0 + 1.0 / (rho0 * math.exp(-sigma * gamma))))


def _integers_in(lower: float, upper: float) -> list[int]:
    return [g for g in range(2, 33) if lower <= g <= upper]


def test_criterion_9_window_scan_matches_recorded_table():
    t0 = time.time()
    golden = json.loads((DATA / "assumption1_window.json").read_text())
    table, witness = _assumption1_scan()
    elapsed = time.time() - t0
    ok = table == golden["table"] and witness == golden["witness"] and elapsed < 5.0
    _line(9, ok, "design-window scan reproduces the recorded table",
          f"witness set {witness}, {elapsed:.2f}s")
    assert table == golden["table"]
    assert witness == golden["witness"]
    assert elapsed < 5.0


def test_criterion_9_window_admits_integer_witness():
    """Witness-existence half of criterion 9: the scan finds a packet size
    wherever the closed-form window holds an integer, and only those sizes.

    At the recorded point (nu=4, b=1.0001) the window is [3.5663, 3.9438],
    0.377 bits wide, and holds no integer, so the witness set is empty.  The
    width does not depend on b and reaches one bit at nu ~ 5.567, so nu=6
    guarantees a witness for every b; at b=1.0001 it is [4].
    """
    lower, upper = _closed_form_window(4.0, 1.0001)
    _, witness = _assumption1_scan(nu=4.0, b=1.0001)
    assert abs(lower - 3.5663) <= 1e-4 and abs(upper - 3.9438) <= 1e-4
    assert witness == [] == _integers_in(lower, upper)

    nu_min = _nu_for_one_bit_window()
    assert 5.5 < nu_min < 6.0
    nu = math.ceil(nu_min)
    witnesses = {}
    for b in (1.0001, 1.2, 2.0, 4.0, 10.0):
        lower, upper = _closed_form_window(nu, b)
        assert upper - lower >= 1.0
        _, witnesses[b] = _assumption1_scan(nu=nu, b=b)
        assert witnesses[b], f"no witness at nu={nu}, b={b}"
        assert witnesses[b] == _integers_in(lower, upper), (
            f"scan {witnesses[b]} disagrees with the closed-form window "
            f"[{lower:.4f}, {upper:.4f}] at nu={nu}, b={b}"
        )
    assert witnesses[1.0001] == [4]
    _line(9, True, "an integer packet size satisfies all three window checks",
          f"nu={nu}: witness sets {witnesses}")


def test_criterion_11_packet_size_transition():
    """Criterion 11, the scalar half of the phase transition in bits per event.

    fig8's plant runs under the adversarial delay, in refine mode, for 30 s at
    every g from 1 to packet_size_sufficient + 1; a g "holds" when its trace
    validates.  Below gamma_c the sign bit alone holds, the smallest holding g
    lies in [max(1, ceil(packet_bits_necessary)), packet_size_sufficient], and
    every larger g holds.  This checks the engine, the codec and the bounds
    against each other on one plant and one delay model; it is not a check of
    the theorem.
    """
    t0 = time.time()
    plant = JordanPlant.scalar(A=2.4, B=1.0, K=8.0)
    checks, rows = [], []
    for gamma in (0.02, 0.05, 0.1, 0.2005, 0.6005, 1.0005):
        cfg = TriggerConfig(v0=0.0442, sigma=0.2, rho0=0.1, gamma=gamma, b=1.0001)
        table = bnd.analytic_bounds(cfg.bound_inputs(plant.blocks, 2.0))
        # at gamma <= 0.05 the adversarial delay exceeds the bound and is clamped to it
        clamped = (pytest.warns(UserWarning, match="clamping") if gamma <= 0.05
                   else contextlib.nullcontext())
        with clamped:
            delay = AdversarialDelay.from_params(2.4, 0.2, 0.1, gamma)
        holds = ""
        for g in range(1, table.packet_size_sufficient + 2):
            trace = run_vector(plant, cfg, delay, 30.0, 2e-4, x0=0.201, xhat0=0.2,
                               refine=True, g=g, nu=2.0)
            holds += "1" if validate_trace(trace).ok else "0"
        smallest = holds.find("1") + 1
        lowest = max(1, math.ceil(table.packet_bits_necessary))
        checks.append((gamma >= table.gamma_c or holds[0] == "1")
                      and lowest <= smallest <= table.packet_size_sufficient
                      and set(holds[smallest - 1:]) == {"1"})
        rows.append(f"{gamma}: {holds}")
    elapsed = time.time() - t0
    _line(11, all(checks), "the smallest holding packet size sits between the packet bounds",
          f"g = 1, 2, ... holds at gamma {'; '.join(rows)}; {elapsed:.2f}s")
    assert all(checks), rows


def test_criterion_13_sufficient_size_at_the_delay_bound():
    """Criterion 13, the scalar half: the sufficient packet size at the longest delay.

    fig8's plant runs under ConstantDelay(gamma, gamma), in refine mode, for 30 s at
    step 2e-4 with nu=2, at each gamma of fig8's grid.  Above gamma_c, g =
    packet_size_sufficient and sufficient + 1 hold, and sufficient - 1 breaks: its trace
    fails validate_trace or the run raises DivergenceError.  Below gamma_c, g = 1 holds.
    The scan runs down from sufficient + 1 and stops one below, because g is not
    monotone at delay 0: decode takes a 1-bit packet's send time to be its reception
    time, so g = 1 holds there and g = 2 breaks.  Criterion 11's adversarial beta is
    the delay of the necessity construction, not the worst one, so its smallest holding
    g lies below the sufficient size; under delay gamma it is the sufficient size.  A
    seeded falsification pass then runs g = sufficient at gamma = 0.2005 and 1.0005
    under replayed delays, 0-or-gamma and uniform in [0.8 gamma, gamma], and every run
    must hold.  This checks the engine, the codec and the sufficient-size formula
    against each other at the worst delay found; it is not a proof over every delay.
    """
    t0 = time.time()
    plant = JordanPlant.scalar(A=2.4, B=1.0, K=8.0)

    def design(gamma):
        cfg = TriggerConfig(v0=0.0442, sigma=0.2, rho0=0.1, gamma=gamma, b=1.0001)
        return cfg, bnd.analytic_bounds(cfg.bound_inputs(plant.blocks, 2.0))

    def holds(cfg, delay, g):
        try:
            trace = run_vector(plant, cfg, delay, 30.0, 2e-4, x0=0.201, xhat0=0.2,
                               refine=True, g=g, nu=2.0)
        except DivergenceError:
            return False
        return validate_trace(trace).ok

    rows, runs = [], 0
    for gamma in [0.0005 + i * 0.2 for i in range(11)]:  # fig8's gamma_grid 0.0005:0.2:11
        cfg, table = design(gamma)
        suf = table.packet_size_sufficient
        sizes = [1] if gamma < table.gamma_c else [suf + 1, suf, suf - 1]
        got = [holds(cfg, ConstantDelay(gamma, gamma), g) for g in sizes]
        runs += len(got)
        rows.append((gamma, suf, got))
    scan_ok = all(got == ([True] if len(got) == 1 else [True, True, False])
                  for _, _, got in rows)
    rng = np.random.default_rng(1913)
    failed, replays = [], 0
    for gamma in (0.2005, 1.0005):
        cfg, table = design(gamma)
        for _ in range(10):  # a run here sends under 25 packets; a short replay raises
            for delays in (gamma * rng.integers(0, 2, 64), rng.uniform(0.8 * gamma, gamma, 64)):
                replays += 1
                model = ReplayDelay(tuple(delays.tolist()), gamma)
                if not holds(cfg, model, table.packet_size_sufficient):
                    failed.append((gamma, model.delays))
    elapsed = time.time() - t0
    _line(13, scan_ok and not failed,
          "the sufficient packet size holds at the delay bound, and one bit less breaks",
          f"{runs} scan runs over {len(rows)} delays, {replays} replays, "
          f"{len(failed)} failed; {elapsed:.2f}s")
    assert scan_ok, [(gamma, suf, got) for gamma, suf, got in rows]
    assert not failed, failed[:1]
