"""Command-line front end: analytic bound tables, closed-loop runs, sweeps.

Configuration comes from a plain key = value text file (see recipes/) with
command-line flags taking precedence.  Numbers in CSV/JSON outputs use the
shortest round-trip decimal form, so identical configurations and seeds
produce byte-identical files.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime invariant
violation, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from . import sim
from .channel import build_delay
from .errors import ConfigurationError, DecodeError, DivergenceError, PreconditionError
from .model import JordanPlant, ScalarPlant, TriggerConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_DIVERGED = 3

SWEEP_COLUMNS = [
    "gamma", "rho0", "sigma", "g", "R_s_empirical", "R_tr_empirical",
    "R_necessary", "R_necessary_approx", "R_sufficient", "R_necessary_sup",
    "R_access", "x0_norm", "xT_norm", "invariants_ok", "error",
]

_MISSING = object()
_CSV_BLOCK_ROWS = 4096  # trace.csv rows converted to Python floats at a time
MAX_GRID_POINTS = 100_000  # largest start:step:count grid a config may ask for
# every key a command reads; RunConfig.from_file refuses any other
CONFIG_KEYS = frozenset(
    "A B K blocks B_matrix K_matrix v0 sigma rho0 gamma b rho_ladder nu g "
    "delay seed horizon step refine x0 xhat0 mode gamma_grid rho0_list sigma_grid".split()
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ConfigurationError(message)


class RunConfig:
    """Key/value configuration with line-precise error reporting."""

    def __init__(self, entries: dict[str, tuple[str, int]], source: str):
        self.entries = entries
        self.source = source

    @classmethod
    def from_file(cls, path: Path) -> "RunConfig":
        entries: dict[str, tuple[str, int]] = {}
        try:
            text = path.read_text()
        except OSError as err:
            raise ConfigurationError(f"cannot read config {path}: {err}") from err
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = (val.strip(), lineno)
        return cls(entries, str(path))

    def override(self, key: str, value) -> None:
        if value is not None:
            self.entries[key] = (str(value), 0)

    def has(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str, cast=str, default=_MISSING):
        if key not in self.entries:
            if default is _MISSING:
                raise ConfigurationError(f"missing required field '{key}' in {self.source}")
            return default
        val, lineno = self.entries[key]
        try:
            return cast(val)
        except (ValueError, ConfigurationError) as err:
            where = f"line {lineno} of {self.source}" if lineno else "command line"
            raise ConfigurationError(f"field '{key}' ({where}): {err}") from err


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _floats(s: str) -> list[float]:
    return [float(v) for v in s.replace(",", " ").split()]


def _grid(s: str) -> list[float]:
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:step:count, got {s!r}")
        start, step, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"grid count must lie in [1, {MAX_GRID_POINTS}], got {count}")
        return [start + i * step for i in range(count)]
    vals = _floats(s)
    if not vals:
        raise ValueError("empty grid")
    return vals


def _blocks(s: str) -> tuple[tuple[float, int], ...]:
    out = []
    for part in s.split(","):
        lam, _, p = part.strip().partition(":")
        out.append((float(lam), int(p) if p else 1))
    return tuple(out)


def _matrix(s: str) -> np.ndarray:
    return np.array([[float(v) for v in row.split()] for row in s.split(";")])


def _nested(s: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in grp.replace(",", " ").split()) for grp in s.split(";"))


def build_plant(cfg: RunConfig) -> JordanPlant:
    if cfg.has("blocks"):
        blocks = cfg.get("blocks", _blocks)
        n = sum(p for _, p in blocks)
        B = cfg.get("B_matrix", _matrix, np.eye(n))
        K = cfg.get("K_matrix", _matrix, np.zeros((B.shape[1], n)))
        return JordanPlant(blocks=blocks, B=B, K=K)
    return ScalarPlant(
        A=cfg.get("A", float),
        B=cfg.get("B", float, 0.0),
        K=cfg.get("K", float, 0.0),
    ).as_jordan()


def build_trigger(cfg: RunConfig) -> TriggerConfig:
    if cfg.has("blocks"):
        v0 = cfg.get("v0", _nested)
    else:
        v0 = cfg.get("v0", float)
    return TriggerConfig(
        v0=v0,
        sigma=cfg.get("sigma", float),
        rho0=cfg.get("rho0", float),
        gamma=cfg.get("gamma", float),
        b=cfg.get("b", float, 1.0001),
        rho_ladders=cfg.get("rho_ladder", _nested, None),
    )


def build_inputs(cfg: RunConfig, gamma: float | None = None) -> bnd.BoundInputs:
    return bnd.BoundInputs(
        blocks=build_plant(cfg).blocks,
        sigma=cfg.get("sigma", float),
        rho0=cfg.get("rho0", float),
        gamma=cfg.get("gamma", float) if gamma is None else gamma,
        b=cfg.get("b", float, 1.0001),
        nu=cfg.get("nu", float, 1.0),
        rho_ladders=cfg.get("rho_ladder", _nested, None),
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _np_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_np_default) + "\n")


# -- bounds -------------------------------------------------------------------


def cmd_bounds(cfg: RunConfig, out_dir: Path | None, want_json: bool) -> int:
    inp = build_inputs(cfg)
    table = bnd.analytic_bounds(inp)
    quantities = {k: v for k, v in dataclasses.asdict(table).items() if v is not None}
    scalar_like = table.packet_size_sufficient is not None
    g = cfg.get("g", int, 0)
    if g < 0:
        raise ConfigurationError(f"packet size must be >= 1 bit, or 0 for automatic, got {g}")
    if scalar_like and inp.nu >= 2 and inp.gamma > 0:
        g = g or table.packet_size_sufficient
        if g >= 2:
            win = bnd.assumption1_window(inp, g)
            quantities["assumption1_g"] = g
            quantities["assumption1_lower_ok"] = win.lower_ok
            quantities["assumption1_upper_ok"] = win.upper_ok
            quantities["assumption1_expansion_ok"] = win.expansion_ok
    for name, value in quantities.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:30s} {shown}")
    if want_json or out_dir is not None:
        out_dir = out_dir or Path("out")
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "bounds.json", quantities)
        print(f"wrote {out_dir / 'bounds.json'}")
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def _delay_factory(cfg: RunConfig, plant: JordanPlant, seed: int):
    spec = cfg.get("delay", str, "uniform")
    growth = max(lam for lam, _ in plant.blocks)
    sigma = cfg.get("sigma", float)
    rho0 = cfg.get("rho0", float)

    def factory(gamma: float, row: int, coord: int):
        return build_delay(
            spec, gamma, seed=seed, salt=(row, coord), growth=growth, sigma=sigma, rho0=rho0
        )

    return factory


def _write_trace_csv(path: Path, trace: sim.SimTrace) -> None:
    n = trace.n
    cols = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"xhat{i+1}" for i in range(n)]
        + [f"z{i+1}" for i in range(n)]
        + [f"v{i+1}" for i in range(n)]
    )
    table = np.column_stack((trace.times, trace.x, trace.xhat, trace.z, trace.v))
    with path.open("w") as fh:
        fh.write(",".join(cols) + "\n")
        # repr of a Python float is _fmt's cell text; blocks bound the list copies
        for a in range(0, len(table), _CSV_BLOCK_ROWS):
            rows = table[a : a + _CSV_BLOCK_ROWS].tolist()
            fh.writelines([",".join(map(repr, r)) + "\n" for r in rows])


def _write_events_json(path: Path, trace: sim.SimTrace) -> None:
    payload = {
        "schema": "etcsim-events-1",
        "horizon": trace.horizon,
        "step": trace.step,
        "diverged": trace.diverged,
        "totals": {
            "bits_sent": trace.bits_sent.tolist(),
            "trigger_counts": trace.trigger_counts.tolist(),
        },
        "events": [dataclasses.asdict(e) for e in trace.events],
    }
    _write_json(path, payload)


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    plant = build_plant(cfg)
    trigger = build_trigger(cfg)
    seed = cfg.get("seed", int, 0)
    horizon = cfg.get("horizon", float)
    step = cfg.get("step", float, 0.0002)
    refine = cfg.get("refine", _bool, False)
    nu = cfg.get("nu", float, 2.0)
    g = cfg.get("g", int, 0) or None
    x0 = np.asarray(cfg.get("x0", _floats), dtype=float)
    xhat0 = np.asarray(cfg.get("xhat0", _floats), dtype=float)
    factory = _delay_factory(cfg, plant, seed)
    models = [factory(trigger.gamma, 0, c) for c in range(plant.n)]

    out_dir.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        trace = sim.run_vector(
            plant, trigger, models, horizon, step,
            x0=x0, xhat0=xhat0, refine=refine, g=g, nu=nu,
        )
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        if err.trace is not None:
            _write_trace_csv(out_dir / "trace.csv", err.trace)
            _write_events_json(out_dir / "events.json", err.trace)
        return EXIT_DIVERGED

    report = sim.measure_rates(trace)
    validation = sim.validate_trace(trace)
    _write_trace_csv(out_dir / "trace.csv", trace)
    _write_events_json(out_dir / "events.json", trace)
    payload = dataclasses.asdict(report)
    payload["invariants_ok"] = validation.ok
    payload["violations"] = validation.violations
    _write_json(out_dir / "report.json", payload)
    print(
        f"horizon {trace.horizon:g} s, {report.trigger_count} triggers, "
        f"{report.total_bits} bits, R_s={report.rate_empirical:.6g} bits/s, "
        f"R_tr={report.trigger_rate_empirical:.6g} events/s"
    )
    print(f"invariants: {'ok' if validation.ok else 'VIOLATED'}")
    for v in validation.violations[:10]:
        print(f"  {v}", file=sys.stderr)
    print(f"wrote {out_dir / 'trace.csv'}, {out_dir / 'events.json'}, {out_dir / 'report.json'}")
    if not validation.ok:
        code = EXIT_INVARIANT
    return code


# -- sweep ----------------------------------------------------------------------


def _sweep_csv_rows(cfg: RunConfig) -> list[dict]:
    mode = cfg.get("mode", str, "analytic")
    gamma_grid = cfg.get("gamma_grid", _grid)
    rows: list[dict] = []
    if mode == "analytic":
        base = build_inputs(cfg, gamma=max(gamma_grid))
        if cfg.has("rho0_list") and cfg.has("rho_ladder"):
            raise ConfigurationError(
                "rho_ladder is defined for one rho0 and cannot be combined with rho0_list"
            )
        rho_list = cfg.get("rho0_list", _grid, None) or [base.rho0]
        sigma_grid = cfg.get("sigma_grid", _grid, None)
        for rho in rho_list:
            at = dataclasses.replace(base, rho0=rho)
            curve = sim.phase_curves(at, gamma_grid, sigma_grid)
            sup = curve.necessary_sup_sigma
            columns = zip(
                curve.gammas.tolist(), curve.necessary.tolist(),
                curve.necessary_approx.tolist(), curve.sufficient.tolist(),
                [None] * len(curve.gammas) if sup is None else sup.tolist(),
            )
            for gamma, nec, app, suf, nec_sup in columns:
                rows.append(
                    {
                        "gamma": gamma,
                        "rho0": rho,
                        "sigma": at.sigma,
                        "R_necessary": nec,
                        "R_necessary_approx": app,
                        "R_sufficient": suf,
                        "R_necessary_sup": nec_sup,
                        "R_access": curve.access_rate,
                    }
                )
        return rows
    if mode != "empirical":
        raise ConfigurationError(f"sweep mode must be analytic or empirical, got {mode!r}")
    plant = build_plant(cfg)
    if not cfg.has("gamma"):
        cfg.override("gamma", max(gamma_grid))  # placeholder; swept per row
    trigger = build_trigger(cfg)
    seed = cfg.get("seed", int, 0)
    factory = _delay_factory(cfg, plant, seed)
    sweep = sim.sweep_gamma(
        plant,
        trigger,
        gamma_grid,
        cfg.get("horizon", float),
        cfg.get("step", float, 0.0002),
        delay_factory=factory,
        x0=cfg.get("x0", _floats),
        xhat0=cfg.get("xhat0", _floats),
        refine=cfg.get("refine", _bool, False),
        nu=cfg.get("nu", float, 2.0),
    )
    for row in sweep:
        b = row.bounds
        rows.append(
            {
                "gamma": row.gamma,
                "rho0": trigger.rho0,
                "sigma": trigger.sigma,
                "g": row.g,
                "R_s_empirical": row.rate_empirical,
                "R_tr_empirical": row.trigger_rate_empirical,
                "R_necessary": None if b is None else b.rate_necessary,
                "R_necessary_approx": None if b is None else b.rate_necessary_approx,
                "R_sufficient": None if b is None else b.rate_sufficient,
                "R_access": None if b is None else b.access_rate,
                "x0_norm": row.x0_norm,
                "xT_norm": row.xT_norm,
                "invariants_ok": row.invariants_ok,
                "error": row.error,
            }
        )
    return rows


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    rows = _sweep_csv_rows(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with path.open("w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in SWEEP_COLUMNS) + "\n")
    errors = [r for r in rows if r.get("error")]
    print(f"wrote {path} ({len(rows)} rows, {len(errors)} failed)")
    if errors and len(errors) == len(rows):
        return EXIT_INVARIANT
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def recipe_path(name: str) -> Path:
    """Path of a bundled figure recipe, e.g. 'fig7'."""
    return Path(__file__).parent / "recipes" / f"{name}.cfg"


def _build_argparser() -> _Parser:
    parser = _Parser(prog="etcsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"etcsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("bounds", "print every analytic bound for one parameter set"),
        ("simulate", "run the closed loop and export trace/events/report"),
        ("sweep", "sweep the delay bound and export a rate-vs-delay CSV"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, help="key = value configuration file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="delay realization seed")
        p.add_argument("--step", type=float, default=None, help="sample step (s)")
        p.add_argument("--horizon", type=float, default=None, help="run length (s)")
        p.add_argument("--gamma", type=float, default=None, help="delay bound (s)")
        p.add_argument("--delay", type=str, default=None, help="delay model spec")
        p.add_argument("--g", type=int, default=None, help="packet size (bits), 0 = automatic")
        p.add_argument("--nu", type=float, default=None, help="precision parameter")
        p.add_argument("--refine", action="store_true", default=None,
                       help="resolve trigger crossings inside the step")
        if name == "bounds":
            p.add_argument("--json", action="store_true", help="also write bounds.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            cfg = RunConfig.from_file(args.config)
        else:
            cfg = RunConfig({}, "<cli>")
        for key in ("seed", "step", "horizon", "gamma", "delay", "g", "nu", "refine"):
            cfg.override(key, getattr(args, key, None))
        out = args.out
        if args.command == "bounds":
            return cmd_bounds(cfg, out, args.json)
        if args.command == "simulate":
            return cmd_simulate(cfg, out or Path("out"))
        return cmd_sweep(cfg, out or Path("out"))
    except (ConfigurationError, PreconditionError, DecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
