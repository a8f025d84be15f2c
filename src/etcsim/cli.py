"""Command-line front end: analytic bound tables, closed-loop runs, sweeps.

Configuration comes from a plain key = value text file (see recipes/) with
command-line flags taking precedence; both are parsed by the same functions.
Numbers in CSV/JSON outputs use the shortest round-trip decimal form, so
identical configurations and seeds produce byte-identical files: each
trace.csv cell is repr of the Python float, produced by the numpy kernel in
_shortest.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime invariant
violation, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from . import bounds as bnd
from .errors import ConfigurationError, DecodeError, DivergenceError, PreconditionError

if TYPE_CHECKING:  # numpy and the engine load only where a command runs the closed loop
    from .model import JordanPlant, TriggerConfig
    from .sim import SimTrace

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
_CSV_BLOCK_CELLS = 8192  # trace.csv cells per kernel call; its temporaries scale with it
MAX_GRID_POINTS = 100_000  # largest start:step:count grid a config may ask for


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _seed(s: str) -> int:
    seed = int(s)
    if not 0 <= seed < 2**64:  # a u64, as the README documents
        raise ValueError("seed must be >= 0 and < 2**64")
    return seed


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


def _blocks(s: str) -> tuple[tuple[float, float], ...]:
    """(eigenvalue, order) pairs; bounds.check_blocks refuses an order that is no integer."""
    out = []
    for part in s.split(","):
        lam, _, p = part.strip().partition(":")
        out.append((float(lam), float(p) if p else 1.0))
    return tuple(out)


def _matrix(s: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row.split()) for row in s.split(";"))


def _nested(s: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in grp.replace(",", " ").split()) for grp in s.split(";"))


_ALL = ("bounds", "simulate", "analytic", "empirical")
_RUNS = ("simulate", "empirical")  # the readers that run the closed loop
_SWEEPS = ("analytic", "empirical")
# every key a config file may hold. parse: str -> value; default: _MISSING if required;
# readers: the commands and sweep modes that read it; help: flag help, None if file only
Setting = namedtuple("Setting", "parse default readers help", defaults=[None])
SETTINGS = {
    "A": Setting(float, _MISSING, _ALL),
    "B": Setting(float, 0.0, _ALL),
    "K": Setting(float, 0.0, _ALL),
    "blocks": Setting(_blocks, _MISSING, _ALL),
    "B_matrix": Setting(_matrix, _MISSING, _ALL),  # build_plant computes the default
    "K_matrix": Setting(_matrix, _MISSING, _ALL),
    "v0": Setting(_nested, _MISSING, _RUNS),
    "sigma": Setting(float, _MISSING, _ALL),
    "rho0": Setting(float, _MISSING, _ALL),
    "gamma": Setting(float, _MISSING, ("bounds", "simulate"), "delay bound (s)"),
    "b": Setting(float, 1.0001, _ALL),
    "rho_ladder": Setting(_nested, None, _ALL),
    "nu": Setting(float, 2.0, _ALL, "precision parameter"),  # bounds, analytic sweeps: 1.0
    "g": Setting(int, 0, ("bounds", "simulate"), "packet size (bits), 0 = automatic"),
    "delay": Setting(str, "uniform", _RUNS, "delay model spec"),
    "seed": Setting(_seed, 0, _RUNS, "delay realization seed"),
    "horizon": Setting(float, _MISSING, _RUNS, "run length (s)"),
    "step": Setting(float, 0.0002, _RUNS, "sample step (s)"),
    "refine": Setting(_bool, False, _RUNS, "resolve trigger crossings inside the step"),
    "x0": Setting(_floats, _MISSING, _RUNS),
    "xhat0": Setting(_floats, _MISSING, _RUNS),
    "mode": Setting(str, "analytic", _SWEEPS),
    "gamma_grid": Setting(_grid, _MISSING, _SWEEPS),
    "rho0_list": Setting(_grid, None, ("analytic",)),
    "sigma_grid": Setting(_grid, None, ("analytic",)),
}
CONFIG_KEYS = frozenset(SETTINGS)  # RunConfig.from_file refuses any other key


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
            if key in entries:
                raise ConfigurationError(
                    f"{path}:{lineno}: duplicate key {key!r}, first set on line {entries[key][1]}"
                )
            entries[key] = (val.strip(), lineno)
        return cls(entries, str(path))

    def override(self, key: str, value) -> None:
        if value is not None:
            self.entries[key] = (str(value), 0)

    def has(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str, *, default=_MISSING):
        """The key's value parsed as SETTINGS says; default replaces the table's."""
        if key not in self.entries:
            default = SETTINGS[key].default if default is _MISSING else default
            if default is _MISSING:
                raise ConfigurationError(f"missing required field '{key}' in {self.source}")
            return default
        val, lineno = self.entries[key]
        try:
            return SETTINGS[key].parse(val)
        except (ValueError, ConfigurationError) as err:
            where = f"line {lineno} of {self.source}" if lineno else "command line"
            raise ConfigurationError(f"field '{key}' ({where}): {err}") from err


def _plant_parts(cfg: RunConfig) -> tuple:
    """blocks, checked, and B and K as configured; the blocks form defaults to B = I, K = 0.

    The blocks are checked before the n x n default gains are built.
    """
    if not cfg.has("blocks"):
        return bnd.check_blocks(((cfg.get("A"), 1),)), cfg.get("B"), cfg.get("K")
    blocks = bnd.check_blocks(cfg.get("blocks"))
    n = sum(p for _, p in blocks)
    identity = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    B = cfg.get("B_matrix", default=identity)
    m = len(B[0]) if B else 0
    return blocks, B, cfg.get("K_matrix", default=((0.0,) * n,) * m)


def build_plant(cfg: RunConfig) -> JordanPlant:
    from .model import JordanPlant

    blocks, B, K = _plant_parts(cfg)
    return JordanPlant(blocks=blocks, B=B, K=K)


def _design(cfg: RunConfig, gamma: float | None) -> dict:
    """The design parameters TriggerConfig and BoundInputs share; gamma overrides the key."""
    return dict(
        sigma=cfg.get("sigma"),
        rho0=cfg.get("rho0"),
        gamma=cfg.get("gamma") if gamma is None else gamma,
        b=cfg.get("b"),
        rho_ladders=cfg.get("rho_ladder"),
    )


def build_trigger(cfg: RunConfig, gamma: float | None = None) -> TriggerConfig:
    from .model import TriggerConfig

    return TriggerConfig(v0=cfg.get("v0"), **_design(cfg, gamma))


def build_inputs(cfg: RunConfig, gamma: float | None = None) -> bnd.BoundInputs:
    """The plant is checked as JordanPlant checks it, without building it (or numpy)."""
    blocks, B, K = _plant_parts(cfg)
    bnd.check_gains(sum(p for _, p in blocks), B, K)
    return bnd.BoundInputs(blocks=blocks, **_design(cfg, gamma), nu=cfg.get("nu", default=1.0))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):  # numpy's float64 too; float() drops its repr's type name
        return repr(float(x))
    return str(x)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


# -- bounds -------------------------------------------------------------------


def cmd_bounds(cfg: RunConfig, out_dir: Path | None, want_json: bool) -> int:
    inp = build_inputs(cfg)
    table = bnd.analytic_bounds(inp)
    quantities = {k: v for k, v in dataclasses.asdict(table).items() if v is not None}
    scalar_like = table.packet_size_sufficient is not None
    g = cfg.get("g")
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


def _delays(cfg: RunConfig, plant: JordanPlant, gamma: float, row: int) -> list:
    """The delay model of each coordinate in a run of delay bound gamma, row `row` of a sweep."""
    from .channel import build_delay

    growth = max(lam for lam, _ in plant.blocks)
    return [
        build_delay(cfg.get("delay"), gamma, seed=cfg.get("seed"), salt=(row, c), growth=growth,
                    sigma=cfg.get("sigma"), rho0=cfg.get("rho0"))
        for c in range(plant.n)
    ]


def _write_trace_csv(path: Path, trace: SimTrace) -> None:
    import numpy as np

    from ._shortest import _shortest_csv

    n = trace.n
    cols = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"xhat{i+1}" for i in range(n)]
        + [f"z{i+1}" for i in range(n)]
        + [f"v{i+1}" for i in range(n)]
    )
    columns = (trace.times, trace.x, trace.xhat, trace.z, trace.v)
    rows = max(1, _CSV_BLOCK_CELLS // len(cols))
    with path.open("wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        # each cell is repr of the Python float, _fmt's cell text; blocks of whole rows
        # bound the copies whatever the plant order
        for a in range(0, len(trace.times), rows):
            block = np.column_stack([c[a : a + rows] for c in columns])
            fh.write(_shortest_csv(block, len(cols)))


def _write_events_json(path: Path, trace: SimTrace) -> None:
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


def _write_run(out_dir: Path, trace: SimTrace) -> None:
    """trace.csv and events.json; out_dir is made here, once a run has a trace."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out_dir / "trace.csv", trace)
    _write_events_json(out_dir / "events.json", trace)


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    from . import sim

    plant = build_plant(cfg)
    trigger = build_trigger(cfg)
    horizon = cfg.get("horizon")
    step = cfg.get("step")
    refine = cfg.get("refine")
    nu = cfg.get("nu")
    g = cfg.get("g") or None
    x0 = cfg.get("x0")
    xhat0 = cfg.get("xhat0")
    models = _delays(cfg, plant, trigger.gamma, 0)

    try:
        trace = sim.run_vector(
            plant, trigger, models, horizon, step,
            x0=x0, xhat0=xhat0, refine=refine, g=g, nu=nu,
        )
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        if err.trace is not None:
            _write_run(out_dir, err.trace)
        return EXIT_DIVERGED

    report = sim.measure_rates(trace)
    validation = sim.validate_trace(trace)
    _write_run(out_dir, trace)
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
    return EXIT_OK if validation.ok else EXIT_INVARIANT


# -- sweep ----------------------------------------------------------------------


def _sweep_csv_rows(cfg: RunConfig) -> tuple[list[str], int]:
    """The sweep.csv data lines, each ending in a newline, and the count of failed rows."""
    mode = cfg.get("mode")
    if mode not in _SWEEPS:
        raise ConfigurationError(f"sweep mode must be analytic or empirical, got {mode!r}")
    other = "empirical" if mode == "analytic" else "analytic"
    for key, (_, lineno) in cfg.entries.items():
        if other in SETTINGS[key].readers and mode not in SETTINGS[key].readers:
            where = f"{cfg.source}:{lineno}" if lineno else "command line"
            raise ConfigurationError(
                f"{where}: {key!r} is an {other}-sweep key; mode = {mode} does not read it"
            )
    gamma_grid = cfg.get("gamma_grid")
    lines: list[str] = []
    if mode == "analytic":
        base = build_inputs(cfg, gamma=max(gamma_grid))
        if cfg.has("rho0_list") and cfg.has("rho_ladder"):
            raise ConfigurationError(
                "rho_ladder is defined for one rho0 and cannot be combined with rho0_list"
            )
        rho_list = cfg.get("rho0_list") or [base.rho0]
        sigma_grid = cfg.get("sigma_grid")
        for rho in rho_list:
            at = dataclasses.replace(base, rho0=rho)
            curve = bnd.phase_curves(at, gamma_grid, sigma_grid)
            sup = curve.necessary_sup_sigma
            # the curve's constant cells once; repr of a Python float is _fmt's cell text
            head = f",{rho!r},{at.sigma!r},,,,"
            tail = f",{curve.access_rate!r},,,,\n"
            columns = zip(
                curve.gammas, curve.necessary, curve.necessary_approx, curve.sufficient,
                [""] * len(curve.gammas) if sup is None else map(repr, sup),
            )
            lines += [
                f"{gamma!r}{head}{nec!r},{app!r},{suf!r},{nec_sup}{tail}"
                for gamma, nec, app, suf, nec_sup in columns
            ]
        return lines, 0

    bad = [gamma for gamma in gamma_grid if not gamma > 0]
    if bad:  # before any row runs
        raise ConfigurationError(f"sweep grid values must be positive, got {bad[0]}")
    import csv
    import io

    import numpy as np

    from . import sim

    plant = build_plant(cfg)
    trigger = build_trigger(cfg, gamma=max(gamma_grid))  # gamma is swept per row
    horizon, step = cfg.get("horizon"), cfg.get("step")
    sim._sample_count(horizon, step, plant.n)  # the same in every row: refused before any
    x0, xhat0, refine, nu = cfg.get("x0"), cfg.get("xhat0"), cfg.get("refine"), cfg.get("nu")
    failed = 0
    for row, gamma in enumerate(gamma_grid):
        models = _delays(cfg, plant, gamma, row)  # a spec this gamma refuses stops the sweep
        try:
            trace = sim.run_vector(
                plant, dataclasses.replace(trigger, gamma=gamma), models, horizon, step,
                x0=x0, xhat0=xhat0, refine=refine, nu=nu,
            )
            report = sim.measure_rates(trace)
            b = report.bounds
            cells = (  # in SWEEP_COLUMNS order
                gamma, trigger.rho0, trigger.sigma, max(trace.g),
                report.rate_empirical, report.trigger_rate_empirical,
                b.rate_necessary, b.rate_necessary_approx, b.rate_sufficient, None, b.access_rate,
                float(np.linalg.norm(trace.x[0])), float(np.linalg.norm(trace.x[-1])),
                sim.validate_trace(trace).ok, None,
            )
        except (DivergenceError, ConfigurationError, PreconditionError, DecodeError) as err:
            failed += 1  # the row records why and the sweep goes on
            cells = (gamma, trigger.rho0, trigger.sigma, *[None] * 11, str(err))
        record = io.StringIO()  # RFC 4180 minimal quoting: a comma in a message stays in its cell
        csv.writer(record, lineterminator="\n").writerow(map(_fmt, cells))
        lines.append(record.getvalue())
    return lines, failed


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    lines, failed = _sweep_csv_rows(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with path.open("w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        fh.writelines(lines)
    print(f"wrote {path} ({len(lines)} rows, {failed} failed)")
    if failed and failed == len(lines):
        return EXIT_INVARIANT
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def recipe_path(name: str) -> Path:
    """Path of a bundled figure recipe, e.g. 'fig7'."""
    return Path(__file__).parent / "recipes" / f"{name}.cfg"


@functools.cache  # the parser depends on SETTINGS alone: one per process
def _build_argparser() -> _Parser:
    parser = _Parser(prog="etcsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"etcsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, readers, desc in (
        ("bounds", ("bounds",), "print every analytic bound for one parameter set"),
        ("simulate", ("simulate",), "run the closed loop and export trace/events/report"),
        ("sweep", _SWEEPS, "sweep the delay bound and export a rate-vs-delay CSV"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=Path, help="key = value configuration file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        for key, setting in SETTINGS.items():
            if setting.help is None or set(readers).isdisjoint(setting.readers):
                continue
            if setting.parse is _bool:  # a switch: given means true
                p.add_argument(f"--{key}", action="store_true", default=None, help=setting.help)
            else:  # RunConfig.get parses the value, as it parses the config file's
                p.add_argument(f"--{key}", help=setting.help)
        if name == "bounds":
            p.add_argument("--json", action="store_true", help="also write bounds.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig({}, "<cli>") if args.config is None else RunConfig.from_file(args.config)
        for key in SETTINGS:  # args holds the command's flags, None where not given
            cfg.override(key, getattr(args, key, None))
        with warnings.catch_warnings():  # one line per warning; library callers keep theirs
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            if args.command == "bounds":
                return cmd_bounds(cfg, args.out, args.json)
            if args.command == "simulate":
                return cmd_simulate(cfg, args.out or Path("out"))
            return cmd_sweep(cfg, args.out or Path("out"))
    except (ConfigurationError, PreconditionError, DecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
