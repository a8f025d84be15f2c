"""The benchmark's three workloads, each a closed loop of one client.

`op()` performs one operation the way a researcher reruns a figure, back to
back with the previous one.  `reset()` discards the previous operation's
outputs and `output()` reads back what the operation produced; the benchmark
calls both outside the timed region, so an operation that writes nothing
leaves nothing to check and fails.  The benchmark seed enters only through
the delay models.

Every call into the package goes through a module attribute (`cli.main`,
`sim.run_vector`, ...) so that the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from etcsim import channel, cli, model, sim


@dataclass
class Part:
    """One table of an operation's output, with its event log."""

    columns: list[np.ndarray]  # equal-length 1-D columns, NaN for empty cells
    events: list[tuple]  # (kind, coord, t, t_s, t_c, g, bits_hex)
    header: str | None = None  # frozen CSV header, for exported tables


@dataclass
class Output:
    """What one operation produced.  Parts are parsed only when checked."""

    ok: bool  # the program's own verdict: exit code 0, invariants hold
    digest: str  # sha256 over the raw outputs
    work: int  # units of work done, see the workload's work_unit
    bytes_written: int
    load: Callable[[], dict[str, Part]]


def _event_tuple(e: dict) -> tuple:
    return (
        str(e["kind"]), int(e["coord"]), float(e["t"]), float(e["t_s"]),
        float(e["t_c"]), int(e["g"]), str(e["bits_hex"]),
    )


def _cell(s: str) -> float:
    if s == "":
        return math.nan
    if s in ("true", "false"):
        return float(s == "true")
    return float(s)


def _parse_csv(data: bytes) -> tuple[str, list[np.ndarray]]:
    lines = iter(io.BytesIO(data))  # line by line: no full-size decoded copy
    header = next(lines).decode().rstrip("\n")
    table = np.loadtxt(lines, delimiter=",", converters=_cell, ndmin=2)
    return header, list(table.T)


def _quiet(fn, *args):
    """Call fn with the CLI's progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class Fig7Simulate:
    """The bundled fig7 recipe through `etcsim simulate`, exported to CSV/JSON."""

    name = "fig7_simulate"
    work_unit = "trace rows"
    seeded = True

    def __init__(self, seed: int, out_dir: Path, horizon: float | None = None):
        self.out = out_dir
        self.seed = seed
        self.horizon = horizon
        self.argv = self.cli_args(out_dir)
        self.rc = None

    def cli_args(self, out_dir: Path) -> list[str]:
        """The `etcsim` arguments of one operation that writes into out_dir."""
        args = ["simulate", "--config", str(cli.recipe_path("fig7")),
                "--out", str(out_dir), "--seed", str(self.seed)]
        if self.horizon is not None:
            args += ["--horizon", repr(self.horizon)]
        return args

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.rc = None

    def op(self) -> None:
        self.rc = _quiet(cli.main, self.argv)

    def output(self) -> Output:
        raw = [(self.out / f).read_bytes() for f in ("trace.csv", "events.json", "report.json")]
        report = json.loads(raw[2])

        def load():
            header, columns = _parse_csv(raw[0])
            events = [_event_tuple(e) for e in json.loads(raw[1])["events"]]
            return {"trace.csv": Part(columns, events, header)}

        return Output(
            ok=self.rc == 0 and report["invariants_ok"] is True,
            digest=hashlib.sha256(b"\0".join(raw)).hexdigest(),
            work=raw[0].count(b"\n") - 1,
            bytes_written=sum(map(len, raw)),
            load=load,
        )


class VectorDense:
    """A 3-coordinate Jordan plant with dense events, through the library API.

    Blocks ((5,2),(10,1)), B = I, K = 15 I, sigma 2, rho0 0.5, gamma 0.05 and
    step 1e-4 give about 95 triggers per run and packets g = (3, 2, 3).  One
    operation runs the plant in grid mode and then in refine mode, each
    followed by measure_rates and validate_trace.
    """

    name = "vector_dense"
    work_unit = "trace samples"
    seeded = True
    GAMMA = 0.05

    def __init__(self, seed: int, out_dir: Path, horizon: float = 5.0):
        self.seed = seed
        self.horizon = horizon
        self.plant = model.JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3), K=15.0 * np.eye(3))
        self.trigger = model.TriggerConfig(
            v0=((0.5, 0.6), (0.5,)), sigma=2.0, rho0=0.5, gamma=self.GAMMA
        )
        self.results = {}

    def reset(self) -> None:
        self.results = {}  # frees the previous operation's traces before the next run

    def op(self) -> None:
        for mode, refine in (("grid", False), ("refine", True)):
            models = [
                channel.build_delay("uniform", self.GAMMA, seed=self.seed, salt=(0, c))
                for c in range(self.plant.n)
            ]
            trace = sim.run_vector(
                self.plant, self.trigger, models, self.horizon, 1e-4,
                x0=(0.1, 0.1, 0.1), xhat0=(0.0, 0.0, 0.0), refine=refine,
            )
            sim.measure_rates(trace)
            self.results[mode] = (trace, sim.validate_trace(trace))

    def output(self) -> Output:
        # views of the trace arrays, in trace.csv column order; nothing is copied
        parts = {
            mode: Part([tr.times, *tr.x.T, *tr.xhat.T, *tr.z.T, *tr.v.T],
                       [_event_tuple(vars(e)) for e in tr.events])
            for mode, (tr, _) in self.results.items()
        }
        h = hashlib.sha256()
        for mode, (tr, _) in self.results.items():
            for array in (tr.times, tr.x, tr.xhat, tr.z, tr.v):
                h.update(np.ascontiguousarray(array))
            h.update(repr(parts[mode].events).encode())
        return Output(
            ok=set(self.results) == {"grid", "refine"}
            and all(v.ok for _, v in self.results.values()),
            digest=h.hexdigest(),
            work=sum(tr.times.size for tr, _ in self.results.values()),
            bytes_written=0,
            load=lambda: parts,
        )


class AnalyticSweeps:
    """The fig3-fig6 recipes through `etcsim sweep`: 1,900 rows per operation."""

    name = "analytic_sweeps"
    work_unit = "sweep rows"
    seeded = False  # analytic sweeps draw no delays

    def __init__(self, seed: int, out_dir: Path, recipes=("fig3", "fig4", "fig5", "fig6")):
        self.runs = {
            fig: ["sweep", "--config", str(cli.recipe_path(fig)), "--out", str(out_dir / fig)]
            for fig in recipes
        }
        self.out = out_dir
        self.rcs = {}

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.rcs = {}

    def op(self) -> None:
        for fig, argv in self.runs.items():
            self.rcs[fig] = _quiet(cli.main, argv)

    def output(self) -> Output:
        raw = {fig: (self.out / fig / "sweep.csv").read_bytes() for fig in self.runs}

        def load():
            parts = {}
            for fig, data in raw.items():
                header, columns = _parse_csv(data)
                parts[fig] = Part(columns, [], header)
            return parts

        return Output(
            ok=all(self.rcs.get(fig) == 0 for fig in self.runs),
            digest=hashlib.sha256(b"\0".join(raw.values())).hexdigest(),
            work=sum(data.count(b"\n") - 1 for data in raw.values()),
            bytes_written=sum(map(len, raw.values())),
            load=load,
        )


WORKLOADS = {w.name: w for w in (Fig7Simulate, VectorDense, AnalyticSweeps)}

# The smallest sizes that still exercise every layer; used by the self-test.
TINY = {
    "fig7_simulate": {"horizon": 0.5},
    "vector_dense": {"horizon": 0.2},
    "analytic_sweeps": {"recipes": ("fig3",)},
}
