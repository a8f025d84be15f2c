"""etcsim benchmark: one workload, timed in-process, every output checked.

    python3 bench/run.py --workload vector_dense --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
that times the same workload untraced for half the seconds and traced for
the other half.  The lines before it record the environment and the
details each metric needs (percentile, counts, bases, work unit).

Everything runs in this one process with BLAS/OpenMP threads pinned to 1,
except the cold interpreters that time `import etcsim.cli` (setup_s) and,
in the traced run of fig7_simulate, one cold `python -m etcsim simulate`.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse
import hashlib
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # scratch outputs and span files; never committed
sys.path.insert(0, str(SRC))
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # operations that must lie beyond the reported tail
PROBE_REFERENCE_S = 0.007  # the probe's fastest time on the 2-core host the benchmark was defined on


class Clock:
    """Wall times expressed at a fixed machine speed.

    On a shared host the same operation runs up to ~1.7x slower for seconds
    at a time, which moved raw 20 s medians by 20-30% between runs.  Every
    timed interval is therefore bracketed by a fixed probe task that never
    touches etcsim, and its wall time is scaled by PROBE_REFERENCE_S / (mean
    of its two probes): the figures are seconds at the speed at which the
    probe takes PROBE_REFERENCE_S.  A change to etcsim moves them as it
    moves wall time, since it cannot change the probe.  Raw wall times are
    reported beside them.
    """

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        gc.disable()  # the probe must not pay for collecting the workload's objects
        try:
            t0 = perf_counter()
            acc = 0.0
            for v in _PROBE_FLOATS:
                acc += math.exp(-v) * v
            ",".join(map(repr, _PROBE_FLOATS[:6000]))
            counts = {}
            for i in range(20000):
                counts[i % 997] = counts.get(i % 997, 0) + i
            np.sort(_PROBE_ARRAY)
            dt = perf_counter() - t0
        finally:
            gc.enable()
        self.probes.append(dt)
        return dt

    def time(self, fn, *args):
        """fn(*args), and (its wall time, the mean of the probes around it)."""
        before = self.probe()
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        return result, (dt, 0.5 * (before + self.probe()))

    @staticmethod
    def corrected(samples: list[tuple[float, float]]) -> list[float]:
        return [dt * PROBE_REFERENCE_S / around for dt, around in samples]


_PROBE_FLOATS = [i * 1e-4 for i in range(20000)]
_PROBE_ARRAY = np.random.default_rng(0).random(200_000)


@dataclass
class Phase:
    """Timed operations of one measuring phase: (wall time, probe) pairs."""

    samples: list[tuple[float, float]] = field(default_factory=list)
    work: int = 0
    bytes_written: int = 0


def tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, operations beyond it) of the highest percentile
    with TAIL_BEYOND operations beyond it; the maximum on short runs."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[k - 1], 100.0 * k / n, n - k


class Loop:
    """One closed-loop client: the next operation starts when the last ends."""

    def __init__(self, workload, gate, clock: Clock):
        self.workload = workload
        self.gate = gate
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []

    def _attempt(self) -> list[str] | None:
        try:
            self.workload.op()
        except Exception:  # a raising operation counts as failed; the run goes on
            return [traceback.format_exc(limit=-3)]
        return None

    def step(self, phase: Phase | None) -> None:
        """One operation, timed into `phase`, then checked untimed."""
        self.attempted += 1
        self.workload.reset()  # the check must see only what this operation wrote
        problems, sample = self.clock.time(self._attempt)
        if problems is None:
            try:
                out = self.workload.output()
                problems = self.gate(out)
            except Exception:  # missing or unreadable output files
                problems = [traceback.format_exc(limit=-3)]
        if phase is not None:
            phase.samples.append(sample)
            if not problems:
                phase.work += out.work
                phase.bytes_written += out.bytes_written
        if problems:
            self.failures.append("; ".join(problems))

    def until(self, seconds: float) -> Phase:
        """Operations back to back for `seconds`, at least one."""
        phase = Phase()
        deadline = perf_counter() + seconds
        while True:
            self.step(phase)
            if perf_counter() >= deadline:
                return phase


def _run_quiet(cmd: list[str]) -> None:
    """Run `cmd` in a fresh interpreter to completion."""
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def measure_setup(clock: Clock, repeats: int) -> list[tuple[float, float]]:
    """Timed cold `import etcsim.cli`, each in a fresh interpreter."""
    cmd = [sys.executable, "-c", "import etcsim.cli"]
    _run_quiet(cmd)  # the first import writes the bytecode cache
    return [clock.time(_run_quiet, cmd)[1] for _ in range(repeats)]


def environment(seed: int) -> dict:
    import scipy

    import etcsim

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    source = hashlib.sha256()
    for path in sorted((SRC / "etcsim").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "etcsim": etcsim.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        size: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details).

    `size` overrides the workload's size (the self-test's tiny runs); only
    full-size runs are checked against stored references.
    """
    from refcheck import Gate, load_reference, reference_path
    from spans import Tracer
    from workloads import WORKLOADS, Fig7Simulate

    cls = WORKLOADS[name]
    clock = Clock()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        tmp = Path(tmp)
        setup = measure_setup(clock, setup_repeats)
        ref_path = reference_path(cls, seed)
        reference = load_reference(ref_path) if size is None and ref_path.exists() else None
        loop = Loop(cls(seed, tmp / "op", **(size or {})), Gate(reference), clock)
        loop.step(None)  # warm-up: caches fill and lazy set-up finishes untimed

        if not trace:
            phase = loop.until(seconds)
        else:
            phase = loop.until(seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = loop.until(seconds / 2)
            finally:
                tracer.uninstall()
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)

            if cls is Fig7Simulate:  # the same operation in a cold interpreter
                cold_cmd = [sys.executable, "-m", "etcsim", *loop.workload.cli_args(tmp / "cold")]
                _, cold = clock.time(_run_quiet, cold_cmd)

    times = clock.corrected(phase.samples)
    setup_s = statistics.median(clock.corrected(setup))
    details = {
        "workload": name,
        "work_unit": cls.work_unit,
        "reference": ref_path.name if reference is not None else None,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "timing": f"seconds at the speed where the probe takes {PROBE_REFERENCE_S} s, see Clock",
        "probe_median_s": statistics.median(clock.probes),
        "setup_wall_s": [dt for dt, _ in setup],
        "op_p50_wall_s": statistics.median(dt for dt, _ in phase.samples),
    }
    if not trace:
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "work_per_s": (phase.work / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((loop.attempted - len(loop.failures)) / loop.attempted, "ratio"),
        }
        details.update(
            timed_ops=len(times),
            op_tail_percentile=tail_pct,
            op_tail_ops_beyond=beyond,
            work_per_op=phase.work / len(times),
            failed_ratio=len(loop.failures) / loop.attempted,
            failed_ratio_base=loop.attempted,
        )
    else:
        traced_times = clock.corrected(traced.samples)
        op_p50 = statistics.median(times)
        if cls is Fig7Simulate:
            cold_s = clock.corrected([cold])[0]
            cold_gap = cold_s - (setup_s + op_p50)
        else:
            cold_s = cold_gap = 0.0
        metrics = layer_metrics(tracer, traced)
        metrics.update({
            "cli.cold_simulate_s": (cold_s, "s"),
            "cli.cold_gap_s": (cold_gap, "s"),
            "trace.overhead_s": (statistics.median(traced_times) - op_p50, "s/op"),
        })
        details.update(
            untraced_ops=len(times),
            traced_ops=len(traced_times),
            span_times="raw wall time",
            codec_receptions_per_op=tracer.counts["codec.receptions"] / len(traced_times),
            sim_trace_bytes="computed as samples * 4n * 8, not measured",
            spans_file=str(spans_path.relative_to(ROOT)),
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.dropped,
            setup_s=setup_s,
            op_p50_s=op_p50,
            cold_cli="timed on fig7_simulate only; 0 on the other workloads",
        )
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def layer_metrics(tracer, traced: Phase) -> dict[str, tuple[float, str]]:
    """Per-operation span and count figures of the traced phase."""
    ops = len(traced.samples)
    model_calls, model_s = tracer.layer("model.", tracer.total)
    bounds_calls, bounds_s = tracer.layer("bounds.", tracer.self_time)
    codec_calls, codec_s = tracer.layer("codec.", tracer.self_time)
    channel_calls, channel_s = tracer.layer("channel.", tracer.self_time)
    self_time, total, counts = tracer.self_time, tracer.total, tracer.counts
    receptions = counts["codec.receptions"]
    return {
        "cli.self_s": (self_time["cli.main"] / ops, "s/op"),
        "cli.bytes_written": (traced.bytes_written / ops, "B/op"),
        "sim.engine_self_s": ((self_time["sim.run_vector"] + self_time["sim.run_scalar"]) / ops, "s/op"),
        "sim.validate_s": (total["sim.validate_trace"] / ops, "s/op"),
        "sim.measure_s": (total["sim.measure_rates"] / ops, "s/op"),
        "sim.sweep_self_s": (self_time["sim.phase_curves"] / ops, "s/op"),
        "sim.samples": (counts["sim.samples"] / ops, "count/op"),
        "sim.events": (counts["sim.events"] / ops, "count/op"),
        "sim.trace_bytes": (counts["sim.trace_bytes"] / ops, "B/op"),
        "model.matexp_calls": (model_calls / ops, "count/op"),
        "model.matexp_s": (model_s / ops, "s/op"),
        "bounds.calls": (bounds_calls / ops, "count/op"),
        "bounds.self_s": (bounds_s / ops, "s/op"),
        "codec.calls": (codec_calls / ops, "count/op"),
        "codec.self_s": (codec_s / ops, "s/op"),
        "codec.bits_sent": (counts["codec.bits_sent"] / ops, "bit/op"),
        "codec.flagged_ratio": (counts["codec.flagged"] / receptions if receptions else 0.0, "ratio"),
        "channel.calls": (channel_calls / ops, "count/op"),
        "channel.self_s": (channel_s / ops, "s/op"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7_simulate", "vector_dense", "analytic_sweeps"))
    parser.add_argument("--seed", type=int, required=True, help="delay-model seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "etcsim" / "__init__.py").is_file():
        print(f"error: etcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the interpreters it starts, so that the
    # probes see the speed of the CPU the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment(args.seed)))
    print("detail " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
