"""Span tracing for the traced run, installed from outside the package.

Each wrapper replaces the attribute its caller looks up at call time:
`cli.main`, the `sim` entry points, the names `sim` imported from `codec`,
`channel` and `model`, `scipy.linalg.expm` (which `sim` calls through the
module), the `ChannelState` methods and the public `etcsim.bounds`
functions (which `sim`, `cli` and `bounds` itself call through the module).
Nothing is installed in an untraced run.

A span's self time is its duration minus the durations of its direct
children, which run one after another inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import scipy.linalg

from etcsim import bounds, channel, cli, sim

SPANS_KEPT = 100_000  # spans held in memory for the span file; totals count all


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._ids = 0
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._ids += 1
            parent = stack[-1][0] if stack else None
            frame = [self._ids, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if len(self.spans) < SPANS_KEPT:
                    self.spans.append((frame[0], parent, name, t0, t1))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def _count_trace(self, trace) -> None:
        rx = trace.receptions()
        self.counts["sim.samples"] += trace.times.size
        self.counts["sim.events"] += len(trace.events)
        self.counts["sim.trace_bytes"] += trace.times.size * 4 * trace.n * 8
        self.counts["codec.receptions"] += len(rx)
        self.counts["codec.flagged"] += sum(e.flagged for e in rx)

    def _count_packet(self, packet) -> None:
        self.counts["codec.bits_sent"] += packet.g

    def install(self) -> None:
        self._patch(cli, "main", "cli.main")
        for fn in ("run_vector", "run_scalar"):
            self._patch(sim, fn, f"sim.{fn}", self._count_trace)
        for fn in ("validate_trace", "measure_rates", "phase_curves"):
            self._patch(sim, fn, f"sim.{fn}")
        self._patch(sim, "block_matexp", "model.block_matexp")
        self._patch(scipy.linalg, "expm", "model.expm")
        self._patch(sim, "encode", "codec.encode", self._count_packet)
        for fn in ("decode", "reconstruct_error"):
            self._patch(sim, fn, f"codec.{fn}")
        self._patch(sim, "sample_delay", "channel.sample_delay")
        for fn in ("admit", "send", "next_delivery", "deliver"):
            self._patch(channel.ChannelState, fn, f"channel.ChannelState.{fn}")
        for fn_name, fn in inspect.getmembers(bounds, inspect.isfunction):
            if not fn_name.startswith("_") and fn.__module__ == bounds.__name__:
                self._patch(bounds, fn_name, f"bounds.{fn_name}")

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer(self, prefix: str, table) -> tuple[int, float]:
        """Calls and summed times (from `table`) of every span under a prefix."""
        names = [n for n in self.calls if n.startswith(prefix)]
        return sum(self.calls[n] for n in names), sum(table[n] for n in names)

    def write(self, path: Path) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_s": t0 - origin, "end_s": t1 - origin}) + "\n")
