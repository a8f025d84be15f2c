"""Stored reference outputs and the check every operation must pass.

A reference holds, per output part: the event tuples, the frozen CSV
header, the row count, each column's max |value| and aggregates over all
rows, and the values of a fixed set of rows.  Sweeps keep every row.  Traces
keep `TRACE_ROWS` evenly spaced rows, first and last included, so that the
references of several seeds stay small; a full trace reference would take
about 10 MB per seed for vector_dense.

The check requires identical event tuples, identical headers, identical row
counts and empty-cell positions at the stored rows, and every stored value
within `REL_TOL * max|reference column|`, where the column max M is taken
over all rows.  So that every row counts, each column's aggregates must
agree too: the number of empty cells exactly, and the sum, the sum weighted
by row position (0 at the first row, 1 at the last) and the sum of squares
of the other cells within what values that are each within `REL_TOL * M`
allow, `nrows * REL_TOL * M` (sums) and `nrows * REL_TOL * M * (2 + REL_TOL) * M`
(squares).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import Output, Part

REL_TOL = 1e-12
TRACE_ROWS = 129
FULL_TABLE_ROWS = 2000  # tables up to this size are stored whole

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload, seed: int) -> Path:
    stem = f"{workload.name}-seed{seed}" if workload.seeded else workload.name
    return REFERENCE_DIR / f"{stem}.npz"


def make_reference(parts: dict[str, Part]) -> dict[str, np.ndarray]:
    """Arrays for np.savez_compressed; `load_reference` reads them back."""
    arrays = {}
    meta = {}
    for name, part in parts.items():
        nrows = len(part.columns[0])
        if nrows <= FULL_TABLE_ROWS:
            rows = np.arange(nrows)
        else:
            rows = np.unique(np.linspace(0, nrows - 1, TRACE_ROWS).round().astype(np.int64))
        arrays[f"{name}.rows"] = rows
        arrays[f"{name}.values"] = _rows(part, rows)
        arrays[f"{name}.colmax"] = np.array([np.nanmax(np.abs(c), initial=0.0) for c in part.columns])
        arrays[f"{name}.aggregates"] = _aggregates(part)
        meta[name] = {"nrows": nrows, "header": part.header, "events": part.events}
    arrays["meta"] = np.array(json.dumps(meta))
    return arrays


def _rows(part: Part, rows: np.ndarray) -> np.ndarray:
    return np.column_stack([c[rows] for c in part.columns])


def _aggregates(part: Part) -> np.ndarray:
    """Per column: empty cells, then the sum, position-weighted sum and sum of squares of the rest."""
    nrows = len(part.columns[0])
    weight = np.arange(nrows) / max(nrows - 1, 1)
    rows = []
    for c in part.columns:
        empty = np.isnan(c)
        v = np.where(empty, 0.0, c)
        rows.append((empty.sum(), v.sum(), (weight * v).sum(), (v * v).sum()))
    return np.array(rows, dtype=float)


def load_reference(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        return {
            name: dict(
                info,
                events=[tuple(e) for e in info["events"]],
                rows=data[f"{name}.rows"],
                values=data[f"{name}.values"],
                colmax=data[f"{name}.colmax"],
                aggregates=data[f"{name}.aggregates"],
            )
            for name, info in meta.items()
        }


def check(parts: dict[str, Part], ref: dict) -> list[str]:
    """Differences between an output and a reference; empty when they agree."""
    if set(parts) != set(ref):
        return [f"output parts {sorted(parts)} differ from reference parts {sorted(ref)}"]
    problems = []
    for name, part in parts.items():
        r = ref[name]
        if part.header != r["header"]:
            problems.append(f"{name}: header {part.header!r} != {r['header']!r}")
        if part.events != r["events"]:
            problems.append(f"{name}: event log differs ({len(part.events)} vs {len(r['events'])} events)")
        shape = (len(part.columns[0]), len(part.columns))
        if shape != (r["nrows"], r["values"].shape[1]):
            problems.append(f"{name}: table shape {shape} != ({r['nrows']}, {r['values'].shape[1]})")
            continue
        got = _rows(part, r["rows"])
        empty = np.isnan(got)
        diff = np.abs(np.where(empty, 0.0, got - r["values"]))
        bad = (empty != np.isnan(r["values"])) | (diff > REL_TOL * r["colmax"])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            problems.append(
                f"{name}: row {r['rows'][i]} column {j} reads {float(got[i, j])!r}, "
                f"reference {float(r['values'][i, j])!r} (tolerance {REL_TOL * r['colmax'][j]:.3g})"
            )
        slack = r["nrows"] * REL_TOL * r["colmax"]
        tolerance = np.column_stack([np.zeros_like(slack), slack, slack, slack * (2 + REL_TOL) * r["colmax"]])
        got = _aggregates(part)
        bad = np.abs(got - r["aggregates"]) > tolerance
        if bad.any():
            j, k = np.argwhere(bad)[0]
            what = ("empty cells", "sum", "position-weighted sum", "sum of squares")[k]
            problems.append(
                f"{name}: column {j} {what} reads {float(got[j, k])!r}, "
                f"reference {float(r['aggregates'][j, k])!r} (tolerance {tolerance[j, k]:.3g})"
            )
    return problems


class Gate:
    """Checks each operation's output, outside the timed region.

    With a stored reference every output is checked against it.  Without
    one, the first output must pass the program's own invariant checks and
    every later output must be bit-identical to it.  An output whose digest
    already passed is not parsed again: the check is a function of the bytes.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.passed: set[str] = set()

    def __call__(self, out: Output) -> list[str]:
        if not out.ok:
            return ["the program reported a failure (exit code or invariant check)"]
        if out.digest in self.passed:
            return []
        if self.reference is not None:
            problems = check(out.load(), self.reference)
        elif self.passed:
            problems = ["output differs from the first operation's (no stored reference)"]
        else:
            problems = []
        if not problems:
            self.passed.add(out.digest)
        return problems
