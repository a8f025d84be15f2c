"""Self-test of the benchmark: every workload once at a tiny size.

    python3 bench/selftest.py

Checks that each run emits exactly the metrics BENCHMARK.json lists, with
their units, and that the correctness gate can actually fail: the output
check rejects a reference perturbed by 1e-9 at a stored row, and an error at
any other row that exceeds what the column aggregates allow; an operation
that writes nothing counts as failed.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

import run  # pins the BLAS threads and puts the sources on sys.path
from refcheck import REL_TOL, Gate, check, load_reference, make_reference
from workloads import TINY, WORKLOADS, Part

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_metric_is_emitted_with_its_unit():
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run.run(name, 1, 0.0, trace, size=TINY[name], setup_repeats=1)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}, (name, kind, emitted)
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, details["failures"]
            assert result["attempted"] >= 1


def _tiny_references(tmp: Path):
    """(name, workload, its tiny output's parts, a reference made from them) per workload."""
    for name, cls in WORKLOADS.items():
        workload = cls(1, tmp / name, **TINY[name])
        workload.reset()
        workload.op()
        parts = workload.output().load()
        path = tmp / f"{name}.npz"
        np.savez_compressed(path, **make_reference(parts))
        yield name, workload, parts, load_reference(path)


def test_check_rejects_a_perturbed_reference():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        for name, _, parts, ref in _tiny_references(Path(tmp)):
            assert check(parts, ref) == [], name
            for part, stored in ref.items():
                values = stored["values"]
                magnitude = np.nan_to_num(np.abs(values))
                i, j = np.unravel_index(np.argmax(magnitude), magnitude.shape)
                original = values[i, j]
                values[i, j] = original * (1.0 + 1e-9)
                assert check(parts, ref) != [], (name, part)
                values[i, j] = original


def test_check_rejects_an_error_between_stored_rows():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        sampled = 0
        for name, _, parts, ref in _tiny_references(Path(tmp)):
            for part_name, stored in ref.items():
                unstored = np.setdiff1d(np.arange(stored["nrows"]), stored["rows"])
                if unstored.size == 0:
                    continue  # small tables are stored whole
                sampled += 1
                row = int(unstored[unstored.size // 2])
                part = parts[part_name]
                for j, colmax in enumerate(stored["colmax"]):
                    if colmax == 0.0 or np.isnan(part.columns[j][row]):
                        continue
                    column = part.columns[j].copy()
                    column[row] += 2 * stored["nrows"] * REL_TOL * colmax
                    columns = [*part.columns[:j], column, *part.columns[j + 1:]]
                    changed = dict(parts, **{part_name: Part(columns, part.events, part.header)})
                    assert check(changed, ref) != [], (name, part_name, j, row)
        assert sampled >= 2  # both trace workloads store sampled rows at the tiny size


def test_an_operation_that_writes_nothing_fails():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
        for name, workload, _, ref in _tiny_references(Path(tmp)):
            for gate in (Gate(ref), Gate(None)):
                loop = run.Loop(workload, gate, run.Clock())
                loop.step(None)
                assert loop.failures == [], (name, loop.failures)
                real_op, workload.op = workload.op, lambda: None
                loop.step(None)
                workload.op = real_op
                assert len(loop.failures) == 1, name


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    test_check_rejects_a_perturbed_reference()
    test_check_rejects_an_error_between_stored_rows()
    test_an_operation_that_writes_nothing_fails()
    print("selftest ok")
