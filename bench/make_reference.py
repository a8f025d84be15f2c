"""Write the stored reference outputs that every benchmark operation is checked against.

    python3 bench/make_reference.py 0 1 2 3

Run it on the commit the references are meant to pin; the seeds apply to
the seeded workloads, analytic_sweeps draws no delays and has one reference.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import run  # pins the BLAS threads and puts the sources on sys.path
from refcheck import REFERENCE_DIR, make_reference, reference_path
from workloads import WORKLOADS


def main(seeds: list[int]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ref-", dir=run.OUT) as tmp:
        for cls in WORKLOADS.values():
            for seed in seeds if cls.seeded else seeds[:1]:
                workload = cls(seed, Path(tmp) / cls.name)
                workload.reset()
                workload.op()
                out = workload.output()
                if not out.ok:
                    raise SystemExit(f"{cls.name} seed {seed}: the program reported a failure")
                path = reference_path(cls, seed)
                np.savez_compressed(path, **make_reference(out.load()))
                print(f"wrote {path.relative_to(run.ROOT)} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0])
