"""Write rate_table.json: the rate bounds, as float.hex, at seeded inputs.

    PYTHONPATH=src python tests/data/make_rate_table.py

Each case is one plant and design with a delay grid and a decay-rate grid;
each row holds the necessary, approximate-necessary, sufficient and
sigma-supremum rates at one delay, from the bound table (analytic_bounds).
The cases cover scalar plants, repeated and mixed eigenvalues, contraction
ladders, gamma = 0, delays within 1e-9 of gamma_c, (sigma + lam)*gamma >= 700
and nu = 1; two fixed cases after the seeded ones add a supremum at an
interior sigma of the grid and delays near rho0 = 1e-300, where the packet
bits ln(e^{lam*gamma} - 1) + sigma*gamma - ln rho0 cancel to near 0.
test_bounds.TestRateTable checks the package against the table, so
regenerate it only when a change means to move these values.
"""

import json
import math
import random
from pathlib import Path

from etcsim import bounds as bnd

SEED = 14
N_CASES = 30


def _ladder(rng, rho0, p):
    inner = sorted({rng.uniform(0.01, 0.99) * rho0 for _ in range(p - 1)})
    return (*inner, rho0)


def _case(rng, k):
    kind = k % 5  # scalar, repeated eigenvalue, mixed, ladders, mixed with ladders
    rho0 = rng.uniform(0.02, 0.98)
    if kind == 0:
        blocks = ((rng.uniform(0.05, 8.0), 1),)
    elif kind in (1, 3):
        lam = rng.uniform(0.05, 6.0)
        blocks = ((lam, rng.randint(1, 3)), (lam, rng.randint(1, 2)))
    else:
        count = rng.randint(2, 3)
        blocks = tuple((rng.uniform(0.05, 8.0), rng.randint(1, 3)) for _ in range(count))
    ladders = tuple(_ladder(rng, rho0, p) for _, p in blocks) if kind in (3, 4) else None
    inp = bnd.BoundInputs(
        blocks=blocks, sigma=rng.uniform(0.02, 5.0), rho0=rho0, gamma=0.0,
        b=rng.uniform(1.0001, 2.0), nu=1.0 if k % 3 == 0 else rng.uniform(1.0, 8.0),
        rho_ladders=ladders,
    )
    if k == 7:  # fig6's 50-point grid, 0.1:0.1:50
        sigmas = [0.1 + i * 0.1 for i in range(50)]
    else:
        sigmas = [rng.uniform(0.02, 6.0) for _ in range(rng.randint(2, 6))]
    gammas = [0.0, rng.uniform(1e-9, 1e-6)] + [rng.uniform(0.0, 3.0) for _ in range(4)]
    if len({lam for lam, _ in blocks}) == 1:
        gc = bnd.analytic_bounds(inp).gamma_c
        gammas += [gc, gc - rng.uniform(0.0, 1e-9), gc + rng.uniform(0.0, 1e-9)]
    lam_min = min(lam for lam, _ in blocks)
    gammas += [700.0 / (inp.sigma + lam_min) * rng.uniform(1.0, 1.3) for _ in range(2)]
    return inp, gammas, sigmas


def _fixed_cases():
    """(inputs, delays, sigmas) of the cases after the seeded ones."""
    interior = bnd.BoundInputs.scalar(3.623, 1.0, 0.654, b=1.0001, nu=2.0)
    # at gamma = 1.931 the supremum over 0.1:0.1:50 is at sigma = 0.3, not at an end
    yield interior, [0.0, 0.5, 1.0, 1.931, 3.0], [0.1 + i * 0.1 for i in range(50)]
    tiny = bnd.BoundInputs.scalar(1.0, 0.5, 1e-300, b=1.5, nu=1.0)
    gammas = [0.0, 5e-301, 9.99e-301, 1e-300, 1.001e-300, 2e-300, 1e-299, 1e-200, 1e-3]
    yield tiny, gammas, [3.0, 0.5, 1.0, 3.0, 0.02]


def _hexes(xs):
    return [float.hex(float(x)) for x in xs]


def _row(inp, gamma, sigmas):
    at = inp._replace(gamma=gamma)
    table = bnd.analytic_bounds(at)
    sup = max(bnd.analytic_bounds(at._replace(sigma=s)).rate_necessary for s in sigmas)
    return [gamma, table.rate_necessary, table.rate_necessary_approx, table.rate_sufficient, sup]


def main():
    rng = random.Random(SEED)
    cases = []
    seeded = (_case(rng, k) for k in range(N_CASES))
    for inp, gammas, sigmas in (*seeded, *_fixed_cases()):
        cases.append({
            "blocks": [[float.hex(lam), p] for lam, p in inp.blocks],
            "sigma": float.hex(inp.sigma),
            "rho0": float.hex(inp.rho0),
            "b": float.hex(inp.b),
            "nu": float.hex(inp.nu),
            "rho_ladders": None if inp.rho_ladders is None else list(map(_hexes, inp.rho_ladders)),
            "sigma_grid": _hexes(sigmas),
            "rows": [_hexes(_row(inp, g, sigmas)) for g in gammas],
        })
    path = Path(__file__).with_name("rate_table.json")
    path.write_text(json.dumps({"columns": ["gamma", "necessary", "necessary_approx",
                                            "sufficient", "necessary_sup_sigma"],
                                "cases": cases}, indent=1) + "\n")
    print(f"wrote {path}: {len(cases)} cases, {sum(len(c['rows']) for c in cases)} rows")


if __name__ == "__main__":
    main()
