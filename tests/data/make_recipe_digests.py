"""Write recipe_digests.json: sha256 of every output file and of stdout of the
bundled recipes' runs.

    PYTHONPATH=src python tests/data/make_recipe_digests.py

Each run is `etcsim <command> --config <recipe> <flags> --out <name>`, made
in-process from a scratch directory, so the output paths printed on stdout are
the same wherever it runs.  test_cli.test_recipe_outputs_match_digests reruns
the list and names every file whose digest differs, so regenerate the digests
only when a change means to move these outputs.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from etcsim import cli

# (name, command, recipe, flags); the name is the output directory
RUNS = [
    *[(f"bounds_{fig}", "bounds", fig, ["--gamma", "0.05"])
      for fig in ("fig3", "fig4", "fig5", "fig6")],
    ("bounds_fig7", "bounds", "fig7", []),
    *[(f"sweep_{fig}", "sweep", fig, []) for fig in ("fig3", "fig4", "fig5", "fig6", "fig8")],
    ("simulate_fig7", "simulate", "fig7", []),
    ("simulate_fig7_refine", "simulate", "fig7", ["--refine"]),
]
PATH = Path(__file__).with_name("recipe_digests.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recipe_digests(workdir: Path) -> dict:
    """{name: {"exit": code, "stdout": sha256, <output file>: sha256, ...}} of every run,
    made with workdir as the current directory."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, command, recipe, flags in RUNS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, "--config", str(cli.recipe_path(recipe)), *flags,
                                 "--out", name])
            run = {"exit": code, "stdout": _sha256(stdout.getvalue().encode())}
            for path in sorted(Path(name).iterdir()):
                run[path.name] = _sha256(path.read_bytes())
            digests[name] = run
    finally:
        os.chdir(cwd)
    return digests


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = recipe_digests(Path(workdir))
    PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {PATH}: {len(digests)} runs, {sum(len(d) - 1 for d in digests.values())} digests")


if __name__ == "__main__":
    main()
