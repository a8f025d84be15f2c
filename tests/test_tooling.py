"""Guards for what lives outside the package but depends on its names."""

import argparse
import ast
import importlib.util
import re
import sys
from pathlib import Path

from etcsim import cli, sim

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_hooks_resolve():
    # bench/spans.py patches named package attributes; a missing one raises here
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = sim.run_vector
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert sim.run_vector is not original
    finally:
        tracer.uninstall()
    assert sim.run_vector is original


def test_bounds_imports_only_stdlib_and_errors():
    # model imports bounds, never the reverse, and the analytic path needs no numpy
    tree = ast.parse((ROOT / "src" / "etcsim" / "bounds.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    relative = {name for name in imported if name.startswith(".")}
    assert relative == {".errors"}
    assert {name.split(".")[0] for name in imported - relative} <= sys.stdlib_module_names


def test_readme_config_keys_match_cli():
    # the README's "Config keys" block lists exactly the keys a config file may hold
    block = (ROOT / "README.md").read_text().split("### Config keys", 1)[1]
    block = re.search(r"```ini\n(.*?)```", block, re.S).group(1)
    keys = re.findall(r"(?:^|\s)([A-Za-z_]\w*) = ", block, re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == cli.CONFIG_KEYS


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_flags_match_each_command():
    # the README's "Flags by command" list names exactly each subparser's options
    section = (ROOT / "README.md").read_text().split("Flags by command", 1)[1]
    bullets = section.split("\n\n", 2)[1].split("\n- ")
    listed = {
        re.match(r"-? ?`(\w+)`:", b).group(1): set(re.findall(r"`(--[\w-]+)", b))
        for b in bullets
    }
    sub = next(a for a in cli._build_argparser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert listed == options
