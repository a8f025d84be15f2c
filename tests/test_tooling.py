"""Guards for what lives outside the package but depends on its names."""

import argparse
import ast
import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import etcsim
from etcsim import channel, cli, model, sim

ROOT = Path(__file__).resolve().parents[1]
# the 26 names `etcsim` exported when it imported every submodule eagerly, less every
# point bound (rates, packet sizes, delays) and bits_lower_bound, plus the one bound
# table that holds them (analytic_bounds, AnalyticBounds), less the sweep wrapper
# (sweep_gamma, SweepRow): a delay sweep is a loop over run_vector, and less the
# per-block cap helper (v0_cascade_bound, CascadeBounds): the caps are Coordinate.cap,
# and less the engine's channel plumbing (ChannelState, sample_delay) and the CLI's
# delay-spec parser (build_delay), which etcsim.channel still defines
EXPORTS = [
    "AnalyticBounds", "Assumption1Window", "BoundInputs", "analytic_bounds",
    "assumption1_window",
    "AdversarialDelay", "ConstantDelay", "ReplayDelay", "UniformDelay",
    "Packet", "decode", "encode", "reconstruct_error",
    "ConfigurationError", "DecodeError", "DivergenceError", "PreconditionError",
    "JordanPlant", "TriggerConfig", "PhaseCurve", "RateReport", "SimTrace", "measure_rates",
    "phase_curves", "run_vector", "validate_trace",
]


def _bench_module(name: str, monkeypatch):
    """bench/<name>.py, imported under its bare name as bench/run.py imports it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses and sibling imports look here
    spec.loader.exec_module(module)
    return module


def _dense_run(horizon: float = 0.2, **run) -> sim.SimTrace:
    """A run of bench/workloads.py's vector_dense plant and design."""
    plant = model.JordanPlant(blocks=((5.0, 2), (10.0, 1)), B=np.eye(3), K=15.0 * np.eye(3))
    cfg = model.TriggerConfig(v0=((0.5, 0.6), (0.5,)), sigma=2.0, rho0=0.5, gamma=0.05)
    models = [channel.build_delay("uniform", 0.05, seed=1701, salt=(0, c)) for c in range(3)]
    return sim.run_vector(plant, cfg, models, horizon, 1e-4, x0=(0.1, 0.1, 0.1),
                          xhat0=(0.0, 0.0, 0.0), **run)


def test_traced_benchmark_hooks_resolve(monkeypatch):
    # bench/spans.py patches named package attributes; a missing one raises here
    spans = _bench_module("spans", monkeypatch)
    original = sim.run_vector
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert sim.run_vector is not original
    finally:
        tracer.uninstall()
    assert sim.run_vector is original


def test_traced_benchmark_sees_each_hooked_callee(monkeypatch):
    # a hot-path rewrite that bypasses a patched name would zero a per-layer metric
    spans = _bench_module("spans", monkeypatch)
    tracer = spans.Tracer()
    try:
        tracer.install()
        _dense_run(refine=True)
    finally:
        tracer.uninstall()
    for name in ("model.block_matexp", "codec.encode", "channel.sample_delay",
                 "channel.ChannelState.admit"):
        assert tracer.calls[name] > 0, name


@pytest.mark.parametrize("name, seed", [*(("vector_dense", s) for s in range(10)),
                                        ("fig7_simulate", 0), ("fig7_simulate", 9)])
def test_benchmark_outputs_match_stored_references(name, seed, monkeypatch, tmp_path):
    # the full-size operations that bench/run.py times, checked as it checks them
    workloads = _bench_module("workloads", monkeypatch)
    refcheck = _bench_module("refcheck", monkeypatch)
    workload = workloads.WORKLOADS[name](seed, tmp_path / "op")
    workload.op()
    out = workload.output()
    assert out.ok
    reference = refcheck.load_reference(refcheck.reference_path(type(workload), seed))
    assert refcheck.check(out.load(), reference) == []


def _imported(nodes) -> tuple[set[str], set[str]]:
    """The package-relative names (with their dots) and the top-level modules that the
    import statements among nodes bring in."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
    relative = {name for name in imported if name.startswith(".")}
    return relative, {name.split(".")[0] for name in imported - relative}


def test_bounds_imports_only_stdlib_and_errors():
    # model imports bounds, never the reverse, and the analytic path needs no numpy
    tree = ast.parse((ROOT / "src" / "etcsim" / "bounds.py").read_text())
    relative, absolute = _imported(ast.walk(tree))
    assert relative == {".errors"}
    assert absolute <= sys.stdlib_module_names


def test_shortest_imports_only_numpy_and_stdlib():
    # the trace.csv kernel adds no runtime dependency beside numpy, the package's one
    tree = ast.parse((ROOT / "src" / "etcsim" / "_shortest.py").read_text())
    relative, absolute = _imported(ast.walk(tree))
    assert relative == set()
    assert absolute <= sys.stdlib_module_names | {"numpy"}


def test_cli_imports_only_stdlib_bounds_and_errors_at_load():
    # numpy, sim, model and channel are imported inside the functions that run the loop
    tree = ast.parse((ROOT / "src" / "etcsim" / "cli.py").read_text())
    relative, absolute = _imported(tree.body)
    assert relative == {".__version__", ".bounds", ".errors"}
    assert absolute <= sys.stdlib_module_names


def test_bounds_records_are_named_tuples():
    # the analytic commands load no dataclasses: bounds defines no @dataclass and
    # each public class with fields is a NamedTuple, directly or through a private base
    tree = ast.parse((ROOT / "src" / "etcsim" / "bounds.py").read_text())
    named, with_fields, bad = {"NamedTuple"}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "dataclasses" in _imported([node])[1]:
            bad.append(f"bounds.py:{node.lineno}: imports dataclasses")
        if not isinstance(node, ast.ClassDef):
            continue
        bad += [f"bounds.py:{d.lineno}: @{ast.unparse(d)} on {node.name}"
                for d in node.decorator_list if "dataclass" in ast.unparse(d)]
        bases = {ast.unparse(base) for base in node.bases}
        if bases & with_fields or any(isinstance(s, ast.AnnAssign) for s in node.body):
            with_fields.add(node.name)
        if bases & named:
            named.add(node.name)
        elif node.name in with_fields and not node.name.startswith("_"):
            bad.append(f"bounds.py:{node.lineno}: {node.name} has fields but is no NamedTuple")
    assert not bad
    assert {"AnalyticBounds", "Assumption1Window", "BoundInputs", "Coordinate",
            "PhaseCurve"} <= named


def test_cli_imports_dataclasses_and_json_only_in_functions():
    # neither loads on the cold path of `import etcsim.cli`, bounds and analytic sweeps
    bad = [f"cli.py:{node.lineno}: {ast.unparse(node)}" for node, scope in _scoped_nodes()
           if scope == "cli.Module" and isinstance(node, (ast.Import, ast.ImportFrom))
           and _imported([node])[1] & {"dataclasses", "json"}]
    assert not bad


def test_package_draws_nothing_from_numpy_random():
    # channel computes numpy's uniform draws itself: numpy.random is the tests' oracle,
    # never a second way to draw a delay inside the package
    for path in sorted((ROOT / "src" / "etcsim").rglob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        random = {n for n in names if n.split(".")[:2] in (["np", "random"], ["numpy", "random"])}
        assert not random, (path.name, random)


def test_package_exports_the_same_names():
    # each name is the object its defining module holds, resolved on first use
    assert sorted(etcsim.__all__) == sorted(EXPORTS)
    assert len(etcsim.__all__) == len(EXPORTS)
    listed = dir(etcsim)
    for name in EXPORTS:
        assert name in listed, name
        obj = getattr(etcsim, name)
        assert obj.__module__.startswith("etcsim."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name


def _scoped_nodes():
    """Each AST node of the package's source, with "module.function" of the scope
    that holds it (a lambda's or the module's type name outside a function)."""
    for path in sorted((ROOT / "src" / "etcsim").rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Lambda, ast.Module)):
                scope = parents[scope]
            yield node, f"{path.stem}.{getattr(scope, 'name', type(scope).__name__)}"


def test_engine_built_only_by_run_vector():
    # one run entry point: simulate, every sweep row and every library run go through
    # sim.run_vector, the one function that builds the engine
    callers = [scope for node, scope in _scoped_nodes() if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_Engine"]
    assert callers == ["sim.run_vector"]


def test_run_keys_read_only_in_run_inputs():
    # one way from a config to a closed-loop run: simulate and the empirical sweep take
    # run_vector's run keywords from cli._run_inputs. build_inputs reads nu for a bound
    # table too (default 1), and events.json names the trace's own horizon and step
    run_keys = {"horizon", "step", "x0", "xhat0", "refine", "nu"}
    found: dict[str, set] = {}
    for node, scope in _scoped_nodes():
        if (scope.startswith("cli.") and scope != "cli.Module" and isinstance(node, ast.Constant)
                and node.value in run_keys):
            found.setdefault(scope, set()).add(node.value)
    assert found == {"cli._run_inputs": run_keys, "cli.build_inputs": {"nu"},
                     "cli._write_events_json": {"horizon", "step"}}


def test_pre_run_checks_called_only_by_engine_and_run_inputs():
    # the engine's checks of horizon, step and initial state run in _Engine.__init__ and,
    # before any sweep row, in cli._run_inputs; nowhere else
    callers = sorted((name, scope) for node, scope in _scoped_nodes() if isinstance(node, ast.Call)
                     and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
                     in ("_sample_count", "_initial_state"))
    assert callers == [("_initial_state", "cli._run_inputs"), ("_initial_state", "sim.__init__"),
                       ("_sample_count", "cli._run_inputs"), ("_sample_count", "sim.__init__")]
    inits = [node for node, scope in _scoped_nodes()
             if scope.startswith("sim.") and isinstance(node, ast.ClassDef)
             and any(getattr(f, "name", None) == "__init__" for f in node.body)]
    assert [node.name for node in inits] == ["_Engine"]  # sim.__init__ is _Engine.__init__


def test_rate_kernel_calls_each_formula_once_written():
    # the rate kernel calls ln(e^{lam*gamma} - 1) and the sufficient packet term, never
    # writes a copy of either, and only the bound table and the phase curves call it
    calls: dict[str, set] = {}
    for node, scope in _scoped_nodes():
        if scope.startswith("bounds.") and isinstance(node, ast.Call):
            calls.setdefault(scope, set()).add(ast.unparse(node.func))
    kernel = calls["bounds._rate_curves"]
    assert {"_ln_em1", "_log2_packet_term"} <= kernel
    assert not {"math.expm1", "math.log1p"} & kernel
    callers = sorted(scope for scope, names in calls.items() if "_rate_curves" in names)
    assert callers == ["bounds.analytic_bounds", "bounds.phase_curves"]


def test_packet_size_rule_lives_only_in_bounds():
    # one rule for a packet size: its refusal texts and its type test are written in
    # bounds.check_packet_size alone, and its 2100-bit cap in bounds alone
    texts, type_tests = set(), set()
    for node, scope in _scoped_nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                "integer number of bits" in node.value or "bits, got" in node.value
                or "packet size must" in node.value):
            texts.add(scope)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type"
                and getattr(node.args[0], "id", getattr(node.args[0], "attr", None)) == "g"):
            type_tests.add(scope)
    assert texts == {"bounds.check_packet_size"}
    assert type_tests == {"bounds.check_packet_size"}
    cap = [path.name for path in sorted((ROOT / "src" / "etcsim").rglob("*.py"))
           if re.search(r"\b2100\b", path.read_text())]
    assert cap == ["bounds.py"]


def test_number_rules_live_only_in_bounds_ranges():
    # one range table: the positive-and-finite and the finite-and->=0 rules are written
    # in bounds._RANGES alone, and no caller converts what a reader already returned
    rules = ("must be positive and finite", "must be finite and >= 0")
    places, conversions = [], []
    for path in sorted((ROOT / "src" / "etcsim").rglob("*.py")):
        text = path.read_text()
        conversions += re.findall(r"float\((?:\w+\.)?_check_(?:real|input)\(", text)
        for statement in ast.parse(text).body:
            target = getattr(statement, "targets", [None])[0]
            places += [f"{path.stem}.{getattr(target, 'id', statement.lineno)}"
                       for node in ast.walk(statement) if isinstance(node, ast.Constant)
                       and isinstance(node.value, str) and any(r in node.value for r in rules)]
    assert places == ["bounds._RANGES"] * 2
    assert not conversions


def test_levels_read_and_caps_written_only_in_bounds():
    # one reader of trigger levels and one cascade-cap formula: the rule's key "trigger
    # level v0" is named only in bounds._RANGES and bounds._levels, model keeps no
    # reader of its own, and the cap's denominator ((rho0 - rho) + E) is written in
    # bounds._cap alone (the docstrings write it without the spaces)
    keys, caps = [], []
    for path in sorted((ROOT / "src" / "etcsim").rglob("*.py")):
        text = path.read_text()
        cap_lines = [text.count("\n", 0, m.start()) + 1
                     for m in re.finditer(r"\(\(rho0 - [^()]*\) \+ E\)", text)]
        for statement in ast.parse(text).body:
            name = getattr(statement, "name", getattr(getattr(statement, "targets", [None])[0],
                                                      "id", statement.lineno))
            keys += [f"{path.stem}.{name}" for node in ast.walk(statement)
                     if isinstance(node, ast.Constant) and node.value == "trigger level v0"]
            caps += [f"{path.stem}.{name}" for line in cap_lines
                     if statement.lineno <= line <= statement.end_lineno]
    assert keys == ["bounds._RANGES", "bounds._levels"]
    assert not hasattr(model, "_flat")
    assert caps == ["bounds._cap"]


def test_sequences_read_only_by_items():
    # one sequence rule: only bounds._items asks for tolist, only sim.run_vector (whose
    # delay models are objects, not numbers) tests for a list or a tuple, no reader asks
    # numpy for a dtype kind or atleast_1d, and the trace.csv kernel has one product routine
    tolist, list_tests, numpy_reads = [], [], []
    for node, scope in _scoped_nodes():
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr":
            tolist += [scope] * (getattr(node.args[1], "value", None) == "tolist")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            list_tests += [scope] * (ast.unparse(node.args[1]) == "(list, tuple)")
        if isinstance(node, ast.Attribute) and (
                node.attr == "atleast_1d" or node.attr == "kind"
                and getattr(node.value, "attr", None) == "dtype"):
            numpy_reads.append(scope)
    assert tolist == ["bounds._items"]
    assert list_tests == ["sim.run_vector"]
    assert not numpy_reads
    tree = ast.parse((ROOT / "src" / "etcsim" / "_shortest.py").read_text())
    assert "_mul_high" not in {node.name for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef)}


def test_packet_sizes_broadcast_only_in_coordinates():
    # one packet-size path: bounds.coordinates admits and broadcasts g, and neither the
    # engine nor the trace keeps a copy of the sizes
    tree = ast.parse((ROOT / "src" / "etcsim" / "sim.py").read_text())
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert "check_packet_size" not in names
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "g" and getattr(node.value, "id", None) == "self"]
    assert "g" not in sim.SimTrace.__dataclass_fields__


@pytest.mark.parametrize("g", [None, 3], ids=["auto_g", "g3"])
@pytest.mark.parametrize("refine", [False, True], ids=["grid", "refine"])
def test_bits_sent_is_trigger_counts_times_packet_sizes(refine, g):
    trace = _dense_run(1.0, refine=refine, g=g)  # every coordinate fires within 1 s
    sizes = [co.g for co in trace.coords]
    assert sizes == ([3, 2, 3] if g is None else [3, 3, 3])
    assert trace.bits_sent.dtype == np.int64
    assert trace.bits_sent.tolist() == (trace.trigger_counts * sizes).tolist()
    assert all(trace.trigger_counts) and all(e.g == sizes[e.coord] for e in trace.triggers())


def test_package_refuses_unknown_names_and_imports_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        etcsim.no_such_name
    assert not hasattr(etcsim, "run_scalar")  # an alias for the benchmark, not exported
    from etcsim import channel, cli, model, sim  # as bench/workloads.py imports them

    for module in (channel, cli, model, sim):
        assert module is sys.modules[module.__name__]


def test_readme_command_lines_run(tmp_path, capsys):
    # every etcsim line of the README's "Command line" block exits 0, recipes from the
    # repository root and outputs under tmp_path
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1).replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    runs = [words[1:] for words in lines if words[:1] == ["etcsim"]]
    assert len(runs) == 5
    for argv in runs:
        for k, word in enumerate(argv[:-1]):
            if word in ("--config", "--out"):
                argv[k + 1] = str((ROOT if word == "--config" else tmp_path) / argv[k + 1])
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # the zero-delay example: each post-jump error is zero but for one rounding
    events = json.loads((tmp_path / "out" / "zero" / "events.json").read_text())["events"]
    jumps = [e for e in events if e["post_jump"] is not None]
    assert jumps and all(e["post_jump"] <= 1e-15 * e["v_ts"] for e in jumps)


def test_readme_config_keys_match_cli():
    # the README's "Config keys" block lists exactly the keys a config file may hold
    block = (ROOT / "README.md").read_text().split("### Config keys", 1)[1]
    block = re.search(r"```ini\n(.*?)```", block, re.S).group(1)
    keys = re.findall(r"(?:^|\s)([A-Za-z_]\w*) = ", block, re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cli.SETTINGS)


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
