import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from etcsim import bounds as bnd
from etcsim import cli, sim
from etcsim.bounds import BoundInputs
from etcsim.channel import AdversarialDelay, ConstantDelay, ReplayDelay, UniformDelay
from etcsim.codec import Packet, check_resolvable, decode, encode, reconstruct_error
from etcsim.errors import ConfigurationError, DecodeError, DivergenceError, PreconditionError
from etcsim.model import JordanPlant, TriggerConfig

DATA = Path(__file__).parent / "data"
RECIPES = Path(cli.__file__).parent / "recipes"
THREE_BLOCKS = "blocks = 1:1, 2:1, 3:1\nsigma = 1\nrho0 = 0.5\ngamma = 0.1\nhorizon = 1\n"


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def assert_one_line_usage_error(capsys, argv):
    """Exit 1 with a single 'error:' line; an uncaught exception fails the test."""
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        cfg = cli.RunConfig.from_file(write_cfg(tmp_path, "A = 2.0  # growth\n\nsigma=1\n"))
        assert cfg.get("A") == 2.0
        assert cfg.get("sigma") == 1.0

    def test_undecodable_config_is_clean_error(self, tmp_path, capsys):
        # used to print a UnicodeDecodeError traceback from read_text
        path = tmp_path / "run.cfg"
        path.write_bytes(b"A = 1\xff\n")
        err = assert_one_line_usage_error(capsys, ["bounds", "--config", str(path)])
        assert err.startswith(f"error: cannot read config {path}: ")

    def test_malformed_line_reports_position(self, tmp_path):
        path = write_cfg(tmp_path, "A = 1\nnot a pair\n")
        with pytest.raises(cli.ConfigurationError, match=":2"):
            cli.RunConfig.from_file(path)

    def test_bad_value_reports_field_and_line(self, tmp_path):
        cfg = cli.RunConfig.from_file(write_cfg(tmp_path, "A = fast\n"))
        with pytest.raises(cli.ConfigurationError, match="field 'A' \\(line 1"):
            cfg.get("A")

    def test_missing_field(self, tmp_path):
        cfg = cli.RunConfig.from_file(write_cfg(tmp_path, "A = 1\n"))
        with pytest.raises(cli.ConfigurationError, match="sigma"):
            cfg.get("sigma")

    def test_boolean_forms(self, tmp_path):
        for text, parsed in [("true", True), ("yes", True), ("on", True), ("1", True),
                             ("false", False), ("no", False), ("off", False), ("0", False),
                             ("OFF", False)]:
            cfg = cli.RunConfig.from_file(write_cfg(tmp_path, f"refine = {text}\n"))
            assert cfg.get("refine") is parsed, text

    def test_grid_forms(self):
        assert cli._grid("1:0.5:3") == [1.0, 1.5, 2.0]
        assert cli._grid("0.1, 0.2") == [0.1, 0.2]
        with pytest.raises(ValueError):
            cli._grid("1:2")

    def test_gain_matrix_accepts_commas(self, tmp_path):
        # B_matrix and K_matrix share v0's grammar; "1, 0; 0, 1" used to exit 1
        plants = []
        for sep in (" ", ", "):
            text = f"blocks = 1:2\nB_matrix = 1{sep}0; 0{sep}1\nK_matrix = 2{sep}0; 0{sep}3\n"
            plants.append(cli.build_plant(cli.RunConfig.from_file(write_cfg(tmp_path, text))))
        assert np.array_equal(plants[0].B, plants[1].B) and np.array_equal(plants[0].K, plants[1].K)
        assert plants[1].K.tolist() == [[2.0, 0.0], [0.0, 3.0]]

    def test_duplicate_key_refused(self, tmp_path):
        # the later lines used to win silently: bounds printed access_rate 11.5416 (A=5, sigma=3)
        path = write_cfg(tmp_path, "A = 1\nsigma = 1\nrho0 = 0.5\nA = 5\nsigma = 3\n")
        with pytest.raises(cli.ConfigurationError,
                           match=f"{path}:4: duplicate key 'A', first set on line 1"):
            cli.RunConfig.from_file(path)

    def test_override_wins(self, tmp_path):
        cfg = cli.RunConfig.from_file(write_cfg(tmp_path, "seed = 1\n"))
        cfg.override("seed", 9)
        assert cfg.get("seed") == 9


class TestBoundsCommand:
    def test_prints_figure_values(self, capsys):
        rc = cli.main(["bounds", "--config", str(RECIPES / "fig3.cfg"), "--gamma", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "11.5416" in out
        assert "0.138629" in out
        assert "0.0863821" in out

    def test_fig5_asymptote(self, capsys):
        rc = cli.main(["bounds", "--config", str(RECIPES / "fig5.cfg"), "--gamma", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5.77078" in out

    @pytest.mark.parametrize("text, message", [
        ("blocks = 1:2\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\nrho_ladder = 0.5\n",
         "rho_ladders shape must match the plant blocks"),
        ("blocks = 1:1\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\nrho_ladder = -0.3\n",
         "ladder values must lie in (0, rho0], got (-0.3,)"),
        ("blocks = 1:2\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\nrho_ladder = 0.5 0.25\n",
         "ladder must be strictly increasing, got (0.5, 0.25)"),
        ("blocks = 1:1\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\nrho_ladder = ;\n",
         "a ladder needs at least one value, got an empty one"),
    ], ids=["short_ladder", "negative_ladder", "decreasing_ladder", "empty_ladder"])
    def test_bad_ladder_is_clean_error(self, tmp_path, capsys, text, message):
        argv = ["bounds", "--config", str(write_cfg(tmp_path, text))]
        assert assert_one_line_usage_error(capsys, argv) == f"error: {message}\n"

    @pytest.mark.parametrize("flags, fragment", [
        (["--gamma", "nan"], "gamma must be finite"),
        (["--gamma", "inf"], "gamma must be finite"),
        (["--gamma", "0.05", "--nu", "inf"], "nu must be finite"),
    ], ids=["gamma_nan", "gamma_inf", "nu_inf"])
    def test_non_finite_input_is_clean_error(self, capsys, flags, fragment):
        argv = ["bounds", "--config", str(RECIPES / "fig3.cfg")] + flags
        assert fragment in assert_one_line_usage_error(capsys, argv)

    @pytest.mark.parametrize("recipe, flags", [
        ("fig7", []), ("fig3", ["--gamma", "0.05"]),
    ], ids=["window", "no_window"])
    def test_negative_packet_size_is_clean_error(self, capsys, recipe, flags):
        # a negative g used to drop the design-window rows silently (fig7) or go unread (fig3);
        # simulate prints the same line (test_boundary_input_refused_before_running)
        argv = ["bounds", "--config", str(RECIPES / f"{recipe}.cfg"), "--g", "-1"] + flags
        assert assert_one_line_usage_error(capsys, argv) == (
            "error: field 'g' (command line): packet size must lie in [1, 2100] bits, got -1\n"
        )

    @pytest.mark.parametrize("recipe, flags", [
        ("fig7", []), ("fig3", ["--gamma", "0.05"]),
    ], ids=["window", "no_window"])
    def test_zero_packet_size_is_automatic(self, capsys, recipe, flags):
        argv = ["bounds", "--config", str(RECIPES / f"{recipe}.cfg")] + flags
        assert cli.main(argv) == cli.EXIT_OK
        automatic = capsys.readouterr().out
        assert cli.main(argv + ["--g", "0"]) == cli.EXIT_OK
        assert capsys.readouterr().out == automatic

    @pytest.mark.parametrize("text, g", [
        ((RECIPES / "fig7.cfg").read_text(), "2101"),
        ("blocks = 1:1, 2:1\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\n", "5000"),
    ], ids=["window", "mixed_eigenvalues"])
    def test_oversized_packet_size_refused_at_parse_time(self, tmp_path, capsys, text, g):
        # a mixed-eigenvalue plant has no design window and used to exit 0 without reading g
        argv = ["bounds", "--config", str(write_cfg(tmp_path, text)), "--g", g]
        assert assert_one_line_usage_error(capsys, argv) == (
            f"error: field 'g' (command line): packet size must lie in [1, 2100] bits, got {g}\n"
        )

    def test_infinite_growth_rate_is_clean_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "A = inf\nsigma = 1\nrho0 = 0.5\ngamma = 0.5\n")
        assert "positive and finite" in assert_one_line_usage_error(
            capsys, ["bounds", "--config", str(path)]
        )

    def test_json_output(self, tmp_path, capsys):
        rc = cli.main([
            "bounds", "--config", str(RECIPES / "fig3.cfg"), "--gamma", "0.05",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert payload["access_rate"] == pytest.approx(11.5416, abs=1e-3)


class TestSimulateCommand:
    def test_fig7_outputs(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", "--config", str(RECIPES / "fig7.cfg"),
            "--horizon", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,x1,xhat1,z1,v1"
        events = json.loads((tmp_path / "events.json").read_text())
        assert events["schema"] == "etcsim-events-1"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["invariants_ok"] is True
        assert report["bounds"]["access_rate"] == pytest.approx(1.1 / 0.6931471805599453)

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main([
                "simulate", "--config", str(RECIPES / "fig7.cfg"),
                "--horizon", "2", "--out", str(out),
            ])
            assert rc == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "events.json").read_bytes() == (out2 / "events.json").read_bytes()

    @pytest.mark.parametrize("name, flags", [
        ("seed1", ["--seed", "1"]),
        ("seed2_refine", ["--seed", "2", "--refine"]),
        ("seed4_adversarial", ["--seed", "4", "--delay", "adversarial"]),
        ("seed5_g3", ["--seed", "5", "--g", "3"]),
    ])
    def test_vector_ladder_golden(self, tmp_path, capsys, name, flags):
        # four coordinates, two blocks, a given ladder and one trigger level each: the
        # per-coordinate levels, contractions, packet sizes and checks, byte for byte
        rc = cli.main(["simulate", "--config", str(DATA / "vector_ladder.cfg"), *flags,
                       "--out", str(tmp_path)])
        assert rc == 0
        assert "grid step" not in capsys.readouterr().err  # every step below its tolerance
        golden = DATA / "vector_ladder" / name
        for file in ("events.json", "report.json"):
            assert (tmp_path / file).read_bytes() == (golden / file).read_bytes(), file

    # ROADMAP item 17's failing scalar design, 13.7 times its tolerance at h = 1e-3
    COARSE_STEP = ("A = 4.023421330248466\nB = 1\nK = 8.265796292401253\n"
                   "v0 = 0.13890751039046972\nsigma = 1.3595958862623714\n"
                   "rho0 = 0.7682696278330945\ngamma = 1.4081277427198269\n"
                   "b = 1.0114066026706126\nx0 = 0.19904894610655433\n"
                   "xhat0 = 0.2656233646547711\nhorizon = 5\nstep = 1e-3\nseed = 21\n")

    def test_coarse_grid_step_warns_and_exits_invariant(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(write_cfg(tmp_path, self.COARSE_STEP)),
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_INVARIANT
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [err[0]] == [
            "warning: grid step h=0.001 exceeds the time-quantization tolerance of coordinate 0 "
            "(h/tolerance = 13.7); the largest admissible step is 7.28553e-05: use a smaller "
            "step or --refine"
        ]
        assert json.loads((tmp_path / "report.json").read_text())["invariants_ok"] is False

    def test_coarse_step_design_runs_clean_in_refine_mode(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(write_cfg(tmp_path, self.COARSE_STEP)), "--refine",
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, recipe", [("simulate", "fig7"), ("sweep", "fig8")])
    def test_bundled_recipes_emit_no_step_warning(self, tmp_path, capsys, command, recipe):
        # one sample per run: the step is checked before the run, on every fig8 row
        # up to gamma = 2.0005, where h/tolerance is 0.944
        argv = [command, "--config", str(RECIPES / f"{recipe}.cfg"), "--horizon", "0.0002",
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_zero_delay_single_bit_run(self, tmp_path):
        rc = cli.main([
            "simulate", "--config", str(RECIPES / "fig7.cfg"),
            "--horizon", "2", "--delay", "constant:0", "--g", "1", "--refine",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        events = json.loads((tmp_path / "events.json").read_text())
        receptions = [e for e in events["events"] if e["kind"] == "reception"]
        assert receptions
        assert all(e["post_jump"] <= 1e-12 for e in receptions)
        assert all(e["g"] == 1 for e in receptions)

    def test_undersized_packets_exit_invariant_violation(self, tmp_path):
        # forcing 2-bit packets makes time quantization far too coarse for the
        # jump contract, which the runtime checks must report as exit code 2
        rc = cli.main([
            "simulate", "--config", str(RECIPES / "fig7.cfg"),
            "--horizon", "4", "--g", "2", "--out", str(tmp_path),
        ])
        assert rc == cli.EXIT_INVARIANT
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["invariants_ok"] is False
        assert report["violations"]

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "div.cfg"
        path.write_text(
            "A = 2\nB = 0\nK = 0\nv0 = 2e11\nsigma = 0.1\nrho0 = 0.1\ngamma = 0\n"
            "delay = constant:0\nhorizon = 12\nstep = 0.01\nx0 = 1e11\nxhat0 = 1e9\n"
        )
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DIVERGED
        assert (tmp_path / "o" / "trace.csv").exists()

    @pytest.mark.parametrize("text, flags, exit_code, last_row", [
        ((RECIPES / "fig7.cfg").read_text(), ["--horizon", "1"], cli.EXIT_OK, None),
        (THREE_BLOCKS + "v0 = 0.5 0.5 0.5\nx0 = 0.3 -0.2 0.1\nxhat0 = 0 0 0\n", [], cli.EXIT_OK,
         None),
        ("A = 2\nB = 0\nK = 0\nv0 = 2e11\nsigma = 0.1\nrho0 = 0.1\ngamma = 0\n"
         "delay = constant:0\nhorizon = 12\nstep = 0.01\nx0 = 1e11\nxhat0 = 1e9\n", [],
         cli.EXIT_DIVERGED, None),
        ("A = 800\nB = 0\nK = 0\nv0 = 1\nsigma = 0.1\nrho0 = 0.1\ngamma = 0\n"
         "delay = constant:0\nhorizon = 5\nstep = 1\nx0 = 1\nxhat0 = 0\n", [],
         cli.EXIT_DIVERGED, "1.0,nan,nan,inf,0.9048374180359595\n"),
    ], ids=["fig7", "three_blocks", "diverged", "non_finite"])
    def test_trace_csv_equals_per_row_repr(self, tmp_path, capsys, monkeypatch, text, flags,
                                           exit_code, last_row):
        # every cell is repr of the Python float, every row ",".join of its cells; a run
        # that overflows in one step writes nan and inf cells
        traces = []
        write = cli._write_trace_csv
        monkeypatch.setattr(cli, "_write_trace_csv",
                            lambda path, trace: (traces.append(trace), write(path, trace)))
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out), *flags]) == exit_code
        (trace,) = traces
        n = trace.n
        header = ",".join(["t"] + [f"{c}{i + 1}" for c in ("x", "xhat", "z", "v")
                                   for i in range(n)])
        table = np.column_stack((trace.times, trace.x, trace.xhat, trace.z, trace.v)).tolist()
        expected = "".join([header + "\n"] + [",".join(map(repr, row)) + "\n" for row in table])
        assert len(table) > 1
        assert (out / "trace.csv").read_text() == expected
        if last_row is not None:
            assert expected.endswith("\n" + last_row)

    @pytest.mark.parametrize("text", [
        THREE_BLOCKS + "v0 = 0.5 0.5 0.5 0.5\nx0 = 0 0 0\nxhat0 = 0 0 0\n",
        THREE_BLOCKS + "v0 = 0.5 0.5 0.5\nx0 = 0 0\nxhat0 = 0 0\n",
    ], ids=["v0_count", "x0_count"])
    def test_count_mismatch_is_clean_error(self, tmp_path, capsys, text):
        path = write_cfg(tmp_path, text)
        assert_one_line_usage_error(capsys, ["simulate", "--config", str(path),
                                             "--out", str(tmp_path / "o")])

    def test_nu_below_one_refused_before_running(self, tmp_path, capsys, monkeypatch):
        def never(self):
            raise AssertionError("the run started")

        argv = ["simulate", "--config", str(RECIPES / "fig7.cfg"), "--horizon", "0.5",
                "--out", str(tmp_path)]
        with monkeypatch.context() as m:
            m.setattr(sim._Engine, "run", never)
            for nu in ("0.5", "nan"):
                assert_one_line_usage_error(capsys, argv + ["--nu", nu])
        assert cli.main(argv + ["--nu", "1"]) == cli.EXIT_OK

    def test_missing_config_is_usage_error(self, capsys):
        rc = cli.main(["simulate", "--config", "/nonexistent.cfg"])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("flags, fragment", [
        (["--gamma", "nan"], "gamma must be finite"),
        (["--horizon", "inf"], "horizon must be positive and finite"),
        (["--step", "inf"], "step must be positive and finite"),
        (["--nu", "inf"], "nu must be finite"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--horizon", "1e9", "--step", "1e-9"], "-byte limit"),
        (["--horizon", "1e-300"], "horizon 1e-300 is shorter than one step 0.0002"),
        (["--g", "70"], "packet size g=70 is too fine"),
        (["--horizon", "1", "--g", "2000000"],
         "packet size must lie in [1, 2100] bits, got 2000000"),
        (["--g", "-1"], "field 'g' (command line): packet size must lie in [1, 2100] bits, got -1"),
        (["--gamma", "0", "--g", "5", "--horizon", "0.001"],
         "error: packets with timing bits need a positive finite delay bound, got gamma=0.0"),
        (["--gamma", "0", "--g", "5"],
         "error: packets with timing bits need a positive finite delay bound, got gamma=0.0"),
    ], ids=["gamma_nan", "horizon_inf", "step_inf", "nu_inf", "seed_negative", "huge_trace",
            "no_samples", "g_unresolvable", "g_huge", "g_negative", "g_timing_at_gamma_0",
            "g_timing_at_gamma_0_recipe_horizon"])
    def test_boundary_input_refused_before_running(self, tmp_path, capsys, monkeypatch,
                                                   flags, fragment):
        # the trace arrays are allocated in _Engine.run, so a refused run allocates
        # nothing, and it leaves no output directory behind
        def never(self):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim._Engine, "run", never)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(RECIPES / "fig7.cfg"), "--out", str(out)]
        assert fragment in assert_one_line_usage_error(capsys, argv + flags)
        assert not out.exists()

    @pytest.mark.parametrize("matrix_line, name", [
        ("K_matrix = inf 0; 0 1", "K"), ("K_matrix = nan 0; 0 1", "K"),
        ("B_matrix = 1 0; 0 inf", "B"),
    ], ids=["K_inf", "K_nan", "B_inf"])
    def test_non_finite_gain_is_clean_error(self, tmp_path, capsys, matrix_line, name):
        # used to run into a numpy RuntimeWarning and exit 3 with a state overflow
        text = ("blocks = 1:1, 2:1\nv0 = 0.1; 0.1\nsigma = 1\nrho0 = 0.5\ngamma = 0.1\n"
                f"horizon = 1\nx0 = 0.01 0.01\nxhat0 = 0 0\n{matrix_line}\n")
        argv = ["simulate", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the run
            err = assert_one_line_usage_error(capsys, argv)
        assert f"{name} entries must be finite" in err

    @pytest.mark.parametrize("lines", [["x0 = nan"], ["x0 = inf", "xhat0 = inf"], ["xhat0 = nan"]],
                             ids=["x0_nan", "both_inf", "xhat0_nan"])
    def test_non_finite_initial_state_refused(self, tmp_path, capsys, lines):
        # used to exit 3 with a state overflow at t=0 (at t=7 for xhat0 = nan), writing the trace
        keys = {line.partition(" = ")[0] for line in lines}
        kept = [line for line in (RECIPES / "fig7.cfg").read_text().splitlines()
                if line.partition(" = ")[0] not in keys]
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(write_cfg(tmp_path, "\n".join(kept + lines))),
                "--out", str(out)]
        assert "error: initial states must be finite, got x0=" in assert_one_line_usage_error(
            capsys, argv)
        assert not out.exists()

    def test_infinite_trigger_level_refused_before_running(self, tmp_path, capsys, monkeypatch):
        def never(self):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim._Engine, "run", never)
        text = (RECIPES / "fig7.cfg").read_text().replace("v0 = 0.2671", "v0 = inf")
        argv = ["simulate", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path)]
        assert "v0 must be positive and finite" in assert_one_line_usage_error(capsys, argv)

    @pytest.mark.parametrize("line", ["integrator = euler", "rho_ladders = 0.05", "refin = true",
                                      "L = 1.0", "assumption1 = true"])
    def test_unknown_key_refused_before_running(self, tmp_path, capsys, monkeypatch, line):
        def never(self):
            raise AssertionError("the run started")

        monkeypatch.setattr(sim._Engine, "run", never)
        text = (RECIPES / "fig7.cfg").read_text()
        path = write_cfg(tmp_path, text + line + "\n")
        key = line.split(" = ")[0]
        lineno = len(text.splitlines()) + 1
        err = assert_one_line_usage_error(capsys, ["simulate", "--config", str(path),
                                                   "--out", str(tmp_path)])
        assert f"{path}:{lineno}: unknown key '{key}'" in err

    def test_decode_error_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def undecodable(*args, **kwargs):
            raise DecodeError("packet time outside the reception window")

        monkeypatch.setattr(sim, "run_vector", undecodable)
        assert_one_line_usage_error(capsys, ["simulate", "--config", str(RECIPES / "fig7.cfg"),
                                             "--out", str(tmp_path)])


@pytest.mark.parametrize("command, recipe, gamma, fragment", [
    ("bounds", "fig3", "400", "packet size must lie in [1, 2100] bits, got 4630"),
    ("bounds", "fig5", "400", "cell width b*gamma/2^(g-2) underflows at gamma=400.0"),
    ("bounds", "fig6", "400", "cell width b*gamma/2^(g-2) underflows at gamma=400.0"),
    ("simulate", "fig7", "1e300", "leaves float range at lam=1.0, sigma=0.1, gamma=1e+300"),
    ("simulate", "fig7", "640", "packet size g=1030 is too fine"),
], ids=["bounds_fig3", "bounds_fig5", "bounds_fig6", "simulate_fig7", "simulate_fig7_auto_g"])
def test_huge_finite_delay_bound_is_clean_error(tmp_path, capsys, monkeypatch,
                                                command, recipe, gamma, fragment):
    def never(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(sim._Engine, "run", never)
    argv = [command, "--config", str(RECIPES / f"{recipe}.cfg"), "--gamma", gamma,
            "--out", str(tmp_path)]
    assert fragment in assert_one_line_usage_error(capsys, argv)


@pytest.mark.parametrize("spec, text", [
    ("constant:", ""), ("constant:x", "x"), ("fraction:", ""), ("fraction:x", "x"),
    ("replay:0.1,x", "x"),
])
@pytest.mark.parametrize("command, recipe", [("simulate", "fig7"), ("sweep", "fig8")])
def test_malformed_delay_spec_number_is_clean_error(tmp_path, capsys, command, recipe,
                                                    spec, text):
    # each number field was a bare float(): a ValueError traceback
    argv = [command, "--config", str(RECIPES / f"{recipe}.cfg"), "--delay", spec,
            "--out", str(tmp_path)]
    assert assert_one_line_usage_error(capsys, argv) == (
        f"error: delay spec {spec!r}: {text!r} is not a number\n"
    )
    assert not any(tmp_path.iterdir())


class TestSweepCommand:
    def test_golden_csv(self, tmp_path):
        rc = cli.main([
            "sweep", "--config", str(DATA / "small_sweep.cfg"), "--out", str(tmp_path),
        ])
        assert rc == 0
        got = (tmp_path / "sweep.csv").read_bytes()
        assert got == (DATA / "golden_sweep.csv").read_bytes()

    def test_golden_csv_sigma_sup_and_rho0_family(self, tmp_path):
        rc = cli.main([
            "sweep", "--config", str(DATA / "sup_sweep.cfg"), "--out", str(tmp_path),
        ])
        assert rc == 0
        got = (tmp_path / "sweep.csv").read_bytes()
        assert got == (DATA / "golden_sup_sweep.csv").read_bytes()

    def test_header_schema_frozen(self, tmp_path):
        rc = cli.main([
            "sweep", "--config", str(DATA / "small_sweep.cfg"), "--out", str(tmp_path),
        ])
        assert rc == 0
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == ",".join(cli.SWEEP_COLUMNS)

    def test_fig4_family_crosses_at_equilibrium(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(RECIPES / "fig4.cfg"), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(cli.SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 5 * 150
        by_rho = {}
        for row in rows:
            by_rho.setdefault(float(row["rho0"]), {})[float(row["gamma"])] = float(
                row["R_necessary_approx"]
            )
        # family ordering flips across the equilibrium delay ln2/A = 0.6931
        gammas = sorted(by_rho[0.1])
        g_lo = min(gammas, key=lambda g: abs(g - 0.3))
        g_hi = min(gammas, key=lambda g: abs(g - 2.0))
        assert by_rho[0.1][g_lo] > by_rho[0.9][g_lo]
        assert by_rho[0.1][g_hi] < by_rho[0.9][g_hi]

    @pytest.mark.parametrize("ladder", ["0.01 0.1", "0.09 0.1"])
    def test_rho_ladder_honoured(self, tmp_path, ladder):
        text = ("mode = analytic\nblocks = 1.0:2\nsigma = 1\nrho0 = 0.1\n"
                f"gamma_grid = 0.5\nrho_ladder = {ladder}\n")
        path = write_cfg(tmp_path, text)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        row = dict(zip(cli.SWEEP_COLUMNS, lines[1].split(",")))
        assert cli.main(["bounds", "--config", str(path), "--gamma", "0.5",
                         "--out", str(tmp_path)]) == 0
        table = json.loads((tmp_path / "bounds.json").read_text())
        assert float(row["R_sufficient"]) == table["rate_sufficient"]

    def test_mixed_eigenvalues_sweep_matches_bounds(self, tmp_path):
        path = write_cfg(tmp_path, "mode = analytic\nblocks = 1:1, 2:1\nsigma = 1\n"
                                   "rho0 = 0.5\ngamma_grid = 0.5, 1\n")
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(cli.SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
        assert [row["gamma"] for row in rows] == ["0.5", "1.0"]
        for row in rows:
            assert cli.main(["bounds", "--config", str(path), "--gamma", row["gamma"],
                             "--out", str(tmp_path)]) == 0
            table = json.loads((tmp_path / "bounds.json").read_text())
            for column, key in (("R_necessary", "rate_necessary"),
                                ("R_necessary_approx", "rate_necessary_approx"),
                                ("R_sufficient", "rate_sufficient"), ("R_access", "access_rate")):
                assert float(row[column]) == table[key], column

    def test_rho_ladder_with_rho0_list_refused(self, tmp_path, capsys):
        text = ("mode = analytic\nblocks = 1.0:2\nsigma = 1\nrho0 = 0.1\n"
                "rho0_list = 0.05, 0.1\ngamma_grid = 0.5\nrho_ladder = 0.01 0.1\n")
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path)]
        assert "rho0_list" in assert_one_line_usage_error(capsys, argv)
        assert not (tmp_path / "sweep.csv").exists()

    def test_grid_count_capped(self, tmp_path, capsys):
        assert len(cli._grid(f"0.1:0.1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS
        # one point over the cap is refused first: unchecked, that grid is still small
        with pytest.raises(ValueError, match="grid count"):
            cli._grid(f"0.1:0.1:{cli.MAX_GRID_POINTS + 1}")
        text = "mode = analytic\nA = 1\nsigma = 1\nrho0 = 0.5\ngamma_grid = 0.1:0.1:1000000000000\n"
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path)]
        assert "grid count" in assert_one_line_usage_error(capsys, argv)

    def test_analytic_row_count_capped(self, tmp_path, capsys, monkeypatch):
        # each grid may reach the cap, their product may not: the refusal comes before
        # any curve, so this 1,000 x 101 sweep builds no row
        monkeypatch.setattr(bnd, "phase_curves", lambda *args: pytest.fail("a curve ran"))
        text = ("mode = analytic\nA = 1\nsigma = 1\nrho0 = 0.5\nrho0_list = 0.5:0:1000\n"
                "gamma_grid = 0.01:0.01:101\n")
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]
        assert assert_one_line_usage_error(capsys, argv) == (
            f"error: an analytic sweep may hold at most {cli.MAX_GRID_POINTS} rows, "
            f"got 1000 rho0 values x 101 delays = 101000\n"
        )
        assert not (tmp_path / "out").exists()
        monkeypatch.undo()
        # at the cap the sweep runs: 2 x 3 rows of a cap of 6, and 2 x 4 are refused
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 6)
        text = "mode = analytic\nA = 1\nsigma = 1\nrho0 = 0.5\nrho0_list = 0.3, 0.5\n"
        path = write_cfg(tmp_path, text + "gamma_grid = 0.1, 0.2, 0.3\n")
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "(6 rows, 0 failed)" in capsys.readouterr().out
        path = write_cfg(tmp_path, text + "gamma_grid = 0.1, 0.2, 0.3, 0.4\n")
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "big")]
        assert "got 2 rho0 values x 4 delays = 8" in assert_one_line_usage_error(capsys, argv)
        assert not (tmp_path / "big").exists()

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = analytic\nA = 1\nsigma = 1\nrho0 = 0.5\ngamma_grid =\n")
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("delays, exit_code", [
        ("0.01", cli.EXIT_INVARIANT), ("0.01,0.01,0.01", cli.EXIT_OK),
    ], ids=["every_row_fails", "one_row_fails"])
    def test_exhausted_replay_recorded_per_row(self, tmp_path, capsys, delays, exit_code):
        text = (RECIPES / "fig8.cfg").read_text()
        text = text.replace("delay = uniform", f"delay = replay:{delays}")
        text = text.replace("gamma_grid = 0.0005:0.2:11", "gamma_grid = 0.1, 0.5")
        path = write_cfg(tmp_path, text)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == exit_code
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(cli.SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
        assert [row["gamma"] for row in rows] == ["0.1", "0.5"]
        assert "replay sequence exhausted" in rows[0]["error"]
        if exit_code == cli.EXIT_OK:
            assert rows[1]["error"] == "" and rows[1]["invariants_ok"] == "true"
        else:
            assert "replay sequence exhausted" in rows[1]["error"]

    def test_nonpositive_grid_value_refused_before_any_row(self, tmp_path, capsys):
        # at h = 0.01 each positive row would warn that the step tops its tolerance
        text = (RECIPES / "fig8.cfg").read_text()
        text = text.replace("gamma_grid = 0.0005:0.2:11", "gamma_grid = 0.5, 1.5, 0")
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--step", "0.01",
                "--out", str(tmp_path)]
        message = assert_one_line_usage_error(capsys, argv)  # no row ran: no warning line
        assert "sweep grid values must be positive, got 0.0" in message
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("setting, value, fragment", [
        ("--step", "0", "step must be positive and finite, got 0.0"),
        ("--horizon", "inf", "horizon must be positive and finite, got inf"),
        ("--horizon", "1e-5", "horizon 1e-05 is shorter than one step 0.0002"),
        ("x0", "0.1 0.2", "initial conditions must have shape (1,)"),
        ("x0", "0.9", "initial errors [0.7] must not exceed trigger levels [0.0442]"),
        ("v0", "0.0442 0.0442", "need one trigger level per coordinate (1), got 2"),
        ("x0", "nan", "initial states must be finite, got x0=[nan], xhat0=[0.2]"),
    ], ids=["step", "horizon", "no_samples", "x0_shape", "x0_above_level", "v0_count", "x0_nan"])
    def test_run_wide_input_refused_before_any_row(self, tmp_path, capsys, setting, value,
                                                   fragment):
        # each of fig8's 11 rows used to fail on it alone: exit 2 and 11 error rows
        if setting.startswith("--"):
            path, extra = RECIPES / "fig8.cfg", [setting, value]
        else:  # a config key: its line is replaced
            lines = [line for line in (RECIPES / "fig8.cfg").read_text().splitlines()
                     if line.partition(" = ")[0] != setting]
            path, extra = write_cfg(tmp_path, "\n".join(lines + [f"{setting} = {value}"])), []
        argv = ["sweep", "--config", str(path), *extra, "--out", str(tmp_path / "out")]
        assert fragment in assert_one_line_usage_error(capsys, argv)
        assert not (tmp_path / "out").exists()

    def test_error_cell_with_comma_stays_one_field(self, tmp_path, capsys):
        # the second row's automatic packet size is too fine for its horizon
        text = (RECIPES / "fig8.cfg").read_text()
        text = text.replace("gamma_grid = 0.0005:0.2:11", "gamma_grid = 0.5, 250")
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--horizon", "0.5",
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        with (tmp_path / "sweep.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [len(cli.SWEEP_COLUMNS)] * 3
        assert rows[1][-1] == ""
        assert rows[2][-1] == (
            "packet size g=952 is too fine: its half cell b*gamma/2^(g-1) at b=1.0001, "
            "gamma=250.0 vanishes against send times up to the horizon 0.5"
        )

    def test_empirical_csv_cells_byte_for_byte(self, tmp_path):
        # every cell kind of an empirical row: empty, boolean, integer, float and an error
        text = (RECIPES / "fig8.cfg").read_text()
        text = text.replace("delay = uniform", "delay = replay:0.01")  # 2 packets at 0.1
        text = text.replace("gamma_grid = 0.0005:0.2:11", "gamma_grid = 0.1, 0.5, 0.9")
        path = write_cfg(tmp_path, text)
        argv = ["sweep", "--config", str(path), "--horizon", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        got = (tmp_path / "sweep.csv").read_bytes()
        assert got == (DATA / "golden_empirical_sweep.csv").read_bytes()

    def test_delay_keys_parsed_once_per_row(self, tmp_path, monkeypatch):
        # each row's delay models read seed once, not once per coordinate (6 times here)
        parsed = []
        setting = cli.SETTINGS["seed"]
        monkeypatch.setitem(cli.SETTINGS, "seed", setting._replace(
            parse=lambda s: parsed.append(s) or setting.parse(s)))
        path = write_cfg(tmp_path, "mode = empirical\nblocks = 1:1, 2:1, 3:1\nsigma = 1\n"
                                   "rho0 = 0.5\nv0 = 0.5\nx0 = 0.3 -0.2 0.1\nxhat0 = 0 0 0\n"
                                   "horizon = 0.2\ngamma_grid = 0.1, 0.2\nseed = 7\n")
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
        assert parsed == ["7", "7"]

    @pytest.mark.parametrize("flag, value", [("--g", "-1"), ("--gamma", "5")],
                             ids=["--g", "--gamma"])
    def test_sweep_refuses_ignored_flags(self, tmp_path, capsys, flag, value):
        # a sweep sizes packets per row and sweeps gamma_grid: neither flag has a meaning
        argv = ["sweep", "--config", str(RECIPES / "fig8.cfg"), flag, value,
                "--out", str(tmp_path)]
        assert f"unrecognized arguments: {flag} {value}" in assert_one_line_usage_error(
            capsys, argv
        )
        assert not (tmp_path / "sweep.csv").exists()

    def test_adversarial_clamp_is_one_warning_line(self, tmp_path, capsys):
        # the first row clamps; the warning used to print with a second, source-code line
        shown = warnings.showwarning
        argv = ["sweep", "--config", str(RECIPES / "fig8.cfg"), "--delay", "adversarial",
                "--horizon", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: adversarial delay beta=0.0759604 exceeds gamma=0.0005; clamping"
        ]
        assert warnings.showwarning is shown

    def test_recipes_all_parse(self):
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert cli.recipe_path(name).exists()
            cli.RunConfig.from_file(cli.recipe_path(name))


def test_recipe_outputs_match_digests(tmp_path):
    # the byte-identity check: every bundled recipe's outputs and stdout, as sha256
    spec = importlib.util.spec_from_file_location("make_recipe_digests",
                                                  DATA / "make_recipe_digests.py")
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    got = make.recipe_digests(tmp_path)
    want = json.loads(make.PATH.read_text())
    assert got.keys() == want.keys()
    differ = [f"{name}/{file}" for name in want for file in want[name].keys() | got[name].keys()
              if got[name].get(file) != want[name].get(file)]
    assert not differ, f"outputs differ from {make.PATH.name}: {', '.join(sorted(differ))}"


def _fresh_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


_RUN_LEAVES_SCIPY_UNLOADED = ("import sys\nfrom etcsim import cli\n"
                              "assert cli.main(sys.argv[1:]) == 0\n"
                              "assert 'scipy' not in sys.modules\n")


class TestLazyScipy:
    """numpy is the only runtime dependency: no command loads scipy."""

    def test_cli_import_leaves_scipy_unloaded(self):
        done = _fresh_python("import etcsim.cli, sys; assert 'scipy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_bounds_command_leaves_scipy_unloaded(self):
        done = _fresh_python(_RUN_LEAVES_SCIPY_UNLOADED, "bounds",
                             "--config", str(RECIPES / "fig3.cfg"), "--gamma", "0.05")
        assert done.returncode == 0, done.stderr
        assert "access_rate" in done.stdout

    def test_simulate_command_leaves_scipy_unloaded(self, tmp_path):
        done = _fresh_python(_RUN_LEAVES_SCIPY_UNLOADED, "simulate",
                             "--config", str(RECIPES / "fig7.cfg"), "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert "invariants: ok" in done.stdout

    def test_empirical_sweep_leaves_scipy_unloaded(self, tmp_path):
        done = _fresh_python(_RUN_LEAVES_SCIPY_UNLOADED, "sweep",
                             "--config", str(RECIPES / "fig8.cfg"), "--horizon", "1",
                             "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert "(11 rows, 0 failed)" in done.stdout


_RUN_LEAVES_NUMPY_UNLOADED = ("import sys\nfrom etcsim import cli\n"
                              "assert cli.main(sys.argv[1:]) == 0\n"
                              "assert 'numpy' not in sys.modules\n")


# the comma-separated modules of the first argument are not loaded
_ASSERT_UNLOADED = ("import sys\nloaded = set(sys.argv[1].split(',')) & set(sys.modules)\n"
                    "assert not loaded, loaded\n")
_RUN_LEAVES_UNLOADED = ("import sys\nfrom etcsim import cli\n"
                        "assert cli.main(sys.argv[2:]) == 0\n" + _ASSERT_UNLOADED)


class TestLazyNumpy:
    """The analytic path is pure math: importing the CLI, bounds and analytic sweeps load
    no numpy, nor dataclasses or json, and the package resolves its exported names on
    first use."""

    @pytest.mark.parametrize("code", [
        "import etcsim.cli",
        "import etcsim; etcsim.BoundInputs",
    ], ids=["cli", "bound_inputs"])
    def test_import_leaves_numpy_unloaded(self, code):
        done = _fresh_python(f"{code}\nimport sys; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("command, recipe, flags, printed", [
        ("bounds", "fig3", ["--gamma", "0.05"], "wrote"),
        ("bounds", "fig7", [], "wrote"),
        ("sweep", "fig3", [], "(200 rows, 0 failed)"),
        ("sweep", "fig6", [], "(200 rows, 0 failed)"),
    ], ids=["bounds_fig3", "bounds_fig7", "sweep_fig3", "sweep_fig6"])
    def test_analytic_command_leaves_numpy_unloaded(self, tmp_path, command, recipe, flags,
                                                     printed):
        done = _fresh_python(_RUN_LEAVES_NUMPY_UNLOADED, command,
                             "--config", str(RECIPES / f"{recipe}.cfg"),
                             "--out", str(tmp_path), *flags)
        assert done.returncode == 0, done.stderr
        assert printed in done.stdout
        assert any(tmp_path.iterdir())

    @pytest.mark.parametrize("code", [
        "import etcsim.cli",
        "import etcsim; etcsim.BoundInputs",
    ], ids=["cli", "bound_inputs"])
    def test_import_leaves_dataclasses_and_json_unloaded(self, code):
        done = _fresh_python(f"{code}\n{_ASSERT_UNLOADED}", "dataclasses,inspect,json")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("command, recipe, out, unloaded", [
        ("bounds", "fig7", False, "dataclasses,inspect,json"),
        ("bounds", "fig7", True, "dataclasses,inspect"),  # bounds.json may load json
        ("sweep", "fig3", True, "dataclasses,inspect,json"),
        ("sweep", "fig6", True, "dataclasses,inspect,json"),
    ], ids=["bounds_fig7", "bounds_fig7_out", "sweep_fig3", "sweep_fig6"])
    def test_analytic_command_leaves_dataclasses_and_json_unloaded(self, tmp_path, command,
                                                                    recipe, out, unloaded):
        argv = [command, "--config", str(RECIPES / f"{recipe}.cfg")]
        done = _fresh_python(_RUN_LEAVES_UNLOADED, unloaded,
                             *argv, *(["--out", str(tmp_path)] if out else []))
        assert done.returncode == 0, done.stderr
        assert any(tmp_path.iterdir()) == out

    def test_engine_names_still_import(self):
        done = _fresh_python("from etcsim import run_vector, SimTrace\n"
                             "import sys; assert 'numpy' in sys.modules\n"
                             "assert run_vector.__module__ == 'etcsim.sim'")
        assert done.returncode == 0, done.stderr


_FIG7_DESIGN = dict(sigma=0.1, rho0=0.1, gamma=1.2, b=1.0001)


@pytest.mark.parametrize("key, value, field, parsed", [
    ("sigma", "0", "sigma", 0.0),
    ("rho0", "1", "rho0", 1.0),
    ("rho0", "1e-320", "rho0", 1e-320),
    ("rho0", "5e-324", "rho0", 5e-324),
    ("gamma", "-1", "gamma", -1.0),
    ("b", "1", "b", 1.0),
    ("A", "inf", "blocks", ((math.inf, 1),)),
    ("blocks", "inf:1", "blocks", ((math.inf, 1),)),
    ("blocks", "1:0", "blocks", ((1.0, 0),)),
    ("blocks", "1:2.5", "blocks", ((1.0, 2.5),)),
    ("blocks", "1:400, 2:113", "blocks", ((1.0, 400), (2.0, 113))),
    ("rho_ladder", "1.5", "rho_ladders", ((1.5,),)),
    ("rho_ladder", "0.05, 1.5", "rho_ladders", ((0.05, 1.5),)),
], ids=["sigma", "rho0", "rho0_subnormal", "rho0_smallest_subnormal", "gamma", "b", "A_inf",
        "blocks_inf", "blocks_order_0",
        "blocks_order_fractional", "blocks_order_over_cap", "ladder_value",
        "ladder_value_and_shape"])
def test_one_message_per_parameter(tmp_path, capsys, monkeypatch, key, value, field, parsed):
    # every library constructor of the parameter raises one ConfigurationError text,
    # and every command that reads the key prints exactly that text
    if field == "blocks":
        builds = [lambda: JordanPlant(blocks=parsed, B=np.eye(1), K=np.zeros((1, 1))),
                  lambda: BoundInputs(blocks=parsed, **_FIG7_DESIGN)]
    else:
        design = {**_FIG7_DESIGN, field: parsed}
        builds = [lambda: TriggerConfig(v0=0.2671, **design),
                  lambda: BoundInputs(blocks=((1.0, 1),), **design)]
    messages = set()
    for build in builds:
        with pytest.raises(ConfigurationError) as exc:
            build()
        messages.add(str(exc.value))
    assert len(messages) == 1, messages
    expected = f"error: {messages.pop()}\n"

    def never(self):
        raise AssertionError("the run started")

    monkeypatch.setattr(sim._Engine, "run", never)
    runs = [("bounds", "fig7"), ("simulate", "fig7")]
    if "analytic" in cli.SETTINGS[key].readers:
        runs.append(("sweep", "fig3"))
    replaced = {key, "A"} if key == "blocks" else {key}  # blocks takes the place of A
    for command, recipe in runs:
        lines = [line for line in (RECIPES / f"{recipe}.cfg").read_text().splitlines()
                 if line.partition(" = ")[0] not in replaced]
        path = tmp_path / f"{command}.cfg"
        path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert assert_one_line_usage_error(capsys, argv) == expected, command
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, message", [
    (["A = inf"], "eigenvalue must be positive and finite, got inf"),
    (["blocks = 1:0"], "block order must be >= 1, got 0"),
    (["blocks = 1:2.5"], "block order must be a positive integer, got 2.5"),
    (["blocks = 1:513"], "plant order (sum of block orders) must be <= 512, got 513"),
    (["A = 1", "B = inf"], "B entries must be finite, got [[inf]]"),
    (["A = 1", "K = nan"], "K entries must be finite, got [[nan]]"),
    (["blocks = 1:2", "B_matrix = 1 0"], "input map B must have 2 rows, got shape (1, 2)"),
    (["blocks = 1:2", "K_matrix = inf 0; 0 1"],
     "K entries must be finite, got [[inf, 0.0], [0.0, 1.0]]"),
], ids=["A_inf", "blocks_order_0", "blocks_order_fractional", "blocks_order_over_cap", "B_inf",
        "K_nan", "B_matrix_shape", "K_matrix_inf"])
@pytest.mark.parametrize("command, recipe", [("bounds", "fig7"), ("sweep", "fig3")])
def test_bad_plant_value_refused_by_analytic_commands(tmp_path, capsys, lines, message,
                                                      command, recipe):
    # bounds and analytic sweeps read the plant but never run it; each bad value still
    # exits 1 with the plant's own one-line message and writes nothing
    kept = [line for line in (RECIPES / f"{recipe}.cfg").read_text().splitlines()
            if line.partition(" = ")[0] not in {"A", "B", "K"}]
    path = tmp_path / "plant.cfg"
    path.write_text("\n".join(kept + lines) + "\n")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert assert_one_line_usage_error(capsys, argv) == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, lines", [
    ("bounds", ["gamma = 600"]), ("sweep", ["mode = analytic", "gamma_grid = 600"]),
])
def test_underflowing_packet_term_runs(tmp_path, capsys, command, lines):
    # rho0 * e^{-(A+sigma)*gamma} underflows to 0 below (A+sigma)*gamma = 700; the packet
    # term takes its asymptote ln(rho0) - (A+sigma)*gamma there instead of ln(0)
    path = write_cfg(tmp_path, "\n".join(["A = 1", "sigma = 0.1", "rho0 = 1e-300"] + lines))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK and captured.err == ""
    inp = BoundInputs.scalar(1.0, 0.1, 1e-300, gamma=600.0, nu=2.0)
    u = 1.1 * 600.0
    term = (math.log(1.0001 * 600.0 * 1.1) - (math.log(1e-300) - u)) / math.log(2.0)
    table = bnd.analytic_bounds(inp)
    assert table.packet_size_sufficient == math.ceil(1.0 + term) == 1960
    if command == "bounds":
        assert "packet_size_sufficient         1960\n" in captured.out
    else:
        row = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[cli.SWEEP_COLUMNS.index("R_sufficient")]) == table.rate_sufficient


@pytest.mark.parametrize("flags", [[], ["--g", "1"]], ids=["automatic_g", "given_g"])
def test_underflowing_delay_width_is_clean_error(tmp_path, capsys, no_run, flags):
    # b*gamma*(A+sigma) underflows to 0 at gamma = 5e-324: the packet size is 1, not
    # log(0)'s traceback, and the run's bounds refuse the delay, naming lam and gamma,
    # before the (patched) run starts and writing nothing
    assert bnd._packet_size(0.1, 0.1, 0.1, 5e-324, 1.0001) == 1
    path = write_cfg(tmp_path, "A = 0.1\nB = 0.2\nK = 8\nv0 = 0.3\nsigma = 0.1\nrho0 = 0.1\n"
                     "gamma = 5e-324\nx0 = 0.2\nxhat0 = 0.1\nhorizon = 0.1\nstep = 0.001\n")
    argv = ["simulate", "--config", str(path), *flags, "--out", str(tmp_path / "out")]
    message = assert_one_line_usage_error(capsys, argv)
    assert message == ("error: gamma=5e-324 is too small for eigenvalue lam=0.1: "
                       "lam*gamma underflows to 0\n")
    assert not (tmp_path / "out").exists()


_TWO_EIGENVALUES = "blocks = 1:1, 2:1\nsigma = 3\nrho0 = 0.7\nnu = 2\n"


@pytest.mark.parametrize("command, text, flags", [
    ("bounds", _TWO_EIGENVALUES, ["--gamma", "1e308"]),
    ("bounds", _TWO_EIGENVALUES, ["--gamma", "3e307"]),
    ("sweep", (RECIPES / "fig3.cfg").read_text() + "gamma_grid = 0.5, 1e308\n", []),
], ids=["bounds_nan", "bounds_inf", "sweep_nan"])
def test_rate_overflow_is_clean_error(tmp_path, capsys, command, text, flags):
    # b*(lam+sigma)*gamma/ln2 overflows: the rates used to print and write as nan or inf
    path = write_cfg(tmp_path, text.replace("gamma_grid = 0.002:0.002:200\n", ""))
    argv = [command, "--config", str(path), *flags, "--out", str(tmp_path / "out")]
    message = assert_one_line_usage_error(capsys, argv)
    assert "the rate bounds and the sufficient packet size leave float range" in message
    assert "b*(lam+sigma)*gamma/ln2 overflows at lam+sigma=" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [[], ["--refine"]], ids=["grid", "refine"])
def test_zero_delay_retriggers_end_in_violations(tmp_path, capsys, monkeypatch, flags):
    # a 1.2 s delay, then zero ones: refine mode used to re-scan the re-trigger instant forever
    calls = []
    refine_fire = sim._Engine._refine_fire

    def bounded(self, *args):
        calls.append(None)
        if len(calls) > 10_000:
            raise AssertionError("refine mode keeps re-scanning one instant")
        return refine_fire(self, *args)

    monkeypatch.setattr(sim._Engine, "_refine_fire", bounded)
    delay = "replay:1.2," + ",".join(["0"] * 50)
    rc = cli.main(["simulate", "--config", str(RECIPES / "fig7.cfg"), *flags, "--g", "1",
                   "--delay", delay, "--out", str(tmp_path)])
    assert rc == cli.EXIT_INVARIANT
    assert "invariants: VIOLATED" in capsys.readouterr().out


@pytest.mark.parametrize("refine", ["false", "true"], ids=["grid", "refine"])
def test_stiff_block_overflow_is_a_divergence(tmp_path, capsys, refine):
    # exp(lam*h) leaves float range at lam = 2000, h = 1: refine mode's crossing search
    # and block_matexp used to raise OverflowError; the state overflow is the report
    path = write_cfg(tmp_path, "blocks = 2000:2\nv0 = 1 0.001\nsigma = 0.1\nrho0 = 0.5\n"
                     "gamma = 0.001\nhorizon = 5\nstep = 1\nx0 = 0.5 0.0005\nxhat0 = 0 0\n"
                     f"refine = {refine}\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DIVERGED
    assert "Traceback" not in err and "encountered" not in err
    assert err.splitlines()[-1].startswith("divergence: state overflow at t=")


def test_diverged_run_removes_stale_report(tmp_path, capsys):
    # an earlier run's report.json used to stay beside the diverged run's events.json
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(RECIPES / "fig7.cfg"), "--horizon", "0.5",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert (out / "report.json").exists()
    path = write_cfg(tmp_path, "A = 2\nB = 0\nK = 0\nv0 = 2e11\nsigma = 0.1\nrho0 = 0.1\n"
                     "gamma = 0.5\nx0 = 1e11\nxhat0 = 1e9\nhorizon = 14\nstep = 0.01\n")
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    events = json.loads((out / "events.json").read_text())
    assert events["diverged"] is True and events["horizon"] == 14.0
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, recipe, flags", [
    ("bounds", "fig3", ["--gamma", "0.05"]),
    ("simulate", "fig7", ["--horizon", "0.5"]),
    ("sweep", "fig4", []),
], ids=["bounds", "simulate", "sweep"])
def test_unwritable_output_is_clean_error(tmp_path, capsys, command, recipe, flags):
    # an --out under a regular file used to print a NotADirectoryError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    argv = [command, "--config", str(RECIPES / f"{recipe}.cfg"), *flags, "--out", str(out)]
    assert str(out) in assert_one_line_usage_error(capsys, argv)


def test_overshooting_detection_window_prints_nothing(tmp_path, capsys):
    # a detection window past the hit sample overflows np.exp; the run is healthy
    path = write_cfg(tmp_path, "A = 100\nB = 1\nK = 110\nv0 = 0.5\nsigma = 1\nrho0 = 0.5\n"
                     "gamma = 0.001\nhorizon = 20\nx0 = 0.3\nxhat0 = 0\n")
    rc = cli.main(["simulate", "--config", str(path), "--refine", "--step", "0.01",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK and capsys.readouterr().err == ""


def test_overflowing_closed_loop_is_refused(tmp_path, capsys):
    # B K overflows: simulate ran with Acl = -inf and the sweep wrote its rows
    def with_huge_b(recipe):
        lines = [line for line in (RECIPES / f"{recipe}.cfg").read_text().splitlines()
                 if not line.startswith("B =")]
        path = tmp_path / f"{recipe}.cfg"
        path.write_text("\n".join(lines + ["B = 1.7976931348623157e308"]) + "\n")
        return str(path)

    for command, recipe in (("simulate", "fig7"), ("sweep", "fig8")):
        out = tmp_path / command
        err = assert_one_line_usage_error(
            capsys, [command, "--config", with_huge_b(recipe), "--out", str(out)])
        assert "A - B K is not finite" in err
        assert not out.exists()
    assert cli.main(["bounds", "--config", with_huge_b("fig7")]) == cli.EXIT_OK


def test_tiny_delay_cascade_cap_runs(tmp_path, capsys):
    # e^{(lam+sigma)*gamma} rounds to 1 at gamma = 1e-17: the chained level's cap takes
    # E - 1 from expm1 and no longer divides by zero
    path = write_cfg(tmp_path, "blocks = 1:2\nsigma = 1\nrho0 = 0.5\ngamma = 1e-17\n"
                     "v0 = 0.5 0.1\nx0 = 0.1 0.05\nxhat0 = 0 0\nhorizon = 1\n")
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK and captured.err == ""
    assert "invariants: ok" in captured.out


@pytest.mark.parametrize("lines, message", [
    (["blocks = 1:-1"], "block order must be >= 1, got -1"),
    (["blocks = 1:2", "B_matrix = 1 0; 0"],
     "B rows must have equal lengths, got [[1.0, 0.0], [0.0]]"),
    (["blocks = 1:2", "K_matrix = 1 0"], "feedback gain K must have shape (2, 2), got (1, 2)"),
], ids=["blocks_order_negative", "B_matrix_ragged", "K_matrix_shape"])
@pytest.mark.parametrize("command, recipe", [("bounds", "fig7"), ("simulate", "fig7"),
                                             ("sweep", "fig3")])
def test_bad_plant_shape_is_clean_error(tmp_path, capsys, lines, message, command, recipe):
    # a negative order used to end in numpy's traceback, a ragged matrix in numpy's message
    kept = [line for line in (RECIPES / f"{recipe}.cfg").read_text().splitlines()
            if line.partition(" = ")[0] not in {"A", "B", "K"}]
    path = tmp_path / "plant.cfg"
    path.write_text("\n".join(kept + lines) + "\n")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert assert_one_line_usage_error(capsys, argv) == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _as_blocks(text):
    """The recipe text with its scalar plant A, B, K written as a one-block Jordan plant."""
    renamed = {"A": "blocks", "B": "B_matrix", "K": "K_matrix"}
    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if key in renamed:
            line = renamed[key] + sep + (f"{value}:1" if key == "A" else value)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("reader, command, recipes, flags", [
    ("bounds", "bounds", ["fig7"], []),
    ("simulate", "simulate", ["fig7"], ["--horizon", "1"]),
    ("analytic", "sweep", ["fig4", "fig6"], []),
    ("empirical", "sweep", ["fig8"], ["--horizon", "1"]),
])
def test_settings_table_names_the_keys_each_reader_reads(tmp_path, capsys, monkeypatch,
                                                         reader, command, recipes, flags):
    touched = set()
    get, has = cli.RunConfig.get, cli.RunConfig.has

    def spy_get(self, key, **kwargs):
        touched.add(key)
        return get(self, key, **kwargs)

    def spy_has(self, key):
        touched.add(key)
        return has(self, key)

    monkeypatch.setattr(cli.RunConfig, "get", spy_get)
    monkeypatch.setattr(cli.RunConfig, "has", spy_has)
    for recipe in recipes:
        text = (RECIPES / f"{recipe}.cfg").read_text()
        for form, body in (("scalar", text), ("blocks", _as_blocks(text))):
            path = tmp_path / f"{recipe}_{form}.cfg"
            path.write_text(body)
            argv = [command, "--config", str(path), "--out", str(tmp_path / form)] + flags
            assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    assert "blocks" in touched and "B_matrix" in touched  # the blocks form was read
    assert touched == {key for key, s in cli.SETTINGS.items() if reader in s.readers}


_FIG8_LINES = len((RECIPES / "fig8.cfg").read_text().splitlines())


@pytest.mark.parametrize("command, recipe, lines, flags, fragment", [
    ("bounds", "fig7", "",
     ["--horizon", "-5", "--delay", "bogus", "--step", "nan", "--refine", "--json"],
     "unrecognized arguments: --horizon -5 --delay bogus --step nan --refine --json"),
    ("sweep", "fig3", "", ["--horizon", "-5", "--delay", "bogus"],
     "command line: 'delay' is an empirical-sweep key; mode = analytic does not read it"),
    ("sweep", "fig8", "rho0_list = 0.3, 0.5\nsigma_grid = 0.1, 0.2\n", [],
     f":{_FIG8_LINES + 1}: 'rho0_list' is an analytic-sweep key; mode = empirical"),
    ("sweep", "fig7", "mode = bogus\n", [],
     "sweep mode must be analytic or empirical, got 'bogus'"),
    ("simulate", "fig7", "refine = maybe\n", [], "expected a boolean, got 'maybe'"),
], ids=["bounds_run_flags", "analytic_sweep_run_flags", "empirical_sweep_analytic_keys",
        "sweep_mode_bogus", "refine_maybe"])
def test_unread_setting_refused(tmp_path, capsys, command, recipe, lines, flags, fragment):
    # a setting the command cannot act on exits 1 with one line and writes nothing; the
    # first three used to exit 0, ignoring the setting
    path = write_cfg(tmp_path, (RECIPES / f"{recipe}.cfg").read_text() + lines)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)] + flags
    assert fragment in assert_one_line_usage_error(capsys, argv)
    assert not out.exists()  # no bounds.json, no sweep.csv


class _RunStarted(Exception):
    pass


@pytest.fixture
def no_run(monkeypatch):
    """_Engine.run raises _RunStarted: a case that reaches the run allocates nothing."""
    def started(self):
        raise _RunStarted

    monkeypatch.setattr(sim._Engine, "run", started)


_TWO_BLOCKS = ("blocks = 1:2\nsigma = 1\nrho0 = 0.5\ngamma = 0.1\nv0 = 0.5 0.1\n"
               "x0 = 0.1 0.05\nxhat0 = 0 0\nhorizon = 1\n")
# the float keys of cli.SETTINGS, each written into a base config at each float extreme
_EDGE_KEYS = ["A", "sigma", "rho0", "gamma", "b", "nu", "step", "horizon", "B", "K", "v0", "x0",
              "gamma_grid", "sigma_grid"]
_EDGE_VALUES = ["5e-324", "1e-300", "1e-17", "1e300", "1.7976931348623157e308"]
# the largest u64 seed runs; the next one and a 4,001-digit one are refused
_SEED_EDGES = {str(2**64 - 1): "runs", str(2**64): "refused", str(10**4000): "refused"}


def _probe_cases():
    """(command, base, setting, value): six numeric flags at six values on four recipe
    runs, then each float key read by the run at each float extreme on seven runs."""
    for command, base in [("simulate", "fig7"), ("bounds", "fig7"), ("sweep", "fig8"),
                          ("sweep", "fig3")]:
        for flag in ["--seed", "--step", "--horizon", "--gamma", "--g", "--nu"]:
            for value in ["nan", "inf", "-1", "0", "1e300", str(2**31)]:
                yield command, base, flag, value
    for command, base, reader in [
        ("simulate", "fig7", "simulate"), ("simulate", "two_blocks", "simulate"),
        ("bounds", "fig7", "bounds"), ("bounds", "two_blocks", "bounds"),
        ("sweep", "fig3", "analytic"), ("sweep", "fig6", "analytic"), ("sweep", "fig8", "empirical"),
    ]:
        for key in _EDGE_KEYS:
            if reader in cli.SETTINGS[key].readers:
                for value in _EDGE_VALUES:
                    yield command, base, key, value
    for command, base in [("simulate", "fig7"), ("sweep", "fig8")]:
        for value in _SEED_EDGES:
            yield command, base, "--seed", value


_PROBE_CASES = list(_probe_cases())


@pytest.mark.parametrize("command, base, setting, value", _PROBE_CASES,
                         ids=["-".join(case[:3] + (case[3] if len(case[3]) < 30
                                                   else f"{len(case[3])}_digits",))
                              for case in _PROBE_CASES])
def test_numeric_flag_probe(tmp_path, capsys, no_run, command, base, setting, value):
    # every numeric flag and float key at every edge value either reaches the (patched)
    # run, so nothing is allocated, or ends with a documented exit code; exit 1 is one line
    expect = _SEED_EDGES.get(value) if setting == "--seed" else None
    if setting.startswith("--"):
        path, extra = RECIPES / f"{base}.cfg", [setting, value]
    else:  # the value replaces each entry of the key's line (one per coordinate for v0, x0)
        text = _TWO_BLOCKS if base == "two_blocks" else (RECIPES / f"{base}.cfg").read_text()
        entries = {k.strip(): v for k, _, v in (line.partition("=") for line in text.splitlines())}
        count = len(entries.get(setting, "0").replace(",", " ").split())
        lines = [line for line in text.splitlines() if line.partition("=")[0].strip() != setting]
        path, extra = tmp_path / "probe.cfg", []
        path.write_text("\n".join(lines + [f"{setting} = {' '.join([value] * count)}"]) + "\n")
    argv = [command, "--config", str(path), *extra, "--out", str(tmp_path / "out")]
    try:
        rc = cli.main(argv)
    except _RunStarted:
        assert expect != "refused"
        return
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INVARIANT, cli.EXIT_DIVERGED)
    assert "Traceback" not in err
    if rc == cli.EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expect != "runs", err
    if expect == "refused":
        assert rc == cli.EXIT_USAGE and "seed must be >= 0 and < 2**64" in err, err


# structural values: empty, words, each grammar's separators out of place, NaN, a bad spec
_STRUCTURAL_VALUES = ["", "a", "1;2", "1:2:3", "1:0", "1:513", "nan", "0.5 nan", "1,", ";", "2.5",
                      "constant:x"]


@pytest.mark.parametrize("command, base", [("simulate", "fig7"), ("bounds", "fig7"),
                                           ("sweep", "fig8"), ("simulate", "two_blocks")])
def test_structural_value_probe(tmp_path, capsys, command, base):
    # every config key at every structural value, each a real run at horizon 0.01 (fig8's
    # over two rows): exit 0, 1 or 2, one line on exit 1 and 15 fields in each sweep.csv row;
    # a NaN initial state used to exit 3
    text = _TWO_BLOCKS if base == "two_blocks" else (RECIPES / f"{base}.cfg").read_text()
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() not in ("horizon", "gamma_grid")]
    lines += ["horizon = 0.01"] + (["gamma_grid = 0.5, 1"] if command == "sweep" else [])
    path, out = tmp_path / "probe.cfg", tmp_path / "out"
    failures = []
    for key in cli.SETTINGS:
        kept = [line for line in lines if line.partition("=")[0].strip() != key]
        for value in _STRUCTURAL_VALUES:
            path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
            try:
                rc = cli.main([command, "--config", str(path), "--out", str(out)])
            except Exception as exc:  # names the case that escaped
                raise AssertionError(f"{key} = {value!r}") from exc
            err = capsys.readouterr().err
            ok = rc in (cli.EXIT_OK, cli.EXIT_INVARIANT) or (
                rc == cli.EXIT_USAGE and err.startswith("error: ") and err.count("\n") == 1)
            if (out / "sweep.csv").exists():
                with (out / "sweep.csv").open(newline="") as fh:
                    ok = ok and all(len(row) == len(cli.SWEEP_COLUMNS) for row in csv.reader(fh))
            if not ok:
                failures.append((key, value, rc, err))
            if out.exists():
                shutil.rmtree(out)
    assert not failures


# the library's edge values; -1 and 0 stay ints, so an int argument sees them too,
# +-10**400 have no float, and str refuses 10**5000 where ints are limited to 4,300 digits
_LIBRARY_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.5, 3.0, 1e308, 5e-324,
                   10**400, -10**400, 10**5000]
# no numbers: a number argument refuses each with an etcsim error, but g=None is the
# automatic packet size of run_vector and coordinates (the other g arguments refuse it)
_NON_NUMBERS = ["0.5", None, 1j]
# no sequences, or a ragged one: for each tuple argument and each initial state, with a
# fresh generator of the valid value's items after them
_NON_SEQUENCES = [None, "0.5", {0.5}, {0.5: 1.0}, [[0.5], [0.5, 1.0]]]


def _library_calls():
    """(callable, valid keyword arguments, use of the result) for each public constructor and
    function; the use draws a delay or formats a packet, where a bad value could wait."""
    inp = BoundInputs(((1.0, 1),), 1.0, 0.5, 0.5, nu=4.0)
    plant = JordanPlant(((1.0, 1),), ((1.0,),), ((3.0,),))
    trigger = TriggerConfig(0.5, 1.0, 0.5, 0.1)
    draw = lambda model: model.sample(1)  # noqa: E731
    return [
        (BoundInputs, dict(blocks=((1.0, 1),), sigma=1.0, rho0=0.5, gamma=0.5, b=1.0001, nu=4.0,
                           rho_ladders=((0.5,),)), bnd.analytic_bounds),
        (bnd.analytic_bounds, dict(inp=inp), None),
        (bnd.assumption1_window, dict(inp=inp, g=3), None),
        (bnd.phase_curves, dict(inp=inp, gamma_grid=(0.1, 0.5), sigma_grid=(0.5, 1.0)), None),
        (bnd.coordinates, dict(inp=inp, v0=0.5, g=3), None),
        (ConstantDelay, dict(delay=0.05, gamma=0.1), draw),
        (UniformDelay, dict(gamma=0.1, seed=(1, 0)), draw),
        (AdversarialDelay.from_params, dict(growth=1.0, sigma=1.0, rho0=0.5, gamma=0.1), draw),
        (AdversarialDelay, dict(delay=0.05, gamma=0.1), draw),
        (ReplayDelay, dict(delays=(0.05, 0.1), gamma=0.1), draw),
        (Packet, dict(word=5, g=3, t_s=0.5), Packet.bits_hex),
        (encode, dict(t_s=0.5, sign=1, g=3, b=1.0001, gamma=1.0), Packet.bits_hex),
        (decode, dict(packet=encode(0.5, 1, 3, 1.0001, 1.0), t_c=1.0, b=1.0001, gamma=1.0), None),
        (reconstruct_error, dict(sign=1, q=0.5, t_c=1.0, v0=0.1, sigma=0.1, growth=1.0), None),
        (check_resolvable, dict(g=3, b=1.0001, gamma=1.2, t_end=7.0), None),
        (JordanPlant, dict(blocks=((1.0, 1),), B=((1.0,),), K=((3.0,),)), None),
        (TriggerConfig, dict(v0=(0.5,), sigma=1.0, rho0=0.5, gamma=0.1, b=1.0001,
                             rho_ladders=((0.5,),)), None),
        (sim.run_vector, dict(plant=plant, cfg=trigger, delay_models=UniformDelay(0.1, (1,)),
                              horizon=0.5, step=1e-3, x0=0.1, xhat0=0.0, refine=False, g=3,
                              nu=2.0), None),
    ]


def test_library_value_probe():
    # each edge value in each number or tuple argument of each public constructor and
    # function (an argument that holds an etcsim object is left as it is): the call
    # returns, and its result's use succeeds, or either raises one of etcsim's four
    # errors; a number argument given no number must raise one.  No TypeError may come
    # from either: a number, a set or a dict where a tuple belongs used to raise one
    # from the call; UniformDelay(0.1, seed=3) used to construct and fail at its draw,
    # and coordinates took no single number as its levels and checked none.
    # BoundInputs is a tuple, so an etcsim object is excluded by its module, not its type
    etcsim_errors = (ConfigurationError, DecodeError, DivergenceError, PreconditionError)
    failures, cases = [], 0
    for fn, valid, use in _library_calls():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = fn(**valid)  # the valid call runs
            if use is not None:
                use(result)
        for name, default in valid.items():
            if (not isinstance(default, (int, float, tuple))  # bool defaults are ints: probed
                    or type(default).__module__.startswith("etcsim.")):
                continue
            numbers = [] if isinstance(default, tuple) else _NON_NUMBERS
            sequences = []
            if isinstance(default, tuple) or name in ("x0", "xhat0"):
                items = default if isinstance(default, tuple) else (default,)
                sequences = [*_NON_SEQUENCES, (v for v in items)]
            for value in _LIBRARY_VALUES + numbers + sequences:
                cases += 1
                case, stage = (fn.__qualname__, name, bnd._shown(value, repr)), "call"
                try:
                    with warnings.catch_warnings():  # adversarial clamping, the grid step
                        warnings.simplefilter("ignore", UserWarning)
                        result = fn(**{**valid, name: value})
                        stage = "use"
                        if use is not None:
                            use(result)
                    automatic_g = fn in (sim.run_vector, bnd.coordinates) and name == "g"
                    if any(value is v for v in numbers) and not (automatic_g and value is None):
                        failures.append((*case, stage, "accepted"))
                except etcsim_errors:
                    pass
                except Exception as exc:
                    failures.append((*case, stage, repr(exc)))
    assert not failures
    # 61 arguments, 13 values each; 50 number arguments, 3 more; and 11 tuple arguments
    # and the 2 initial states, 6 more
    assert cases == 1021


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
