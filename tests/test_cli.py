"""Command-line contract: exit codes, artifacts, determinism, validation."""

import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import agres
from agres import approx, converge, geometry, network, renorm
from agres.cli import (RunConfig, main, validate, _parse_pairs, _parse_range,
                       _read_config_file, _solve, _write_kernel_csv)
from agres.errors import AgresError, ValidationError
from agres.exact import Point, point_decimal_str, point_exact_str


def run_cli(args, tmp_path, sub="out"):
    out = tmp_path / sub
    code = main(list(args) + ["--out", str(out)])
    return code, out


class TestValidate:
    def test_s_out_of_range_message(self):
        cfg = RunConfig(command="solve", lam="1/4", s=1.0)
        assert validate(cfg) == ["s: s must lie in (0, 1), got 1.0; irregular cases s >= 1 "
                                 "are out of scope"]

    def test_relations_guard_arithmetic(self):
        ok = RunConfig(command="relations", lam="1/7", guard=12)
        assert validate(ok) == []
        bad = RunConfig(command="relations", lam="1/7", guard=9)
        assert any("guard" in m for m in validate(bad))

    def test_empty_schedule_range(self):
        cfg = RunConfig(command="converge", target="1/sqrt8", s=0.5, n_range="")
        assert any(m.startswith("n:") for m in validate(cfg))

    def test_valid_configs_produce_no_violations(self):
        assert validate(RunConfig(command="solve", lam="1/4", s=0.5)) == []
        assert validate(RunConfig(command="converge", target="1/sqrt8", s=0.5,
                                  n_range="4..6", pairs="(4,1):(4,2)")) == []

    @pytest.mark.parametrize("fields,message", [
        (dict(command="frobnicate"), "command: unknown command 'frobnicate'"),
        (dict(command="graph"), "lambda: required for graph"),
        (dict(command="hausdorff", lam="1/8"), "lambda2: required for hausdorff"),
        (dict(command="converge", s=0.5, n_range="4..6"), "target: required for converge"),
        (dict(command="converge", s=0.5, target="1/sqrt8"), "n: schedule range required"),
        (dict(command="solve", lam="1/4"), "s: required"),
        (dict(command="resistance", lam="1/4", s=0.5), "pairs: required for resistance"),
        (dict(command="graph", lam="x/y"), "lambda: lambda is not a rational: 'x/y'"),
        (dict(command="converge", target="3/4", s=0.5, n_range="4..6"),
         "target: target must lie in (0, 1/2)"),
        (dict(command="converge", target="abc", s=0.5, n_range="4..6"),
         "target: cannot parse target 'abc'"),
        (dict(command="converge", target="1/sqrt8", s=0.5, n_range="4..x"),
         "n: malformed range '4..x'"),
        (dict(command="graph", lam="1/4", level=-1), "level: level must be nonnegative"),
        (dict(command="graph", lam="1/4", depth=-1), "depth: depth must be nonnegative"),
        (dict(command="graph", lam="1/4", depth=11), "depth: depth 11 exceeds cap 10"),
        (dict(command="resolvent", lam="1/4", s=0.5, measure="counting"),
         "measure: must be hausdorff or uniform, got 'counting'"),
    ])
    def test_violation_messages(self, fields, message, tmp_path, monkeypatch, capsys):
        cfg = RunConfig(**fields)
        assert validate(cfg) == [message]
        # main raises every violation as one ValidationError, exit 2
        monkeypatch.setattr("agres.cli.build_parser", lambda: types.SimpleNamespace(
            parse_args=lambda argv: argparse.Namespace(**vars(cfg))))
        assert main([]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError", "message": message}

    @pytest.mark.parametrize("fields, field, owner", [
        pytest.param(dict(command="graph", lam="3/4"), "lambda",
                     lambda: geometry.make_ifs("3/4"), id="lambda"),
        pytest.param(dict(command="hausdorff", lam="1/8", lam2="1/2"), "lambda2",
                     lambda: geometry.check_lambda("1/2", "lambda2"), id="lambda2"),
        pytest.param(dict(command="boundary", lam="1/4", mode="bogus"), "mode",
                     lambda: geometry.boundary_set(geometry.make_ifs("1/4"), "bogus"), id="mode"),
        pytest.param(dict(command="converge", target="3/4", s=0.5, n_range="4..6"), "target",
                     lambda: converge.dyadic_schedule("3/4", range(4, 7)), id="target"),
        pytest.param(dict(command="converge", target="1/sqrt8", s=0.5, n_range=""), "n",
                     lambda: converge.dyadic_schedule("1/sqrt8", []), id="n-empty"),
        pytest.param(dict(command="converge", target="1/sqrt8", s=0.5, n_range="-1..2"), "n",
                     lambda: converge.dyadic_schedule("1/sqrt8", range(-1, 3)), id="n-negative"),
        pytest.param(dict(command="converge", target="1/100", s=0.5, n_range="1..3"), "n",
                     lambda: converge.dyadic_schedule("1/100", range(1, 4)), id="n-rounding"),
        pytest.param(dict(command="solve", lam="1/4", s=1.0), "s",
                     lambda: renorm.solve_r(geometry.make_ifs("1/4"), 1.0), id="s"),
        pytest.param(dict(command="relations", lam="1/7", guard=9), "guard",
                     lambda: renorm.enumerate_preserved_relations(geometry.make_ifs("1/7"),
                                                                  guard=9), id="guard-size"),
        pytest.param(dict(command="relations", lam="1/7", guard=25), "guard",
                     lambda: renorm.enumerate_preserved_relations(geometry.make_ifs("1/7"),
                                                                  guard=25), id="guard-cap"),
        pytest.param(dict(command="graph", lam="1/4", level=-1), "level",
                     lambda: geometry.approximation_graph(geometry.make_ifs("1/4"), -1),
                     id="level-negative"),
        pytest.param(dict(command="graph", lam="1/4", level=11), "level",
                     lambda: geometry.approximation_graph(geometry.make_ifs("1/4"), 11),
                     id="level-graph-cap"),
        pytest.param(dict(command="resolvent", lam="1/4", s=0.5, level=9), "level",
                     lambda: approx.level_form(_solve(RunConfig(command="solve", s=0.5), "1/4"),
                                               9), id="level-form-cap"),
        pytest.param(dict(command="converge", target="1/sqrt8", s=0.5, n_range="4..6", level=9),
                     "level", lambda: converge.convergence_report("1/sqrt8", 0.5, [4], [], m=9),
                     id="level-report-cap"),
        pytest.param(dict(command="boundary", lam="1/4", mode="oracle", depth=-1), "depth",
                     lambda: geometry.boundary_set(geometry.make_ifs("1/4"), "oracle", depth=-1),
                     id="depth-oracle-negative"),
        pytest.param(dict(command="boundary", lam="1/4", mode="oracle", depth=11), "depth",
                     lambda: geometry.boundary_set(geometry.make_ifs("1/4"), "oracle", depth=11),
                     id="depth-oracle-cap"),
        pytest.param(dict(command="hausdorff", lam="1/8", lam2="3/8", depth=11), "depth",
                     lambda: geometry.hausdorff_distance(geometry.make_ifs("1/8"),
                                                         geometry.make_ifs("3/8"), 11),
                     id="depth-hausdorff-cap"),
        pytest.param(dict(command="resolvent", lam="1/4", s=0.5, alpha=float("nan")), "alpha",
                     lambda: network.resolvent(network.triangle_form(), [1 / 3] * 3, float("nan")),
                     id="alpha"),
    ])
    def test_validate_reports_the_owners_message(self, fields, field, owner):
        """A rule that both validate and the library enforce reads "field: <message>",
        the message being the one the library's own call raises on the same value."""
        with pytest.raises(AgresError) as info:
            owner()
        assert validate(RunConfig(**fields)) == [f"{field}: {info.value}"]

    @pytest.mark.parametrize("text,values", [
        ("\n   \n# a comment only\n", {}),
        ("colour = blue\ncommand = solve\n", pytest.raises(ValidationError, match="'colour'")),
        ("grid = yes\n", {"grid": True}),
        ("grid = TRUE\n", {"grid": True}),
        ("grid = 0\n", {"grid": False}),
        ("command = solve\n", {}),  # the command line is skipped
        ("grid = No\n", {"grid": False}),
        ("grid = FALSE\n", {"grid": False}),
        ("grid = ture\n", pytest.raises(ValidationError, match="'ture' is not a bool")),
        ("grid = 2\n", pytest.raises(ValidationError, match="'2' is not a bool")),
        ("grid =\n", pytest.raises(ValidationError, match="'' is not a bool")),
    ])
    def test_config_file_lines(self, text, values, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        if isinstance(values, dict):
            assert _read_config_file(str(cfgfile)) == values
        else:
            with values:
                _read_config_file(str(cfgfile))

    def test_config_file_bool_reaches_the_manifest(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("\nlambda = 1/4\nlevel = 0\nshade = 3\ngrid = yes\n")
        assert run_cli(["graph", "--config", str(cfgfile)], tmp_path)[0] == 2  # no flag shade
        cfgfile.write_text("\nlambda = 1/4\nlevel = 0\ngrid = yes\n")
        code, out = run_cli(["graph", "--config", str(cfgfile)], tmp_path)
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["lam"], config["level"], config["grid"]) == ("1/4", 0, True)

    @pytest.mark.parametrize("line, named", [("levle = 5", "'levle'"), ("grid = ture", "'ture'")])
    def test_config_file_line_it_cannot_read_exits_2(self, line, named, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"lambda = 1/4\nlevel = 0\n{line}\n")
        code, out = run_cli(["graph", "--config", str(cfgfile)], tmp_path)
        assert code == 2
        assert not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "ValidationError" and named in err["message"]

    def test_config_file_mode_is_checked_before_the_manifest(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda = 1/4\nmode = bogus\n")
        code, out = run_cli(["boundary", "--config", str(cfgfile)], tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError",
                       "message": "mode: mode must be 'fast' or 'oracle', got 'bogus'"}

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: agres")

    def test_pair_parsing(self):
        pairs = _parse_pairs("(4,1):(4,2);(,1):(,2)")
        assert pairs == [(((4,), 1), ((4,), 2)), (((), 1), ((), 2))]
        assert _parse_range("4..7") == [4, 5, 6, 7]
        assert _parse_range("3,5,9") == [3, 5, 9]

    @pytest.mark.parametrize("text,message", [
        ("(4,1)", "must be '\\(w,i\\):\\(w,i\\)'"),
        ("4,1:(4,2)", "must be parenthesized"),
        ("(4,x):(4,2)", "bad address"),
        (" ; ", "no pairs given"),
    ])
    def test_malformed_pairs(self, text, message, tmp_path, capsys):
        with pytest.raises(ValidationError, match=message):
            _parse_pairs(text)
        code, _ = run_cli(["resistance", "--lambda", "1/4", "--s", "0.5", "--pairs", text],
                          tmp_path)
        assert code == 2
        assert "pairs:" in capsys.readouterr().err


class TestCommands:
    def test_solve_writes_solution(self, tmp_path):
        code, out = run_cli(["solve", "--lambda", "1/4", "--s", "0.5"], tmp_path)
        assert code == 0
        obj = json.loads((out / "solution.json").read_text())
        assert set(obj) >= {"lambda", "s", "r", "C", "theta", "residual"}
        assert obj["lambda"] == "1/4" and 0.6 <= obj["r"] < 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["command"] == "solve"
        assert manifest["config"]["eigen_tol"] == 1e-12  # defaults echoed

    def test_solve_validation_exit_2(self, tmp_path, capsys):
        code, _ = run_cli(["solve", "--lambda", "3/4", "--s", "0.5"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "ValidationError"

    def test_boundary_fast_and_oracle(self, tmp_path):
        code, out = run_cli(["boundary", "--lambda", "1/8"], tmp_path)
        assert code == 0
        obj = json.loads((out / "boundary.json").read_text())
        assert obj["size"] == 9
        labels = [p["label"]["kind"] for p in obj["points"]]
        assert labels.count("corner") == 3
        code2, out2 = run_cli(["boundary", "--lambda", "1/8", "--mode", "oracle",
                               "--depth", "4"], tmp_path, "out2")
        assert code2 == 0
        obj2 = json.loads((out2 / "boundary.json").read_text())
        assert obj2["points"] == obj["points"]

    def test_boundary_oracle_at_default_depth(self, tmp_path):
        code, out = run_cli(["boundary", "--lambda", "1/7", "--mode", "oracle"], tmp_path)
        assert code == 0
        code2, out2 = run_cli(["boundary", "--lambda", "1/7", "--mode", "fast"], tmp_path, "out2")
        assert code2 == 0
        oracle = json.loads((out / "manifest.json").read_text())["config"]
        assert oracle["mode"] == "oracle" and oracle["depth"] == 8
        assert (out / "boundary.json").read_text() == (out2 / "boundary.json").read_text()

    def test_graph_edge_list(self, tmp_path):
        code, out = run_cli(["graph", "--lambda", "1/4", "--level", "1"], tmp_path)
        assert code == 0
        lines = (out / "edges.csv").read_text().strip().splitlines()
        assert lines[0] == "vertex_id_1,vertex_id_2"
        assert len(lines) == 1 + 21
        vlines = (out / "vertices.csv").read_text().strip().splitlines()
        assert len(vlines) == 1 + 9
        assert "sqrt3" in vlines[1]

    def test_resistance_table(self, tmp_path):
        code, out = run_cli(["resistance", "--lambda", "1/4", "--s", "0.5",
                             "--level", "2", "--pairs", "(,1):(,2);(4,1):(4,2)"],
                            tmp_path)
        assert code == 0
        lines = (out / "resistance.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        first = float(lines[1].split(",")[-1])
        assert first == pytest.approx(2 / 3, abs=1e-8)

    def test_resolvent_outputs(self, tmp_path):
        code, out = run_cli(["resolvent", "--lambda", "1/4", "--s", "0.5",
                             "--level", "1", "--alpha", "2.0"], tmp_path)
        assert code == 0
        obj = json.loads((out / "resolvent.json").read_text())
        assert obj["row_mass_error"] <= 1e-10 and obj["symmetry_error"] <= 1e-12
        assert obj["measure"]["scheme"] == "hausdorff"
        lines = (out / "resolvent.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 9 * 9

    def test_relations_report(self, tmp_path):
        code, out = run_cli(["relations", "--lambda", "1/4"], tmp_path)
        assert code == 0
        obj = json.loads((out / "relations.json").read_text())
        assert obj["count"] == 2 and obj["all_trivial"]

    def test_relation_depth_above_the_level_cap_is_a_validation_error(self, tmp_path, capsys,
                                                                      monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("an enumeration started before validation")

        monkeypatch.setattr("agres.renorm.enumerate_preserved_relations", no_enumeration)
        code, _ = run_cli(["relations", "--lambda", "1/7", "--relation-depth", "9"], tmp_path)
        assert code == 2
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "ValidationError"
        assert "relation_depth" in obj["error"]["message"]

    @pytest.mark.parametrize("lam, guard, message", [
        ("181/512", "27", "guard: guard 27 exceeds cap 24"),
        ("1/7", "25", "guard: guard 25 exceeds cap 24"),
        ("181/512", "24", "guard: boundary set has 27 points, guard is 24"),
    ])
    def test_guard_above_its_cap_or_below_the_boundary_set_is_a_validation_error(
            self, tmp_path, capsys, monkeypatch, lam, guard, message):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("an enumeration started before validation")

        monkeypatch.setattr("agres.renorm.enumerate_preserved_relations", no_enumeration)
        monkeypatch.setattr("agres.renorm._invariant_partitions", no_enumeration)
        code, out = run_cli(["relations", "--lambda", lam, "--guard", guard], tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError", "message": message}

    def test_an_orbit_beyond_its_guard_is_a_validation_error(self, tmp_path, capsys):
        code, out = run_cli(["relations", "--lambda", "1/131"], tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError",
                       "message": "lambda: doubling orbit of 2/131 exceeds 64 states"}

    def test_converge_report(self, tmp_path):
        code, out = run_cli(["converge", "--target", "1/sqrt8", "--s", "0.5",
                             "--n", "4..6", "--pairs", "(4,1):(4,2)",
                             "--level", "2"], tmp_path)
        assert code == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        obj = json.loads((out / "report.json").read_text())
        assert obj["rows"][0]["lambda"] == "3/8"

    def test_hausdorff_check(self, tmp_path):
        code, out = run_cli(["hausdorff", "--lambda", "1/8", "--lambda2", "3/8",
                             "--depth", "8"], tmp_path)
        assert code == 0
        obj = json.loads((out / "hausdorff.json").read_text())
        assert obj["pass"] and obj["bound"] == pytest.approx(0.5)

    def test_determinism_byte_identical(self, tmp_path):
        _, out1 = run_cli(["solve", "--lambda", "5/16", "--s", "0.8"], tmp_path, "a")
        _, out2 = run_cli(["solve", "--lambda", "5/16", "--s", "0.8"], tmp_path, "b")
        assert (out1 / "solution.json").read_bytes() == (out2 / "solution.json").read_bytes()
        assert (out1 / "manifest.json").read_text().replace('"out": "' + str(out1) + '"',
                                                            "") == \
               (out2 / "manifest.json").read_text().replace('"out": "' + str(out2) + '"',
                                                            "")

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda = 1/4\ns = 0.5\nlevel = 2  # comment\n")
        out = tmp_path / "cfg_out"
        code = main(["solve", "--config", str(cfgfile), "--s", "0.8",
                     "--out", str(out)])
        assert code == 0
        obj = json.loads((out / "solution.json").read_text())
        assert obj["s"] == 0.8  # flag wins over the file
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lam"] == "1/4"

    @pytest.mark.parametrize("line,message", [("lambda 1/4", "is not 'key = value'"),
                                              ("level = two", "invalid literal")])
    def test_malformed_config_line(self, line, message, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"s = 0.5\n{line}\n")
        code = main(["graph", "--lambda", "1/4", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "ValidationError" and message in err["message"]
        assert repr(line) in err["message"]

    def test_flag_at_its_default_beats_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lambda = 1/4\nlevel = 2\ns = 0.5\n")
        out = tmp_path / "cfg_out"
        code = main(["graph", "--config", str(cfgfile), "--level", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["level"] == 3  # 3 is also the default level
        assert manifest["config"]["s"] == 0.5    # typed like the --s flag
        assert "threads" not in manifest["config"]
        vlines = (out / "vertices.csv").read_text().strip().splitlines()
        assert len(vlines) == 1 + 114  # level 3 at lambda = 1/4; level 2 has 30

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "agres.cli", "solve", "--lambda", "1/2",
             "--s", "0.5", "--out", str(tmp_path / "x")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]

    def test_out_naming_a_file_is_a_validation_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["solve", "--lambda", "1/4", "--s", "0.5", "--out", str(taken)])
        assert code == 2
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "FileExistsError"

    def test_negative_schedule_scale_is_validation_error(self, tmp_path, capsys):
        code, out = run_cli(["converge", "--target", "1/sqrt8", "--s", "0.5", "--n=-3..-3"],
                            tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"] == {"type": "ValidationError",
                                "message": "n: schedule scale n must be nonnegative, got -3"}

    @pytest.mark.parametrize("args, message", [
        (["--target", "1/100", "--n", "1..3"], "n: rounding at n=1 leaves (0, 1/2): 0"),
        (["--target", "1/sqrt8", "--n=-1..2"], "n: schedule scale n must be nonnegative, got -1"),
    ])
    def test_schedule_rules_are_checked_before_the_manifest(self, tmp_path, capsys, monkeypatch,
                                                            args, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before validation")

        monkeypatch.setattr("agres.converge.solve_r", no_solve)
        code, out = run_cli(["converge", "--s", "0.5", "--level", "1"] + args, tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError", "message": message}

    def test_fine_schedule_scale_fails_promptly(self, tmp_path):
        # lambda_100 has a doubling orbit past the guard; run in a child process so a
        # slow rounding times out instead of hanging the suite
        env = {**os.environ, "PYTHONPATH": str(Path(agres.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "agres.cli", "converge", "--target", "1/sqrt8",
             "--s", "0.5", "--n", "100..100", "--level", "2", "--out", str(tmp_path / "c")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert json.loads(proc.stderr.strip().splitlines()[-1])["error"]["type"] == \
            "OrbitOverflow"

    def test_estimates_report(self, tmp_path):
        code, out = run_cli(["estimates", "--lambda", "1/4", "--s", "0.5"], tmp_path)
        assert code == 0
        obj = json.loads((out / "estimates.json").read_text())
        assert all(row["pass"] for row in obj["bottom_edge_resistance"])
        fit = obj["exponent_fit"]
        assert abs(fit["theta_fit"] - fit["theta"]) <= 0.15
        assert fit["spread"] <= 50
        assert obj["global_envelope"]["c1"] <= obj["global_envelope"]["c2"]

    def test_estimates_grid_scans_each_lambda_once(self, tmp_path):
        code, out = run_cli(["estimates", "--lambda", "1/4", "--s", "0.5", "--grid"], tmp_path)
        assert code == 0
        scan = json.loads((out / "estimates.json").read_text())["uniform_bound_scan"]
        lams = list(dict.fromkeys(row["lambda"] for row in scan["rows"]))
        assert lams == ["1/8", "1/4", "3/8", "3/16", "5/16", "5/32", "7/32", "9/32", "11/32"]
        assert [(row["lambda"], row["s"]) for row in scan["rows"]] == \
            [(lam, s) for lam in lams for s in (0.2, 0.5, 0.8, 0.95)]
        assert scan["max_r"] == max(row["r"] for row in scan["rows"]) < 1.0

    def test_estimates_builds_each_level_once(self, tmp_path, monkeypatch):
        built = []
        level_form = agres.approx.level_form

        def counted(sol, m):
            built.append(m)
            return level_form(sol, m)

        monkeypatch.setattr(agres.approx, "level_form", counted)
        code, _ = run_cli(["estimates", "--lambda", "1/4", "--s", "0.5"], tmp_path)
        assert code == 0
        assert sorted(built) == [4, 5, 6]

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        code, _ = run_cli(["solve", "--lambda", "1/4", "--s", "0.5",
                           "--max-iters", "1"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        obj = json.loads(err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "NoConvergence"

    @pytest.mark.parametrize("args", [
        ["resistance", "--lambda", "1/4", "--s", "0.5", "--level", "2",
         "--pairs", "(,1):(,2)"],
        ["converge", "--target", "1/sqrt8", "--s", "0.5", "--n", "4..4", "--level", "2"],
    ])
    def test_max_iters_reaches_every_solve(self, tmp_path, capsys, args):
        code, _ = run_cli(args + ["--max-iters", "1"], tmp_path)
        assert code == 3
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "NoConvergence"

    @pytest.mark.parametrize("flag, value", [
        ("--max-iters", "0"), ("--eigen-tol", "-1"), ("--eigen-tol", "nan"),
        ("--bisect-tol", "-1"), ("--bisect-tol", "inf"), ("--relation-depth", "0"),
        ("--alpha", "nan"), ("--alpha", "inf"),
    ])
    def test_nonpositive_solver_settings_are_validation_errors(self, tmp_path, capsys,
                                                              monkeypatch, flag, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before validation")

        monkeypatch.setattr("agres.renorm.solve_r", no_solve)
        code, _ = run_cli(["solve", "--lambda", "1/4", "--s", "0.5", flag, value], tmp_path)
        assert code == 2
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "ValidationError"
        assert flag[2:].replace("-", "_") in obj["error"]["message"]

    @pytest.mark.parametrize("command, level, pairs, message", [
        ("resistance", "2", "(5,1):(,2)", "pairs: bad letter in word (5, 1)"),
        ("resistance", "2", "(111,1):(,2)", "pairs: word longer than level 2"),
        ("resistance", "2", "(1,4):(,2)", "pairs: corner index must be 1, 2 or 3"),
        ("converge", "2", "(4,1):(5,2)", "pairs: bad letter in word (5, 2)"),
        ("converge", "2", "(,1):(414,2)", "pairs: word longer than level 2"),
        ("resistance", "9", "(,1):(,2)", "level: level 9 exceeds cap 8"),
        ("resolvent", "9", None, "level: level 9 exceeds cap 8"),
        ("converge", "9", None, "level: level 9 exceeds cap 8"),
        ("graph", "11", None, "level: level 11 exceeds cap 10"),
    ])
    def test_addresses_and_level_cap_are_validation_errors(self, tmp_path, capsys, monkeypatch,
                                                           command, level, pairs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        args = [command, "--s", "0.5", "--level", level]
        args += (["--target", "1/sqrt8", "--n", "4..5"] if command == "converge"
                 else ["--lambda", "1/4"])
        args += ["--pairs", pairs] if pairs else []
        monkeypatch.setattr("agres.renorm.solve_r", no_work)
        monkeypatch.setattr("agres.converge.solve_r", no_work)
        monkeypatch.setattr("agres.geometry.LevelGeometry.__init__", no_work)
        code, out = run_cli(args, tmp_path)
        assert code == 2 and not (out / "manifest.json").exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err == {"type": "ValidationError", "message": message}


def oracle_resolvent_csv(points, matrix) -> bytes:
    """resolvent.csv as the plain one-entry-at-a-time writer formats it: the slow
    oracle of the command's row writer."""
    fh = io.StringIO()
    fh.write("x_id,y_id,x,y,x_exact,y_exact,u\n")
    for i, p in enumerate(points):
        dx, dy = point_decimal_str(p)
        ex, ey = point_exact_str(p)
        fh.writelines(f'{i},{j},{dx},{dy},"{ex}","{ey}",{u:.17g}\n'
                      for j, u in enumerate(matrix[i].tolist()))
    return fh.getvalue().encode()


class TestResolventWriter:
    """resolvent.csv is byte-equal to the oracle writer; the kernel it writes is
    bitwise symmetric, and a resolvent that misses its row masses is refused."""

    @pytest.mark.parametrize("lam, level, extra", [
        ("1/8", 4, []),
        ("3/8", 4, []),
        ("1/4", 2, ["--measure", "uniform", "--alpha", "2"]),
        ("1/4", 0, []),
    ])
    def test_csv_bytes_equal_the_oracle(self, tmp_path, lam, level, extra):
        args = ["resolvent", "--lambda", lam, "--s", "0.5", "--level", str(level)] + extra
        code, out = run_cli(args, tmp_path)
        assert code == 0
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        alpha = cfg["alpha"] if cfg["alpha"] is not None else 1.0
        sol = _solve(RunConfig(command="resolvent", lam=lam, s=0.5), lam)
        lf = approx.level_form(sol, level)
        kernel = approx.resolvent_kernel(lf, alpha, approx.measure_weights(sol.ifs, cfg["measure"]))
        assert np.array_equal(kernel.matrix, kernel.matrix.T)
        assert (out / "resolvent.csv").read_bytes() == oracle_resolvent_csv(lf.points, kernel.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 65])
    def test_csv_bytes_equal_the_oracle_at_any_size(self, tmp_path, n):
        """The writer formats blocks of 4096 // n whole rows: one block for 1, 2 and
        3 points, and for 65 blocks of 63 rows, the last one of 2."""
        points = [Point(Fraction(i, 7), Fraction(1, 3)) for i in range(n)]
        matrix = np.random.default_rng(n).uniform(0.5, 2.0, (n, n))
        matrix = matrix + matrix.T
        _write_kernel_csv(tmp_path / "k.csv", points, matrix)
        assert (tmp_path / "k.csv").read_bytes() == oracle_resolvent_csv(points, matrix)

    def test_csv_bytes_equal_the_oracle_on_extreme_values(self, tmp_path):
        sol = _solve(RunConfig(command="resolvent", lam="1/4", s=0.5), "1/4")
        points = approx.level_form(sol, 1).points
        n = len(points)
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
        matrix.flat[:8] = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1 / 3, 1e16,
                           float("inf"), float("nan")]
        upper = np.triu_indices(n, 1)
        matrix.T[upper] = matrix[upper]
        _write_kernel_csv(tmp_path / "k.csv", points, matrix)
        assert (tmp_path / "k.csv").read_bytes() == oracle_resolvent_csv(points, matrix)

    @pytest.mark.parametrize("bits", [
        (0x3FF0000000000000, 0x3FF0000000000001),   # 1.0 and the next float up
        (0x0000000000000000, 0x8000000000000000),   # +0.0 and -0.0
        (0x7FF8000000000000, 0x7FF8000000000001),   # two NaN payloads
    ])
    def test_asymmetric_kernel_exits_3_and_writes_no_csv(self, tmp_path, capsys,
                                                          monkeypatch, bits):
        resolvent_kernel = approx.resolvent_kernel

        def skewed(*args):
            kernel = resolvent_kernel(*args)
            kernel.matrix.view(np.uint64)[[0, 1], [1, 0]] = bits
            return kernel
        monkeypatch.setattr(approx, "resolvent_kernel", skewed)
        code, out = run_cli(["resolvent", "--lambda", "1/4", "--s", "0.5", "--level", "1"],
                            tmp_path)
        assert code == 3
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"] == {"type": "NumericalError",
                                "message": "resolvent kernel is not bitwise symmetric"}
        assert not (out / "resolvent.csv").exists()

    @pytest.mark.parametrize("level, n", [(3, 126), (4, 498)])
    def test_block_writer_peak_is_bounded_per_block(self, tmp_path, level, n):
        """The writer holds the texts of one block of about 4,096 entries at a time:
        its traced peak, about 1.38 MB at both n (some 340 bytes per text of a
        block), stays under one bound of 448 bytes per text of a block of 4,096.
        Holding every text would take about 15 MB at n = 498."""
        sol = _solve(RunConfig(command="resolvent", lam="1/8", s=0.5), "1/8")
        lf = approx.level_form(sol, level)
        kernel = approx.resolvent_kernel(lf, 1.0, approx.measure_weights(sol.ifs, "hausdorff"))
        assert len(lf.points) == n
        tracemalloc.start()
        try:
            _write_kernel_csv(tmp_path / "k.csv", lf.points, kernel.matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 448, peak

    @pytest.mark.parametrize("alpha", ["1e-20", "1e-300"])
    def test_singular_shift_exits_3(self, tmp_path, capsys, alpha):
        code, out = run_cli(["resolvent", "--lambda", "1/4", "--s", "0.5", "--level", "1",
                             "--alpha", alpha], tmp_path)
        assert code == 3
        obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert obj["error"]["type"] == "SingularInterior"
        assert not (out / "resolvent.csv").exists()


class TestScipyLoading:
    """scipy is loaded only where a matrix is factored, checked in fresh interpreters."""

    @staticmethod
    def loaded(code: str, tmp_path) -> dict:
        """Run ``code`` in a fresh interpreter, with ``out`` bound to tmp_path, and
        return which of four scipy modules it left loaded."""
        env = {**os.environ, "PYTHONPATH": str(Path(agres.__file__).parents[1])}
        script = ("import json, sys\n"
                  f"out = {str(tmp_path)!r}\n" + code +
                  "\nprint(json.dumps({m: m in sys.modules for m in ("
                  "'scipy', 'scipy.linalg', 'scipy.sparse', 'scipy.spatial')}))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_contact_commands_load_no_scipy(self, tmp_path):
        flags = self.loaded(
            "import agres, agres.cli\n"
            "from agres import cli\n"
            "for args in (['boundary', '--lambda', '1/7', '--mode', 'oracle'],\n"
            "             ['graph', '--lambda', '1/7', '--level', '3'],\n"
            "             ['relations', '--lambda', '1/7']):\n"
            "    assert cli.main(args + ['--out', out + '/' + args[0]]) == 0\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
            tmp_path)
        assert not any(flags.values())
        assert {p.name for p in tmp_path.iterdir()} == {"boundary", "graph", "relations"}

    def test_dense_solve_loads_linalg_only(self, tmp_path):
        flags = self.loaded(
            "from agres import cli\n"
            "assert cli.main(['solve', '--lambda', '1/7', '--s', '0.5', '--out', out]) == 0",
            tmp_path)
        assert flags["scipy.linalg"] and not flags["scipy.sparse"]
        assert (tmp_path / "solution.json").exists()

    def test_sparse_branch_loads_sparse_on_first_use(self, tmp_path):
        flags = self.loaded(
            "import numpy as np\n"
            "from agres import network\n"
            "rng = np.random.default_rng(5)\n"
            "pairs = [(i, i + 1) for i in range(11)] + [(0, 6), (2, 9), (4, 11), (1, 7)]\n"
            "form = network.FiniteForm(range(12), {p: float(rng.uniform(0.5, 2)) for p in pairs})\n"
            "targets = (5, 11, {7, 8, 9})\n"
            "dense = [network.effective_resistance(form, 1, t) for t in targets]\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "network.DENSE_LIMIT = 0\n"
            "sparse = [network.effective_resistance(form, 1, t) for t in targets]\n"
            "assert np.allclose(sparse, dense, rtol=1e-12, atol=0), (sparse, dense)\n"
            "tri = network.triangle_form(1.0)\n"
            "assert abs(network.effective_resistance(tri, 0, 1) - 2 / 3) < 1e-15",
            tmp_path)
        assert flags["scipy.sparse"] and flags["scipy.linalg"] and not flags["scipy.spatial"]


@pytest.mark.parametrize("variable, threads", [(None, 1), ("2", 2)])
def test_solve_runs_scipy_blas_on_one_thread(tmp_path, variable, threads):
    """After a solve, scipy's and numpy's OpenBLAS pools report one thread; an
    explicit OPENBLAS_NUM_THREADS is left in charge.  Checked in fresh interpreters,
    where each of numpy and scipy whose build names OpenBLAS must yield a pool."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(agres.__file__).parents[1])
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    script = ("import json, sys\n"
              "import numpy, scipy\n"
              "from agres import cli, network\n"
              "assert cli.main(['solve', '--lambda', '1/7', '--s', '0.5', '--out', sys.argv[1]]) == 0\n"
              "builds = [m.show_config(mode='dicts')['Build Dependencies']['blas']['name']\n"
              "          for m in (numpy, scipy)]\n"
              "print(json.dumps({'openblas': sum('openblas' in b for b in builds),\n"
              "                  'threads': [get() for get, _ in network._openblas_threads()]}))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reported = json.loads(proc.stdout.strip().splitlines()[-1])
    if not reported["threads"]:
        pytest.skip("neither numpy nor scipy is linked against a findable OpenBLAS")
    assert reported["threads"] == [threads] * reported["openblas"]
