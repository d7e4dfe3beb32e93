import argparse
import csv
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditcolor import cli
from quditcolor.cli import (ConfigError, build_parser, config_to_hp,
                            load_config, main, read_config_file)
from quditcolor.gradient import check_gradient
from quditcolor.graph import parse_fix, select_fixed_node
from quditcolor.harness import hp_to_dict
from quditcolor.solver import (ConstantAlpha, ExponentialAlpha,
                               Hyperparameters, parse_alpha)

from instances import (dies_in_worker, myciel_col_text, queen_col_text,
                       raises_in_worker)


@pytest.fixture(scope="module")
def queen55_col(tmp_path_factory):
    p = tmp_path_factory.mktemp("instances") / "queen5-5.col"
    p.write_text(queen_col_text(5, 5))
    return p


@pytest.fixture(scope="module")
def myciel5_col(tmp_path_factory):
    p = tmp_path_factory.mktemp("instances") / "myciel5.col"
    p.write_text(myciel_col_text(5))
    return p


def solve_args(graph, *extra):
    return ["solve", "--graph", str(graph), "--quiet", *extra]


def test_parse_fix():
    assert parse_fix("max_degree") == "max_degree"
    assert parse_fix("none") is None
    assert parse_fix("12") == 12
    with pytest.raises(ValueError):
        parse_fix("center")


@pytest.mark.parametrize("fix", ["center", -1])
def test_malformed_fix_strategy_raises_at_construction(queen55_col, capsys, fix):
    # the form of a strategy needs no graph: the API raises when the
    # settings are built, and every command ends in the same error line
    message = ("fix must be max_degree, degree_one, none, or a node index, "
               f"got {fix!r}")
    with pytest.raises(ValueError) as caught:
        Hyperparameters(method="qdlqa", num_colors=3, fix_strategy=fix)
    assert str(caught.value) == message
    for command in (["solve", "--quiet"], ["sweep"], ["gradcheck"]):
        code = main([*command, "--graph", str(queen55_col), "--colors", "5",
                     "--fix", str(fix)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [None, "solve", "sweep", "gradcheck", "info"])
def test_help_lists_every_flag(capsys, command):
    # argparse formats a help text only when asked for it, so a bad
    # %(default)s or a stray % in one would surface here, not in a run
    with pytest.raises(SystemExit) as caught:
        main(["--help"] if command is None else [command, "--help"])
    assert caught.value.code == 0
    text = capsys.readouterr().out
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    if command is None:
        assert all(name in text for name in commands)
    else:
        parser = commands[command]
    flags = [flag for action in parser._actions for flag in action.option_strings]
    assert flags and all(flag in text for flag in flags)


_SETTING_FLAGS = ["--method", "--colors", "--steps", "--gamma", "--alpha",
                  "--eta", "--f", "--f-tilde", "--h", "--runs", "--patience",
                  "--fix", "--seed", "--workers", "--include-t-end", "--config",
                  "--out", "--trajectories", "--coloring", "--quiet"]


def test_cli_surface_is_pinned(queen55_col, tmp_path, capsys):
    # the flags in --help order, the config block's keys and argparse's
    # exit code for a bad choice are what scripts and config files rely on
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    instance = ["-h", "--help", "--graph", "--format"]
    assert {name: [flag for action in commands[name]._actions
                   for flag in action.option_strings]
            for name in ("solve", "sweep", "gradcheck")} == {
        "solve": instance + _SETTING_FLAGS,
        "sweep": instance + _SETTING_FLAGS + ["--force-full"],
        "gradcheck": instance + ["--colors", "--points", "--step", "--tol",
                                 "--gamma", "--h", "--fix", "--t", "--seed"],
    }
    out = tmp_path / "pin.json"
    assert main(solve_args(queen55_col, "--colors", "5", "--runs", "1",
                           "--steps", "5", "--out", str(out))) == 0
    assert list(json.loads(out.read_text())["config"]) == [
        "method", "colors", "steps", "gamma", "alpha", "eta", "f", "f_tilde",
        "h", "runs", "patience", "fix", "seed", "include_t_end",
        "graph_file", "format", "workers"]
    with pytest.raises(SystemExit) as caught:
        main(solve_args(queen55_col, "--colors", "5", "--method", "foo"))
    assert caught.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_gradcheck_defaults_are_the_settings_defaults():
    args = build_parser().parse_args(["gradcheck", "--colors", "3"])
    defaults = {f.name: f.default for f in fields(Hyperparameters)}
    assert (args.gamma, args.h, args.fix) == \
        (defaults["gamma"], defaults["h"], defaults["fix_strategy"])


def test_info_command(myciel5_col, capsys):
    assert main(["info", "--graph", str(myciel5_col)]) == 0
    out = capsys.readouterr().out
    assert "47 nodes, 236 edges" in out


def test_solve_writes_self_describing_json(queen55_col, tmp_path):
    out = tmp_path / "stats.json"
    code = main(solve_args(queen55_col, "--colors", "5", "--method", "qdlqa",
                           "--runs", "4", "--seed", "7", "--out", str(out)))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best_energy"] == 0
    assert payload["graph"] == {"nodes": 25, "edges": 160}
    assert payload["config"]["seed"] == 7
    assert payload["config"]["method"] == "qdlqa"
    assert payload["config"]["graph_file"] == str(queen55_col)
    assert len(payload["per_run"]) == 4
    assert {"seed", "best", "steps", "wall_ms", "diverged"} <= set(payload["per_run"][0])
    assert not any(run["diverged"] for run in payload["per_run"])


def test_solve_rejects_too_few_colors(queen55_col, capsys):
    code = main(solve_args(queen55_col, "--colors", "1"))
    assert code == 1
    assert "colors must be >= 2" in capsys.readouterr().err


def test_solve_requires_colors(queen55_col, capsys):
    assert main(solve_args(queen55_col)) == 1
    assert "colors" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--colors", "5"],
                                     ["sweep", "--colors", "5"],
                                     ["gradcheck", "--colors", "5"], ["info"]],
                         ids=["solve", "sweep", "gradcheck", "info"])
def test_missing_graph_is_config_error(capsys, command):
    assert main(command) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", "error: an input graph is required (--graph)\n")


def test_missing_file_is_io_error():
    code = main(["info", "--graph", "/nonexistent/foo.col"])
    assert code == 2


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    assert main(["info", "--graph", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("name,data,line", [
    ("big.txt", b"0 99999999999999999999\n1 2\n",
     "line 1: node id 99999999999999999999 is larger than 9223372036854775807"),
    ("bad.txt", b"0 1\n1 2\xff\n", "line 2: byte 0xff is not UTF-8"),
    ("bad.col", b"p edge 2 1\ne 1 2\xff\n", "line 2: byte 0xff is not UTF-8"),
])
def test_unreadable_instance_is_one_parse_error_line(tmp_path, capsys, name, data, line):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["info", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {line}\n"


def test_config_file_and_flag_precedence(queen55_col, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this instance\n"
                   "colors = 5\n"
                   "eta = 0.1\n"
                   "runs = 2\n"
                   "seed = 3\n")
    out = tmp_path / "a.json"
    code = main(solve_args(queen55_col, "--config", str(cfg),
                           "--eta", "0.5", "--out", str(out)))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["eta"] == 0.5  # flag wins over file
    assert payload["config"]["runs"] == 2
    assert payload["config"]["seed"] == 3


def test_config_file_alpha_schedule(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = exp:2:7\n")
    assert read_config_file(cfg) == {"alpha": "exp:2:7"}
    assert parse_alpha("exp:2:7") == ExponentialAlpha(2.0, 7)


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("turbo = on\n")
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_file(cfg)


def test_config_file_type_mismatch(tmp_path):
    cfg = tmp_path / "run.cfg"
    for key, value in [("runs", "many"), ("include_t_end", "ture")]:
        cfg.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            read_config_file(cfg)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_config_file_that_is_not_utf8_is_one_error_line(queen55_col, tmp_path,
                                                        capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"colors = 5\n# caf\xe9\n")
    assert main([command, "--graph", str(queen55_col), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:2: byte 0xe9 is not UTF-8\n")


def test_config_file_boolean_spellings(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, value in [("1", True), ("TRUE", True), ("Yes", True),
                        ("0", False), ("false", False), ("NO", False)]:
        cfg.write_text(f"include_t_end = {text}\n")
        assert read_config_file(cfg) == {"include_t_end": value}


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(st.builds(
    Hyperparameters,
    method=st.sampled_from(["qdlqa", "qdgd"]),
    num_colors=st.integers(2, 64),
    n_steps=st.integers(1, 10**6),
    gamma=st.floats(0.0, 1e6, **_finite),
    alpha=st.one_of(st.builds(ConstantAlpha, st.integers(1, 50)),
                    st.builds(ExponentialAlpha, st.floats(-10.0, 10.0, **_finite),
                              st.integers(1, 50))),
    eta=st.floats(1e-9, 1e3, **_finite),
    f=st.floats(0.0, 10.0, **_finite),
    f_tilde=st.floats(1e-9, 10.0, **_finite),
    h=st.floats(0.0, 1e3, **_finite),
    n_runs=st.integers(1, 10**4),
    patience=st.integers(1, 10**4),
    fix_strategy=st.one_of(st.none(),
                           st.sampled_from(["max_degree", "degree_one", "none"]),
                           st.integers(0, 10**6),
                           st.integers(0, 10**6).map(np.int64),
                           st.integers(0, 255).map(np.uint8)),
    master_seed=st.integers(0, 2**32),
    include_t_end=st.booleans(),
))
@example(Hyperparameters(method="qdgd", num_colors=3, fix_strategy="none"))
@example(Hyperparameters(method="qdgd", num_colors=3, fix_strategy=np.int64(3)))
def test_recorded_settings_read_back(tmp_path_factory, hp):
    # the JSON config block, written as a config file, reproduces the run;
    # the fix strategy is stored as None, a strategy name or an int
    assert type(hp.fix_strategy) in (type(None), str, int)
    recorded = json.loads(json.dumps(hp_to_dict(hp)))
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in recorded.items()))
    config = load_config(argparse.Namespace(config=str(cfg), graph="g.col"))
    assert config_to_hp(config, int(config.colors)) == hp
    # ... and so do the same values given as solve flags
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in recorded.items()
             if key != "include_t_end"]
    flags += ["--include-t-end"] if recorded["include_t_end"] else []
    config = load_config(build_parser().parse_args(["solve", "--graph", "g.col",
                                                    *flags]))
    assert config_to_hp(config, int(config.colors)) == hp


@pytest.mark.parametrize("fix", [True, False, np.bool_(True)])
def test_bool_fix_strategy_is_rejected(queen55, fix):
    # True == 1, but a bool names no node
    message = ("fix must be max_degree, degree_one, none, or a node index, "
               f"got {fix!r}")
    with pytest.raises(ValueError) as caught:
        Hyperparameters(method="qdlqa", num_colors=3, fix_strategy=fix)
    assert str(caught.value) == message
    with pytest.raises(ValueError, match="^fix must be"):
        select_fixed_node(queen55, fix)


def test_method_specific_field_warning(queen55_col, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(solve_args(queen55_col, "--colors", "5", "--method", "qdlqa",
                           "--runs", "1", "--patience", "5", "--out", str(out)))
    assert code == 0  # warned, not fatal
    assert "patience is ignored" in capsys.readouterr().err


def test_solve_outputs_are_reproducible(queen55_col, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(solve_args(queen55_col, "--colors", "5", "--runs", "3",
                               "--seed", "11", "--steps", "200",
                               "--out", str(out))) == 0
        payload = json.loads(out.read_text())
        for run in payload["per_run"]:
            run.pop("wall_ms")  # timing is the one non-deterministic field
        outs.append(payload)
    assert outs[0] == outs[1]


def test_solve_writes_coloring_with_original_ids(queen55_col, tmp_path):
    coloring = tmp_path / "best.txt"
    out = tmp_path / "c.json"
    assert main(solve_args(queen55_col, "--colors", "5", "--runs", "2",
                           "--seed", "1", "--coloring", str(coloring),
                           "--out", str(out))) == 0
    lines = coloring.read_text().splitlines()
    assert len(lines) == 25
    ids = [int(line.split()[0]) for line in lines]
    assert ids == list(range(1, 26))  # DIMACS ids are 1-based
    colors = {int(line.split()[1]) for line in lines}
    assert colors <= set(range(5))


def test_solve_writes_trajectory_csv(queen55_col, tmp_path):
    traj = tmp_path / "traj.csv"
    out = tmp_path / "t.json"
    assert main(solve_args(queen55_col, "--colors", "4", "--runs", "2",
                           "--steps", "100", "--seed", "5",
                           "--trajectories", str(traj),
                           "--out", str(out))) == 0
    header = traj.read_text().splitlines()[0]
    assert header == "step,t,mean,std,active"


def test_solve_trajectory_csv_covers_runs_that_stop_early(queen55_col, tmp_path,
                                                          capsys):
    # solved runs stop early and leave the later stages to the others
    traj = tmp_path / "traj.csv"
    out = tmp_path / "t.json"
    assert main(solve_args(queen55_col, "--colors", "5", "--runs", "4",
                           "--seed", "1", "--trajectories", str(traj),
                           "--out", str(out))) == 0
    assert capsys.readouterr().err == ""
    with traj.open() as fh:
        rows = list(csv.DictReader(fh))
    active = [int(row["active"]) for row in rows]
    assert [int(row["step"]) for row in rows] == list(range(len(rows)))
    assert active[0] == 4 and active[-1] == 1
    assert all(b <= a for a, b in zip(active, active[1:]))
    assert json.loads(out.read_text())["best_energy"] == 0


def test_sweep_command(tmp_path):
    tri = tmp_path / "tri.col"
    tri.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--graph", str(tri), "--colors", "2:4",
                 "--runs", "2", "--steps", "200", "--quiet",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["chi_upper"] == 3
    assert set(payload["sweep"]) == {"2", "3"}  # stopped at first success
    assert payload["sweep"]["3"]["best_energy"] == 0


@pytest.mark.parametrize("name", ["trajectories", "coloring"])
def test_sweep_rejects_output_files(queen55_col, tmp_path, capsys, name):
    target = tmp_path / "out.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {target}\n")
    for extra in (["--" + name, str(target)], ["--config", str(cfg)]):
        assert main(["sweep", "--graph", str(queen55_col), "--colors", "4:5",
                     "--runs", "1", "--steps", "5", *extra]) == 1
        assert capsys.readouterr().err == f"error: {name} is not supported by sweep\n"
        assert not target.exists()


def test_sweep_rejects_descending_range(tmp_path):
    tri = tmp_path / "tri.col"
    tri.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert main(["sweep", "--graph", str(tri), "--colors", "4:2"]) == 1


def test_gradcheck_command(queen55_col, capsys):
    code = main(["gradcheck", "--graph", str(queen55_col), "--colors", "5",
                 "--points", "3", "--seed", "2"])
    assert code == 0
    assert "gradcheck OK" in capsys.readouterr().out


# Each point draws its time, then its angles, then its couplings from the
# one seeded generator, so these lines move if any draw moves.
@pytest.mark.parametrize("flags, line", [
    (["--colors", "5", "--points", "4"],
     "4 points, max relative error 2.082e-07 "
     "(tol 0.0001, 8 clamp-flagged components excluded)"),
    (["--colors", "3", "--points", "3", "--fix", "none", "--seed", "7"],
     "3 points, max relative error 4.996e-08 "
     "(tol 0.0001, 0 clamp-flagged components excluded)"),
    (["--colors", "4", "--points", "2", "--t", "0.3", "--gamma", "0.5",
      "--h", "1.5", "--fix", "3"],
     "2 points, max relative error 3.241e-08 "
     "(tol 0.0001, 3 clamp-flagged components excluded)"),
])
def test_gradcheck_prints_pinned_line(queen55_col, capsys, flags, line):
    assert main(["gradcheck", "--graph", str(queen55_col), *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (f"gradcheck OK: {line}\n", "")


# the default pins the max-degree node: the centre square, node 12
@pytest.mark.parametrize("flags, fixed", [([], 12), (["--fix", "none"], None),
                                          (["--fix", "3"], 3)])
def test_gradcheck_honours_fix(queen55_col, capsys, monkeypatch, flags, fixed):
    seen = []

    def spy(workspace, angles, *args, **kwargs):
        zero_rows = np.flatnonzero(~angles.any(axis=1)).tolist()
        seen.append((workspace.fixed_node, angles.shape, zero_rows,
                     angles[:, -1].any()))
        return check_gradient(workspace, angles, *args, **kwargs)

    monkeypatch.setattr(cli, "check_gradient", spy)
    code = main(["gradcheck", "--graph", str(queen55_col), "--colors", "5",
                 "--points", "2", *flags])
    assert code == 0
    assert "gradcheck OK" in capsys.readouterr().out
    # every node has a padded row, the pad 0; the pinned one, and only it,
    # is all zeros
    assert seen == [(fixed, (25, 5), [] if fixed is None else [fixed], False)] * 2


def test_gradcheck_unresolvable_fix_is_solve_error(queen55_col, capsys):
    errors = []
    for command in (["gradcheck"], ["solve", "--quiet"]):
        code = main([*command, "--graph", str(queen55_col), "--colors", "5",
                     "--fix", "degree_one"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        errors.append(captured.err)
    assert errors == ["error: no degree-1 node in graph\n"] * 2


@pytest.mark.parametrize("flags, message", [
    (["--t", "nan"], "t must be finite, got nan"),
    (["--t", "2"], "t must be in [0, 1]"),
    (["--h", "-1"], "h must be >= 0"),
    (["--gamma", "nan"], "gamma must be finite, got nan"),
    (["--colors", "1"], "qudit dimension must be >= 2, got 1"),
    (["--step", "0.5"], "finite-difference step must be in [1e-7, 1e-3]"),
    (["--points", "0"], "points must be >= 1, got 0"),
    (["--tol", "nan"], "tol must be finite and > 0, got nan"),
    (["--tol", "0"], "tol must be finite and > 0, got 0.0"),
    (["--h", "nan"], "h must be finite, got nan"),
    (["--gamma", "-1"], "gamma must be >= 0"),
    (["--gamma", "inf"], "gamma must be finite, got inf"),
    (["--t", "-0.1"], "t must be in [0, 1]"),
    (["--t=-inf"], "t must be finite, got -inf"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_gradcheck_bad_setting_is_config_error(queen55_col, capsys, flags,
                                               message):
    code = main(["gradcheck", "--graph", str(queen55_col), "--colors", "5",
                 "--points", "2", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_dimacs_edge_count_mismatch_warns(tmp_path, capsys):
    col = tmp_path / "short.col"
    col.write_text("p edge 4 5\ne 1 2\ne 2 3\ne 3 4\n")
    assert main(["info", "--graph", str(col)]) == 0
    captured = capsys.readouterr()
    assert captured.err == \
        f"warning: {col}: header declares 5 edges, file lists 3\n"
    assert "4 nodes, 3 edges" in captured.out


def test_workers_env_default(monkeypatch):
    from quditcolor.cli import RunConfig
    monkeypatch.setenv("QUDITCOLOR_WORKERS", "4")
    assert RunConfig(graph="x.col").workers == 4
    monkeypatch.delenv("QUDITCOLOR_WORKERS")
    assert RunConfig(graph="x.col").workers == 1


@pytest.mark.parametrize("env, flags, message", [
    ("abc", [], "QUDITCOLOR_WORKERS must be a positive integer, got 'abc'"),
    ("1", ["--workers", "0"], "workers must be >= 1, got 0"),
    ("1", ["--workers", "-2"], "workers must be >= 1, got -2"),
    ("0", [], "workers must be >= 1, got 0"),
])
def test_invalid_worker_count_is_config_error(queen55_col, monkeypatch, capsys,
                                              env, flags, message):
    monkeypatch.setenv("QUDITCOLOR_WORKERS", env)
    for command in ("solve", "sweep"):
        args = [command, "--graph", str(queen55_col), "--colors", "5",
                "--runs", "1", "--quiet", *flags]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_include_t_end_warns_for_qdgd(queen55_col, tmp_path, capsys):
    out = tmp_path / "w.json"
    code = main(solve_args(queen55_col, "--colors", "5", "--method", "qdgd",
                           "--runs", "1", "--steps", "20", "--include-t-end",
                           "--out", str(out)))
    assert code == 0
    assert capsys.readouterr().err == \
        "warning: include_t_end is ignored by method qdgd\n"


@pytest.mark.parametrize("fix, message", [
    ("degree_one", "no degree-1 node in graph"),
    ("99", "fixed node 99 out of range [0, 25)"),
])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unresolvable_fixed_node_is_config_error(queen55_col, capsys, command,
                                                 fix, message):
    assert main([command, "--graph", str(queen55_col), "--colors", "5",
                 "--runs", "1", "--quiet", "--fix", fix]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--eta", "nan"], "eta must be finite, got nan"),
    (["--gamma", "inf"], "gamma must be finite, got inf"),
    (["--f-tilde", "nan"], "f_tilde must be finite, got nan"),
    (["--alpha", "exp:nan:7"],
     "bad alpha schedule 'exp:nan:7': alpha rate must be finite, got nan"),
])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_non_finite_setting_is_config_error(queen55_col, capsys, command,
                                            flags, message):
    assert main([command, "--graph", str(queen55_col), "--colors", "5",
                 "--runs", "1", "--quiet", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("alpha, message", [
    ("exp:x:7", "alpha rate must be a number, got 'x'"),
    ("exp:2:2.5", "alpha cap must be an integer, got '2.5'"),
])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_alpha_part_that_is_no_number_is_named(queen55_col, capsys, command,
                                               alpha, message):
    assert main([command, "--graph", str(queen55_col), "--colors", "5",
                 "--runs", "1", "--quiet", "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", f"error: bad alpha schedule {alpha!r}: {message}\n")


def test_overflowing_alpha_rate_runs_at_the_cap(queen55_col, tmp_path):
    out = tmp_path / "cap.json"
    assert main(solve_args(queen55_col, "--colors", "4", "--steps", "20",
                           "--runs", "1", "--alpha", "exp:1000:7",
                           "--out", str(out))) == 0
    # alpha(0) = 1, then every later stage is capped at 7 steps
    assert json.loads(out.read_text())["per_run"][0]["steps"] == 1 + 19 * 7


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_diverged_runs_are_reported(queen55_col, tmp_path, capsys, command):
    # every run diverges: the batch has no result, so no JSON is written
    # ... and numpy's overflow and invalid-value warnings would be errors here
    out = tmp_path / "d.json"
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--graph", str(queen55_col), "--colors", "4",
                     "--method", "qdgd", "--steps", "50", "--eta", "1e308",
                     "--runs", "2", "--quiet", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == \
        ("", "error: all 2 runs diverged (non-finite cost)\n")
    assert not out.exists()


def test_diverged_runs_are_left_out_of_the_aggregates(queen55_col, tmp_path,
                                                      capsys):
    # the settings of the "qdgd-some-diverge" group case: 2 of 6 runs diverge
    # after a first finite readout
    out, coloring = tmp_path / "d.json", tmp_path / "d.col"
    code = main(solve_args(queen55_col, "--colors", "5", "--method", "qdgd",
                           "--steps", "40", "--eta", "1e307", "--patience", "40",
                           "--runs", "6", "--out", str(out),
                           "--coloring", str(coloring)))
    assert code == 0
    assert capsys.readouterr().err == \
        "warning: 2 of 6 runs diverged (non-finite cost)\n"
    payload = json.loads(out.read_text())
    runs = payload["per_run"]
    assert sum(run["diverged"] for run in runs) == 2
    finite = [run["best"] for run in runs if not run["diverged"]]
    best = min(finite)
    assert payload["best_energy"] == best
    assert payload["n_min"] == finite.count(best)
    assert payload["p_min"] == finite.count(best) / 6
    assert payload["mean_best"] == pytest.approx(np.mean(finite))
    assert payload["std_best"] == pytest.approx(np.std(finite))
    assert payload["histogram"] == {str(b): finite.count(b)
                                    for b in sorted(set(finite))}
    assert payload["normalized_error"] == best / 160
    colors = dict(line.split() for line in coloring.read_text().splitlines())
    edges = [line.split()[1:] for line in queen_col_text(5, 5).splitlines()
             if line.startswith("e ")]
    assert sum(colors[u] == colors[v] for u, v in edges) == best


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_dead_worker_is_one_error_line(queen55_col, capsys, monkeypatch, command):
    read = cli.load_graph

    def load_graph(*args):
        graph, ids = read(*args)
        return dies_in_worker(graph), ids

    monkeypatch.setattr(cli, "load_graph", load_graph)
    code = main([command, "--graph", str(queen55_col), "--colors", "5",
                 "--method", "qdgd", "--runs", "4", "--workers", "2", "--quiet"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: worker process failed: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_raising_worker_is_one_error_line(queen55_col, capsys, monkeypatch,
                                          command):
    read = cli.load_graph

    def load_graph(*args):
        graph, ids = read(*args)
        return raises_in_worker(graph), ids

    monkeypatch.setattr(cli, "load_graph", load_graph)
    code = main([command, "--graph", str(queen55_col), "--colors", "5",
                 "--method", "qdgd", "--runs", "4", "--workers", "2", "--quiet"])
    assert code == 3
    assert capsys.readouterr() == (
        "", "error: worker process raised ValueError: edge count unavailable\n")
