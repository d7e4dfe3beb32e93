import argparse
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcolor import cli
from quditcolor.cli import (ConfigError, config_to_hp, load_config, main,
                            parse_fix, read_config_file)
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
    with pytest.raises(ConfigError):
        parse_fix("center")


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


def test_missing_file_is_io_error():
    code = main(["info", "--graph", "/nonexistent/foo.col"])
    assert code == 2


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    assert main(["info", "--graph", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


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
    fix_strategy=st.one_of(st.none(), st.sampled_from(["max_degree", "degree_one"]),
                           st.integers(0, 10**6)),
    master_seed=st.integers(0, 2**32),
    include_t_end=st.booleans(),
))
def test_recorded_settings_read_back(tmp_path_factory, hp):
    # the JSON config block, written as a config file, reproduces the run
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in hp_to_dict(hp).items()))
    config = load_config(argparse.Namespace(config=str(cfg), graph="g.col"))
    assert config_to_hp(config, int(config.colors)) == hp


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
    assert header == "step,t,mean,std"


def test_solve_trajectory_grid_mismatch_warns(queen55_col, tmp_path, capsys):
    # solved runs stop early, leaving unequal grids; stats still written
    traj = tmp_path / "traj.csv"
    out = tmp_path / "t.json"
    assert main(solve_args(queen55_col, "--colors", "5", "--runs", "4",
                           "--seed", "1", "--trajectories", str(traj),
                           "--out", str(out))) == 0
    assert "trajectory CSV not written" in capsys.readouterr().err
    assert not traj.exists()
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


def test_overflowing_alpha_rate_runs_at_the_cap(queen55_col, tmp_path):
    out = tmp_path / "cap.json"
    assert main(solve_args(queen55_col, "--colors", "4", "--steps", "20",
                           "--runs", "1", "--alpha", "exp:1000:7",
                           "--out", str(out))) == 0
    # alpha(0) = 1, then every later stage is capped at 7 steps
    assert json.loads(out.read_text())["per_run"][0]["steps"] == 1 + 19 * 7


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_diverged_runs_are_reported(queen55_col, tmp_path, capsys, command):
    # numpy's overflow and invalid-value warnings would be errors here
    out = tmp_path / "d.json"
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--graph", str(queen55_col), "--colors", "4",
                     "--method", "qdgd", "--steps", "50", "--eta", "1e308",
                     "--runs", "2", "--quiet", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == \
        "warning: 2 of 2 runs diverged (non-finite cost)\n"
    if command == "solve":
        assert [run["diverged"] for run in json.loads(out.read_text())["per_run"]] \
            == [True, True]


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
