import csv
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import quditcolor

import numpy as np
import pytest

from quditcolor import harness
from quditcolor.cli import main
from quditcolor.graph import to_dimacs
from quditcolor.harness import (DivergedError, WorkerError, collect_stats,
                                run_batch, stats_to_dict, sweep_colors,
                                trajectory_stats, write_trajectory_csv)
from quditcolor.solver import Hyperparameters, RunRecord, Trajectory

from instances import (dies_in_worker, path, queen_graph, raises_in_worker,
                       triangle)


def hp(method="qdlqa", **kw):
    base = dict(method=method, num_colors=3, n_runs=4, n_steps=200, master_seed=0)
    base.update(kw)
    return Hyperparameters(**base)


def fake_record(idx, best, steps, e_potts):
    traj = Trajectory(t=np.arange(len(e_potts)) / 10, e_potts=np.asarray(e_potts))
    return RunRecord(run_index=idx, best_energy=best,
                     best_coloring=np.zeros(3, dtype=int),
                     steps_executed=steps, wall_time=0.0, trajectory=traj)


def test_batch_stats_fields(k3):
    stats = run_batch(k3, hp(n_runs=6))
    assert stats.best_overall == 0
    assert stats.n_min == 6
    assert stats.p_min == 1.0
    assert sum(stats.histogram.values()) == 6
    assert stats.best_overall == min(stats.histogram)
    assert stats.normalized_error == 0.0
    assert len(stats.records) == 6
    assert [r.run_index for r in stats.records] == list(range(6))


def test_single_run_batch(k3):
    stats = run_batch(k3, hp(n_runs=1))
    assert stats.p_min == 1.0


def test_histogram_mean_consistency(queen55):
    stats = run_batch(queen55, hp(num_colors=4, n_runs=8, n_steps=120))
    total = sum(stats.histogram.values())
    weighted = sum(e * n for e, n in stats.histogram.items()) / total
    assert total == 8
    assert stats.mean_best == pytest.approx(weighted)
    assert stats.best_overall == min(stats.histogram)
    assert stats.normalized_error == stats.best_overall / queen55.num_edges


def test_early_stopped_runs_enter_histogram_at_zero(k3):
    stats = run_batch(k3, hp(n_runs=5))
    assert stats.histogram.get(0) == 5


def test_batch_reproducibility(queen55):
    params = hp(num_colors=5, n_runs=6, n_steps=150, master_seed=3)
    a = run_batch(queen55, params)
    b = run_batch(queen55, params)
    assert a.histogram == b.histogram
    for ra, rb in zip(a.records, b.records):
        assert ra.best_energy == rb.best_energy
        np.testing.assert_array_equal(ra.best_coloring, rb.best_coloring)


def test_worker_count_does_not_change_results(queen55):
    params = hp(num_colors=5, n_runs=6, n_steps=150, master_seed=3)
    serial = run_batch(queen55, params, workers=1)
    parallel = run_batch(queen55, params, workers=3)
    assert serial.histogram == parallel.histogram
    for ra, rb in zip(serial.records, parallel.records):
        assert ra.run_index == rb.run_index
        assert ra.best_energy == rb.best_energy
        np.testing.assert_array_equal(ra.best_coloring, rb.best_coloring)


@pytest.fixture
def fresh_pool():
    """No kept worker pool when the test starts, and none left after it."""
    harness._close_pool()
    yield
    harness._close_pool()


def count_pools(monkeypatch, **kwargs):
    """Make harness build its pools with ``kwargs``; returns the list of the
    pools it builds."""
    made = []

    def counting(*args, **kw):
        made.append(ProcessPoolExecutor(*args, **kw, **kwargs))
        return made[-1]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting)
    return made


def same_records(a, b):
    assert [(r.run_index, r.best_energy, r.steps_executed) for r in a.records] == \
        [(r.run_index, r.best_energy, r.steps_executed) for r in b.records]
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.best_coloring, rb.best_coloring)


def test_dead_worker_raises_worker_error(queen55):
    with pytest.raises(WorkerError, match="^worker process failed: "):
        run_batch(dies_in_worker(queen55), hp(n_runs=4), workers=2)


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_raising_worker_raises_worker_error(queen55, monkeypatch, fresh_pool,
                                            method):
    made = count_pools(monkeypatch,
                       mp_context=multiprocessing.get_context(method))
    with pytest.raises(WorkerError) as info:
        run_batch(raises_in_worker(queen55), hp(n_runs=4), workers=2)
    assert str(info.value) == \
        "worker process raised ValueError: edge count unavailable"
    assert isinstance(info.value.__cause__, ValueError)
    # the runs went to a new pool of the requested start method, which a
    # raising run leaves in place and usable
    assert made == [harness._pool]
    assert harness._pool._mp_context.get_start_method() == method
    params = hp(n_runs=4, n_steps=60)
    same_records(run_batch(queen55, params, workers=2), run_batch(queen55, params))
    assert len(made) == 1


def test_batches_share_one_pool(queen55, monkeypatch, fresh_pool):
    made = count_pools(monkeypatch)
    for seed in (1, 2):
        params = hp(num_colors=5, n_runs=4, n_steps=60, master_seed=seed)
        same_records(run_batch(queen55, params, workers=2), run_batch(queen55, params))
    assert len(made) == 1
    # another process count replaces the pool
    run_batch(queen55, hp(n_runs=3, n_steps=60), workers=3)
    assert len(made) == 2 and harness._pool is made[1]


def test_dead_worker_pool_is_replaced(queen55, monkeypatch, fresh_pool):
    made = count_pools(monkeypatch)
    with pytest.raises(WorkerError, match="^worker process failed: "):
        run_batch(dies_in_worker(queen55), hp(n_runs=4), workers=2)
    assert harness._pool is None
    params = hp(num_colors=5, n_runs=4, n_steps=60, master_seed=3)
    same_records(run_batch(queen55, params, workers=2), run_batch(queen55, params))
    assert len(made) == 2


def test_kept_pool_that_lost_a_worker_is_replaced(queen55, monkeypatch,
                                                  fresh_pool):
    made = count_pools(monkeypatch)
    params = hp(num_colors=5, n_runs=4, n_steps=60, master_seed=3)
    run_batch(queen55, params, workers=2)
    # a worker of the idle pool dies between batches
    worker = next(iter(harness._pool._processes.values()))
    os.kill(worker.pid, signal.SIGKILL)
    multiprocessing.connection.wait([worker.sentinel], timeout=30)
    same_records(run_batch(queen55, params, workers=2), run_batch(queen55, params))
    assert len(made) == 2 and harness._pool is made[1]


def test_sweep_shares_one_pool(k3, monkeypatch, fresh_pool):
    made = count_pools(monkeypatch)
    result = sweep_colors(k3, hp(n_runs=4), range(2, 5), force_full=True,
                          workers=2)
    assert sorted(result.batches) == [2, 3, 4]
    assert len(made) == 1


def test_interpreter_exits_cleanly_with_a_kept_pool():
    script = textwrap.dedent("""
        from quditcolor.graph import Graph
        from quditcolor.harness import run_batch
        from quditcolor.solver import Hyperparameters

        graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        for seed in (0, 1):
            run_batch(graph, Hyperparameters(method="qdgd", num_colors=3,
                                             n_runs=4, n_steps=50,
                                             master_seed=seed), workers=2)
    """)
    src = str(Path(quditcolor.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_sweep_reports_upper_bound(k3):
    result = sweep_colors(k3, hp(n_runs=3), range(2, 4))
    assert result.chi_upper == 3
    assert result.batches[2].best_overall > 0
    assert result.batches[3].best_overall == 0


def test_sweep_bipartite_path():
    result = sweep_colors(path(6), hp(n_runs=2, n_steps=300), [2])
    assert result.chi_upper == 2


def test_sweep_early_stop_and_force_full(k3):
    partial = sweep_colors(k3, hp(n_runs=2), range(2, 6))
    assert sorted(partial.batches) == [2, 3]
    full = sweep_colors(k3, hp(n_runs=2), range(2, 5), force_full=True)
    assert sorted(full.batches) == [2, 3, 4]
    assert full.chi_upper == 3


def test_sweep_requires_ascending_range(k3):
    with pytest.raises(ValueError, match="ascending"):
        sweep_colors(k3, hp(), [3, 3])


def test_trajectory_stats_identical_and_simple_cases():
    recs = [fake_record(0, 0, 3, [5, 3, 0]), fake_record(1, 0, 3, [5, 3, 0])]
    t, mean, std, active = trajectory_stats(recs)
    np.testing.assert_array_equal(t, [0.0, 0.1, 0.2])
    np.testing.assert_array_equal(mean, [5, 3, 0])
    np.testing.assert_array_equal(std, [0, 0, 0])
    np.testing.assert_array_equal(active, [2, 2, 2])

    recs = [fake_record(0, 0, 2, [0, 0]), fake_record(1, 2, 2, [2, 2])]
    _, mean, std, _ = trajectory_stats(recs)
    np.testing.assert_array_equal(mean, [1, 1])
    np.testing.assert_array_equal(std, [1, 1])  # population convention


def test_trajectory_stats_over_runs_that_stop_early():
    # stage i aggregates the runs with more than i rows; a run without a
    # row (diverged at its first readout) is active nowhere
    recs = [fake_record(0, 0, 2, [4, 0]), fake_record(1, 1, 4, [6, 2, 1, 1]),
            fake_record(2, 1, 3, [2, 2, 1]), fake_record(3, None, 1, [])]
    t, mean, std, active = trajectory_stats(recs)
    np.testing.assert_array_equal(t, [0.0, 0.1, 0.2, 0.3])
    np.testing.assert_array_equal(active, [3, 3, 2, 1])
    np.testing.assert_array_equal(mean, [4, 4 / 3, 1, 1])
    np.testing.assert_allclose(std, [np.std([4, 6, 2]), np.std([0, 2, 2]), 0, 0])


def test_trajectory_stats_errors():
    recs = [fake_record(0, 0, 3, [1, 2, 3]), fake_record(1, 0, 2, [1, 2])]
    recs[1].trajectory.t[1] = 0.5
    with pytest.raises(ValueError, match="disagree on the t of a shared stage"):
        trajectory_stats(recs)
    bare = RunRecord(0, 0, np.zeros(2, dtype=int), 5, 0.0, None)
    with pytest.raises(ValueError, match="recording"):
        trajectory_stats([bare])


def test_diverged_runs_stay_out_of_the_aggregates(k3):
    def diverged(idx, best):
        coloring = None if best is None else np.zeros(3, dtype=int)
        return RunRecord(idx, best, coloring, 1, 0.0, diverged=True)

    recs = [diverged(0, None), fake_record(1, 3, 9, [3]), diverged(2, 1),
            fake_record(3, 5, 9, [5]), fake_record(4, 3, 9, [3])]
    stats = collect_stats(k3, recs)
    assert (stats.best_overall, stats.n_min, stats.p_min) == (3, 2, 2 / 5)
    assert stats.histogram == {3: 2, 5: 1}
    assert stats.mean_best == pytest.approx(11 / 3)
    assert stats.std_best == pytest.approx(np.std([3, 5, 3]))
    assert stats.normalized_error == 1.0
    payload = json.loads(json.dumps(stats_to_dict(stats, k3, hp())))
    assert [run["best"] for run in payload["per_run"]] == [None, 3, 1, 5, 3]
    with pytest.raises(DivergedError,
                       match=r"^all 2 runs diverged \(non-finite cost\)$"):
        collect_stats(k3, [recs[0], recs[2]])


def test_stats_json_round_trip(tmp_path, k3):
    col = tmp_path / "k3.col"
    col.write_text(to_dimacs(k3))
    out = tmp_path / "stats.json"
    assert main(["solve", "--graph", str(col), "--colors", "3", "--runs", "3",
                 "--steps", "200", "--quiet", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["graph"] == {"nodes": 3, "edges": 3}
    assert payload["best_energy"] == 0
    assert payload["config"]["runs"] == 3
    assert len(payload["per_run"]) == 3
    assert payload["per_run"][0]["seed"] == [0, 0]
    assert payload["histogram"] == {"0": 3}


def test_trajectory_csv(tmp_path):
    recs = [fake_record(0, 0, 3, [4, 2, 0]), fake_record(1, 0, 2, [2, 2])]
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, recs)
    rows = list(csv.reader(out.open()))
    assert rows == [["step", "t", "mean", "std", "active"],
                    ["0", "0", "3", "1", "2"], ["1", "0.1", "2", "0", "2"],
                    ["2", "0.2", "0", "0", "1"]]


@pytest.mark.slow
def test_larger_coupling_noise_leaves_more_conflicts(queen1111):
    # at a large step budget, h=10 batches end with conflict averages at or
    # above the h=3 batches
    means = {}
    for h in (3.0, 10.0):
        params = Hyperparameters(method="qdlqa", num_colors=11, f=0.0, h=h,
                                 n_runs=30, master_seed=23)
        stats = run_batch(queen1111, params, record_trajectories=True)
        _, mean, _, _ = trajectory_stats(stats.records)
        means[h] = mean[-1]
    assert means[10.0] >= means[3.0]
