import csv
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from quditcolor import harness
from quditcolor.cli import main
from quditcolor.graph import to_dimacs
from quditcolor.harness import (WorkerError, run_batch, stats_to_dict,
                                sweep_colors, trajectory_stats,
                                write_trajectory_csv)
from quditcolor.solver import Hyperparameters, RunRecord, Trajectory

from instances import (dies_in_worker, path, queen_graph, raises_in_worker,
                       triangle)


def hp(method="qdlqa", **kw):
    base = dict(method=method, num_colors=3, n_runs=4, n_steps=200, master_seed=0)
    base.update(kw)
    return Hyperparameters(**base)


def fake_record(idx, best, steps, e_potts):
    traj = Trajectory(step=np.arange(len(e_potts)),
                      t=np.arange(len(e_potts)) / len(e_potts),
                      e_total=np.zeros(len(e_potts)),
                      e_potts=np.asarray(e_potts))
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


def test_dead_worker_raises_worker_error(queen55):
    with pytest.raises(WorkerError, match="^worker process failed: "):
        run_batch(dies_in_worker(queen55), hp(n_runs=4), workers=2)


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_raising_worker_raises_worker_error(queen55, monkeypatch, method):
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=context))
    with pytest.raises(WorkerError) as info:
        run_batch(raises_in_worker(queen55), hp(n_runs=4), workers=2)
    assert str(info.value) == \
        "worker process raised ValueError: edge count unavailable"
    assert isinstance(info.value.__cause__, ValueError)


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
    step, t, mean, std = trajectory_stats(recs, "e_potts")
    np.testing.assert_array_equal(mean, [5, 3, 0])
    np.testing.assert_array_equal(std, [0, 0, 0])

    recs = [fake_record(0, 0, 2, [0, 0]), fake_record(1, 2, 2, [2, 2])]
    _, _, mean, std = trajectory_stats(recs, "e_potts")
    np.testing.assert_array_equal(mean, [1, 1])
    np.testing.assert_array_equal(std, [1, 1])  # population convention


def test_trajectory_stats_errors():
    recs = [fake_record(0, 0, 3, [1, 2, 3]), fake_record(1, 0, 2, [1, 2])]
    with pytest.raises(ValueError, match="mismatched"):
        trajectory_stats(recs, "e_potts")
    with pytest.raises(ValueError, match="unknown quantity"):
        trajectory_stats(recs[:1], "conflicts")
    bare = RunRecord(0, 0, np.zeros(2, dtype=int), 5, 0.0, None)
    with pytest.raises(ValueError, match="recording"):
        trajectory_stats([bare], "e_potts")


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
    recs = [fake_record(0, 0, 3, [4, 2, 0]), fake_record(1, 0, 3, [2, 2, 2])]
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, recs, "e_potts")
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["step", "t", "mean", "std"]
    assert rows[1][0] == "0"
    assert float(rows[1][2]) == 3.0


@pytest.mark.slow
def test_larger_coupling_noise_leaves_more_conflicts(queen1111):
    # at a large step budget, h=10 batches end with conflict averages at or
    # above the h=3 batches
    means = {}
    for h in (3.0, 10.0):
        params = Hyperparameters(method="qdlqa", num_colors=11, f=0.0, h=h,
                                 n_runs=30, master_seed=23)
        stats = run_batch(queen1111, params, record_trajectories=True)
        _, _, mean, _ = trajectory_stats(stats.records, "e_potts")
        means[h] = mean[-1]
    assert means[10.0] >= means[3.0]
