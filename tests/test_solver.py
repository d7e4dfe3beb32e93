import math
import time
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcolor import gradient, solver
from quditcolor.energy import extract_coloring, potts_energy
from quditcolor.harness import run_batch
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.solver import (ConstantAlpha, ExponentialAlpha,
                               Hyperparameters, alpha_at, group_size,
                               parse_alpha, run_one, run_qdgd, run_qdlqa)

from instances import path, qdlqa_start, queen_graph, star, triangle


def qdlqa_hp(**kw):
    base = dict(method="qdlqa", num_colors=3, n_runs=1)
    base.update(kw)
    return Hyperparameters(**base)


def qdgd_hp(**kw):
    base = dict(method="qdgd", num_colors=3, n_runs=1)
    base.update(kw)
    return Hyperparameters(**base)


def test_alpha_schedules():
    assert alpha_at(ConstantAlpha(1), 0.0) == 1
    assert alpha_at(ConstantAlpha(4), 0.77) == 4
    exp = ExponentialAlpha(rate=2.0, cap=7)
    assert alpha_at(exp, 0.0) == 1
    assert alpha_at(exp, 0.5) == 3  # e ~ 2.72 rounds up
    assert alpha_at(exp, 1.0) == 7  # e^2 ~ 7.39 rounds down to the cap
    with pytest.raises(ValueError):
        ConstantAlpha(0)
    with pytest.raises(TypeError):
        alpha_at(3, 0.5)


def test_alpha_at_caps_an_overflowing_exponent():
    # exp(980) overflows a float; the cap is what the schedule asks for
    assert alpha_at(ExponentialAlpha(1000, 7), 0.98) == 7
    assert alpha_at(ExponentialAlpha(1000, 7), 0.0) == 1
    assert alpha_at(ExponentialAlpha(-1000, 7), 1.0) == 1


def test_parse_alpha():
    assert parse_alpha("1") == ConstantAlpha(1)
    assert parse_alpha("exp:2:7") == ExponentialAlpha(2.0, 7)
    for bad, message in [("exp:2", "must be exp:RATE:CAP"),
                         ("fast", "must be an integer"),
                         ("exp:2:0", "cap must be >= 1"),
                         ("exp:nan:7", "rate must be finite, got nan"),
                         ("exp:inf:7", "rate must be finite, got inf"),
                         ("0", "alpha must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            parse_alpha(bad)


@pytest.mark.parametrize("schedule, spec", [
    (ConstantAlpha(3), 3),
    (ExponentialAlpha(2.0, 7), "exp:2:7"),
    (ExponentialAlpha(1e-5, 2), "exp:1e-05:2"),
    (ExponentialAlpha(0.123456789, 7), "exp:0.123456789:7"),
])
def test_alpha_spec_reads_back(schedule, spec):
    assert schedule.spec == spec
    assert parse_alpha(spec) == schedule


def test_hyperparameter_validation():
    qdlqa_hp()
    with pytest.raises(ValueError, match="method"):
        Hyperparameters(method="sa", num_colors=3)
    with pytest.raises(ValueError, match="colors"):
        qdlqa_hp(num_colors=1)
    with pytest.raises(ValueError, match="n_steps"):
        qdlqa_hp(n_steps=0)
    with pytest.raises(ValueError, match="patience"):
        qdgd_hp(patience=0)
    with pytest.raises(ValueError, match="f_tilde"):
        qdgd_hp(f_tilde=0.0)
    with pytest.raises(ValueError, match="eta"):
        qdlqa_hp(eta=-1.0)
    with pytest.raises(ValueError, match="seed"):
        qdlqa_hp(master_seed=-1)


@pytest.mark.parametrize("name", ["gamma", "eta", "f", "f_tilde", "h"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_settings_are_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        qdlqa_hp(**{name: value})


def test_qdlqa_solves_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    rec = run_qdlqa(g, qdlqa_hp(num_colors=2), [0])[0]
    assert rec.best_energy == 0
    assert potts_energy(g, rec.best_coloring) == 0
    assert rec.steps_executed < 100  # early break well before the budget


def test_qdgd_solves_triangle(k3):
    rec = run_qdgd(k3, qdgd_hp(num_colors=3), [0])[0]
    assert rec.best_energy == 0
    assert potts_energy(k3, rec.best_coloring) == 0


def test_qdlqa_initial_coloring_conflict_count():
    # with f=0 and odd c, every free node starts on the central color while
    # the fixed node holds color 0, so conflicts = |E| - deg(fixed)
    for g in (triangle(), star(2, [0, 1, 3, 4]), queen_graph(5, 5)):
        psi = qdlqa_start(g, 3, 0.0, np.random.default_rng(0))
        e0 = potts_energy(g, extract_coloring(psi))
        assert e0 == g.num_edges - g.degrees[select_fixed_node(g, "max_degree")]


def test_qdlqa_even_colors_initial_coloring():
    # c=2 ties break to color 0, matching the fixed node: everything clashes
    g = path(4)
    psi = qdlqa_start(g, 2, 0.0, np.random.default_rng(0))
    assert potts_energy(g, extract_coloring(psi)) == g.num_edges


def test_best_energy_matches_trajectory_minimum(queen55):
    hp = qdlqa_hp(num_colors=4, n_steps=120)  # under-colored: stays positive
    rec = run_qdlqa(queen55, hp, [3], record_trajectory=True)[0]
    assert rec.best_energy == rec.trajectory.e_potts.min()
    assert potts_energy(queen55, rec.best_coloring) == rec.best_energy
    running_best = np.minimum.accumulate(rec.trajectory.e_potts)
    assert (np.diff(running_best) <= 0).all()


def test_trajectory_grid_and_t_values(queen55):
    hp = qdlqa_hp(num_colors=4, n_steps=50)
    rec = run_qdlqa(queen55, hp, [0], record_trajectory=True)[0]
    assert rec.trajectory.step.tolist() == list(range(50))
    assert rec.trajectory.t[0] == 0.0
    assert rec.trajectory.t[-1] == pytest.approx(49 / 50)  # t < 1 loop guard


def test_include_t_end_adds_final_stage(queen55):
    hp = qdlqa_hp(num_colors=4, n_steps=50, include_t_end=True)
    rec = run_qdlqa(queen55, hp, [0], record_trajectory=True)[0]
    assert len(rec.trajectory.t) == 51
    assert rec.trajectory.t[-1] == 1.0


def test_run_determinism(queen55):
    hp = qdlqa_hp(num_colors=5, n_steps=150, master_seed=7)
    a = run_qdlqa(queen55, hp, [2], record_trajectory=True)[0]
    b = run_qdlqa(queen55, hp, [2], record_trajectory=True)[0]
    assert a.best_energy == b.best_energy
    np.testing.assert_array_equal(a.best_coloring, b.best_coloring)
    np.testing.assert_array_equal(a.trajectory.e_total, b.trajectory.e_total)
    c = run_qdlqa(queen55, hp, [3], record_trajectory=True)[0]
    assert not np.array_equal(c.trajectory.e_total, a.trajectory.e_total)


def test_run_indices_may_be_any_integer_sequence(queen55):
    hp = qdgd_hp(num_colors=4, n_steps=30)
    expected = [run_result(r)
                for r in run_qdgd(queen55, hp, [1, 2, 3], record_trajectory=True)]
    for indices in (np.arange(1, 4), range(1, 4), (1, 2, 3)):
        recs = run_qdgd(queen55, hp, indices, record_trajectory=True)
        assert [run_result(r) for r in recs] == expected
        assert all(type(r.run_index) is int for r in recs)
    assert run_qdgd(queen55, hp, np.arange(0)) == []


@pytest.mark.parametrize("index", [0, 3, np.int64(3)])
def test_a_single_run_index_is_rejected(queen55, index):
    with pytest.raises(TypeError):
        run_qdgd(queen55, qdgd_hp(num_colors=4, n_steps=30), index)


def test_qdgd_patience_stops_stalled_run(k3):
    # 2 colors on a triangle can never go below 1 conflict
    hp = qdgd_hp(num_colors=2, n_steps=1000, patience=25)
    rec = run_qdgd(k3, hp, [0], record_trajectory=True)[0]
    assert rec.best_energy == 1
    assert rec.steps_executed < 1000
    tail = rec.trajectory.e_potts[-25:]
    assert (tail >= rec.best_energy).all()


def test_qdgd_respects_step_budget(k3):
    hp = qdgd_hp(num_colors=2, n_steps=30, patience=1000)
    rec = run_qdgd(k3, hp, [0])[0]
    assert rec.steps_executed == 30


def test_alpha_schedule_multiplies_inner_steps(queen55):
    hp = qdlqa_hp(num_colors=4, n_steps=40, alpha=ConstantAlpha(3))
    rec = run_qdlqa(queen55, hp, [0])[0]
    assert rec.steps_executed == 40 * 3


def test_exponential_alpha_step_total(queen55):
    n = 40
    hp = qdlqa_hp(num_colors=4, n_steps=n, alpha=ExponentialAlpha(2.0, 7))
    rec = run_qdlqa(queen55, hp, [0])[0]
    expected = sum(alpha_at(hp.alpha, i / n) for i in range(n))
    assert rec.steps_executed == expected


def test_diverging_run_stops_and_is_marked(queen55):
    # the first Adam step overflows the angles; the next cost is NaN
    # ... silently: numpy's floating-point warnings would be errors here
    hp = qdgd_hp(num_colors=4, n_steps=50, eta=1e308)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_qdgd(queen55, hp, [0], record_trajectory=True)[0]
    assert rec.diverged
    assert rec.steps_executed < 5
    assert not np.isfinite(rec.trajectory.e_total[-1])
    assert potts_energy(queen55, rec.best_coloring) == rec.best_energy
    assert not run_qdgd(queen55, qdgd_hp(num_colors=4, n_steps=50), [0])[0].diverged


@pytest.mark.parametrize("method, settings", [
    ("qdlqa", dict(num_colors=4, n_steps=40, alpha=ExponentialAlpha(2.0, 3))),
    ("qdlqa", dict(num_colors=4, n_steps=40)),
    ("qdgd", dict(num_colors=3, n_steps=1000, patience=10)),
    ("qdgd", dict(num_colors=4, n_steps=50, eta=1e308)),
], ids=["qdlqa-exp-alpha", "qdlqa-constant-alpha", "qdgd-early-stop",
        "qdgd-diverged"])
def test_one_forward_map_per_step(queen55, monkeypatch, method, settings):
    original = gradient._forward
    calls = []

    def counting_forward(phi):
        calls.append(1)
        return original(phi)

    monkeypatch.setattr(gradient, "_forward", counting_forward)
    hp = Hyperparameters(method=method, n_runs=1, **settings)
    # a group of one, then groups that map once per step of their longest
    # run: finished runs are sliced out of the last map, not mapped again
    for group in ([0], [1], [0, 1, 2], [3, 4, 5, 6, 7]):
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            recs = run_one(queen55, hp, group)
        assert len(calls) == max(r.steps_executed for r in recs) + 1
    if method == "qdgd":
        assert recs[0].steps_executed < hp.n_steps  # stopped early


# Settings under which a group's runs end in every way a run can end: at 0
# conflicts, on patience, when the stages run out, and diverged, alone or
# with others, at a stage end or in the middle of one.
GROUP_CASES = {
    "qdlqa-exp-alpha-t-end": dict(method="qdlqa", num_colors=4, n_steps=30, f=0.2,
                                  alpha=ExponentialAlpha(2.0, 3),
                                  include_t_end=True),
    "qdlqa-unpinned": dict(method="qdlqa", num_colors=5, n_steps=60, f=0.1,
                           fix_strategy=None),
    "qdlqa-some-diverge-mid-stage": dict(method="qdlqa", num_colors=5, n_steps=14,
                                         alpha=ConstantAlpha(3), eta=1e307),
    "qdgd-patience": dict(method="qdgd", num_colors=5, n_steps=80, patience=15),
    "qdgd-some-diverge": dict(method="qdgd", num_colors=5, n_steps=40,
                              eta=1e307, patience=40),
    "qdgd-eta-1e308": dict(method="qdgd", num_colors=4, n_steps=50, eta=1e308),
}
GROUP_RUNS = 6


def run_result(rec):
    """Everything a run reports, floats as exact hex."""
    return (rec.run_index, rec.best_energy, rec.steps_executed, rec.diverged,
            rec.best_coloring.tolist(),
            [x.hex() for x in rec.trajectory.e_total.tolist()],
            rec.trajectory.e_potts.tolist())


@lru_cache(maxsize=None)
def single_run_results(case):
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    with np.errstate(over="ignore", invalid="ignore"):
        return [run_result(run_one(queen_graph(5, 5), hp, [i],
                                   record_trajectory=True)[0])
                for i in range(GROUP_RUNS)]


@settings(deadline=None, max_examples=20)
@given(case=st.sampled_from(sorted(GROUP_CASES)),
       order=st.permutations(range(GROUP_RUNS)),
       cuts=st.sets(st.integers(1, GROUP_RUNS - 1)))
def test_grouping_does_not_change_any_run(case, order, cuts):
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    bounds = [0, *sorted(cuts), GROUP_RUNS]
    got = {}
    for lo, hi in zip(bounds, bounds[1:]):
        group = order[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            recs = run_one(queen_graph(5, 5), hp, group, record_trajectory=True)
        assert [r.run_index for r in recs] == group
        got.update((r.run_index, run_result(r)) for r in recs)
    assert [got[i] for i in range(GROUP_RUNS)] == single_run_results(case)


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_batch_runs_match_single_runs_for_any_worker_count(queen55, case):
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    for workers in (1, 2):
        stats = run_batch(queen55, hp, workers=workers, record_trajectories=True)
        assert [run_result(r) for r in stats.records] == single_run_results(case)


def test_group_wall_time_shares_add_up(queen55):
    # runs that stop early hold a smaller share than those that run on
    hp = Hyperparameters(**GROUP_CASES["qdgd-patience"], n_runs=GROUP_RUNS)
    start = time.perf_counter()
    recs = run_qdgd(queen55, hp, range(GROUP_RUNS))
    elapsed = time.perf_counter() - start
    assert 0 < sum(r.wall_time for r in recs) <= elapsed
    by_steps = sorted(recs, key=lambda r: r.steps_executed)
    assert by_steps[0].wall_time < by_steps[-1].wall_time


def test_group_size_rule():
    # about 10^4 angles per group: small graphs step many runs together,
    # large ones one at a time
    assert group_size(24, 5) == 104      # queen5-5, c = 5
    assert group_size(120, 11) == 8      # queen11-11, c = 11
    assert group_size(999, 8) == 1       # G(1000, 0.032), c = 8
    assert group_size(10**6, 2) == 1


def test_runs_are_split_into_near_equal_groups(queen55, monkeypatch):
    groups, calls = [], []
    original = solver._run_group

    def recording(workspace, hp, run_indices, *args):
        groups.append(list(run_indices))
        return original(workspace, hp, run_indices, *args)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(solver, "_run_group", recording)
    for name in ("build_ops", "select_fixed_node"):
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    monkeypatch.setattr(gradient.CostWorkspace, "__init__",
                        counting("CostWorkspace", gradient.CostWorkspace.__init__))
    monkeypatch.setattr(solver, "GROUP_ANGLES", 3 * 24 * 4)
    hp = Hyperparameters(method="qdgd", num_colors=5, n_runs=10, n_steps=20)
    stats = run_batch(queen55, hp, workers=1)
    assert groups == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    assert [r.run_index for r in stats.records] == list(range(10))
    # the operators, the pinned node and the workspace are set up once
    # for the batch, not once per group
    assert sorted(calls) == ["CostWorkspace", "build_ops", "select_fixed_node"]


def test_fix_strategy_none_parameterizes_all_nodes(k3):
    hp = qdlqa_hp(num_colors=3, n_steps=60, fix_strategy=None)
    rec = run_qdlqa(k3, hp, [0])[0]
    assert rec.best_energy == 0


def test_fix_strategy_degree_one():
    g = path(4)
    hp = qdgd_hp(num_colors=2, n_steps=300, fix_strategy="degree_one")
    rec = run_qdgd(g, hp, [1])[0]
    assert rec.best_energy == 0
    assert rec.best_coloring[0] == 0  # node 0 has degree 1 and is pinned


@pytest.mark.slow
def test_qdgd_solves_queen55_in_majority_of_runs(queen55):
    hp = Hyperparameters(method="qdgd", num_colors=5, n_runs=30, master_seed=1)
    recs = run_qdgd(queen55, hp, range(hp.n_runs))
    zeros = sum(r.best_energy == 0 for r in recs)
    assert zeros > hp.n_runs / 2


@pytest.mark.slow
def test_qdlqa_average_conflicts_decrease_over_time(queen1111):
    # statistical trend: late-time conflicts sit below early-time conflicts
    hp = Hyperparameters(method="qdlqa", num_colors=11, f=0.1, n_runs=30,
                         master_seed=19)
    trajs = [r.trajectory for r in run_qdlqa(queen1111, hp, range(hp.n_runs),
                                             record_trajectory=True)]
    e = np.stack([tr.e_potts for tr in trajs]).astype(float)
    t_grid = trajs[0].t
    early = e[:, np.argmin(np.abs(t_grid - 0.2))].mean()
    late = e[:, -1].mean()
    assert late < early
