import hashlib
import json
import math
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditcolor import gradient, solver
from quditcolor.energy import draw_couplings, extract_coloring, potts_energy
from quditcolor.harness import DivergedError, hp_to_dict, run_batch
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.solver import (ConstantAlpha, ExponentialAlpha,
                               Hyperparameters, group_size,
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
    assert ConstantAlpha(1).steps_at(0.0) == 1
    assert ConstantAlpha(4).steps_at(0.77) == 4
    exp = ExponentialAlpha(rate=2.0, cap=7)
    assert exp.steps_at(0.0) == 1
    assert exp.steps_at(0.5) == 3  # e ~ 2.72 rounds up
    assert exp.steps_at(1.0) == 7  # e^2 ~ 7.39 rounds down to the cap
    with pytest.raises(ValueError):
        ConstantAlpha(0)


def test_alpha_at_caps_an_overflowing_exponent():
    # exp(980) overflows a float; the cap is what the schedule asks for
    assert ExponentialAlpha(1000, 7).steps_at(0.98) == 7
    assert ExponentialAlpha(1000, 7).steps_at(0.0) == 1
    assert ExponentialAlpha(-1000, 7).steps_at(1.0) == 1


@pytest.mark.parametrize("method", ["qdlqa", "qdgd"])
@pytest.mark.parametrize("alpha", [3, "exp:2:7"])
def test_alpha_that_is_no_schedule_raises_at_construction(method, alpha):
    # for qdgd, which never reads alpha, too: it would go into the stats JSON
    message = ("alpha must be a ConstantAlpha or ExponentialAlpha schedule, "
               f"got {alpha!r}")
    with pytest.raises(ValueError) as caught:
        Hyperparameters(method=method, num_colors=3, alpha=alpha)
    assert str(caught.value) == message


_COUNTS = ["num_colors", "n_steps", "n_runs", "patience", "master_seed"]


@pytest.mark.parametrize("name", _COUNTS)
@pytest.mark.parametrize("value", [3.0, 20.5, True])
def test_count_that_is_no_integer_raises_at_construction(name, value):
    # a float count failed inside the run, a float patience or a bool
    # n_steps ran; all of them would go into the stats JSON as given
    with pytest.raises(ValueError) as caught:
        Hyperparameters(**{"method": "qdgd", "num_colors": 3, name: value})
    assert str(caught.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name", _COUNTS)
def test_numpy_integer_count_is_stored_as_int(name):
    hp = Hyperparameters(**{"method": "qdgd", "num_colors": 3, name: np.int64(3)})
    assert type(getattr(hp, name)) is int
    assert json.loads(json.dumps(hp_to_dict(hp)))[solver.SETTING_NAMES[name]] == 3


@pytest.mark.parametrize("name, value, message", [
    # "no" is truthy: it added the t = 1 stage and was recorded as "no"
    ("include_t_end", "no", "include_t_end must be True or False, got 'no'"),
    ("include_t_end", 1, "include_t_end must be True or False, got 1"),
    ("gamma", True, "gamma must be a real number, got True"),
    ("eta", "0.5", "eta must be a real number, got '0.5'"),
    ("h", None, "h must be a real number, got None"),
])
def test_setting_of_another_type_raises_at_construction(name, value, message):
    with pytest.raises(ValueError) as caught:
        Hyperparameters(**{"method": "qdlqa", "num_colors": 3, name: value})
    assert str(caught.value) == message


@pytest.mark.parametrize("name, value, stored", [
    ("gamma", np.float32(0.5), 0.5), ("h", 2, 2.0), ("f", np.int64(1), 1.0),
    ("eta", np.float64(0.25), 0.25), ("include_t_end", np.bool_(True), True),
])
def test_setting_is_stored_as_its_declared_type(name, value, stored):
    hp = Hyperparameters(**{"method": "qdlqa", "num_colors": 3, name: value})
    assert type(getattr(hp, name)) is type(stored)
    assert getattr(hp, name) == stored
    assert json.loads(json.dumps(hp_to_dict(hp)))[name] == stored


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantAlpha(2.5), "alpha must be an integer, got 2.5"),
    (lambda: ConstantAlpha(True), "alpha must be an integer, got True"),
    (lambda: ExponentialAlpha(2.0, 2.5), "alpha cap must be an integer, got 2.5"),
    (lambda: ExponentialAlpha(2.0, 7.0), "alpha cap must be an integer, got 7.0"),
    (lambda: ExponentialAlpha(True, 7), "alpha rate must be a real number, got True"),
    (lambda: ExponentialAlpha("2", 7), "alpha rate must be a real number, got '2'"),
])
def test_alpha_schedule_of_another_type_raises(make, message):
    # a float count constructed, then failed mid-run; "exp:2:2.5" read back
    # from no spec
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_alpha_schedule_stores_plain_numbers():
    constant = ConstantAlpha(np.int64(2))
    exponential = ExponentialAlpha(np.int64(2), np.int32(7))
    assert type(constant.steps) is int
    assert (type(exponential.rate), type(exponential.cap)) == (float, int)
    assert exponential.spec == "exp:2:7"
    for alpha in (constant, exponential):
        hp = Hyperparameters(method="qdlqa", num_colors=3, alpha=alpha)
        assert parse_alpha(json.loads(json.dumps(hp_to_dict(hp)))["alpha"]) == alpha


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
    # a part that is not a number is named, not Python's conversion message
    for bad, message in [
            ("exp:x:7", "bad alpha schedule 'exp:x:7': alpha rate must be a "
                        "number, got 'x'"),
            ("exp:2:2.5", "bad alpha schedule 'exp:2:2.5': alpha cap must be "
                          "an integer, got '2.5'"),
            ("exp:2:", "bad alpha schedule 'exp:2:': alpha cap must be an "
                       "integer, got ''"),
            ("fast", "alpha must be an integer or exp:RATE:CAP, got 'fast'")]:
        with pytest.raises(ValueError) as caught:
            parse_alpha(bad)
        assert str(caught.value) == message


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
    assert rec.trajectory.t.size == rec.trajectory.e_potts.size == 50
    assert rec.trajectory.t[0] == 0.0
    assert rec.trajectory.t[-1] == pytest.approx(49 / 50)  # t < 1 loop guard


def test_qdgd_trajectory_t_is_the_end_time(queen55):
    # every qdgd stage steps on the end cost, t = 1
    hp = qdgd_hp(num_colors=4, n_steps=30)
    for rec in run_qdgd(queen55, hp, [0, 1, 2], record_trajectory=True):
        assert rec.trajectory.t.size == rec.steps_executed
        assert (rec.trajectory.t == 1.0).all()


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
    np.testing.assert_array_equal(a.trajectory.e_potts, b.trajectory.e_potts)
    c = run_qdlqa(queen55, hp, [3], record_trajectory=True)[0]
    assert not np.array_equal(c.trajectory.e_potts, a.trajectory.e_potts)


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
    expected = sum(hp.alpha.steps_at(i / n) for i in range(n))
    assert rec.steps_executed == expected


def test_diverging_run_stops_and_is_marked(queen55):
    # the first Adam step overflows the angles, so the first readout is of
    # non-finite angles and is not counted: the run has no best at all
    # ... silently: numpy's floating-point warnings would be errors here
    hp = qdgd_hp(num_colors=4, n_steps=50, eta=1e308)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_qdgd(queen55, hp, [0], record_trajectory=True)[0]
    assert rec.diverged
    assert rec.steps_executed == 1
    assert rec.best_energy is None and rec.best_coloring is None
    assert rec.trajectory.e_potts.dtype == np.int64
    assert rec.trajectory.t.size == rec.trajectory.e_potts.size == 0
    assert not run_qdgd(queen55, qdgd_hp(num_colors=4, n_steps=50), [0])[0].diverged


@pytest.mark.parametrize("method, settings", [
    ("qdlqa", dict(num_colors=4, n_steps=40, alpha=ExponentialAlpha(2.0, 3))),
    ("qdlqa", dict(num_colors=4, n_steps=40)),
    ("qdgd", dict(num_colors=3, n_steps=1000, patience=10)),
    ("qdgd", dict(num_colors=4, n_steps=50, eta=1e308)),
], ids=["qdlqa-exp-alpha", "qdlqa-constant-alpha", "qdgd-early-stop",
        "qdgd-diverged"])
def test_one_forward_map_per_step(queen55, monkeypatch, method, settings):
    original = solver.forward
    calls = []

    def counting_forward(phi):
        calls.append(1)
        return original(phi)

    monkeypatch.setattr(solver, "forward", counting_forward)
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
# with others, with angles that went non-finite at a stage's last step or
# before it, and before or after a first finite readout; and with h = 0,
# no coupling noise to draw.
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
    "qdgd-h0": dict(method="qdgd", num_colors=5, n_steps=60, h=0.0, patience=20),
}
GROUP_RUNS = 6


def run_result(rec):
    """Everything a run reports, t as exact hex."""
    coloring = rec.best_coloring
    return (rec.run_index, rec.best_energy, rec.steps_executed, rec.diverged,
            None if coloring is None else coloring.tolist(),
            [x.hex() for x in rec.trajectory.t.tolist()],
            rec.trajectory.e_potts.tolist())


@contextmanager
def gradient_digests():
    """While open, each ``value_and_grad`` call appends the sha256 of each
    run's row of its gradient, in the group's order, to the yielded list."""
    calls = []
    original = gradient.CostWorkspace.value_and_grad

    def recording(self, *args):
        gphi = original(self, *args)
        calls.append([hashlib.sha256(row.tobytes()).hexdigest() for row in gphi])
        return gphi

    with mock.patch.object(gradient.CostWorkspace, "value_and_grad", recording):
        yield calls


def digests_by_run(recs, calls):
    """Each run's gradient digest at every step it took: call s holds a row
    for each run of the group with more than s steps, in group order."""
    digests = {rec.run_index: [] for rec in recs}
    for s, rows in enumerate(calls):
        active = [rec.run_index for rec in recs if rec.steps_executed > s]
        assert len(active) == len(rows)
        for index, row in zip(active, rows):
            digests[index].append(row)
    return digests


@lru_cache(maxsize=None)
def single_run_results(case):
    """Each run alone, drawing its couplings one step at a time: its
    ``run_result`` and its gradient digests, by run."""
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    results, digests = [], {}
    for i in range(GROUP_RUNS):
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(solver, "DRAW_BUDGET", 1), \
                gradient_digests() as calls:
            recs = run_one(queen_graph(5, 5), hp, [i], record_trajectory=True)
        results.append(run_result(recs[0]))
        digests.update(digests_by_run(recs, calls))
    return results, digests


@settings(deadline=None, max_examples=30)
@given(case=st.sampled_from(sorted(GROUP_CASES)),
       order=st.permutations(range(GROUP_RUNS)),
       cuts=st.sets(st.integers(1, GROUP_RUNS - 1)),
       block=st.integers(1, 80))
def test_grouping_does_not_change_any_run(case, order, cuts, block):
    # a group's first coupling block is `block` steps, from one step to
    # past the longest run (72 steps); blocks grow as runs leave
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    graph = queen_graph(5, 5)
    # every run's gradient at every step, not only its readouts, is
    # compared bit for bit
    bounds = [0, *sorted(cuts), GROUP_RUNS]
    got, digests = {}, {}
    for lo, hi in zip(bounds, bounds[1:]):
        group = order[lo:hi]
        budget = block * len(group) * graph.num_edges
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(solver, "DRAW_BUDGET", budget), \
                gradient_digests() as calls:
            recs = run_one(graph, hp, group, record_trajectory=True)
        assert [r.run_index for r in recs] == group
        got.update((r.run_index, run_result(r)) for r in recs)
        digests.update(digests_by_run(recs, calls))
    assert ([got[i] for i in range(GROUP_RUNS)], digests) == single_run_results(case)


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_batch_runs_match_single_runs_for_any_worker_count(queen55, case):
    # pool workers do not see a patched kernel, so only the records are
    # compared here
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    expected, _ = single_run_results(case)
    for workers in (1, 2):
        if all(diverged for _, _, _, diverged, *_ in expected):
            # a batch without one finite run has no result
            with pytest.raises(DivergedError,
                               match=f"^all {GROUP_RUNS} runs diverged"):
                run_batch(queen55, hp, workers=workers)
            continue
        stats = run_batch(queen55, hp, workers=workers, record_trajectories=True)
        assert [run_result(r) for r in stats.records] == expected


@pytest.mark.parametrize("case", ["qdlqa-some-diverge-mid-stage",
                                  "qdgd-some-diverge", "qdgd-eta-1e308"])
def test_diverged_runs_keep_only_finite_readouts(queen55, case):
    hp = Hyperparameters(**GROUP_CASES[case], n_runs=GROUP_RUNS)
    with np.errstate(over="ignore", invalid="ignore"):
        recs = run_one(queen55, hp, range(GROUP_RUNS), record_trajectory=True)
    assert any(r.diverged for r in recs)
    inner = hp.alpha.steps if hp.method == "qdlqa" else 1
    for rec in recs:
        # a row per stage taken, but for a diverged run's last readout
        assert rec.trajectory.e_potts.size == rec.steps_executed // inner - rec.diverged
        if rec.best_coloring is None:
            assert rec.diverged and rec.best_energy is None
            assert rec.trajectory.e_potts.size == 0
            continue
        assert potts_energy(queen55, rec.best_coloring) == rec.best_energy
        assert rec.best_energy == rec.trajectory.e_potts.min()


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
    assert group_size(25, 5) == 100      # queen5-5, c = 5
    assert group_size(121, 11) == 8      # queen11-11, c = 11
    assert group_size(1000, 8) == 1      # G(1000, 0.032), c = 8
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
    monkeypatch.setattr(solver, "GROUP_ANGLES", 3 * 25 * 4)
    hp = Hyperparameters(method="qdgd", num_colors=5, n_runs=10, n_steps=20)
    stats = run_batch(queen55, hp, workers=1)
    assert groups == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    assert [r.run_index for r in stats.records] == list(range(10))
    # the operators, the pinned node and the workspace are set up once
    # for the batch, not once per group
    assert sorted(calls) == ["CostWorkspace", "build_ops", "select_fixed_node"]


@pytest.mark.parametrize("method", ["qdlqa", "qdgd"])
def test_solver_calls_its_layers_by_module_name(queen55, monkeypatch, method):
    # the bench tracer patches these names in the solver module, so the
    # solver must look them up there at call time; per group there is one
    # init call, one draw per run per coupling block and one Potts count
    # per stage
    calls = {}

    def counting(name):
        function = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        return counted

    init = f"init_{method}_state"
    for name in (init, "draw_couplings", "potts_energy"):
        monkeypatch.setattr(solver, name, counting(name))
    # 4 colors cannot color queen5-5, so every run takes all 30 steps
    hp = Hyperparameters(method=method, num_colors=4, n_steps=30, patience=30,
                         n_runs=3)
    monkeypatch.setattr(solver, "DRAW_BUDGET", 7 * 3 * queen55.num_edges)
    recs = run_one(queen55, hp, range(3))
    assert [r.steps_executed for r in recs] == [30] * 3
    assert calls == {init: 1, "draw_couplings": 3 * math.ceil(30 / 7),
                     "potts_energy": 30}


@pytest.mark.parametrize("graph, hp", [
    (triangle(), Hyperparameters(method="qdgd", num_colors=2, n_steps=60,
                                 patience=60, n_runs=1)),
    (queen_graph(5, 5), Hyperparameters(method="qdgd", num_colors=4, n_steps=5,
                                        n_runs=100)),
], ids=["one-run-3-edges", "queen5-5-100-runs"])
def test_coupling_draws_stop_at_the_step_budget(monkeypatch, graph, hp):
    # a block of draws is never longer than the steps its group has left:
    # a run draws at most one row of couplings per step it may take
    rows = {}

    def counting(graph, h, rng, out=None):
        rows[id(rng)] = rows.get(id(rng), 0) + out.size // graph.num_edges
        return draw_couplings(graph, h, rng, out=out)

    monkeypatch.setattr(solver, "draw_couplings", counting)
    recs = run_one(graph, hp, range(hp.n_runs))
    assert len(rows) == hp.n_runs
    assert max(rows.values()) <= hp.n_steps
    assert max(r.steps_executed for r in recs) == hp.n_steps


@pytest.mark.parametrize("runner, method, other",
                         [(run_qdlqa, "qdlqa", "qdgd"), (run_qdgd, "qdgd", "qdlqa")])
def test_drivers_reject_the_other_method(k3, runner, method, other):
    # a driver that ran its own method anyway would leave the other one's
    # name in the stats JSON
    hp = Hyperparameters(method=other, num_colors=3, n_steps=50)
    with pytest.raises(ValueError) as caught:
        runner(k3, hp, [0])
    assert str(caught.value) == f"run_{method} needs method {method!r}, got {other!r}"


@pytest.mark.parametrize("method, colors, n_steps", [("qdgd", 2, 10**6),
                                                     ("qdlqa", 3, 10**5)])
def test_stages_are_built_as_the_loop_reaches_them(k3, method, colors, n_steps):
    # a run that stops after a few dozen steps pays for those, not for its
    # whole budget: no list of all stages, no draw block past 256 KiB
    hp = Hyperparameters(method=method, num_colors=colors, n_steps=n_steps,
                         patience=20)
    tracemalloc.start()
    try:
        rec = run_one(k3, hp, [0])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.steps_executed < 30
    assert peak < 2**20


@pytest.mark.parametrize("alpha", [ConstantAlpha(1), ConstantAlpha(3),
                                   parse_alpha("exp:2:7")],
                         ids=["1", "3", "exp:2:7"])
@pytest.mark.parametrize("include_t_end", [False, True])
def test_stages_on_demand_equal_the_stage_list(alpha, include_t_end):
    hp = qdlqa_hp(n_steps=1000, f=0.2, alpha=alpha, include_t_end=include_t_end)
    schedule = solver._schedule(hp)
    built = [schedule.stage(n) for n in range(schedule.count)]
    # the list the drivers built before the first step
    n_stages = hp.n_steps + 1 if include_t_end else hp.n_steps
    expected = [(t, alpha.steps_at(t))
                for t in (n / hp.n_steps for n in range(n_stages))]
    assert built == expected
    assert schedule.total_steps == sum(inner for _, inner in expected)
    assert (schedule.init, schedule.scale, schedule.patience) == \
        (solver.init_qdlqa_state, 0.2, math.inf)

    schedule = solver._schedule(qdgd_hp(n_steps=1000, f_tilde=0.3, patience=7))
    built = [schedule.stage(n) for n in range(schedule.count)]
    assert built == [(1.0, 1)] * 1000
    assert schedule.total_steps == 1000
    assert (schedule.init, schedule.scale, schedule.patience) == \
        (solver.init_qdgd_state, 0.3, 7)


@settings(deadline=None, max_examples=200)
@given(rate=st.floats(allow_nan=False, allow_infinity=False),
       cap=st.integers(1, 40), n_steps=st.integers(1, 500),
       include_t_end=st.booleans())
@example(rate=-2.0, cap=7, n_steps=100, include_t_end=True)
@example(rate=0.0, cap=7, n_steps=100, include_t_end=False)
@example(rate=1000.0, cap=7, n_steps=100, include_t_end=True)
@example(rate=2.0, cap=1, n_steps=100, include_t_end=False)
@example(rate=2.0, cap=7, n_steps=1, include_t_end=True)
def test_schedule_total_steps_equal_the_sum_over_stages(rate, cap, n_steps,
                                                        include_t_end):
    alpha = ExponentialAlpha(rate, cap)
    hp = qdlqa_hp(n_steps=n_steps, alpha=alpha, include_t_end=include_t_end)
    schedule = solver._schedule(hp)
    assert schedule.total_steps == sum(alpha.steps_at(n / n_steps)
                                       for n in range(schedule.count))


def test_step_total_costs_no_call_per_stage_of_the_budget(k3, monkeypatch):
    # the run solves in 10 steps; the total of a 10^5-stage budget is found
    # with a bisect per step value, not with one steps_at call per stage
    calls = []
    steps_at = ExponentialAlpha.steps_at

    def counting(self, t):
        calls.append(t)
        return steps_at(self, t)

    monkeypatch.setattr(ExponentialAlpha, "steps_at", counting)
    hp = qdlqa_hp(n_steps=10**5, alpha=parse_alpha("exp:2:7"))
    rec = run_qdlqa(k3, hp, [0])[0]
    assert (rec.best_energy, rec.steps_executed) == (0, 10)
    assert len(calls) < 500


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
