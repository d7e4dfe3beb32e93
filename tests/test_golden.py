"""Fixed-seed golden record: exact per-run (run_index, best, steps), and
the exact recorded costs of two short runs.

Any refactor or speed-up of the drivers, the fused kernel, Adam or the
initial states must leave these values unchanged.  Budgets are short so
the whole file runs in well under a second.
"""

import pytest

from quditcolor.harness import run_batch
from quditcolor.solver import ExponentialAlpha, Hyperparameters

from instances import myciel_graph, queen_graph

GRAPHS = {"queen5-5": lambda: queen_graph(5, 5), "myciel5": lambda: myciel_graph(5)}

CASES = {
    "queen5-5-qdlqa": (
        "queen5-5", dict(method="qdlqa", num_colors=5, n_steps=150, f=0.1),
        [(0, 0, 82), (1, 0, 79), (2, 0, 77), (3, 0, 72)]),
    # c = 4 < chi: every run takes the whole exponential schedule plus t = 1
    "queen5-5-qdlqa-exp-t-end": (
        "queen5-5", dict(method="qdlqa", num_colors=4, n_steps=40, f=0.2,
                         alpha=ExponentialAlpha(2.0, 3), include_t_end=True),
        [(0, 13, 95), (1, 13, 95), (2, 13, 95), (3, 13, 95)]),
    "queen5-5-qdgd": (
        "queen5-5", dict(method="qdgd", num_colors=5, n_steps=150, patience=30),
        [(0, 4, 49), (1, 0, 14), (2, 4, 72), (3, 0, 60)]),
    "myciel5-qdlqa": (
        "myciel5", dict(method="qdlqa", num_colors=6, n_steps=150, f=0.1),
        [(0, 0, 85), (1, 0, 116), (2, 0, 91), (3, 0, 78)]),
    "myciel5-qdgd-unfixed": (
        "myciel5", dict(method="qdgd", num_colors=6, n_steps=150, patience=30,
                        fix_strategy=None),
        [(0, 0, 13), (1, 0, 6), (2, 0, 21), (3, 0, 36)]),
    # c = 5 < chi: every run ends on the patience stop
    "myciel5-qdgd-c5": (
        "myciel5", dict(method="qdgd", num_colors=5, n_steps=150, patience=30),
        [(0, 1, 45), (1, 1, 43), (2, 1, 39), (3, 1, 45)]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_per_run_results(case):
    graph_name, kw, expected = CASES[case]
    hp = Hyperparameters(**kw, n_runs=4, master_seed=7)
    stats = run_batch(GRAPHS[graph_name](), hp)
    got = [(r.run_index, r.best_energy, r.steps_executed) for r in stats.records]
    assert got == expected


# Recorded trajectories of one run each, queen5-5 at c = 4 < chi: the cost
# of every stage's last step as exact hex, and the stage's conflict count.
TRAJECTORY_CASES = {
    "queen5-5-qdlqa-exp-t-end": (
        dict(method="qdlqa", num_colors=4, n_steps=20, f=0.2,
             alpha=ExponentialAlpha(2.0, 3), include_t_end=True),
        ["-0x1.14cebe4d5140bp+5", "-0x1.45f3e049208bdp+3", "-0x1.3e5afa8aa5601p+4",
         "-0x1.051ec4bd73066p+4", "-0x1.86cb4c39f9452p+2", "-0x1.3e9bd93b75d60p+2",
         "-0x1.f4ae12407a8e0p-1", "0x1.5b191b11ab1c0p+1", "0x1.c36b3f2979e68p+2",
         "0x1.76b42f624b3a4p+3", "0x1.8ba89e7bdca38p+3", "0x1.00561cbc786e9p+4",
         "0x1.1349df6e0fcb3p+4", "0x1.117aa424d5514p+4", "0x1.40b6afbc99c4bp+4",
         "0x1.7833712fe4701p+4", "0x1.98aa88e524fb4p+4", "0x1.8ab8386a2c3c1p+4",
         "0x1.ef03fe9fd41cap+4", "0x1.021803d6d65afp+5", "0x1.bda7e7b7e0ee0p+4"],
        [59, 68, 56, 62, 29, 35, 37, 34, 25, 25, 20, 16, 13, 13, 13, 13, 13, 13,
         13, 13, 13]),
    "queen5-5-qdgd": (
        dict(method="qdgd", num_colors=4, n_steps=20, patience=20),
        ["0x1.2dfc46e6b734ap+6", "0x1.3edc1885d5459p+6", "0x1.0729e37836a68p+6",
         "0x1.dfb9ea3f3f0f0p+5", "0x1.a63dcef9574dep+5", "0x1.a2bfba9c17d21p+5",
         "0x1.e23276df8c8bcp+5", "0x1.b9b12fa771ef1p+5", "0x1.98552c4adfefep+5",
         "0x1.7b9ee67486c0fp+5", "0x1.7c91c61e0f6c9p+5", "0x1.6aeb45346c65ep+5",
         "0x1.59fc0a7fdc1d4p+5", "0x1.37ad29795523bp+5", "0x1.368a32ccdec18p+5",
         "0x1.2ed00dceac3b2p+5", "0x1.233852bd113e1p+5", "0x1.04ca824026aa7p+5",
         "0x1.28a95b28e39f4p+5", "0x1.2aa18c0cb5e5ep+5"],
        [34, 30, 25, 27, 21, 24, 24, 22, 21, 19, 17, 16, 15, 13, 13, 13, 13, 13,
         13, 13]),
}


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_golden_trajectory_costs(case):
    kw, e_total, e_potts = TRAJECTORY_CASES[case]
    hp = Hyperparameters(**kw, n_runs=1, master_seed=7)
    stats = run_batch(queen_graph(5, 5), hp, record_trajectories=True)
    trajectory = stats.records[0].trajectory
    assert [x.hex() for x in trajectory.e_total.tolist()] == e_total
    assert trajectory.e_potts.tolist() == e_potts
