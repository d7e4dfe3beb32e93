"""Fixed-seed golden record: exact per-run (run_index, best, steps).

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
