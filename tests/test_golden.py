"""Fixed-seed golden record: exact per-run (run_index, best, steps), the
recorded conflict counts of two short runs, and digests of the fused
kernel's gradient bytes and of the gradient-descent start angles.

Any refactor or speed-up of the drivers, the fused kernel, Adam or the
initial states must leave these values unchanged.  Budgets are short so
the whole file runs in well under a second.
"""

import hashlib

import numpy as np
import pytest

from quditcolor.gradient import CostWorkspace
from quditcolor.graph import select_fixed_node
from quditcolor.harness import run_batch
from quditcolor.qudits import build_ops, forward, init_qdgd_state
from quditcolor.solver import ExponentialAlpha, Hyperparameters

from instances import angles_with_poles, myciel_graph, padded, queen_graph

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


# Recorded trajectories of one run each, queen5-5 at c = 4 < chi: the
# conflict count of every stage.
TRAJECTORY_CASES = {
    "queen5-5-qdlqa-exp-t-end": (
        dict(method="qdlqa", num_colors=4, n_steps=20, f=0.2,
             alpha=ExponentialAlpha(2.0, 3), include_t_end=True),
        [59, 68, 56, 62, 29, 35, 37, 34, 25, 25, 20, 16, 13, 13, 13, 13, 13, 13,
         13, 13, 13]),
    "queen5-5-qdgd": (
        dict(method="qdgd", num_colors=4, n_steps=20, patience=20),
        [34, 30, 25, 27, 21, 24, 24, 22, 21, 19, 17, 16, 15, 13, 13, 13, 13, 13,
         13, 13]),
}


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_golden_trajectory_costs(case):
    kw, e_potts = TRAJECTORY_CASES[case]
    hp = Hyperparameters(**kw, n_runs=1, master_seed=7)
    stats = run_batch(queen_graph(5, 5), hp, record_trajectories=True)
    assert stats.records[0].trajectory.tolist() == e_potts


# sha256 of ``value_and_grad``'s gradient bytes on queen3-3, one digest per
# (c, t) over k in (1, 3) runs, each unpinned and then with the max-degree
# node pinned.  c = 2 and 3 run the backward recursion's loop zero times and
# once; 5, 8 and 11 are the bench widths.  The angles at the poles give the
# gradient signed zeros.
GRADIENT_DIGESTS = {
    (2, 0.0): "603058d100935b773bf30270c698552e109cbf98f7a4ae41264b82722d0bb421",
    (2, 0.4): "5bcd0e2788c7ac7f7c8eceb180bff1bf1b47a69773c365a55296bd9e18d8c7b3",
    (2, 1.0): "82dc78cb17895931a4dc5cc3517cbeaf22d018195ed6679bb984860325695fa3",
    (3, 0.0): "e883a4532065771ebc07b956170cfd2eb917dca53295585a245b708370e47a86",
    (3, 0.4): "caa7bf7a735eb59e9409f45ea43ac89c24c158fd9ebcee1783f1a995590589c8",
    (3, 1.0): "2282e49db42c5be5c57405886e365b82d25ae0a97c541ba61258e8c7a69b1121",
    (5, 0.0): "1aaa134a2d219f999db5a2931bbcfe9428310e0f7b9acf6d32378e6eba00fe26",
    (5, 0.4): "30fdbccfd21b06ed145ff312c648271fc631cd6fcc91723166b94cadac50278f",
    (5, 1.0): "688f1f4b20d799017fffa018bea2c9a878c45d6031236b60423af5f1a5a2bfb8",
    (8, 0.0): "260ac0fb8176ac4477baa7468a53621232a9ff590e9947e269efcdea41abaee2",
    (8, 0.4): "97399978fde97b54081ced206c53a80fef6ddca4459aa7ffa46f3a5ceeb34470",
    (8, 1.0): "c79acb0a56a1dc9cba0dbc15450e1bcb3f5a46f84746f96b265d1f25dd4d7a32",
    (11, 0.0): "eb8d342bb4fe9f3a1243a89565ece9b047b06d8d8e72cb253f0712a3a1114018",
    (11, 0.4): "4b0232c8d86b82861c66bb8f9436ca6845db32b4ece0d2dc1e943dd7a0c1e6de",
    (11, 1.0): "936a6ef02a68112a7a3671a8a4bec7d8a84fd35b0fba7e505e01e1beafd089e6",
}


def gradient_bytes(c, t):
    g = queen_graph(3, 3)
    rng = np.random.default_rng(c)
    angles = padded(angles_with_poles(rng, (3, g.num_nodes, c - 1)))
    hvals = rng.uniform(0.0, 0.5, size=(3, g.num_edges))
    out = b""
    for runs in (1, 3):
        for fixed in (None, select_fixed_node(g, "max_degree")):
            phi = angles[:runs].copy()
            if fixed is not None:
                phi[:, fixed] = 0.0
            ws = CostWorkspace(g, build_ops(c), fixed, copies=3)
            grad = ws.value_and_grad(forward(phi), t, 0.9, hvals[:runs])
            assert grad.shape == phi.shape and grad.dtype == np.float64
            out += grad.tobytes()
    return out


@pytest.mark.parametrize("c, t", sorted(GRADIENT_DIGESTS))
def test_golden_gradient_bytes(c, t):
    assert hashlib.sha256(gradient_bytes(c, t)).hexdigest() == GRADIENT_DIGESTS[c, t]


# sha256 of ``init_qdgd_state``'s angle bytes per (n_free, c, k, seed), the
# k blocks drawn from default_rng([seed, i]) for i < k.  Captured when each
# row was drawn as uniform(0, 1), which is 0 + 1*u for the double u that
# ``random`` returns: the start of every qdgd run.
START_DIGESTS = {
    (1, 2, 1, 0): "b002f4074c6472eacfcb1b2e08f84ad04f6d24c53b19b3226f99cadf4f605527",
    (24, 5, 3, 7): "f90beacb60f4cfee4f56ce7d2c53f30882c1f77efa0ed21b030723d729ebcf3b",
    (120, 11, 2, 3): "c1fe5aa0d424990f8fa4f2e1a86ff86f7052cbfa8f7af47b9018623a723fb3ef",
    (999, 8, 4, 11): "a8f74b9cea007cc41a7f1d503acf9a6808e1d82fad173207afe1cbc75065d2d8",
}


@pytest.mark.parametrize("n_free, c, k, seed", sorted(START_DIGESTS))
def test_golden_qdgd_start_bytes(n_free, c, k, seed):
    rngs = [np.random.default_rng([seed, i]) for i in range(k)]
    angles = init_qdgd_state(n_free, c, rngs)
    assert angles.shape == (k, n_free, c)
    assert hashlib.sha256(angles.tobytes()).hexdigest() == \
        START_DIGESTS[n_free, c, k, seed]
