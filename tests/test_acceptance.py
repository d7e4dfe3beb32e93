"""End-to-end solution-quality gates.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Gates 1-4 reproduce published multi-run statistics on standard
instances; 5-7 are correctness gates; 8 exercises the large-sparse-graph
path, with the real dataset check skipped unless the file is supplied
(set QUDITCOLOR_DATASETS to a directory containing email-Eu-core.txt).
"""

import itertools
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quditcolor.energy import draw_couplings, energy_total, potts_energy
from quditcolor.gradient import CostWorkspace, check_gradient
from quditcolor.graph import load_graph, select_fixed_node
from quditcolor.harness import run_batch, sweep_colors
from quditcolor.qudits import build_ops, lx_ground_state
from quditcolor.solver import Hyperparameters

from instances import (amplitudes, lx_matrix, myciel_graph, padded,
                       qdlqa_start, queen_graph, random_graph)

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def qdlqa(colors, **kw):
    base = dict(method="qdlqa", num_colors=colors, n_steps=1000, gamma=1.0,
                eta=0.5, f=0.0, h=3.0, n_runs=100)
    base.update(kw)
    return Hyperparameters(**base)


def retry_batches(graph, hp, predicate, attempts=3):
    """Run up to ``attempts`` batches with shifted seeds, on two workers;
    first hit wins."""
    stats = None
    for attempt in range(attempts):
        stats = run_batch(graph, replace(hp, master_seed=hp.master_seed + attempt),
                          workers=2)
        if predicate(stats):
            return stats, attempt + 1
    return stats, attempts


def test_criterion_1_easy_rows_exact_reproduction():
    t0 = time.perf_counter()
    myciel = run_batch(myciel_graph(5), qdlqa(6, master_seed=1))
    queen = run_batch(queen_graph(5, 5), qdlqa(5, master_seed=1))
    elapsed = time.perf_counter() - t0
    ok = (myciel.best_overall == 0 and myciel.n_min >= 95
          and queen.best_overall == 0 and queen.n_min >= 80)
    report("criterion 1 (myciel5/queen5-5 exact)",
           ok, f"myciel5 {myciel.n_min}/100 at 0 (need >=95), "
               f"queen5-5 {queen.n_min}/100 at 0 (need >=80), {elapsed:.0f}s")


def test_criterion_2_hard_rows_bounded():
    q11, tries11 = retry_batches(
        queen_graph(11, 11), qdlqa(11, f=0.1, master_seed=1),
        lambda s: s.best_overall <= 13)
    q9, tries9 = retry_batches(
        queen_graph(9, 9), qdlqa(10, master_seed=1),
        lambda s: s.best_overall == 0)
    ok = q11.best_overall <= 13 and q9.best_overall == 0
    report("criterion 2 (queen11-11/queen9-9 bounded)",
           ok, f"queen11-11 best {q11.best_overall} (need <=13, batch {tries11}), "
               f"queen9-9 best {q9.best_overall} in {q9.n_min}/100 "
               f"(need 0, batch {tries9})")


def test_criterion_3_chromatic_bound_sweep():
    result = sweep_colors(queen_graph(11, 11),
                          qdlqa(11, f=0.1, master_seed=5), range(11, 15), workers=2)
    at13 = result.batches.get(13)
    ok = result.chi_upper == 13 and at13 is not None and at13.n_min >= 20
    report("criterion 3 (queen11-11 sweep)",
           ok, f"chi_upper {result.chi_upper} (need 13), "
               f"p_min at 13 = {at13.n_min if at13 else 'n/a'}/100 (need >=20)")


def test_criterion_4_qdgd_termination_statistic():
    hp = Hyperparameters(method="qdgd", num_colors=11, n_steps=1000,
                         patience=100, n_runs=100, master_seed=1)
    stats = run_batch(queen_graph(11, 11), hp)
    mean_steps = float(np.mean([r.steps_executed for r in stats.records]))
    ok = 150.0 <= mean_steps <= 400.0
    report("criterion 4 (qdgd termination)",
           ok, f"mean steps {mean_steps:.2f} over 100 runs (need in [150, 400])")


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(2024)
    cases = [(queen_graph(5, 5), 5, 30), (random_graph(10, 0.5, rng), 3, 70)]
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for graph, c, points in cases:
        fixed = select_fixed_node(graph, "max_degree")
        ws = CostWorkspace(graph, build_ops(c), fixed)
        for _ in range(points):
            angles = rng.uniform(-np.pi, np.pi, size=(graph.num_nodes - 1, c - 1))
            angles = np.insert(padded(angles), fixed, 0.0, axis=0)  # the pinned row
            t = float(rng.uniform(0, 1))
            rep = check_gradient(ws, angles, t, 1.0, draw_couplings(graph, 3.0, [rng])[0],
                                 step=1e-5, tol=1e-4)
            worst = max(worst, rep.max_rel_error)
            checked += 1
            if not rep.passed:
                break
    ok = worst < 1e-4
    report("criterion 5 (gradient vs finite differences)",
           ok, f"{checked} random (state, t) points, max relative error "
               f"{worst:.2e} (need < 1e-4), {time.perf_counter() - t0:.0f}s")


def test_criterion_6_exhaustive_oracle_equivalence():
    rng = np.random.default_rng(42)
    matched = 0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        c = int(rng.integers(2, 4))
        graph = random_graph(n, 0.45, rng)
        exact = min(potts_energy(graph, np.array(assign))
                    for assign in itertools.product(range(c), repeat=n))
        hp = Hyperparameters(method="qdgd", num_colors=c, n_runs=10,
                             master_seed=trial)
        stats = run_batch(graph, hp)
        assert stats.best_overall >= exact, \
            f"solver beat the exhaustive minimum on trial {trial}"
        matched += stats.best_overall == exact
    ok = matched >= 45
    report("criterion 6 (exhaustive-oracle equivalence)",
           ok, f"optimum matched on {matched}/50 instances (need >=45), "
               f"never below it")


def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(7)
    failures = []

    worst_norm = worst_simplex = worst_gs = 0.0
    for c in range(2, 71):
        phi = rng.uniform(-10, 10, size=(3, c - 1))
        psi = amplitudes(padded(phi))
        worst_norm = max(worst_norm,
                         float(np.abs(np.linalg.norm(psi, axis=1) - 1).max()))
        worst_simplex = max(worst_simplex,
                            float(np.abs((psi ** 2).sum(axis=1) - 1).max()))
        w, v = np.linalg.eigh(lx_matrix(c))
        vec = v[:, np.argmax(w)]
        vec = vec if vec.sum() > 0 else -vec
        worst_gs = max(worst_gs, float(np.abs(vec - lx_ground_state(c)).max()))
    if worst_norm > 1e-12:
        failures.append(f"normalization {worst_norm:.1e}")
    if worst_simplex > 1e-12:
        failures.append(f"simplex {worst_simplex:.1e}")
    if worst_gs > 1e-10:
        failures.append(f"ground state {worst_gs:.1e}")

    graph = queen_graph(5, 5)
    off, couplings = build_ops(5), np.ones(graph.num_edges)
    psi = qdlqa_start(graph, 5, 1.0, rng)
    values = {t: energy_total(psi, graph, off, t, 1.1, couplings)
              for t in (0.0, 0.5, 1.0)}
    if abs(values[0.5] - (values[0.0] + values[1.0]) / 2) > 1e-12:
        failures.append("affinity in t")

    for _ in range(200):
        coloring = rng.integers(0, 5, size=graph.num_nodes)
        perm = rng.permutation(5)
        if potts_energy(graph, coloring) != potts_energy(graph, perm[coloring]):
            failures.append("permutation invariance")
            break

    report("criterion 7 (invariant suite)",
           not failures, "all invariants hold" if not failures
           else "violated: " + ", ".join(failures))


def _dataset_path(name: str) -> Path | None:
    root = os.environ.get("QUDITCOLOR_DATASETS")
    candidates = [Path(root) / name if root else None,
                  Path(__file__).resolve().parent.parent / "data" / name]
    for candidate in candidates:
        if candidate is not None and candidate.exists():
            return candidate
    return None


def test_criterion_8_large_sparse_smoke():
    # always-on: the large-c code path runs end to end on a synthetic
    # sparse instance; no solution-quality threshold at this budget
    rng = np.random.default_rng(99)
    graph = random_graph(400, 0.03, rng)
    for method in ("qdlqa", "qdgd"):
        hp = Hyperparameters(method=method, num_colors=12, n_steps=200,
                             n_runs=2, eta=0.1, f=0.1, gamma=0.5,
                             master_seed=3)
        stats = run_batch(graph, hp)
        assert 0.0 <= stats.normalized_error <= 1.0
        assert all(r.best_coloring is not None for r in stats.records)
    report("criterion 8 (large sparse smoke)",
           True, f"synthetic {graph.num_nodes}-node/{graph.num_edges}-edge "
                 f"instance runs end to end with both methods")


def test_criterion_8_email_eu_core_quality():
    path = _dataset_path("email-Eu-core.txt")
    if path is None:
        pytest.skip("email-Eu-core.txt not supplied (set QUDITCOLOR_DATASETS); "
                    "time budget ~5 min when present")
    graph, _ = load_graph(path, fmt="edgelist")
    assert (graph.num_nodes, graph.num_edges) == (986, 16064)
    hp = Hyperparameters(method="qdlqa", num_colors=19, n_steps=1500,
                         gamma=0.5, eta=0.1, f=0.1, h=3.0, n_runs=100,
                         master_seed=1)
    stats = run_batch(graph, hp)
    ok = stats.normalized_error < 0.05
    report("criterion 8 (email-Eu-core quality)",
           ok, f"normalized error {stats.normalized_error:.4f} (need < 0.05), "
               f"best {stats.best_overall}/{graph.num_edges} edges")
