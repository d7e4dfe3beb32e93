import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcolor import energy
from quditcolor.energy import (draw_couplings, energy_final, energy_initial,
                               energy_total, energy_weight, extract_coloring,
                               potts_energy)
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.qudits import build_ops

from instances import amplitudes, qdlqa_start, queen_graph, random_graph, triangle


def psi_from_probabilities(rows):
    """Amplitude matrix whose rows have the given color probabilities."""
    return np.sqrt(np.asarray(rows, dtype=float))


def brute_force_conflicts(graph, coloring):
    return sum(1 for u, v in graph.edges.tolist() if coloring[u] == coloring[v])


def test_extract_coloring_argmax_and_ties():
    psi = psi_from_probabilities([[0.1, 0.7, 0.2]])
    assert extract_coloring(psi).tolist() == [1]
    psi = psi_from_probabilities([[0.5, 0.5]])
    assert extract_coloring(psi).tolist() == [0]


def test_extract_coloring_qdlqa_start(k3):
    colors = extract_coloring(qdlqa_start(k3, 3, 0.0, np.random.default_rng(0)))
    fixed = select_fixed_node(k3, "max_degree")
    assert colors[fixed] == 0
    assert np.delete(colors, fixed).tolist() == [1, 1]  # center of (1/4,1/2,1/4)


def test_potts_energy_small_cases(k3):
    assert potts_energy(k3, np.array([0, 0, 0])) == 3
    assert potts_energy(k3, np.array([0, 1, 2])) == 0


def test_potts_energy_queen55_known_coloring():
    g = queen_graph(5, 5)
    coloring = np.array([(r + 2 * c) % 5 for r in range(5) for c in range(5)])
    assert potts_energy(g, coloring) == 0


def test_potts_energy_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(int(rng.integers(3, 11)), 0.5, rng)
        for _ in range(50):
            coloring = rng.integers(0, 4, size=g.num_nodes)
            assert potts_energy(g, coloring) == brute_force_conflicts(g, coloring)


def test_potts_energy_color_permutation_invariance():
    rng = np.random.default_rng(2)
    g = queen_graph(5, 5)
    for _ in range(25):
        coloring = rng.integers(0, 5, size=g.num_nodes)
        perm = rng.permutation(5)
        assert potts_energy(g, coloring) == potts_energy(g, perm[coloring])


# stacks on both sides of the switch from row-by-row counts to one gather
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 2 * energy._GATHER_MIN_ROWS), c=st.integers(2, 6),
       which=st.sampled_from(["triangle", "queen4-4", "queen11-11", "random"]))
def test_potts_energy_of_a_stack_is_one_count_per_row(seed, rows, c, which):
    g = {"triangle": triangle, "queen4-4": lambda: queen_graph(4, 4),
         "queen11-11": lambda: queen_graph(11, 11),
         "random": lambda: random_graph(12, 0.3, np.random.default_rng(2))}[which]()
    stack = np.random.default_rng(seed).integers(0, c, (rows, g.num_nodes))
    counts = potts_energy(g, stack)
    assert all(type(count) is int for count in counts)
    assert counts == [potts_energy(g, row) for row in stack]


def test_potts_energy_length_check(k3):
    with pytest.raises(ValueError):
        potts_energy(k3, np.array([0, 1]))
    with pytest.raises(ValueError):
        potts_energy(k3, np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        potts_energy(k3, np.zeros((1, 1, 3), dtype=int))


def test_energy_initial_ground_states():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    off = build_ops(3)
    psi = qdlqa_start(g, 3, 0.0, np.random.default_rng(0))
    assert energy_initial(psi, off) == pytest.approx(-3.0, abs=1e-12)


def test_energy_initial_basis_state_and_rotation():
    off = build_ops(2)
    one_hot = amplitudes(np.array([[np.pi / 2, 0.0]]))  # (0, 1)
    assert energy_initial(one_hot, off) == pytest.approx(0.0, abs=1e-12)
    rotated = amplitudes(np.array([[np.pi / 4, 0.0]]))
    assert energy_initial(rotated, off) == pytest.approx(-0.5)


def test_energy_final_orthogonal_and_identical():
    g = Graph.from_edges(2, [(0, 1)])
    rng = np.random.default_rng(0)
    apart = psi_from_probabilities([[1, 0, 0], [0, 1, 0]])
    assert energy_final(apart, g, draw_couplings(g, 5.0, [rng])[0]) == pytest.approx(0.0)
    together = psi_from_probabilities([[0, 1, 0], [0, 1, 0]])
    assert energy_final(together, g, np.ones(g.num_edges)) == pytest.approx(1.0)


def test_energy_final_uniform_triangle(k3):
    psi = psi_from_probabilities([[1 / 3] * 3] * 3)
    assert energy_final(psi, k3, np.ones(k3.num_edges)) == pytest.approx(1.0)


def test_energy_final_bounds():
    rng = np.random.default_rng(5)
    g = random_graph(8, 0.5, rng)
    couplings = np.ones(g.num_edges)
    for seed in range(10):
        psi = qdlqa_start(g, 3, 2.0, np.random.default_rng(seed))
        value = energy_final(psi, g, couplings)
        assert 0.0 <= value <= g.num_edges


def test_energy_weight_cases():
    one_hot = psi_from_probabilities([[1, 0, 0]])
    assert energy_weight(one_hot, 1.0) == 0.0
    uniform = psi_from_probabilities([[0.25] * 4])
    assert energy_weight(uniform, 1.0) == pytest.approx(-np.log(4))
    half = psi_from_probabilities([[0.5, 0.5]])
    assert energy_weight(half, 2.0) == pytest.approx(-2 * np.log(2))


def test_energy_weight_bounds_and_fixed_node_inclusion(k3):
    gamma = 1.7
    for seed in range(10):
        psi = qdlqa_start(k3, 4, 3.0, np.random.default_rng(seed))
        value = energy_weight(psi, gamma)
        assert -gamma * k3.num_nodes * np.log(4) <= value <= 0.0


def test_energy_total_boundaries(k3):
    off, couplings = build_ops(3), np.ones(k3.num_edges)
    psi = qdlqa_start(k3, 3, 0.2, np.random.default_rng(3))
    assert energy_total(psi, k3, off, 0.0, 1.0, couplings) == pytest.approx(
        energy_initial(psi, off), abs=1e-14)
    expected = energy_final(psi, k3, couplings) + energy_weight(psi, 1.0)
    assert energy_total(psi, k3, off, 1.0, 1.0, couplings) == pytest.approx(expected, abs=1e-14)


def test_energy_total_affine_in_t(k3):
    off, couplings = build_ops(4), np.ones(k3.num_edges)
    psi = qdlqa_start(k3, 4, 1.0, np.random.default_rng(8))
    values = {t: energy_total(psi, k3, off, t, 0.9, couplings)
              for t in (0.0, 0.5, 1.0)}
    assert values[0.5] == pytest.approx((values[0.0] + values[1.0]) / 2, abs=1e-12)
    # three-point collinearity at an off-center t as well
    t = 0.3
    v = energy_total(psi, k3, off, t, 0.9, couplings)
    assert v == pytest.approx((1 - t) * values[0.0] + t * values[1.0], abs=1e-12)


def test_energy_final_zero_iff_disjoint_supports():
    g = Graph.from_edges(2, [(0, 1)])
    couplings = np.ones(g.num_edges)
    disjoint = psi_from_probabilities([[0.5, 0.5, 0], [0, 0, 1]])
    assert energy_final(disjoint, g, couplings) == pytest.approx(0.0, abs=1e-15)
    overlapping = psi_from_probabilities([[0.5, 0.5, 0], [0, 0.5, 0.5]])
    assert energy_final(overlapping, g, couplings) > 0.0
