import numpy as np
import pytest

from quditcolor.energy import CostParams, draw_couplings, energy_total
from quditcolor.gradient import (CLAMP_FLAG_THRESHOLD, CostWorkspace,
                                 check_gradient)
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.qudits import amplitudes_to_angles, build_ops, init_qdlqa_state

from instances import path, queen_graph, random_graph, star, triangle


def random_angles(graph, c, rng, fixed_node=None):
    n_free = graph.num_nodes - (fixed_node is not None)
    return rng.uniform(-np.pi, np.pi, size=(n_free, c - 1))


def pinned_workspace(graph, c):
    """Workspace with the max-degree node pinned, as the CLI gradcheck uses."""
    return CostWorkspace(graph, build_ops(c), select_fixed_node(graph, "max_degree"))


def finite_difference(ws, angles, params, hvals, step=1e-6):
    flat = angles.ravel()
    out = np.empty(flat.size)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + step
        plus = energy_total(ws.amplitudes(angles), ws.graph, ws.ops, params,
                            hvals=hvals)
        flat[k] = saved - step
        minus = energy_total(ws.amplitudes(angles), ws.graph, ws.ops, params,
                             hvals=hvals)
        flat[k] = saved
        out[k] = (plus - minus) / (2 * step)
    return out


def test_gradient_zero_at_annealing_start():
    g = Graph.from_edges(2, [(0, 1)])
    angles = init_qdlqa_state(1, 3, 0.0, np.random.default_rng(0))
    _, grad = pinned_workspace(g, 3).value_and_grad(
        angles, CostParams(gamma=1.0, h=0.0, t=0.0), np.zeros(1))
    assert np.abs(grad).max() < 1e-9


def test_gradient_zero_without_edges_or_regularizer():
    # degenerate edgeless graph built directly; t=1 and gamma=0 kill every term
    g = Graph(num_nodes=3, edges=np.empty((0, 2), dtype=np.int64),
              degrees=np.zeros(3, dtype=np.int64))
    ws = CostWorkspace(g, build_ops(4), None)
    angles = random_angles(g, 4, np.random.default_rng(1))
    params = CostParams(gamma=0.0, h=2.0, t=1.0)
    hvals = draw_couplings(g, params.h, np.random.default_rng(0))
    value, grad = ws.value_and_grad(angles, params, hvals)
    assert value == 0.0
    assert np.abs(grad).max() == 0.0


def test_gradient_matches_finite_differences_on_queen55():
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(42)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    params = CostParams(gamma=1.0, h=3.0, t=0.37)
    hvals = draw_couplings(g, params.h, rng)
    value, grad = ws.value_and_grad(angles, params, hvals)
    grad = grad.ravel()
    assert value == pytest.approx(
        energy_total(ws.amplitudes(angles), g, ws.ops, params, hvals=hvals),
        rel=1e-12)
    fd = finite_difference(ws, angles, params, hvals, step=1e-5)
    rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-2)
    assert rel.max() < 1e-5


def test_gradient_layout_excludes_fixed_node():
    g = triangle()
    ws = CostWorkspace(g, build_ops(4), 1)
    angles = random_angles(g, 4, np.random.default_rng(0), fixed_node=1)
    _, grad = ws.value_and_grad(angles, CostParams(h=0.0, t=0.6), np.zeros(3))
    assert grad.shape == (g.num_nodes - 1, 3)
    assert ws.free.tolist() == [0, 2]
    np.testing.assert_array_equal(ws.amplitudes(angles)[1], [1, 0, 0, 0])


def test_gradient_linearity_in_t():
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(9)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    hvals = draw_couplings(g, 3.0, rng)
    grads = {}
    for t in (0.0, 0.35, 1.0):
        _, grads[t] = ws.value_and_grad(
            angles, CostParams(gamma=1.2, h=3.0, t=t), hvals)
    combo = 0.65 * grads[0.0] + 0.35 * grads[1.0]
    np.testing.assert_allclose(grads[0.35], combo, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_check_gradient_passes_at_boundaries(t):
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(int(t * 10) + 1)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    report = check_gradient(ws, angles, CostParams(gamma=1.0, h=3.0, t=t),
                            step=1e-5, tol=1e-4, rng=rng)
    assert report.passed, report.max_rel_error


def test_check_gradient_random_points_suite():
    rng = np.random.default_rng(100)
    graphs = [triangle(), path(5), star(2, [0, 1, 3, 4]),
              random_graph(8, 0.4, rng)]
    for g in graphs:
        for c in (2, 3, 5):
            ws = pinned_workspace(g, c)
            for _ in range(8):
                angles = random_angles(g, c, rng, fixed_node=ws.fixed_node)
                params = CostParams(gamma=float(rng.uniform(0, 2)),
                                    h=float(rng.uniform(0, 4)),
                                    t=float(rng.uniform(0, 1)))
                report = check_gradient(ws, angles, params, rng=rng)
                assert report.passed, (g.num_nodes, c, report.max_rel_error)


def test_check_gradient_flags_clamped_components():
    g = path(3)
    # node 0 has a probability component ~1e-18, well under the clamp
    amps = np.array([[np.sqrt(1 - 1e-18), 1e-9, 0.0],
                     [0.5, 0.5, np.sqrt(0.5)],
                     [0.6, 0.8, 0.0]])
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    ws = CostWorkspace(g, build_ops(3), None)
    report = check_gradient(ws, amplitudes_to_angles(amps),
                            CostParams(gamma=1.0, h=0.0, t=1.0))
    flagged_nodes = report.clamp_flags.reshape(3, 2).any(axis=1)
    assert flagged_nodes[0]
    assert not flagged_nodes[1]
    assert report.passed  # clamp-affected components are excluded, not failed


def test_check_gradient_rejects_bad_step():
    g = triangle()
    angles = random_angles(g, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="step"):
        check_gradient(CostWorkspace(g, build_ops(3), None), angles, CostParams(),
                       step=0.5)


def test_workspace_reuse_matches_fresh():
    g = queen_graph(5, 5)
    rng = np.random.default_rng(3)
    ws = pinned_workspace(g, 5)
    for _ in range(3):
        angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
        params = CostParams(gamma=0.8, h=2.0, t=0.7)
        hvals = draw_couplings(g, params.h, rng)
        v1, g1 = ws.value_and_grad(angles, params, hvals)
        v2, g2 = pinned_workspace(g, 5).value_and_grad(angles, params, hvals)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


def test_clamp_threshold_is_documented_scale():
    assert CLAMP_FLAG_THRESHOLD >= 1e-12  # flags at or above the log clamp
