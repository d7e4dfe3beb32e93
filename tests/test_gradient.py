import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcolor.energy import (CostParams, draw_couplings, energy_total,
                               extract_coloring)
from quditcolor.gradient import (CLAMP_FLAG_THRESHOLD, CostWorkspace,
                                 check_gradient)
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.qudits import amplitudes_to_angles, build_ops, init_qdlqa_state

from instances import (myciel_graph, path, queen_graph, random_graph,
                       small_graphs, star, triangle)


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
    ws = pinned_workspace(g, 3)
    _, grad = ws.value_and_grad(
        ws.forward(angles), CostParams(gamma=1.0, h=0.0, t=0.0), np.zeros(1))
    assert np.abs(grad).max() < 1e-9


def test_gradient_zero_without_edges_or_regularizer():
    # degenerate edgeless graph built directly; t=1 and gamma=0 kill every term
    g = Graph(num_nodes=3, edges=np.empty((0, 2), dtype=np.int64),
              degrees=np.zeros(3, dtype=np.int64))
    ws = CostWorkspace(g, build_ops(4), None)
    angles = random_angles(g, 4, np.random.default_rng(1))
    params = CostParams(gamma=0.0, h=2.0, t=1.0)
    hvals = draw_couplings(g, params.h, np.random.default_rng(0))
    (value,), grad = ws.value_and_grad(ws.forward(angles), params, hvals)
    assert value == 0.0
    assert np.abs(grad).max() == 0.0


def test_gradient_matches_finite_differences_on_queen55():
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(42)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    params = CostParams(gamma=1.0, h=3.0, t=0.37)
    hvals = draw_couplings(g, params.h, rng)
    (value,), grad = ws.value_and_grad(ws.forward(angles), params, hvals)
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
    _, grad = ws.value_and_grad(ws.forward(angles), CostParams(h=0.0, t=0.6),
                                np.zeros(3))
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
            ws.forward(angles), CostParams(gamma=1.2, h=3.0, t=t), hvals)
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
        (v1,), g1 = ws.value_and_grad(ws.forward(angles), params, hvals)
        fresh = pinned_workspace(g, 5)
        (v2,), g2 = fresh.value_and_grad(fresh.forward(angles), params, hvals)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


@pytest.mark.parametrize("name, c", [("queen5-5", 5), ("myciel5", 6),
                                     ("queen11-11", 11)])
@pytest.mark.parametrize("runs", [1, 3, 10])
@pytest.mark.parametrize("pinned", [True, False])
def test_stacked_runs_match_single_runs_bit_for_bit(name, c, runs, pinned):
    # a run's block of a group workspace gives the bits of a one-run one
    g = {"queen5-5": lambda: queen_graph(5, 5), "myciel5": lambda: myciel_graph(5),
         "queen11-11": lambda: queen_graph(11, 11)}[name]()
    fixed = select_fixed_node(g, "max_degree") if pinned else None
    single = CostWorkspace(g, build_ops(c), fixed)
    group = CostWorkspace(g, build_ops(c), fixed, copies=10)
    rng = np.random.default_rng(runs)
    for _ in range(3):
        angles = [random_angles(g, c, rng, fixed) for _ in range(runs)]
        hvals = [draw_couplings(g, 3.0, rng) for _ in range(runs)]
        params = CostParams(gamma=1.3, h=3.0, t=float(rng.uniform()))
        fwd = group.forward(np.concatenate(angles))
        values, grad = group.value_and_grad(fwd, params, np.concatenate(hvals))
        colors = group.coloring(fwd).reshape(runs, -1)
        rows = len(angles[0])
        for r in range(runs):
            one = single.forward(angles[r])
            (value,), one_grad = single.value_and_grad(one, params, hvals[r])
            assert values[r] == value
            assert np.array_equal(grad[r * rows:(r + 1) * rows], one_grad)
            assert np.array_equal(colors[r], single.coloring(one))
    # more runs than copies would index past the triangle
    with pytest.raises(ValueError):
        group.value_and_grad(group.forward(np.concatenate([angles[0]] * 11)),
                             params, np.concatenate([hvals[0]] * 11))
    with pytest.raises(ValueError, match="1 to 10 runs"):
        group.value_and_grad(group.forward(np.concatenate([angles[0]] * 11)),
                             params, np.concatenate([hvals[0]] * 10))


def test_clamp_threshold_is_documented_scale():
    assert CLAMP_FLAG_THRESHOLD >= 1e-12  # flags at or above the log clamp


# exact pole and equator angles next to arbitrary ones
_ANGLES = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi]),
                    st.floats(-np.pi, np.pi))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), c=st.integers(2, 5), pinned=st.booleans())
def test_forward_feeds_value_and_coloring(data, c, pinned):
    g = queen_graph(3, 3)
    fixed = data.draw(st.integers(0, g.num_nodes - 1)) if pinned else None
    ws = CostWorkspace(g, build_ops(c), fixed)
    n_free = g.num_nodes - pinned
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=n_free * (c - 1),
                                         max_size=n_free * (c - 1))))
    angles = angles.reshape(n_free, c - 1)
    params = CostParams(gamma=data.draw(st.floats(0.0, 2.0)),
                        h=3.0, t=data.draw(st.floats(0.0, 1.0)))
    hvals = draw_couplings(g, params.h,
                           np.random.default_rng(data.draw(st.integers(0, 99))))

    fwd = ws.forward(angles)
    np.testing.assert_array_equal(fwd.psi[ws.free], fwd.psi_free)
    if pinned:
        np.testing.assert_array_equal(fwd.psi[fixed], np.eye(c)[0])
    (value,), grad = ws.value_and_grad(fwd, params, hvals)
    oracle = energy_total(fwd.psi, g, ws.ops, params, hvals=hvals)
    assert value == pytest.approx(oracle, rel=1e-12, abs=1e-12)
    np.testing.assert_array_equal(ws.coloring(fwd),
                                  extract_coloring(ws.amplitudes(angles)))

    # a later forward map leaves the one already held untouched
    ws.forward(angles + 1.0)
    (again,), grad_again = ws.value_and_grad(fwd, params, hvals)
    assert again == value
    np.testing.assert_array_equal(grad_again, grad)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs(), c=st.integers(2, 5), data=st.data())
def test_gradient_at_poles_matches_finite_differences(g, c, data):
    # about half the angles sit exactly at 0, pi/2 or pi, where sine
    # products vanish; gamma = 0 keeps the log clamp out of the cost
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed)
    size = ws.free.size * (c - 1)
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=size, max_size=size)))
    angles = angles.reshape(-1, c - 1)
    params = CostParams(gamma=0.0, h=data.draw(st.floats(0.0, 3.0)),
                        t=data.draw(st.sampled_from([0.0, 0.3, 1.0])))
    hvals = draw_couplings(g, params.h,
                           np.random.default_rng(data.draw(st.integers(0, 99))))
    _, grad = ws.value_and_grad(ws.forward(angles), params, hvals)
    np.testing.assert_allclose(grad.ravel(),
                               finite_difference(ws, angles, params, hvals),
                               rtol=0, atol=1e-6)


def test_workspace_rejects_edges_and_states_it_cannot_index():
    # Graph.from_edges sorts; a Graph built directly need not be
    for edges in ([[1, 2], [0, 1], [0, 2]], [[0, 1], [2, 1]],
                  [[0, 1], [0, 1], [1, 2]], [[0, 1], [1, 3]], [[-1, 0], [1, 2]]):
        g = Graph(num_nodes=3, edges=np.array(edges, dtype=np.int64),
                  degrees=np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError, match="u < v"):
            CostWorkspace(g, build_ops(3), None)

    # a state of another graph would be read out of bounds
    ws = CostWorkspace(queen_graph(4, 4), build_ops(3), None)
    small = CostWorkspace(triangle(), build_ops(3), None)
    fwd = small.forward(random_angles(triangle(), 3, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="expected 16 rows"):
        ws.value_and_grad(fwd, CostParams(), np.zeros(ws.graph.num_edges))


@settings(deadline=None, max_examples=80)
@given(g=small_graphs(), c=st.integers(2, 6), data=st.data())
def test_neighbor_sum_equals_symmetric_csr_product(g, c, data):
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = rng.random((g.num_nodes, c)) * 10.0 ** rng.uniform(-3, 3, (g.num_nodes, 1))
    couplings = 1.0 + rng.uniform(0.0, 3.0, g.num_edges)
    u, v = g.edges[:, 0], g.edges[:, 1]
    adj = sp.csr_matrix((np.concatenate([couplings, couplings]),
                         (np.concatenate([u, v]), np.concatenate([v, u]))),
                        shape=(g.num_nodes, g.num_nodes))
    adj.sort_indices()
    np.testing.assert_array_equal(ws._neighbor_sum(p, couplings), adj @ p)


@settings(deadline=None, max_examples=60)
@given(g=small_graphs(), h=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
       seed=st.integers(0, 2**32 - 1))
def test_draw_couplings_into_buffer_is_uniform_draw(g, h, seed):
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    buf = np.full(g.num_edges, np.nan)
    drawn = draw_couplings(g, h, mine, out=buf)
    assert drawn is buf
    expected = ref.uniform(0.0, h, g.num_edges) if h else np.zeros(g.num_edges)
    np.testing.assert_array_equal(buf, expected)
    assert mine.random() == ref.random()  # same generator state afterwards
    np.testing.assert_array_equal(draw_couplings(g, h, np.random.default_rng(seed)),
                                  expected)
