import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcolor.energy import (LOG_CLAMP, PLOGP_FLOOR, draw_couplings,
                               energy_total, extract_coloring)
from quditcolor.gradient import (CLAMP_FLAG_THRESHOLD, CostWorkspace,
                                 check_gradient)
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.optimizer import Adam
from quditcolor.qudits import (Forward, amplitudes_to_angles, build_ops,
                               forward, init_qdgd_state, init_qdlqa_state)

from instances import (angles_with_poles, myciel_graph, padded, path,
                       queen_graph, random_graph, small_graphs, star, triangle)


def random_angles(graph, c, rng, fixed_node=None):
    """Padded (V, c) angles, uniform in [-pi, pi) but for the pinned node's
    row of zeros and the zero pad; the free rows are drawn as one
    (n_free, c-1) block."""
    n_free = graph.num_nodes - (fixed_node is not None)
    angles = padded(rng.uniform(-np.pi, np.pi, size=(n_free, c - 1)))
    if fixed_node is None:
        return angles
    return np.insert(angles, fixed_node, 0.0, axis=0)


def pinned_workspace(graph, c):
    """Workspace with the max-degree node pinned, as the CLI gradcheck
    does by default."""
    return CostWorkspace(graph, build_ops(c), select_fixed_node(graph, "max_degree"))


def zero_pinned_rows(ws, angles):
    """``angles``, a (V, c) matrix or a (k, V, c) stack, with the
    pinned node's row of every run set to 0 in place."""
    if ws.fixed_node is not None:
        angles.reshape(-1, ws.graph.num_nodes, angles.shape[-1])[:, ws.fixed_node] = 0.0
    return angles


def finite_difference(ws, angles, t, gamma, couplings, step=1e-6):
    """Central differences of the oracle in every free angle of one run's
    padded (V, c) angles; the pinned node's row and the pad are held fixed
    and their entries are 0."""
    flat = angles.ravel()
    out = np.zeros(flat.size)
    free = zero_pinned_rows(ws, padded(np.ones_like(angles[:, :-1]))).ravel()
    for k in np.flatnonzero(free):
        saved = flat[k]
        flat[k] = saved + step
        plus = energy_total(forward(angles).psi, ws.graph, ws.lx_offdiag, t,
                            gamma, couplings)
        flat[k] = saved - step
        minus = energy_total(forward(angles).psi, ws.graph, ws.lx_offdiag, t,
                             gamma, couplings)
        flat[k] = saved
        out[k] = (plus - minus) / (2 * step)
    return out


def test_gradient_zero_at_annealing_start():
    g = Graph.from_edges(2, [(0, 1)])
    ws = pinned_workspace(g, 3)
    angles = np.insert(init_qdlqa_state(1, 3, 0.0, [np.random.default_rng(0)]),
                       ws.fixed_node, 0.0, axis=1)
    grad = ws.value_and_grad(forward(angles), 0.0, 1.0, np.ones((1, 1)))
    assert np.abs(grad).max() < 1e-9


def test_gradient_zero_without_edges_or_regularizer():
    # degenerate edgeless graph built directly; t=1 and gamma=0 kill every term
    g = Graph(num_nodes=3, edges=np.empty((0, 2), dtype=np.int64),
              degrees=np.zeros(3, dtype=np.int64))
    ws = CostWorkspace(g, build_ops(4), None)
    angles = random_angles(g, 4, np.random.default_rng(1))
    t, gamma = 1.0, 0.0
    couplings = draw_couplings(g, 2.0, [np.random.default_rng(0)])[0]
    grad = ws.value_and_grad(forward(angles[None]), t, gamma, couplings[None])
    assert np.abs(grad).max() == 0.0


def test_gradient_matches_finite_differences_on_queen55():
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(42)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    t, gamma = 0.37, 1.0
    couplings = draw_couplings(g, 3.0, [rng])[0]
    grad = ws.value_and_grad(forward(angles[None]), t, gamma, couplings[None]).ravel()
    fd = finite_difference(ws, angles, t, gamma, couplings, step=1e-5)
    rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-2)
    assert rel.max() < 1e-5


def test_gradient_layout_freezes_fixed_node():
    g = triangle()
    ws = CostWorkspace(g, build_ops(4), 1)
    angles = random_angles(g, 4, np.random.default_rng(0), fixed_node=1)
    grad = ws.value_and_grad(forward(angles[None]), 0.6, 1.0, np.ones((1, 3)))
    assert grad.shape == (1, g.num_nodes, 4)
    assert (grad[0, 1] == 0.0).all() and (grad[0, [0, 2], :-1] != 0.0).all()
    assert (grad[0, :, -1] == 0.0).all()
    np.testing.assert_array_equal(forward(angles).psi[1], [1, 0, 0, 0])


def test_gradient_linearity_in_t():
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(9)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    couplings = draw_couplings(g, 3.0, [rng])[0]
    grads = {}
    for t in (0.0, 0.35, 1.0):
        grads[t] = ws.value_and_grad(forward(angles[None]), t, 1.2, couplings[None])
    combo = 0.65 * grads[0.0] + 0.35 * grads[1.0]
    np.testing.assert_allclose(grads[0.35], combo, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_check_gradient_passes_at_boundaries(t):
    g = queen_graph(5, 5)
    ws = pinned_workspace(g, 5)
    rng = np.random.default_rng(int(t * 10) + 1)
    angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
    report = check_gradient(ws, angles, t, 1.0,
                            draw_couplings(g, 3.0, [rng])[0], step=1e-5, tol=1e-4)
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
                gamma, h = float(rng.uniform(0, 2)), float(rng.uniform(0, 4))
                t = float(rng.uniform(0, 1))
                report = check_gradient(ws, angles, t, gamma,
                                        draw_couplings(g, h, [rng])[0])
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
                            1.0, 1.0, np.ones(g.num_edges))
    flagged_nodes = report.clamp_flags.reshape(3, 2).any(axis=1)
    assert flagged_nodes[0]
    assert not flagged_nodes[1]
    assert report.passed  # clamp-affected components are excluded, not failed


def test_check_gradient_rejects_bad_step():
    g = triangle()
    angles = random_angles(g, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="step"):
        check_gradient(CostWorkspace(g, build_ops(3), None), angles, 1.0, 1.0,
                       np.ones(g.num_edges), step=0.5)


def test_check_gradient_rejects_angles_out_of_the_padded_layout():
    g = triangle()
    ws = CostWorkspace(g, build_ops(3), None)
    angles = random_angles(g, 3, np.random.default_rng(0))
    couplings = np.ones(g.num_edges)
    for bad in (angles[:, :-1], angles[:2], angles[None]):
        with pytest.raises(ValueError, match=r"angles must be \(3, 3\)"):
            check_gradient(ws, bad, 1.0, 1.0, couplings)
    for value in (0.3, np.nan):
        shifted = angles.copy()
        shifted[1, -1] = value
        with pytest.raises(ValueError, match="pad column must be all 0"):
            check_gradient(ws, shifted, 1.0, 1.0, couplings)


def test_workspace_reuse_matches_fresh():
    g = queen_graph(5, 5)
    rng = np.random.default_rng(3)
    ws = pinned_workspace(g, 5)
    for _ in range(3):
        angles = random_angles(g, 5, rng, fixed_node=ws.fixed_node)
        t, gamma = 0.7, 0.8
        couplings = draw_couplings(g, 2.0, [rng])[0]
        g1 = ws.value_and_grad(forward(angles[None]), t, gamma, couplings[None])
        fresh = pinned_workspace(g, 5)
        g2 = fresh.value_and_grad(forward(angles[None]), t, gamma, couplings[None])
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
        couplings = [draw_couplings(g, 3.0, [rng])[0] for _ in range(runs)]
        t, gamma = float(rng.uniform()), 1.3
        fwd = forward(np.stack(angles))
        grad = group.value_and_grad(fwd, t, gamma, np.stack(couplings))
        colors = group.coloring(fwd)
        for r in range(runs):
            one = forward(angles[r][None])
            one_grad = single.value_and_grad(one, t, gamma, couplings[r][None])
            assert np.array_equal(grad[r], one_grad[0])
            assert np.array_equal(colors[r], single.coloring(one)[0])
    # more runs than copies would index past the triangle
    with pytest.raises(ValueError):
        group.value_and_grad(forward(np.stack([angles[0]] * 11)),
                             t, gamma, np.stack([couplings[0]] * 11))
    with pytest.raises(ValueError, match="1 to 10 runs"):
        group.value_and_grad(forward(np.stack([angles[0]] * 11)),
                             t, gamma, np.stack([couplings[0]] * 10))


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
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=g.num_nodes * (c - 1),
                                         max_size=g.num_nodes * (c - 1))))
    angles = zero_pinned_rows(ws, padded(angles.reshape(g.num_nodes, c - 1)))
    t, gamma = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 2.0))
    seed = data.draw(st.integers(0, 99))
    couplings = draw_couplings(g, 3.0, [np.random.default_rng(seed)])[0]

    fwd = forward(angles[None])
    assert len(fwd) == 4
    if pinned:
        np.testing.assert_array_equal(fwd.psi[0, fixed], np.eye(c)[0])
    grad = ws.value_and_grad(fwd, t, gamma, couplings[None])
    np.testing.assert_array_equal(ws.coloring(fwd),
                                  [extract_coloring(forward(angles).psi)])

    # a later forward map leaves the one already held untouched
    forward(padded(angles[None, :, :-1] + 1.0))
    grad_again = ws.value_and_grad(fwd, t, gamma, couplings[None])
    np.testing.assert_array_equal(grad_again, grad)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs(), c=st.integers(2, 5), data=st.data())
def test_gradient_at_poles_matches_finite_differences(g, c, data):
    # about half the angles sit exactly at 0, pi/2 or pi, where sine
    # products vanish; gamma = 0 keeps the log clamp out of the cost
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed)
    size = g.num_nodes * (c - 1)
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=size, max_size=size)))
    angles = zero_pinned_rows(ws, padded(angles.reshape(-1, c - 1)))
    h = data.draw(st.floats(0.0, 3.0))
    t, gamma = data.draw(st.sampled_from([0.0, 0.3, 1.0])), 0.0
    seed = data.draw(st.integers(0, 99))
    couplings = draw_couplings(g, h, [np.random.default_rng(seed)])[0]
    grad = ws.value_and_grad(forward(angles[None]), t, gamma, couplings[None])
    np.testing.assert_allclose(grad.ravel(),
                               finite_difference(ws, angles, t, gamma, couplings),
                               rtol=0, atol=1e-6)


def _full_grad(ws, fwd, t, gamma, couplings):
    """``value_and_grad`` written out with the start cost's gradient always
    computed, Lx psi on the per-node ``[..., :-1]``/``[..., 1:]`` views, the
    log clamped from below after the floored log, and the chain rule on the
    c-1 angles alone, the pad's gradient set to 0 after: the reference for
    its t = 1 path, its flat Lx rows and its padded layout."""
    off = ws.lx_offdiag
    psi, s, u, r = fwd
    cm1 = off.size
    s, u = s[..., :cm1], u[..., :cm1]
    p = psi ** 2
    acc = ws._neighbor_sum(p, couplings)
    logp = np.maximum(np.log(np.maximum(p, PLOGP_FLOOR)), np.log(LOG_CLAMP))
    gpsi = (2.0 * t) * psi * (acc + gamma * (logp + 1.0))
    lxpsi = np.zeros_like(psi)
    lxpsi[..., :-1] = off * psi[..., 1:]
    lxpsi[..., 1:] += off * psi[..., :-1]
    gpsi -= (2.0 * (1.0 - t)) * lxpsi
    back = np.empty_like(s)
    back[..., cm1 - 1] = gpsi[..., cm1]
    for a in range(cm1 - 2, -1, -1):
        back[..., a] = (gpsi[..., a + 1] * u[..., a + 1]
                        + s[..., a + 1] * back[..., a + 1])
    gphi = np.zeros_like(psi)
    gphi[..., :cm1] = r[..., :cm1] * (u * back - gpsi[..., :cm1] * s)
    return zero_pinned_rows(ws, gphi)


@settings(deadline=None, max_examples=150)
@given(g=small_graphs(), c=st.integers(2, 11), runs=st.integers(1, 3),
       data=st.data())
def test_start_cost_skip_at_t_end_matches_full_formula(g, c, runs, data):
    # At t = 1 the start cost has weight 0 and its gradient is not
    # computed.  A gradient entry may differ only in the sign of a zero
    # (in 300 draws of this property 43 flipped an entry between -0.0 and
    # +0.0 at pole angles, and no other bit differed), which array_equal
    # ignores.  Adam absorbs it: its first moment starts at +0.0,
    # +0.0 + (-0.0) is +0.0, and the second moment squares the entry.
    # Below t = 1, Lx psi on flat per-run rows may flip such a zero sign
    # at a node's first or last color, too.  One run may hold a NaN or an
    # infinite angle: its row spreads NaN inside the run, and every other
    # run keeps the bits it has in a group of one.
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed, copies=runs)
    size = runs * g.num_nodes * (c - 1)
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=size, max_size=size)))
    angles = zero_pinned_rows(ws, padded(angles.reshape(runs, -1, c - 1)))
    # a non-finite value in one angle, or in all angles, of one run; the
    # pad stays 0
    bad = data.draw(st.one_of(
        st.none(), st.tuples(st.integers(0, runs - 1)),
        st.tuples(st.integers(0, runs - 1), st.integers(0, g.num_nodes - 1),
                  st.integers(0, c - 2))))
    if bad is not None:
        angles[..., :-1][bad] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    finite = np.isfinite(angles).all(axis=(1, 2))
    gamma, h = data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 3.0))
    t = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    couplings = np.stack([draw_couplings(g, h, [rng])[0] for _ in range(runs)])
    with np.errstate(invalid="ignore"):
        fwd = forward(angles)
        grad = ws.value_and_grad(fwd, t, gamma, couplings)
        full_grad = _full_grad(ws, fwd, t, gamma, couplings)
        for r in np.flatnonzero(finite):
            one = Forward._make(a[r:r + 1] for a in fwd)
            one_grad = ws.value_and_grad(one, t, gamma, couplings[r:r + 1])
            assert grad[r].tobytes() == one_grad[0].tobytes()
    assert np.array_equal(grad[finite], full_grad[finite])


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_values_read_the_floored_log_below_the_clamp(t):
    # node 0's first angle of 1e-7 puts its other two probabilities near
    # 1e-14, under LOG_CLAMP: the gradient reads log(LOG_CLAMP) there, as
    # the reference's floored log clamped from below does
    g = triangle()
    ws = CostWorkspace(g, build_ops(3), None)
    fwd = forward(padded([[[1e-7, 0.4], [1.0, 2.0], [0.5, 1.3]]]))
    assert 0 < (fwd.psi[0, 0, 1:] ** 2).max() < LOG_CLAMP
    gamma = 1.0
    couplings = np.ones((1, g.num_edges))
    grad = ws.value_and_grad(fwd, t, gamma, couplings)
    full_grad = _full_grad(ws, fwd, t, gamma, couplings)
    assert np.array_equal(grad, full_grad)


def test_one_pass_clamped_log_equals_floor_log_max_bit_for_bit():
    # The gradient takes log(max(p, LOG_CLAMP)) in one pass.  That equals
    # the floored log clamped from below by the scalar log(LOG_CLAMP) only
    # if numpy's array log agrees with its scalar log at the clamp and
    # does not step backwards next to it.  Checked on the 2,000 doubles on
    # each side of the clamp, with the special values spread among them,
    # filling arrays of 1 to 40 elements at offsets 0 to 2 back to back,
    # so that they fall at the positions of numpy's SIMD loops and tails.
    below, above = [LOG_CLAMP], [LOG_CLAMP]
    for _ in range(2000):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    near = np.array(below[::-1] + above[1:])
    special = [0.0, -0.0, 5e-324, 1e-300, np.nan, np.inf]
    at = np.arange(0, near.size, 41)
    values = np.insert(near, at, np.resize(special, at.size))

    def one_pass(x):
        return np.log(np.maximum(x, LOG_CLAMP))

    def floor_log_max(x):
        return np.maximum(np.log(np.maximum(x, PLOGP_FLOOR)), float(np.log(LOG_CLAMP)))

    assert one_pass(values).tobytes() == floor_log_max(values).tobytes()
    for n in range(1, 41):
        for offset in range(3):
            x = np.empty(n + offset)[offset:]
            for start in range(0, values.size - n + 1, n):
                x[...] = values[start:start + n]
                assert one_pass(x).tobytes() == floor_log_max(x).tobytes(), \
                    (n, offset, start)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs(), c=st.integers(2, 5), copies=st.integers(1, 3),
       data=st.data())
def test_pinned_rows_stay_frozen_in_every_copy(g, c, copies, data):
    # a row of zero angles maps to exactly (1, 0, ..., 0); the pinned
    # node's rows get a gradient of exactly 0 in every copy, so an Adam
    # step leaves them at exactly 0
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed, copies=copies)
    size = copies * g.num_nodes * (c - 1)
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=size, max_size=size)))
    angles = zero_pinned_rows(ws, padded(angles.reshape(copies, -1, c - 1)))
    gamma, h = data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 3.0))
    t = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    couplings = np.stack([draw_couplings(g, h, [rng])[0] for _ in range(copies)])
    fwd = forward(angles)
    zero = ~angles.any(axis=-1)
    np.testing.assert_array_equal(fwd.psi[zero], np.eye(c)[[0] * zero.sum()])
    grad = ws.value_and_grad(fwd, t, gamma, couplings)
    if fixed is None:
        return
    assert (grad[:, fixed] == 0.0).all()
    Adam(angles.shape, 0.5).step(angles, grad)
    pinned = angles[:, fixed]
    assert not np.signbit(pinned).any() and (pinned == 0.0).all()


@settings(deadline=None, max_examples=100)
@given(g=small_graphs(), c=st.integers(2, 6), runs=st.integers(1, 3),
       data=st.data())
def test_gradient_of_pad_and_pinned_rows_is_exactly_zero(g, c, runs, data):
    # also in a run with a non-finite angle, whose other entries are NaN
    fixed = data.draw(st.one_of(st.none(), st.integers(0, g.num_nodes - 1)))
    ws = CostWorkspace(g, build_ops(c), fixed, copies=runs)
    size = runs * g.num_nodes * (c - 1)
    angles = np.array(data.draw(st.lists(_ANGLES, min_size=size, max_size=size)))
    angles = zero_pinned_rows(ws, padded(angles.reshape(runs, -1, c - 1)))
    if data.draw(st.booleans()):
        angles[data.draw(st.integers(0, runs - 1)), :, 0] = np.nan
    gamma, h = data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 3.0))
    t = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    couplings = np.stack([draw_couplings(g, h, [rng])[0] for _ in range(runs)])
    with np.errstate(invalid="ignore"):
        grad = ws.value_and_grad(forward(angles), t, gamma, couplings)
    frozen = [grad[..., -1]] + ([] if fixed is None else [grad[:, fixed]])
    for entries in frozen:
        assert (entries == 0.0).all() and not np.signbit(entries).any()


@settings(deadline=None, max_examples=80)
@given(g=small_graphs(), c=st.integers(2, 11), runs=st.integers(1, 3),
       pinned=st.booleans(), t=st.sampled_from([0.0, 0.4, 1.0]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_gradient_bytes_do_not_depend_on_the_input_layouts(g, c, runs, pinned,
                                                           t, seed, data):
    # the recursions write through column views of new arrays; one laid out
    # like the angles would be copied by the view for a Fortran-ordered
    # stack, and the gradient read from it would be wrong.  The solver hands
    # the kernel a step's strided view block[:, j] of its (k, rows, E)
    # coupling block with no copy in between: it must read as its
    # contiguous copy does, and the block must stay as it was
    fixed = data.draw(st.integers(0, g.num_nodes - 1)) if pinned else None
    ws = CostWorkspace(g, build_ops(c), fixed, copies=runs)
    rng = np.random.default_rng(seed)
    wide = padded(angles_with_poles(rng, (2 * runs, g.num_nodes, c - 1)))
    strided = zero_pinned_rows(ws, wide)[::2]
    block = draw_couplings(g, 3.0, [rng] * runs, out=np.empty((runs, 3, g.num_edges)))
    drawn = block.tobytes()
    view = block[:, data.draw(st.integers(0, 2))]
    layouts = [(np.ascontiguousarray(strided), np.ascontiguousarray(view)),
               (np.asfortranarray(strided), view), (strided, view)]
    grads = [ws.value_and_grad(forward(phi), t, 0.7, couplings).tobytes()
             for phi, couplings in layouts]
    assert grads[0] == grads[1] == grads[2]
    assert block.tobytes() == drawn


@settings(deadline=None, max_examples=30)
@given(g=small_graphs(), c=st.integers(2, 6), runs=st.integers(1, 3),
       method=st.sampled_from(["qdlqa", "qdgd"]), seed=st.integers(0, 2**32 - 1))
def test_adam_steps_keep_the_pad_at_zero(g, c, runs, method, seed):
    # 50 steps of the solver's loop: the pad's gradient, and so both moments
    # and every update, are exactly +0, and the pad's angles stay +0
    fixed = select_fixed_node(g, "max_degree")
    ws = CostWorkspace(g, build_ops(c), fixed, copies=runs)
    rngs = [np.random.default_rng([seed, r]) for r in range(runs)]
    n_free = g.num_nodes - 1
    start = (init_qdlqa_state(n_free, c, 0.3, rngs) if method == "qdlqa"
             else init_qdgd_state(n_free, c, rngs))
    angles = np.insert(start, fixed, 0.0, axis=1)
    adam = Adam(angles.shape, 0.5)
    for step in range(50):
        t = step / 50 if method == "qdlqa" else 1.0
        couplings = draw_couplings(g, 3.0, rngs)
        grad = ws.value_and_grad(forward(angles), t, 1.0, couplings)
        adam.step(angles, grad)
    for pad in (angles[..., -1], adam.first_moment[..., -1],
                adam.second_moment[..., -1]):
        assert (pad == 0.0).all() and not np.signbit(pad).any()
    assert np.isfinite(angles).all()


def test_workspace_rejects_edges_and_states_it_cannot_index():
    # Graph.from_edges sorts; a Graph built directly need not be
    for edges in ([[1, 2], [0, 1], [0, 2]], [[0, 1], [2, 1]],
                  [[0, 1], [0, 1], [1, 2]], [[0, 1], [1, 3]], [[-1, 0], [1, 2]]):
        g = Graph(num_nodes=3, edges=np.array(edges, dtype=np.int64),
                  degrees=np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError, match="u < v"):
            CostWorkspace(g, build_ops(3), None)

    # -1 would pin the last node, and a bool index every node
    for fixed in (-1, 3, True, np.bool_(False), 1.0, "0"):
        with pytest.raises(ValueError, match="^fixed_node must be None or a node"):
            CostWorkspace(triangle(), build_ops(3), fixed)
    for fixed in (None, 0, np.int64(2), np.uint8(1)):
        pinned = CostWorkspace(triangle(), build_ops(3), fixed).fixed_node
        assert pinned == fixed and (fixed is None or type(pinned) is int)

    # a state of another graph would be read out of bounds
    ws = CostWorkspace(queen_graph(4, 4), build_ops(3), None)
    small = CostWorkspace(triangle(), build_ops(3), None)
    fwd = forward(random_angles(triangle(), 3, np.random.default_rng(0))[None])
    with pytest.raises(ValueError, match="expected 16 rows"):
        ws.value_and_grad(fwd, 1.0, 1.0, np.ones((1, ws.graph.num_edges)))


@pytest.mark.parametrize("runs, nodes, c, couplings", [
    (2, None, 3, lambda e: (2, e)),
    (2, 9, 3, lambda e: (2, e)),
    (3, 16, 3, lambda e: (3, e)),
    (2, 16, 3, lambda e: (2, e - 1)),
    (2, 16, 3, lambda e: (2 * e,)),
    (2, 16, 2, lambda e: (2, e)),
], ids=["flat-rows", "other-V", "more-runs-than-copies", "short-couplings",
        "flat-couplings", "other-c"])
def test_unchecked_kernels_are_guarded_by_shape(runs, nodes, c, couplings):
    # csc_matvecs and csr_matvecs index without bounds checks, and the flat
    # Lx pass reads the band by the stack's length: every shape they could
    # read or write past, or misread, must end in ValueError before them
    g = queen_graph(4, 4)
    ws = CostWorkspace(g, build_ops(3), None, copies=2)
    shape = (runs * g.num_nodes,) if nodes is None else (runs, nodes)
    angles = padded(np.random.default_rng(0).uniform(-np.pi, np.pi, (*shape, c - 1)))
    p = forward(angles).psi ** 2
    ones = np.ones(couplings(g.num_edges))
    with pytest.raises(ValueError, match="expected 16 rows"):
        ws._neighbor_sum(p, ones)
    for t in (0.3, 1.0):
        with pytest.raises(ValueError):
            ws.value_and_grad(forward(angles), t, 1.0, ones)


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
    np.testing.assert_array_equal(ws._neighbor_sum(p[None], couplings[None])[0],
                                  adj @ p)


@settings(deadline=None, max_examples=60)
@given(g=small_graphs(), h=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
       seed=st.integers(0, 2**32 - 1))
def test_draw_couplings_into_buffer_is_uniform_draw(g, h, seed):
    # the couplings are 1 + h_ij; at h = 0 they are exactly 1, and the
    # generator does not move
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    buf = np.full((1, g.num_edges), np.nan)
    drawn = draw_couplings(g, h, [mine], out=buf)
    assert drawn is buf
    expected = 1.0 + ref.uniform(0.0, h, g.num_edges) if h else np.ones(g.num_edges)
    np.testing.assert_array_equal(buf[0], expected)
    assert mine.random() == ref.random()  # same generator state afterwards
    np.testing.assert_array_equal(draw_couplings(g, h, [np.random.default_rng(seed)]),
                                  [expected])


@settings(deadline=None, max_examples=60)
@given(g=small_graphs(), h=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
       runs=st.integers(1, 4), block=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_draw_couplings_into_block_is_successive_draws(g, h, runs, block, seed):
    # a group fills a block of steps for each of its runs in one call: each
    # run's rows must be 1 + the uniform draws one call per step on its own
    # generator would give, and leave that generator where they would; at
    # h = 0 every coupling is 1 and no generator moves
    mine = [np.random.default_rng([seed, j]) for j in range(runs)]
    ref = [np.random.default_rng([seed, j]) for j in range(runs)]
    buf = np.full((runs, block, g.num_edges), np.nan)
    assert draw_couplings(g, h, mine, out=buf) is buf
    expected = [[1.0 + rng.uniform(0.0, h, g.num_edges) if h else np.ones(g.num_edges)
                 for _ in range(block)] for rng in ref]
    np.testing.assert_array_equal(buf, np.reshape(expected, buf.shape))
    assert [rng.random() for rng in mine] == [rng.random() for rng in ref]


def test_draw_couplings_takes_a_generator_per_row(k3):
    with pytest.raises(ValueError, match="^2 generators for 3 rows of couplings$"):
        draw_couplings(k3, 1.0, [np.random.default_rng(0)] * 2, out=np.empty((3, 2, 3)))
