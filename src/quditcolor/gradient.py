"""Exact gradients of the interpolated cost with respect to all free angles,
plus a central-finite-difference verifier.

The chain rule through the spherical parametrization is evaluated with a
backward recursion over angle index (O(c) per node, no divisions), so it is
stable at the coordinate poles where sine products vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .energy import LOG_CLAMP, CostParams, _plogp, draw_couplings, energy_total
from .graph import Graph
from .qudits import AngularMomentumOps, _forward


class CostWorkspace:
    """Per-(graph, dimension, fixed-node) buffers for fused cost+gradient.

    Holds a CSR adjacency whose data slots are rewritten with the per-call
    couplings, so the neighbor-probability accumulation is a single sparse
    matmul.  Reusable across runs; owns no per-run state.

    The angles are an (n_free, c-1) matrix, one row per node in ascending
    order with the pinned node (if any) left out; the pinned node's
    amplitude vector is one-hot (1, 0, ..., 0), i.e. color 0.
    """

    def __init__(self, graph: Graph, ops: AngularMomentumOps,
                 fixed_node: int | None):
        self.graph = graph
        self.ops = ops
        self.fixed_node = fixed_node
        c = ops.dim
        n = graph.num_nodes
        if fixed_node is None:
            self.free = np.arange(n)
        else:
            self.free = np.delete(np.arange(n), fixed_node)
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        # data carries edge_id + 1 so conversion can never prune a slot as
        # an explicit zero; the csr data array is overwritten on every call
        edge_id = np.arange(1, graph.num_edges + 1)
        coo = sp.coo_matrix(
            (np.concatenate([edge_id, edge_id]).astype(np.float64),
             (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n))
        self._adj = coo.tocsr()
        self._slot_edge = self._adj.data.astype(np.intp) - 1
        self._psi = np.zeros((n, c))
        if fixed_node is not None:
            self._psi[fixed_node, 0] = 1.0

    def amplitudes(self, angles: np.ndarray) -> np.ndarray:
        """(V, c) amplitude matrix for the given free-node angle rows."""
        self._psi[self.free] = _forward(angles)[0]
        return self._psi

    def coloring(self, angles: np.ndarray) -> np.ndarray:
        return np.argmax(np.abs(self.amplitudes(angles)), axis=1)

    def value_and_grad(self, angles: np.ndarray, params: CostParams,
                       hvals: np.ndarray):
        """Cost and its gradient w.r.t. the (n_free, c-1) angle matrix."""
        g, ops = self.graph, self.ops
        t, gamma = params.t, params.gamma
        psi_free, s, u, r = _forward(angles)
        psi = self._psi
        psi[self.free] = psi_free
        p = psi ** 2

        # end cost: neighbor accumulation acc_i = sum_j J_ij p_j
        self._adj.data = 1.0 + hvals[self._slot_edge]
        acc = self._adj @ p
        e_f = 0.5 * float(np.einsum("ij,ij->", p, acc))

        logp = np.log(np.maximum(p, LOG_CLAMP))
        e_w = gamma * float(_plogp(p).sum())

        off = ops.lx_offdiag
        cross = psi_free[:, :-1] * psi_free[:, 1:]
        e_i = -2.0 * float((cross @ off).sum())

        value = (1.0 - t) * e_i + t * (e_f + e_w)

        # dE/dpsi on free nodes
        gpsi = (2.0 * t) * psi_free * (acc[self.free] + gamma * (logp[self.free] + 1.0))
        lxpsi = np.zeros_like(psi_free)
        lxpsi[:, :-1] = off * psi_free[:, 1:]
        lxpsi[:, 1:] += off * psi_free[:, :-1]
        gpsi -= (2.0 * (1.0 - t)) * lxpsi

        # chain rule to angles: backward recursion over the angle index
        cm1 = angles.shape[1]
        back = np.empty_like(angles)
        back[:, cm1 - 1] = gpsi[:, cm1]
        for a in range(cm1 - 2, -1, -1):
            back[:, a] = gpsi[:, a + 1] * u[:, a + 1] + s[:, a + 1] * back[:, a + 1]
        gphi = r[:, :cm1] * (u * back - gpsi[:, :cm1] * s)
        return value, gphi


# Components of nodes whose smallest probability is below this are flagged
# as clamp-affected: there the clamped analytic log and the exact value
# diverge, so finite differences are not a fair referee.
CLAMP_FLAG_THRESHOLD = 1e-8

# Relative-error denominators are floored so that near-zero components are
# judged in absolute terms (finite-difference noise sits around 1e-9).
_REL_FLOOR = 1e-2


@dataclass
class GradientCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_rel_error: float  # over components not flagged as clamp-affected
    rel_errors: np.ndarray
    clamp_flags: np.ndarray
    step: float
    tol: float
    passed: bool


def check_gradient(workspace: CostWorkspace, angles: np.ndarray,
                   params: CostParams, step: float = 1e-5, tol: float = 1e-4,
                   rng: np.random.Generator | None = None) -> GradientCheckReport:
    """Compare the analytic gradient at ``angles`` against central finite
    differences of the ``energy_total`` oracle.

    The coupling noise is frozen internally so both sides see the same
    cost.  Components belonging to nodes with a near-zero probability are
    flagged rather than failed (the log clamp makes them incomparable).
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("finite-difference step must be in [1e-7, 1e-3]")
    if rng is None:
        rng = np.random.default_rng(0)
    graph, ops = workspace.graph, workspace.ops
    hvals = draw_couplings(graph, params.h, rng)
    _, gphi = workspace.value_and_grad(angles, params, hvals)
    analytic = gphi.ravel()

    angles = np.array(angles, dtype=np.float64)  # perturbed below
    flat = angles.ravel()
    fd = np.empty_like(analytic)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + step
        e_plus = energy_total(workspace.amplitudes(angles), graph, ops, params,
                              hvals=hvals)
        flat[k] = saved - step
        e_minus = energy_total(workspace.amplitudes(angles), graph, ops, params,
                               hvals=hvals)
        flat[k] = saved
        fd[k] = (e_plus - e_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), _REL_FLOOR)
    rel = np.abs(analytic - fd) / denom

    p_min = (workspace.amplitudes(angles)[workspace.free] ** 2).min(axis=1)
    clamp_flags = np.repeat(p_min < CLAMP_FLAG_THRESHOLD, angles.shape[1])
    clean = rel[~clamp_flags]
    max_rel = float(clean.max()) if clean.size else 0.0
    return GradientCheckReport(max_rel_error=max_rel, rel_errors=rel,
                               clamp_flags=clamp_flags, step=step, tol=tol,
                               passed=max_rel < tol)
