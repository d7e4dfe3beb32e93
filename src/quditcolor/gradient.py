"""Exact gradients of the interpolated cost with respect to all free angles,
plus a central-finite-difference verifier.

The chain rule through the spherical parametrization is evaluated with a
backward recursion over angle index (O(c) per node, no divisions), so it is
stable at the coordinate poles where sine products vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .energy import (LOG_CLAMP, PLOGP_FLOOR, CostParams, draw_couplings,
                     energy_total, extract_coloring)
from .graph import Graph
from .qudits import AngularMomentumOps, _forward


_LOG_OF_CLAMP = float(np.log(LOG_CLAMP))


class Forward(NamedTuple):
    """The spherical map of one angle matrix, as every consumer reads it;
    k runs stacked run after run (k = 1 for a single run)."""

    psi: np.ndarray       # (k*V, c) amplitudes, pinned one-hot rows included
    psi_free: np.ndarray  # (k*n_free, c) rows of the free nodes
    sin: np.ndarray       # (k*n_free, c-1) sines of the angles
    cos: np.ndarray       # (k*n_free, c-1) cosines of the angles
    prefix: np.ndarray    # (k*n_free, c) prefix sine products


class CostWorkspace:
    """Per-(graph, dimension, fixed-node) buffers for fused cost+gradient.

    Holds the upper triangle of the adjacency in CSR form: row u lists the
    neighbors v > u of u, so its slot e is edge e of ``graph.edges`` and
    the per-call couplings 1 + h go into the data array in edge order.
    The symmetric neighbor sum is two sparse products over that triangle,
    read once column-wise and once row-wise.  Reusable across runs; owns no
    per-run state.

    The triangle covers ``copies`` disjoint copies of the graph, one per
    run of a group stepped together: copy r owns rows r*V..(r+1)*V - 1 and
    slots r*E..(r+1)*E - 1, and a group of k <= copies runs uses the first
    k copies.  Every run keeps its own row block, and each value is reduced
    over that block alone, so a run's numbers do not depend on the group.

    The angles are a (k*n_free, c-1) matrix, run after run, one row per
    node in ascending order with the pinned node (if any) left out; the
    pinned node's amplitude vector is one-hot (1, 0, ..., 0), i.e. color
    0, in every copy.  A step maps the angles once with ``forward`` and
    hands the result to both ``value_and_grad`` and ``coloring``.
    """

    def __init__(self, graph: Graph, ops: AngularMomentumOps,
                 fixed_node: int | None, copies: int = 1):
        n = graph.num_nodes
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        # slot e of the triangle is edge e only for rows 0 <= u < v < n in
        # strictly increasing (u, v) order, i.e. increasing u * n + v
        if np.any((u < 0) | (u >= v) | (v >= n)) or np.any(np.diff(u * n + v) <= 0):
            raise ValueError("graph edges must have 0 <= u < v < num_nodes in "
                             "every row and be strictly increasing, as "
                             "Graph.from_edges builds them")
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.graph = graph
        self.ops = ops
        self.fixed_node = fixed_node
        self.copies = copies
        if fixed_node is None:
            self.free = np.arange(n)
        else:
            self.free = np.delete(np.arange(n), fixed_node)
        offsets = n * np.arange(copies)[:, None]
        self._free_rows = (offsets + self.free).ravel()
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.tile(np.bincount(u, minlength=n), copies))]
        ).astype(np.intp)
        self._indices = (offsets + v).ravel().astype(np.intp)
        self._couplings = np.empty(copies * graph.num_edges)

    def _neighbor_sum(self, p: np.ndarray, couplings: np.ndarray) -> np.ndarray:
        """acc_i = sum_j J_ij p_j over both orientations of every edge.

        Row i takes its neighbors j < i (the triangle read as CSC), then its
        neighbors j > i (read as CSR), each in ascending order: the same
        float operations, in the same order, as the symmetric CSR product.
        """
        n, c = p.shape
        V, E = self.graph.num_nodes, self.graph.num_edges
        runs = n // V
        # the kernels index p and the couplings without bounds checks
        if (n != runs * V or not 1 <= runs <= self.copies
                or couplings.shape != (runs * E,)):
            raise ValueError(f"expected {V} rows and {E} couplings per run for "
                             f"1 to {self.copies} runs, got {n} rows and "
                             f"{couplings.shape} couplings")
        acc = np.zeros((n, c))
        args = (n, n, c, self._indptr[:n + 1], self._indices[:runs * E],
                couplings, p.ravel(), acc.ravel())
        csc_matvecs(*args)
        csr_matvecs(*args)
        return acc

    def forward(self, angles: np.ndarray) -> Forward:
        """Map the free-node angle rows to amplitudes; every array is new."""
        psi_free, s, u, r = _forward(angles)
        k = self.fixed_node
        if k is None:
            psi = psi_free
        else:
            n, c = self.graph.num_nodes, psi_free.shape[1]
            free = psi_free.reshape(-1, n - 1, c)
            psi = np.empty((free.shape[0], n, c))
            psi[:, :k] = free[:, :k]
            psi[:, k] = 0.0
            psi[:, k, 0] = 1.0
            psi[:, k + 1:] = free[:, k:]
            psi = psi.reshape(-1, c)
        return Forward(psi, psi_free, s, u, r)

    def amplitudes(self, angles: np.ndarray) -> np.ndarray:
        """(k*V, c) amplitude matrix for the given free-node angle rows."""
        return self.forward(angles).psi

    def coloring(self, fwd: Forward) -> np.ndarray:
        """(k*V,) most probable color of every node, run after run."""
        return extract_coloring(fwd.psi)

    def value_and_grad(self, fwd: Forward, params: CostParams,
                       hvals: np.ndarray):
        """Cost of each of the k runs that ``fwd`` maps, a list of k floats,
        and the gradient w.r.t. their stacked (k*n_free, c-1) angle matrix.

        ``hvals`` holds each run's couplings in its own (E,) slice."""
        ops = self.ops
        t, gamma = params.t, params.gamma
        psi, psi_free, s, u, r = fwd
        runs = psi.shape[0] // self.graph.num_nodes
        p = psi ** 2

        # end cost: neighbor accumulation acc_i = sum_j J_ij p_j
        couplings = np.add(hvals, 1.0, out=self._couplings[:hvals.size])
        acc = self._neighbor_sum(p, couplings)
        blocks = (runs, -1, p.shape[1])
        e_f = np.einsum("rij,rij->r", p.reshape(blocks), acc.reshape(blocks))

        # one log serves both: floored for the value (as energy._plogp),
        # then clamped for the gradient (= log(max(p, LOG_CLAMP)))
        logp = np.log(np.maximum(p, PLOGP_FLOOR))
        e_w = (p * logp).reshape(runs, -1).sum(axis=1)
        np.maximum(logp, _LOG_OF_CLAMP, out=logp)

        off = ops.lx_offdiag
        cross = psi_free[:, :-1] * psi_free[:, 1:]
        e_i = (cross @ off).reshape(runs, -1).sum(axis=1)

        # each run's terms combined in Python floats: the same operations
        # as on numpy scalars, without a numpy call per term
        values = [(1.0 - t) * (-2.0 * i) + t * (0.5 * f + gamma * w)
                  for f, w, i in zip(e_f.tolist(), e_w.tolist(), e_i.tolist())]

        # dE/dpsi on free nodes
        free = self._free_rows[:psi_free.shape[0]]
        gpsi = (2.0 * t) * psi_free * (acc + gamma * (logp + 1.0))[free]
        lxpsi = np.zeros_like(psi_free)
        lxpsi[:, :-1] = off * psi_free[:, 1:]
        lxpsi[:, 1:] += off * psi_free[:, :-1]
        gpsi -= (2.0 * (1.0 - t)) * lxpsi

        # chain rule to angles: backward recursion over the angle index
        cm1 = s.shape[1]
        back = np.empty_like(s)
        back[:, cm1 - 1] = gpsi[:, cm1]
        for a in range(cm1 - 2, -1, -1):
            back[:, a] = gpsi[:, a + 1] * u[:, a + 1] + s[:, a + 1] * back[:, a + 1]
        gphi = r[:, :cm1] * (u * back - gpsi[:, :cm1] * s)
        return values, gphi


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
    _, gphi = workspace.value_and_grad(workspace.forward(angles), params, hvals)
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
