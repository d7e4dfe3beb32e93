"""Exact gradients of the interpolated cost with respect to every node's
angles, plus a central-finite-difference verifier.  Both take the cost's
couplings from the caller, as the ``energy`` oracles do.

The chain rule through the spherical parametrization is evaluated with a
backward recursion over angle index (O(c) per node, no divisions), so it is
stable at the coordinate poles where sine products vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .energy import (LOG_CLAMP, PLOGP_FLOOR, CostParams, energy_total,
                     extract_coloring)
from .graph import Graph
from .qudits import Forward, forward


_LOG_OF_CLAMP = float(np.log(LOG_CLAMP))


class CostWorkspace:
    """Per-(graph, dimension, fixed-node) buffers for fused cost+gradient;
    ``lx_offdiag`` is the superdiagonal of Lx that ``build_ops`` returns.

    Holds the upper triangle of the adjacency in CSR form: row u lists the
    neighbors v > u of u, so its slot e is edge e of ``graph.edges`` and
    the per-call couplings 1 + h go into the data array in edge order.
    The symmetric neighbor sum is two sparse products over that triangle,
    read once column-wise and once row-wise.  Reusable across runs; owns no
    per-run state.

    The triangle covers ``copies`` disjoint copies of the graph, one per
    run of a group stepped together, and a group of k <= copies runs uses
    the first k copies.  Each value is reduced over its own run alone, so
    a run's numbers do not depend on the group.

    The angles are a (k, V, c-1) stack, one (V, c-1) matrix per run with a
    row per node in ascending order.  The pinned node's row (if any) is all
    zeros, which the spherical map sends to exactly (1, 0, ..., 0), i.e.
    color 0; ``value_and_grad`` gives that row a gradient of exactly 0 in
    every run, so Adam never moves it.  A step maps the angles once with
    ``qudits.forward`` and hands the result to both ``value_and_grad`` and
    ``coloring``.

    Lx psi is taken on each run's amplitudes as one flat V*c row, in one
    ufunc pass: ``_lx_band`` is Lx's superdiagonal per node with a 0 after
    each.  A row never spans runs, so a diverged run's NaN stays in it.
    """

    def __init__(self, graph: Graph, lx_offdiag: np.ndarray,
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
        self.lx_offdiag = lx_offdiag
        self.fixed_node = fixed_node
        self.copies = copies
        offsets = n * np.arange(copies)[:, None]
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.tile(np.bincount(u, minlength=n), copies))]
        ).astype(np.intp)
        self._indices = (offsets + v).ravel().astype(np.intp)
        self._couplings = np.empty(copies * graph.num_edges)
        band = np.zeros((n, lx_offdiag.size + 1))
        band[:, :-1] = lx_offdiag
        self._lx_band = band.ravel()[:-1]

    def _neighbor_sum(self, p: np.ndarray, couplings: np.ndarray) -> np.ndarray:
        """acc_i = sum_j J_ij p_j over both orientations of every edge.

        Row i takes its neighbors j < i (the triangle read as CSC), then its
        neighbors j > i (read as CSR), each in ascending order: the same
        float operations, in the same order, as the symmetric CSR product.
        """
        V, E = self.graph.num_nodes, self.graph.num_edges
        # the kernels index p and the couplings without bounds checks
        if (p.ndim != 3 or p.shape[1] != V or not 1 <= len(p) <= self.copies
                or couplings.shape != (len(p), E)):
            raise ValueError(f"expected {V} rows and {E} couplings per run for "
                             f"1 to {self.copies} runs, as (runs, {V}, c) and "
                             f"(runs, {E}) stacks; got {p.shape} and "
                             f"{couplings.shape}")
        n, c = len(p) * V, p.shape[2]
        acc = np.zeros(p.shape)
        args = (n, n, c, self._indptr[:n + 1], self._indices[:couplings.size],
                couplings.ravel(), p.ravel(), acc.ravel())
        csc_matvecs(*args)
        csr_matvecs(*args)
        return acc

    def coloring(self, fwd: Forward) -> np.ndarray:
        """(k, V) most probable color of every node of every run."""
        return extract_coloring(fwd.psi)

    def value_and_grad(self, fwd: Forward, params: CostParams,
                       hvals: np.ndarray):
        """Cost of each of the k runs that ``fwd`` maps, as a function that
        returns a list of k floats when called, and the gradient w.r.t.
        their (k, V, c-1) angle stack, with the pinned node's rows exactly 0.

        Adam reads only the gradient, so the costs are computed only when
        the returned function is called; each call returns the same list.
        ``hvals`` holds each run's couplings as (k, E) rows.  At t = 1
        (every qdgd step) the start cost has weight 0, so it and its
        gradient are not computed: the values are the same, and a gradient
        entry can differ from the full formula only in the sign of a zero,
        which Adam's zero-started first moment does not carry.  Flat Lx rows
        (see the class) can flip such a zero sign at a node's first or last
        color, or set NaN there in a run with a non-finite amplitude."""
        t, gamma = params.t, params.gamma
        psi, s, u, r = fwd
        runs = len(psi)
        p = psi ** 2

        # end cost: neighbor accumulation acc_i = sum_j J_ij p_j
        couplings = np.add(hvals, 1.0,
                           out=self._couplings[:hvals.size].reshape(hvals.shape))
        acc = self._neighbor_sum(p, couplings)

        # one log serves both: floored for the values (as energy._plogp),
        # which read it later, and clamped into a new array for the
        # gradient (= log(max(p, LOG_CLAMP)))
        logp = np.log(np.maximum(p, PLOGP_FLOOR))
        logc = np.maximum(logp, _LOG_OF_CLAMP)
        off, cm1 = self.lx_offdiag, s.shape[-1]

        def values():
            e_f = np.einsum("rij,rij->r", p, acc)
            e_w = (p * logp).reshape(runs, -1).sum(axis=1)
            if t < 1.0:
                cross = (psi[..., :-1] * psi[..., 1:]).reshape(-1, cm1)
                e_i = (cross @ off).reshape(runs, -1).sum(axis=1).tolist()
            else:
                e_i = [0.0] * runs
            # each run's terms combined in Python floats: the same operations
            # as on numpy scalars, without a numpy call per term
            return [(1.0 - t) * (-2.0 * i) + t * (0.5 * f + gamma * w)
                    for f, w, i in zip(e_f.tolist(), e_w.tolist(), e_i)]

        # dE/dpsi = 2t psi (acc + gamma (logc + 1)), in logc: values() never reads it
        gpsi = np.add(logc, 1.0, out=logc)
        gpsi *= gamma
        gpsi += acc
        gpsi *= (2.0 * t) * psi
        if t < 1.0:
            flat, lxpsi = psi.reshape(runs, -1), np.empty((runs, psi[0].size))
            np.multiply(self._lx_band, flat[:, 1:], out=lxpsi[:, :-1])
            lxpsi[:, -1] = 0.0
            lxpsi[:, 1:] += self._lx_band * flat[:, :-1]
            lxpsi *= 2.0 * (1.0 - t)
            gpsi -= lxpsi.reshape(psi.shape)

        # chain rule to angles: backward recursion over the angle index
        back = np.empty_like(s)
        back[..., cm1 - 1] = gpsi[..., cm1]
        for a in range(cm1 - 2, -1, -1):
            back[..., a] = (gpsi[..., a + 1] * u[..., a + 1]
                            + s[..., a + 1] * back[..., a + 1])
        gphi = r[..., :cm1] * (u * back - gpsi[..., :cm1] * s)
        if self.fixed_node is not None:
            gphi[:, self.fixed_node] = 0.0
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
    clamp_flags: np.ndarray
    passed: bool


def check_gradient(workspace: CostWorkspace, angles: np.ndarray,
                   params: CostParams, hvals: np.ndarray, step: float = 1e-5,
                   tol: float = 1e-4) -> GradientCheckReport:
    """Compare the analytic gradient at the (V, c-1) ``angles`` and the
    (E,) couplings ``hvals`` against central finite differences of the
    ``energy_total`` oracle at the same couplings.

    Only the free nodes' angles are compared: the pinned node's row (if
    any) is held at its zeros, and ``clamp_flags`` lists the free nodes'
    angles in row order.  Components belonging to nodes with a near-zero
    probability are flagged rather than failed (the log clamp makes them
    incomparable).
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("finite-difference step must be in [1e-7, 1e-3]")
    graph, off = workspace.graph, workspace.lx_offdiag
    free = [i for i in range(graph.num_nodes) if i != workspace.fixed_node]
    angles = np.array(angles, dtype=np.float64)  # perturbed below
    _, gphi = workspace.value_and_grad(forward(angles[None]), params, hvals[None])
    analytic = gphi[0, free].ravel()

    flat = angles.ravel()
    fd = np.empty_like(analytic)
    for j, k in enumerate(np.arange(flat.size).reshape(angles.shape)[free].ravel()):
        saved = flat[k]
        flat[k] = saved + step
        e_plus = energy_total(forward(angles).psi, graph, off, params, hvals)
        flat[k] = saved - step
        e_minus = energy_total(forward(angles).psi, graph, off, params, hvals)
        flat[k] = saved
        fd[j] = (e_plus - e_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), _REL_FLOOR)
    rel = np.abs(analytic - fd) / denom

    p_min = (forward(angles).psi[free] ** 2).min(axis=1)
    clamp_flags = np.repeat(p_min < CLAMP_FLAG_THRESHOLD, angles.shape[1])
    clean = rel[~clamp_flags]
    max_rel = float(clean.max()) if clean.size else 0.0
    return GradientCheckReport(max_rel_error=max_rel, clamp_flags=clamp_flags,
                               passed=max_rel < tol)
