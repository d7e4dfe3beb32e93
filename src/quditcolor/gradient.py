"""Exact gradients of the interpolated cost with respect to every node's
angles, plus a central-finite-difference verifier.  Both take the cost's
couplings from the caller, as the ``energy`` oracles do.

The chain rule through the spherical parametrization is evaluated with a
backward recursion over the angle index a,
back_a = gpsi_{a+1} cos(phi_{a+1}) + sin(phi_{a+1}) back_{a+1}
(O(c) per node, no divisions), so it is stable at the coordinate poles
where sine products vanish.  It runs on (c, k*V) column views of the
(k, V, c) stacks, so a column of every node row of every run is one 1-D
array: gpsi*cos is taken once on the whole stack, and each column is then
sin*back plus that product's column, two ufuncs written in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from .energy import LOG_CLAMP, energy_total, extract_coloring
from .graph import Graph
from .qudits import Forward, forward


def _increasing(values: np.ndarray) -> bool:
    """Whether a 1-D array is strictly increasing."""
    return bool((values[1:] > values[:-1]).all())


class CostWorkspace:
    """Per-(graph, dimension, fixed-node) buffers for the cost's gradient;
    ``lx_offdiag`` is the superdiagonal of Lx that ``build_ops`` returns.

    Holds the upper triangle of the adjacency in CSR form: row u lists the
    neighbors v > u of u, so its slot e is edge e of ``graph.edges`` and
    each call's couplings J, in edge order, are read as its data array.
    The symmetric neighbor sum is two sparse products over that triangle,
    read once column-wise and once row-wise.  Reusable across runs; owns no
    per-run state.

    The triangle covers ``copies`` disjoint copies of the graph, one per
    run of a group stepped together, and a group of k <= copies runs uses
    the first k copies.  Each value is reduced over its own run alone, so
    a run's numbers do not depend on the group.

    The angles are a (k, V, c) stack, one (V, c) matrix per run with a
    row per node in ascending order, in the padded layout of ``qudits``:
    c-1 angles and a last column of 0.  The pinned node's row (if any) is
    all zeros, which the spherical map sends to exactly (1, 0, ..., 0), i.e.
    color 0; ``value_and_grad`` gives that row a gradient of exactly 0 in
    every run, and so does the pad column of every row, so Adam never moves
    either.  A step maps the angles once with
    ``qudits.forward`` and hands the result to both ``value_and_grad`` and
    ``coloring``.

    Lx psi is taken on the whole (k, V, c) stack as one flat k*V*c vector,
    one ufunc pass per operation: ``_lx_band`` is Lx's superdiagonal per
    node of every copy with a 0 after each.  Two writes at each run
    boundary keep the runs apart (see ``value_and_grad``), so a diverged
    run's NaN stays in it.
    """

    def __init__(self, graph: Graph, lx_offdiag: np.ndarray,
                 fixed_node: int | None, copies: int = 1):
        n = graph.num_nodes
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        # slot e of the triangle is edge e only for rows 0 <= u < v < n in
        # strictly increasing (u, v) order, i.e. increasing u * n + v (the
        # initial values let a graph with no edges through)
        if not (graph.edges.min(initial=0) >= 0 and v.max(initial=-1) < n
                and (v - u).min(initial=1) > 0 and _increasing(u * n + v)):
            raise ValueError("graph edges must have 0 <= u < v < num_nodes in "
                             "every row and be strictly increasing, as "
                             "Graph.from_edges builds them")
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        # a negative index would pin another node, a bool every node
        if fixed_node is not None and (
                not isinstance(fixed_node, (int, np.integer))
                or isinstance(fixed_node, bool) or not 0 <= fixed_node < n):
            raise ValueError(f"fixed_node must be None or a node index in "
                             f"[0, {n}), got {fixed_node!r}")
        self.graph = graph
        self.lx_offdiag = lx_offdiag
        self.fixed_node = None if fixed_node is None else int(fixed_node)
        self.copies = copies
        self._indptr = np.zeros(copies * n + 1, dtype=np.intp)
        np.cumsum(np.tile(np.bincount(u, minlength=n), copies), out=self._indptr[1:])
        self._indices = (np.arange(0, copies * n, n, dtype=np.intp)[:, None] + v).ravel()
        band = np.zeros((copies * n, lx_offdiag.size + 1))
        band[:, :-1] = lx_offdiag
        self._lx_band = band.ravel()[:-1]

    def _neighbor_sum(self, p: np.ndarray, couplings: np.ndarray) -> np.ndarray:
        """acc_i = sum_j J_ij p_j over both orientations of every edge.

        Row i takes its neighbors j < i (the triangle read as CSC), then its
        neighbors j > i (read as CSR), each in ascending order: the same
        float operations, in the same order, as the symmetric CSR product.
        """
        V, E = self.graph.num_nodes, self.graph.num_edges
        c = self.lx_offdiag.size + 1
        # the kernels index p and the couplings without bounds checks, and
        # the flat Lx pass reads the band by the stack's length
        if (p.shape[1:] != (V, c) or not 1 <= len(p) <= self.copies
                or couplings.shape != (len(p), E)):
            raise ValueError(f"expected {V} rows and {E} couplings per run for "
                             f"1 to {self.copies} runs, as (runs, {V}, {c}) and "
                             f"(runs, {E}) stacks; got {p.shape} and "
                             f"{couplings.shape}")
        n = len(p) * V
        acc = np.zeros(p.shape)
        args = (n, n, c, self._indptr[:n + 1], self._indices[:couplings.size],
                couplings.ravel(), p.ravel(), acc.ravel())
        csc_matvecs(*args)
        csr_matvecs(*args)
        return acc

    def coloring(self, fwd: Forward) -> np.ndarray:
        """(k, V) most probable color of every node of every run."""
        return extract_coloring(fwd.psi)

    def value_and_grad(self, fwd: Forward, t: float, gamma: float,
                       couplings: np.ndarray) -> np.ndarray:
        """Gradient of the cost of each of the k runs that ``fwd`` maps,
        w.r.t. their padded (k, V, c) angle stack, with the pinned node's
        rows and the pad column exactly 0.  The angles must be in that
        layout, with their pad at 0; on the step path this is not checked.
        The cost itself is not computed: the drivers read the conflict count
        alone, and ``energy.energy_total`` is its readable form.  The name
        stays as the benchmark's tracer and per-layer metrics know it.

        ``couplings`` holds each run's couplings as (k, E) rows, as
        ``energy.draw_couplings`` draws them; the floats t and gamma hold
        for all k runs.  At t = 1 (every qdgd step) the start cost has
        weight 0, so its gradient is not computed: an entry can differ from
        the full formula only in the sign of a zero, which Adam's
        zero-started first moment does not carry.  The flat Lx pass (see the
        class) can flip such a zero sign at a node's first or last color, or
        set NaN there in a run with a non-finite amplitude.  It never crosses
        runs: each run's last entry is set to +0.0, as the per-run form
        leaves it, and the addend into the next run's first entry to -0.0,
        because x + (-0.0) is x for every x, NaN and both zeros included, so
        that entry keeps the per-run bits."""
        psi, s, u, r = fwd
        p = psi ** 2

        # end cost: neighbor accumulation acc_i = sum_j J_ij p_j
        acc = self._neighbor_sum(p, couplings)

        # dE/dpsi = 2t psi (acc + gamma (log p + 1)), log p clamped below
        gpsi = np.log(np.maximum(p, LOG_CLAMP))
        gpsi += 1.0
        gpsi *= gamma
        gpsi += acc
        gpsi *= (2.0 * t) * psi
        if t < 1.0:
            flat, lxpsi, row = psi.ravel(), np.empty(psi.size), psi[0].size
            band = self._lx_band[:flat.size - 1]
            np.multiply(band, flat[1:], out=lxpsi[:-1])
            lxpsi[row - 1::row] = 0.0  # each run's last entry
            below = band * flat[:-1]
            below[row - 1::row] = -0.0  # nothing crosses into a run's first
            lxpsi[1:] += below
            lxpsi *= 2.0 * (1.0 - t)
            gpsi -= lxpsi.reshape(psi.shape)

        # chain rule to angles: the backward recursion (see the module
        # docstring), with the pad's entry held at 0.  IEEE + and * commute,
        # so the bits are the formula's; the pad's cosine is exactly 1, so
        # G[cm1] is gpsi's last column.  ``back`` is allocated C-ordered,
        # not ``empty_like(s)``, which follows the layout of the angles:
        # only then is B a view that the loop writes through.
        cm1 = psi.shape[-1] - 1
        back = np.empty(s.shape)
        B, G, S = (x.reshape(-1, cm1 + 1).T for x in (back, gpsi * u, s))
        B[cm1] = 0.0
        B[cm1 - 1] = G[cm1]
        for a in range(cm1 - 2, -1, -1):
            col = B[a]
            np.multiply(S[a + 1], B[a + 1], col)
            col += G[a + 1]
        gphi = u * back
        gphi -= np.multiply(gpsi, s, out=gpsi)
        gphi *= r
        gphi[..., cm1] = 0.0
        if self.fixed_node is not None:
            gphi[:, self.fixed_node] = 0.0
        return gphi


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
                   t: float, gamma: float, couplings: np.ndarray,
                   step: float = 1e-5, tol: float = 1e-4) -> GradientCheckReport:
    """Compare the analytic gradient at the padded (V, c) ``angles``, time
    t, weight gamma and (E,) ``couplings``, a row of ``draw_couplings``,
    against central finite differences of the ``energy_total`` oracle.

    Only the free nodes' c-1 angles are compared: the pinned node's row (if
    any) is held at its zeros, the pad is no angle of the map, and
    ``clamp_flags`` lists the free nodes' angles in row order.  Components
    belonging to nodes with a near-zero probability are flagged rather than
    failed (the log clamp makes them incomparable).  ``ValueError`` if the
    angles are not (V, c) or their pad column is not all 0.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("finite-difference step must be in [1e-7, 1e-3]")
    graph, off = workspace.graph, workspace.lx_offdiag
    angles = np.array(angles, dtype=np.float64)  # perturbed below
    shape = (graph.num_nodes, off.size + 1)
    if angles.shape != shape:
        raise ValueError(f"angles must be {shape}: c-1 angles and a zero pad "
                         f"per node, got {angles.shape}")
    if np.any(angles[:, -1] != 0.0):
        raise ValueError("the angles' pad column must be all 0")
    free = [i for i in range(graph.num_nodes) if i != workspace.fixed_node]
    gphi = workspace.value_and_grad(forward(angles[None]), t, gamma, couplings[None])
    analytic = gphi[0, free, :-1].ravel()

    flat = angles.ravel()
    fd = np.empty_like(analytic)
    for j, k in enumerate(np.arange(flat.size).reshape(shape)[free, :-1].ravel()):
        saved = flat[k]
        flat[k] = saved + step
        e_plus = energy_total(forward(angles).psi, graph, off, t, gamma, couplings)
        flat[k] = saved - step
        e_minus = energy_total(forward(angles).psi, graph, off, t, gamma, couplings)
        flat[k] = saved
        fd[j] = (e_plus - e_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), _REL_FLOOR)
    rel = np.abs(analytic - fd) / denom

    p_min = (forward(angles).psi[free] ** 2).min(axis=1)
    clamp_flags = np.repeat(p_min < CLAMP_FLAG_THRESHOLD, off.size)
    clean = rel[~clamp_flags]
    max_rel = float(clean.max()) if clean.size else 0.0
    return GradientCheckReport(max_rel_error=max_rel, clamp_flags=clamp_flags,
                               passed=max_rel < tol)
