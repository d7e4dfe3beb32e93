"""Cost functions: classical conflict count, annealing start/end costs,
the entropy-style regularizer, and their time interpolation.

These are the direct, readable implementations; the fused value+gradient
path used by the solvers lives in the gradient module and is cross-checked
against these in the tests.  States enter as the (V, c) amplitude matrix
``psi`` with the pinned node's one-hot row included; see
``CostWorkspace.amplitudes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .qudits import AngularMomentumOps

# Probabilities are clamped at this value inside gradient logarithms; the
# cost value itself uses the 0*log(0) = 0 convention.
LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class CostParams:
    """Knobs of the interpolated cost: regularizer weight, coupling-noise
    cap, and annealing time."""

    gamma: float = 1.0
    h: float = 3.0
    t: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.h < 0:
            raise ValueError("h must be >= 0")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must be in [0, 1]")


def extract_coloring(psi: np.ndarray) -> np.ndarray:
    """Assign each node its most probable color (ties: lowest index)."""
    return np.argmax(psi ** 2, axis=1)


def potts_energy(graph: Graph, coloring: np.ndarray) -> int:
    """Number of edges whose endpoints share a color."""
    coloring = np.asarray(coloring)
    if coloring.shape != (graph.num_nodes,):
        raise ValueError(f"coloring length {coloring.shape} != {graph.num_nodes} nodes")
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    return int(np.count_nonzero(coloring[u] == coloring[v]))


def energy_initial(psi: np.ndarray, ops: AngularMomentumOps) -> float:
    """Start cost: minus the summed x angular momentum of the free nodes.

    Sums over every row; a pinned one-hot row contributes exactly zero.
    """
    # psi^T Lx psi = 2 * sum_m off[m] psi[m] psi[m+1] for tridiagonal Lx
    per_node = 2.0 * (psi[:, :-1] * psi[:, 1:]) @ ops.lx_offdiag
    return float(-per_node.sum())


def draw_couplings(graph: Graph, h: float, rng: np.random.Generator | None) -> np.ndarray:
    """Per-edge coupling perturbations, i.i.d. uniform in [0, h)."""
    if h == 0.0:
        return np.zeros(graph.num_edges)
    if rng is None:
        raise ValueError("h > 0 requires an rng (or pass frozen hvals)")
    return rng.uniform(0.0, h, size=graph.num_edges)


def energy_final(psi: np.ndarray, graph: Graph, params: CostParams,
                 rng: np.random.Generator | None = None, *,
                 hvals: np.ndarray | None = None) -> float:
    """End cost: coupling-weighted overlap of probability vectors over edges.

    The per-edge couplings 1 + h_ij are redrawn on every call unless frozen
    values are passed via ``hvals`` (the deterministic mode used by the
    gradient checker).
    """
    if hvals is None:
        hvals = draw_couplings(graph, params.h, rng)
    p = psi ** 2
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    overlaps = np.einsum("ij,ij->i", p[u], p[v])
    return float((1.0 + hvals) @ overlaps)


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log(p) with 0 * log(0) = 0."""
    return p * np.log(np.maximum(p, 1e-300))


def energy_weight(psi: np.ndarray, params: CostParams) -> float:
    """Regularizer favoring spread-out color distributions; always <= 0.

    Sums over every node including the fixed one, whose one-hot vector
    contributes exactly zero.
    """
    return float(params.gamma * _plogp(psi ** 2).sum())


def energy_total(psi: np.ndarray, graph: Graph, ops: AngularMomentumOps,
                 params: CostParams, rng: np.random.Generator | None = None, *,
                 hvals: np.ndarray | None = None) -> float:
    """Annealing interpolation: (1-t) * initial + t * (final + regularizer)."""
    e_i = energy_initial(psi, ops)
    e_f = energy_final(psi, graph, params, rng, hvals=hvals)
    e_w = energy_weight(psi, params)
    return (1.0 - params.t) * e_i + params.t * (e_f + e_w)
