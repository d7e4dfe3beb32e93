"""Cost functions: classical conflict count, annealing start/end costs,
the entropy-style regularizer, and their time interpolation.

These are the direct, readable implementations; the fused gradient
kernel used by the solvers lives in the gradient module and is cross-checked
against these in the tests.  States enter as one run's (V, c) amplitude
matrix ``psi``, ``qudits.forward(angles).psi`` with the pinned node's
one-hot row included; Lx as the superdiagonal that ``qudits.build_ops``
returns; the couplings as the (E,) noise values h_ij that the caller drew
with ``draw_couplings``; and t and gamma as plain floats the caller checks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .graph import Graph

# Probabilities are clamped at this value inside gradient logarithms; the
# cost value itself uses the 0*log(0) = 0 convention, flooring p at
# PLOGP_FLOOR before the log so that p * log(p) is exactly 0 at p = 0.
LOG_CLAMP = 1e-12
PLOGP_FLOOR = 1e-300


def extract_coloring(psi: np.ndarray) -> np.ndarray:
    """Assign each node its most probable color, the largest |amplitude|
    over the last axis (ties: lowest index)."""
    return np.argmax(np.abs(psi), axis=-1)


# A stack of at least this many colorings is counted with one node-major
# gather, a shorter one a coloring at a time: the two break even at about
# 10 rows on queen5-5 to queen11-11 (160 to 1,980 edges).
_GATHER_MIN_ROWS = 10


def potts_energy(graph: Graph, coloring: np.ndarray) -> int | list[int]:
    """Number of edges whose endpoints share a color.

    For an (R, V) stack of colorings, the list of the R counts.
    """
    coloring = np.asarray(coloring)
    if coloring.ndim not in (1, 2) or coloring.shape[-1] != graph.num_nodes:
        raise ValueError(f"coloring length {coloring.shape} != {graph.num_nodes} nodes")
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    if coloring.ndim == 1:
        return int(np.count_nonzero(coloring[u] == coloring[v]))
    if len(coloring) < _GATHER_MIN_ROWS:
        return [int(np.count_nonzero(row[u] == row[v])) for row in coloring]
    # node-major: one gather per endpoint serves every coloring
    by_node = np.ascontiguousarray(coloring.T)
    same = np.take(by_node, u, axis=0) == np.take(by_node, v, axis=0)
    return same.sum(axis=0).tolist()


def energy_initial(psi: np.ndarray, lx_offdiag: np.ndarray) -> float:
    """Start cost: minus the summed x angular momentum of the free nodes.

    Sums over every row; a pinned one-hot row contributes exactly zero.
    """
    # psi^T Lx psi = 2 * sum_m off[m] psi[m] psi[m+1] for tridiagonal Lx
    per_node = 2.0 * (psi[:, :-1] * psi[:, 1:]) @ lx_offdiag
    return float(-per_node.sum())


def draw_couplings(graph: Graph, h: float, rngs: Sequence[np.random.Generator],
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per-edge coupling perturbations, i.i.d. uniform in [0, h), in edge
    order, one row of them per generator in ``rngs``.

    Written into ``out`` when given, else into a new (len(rngs), E) array.
    ``out`` is C-contiguous of shape (len(rngs), ..., E), and ``out[j]`` is
    filled from ``rngs[j]`` alone: a (k, B, E) buffer holds B successive
    draws of each of k generators.  ``out[j]`` and the generator's next
    state are those of ``rngs[j].uniform(0.0, h, out[j].shape)``: each
    generator fills its rows in one call, and the whole buffer is then
    scaled by h in one pass.  ``h == 0`` gives zeros and draws nothing.
    A single draw is ``draw_couplings(graph, h, [rng])[0]``.
    """
    if out is None:
        out = np.empty((len(rngs), graph.num_edges))
    elif len(out) != len(rngs):
        raise ValueError(f"{len(rngs)} generators for {len(out)} rows of couplings")
    if h == 0.0:
        out.fill(0.0)
        return out
    for rng, rows in zip(rngs, out):
        rng.random(out=rows)
    out *= h
    return out


def energy_final(psi: np.ndarray, graph: Graph, hvals: np.ndarray) -> float:
    """End cost: overlap of probability vectors over edges, edge ij weighted
    by its coupling 1 + h_ij for the (E,) noise values ``hvals``."""
    p = psi ** 2
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    overlaps = np.einsum("ij,ij->i", p[u], p[v])
    return float((1.0 + hvals) @ overlaps)


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log(p) with 0 * log(0) = 0."""
    return p * np.log(np.maximum(p, PLOGP_FLOOR))


def energy_weight(psi: np.ndarray, gamma: float) -> float:
    """Regularizer favoring spread-out color distributions; always <= 0.

    Sums over every node including the fixed one, whose one-hot vector
    contributes exactly zero.
    """
    return float(gamma * _plogp(psi ** 2).sum())


def energy_total(psi: np.ndarray, graph: Graph, lx_offdiag: np.ndarray,
                 t: float, gamma: float, hvals: np.ndarray) -> float:
    """Annealing interpolation: (1-t) * initial + t * (final + regularizer)."""
    e_i = energy_initial(psi, lx_offdiag)
    e_f = energy_final(psi, graph, hvals)
    e_w = energy_weight(psi, gamma)
    return (1.0 - t) * e_i + t * (e_f + e_w)
