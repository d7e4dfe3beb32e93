"""Standard benchmark instances, generated from their definitions.

Queen graphs connect chessboard squares that share a row, column, or
diagonal.  The myciel family applies the triangle-free chromatic-number
-raising construction repeatedly, starting from a single edge.
``qdlqa_start`` gives the amplitudes of an annealing start on an instance,
``small_graphs`` draws graphs for property tests, and ``amplitudes`` and
``lx_matrix`` give the spherical map and the dense Lx that the package
keeps only in the forms its cost reads.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import strategies as st

from quditcolor.gradient import CostWorkspace
from quditcolor.graph import Graph, select_fixed_node
from quditcolor.qudits import _forward, build_ops, init_qdlqa_state


def queen_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for a in range(rows * cols):
        ra, ca = divmod(a, cols)
        for b in range(a + 1, rows * cols):
            rb, cb = divmod(b, cols)
            if ra == rb or ca == cb or abs(ra - rb) == abs(ca - cb):
                edges.append((a, b))
    return edges


def mycielskian(num_nodes: int, edges: list[tuple[int, int]]):
    """One construction step: nodes v_i keep their edges, shadows u_i attach
    to the neighbors of v_i, and an apex node attaches to every shadow."""
    n = num_nodes
    out = list(edges)
    for u, v in edges:
        out.append((u, n + v))
        out.append((v, n + u))
    apex = 2 * n
    out.extend((n + i, apex) for i in range(n))
    return 2 * n + 1, out


def myciel_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Start from a single edge and apply the construction k-1 times
    (myciel3 is the 11-node, 20-edge graph; chromatic number is k+1)."""
    if k < 2:
        raise ValueError("myciel index must be >= 2")
    num_nodes, edges = 2, [(0, 1)]
    for _ in range(k - 1):
        num_nodes, edges = mycielskian(num_nodes, edges)
    return num_nodes, edges


def queen_graph(rows: int, cols: int) -> Graph:
    return Graph.from_edges(rows * cols, queen_edges(rows, cols))


def myciel_graph(k: int) -> Graph:
    num_nodes, edges = myciel_edges(k)
    return Graph.from_edges(num_nodes, edges)


def to_col_text(num_nodes: int, edges) -> str:
    lines = [f"p edge {num_nodes} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def queen_col_text(rows: int, cols: int) -> str:
    return to_col_text(rows * cols, queen_edges(rows, cols))


def myciel_col_text(k: int) -> str:
    return to_col_text(*myciel_edges(k))


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(center: int, leaves: list[int]) -> Graph:
    nodes = 1 + len(leaves)
    return Graph.from_edges(nodes, [(center, leaf) for leaf in leaves])


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi with isolated nodes patched by chaining them in."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.uniform() < p]
    present = {v for e in edges for v in e}
    for i in range(n):
        if i not in present:
            j = (i + 1) % n
            edges.append((min(i, j), max(i, j)))
            present.update((i, j))
    return Graph.from_edges(n, edges)


@st.composite
def small_graphs(draw):
    """A graph from ``Graph.from_edges``: a path through a random node order
    (so no node is isolated) plus random extra edges."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=3 * n))
    return Graph.from_edges(n, list(zip(order, order[1:])) + extra)


def amplitudes(phi) -> np.ndarray:
    """The unit amplitude vector of an angle vector of length c-1, or the
    (n, c) amplitudes of an (n, c-1) angle matrix."""
    phi = np.asarray(phi, dtype=np.float64)
    psi = _forward(np.atleast_2d(phi))[0]
    return psi[0] if phi.ndim == 1 else psi


def lx_matrix(c: int) -> np.ndarray:
    """The dense (c, c) Lx, built from the superdiagonal the package keeps."""
    off = build_ops(c).lx_offdiag
    return np.diag(off, 1) + np.diag(off, -1)


def qdlqa_start(graph: Graph, c: int, f: float, rng: np.random.Generator):
    """(V, c) amplitudes of the annealing start, max-degree node pinned."""
    fixed = select_fixed_node(graph, "max_degree")
    angles = init_qdlqa_state(graph.num_nodes - 1, c, f, rng)
    return CostWorkspace(graph, build_ops(c), fixed).amplitudes(angles)


class _DiesWhenUnpickled(Graph):
    """A graph whose unpickled copy is a call to ``os._exit(3)``."""

    def __reduce__(self):
        return os._exit, (3,)


def dies_in_worker(graph: Graph) -> Graph:
    """``graph``, unchanged in this process, that ends any process which
    unpickles it: a pool worker dies on receiving it under every start
    method, since each worker unpickles its own arguments."""
    return _DiesWhenUnpickled(graph.num_nodes, graph.edges, graph.degrees)


class _RaisingEdgeCount(Graph):
    """A graph whose edge count raises ``ValueError``."""

    @property
    def num_edges(self) -> int:
        raise ValueError("edge count unavailable")


class _RaisesWhenUnpickled(Graph):
    """A graph whose unpickled copy is a ``_RaisingEdgeCount``."""

    def __reduce__(self):
        return _RaisingEdgeCount, (self.num_nodes, self.edges, self.degrees)


def raises_in_worker(graph: Graph) -> Graph:
    """``graph``, unchanged in this process, whose unpickled copy raises
    ``ValueError`` when its edge count is read: a pool worker receives it
    intact under every start method, and the run there raises."""
    return _RaisesWhenUnpickled(graph.num_nodes, graph.edges, graph.degrees)
