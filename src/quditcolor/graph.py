"""Loading, validation, and preprocessing of graph-coloring instances.

Two input formats are supported: DIMACS .col files and whitespace edge
lists with ``#`` comments (the SNAP convention).  Preprocessing removes
duplicate edges, self-loops, and isolated nodes, and compacts node
indices to ``[0, |V|)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class GraphParseError(ValueError):
    """Raised when an instance file cannot be parsed."""


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph.

    Edges are stored as a flat (E, 2) int array with u < v in each row,
    sorted lexicographically; cost evaluation iterates them linearly.
    """

    num_nodes: int
    edges: np.ndarray
    degrees: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_nodes else 0

    @property
    def density(self) -> float:
        if self.num_nodes < 2:
            return 0.0
        return 2.0 * self.num_edges / (self.num_nodes * (self.num_nodes - 1))

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        """Build a validated graph from 0-based (u, v) pairs.

        Duplicate edges (in either orientation) are collapsed; self-loops
        and isolated nodes are rejected.
        """
        pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self-loop not allowed")
        pairs = _canonical_edges(pairs)
        degrees = np.bincount(pairs.ravel(), minlength=num_nodes)
        if num_nodes and degrees.min() == 0:
            raise ValueError("isolated node present; preprocess with compact_edges first")
        return cls(num_nodes=num_nodes, edges=pairs, degrees=degrees)


def _canonical_edges(pairs: np.ndarray) -> np.ndarray:
    """Sort endpoints within rows, drop duplicates, sort lexicographically."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def compact_edges(pairs) -> tuple[Graph, list[int]]:
    """Preprocess raw labeled edges into a Graph plus an index map.

    Drops self-loops and duplicates, relabels the surviving node labels to
    0..|V|-1 in ascending label order (which also removes isolated nodes),
    and returns ``(graph, original_ids)`` where ``original_ids[i]`` is the
    input label of compacted node ``i``.
    """
    pairs = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                       dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.shape[0] == 0:
        raise GraphParseError("empty graph after preprocessing")
    labels = np.unique(pairs)
    remapped = np.searchsorted(labels, pairs)
    graph = Graph.from_edges(len(labels), remapped)
    return graph, labels.tolist()


def parse_dimacs(text: str) -> tuple[Graph, list[int]]:
    """Parse a DIMACS .col instance.

    Expects comment lines ``c ...``, a single ``p edge <V> <E>`` header,
    and edge lines ``e <u> <v>`` with 1-based indices.  Returns the
    preprocessed graph and the list of original (1-based) node ids.
    """
    declared_nodes = None
    raw_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared_nodes is not None:
                raise GraphParseError(f"line {lineno}: duplicate 'p' line")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_nodes = int(parts[2])
                int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: malformed header {line!r}") from None
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: malformed edge line {line!r}") from None
            raw_edges.append((u, v))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if declared_nodes is None:
        raise GraphParseError("missing 'p edge' line")
    for u, v in raw_edges:
        if not (1 <= u <= declared_nodes and 1 <= v <= declared_nodes):
            raise GraphParseError(f"edge ({u}, {v}) out of range 1..{declared_nodes}")
    return compact_edges(raw_edges)


def parse_edge_list(text: str) -> tuple[Graph, list[int]]:
    """Parse a whitespace-separated edge list (SNAP convention).

    ``#`` starts a comment; node ids are arbitrary non-negative integers
    and get compacted to 0..|V|-1.  Returns (graph, original node ids).
    """
    raw_edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative node id in {line!r}")
        raw_edges.append((u, v))
    return compact_edges(raw_edges)


def to_dimacs(graph: Graph) -> str:
    """Serialize a graph back to DIMACS .col text (1-based indices)."""
    lines = [f"p edge {graph.num_nodes} {graph.num_edges}"]
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def load_graph(path, fmt: str | None = None) -> tuple[Graph, list[int]]:
    """Load an instance file, auto-detecting the format by extension.

    ``.col`` files parse as DIMACS, everything else as an edge list;
    pass ``fmt`` ("dimacs" or "edgelist") to override.
    """
    path = Path(path)
    if fmt is None:
        fmt = "dimacs" if path.suffix.lower() == ".col" else "edgelist"
    if fmt not in ("dimacs", "edgelist"):
        raise ValueError(f"unknown format {fmt!r}")
    text = path.read_text()
    return parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)


def select_fixed_node(graph: Graph, strategy) -> int | None:
    """Resolve the node to pin to a single color.

    Strategies: "max_degree" (lowest-index node of maximal degree),
    "degree_one" (lowest-index node of degree 1), an explicit int index,
    or "none"/None (no node fixed; every node is parameterized).
    """
    if strategy is None or strategy == "none":
        return None
    if strategy == "max_degree":
        return int(np.argmax(graph.degrees))
    if strategy == "degree_one":
        ones = np.flatnonzero(graph.degrees == 1)
        if ones.size == 0:
            raise ValueError("no degree-1 node in graph")
        return int(ones[0])
    if isinstance(strategy, (int, np.integer)):
        index = int(strategy)
        if not 0 <= index < graph.num_nodes:
            raise ValueError(f"fixed node {index} out of range [0, {graph.num_nodes})")
        return index
    raise ValueError(f"unknown fix strategy {strategy!r}")
