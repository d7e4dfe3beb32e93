import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from quditcolor.graph import (Graph, GraphParseError, GraphWarning, load_graph,
                              parse_dimacs, parse_edge_list, select_fixed_node,
                              to_dimacs)

from instances import (myciel_col_text, myciel_graph, path, queen_col_text,
                       queen_graph, small_graphs, star, triangle)


def test_parse_dimacs_triangle():
    g, ids = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert ids == [1, 2, 3]
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_parse_dimacs_collapses_duplicates():
    g, _ = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
    assert g.num_nodes == 2
    assert g.num_edges == 1


def test_parse_dimacs_drops_isolated_and_remaps():
    g, ids = parse_dimacs("c a comment\np edge 5 2\ne 2 4\ne 4 5\n")
    assert g.num_nodes == 3
    assert ids == [2, 4, 5]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_dimacs_warns_on_edge_count_mismatch():
    with pytest.warns(GraphWarning) as caught:
        g, _ = parse_dimacs("p edge 4 5\ne 1 2\ne 2 3\ne 3 4\n")
    assert [str(w.message) for w in caught] == \
        ["header declares 5 edges, file lists 3"]
    assert g.num_edges == 3


@pytest.mark.parametrize("text", [
    "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    # both directions listed: the header counts lines, not unique edges
    "p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n",
])
def test_parse_dimacs_matching_edge_count_is_silent(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_dimacs(text)


@pytest.mark.parametrize("text,match", [
    ("e 1 2\ne 2 3\n", "missing"),
    ("p edge x 3\ne 1 2\n", "malformed header"),
    ("p edge 3\ne 1 2\n", "malformed header"),
    ("p edge 3 3\ne 1 4\n", "out of range"),
    ("p edge 3 3\ne 1\n", "malformed edge"),
    ("p edge 3 1\nq 1 2\n", "unrecognized"),
    ("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate 'p'"),
])
def test_parse_dimacs_errors(text, match):
    with pytest.raises(GraphParseError, match=match):
        parse_dimacs(text)


def test_parse_edge_list_basic():
    g, ids = parse_edge_list("0 1\n1 0\n2 2\n")
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert ids == [0, 1]


def test_parse_edge_list_compacts_ids():
    g, ids = parse_edge_list("5 9\n9 7\n")
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert ids == [5, 7, 9]


def test_parse_edge_list_comments_and_errors():
    g, _ = parse_edge_list("# header\n0 1  # trailing\n1 2\n")
    assert g.num_edges == 2
    with pytest.raises(GraphParseError, match="non-integer"):
        parse_edge_list("0 a\n")
    with pytest.raises(GraphParseError, match="two node ids"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphParseError, match="empty graph"):
        parse_edge_list("3 3\n")


@pytest.mark.parametrize("rows,cols,nodes,edges", [
    (5, 5, 25, 160),
    (6, 6, 36, 290),
    (7, 7, 49, 476),
    (8, 8, 64, 728),
    (9, 9, 81, 1056),
    (8, 12, 96, 1368),
    (11, 11, 121, 1980),
    (13, 13, 169, 3328),
])
def test_queen_instance_sizes(rows, cols, nodes, edges):
    g, _ = parse_dimacs(queen_col_text(rows, cols))
    assert (g.num_nodes, g.num_edges) == (nodes, edges)


@pytest.mark.parametrize("k,nodes,edges", [
    (3, 11, 20), (4, 23, 71), (5, 47, 236), (6, 95, 755), (7, 191, 2360),
])
def test_myciel_instance_sizes(k, nodes, edges):
    g, _ = parse_dimacs(myciel_col_text(k))
    assert (g.num_nodes, g.num_edges) == (nodes, edges)


def test_serialization_round_trip():
    for g in (triangle(), queen_graph(5, 5), myciel_graph(4)):
        reparsed, _ = parse_dimacs(to_dimacs(g))
        assert reparsed.num_nodes == g.num_nodes
        assert np.array_equal(reparsed.edges, g.edges)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs())
def test_dimacs_round_trip_property(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GraphWarning)
        reparsed, ids = parse_dimacs(to_dimacs(g))
    assert reparsed.num_nodes == g.num_nodes
    assert np.array_equal(reparsed.edges, g.edges)
    assert ids == list(range(1, g.num_nodes + 1))


def test_edges_are_canonical():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 3), (0, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    assert g.degrees.tolist() == [2, 2, 1, 1]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError, match="isolated"):
        Graph.from_edges(3, [(0, 1)])


def test_select_fixed_node_strategies(k3):
    assert select_fixed_node(k3, "max_degree") == 0  # tie: lowest index
    s = star(2, [0, 1, 3, 4])
    assert select_fixed_node(s, "max_degree") == 2
    p = path(3)
    assert select_fixed_node(p, "degree_one") == 0
    assert select_fixed_node(p, 1) == 1
    assert select_fixed_node(p, "none") is None
    assert select_fixed_node(p, None) is None
    with pytest.raises(ValueError, match="degree-1"):
        select_fixed_node(k3, "degree_one")
    with pytest.raises(ValueError, match="out of range"):
        select_fixed_node(k3, 7)


def test_select_fixed_node_deterministic(queen55):
    picks = {select_fixed_node(queen55, "max_degree") for _ in range(5)}
    assert picks == {12}  # board center has the most attacks


def test_load_graph_format_detection(tmp_path):
    col = tmp_path / "tiny.col"
    col.write_text("p edge 2 1\ne 1 2\n")
    g, _ = load_graph(col)
    assert g.num_edges == 1

    snap = tmp_path / "tiny.txt"
    snap.write_text("# comment\n0 1\n")
    g2, _ = load_graph(snap)
    assert g2.num_edges == 1

    # override: treat the .txt as DIMACS and fail accordingly
    with pytest.raises(GraphParseError):
        load_graph(snap, fmt="dimacs")
    with pytest.raises(ValueError, match="unknown format"):
        load_graph(snap, fmt="csv")


def test_graph_properties(queen55):
    assert queen55.max_degree == int(queen55.degrees.max())
    assert queen55.density == pytest.approx(2 * 160 / (25 * 24))
