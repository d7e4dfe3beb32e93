import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditcolor import graph
from quditcolor.graph import (Graph, GraphParseError, GraphWarning, compact_edges,
                              load_graph, parse_dimacs, parse_edge_list,
                              select_fixed_node)

from instances import (myciel_col_text, myciel_graph, path, queen_col_text,
                       queen_graph, small_graphs, star, to_col_text, triangle)


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
        reparsed, _ = parse_dimacs(to_col_text(g.num_nodes, g.edges))
        assert reparsed.num_nodes == g.num_nodes
        assert np.array_equal(reparsed.edges, g.edges)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs())
def test_dimacs_round_trip_property(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GraphWarning)
        reparsed, ids = parse_dimacs(to_col_text(g.num_nodes, g.edges))
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
    with pytest.raises(ValueError, match="at least one node, got 0"):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError, match="at least one node, got -1"):
        Graph.from_edges(-1, [])


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


@pytest.mark.parametrize("parse,text,message", [
    (parse_edge_list, "0 99999999999999999999\n1 2\n",
     "line 1: node id 99999999999999999999 is larger than 9223372036854775807"),
    (parse_edge_list, "0 1\n9223372036854775808 9223372036854775809\n",
     "line 2: node id 9223372036854775808 is larger than 9223372036854775807"),
    # every other error still comes first, as before
    (parse_edge_list, "0 99999999999999999999\n1 2 3\n",
     "line 2: expected two node ids, got '1 2 3'"),
    (parse_dimacs, "p edge 99999999999999999999 1\ne 1 99999999999999999999\n",
     "line 2: node id 99999999999999999999 is larger than 9223372036854775807"),
    (parse_dimacs, "p edge 5 1\ne 1 99999999999999999999\n",
     "edge (1, 99999999999999999999) out of range 1..5"),
])
def test_node_id_past_int64_is_a_parse_error(parse, text, message):
    with pytest.raises(GraphParseError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_int64_max_node_id_parses():
    _, ids = parse_edge_list("9223372036854775807 0\n")
    assert ids == [0, 2**63 - 1]


@pytest.mark.parametrize("name", ["bad.txt", "bad.col"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"p edge 2 1\ne 1 2\xff\n" if name.endswith(".col")
                     else b"0 1\r1 2\xff\n")
    with pytest.raises(GraphParseError, match=r"^line 2: byte 0xff is not UTF-8$"):
        load_graph(path)


BOM = b"\xef\xbb\xbf"  # UTF-8 byte order mark, as Windows Notepad writes it


BOM_TEXTS = {"plain.col": "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
             "plain.txt": "1 2\n2 3\n1 3\n",
             "signed.txt": "1 +2\n2 3\n1 3\n"}  # only the line reader takes a sign


@pytest.mark.parametrize("name", sorted(BOM_TEXTS))
def test_leading_byte_order_mark_is_dropped(tmp_path, name):
    text = BOM_TEXTS[name]
    if name.endswith(".txt"):
        assert (graph._plain_edge_list(text) is None) == name.startswith("signed")
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text)
    marked.write_bytes(BOM + text.encode())
    g, ids = load_graph(plain)
    g_marked, ids_marked = load_graph(marked)
    assert (g_marked.num_nodes, ids_marked) == (g.num_nodes, ids)
    np.testing.assert_array_equal(g_marked.edges, g.edges)


def test_byte_order_mark_leaves_the_bad_byte_named(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(BOM + b"0 1\n1 2\n2 3\n3 4\n4 5\xff\n")
    with pytest.raises(GraphParseError, match=r"^line 5: byte 0xff is not UTF-8$"):
        load_graph(path)


def test_load_graph_reads_crlf_and_cr_line_ends(tmp_path):
    for ending in ("\r\n", "\r"):
        path = tmp_path / "crlf.txt"
        path.write_bytes(ending.join(["# c", "0 1", "1 2", ""]).encode())
        g, ids = load_graph(path)
        assert (g.num_edges, ids) == (2, [0, 1, 2])


# Tokens, gaps, indents and line ends as (text, in the plain syntax).  Each
# odd one parses with int() and str.split() or fails the same way in both
# readers.
_PLAIN_IDS = st.one_of(
    st.integers(0, 12).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 4), st.integers(0, 12)),
    st.integers(10**17, 10**18 - 1).map(str),
)
_ODD_IDS = st.one_of(
    st.sampled_from(["+3", "-0", "1_0", "\uff12", "-4", "x", "3.0", "0x1"]),
    st.integers(10**18, 2 * 10**19).map(str),  # 19 or 20 digits, past int64 or not
)
_GAPS = [(" ", True), ("\t", True), (" \t ", True), ("\xa0", False)]
_INDENTS = [("", True), (" ", True), ("\t", True), ("\u3000", False)]
_ENDS = [("\n", True), ("\r\n", True), ("\x0c", False), ("\r", False), ("\u2028", False)]


def _pick(draw, options, odd):
    """One (text, plain) option; only plain ones unless ``odd``."""
    return draw(st.sampled_from([o for o in options if odd or o[1]]))


def _pick_id(draw, odd, plain_ids=_PLAIN_IDS):
    if odd and draw(st.booleans()):
        return draw(_ODD_IDS), False
    return draw(plain_ids), True


def _join(draw, lines, odd):
    """The lines of (text, plain) joined by drawn line ends, with or without
    one after the last line; returns (text, plain)."""
    text, plain = "", True
    for i, (line, line_plain) in enumerate(lines):
        end, end_plain = _pick(draw, _ENDS, odd)
        if i == len(lines) - 1 and draw(st.booleans()):
            end, end_plain = "", True
        text += line + end
        plain = plain and line_plain and end_plain
    return text, plain


@st.composite
def _edge_list_texts(draw):
    """(text, whether it is in the plain syntax) of an edge list with
    comments, blank lines and, in half the texts, odd tokens, odd line ends
    and malformed lines."""
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "blank", "comment", "bad"]))
        if kind == "pair":
            parts = [_pick(draw, _INDENTS, odd), _pick_id(draw, odd),
                     _pick(draw, _GAPS, odd), _pick_id(draw, odd),
                     _pick(draw, [("", True), (" ", True), ("\t# note", True),
                                  ("#x\u2029y", False)], odd)]
            lines.append(("".join(t for t, _ in parts), all(p for _, p in parts)))
        elif kind == "blank":
            lines.append((draw(st.sampled_from(["", "  ", "\t"])), True))
        elif kind == "comment":
            lines.append((draw(st.sampled_from(["# c", "#", " # \xe9 \uff12 #"])), True))
        elif odd:
            lines.append((draw(st.sampled_from(["1", "1 2 3", "a b", "-"])), False))
    return _join(draw, lines, odd)


@st.composite
def _dimacs_texts(draw):
    """(text, whether it is in the plain syntax with one header and every id
    in range) of a DIMACS file with the same kinds of odd content, plus
    missing, repeated and malformed headers and ids out of range."""
    odd = draw(st.booleans())
    n = draw(st.integers(1, 6))
    in_range = st.one_of(st.integers(1, n).map(str), st.integers(1, n).map(lambda i: f"00{i}"))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "blank", "comment", "bad"]))
        if kind == "edge":
            gap = _pick(draw, _GAPS, odd)
            parts = [_pick(draw, _INDENTS, odd), ("e", True), gap,
                     _pick_id(draw, odd, in_range), gap, _pick_id(draw, odd, in_range)]
            if odd and draw(st.integers(0, 9)) == 0:
                parts[3] = draw(st.sampled_from(["0", str(n + 1)])), False
            lines.append(("".join(t for t, _ in parts), all(p for _, p in parts)))
        elif kind == "blank":
            lines.append((draw(st.sampled_from(["", "  "])), True))
        elif kind == "comment":
            lines.append((draw(st.sampled_from(["c note", "c", " col 3", "c \xe9"])), True))
        elif odd:
            lines.append((draw(st.sampled_from(["q 1 2", "e 1", "e1 2", "p", "p foo 3 3"])),
                          False))
    headers = draw(st.integers(0, 2)) if odd else 1
    for _ in range(headers):
        gap = _pick(draw, _GAPS, odd)
        declared = _pick(draw, [(str(n), True), (f"0{n}", True), (f"+{n}", False),
                                ("x", False)], odd)
        words = ["p", draw(st.sampled_from(["edge", "edges", "col"])), declared[0],
                 str(draw(st.integers(0, 8)))]
        lines.insert(draw(st.integers(0, len(lines))),
                     (gap[0].join(words), gap[1] and declared[1]))
    text, plain = _join(draw, lines, odd)
    return text, plain and headers == 1


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the graph and ids, or the error,
    plus every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g, ids = parse(text)
        except GraphParseError as exc:
            result = (type(exc), str(exc))
        else:
            assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
            assert g.degrees.dtype == np.int64
            assert all(type(i) is int for i in ids)
            result = (g.num_nodes, g.edges.tolist(), g.degrees.tolist(), ids)
    return result, [(w.category, str(w.message)) for w in caught]


@settings(deadline=None, max_examples=300)
@given(case=_edge_list_texts())
def test_plain_edge_list_reader_matches_line_reader(case):
    text, plain = case
    if plain:
        assert graph._plain_edge_list(text) is not None
    with mock.patch.object(graph, "_plain_edge_list", lambda text: None):
        expected = _outcome(parse_edge_list, text)
    assert _outcome(parse_edge_list, text) == expected


@settings(deadline=None, max_examples=300)
@given(case=_dimacs_texts())
def test_plain_dimacs_reader_matches_line_reader(case):
    text, plain = case
    if plain:
        assert graph._plain_dimacs(text) is not None
    with mock.patch.object(graph, "_plain_dimacs", lambda text: None):
        expected = _outcome(parse_dimacs, text)
    assert _outcome(parse_dimacs, text) == expected


def test_standard_instances_take_the_plain_reader():
    assert graph._plain_dimacs(queen_col_text(5, 5)) is not None
    assert graph._plain_dimacs(queen_col_text(11, 11)) is not None
    assert graph._plain_dimacs(myciel_col_text(4)) is not None
    indented = "c tabs\r\n p\tedge\t4\t2 \r\n\te\t1\t4\r\n  e 2\t3\t\r\n\r\n"
    assert graph._plain_dimacs(indented)[1].tolist() == [[1, 4], [2, 3]]
    snap = "# FromNodeId\tToNodeId\r\n0\t4\r\n0\t40\r\n"
    assert graph._plain_edge_list(snap).tolist() == [[0, 4], [0, 40]]


# The references for the byte-class check: the per-line regexes it replaced.
# An edge list is plain exactly when, its comments stripped, no line fails
# its regex; a DIMACS text, when its comments and header stripped, no line
# fails its regex and every id is in range.
_BAD_EDGE_LIST_LINE = re.compile(
    r"\n(?![ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?\r?$)", re.M)
_BAD_DIMACS_LINE = re.compile(
    r"\n(?![ \t]*(?:e[ \t]+[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*)?\r?$)", re.M)


def _reference_edge_list_is_plain(text):
    return _BAD_EDGE_LIST_LINE.search(graph._EDGE_LIST_COMMENT.sub("", "\n" + text)) is None


def _reference_dimacs_is_plain(text):
    body = graph._DIMACS_COMMENT.sub("\n", "\n" + text)
    header = graph._DIMACS_HEADER.search(body)
    if header is None:
        return False
    body = body[:header.start()] + body[header.end():]
    return (_BAD_DIMACS_LINE.search(body) is None
            and all(1 <= int(i) <= int(header[1]) for i in body.replace("e", " ").split()))


def _assert_check_matches_reference(text):
    assert (graph._plain_edge_list(text) is None) == (not _reference_edge_list_is_plain(text))


def _assert_dimacs_check_matches_reference(text):
    assert (graph._plain_dimacs(text) is None) == (not _reference_dimacs_is_plain(text))


# Pieces of texts near and outside the plain syntax.
_PIECES = ["0", "7", "12", "0" * 18, "0" * 19, "9" * 18, "1" * 20, " ", "\t", "  ",
           "\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028", "\xa0", "\uff12",
           "e", "x", "-", "+", "_", "#", "# c\n", "1 2\n", "1 2 3\n"]


@settings(deadline=None, max_examples=500)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=24),
       chunk=st.integers(1, 24))
def test_byte_class_check_matches_the_line_regex(pieces, chunk):
    """With chunks of a few bytes, every byte of these texts falls on the
    first or last byte of some chunk."""
    text = "".join(pieces)
    with mock.patch.object(graph, "_CHUNK", chunk):
        _assert_check_matches_reference(text)
    _assert_check_matches_reference(text)


@pytest.mark.parametrize("text", [
    "1 2\r", "1 2 \r", "1 2\r\r\n", "\r\n1 2", "1\r2\n", "1 2\n\r", "0000000000000000001 2\n",
    "000000000000000001 2\n", "1 2\n\ud800\n", "1 2\n\x00\n", "1 2\n3\n", "1 2 3 4\n",
])
def test_byte_class_check_matches_the_line_regex_on_edge_cases(text):
    _assert_check_matches_reference(text)


@settings(deadline=None, max_examples=300)
@given(case=_edge_list_texts(), chunk=st.integers(1, 24))
def test_byte_class_check_matches_the_line_regex_on_generated_files(case, chunk):
    text, _ = case
    with mock.patch.object(graph, "_CHUNK", chunk):
        _assert_check_matches_reference(text)


def _chunk_ends(body):
    """The index in ``body`` of the LF that ends each chunk of the check."""
    ends, start = [], 1
    while start < len(body):
        start = body.find("\n", start + graph._CHUNK) + 1 or len(body)
        ends.append(start - 1)
    return ends


_LONG_LINES = [f"{u}\t{v}" for u, v in
               np.random.default_rng(5).integers(0, 10**6, (2 * graph._CHUNK // 8, 2))]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), crlf=st.booleans(), where=st.sampled_from(["first", "last", "end"]),
       piece=st.sampled_from(["\x0c", "\r", "1234567890123456789", " 7 ", "\uff12",
                              " ", "\r\n"]))
def test_byte_class_check_at_the_edges_of_full_chunks(data, crlf, where, piece):
    """An odd piece on the first byte of a chunk, on its last byte before
    the line end, or in place of its last byte (the LF), in an edge list of
    more than two chunks of the real size."""
    text = ("\r\n" if crlf else "\n").join(_LONG_LINES) + "\n"
    ends = _chunk_ends("\n" + text + "\n")
    assert len(ends) > 2
    lf = data.draw(st.sampled_from(ends[:-1])) - 1  # the chunk's last LF, in text
    cut = {"first": lf + 1, "last": lf - crlf, "end": lf}[where]
    text = text[:cut] + piece + text[cut + (where == "end"):]
    _assert_check_matches_reference(text)


# Pieces of DIMACS texts near and outside the plain syntax.  The header
# declares 18 nines of nodes, so of the ids up to 18 digits only 0 is out
# of range.
_DIMACS_PIECES = ["e", "e ", "e\t", "ee", "e1", "1e", "0", "7", "12", "0" * 17 + "1",
                  "0" * 18 + "1", "1" * 18, "1" * 19,
                  " ", "\t", "  ", "\n", "\r\n", "\r", "c x\n", "\n c\n", "\x0c", "x",
                  "\xa0", "e 1 2\n", "e\t3 4", "\n  e 5\t6 "]
_HUGE_HEADER = "\np edge 999999999999999999 1\n"


@settings(deadline=None, max_examples=800)
@given(pieces=st.lists(st.sampled_from(_DIMACS_PIECES), max_size=24),
       where=st.integers(0, 24), chunk=st.integers(1, 24))
def test_dimacs_byte_class_check_matches_the_line_regex(pieces, where, chunk):
    pieces.insert(where, _HUGE_HEADER)
    text = "".join(pieces)
    with mock.patch.object(graph, "_CHUNK", chunk):
        _assert_dimacs_check_matches_reference(text)
    _assert_dimacs_check_matches_reference(text)


@pytest.mark.parametrize("text", [
    # the first two fool a check that counts e's and ids per text, not per line
    "p edge 5 1\n1 2\ne ", "p edge 5 1\n  1 2\ne\t",
    "p edge 5 1\ne1 2 3\n", "p edge 5 1\ne 1 2e\n", "p edge 5 1\ne 1 2e", "p edge 5 1\nee 1 2\n",
    "p edge 5 1\ne 1e 2\n", "p edge 5 1\ne 1 2 e 3 4\n", "p edge 5 1\n e 1 2e 3 4\n",
    "p edge 5 1\ne 1 2\r\r\n", "p edge 5 1\ne 1 2\r", "p edge 5 1\ne 1 2 \r\n \r\n",
    "p edge 5 1\n\te 1\t2", "p edge 5 1\ne 1 2\n\re 3 4\n", "p edge 5 1\ne\n1 2\n",
    "p edge 5 1\ne 000000000000000001 2\n", "p edge 5 1\ne 0000000000000000001 2\n",
])
def test_dimacs_byte_class_check_matches_the_line_regex_on_edge_cases(text):
    _assert_dimacs_check_matches_reference(text)


@settings(deadline=None, max_examples=300)
@given(case=_dimacs_texts(), chunk=st.integers(1, 24))
def test_dimacs_byte_class_check_matches_the_line_regex_on_generated_files(case, chunk):
    text, _ = case
    with mock.patch.object(graph, "_CHUNK", chunk):
        _assert_dimacs_check_matches_reference(text)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 40), data=st.data())
def test_from_edges_matches_a_row_unique(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=4 * n))
    pairs = np.array(pairs + [(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    g = Graph.from_edges(n, pairs)
    expected = np.unique(np.stack([lo, hi], 1), axis=0)
    assert g.edges.flags.c_contiguous and g.edges.dtype == np.int64
    assert np.array_equal(g.edges, expected)
    assert np.array_equal(g.degrees, np.bincount(expected.ravel(), minlength=n))


@settings(deadline=None, max_examples=200)
@given(pairs=st.lists(st.tuples(*2 * [st.one_of(st.integers(0, 9), st.integers(-3, 3),
                                                  st.integers(0, 2**63 - 1))]),
                      min_size=1, max_size=12))
def test_compact_edges_matches_unique_and_searchsorted(pairs):
    """Both relabelings (a lookup table for small ids, a sort for others)
    give the labels and edges of np.unique and np.searchsorted."""
    pairs = np.array(pairs, dtype=np.int64)
    kept = pairs[pairs[:, 0] != pairs[:, 1]]
    if kept.size == 0:
        with pytest.raises(GraphParseError, match="empty graph"):
            compact_edges(pairs)
        return
    labels = np.unique(kept)
    remapped = np.searchsorted(labels, kept)
    expected = np.unique(np.sort(remapped, axis=1), axis=0)
    g, ids = compact_edges(pairs)
    assert ids == labels.tolist()
    assert g.num_nodes == labels.size
    assert np.array_equal(g.edges, expected)


class _Untouchable(bytes):
    """A bytes constant whose slicing fails the test."""

    def __getitem__(self, index):
        raise AssertionError("the kinds went through bytes.replace")


def test_unindented_dimacs_edge_lines_take_one_compare():
    """queen11-11's kinds equal the compare string, so the replace calls,
    which slice ``_INDENT``, never run; an indented line needs them."""
    with mock.patch.object(graph, "_INDENT", _Untouchable(graph._INDENT)):
        assert graph._plain_dimacs("c queen11-11\n" + queen_col_text(11, 11)) is not None
        with pytest.raises(AssertionError, match="bytes.replace"):
            graph._plain_dimacs("p edge 2 1\n e 1 2\n")


# Pieces of texts for the comment pass: every character in _LINE_BREAKS,
# comments of both formats, headers with and without a "c", edge lines.
_COMMENT_PIECES = [*"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", "c", "c x", " \tc y",
                   "#", "# z", "p col 5 5", "p edge 5 5", "e 1 2", "1 2", " ", "x"]


@settings(deadline=None, max_examples=500)
@given(pieces=st.lists(st.sampled_from(_COMMENT_PIECES), max_size=16))
@example(pieces=[])
@example(pieces=["p col 5 5", "\n", "e 1 2", "\n"])
@example(pieces=["# z", "\n", "1 2", "\n", "# z"])
@example(pieces=["c x", "\n", "e 1 2", "\u2028", "c x", "\x85", "e 1 2"])
def test_bounded_comment_pass_matches_the_full_text_sub(pieces):
    text = "".join(pieces)
    for comment, marker, repl in ((graph._DIMACS_COMMENT, "c", "\n"),
                                  (graph._EDGE_LIST_COMMENT, "#", "")):
        assert (graph._strip_comments(text, comment, marker, repl)
                == comment.sub(repl, "\n" + text + "\n"))


def test_plain_parse_memory_stays_within_four_times_the_text():
    """A whole-text regex over the lines would keep several hundred bytes
    per line.  The plain reader's peak is about 32 bytes per edge: the
    int64 ids, then two int64 endpoint arrays.  A SNAP-style line of two
    5-digit ids, as a graph of 10^5 edges on 2 * 10^4 nodes has, is about 11
    bytes."""
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 20_000, size=(100_000, 2)).tolist()
    text = "# Nodes: 20000 Edges: 100000\n" + "".join(f"{u}\t{v}\n" for u, v in pairs)
    tracemalloc.start()
    try:
        g, _ = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_nodes == 20_000
    assert peak < 4 * len(text)
