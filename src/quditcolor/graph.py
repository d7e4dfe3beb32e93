"""Loading, validation, and preprocessing of graph-coloring instances.

Two input formats are supported: DIMACS .col files and whitespace edge
lists with ``#`` comments (the SNAP convention).  Preprocessing removes
duplicate edges, self-loops, and isolated nodes, and compacts node
indices to ``[0, |V|)``.

A file in the plain syntax is read in whole-text passes, with no Python
work per line: node ids of at most 18 ASCII digits, separated by spaces
and tabs, lines ending in LF or CRLF, and whole-line comments (``c`` in
DIMACS) or trailing ones (``#`` in an edge list).  One regex strips the
comments, run only up to the line of the last comment marker, so a file
whose comments come first costs a search of its head; in DIMACS one more
regex finds the header.  A byte-class check then decides whether the rest
is plain: one ``bytes.translate`` maps each byte through a 256-entry
table to its class (digit, space or tab, CR, LF, other, and in DIMACS
``e``), and numpy passes over the class array reject any other byte and
a run of more than 18 digits.  In an edge list, more passes reject a CR
not followed by LF and any line that holds neither nothing nor exactly
two ids.  In DIMACS, the class of each run of equal classes and of each
``e`` or CR byte makes a short string.  When every line is empty or an
unindented ``e id id`` with nothing after its second id, one compare
with a repeated pattern accepts it; otherwise a few ``bytes.replace``
calls on it check that every line is blank or ``e`` and two ids.  The
check runs over chunks of about 64 KiB that end at a line end, so its
arrays stay a few times the chunk, and the parse's peak stays near two
int64 copies of the ids.  ``np.fromstring`` then reads every id at once.
Any other text (signs, ``_`` in a number, non-ASCII digits or spaces,
other line breaks such as form feeds, malformed lines, out-of-range ids)
goes through the line reader, which accepts the same texts as ``int``
and ``str.split`` do and names the first bad line.  Both readers give
the same graph, ids and warnings.  Duplicate edges are dropped by sorting
one int64 key ``lo * |V| + hi`` per edge.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMATS = ("dimacs", "edgelist")  # the names load_graph reads as fmt


class GraphParseError(ValueError):
    """Raised when an instance file cannot be parsed."""


class GraphWarning(UserWarning):
    """Issued for an instance file that parses but contradicts itself."""


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

        Duplicate edges (in either orientation) are collapsed; an empty
        graph, self-loops and isolated nodes are rejected.
        """
        if num_nodes < 1:
            raise ValueError(f"a graph needs at least one node, got {num_nodes}")
        pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self-loop not allowed")
        if np.bincount(pairs.ravel(), minlength=num_nodes).min() == 0:
            raise ValueError("isolated node present; preprocess with compact_edges first")
        # every id in [0, num_nodes) is present, so compacting keeps them all
        return compact_edges(pairs)[0]


def _canonical_edges(key: np.ndarray, num_nodes: int) -> np.ndarray:
    """The (E, 2) rows ``(lo, hi)`` of the edge keys ``lo * num_nodes + hi``
    (lo < hi), duplicates dropped, sorted lexicographically.

    The key orders edges as ``(lo, hi)`` does, so one sort of E int64s
    replaces a row sort; it fits in int64 for any graph whose degree array
    fits in memory.  Sorts ``key`` in place.
    """
    key.sort()
    key = _drop_repeats(key)
    edges = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, num_nodes, out=(edges[:, 0], edges[:, 1]))
    return edges


def _drop_repeats(values: np.ndarray) -> np.ndarray:
    """A sorted 1-D array without its repeated values (itself if none)."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values if first.all() else values[first]


def compact_edges(pairs) -> tuple[Graph, list[int]]:
    """Preprocess raw labeled edges into a Graph plus an index map.

    Drops self-loops and duplicates, relabels the surviving node labels to
    0..|V|-1 in ascending label order (which also removes isolated nodes),
    and returns ``(graph, original_ids)`` where ``original_ids[i]`` is the
    input label of compacted node ``i``.
    """
    pairs = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                       dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    # The parsers pass their ids as a temporary, so this frees them; from
    # here on the peak stays at about two copies of them.
    del pairs
    not_loop = lo != hi
    if not not_loop.all():
        lo = lo[not_loop]
        hi = hi[not_loop]
    if lo.size == 0:
        raise GraphParseError("empty graph after preprocessing")
    labels, lo, hi = _relabel(lo, hi)
    num_nodes = labels.size
    lo *= num_nodes
    lo += hi
    del hi
    edges = _canonical_edges(lo, num_nodes)
    graph = Graph(num_nodes, edges, np.bincount(edges.ravel(), minlength=num_nodes))
    return graph, labels.tolist()


def _relabel(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ids of ``lo`` and ``hi`` in ascending order, and both
    arrays with each id replaced by its index among them."""
    top = int(hi.max()) + 1
    if lo.min() >= 0 and top <= 2 * lo.size:  # a lookup table no longer than the ids
        present = np.zeros(top, dtype=bool)
        present[lo] = True
        present[hi] = True
        index = np.cumsum(present) - 1
        return np.flatnonzero(present), index[lo], index[hi]
    labels = np.concatenate((lo, hi))
    labels.sort()
    labels = _drop_repeats(labels)
    return labels, np.searchsorted(labels, lo), np.searchsorted(labels, hi)


# Plain syntax.  Each pattern finds a line by the "\n" before it (the
# readers put one before the text), which re searches for much faster than
# for a "^" at every position.  The line reader's str.splitlines also ends
# a line at the other characters in _LINE_BREAKS, so a comment stops at
# any of them and the line checks reject any left outside a comment.
_LINE_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_ID = "[0-9]{1,18}"  # fits in int64
_EDGE_LIST_COMMENT = re.compile(rf"#[^{_LINE_BREAKS}]*")
_DIMACS_COMMENT = re.compile(rf"\n[ \t]*c[^{_LINE_BREAKS}]*")
_DIMACS_HEADER = re.compile(
    rf"\n[ \t]*p[ \t]+(?:edges?|col)[ \t]+({_ID})[ \t]+({_ID})[ \t]*\r?$", re.M)
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")

# The byte classes of the plain syntax, as bytes.translate tables.  An edge
# list has no use for "e", so there it is another byte.  _E and _CR are the
# largest classes below _OTHER, which the check rejects first.
_SPACE, _DIGIT, _LF, _E, _CR, _OTHER = range(6)
_EDGE_LIST_CLASS = bytearray([_OTHER]) * 256
_EDGE_LIST_CLASS[ord("0"):ord("9") + 1] = bytes([_DIGIT]) * 10
_EDGE_LIST_CLASS[ord(" ")] = _EDGE_LIST_CLASS[ord("\t")] = _SPACE
_EDGE_LIST_CLASS[ord("\n")], _EDGE_LIST_CLASS[ord("\r")] = _LF, _CR
_DIMACS_CLASS = bytearray(_EDGE_LIST_CLASS)
_DIMACS_CLASS[ord("e")] = _E
_EDGE_LIST_CLASS, _DIMACS_CLASS = bytes(_EDGE_LIST_CLASS), bytes(_DIMACS_CLASS)
_CHUNK = 1 << 16  # bytes per pass of the check, so that its arrays stay in L2
# In a DIMACS chunk's kinds (see _plain_dimacs_chunk): a line's indent,
# and an edge line up to the end of its second id.
_INDENT = bytes([_LF, _SPACE])
_EDGE_LINE = bytes([_LF, _E, _SPACE, _DIGIT, _SPACE, _DIGIT])

_INT64_MAX = np.iinfo(np.int64).max


def _strip_comments(text: str, comment: re.Pattern, marker: str, repl: str) -> str:
    """``comment.sub(repl, "\n" + text + "\n")``, with the pattern run only
    up to the line break after the last ``marker``.  Every comment holds
    its marker, so none lies past that line, and a file whose comments
    all come first costs a search of its head."""
    last = text.rfind(marker)
    if last < 0:
        return "\n" + text + "\n"
    end = _LINE_BREAK.search(text, last)
    cut = len(text) if end is None else end.start()
    return "".join((comment.sub(repl, "\n" + text[:cut]), text[cut:], "\n"))


def _read_ids(body: str) -> np.ndarray:
    """Every id in a text of ids and whitespace, as one int64 array."""
    if body.isspace():  # np.fromstring reads whitespace alone as [0]
        return np.empty(0, dtype=np.int64)
    return np.fromstring(body, dtype=np.int64, sep=" ")


def _plain_lines(body: str, dimacs: bool) -> bool:
    """Whether ``body``, a text less its comments (and a DIMACS text less
    its header) that starts and ends with "\n", is in the plain syntax:
    ASCII, every CR before an LF, ids of at most 18 digits, and every line
    blank or two ids apart (``e`` and two ids, in DIMACS).

    Checks the lines in chunks of at least ``_CHUNK`` bytes that end at an
    LF, each with the LF before it."""
    if not body.isascii():
        return False
    table = _DIMACS_CLASS if dimacs else _EDGE_LIST_CLASS
    start = 1
    while start < len(body):
        end = body.find("\n", start + _CHUNK) + 1 or len(body)
        if not _plain_chunk(body[start - 1:end].encode().translate(table), dimacs):
            return False
        start = end
    return True


def _plain_chunk(classes: bytes, dimacs: bool) -> bool:
    """``_plain_lines`` for the byte classes of one chunk."""
    if bytes([_OTHER]) in classes:
        return False
    cls = np.frombuffer(classes, dtype=np.uint8)
    digit = cls == _DIGIT
    long = digit  # after the shifts, long[i]: bytes i to i + 18 are digits
    for shift in (1, 2, 4, 8, 3):
        long = long[:-shift] & long[shift:]
    if long.any():
        return False
    if dimacs:
        return _plain_dimacs_chunk(cls)
    if bytes([_CR]) in classes and ((cls[:-1] == _CR) > (cls[1:] == _LF)).any():
        return False
    # In order, each id's first digit (True) and each LF (False), from the
    # LF before the chunk.  A line with one id leaves a True between two
    # Falses, one with three or more leaves three Trues in a row.
    event = cls == _LF
    event[1:] |= digit[1:] > digit[:-1]
    ids = digit.compress(event)
    return not ((ids[1:-1] > (ids[:-2] | ids[2:])).any()
                or (ids[:-2] & ids[1:-1] & ids[2:]).any())


def _plain_dimacs_chunk(cls: np.ndarray) -> bool:
    """``_plain_lines`` for the byte classes of a DIMACS chunk that has no
    other byte and no id of more than 18 digits.

    The chunk's kinds are the class of each run of equal classes from the
    LF before the chunk on, except that every e and CR byte is a kind of
    its own, so the kind after one is the byte after it.  A plain line's
    kinds are its LF and indent, then nothing or ``_EDGE_LINE`` less its
    LF, then at most a space and a CR, the CR just before the next LF.
    Less the indents and then the edge lines, only LFs, spaces and CRs
    before an LF may remain."""
    event = np.empty(cls.size, dtype=bool)
    event[0] = True
    np.not_equal(cls[1:], cls[:-1], out=event[1:])
    event[1:] |= cls[1:] >= _E
    kinds = cls.compress(event).tobytes()
    if kinds == _EDGE_LINE * (len(kinds) // len(_EDGE_LINE)) + _EDGE_LINE[:1]:
        return True  # only empty lines and unindented e id id ones
    rest = kinds.replace(_INDENT, _INDENT[:1])
    rest = rest.replace(_EDGE_LINE, _EDGE_LINE[:1])
    return not (bytes([_E]) in rest or bytes([_DIGIT]) in rest
                or bytes([_CR]) in rest.replace(bytes([_CR, _LF]), bytes([_LF])))


def _plain_dimacs(text: str) -> tuple[int, np.ndarray] | None:
    """(declared edge count, (E, 2) 1-based pairs) of a DIMACS text in the
    plain syntax with one header and every id in range; None for any other
    text."""
    body = _strip_comments(text, _DIMACS_COMMENT, "c", "\n")
    header = _DIMACS_HEADER.search(body)
    if header is None:
        return None
    body = body[:header.start()] + body[header.end():]
    if not _plain_lines(body, True):
        return None
    pairs = _read_ids(body.replace("e", " ")).reshape(-1, 2)
    if pairs.size and (pairs.min() < 1 or pairs.max() > int(header[1])):
        return None
    return int(header[2]), pairs


def _plain_edge_list(text: str) -> np.ndarray | None:
    """The (E, 2) pairs of an edge list in the plain syntax; None for any
    other text."""
    body = _strip_comments(text, _EDGE_LIST_COMMENT, "#", "")
    if not _plain_lines(body, False):
        return None
    return _read_ids(body).reshape(-1, 2)


def _check_int64(too_big: tuple[int, int] | None) -> None:
    """Reject the first node id that int64 cannot hold, as (line, id).

    The readers raise this only after every other check, so a file with
    another error as well reports that error as it always did."""
    if too_big is not None:
        lineno, node = too_big
        raise GraphParseError(f"line {lineno}: node id {node} is larger than {_INT64_MAX}")


def _dimacs_lines(text: str) -> tuple[int, np.ndarray]:
    """The line reader behind ``parse_dimacs``: (declared edge count,
    (E, 2) 1-based pairs), or ``GraphParseError`` naming the first bad
    line."""
    declared_nodes = declared_edges = None
    raw_edges: list[tuple[int, int]] = []
    too_big = None
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
                declared_edges = int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: malformed header {line!r}") from None
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: malformed edge line {line!r}") from None
            if too_big is None and max(u, v) > _INT64_MAX:
                too_big = lineno, u if u > _INT64_MAX else v
            raw_edges.append((u, v))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if declared_nodes is None:
        raise GraphParseError("missing 'p edge' line")
    for u, v in raw_edges:
        if not (1 <= u <= declared_nodes and 1 <= v <= declared_nodes):
            raise GraphParseError(f"edge ({u}, {v}) out of range 1..{declared_nodes}")
    _check_int64(too_big)
    return declared_edges, np.array(raw_edges, dtype=np.int64).reshape(-1, 2)


def _edge_list_lines(text: str) -> np.ndarray:
    """The line reader behind ``parse_edge_list``: the (E, 2) pairs, or
    ``GraphParseError`` naming the first bad line."""
    raw_edges: list[tuple[int, int]] = []
    too_big = None
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
        if too_big is None and max(u, v) > _INT64_MAX:
            too_big = lineno, u if u > _INT64_MAX else v
        raw_edges.append((u, v))
    _check_int64(too_big)
    return np.array(raw_edges, dtype=np.int64).reshape(-1, 2)


def parse_dimacs(text: str) -> tuple[Graph, list[int]]:
    """Parse a DIMACS .col instance.

    Expects comment lines ``c ...``, a single ``p edge <V> <E>`` header,
    and edge lines ``e <u> <v>`` with 1-based indices.  Returns the
    preprocessed graph and the list of original (1-based) node ids.
    Issues a ``GraphWarning`` when the header's edge count differs from the
    number of ``e`` lines (counted as written: many files list both
    directions of an edge).  A text in the plain syntax (see the module
    docstring) is read without a Python loop over its lines; any other
    goes through the line reader, with the same result.
    """
    return compact_edges(_dimacs_pairs(text))


def parse_edge_list(text: str) -> tuple[Graph, list[int]]:
    """Parse a whitespace-separated edge list (SNAP convention).

    ``#`` starts a comment; node ids are arbitrary non-negative integers
    below 2^63 and get compacted to 0..|V|-1.  Returns (graph, original
    node ids).  A text in the plain syntax (see the module docstring) is
    read without a Python loop over its lines; any other goes through the
    line reader, with the same result.
    """
    return compact_edges(_edge_list_pairs(text))


def _dimacs_pairs(text: str) -> np.ndarray:
    """The (E, 2) 1-based pairs of a DIMACS text, warning on a header
    whose edge count differs."""
    parsed = _plain_dimacs(text)
    declared_edges, pairs = _dimacs_lines(text) if parsed is None else parsed
    if declared_edges != len(pairs):
        warnings.warn(f"header declares {declared_edges} edges, file lists "
                      f"{len(pairs)}", GraphWarning, stacklevel=3)
    return pairs


def _edge_list_pairs(text: str) -> np.ndarray:
    """The (E, 2) pairs of an edge list."""
    pairs = _plain_edge_list(text)
    return _edge_list_lines(text) if pairs is None else pairs


def load_graph(path, fmt: str | None = None) -> tuple[Graph, list[int]]:
    """Load an instance file, auto-detecting the format by extension.

    ``.col`` files parse as DIMACS, everything else as an edge list;
    pass ``fmt`` (one of ``FORMATS``) to override.  The file must be
    UTF-8, with or without a byte order mark; ``GraphParseError`` names
    the line of its first other byte.
    """
    path = Path(path)
    if fmt is None:
        fmt = "dimacs" if path.suffix.lower() == ".col" else "edgelist"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        text = read_utf8(path)
    except UnicodeError as exc:
        raise GraphParseError(f"line {exc}") from None
    return parse_dimacs(text) if fmt == "dimacs" else parse_edge_list(text)


def read_utf8(path) -> str:
    """The text of a UTF-8 file, less a leading byte order mark;
    ``UnicodeError("L: byte 0xNN is not UTF-8")`` naming the line L of its
    first other byte."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # The "?" stands for the bad byte, so the count includes its line.
        lineno = len((data[:exc.start].decode() + "?").splitlines())
        raise UnicodeError(f"{lineno}: byte 0x{data[exc.start]:02x} "
                           "is not UTF-8") from None


def check_fix(strategy):
    """``strategy`` as None, a strategy name or an int; ``ValueError`` if
    it has the form of no fix strategy.

    Strategies: "max_degree" (lowest-index node of maximal degree),
    "degree_one" (lowest-index node of degree 1), a node index >= 0 (not a
    bool), or "none"/None (no node fixed; every node is parameterized).
    Whether the graph can honour one is up to ``select_fixed_node``.
    """
    if strategy is None or strategy == "none":
        return None
    if isinstance(strategy, str) and strategy in ("max_degree", "degree_one"):
        return strategy
    if (isinstance(strategy, (int, np.integer)) and not isinstance(strategy, bool)
            and strategy >= 0):
        return int(strategy)
    raise ValueError("fix must be max_degree, degree_one, none, or a node "
                     f"index, got {strategy!r}")


def parse_fix(text: str):
    """The fix strategy that a setting's text names: None for "none", an
    int for a node index."""
    try:
        text = int(text)
    except ValueError:
        pass
    return check_fix(text)


def select_fixed_node(graph: Graph, strategy) -> int | None:
    """Resolve the node to pin to a single color under a fix ``strategy``
    (see ``check_fix``)."""
    strategy = check_fix(strategy)
    if strategy is None:
        return None
    if strategy == "max_degree":
        return int(np.argmax(graph.degrees))
    if strategy == "degree_one":
        ones = np.flatnonzero(graph.degrees == 1)
        if ones.size == 0:
            raise ValueError("no degree-1 node in graph")
        return int(ones[0])
    if strategy >= graph.num_nodes:
        raise ValueError(f"fixed node {strategy} out of range [0, {graph.num_nodes})")
    return strategy
