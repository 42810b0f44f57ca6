from __future__ import annotations

import gc
import operator
import string
import sys
import tracemalloc
from bisect import bisect_left
from collections import deque
from array import array
from itertools import combinations, repeat
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import graph as graph_module
from burnkit.burning import _UNBURNED, _schedule, is_burning_sequence
from burnkit.graph import (
    _SHIFT_CHUNK,
    Graph,
    GraphFormatError,
    UnknownVertexError,
    _shift_into,
    bfs_distances,
    degree_histogram,
    is_connected,
    is_regular,
    read_graph,
    write_graph,
)
from burnkit.generators import path_graph, random_cubic
from burnkit.lift import build_Hd
from burnkit.reduction import NotConnectedError, build_H, vc_to_witness
from burnkit.solvers import vertex_cover_exact


def test_bfs_path_distances():
    g = Graph([("a", "b"), ("b", "c")])
    dm = bfs_distances(g, "a")
    assert dm.dist == {"a": 0, "b": 1, "c": 2}


def test_bfs_complete_graph(k4):
    for src in k4.vertices:
        dm = bfs_distances(k4, src)
        assert all(dm[v] == 1 for v in k4.vertices if v != src)
        assert dm[src] == 0


def test_bfs_unknown_vertex(k4):
    with pytest.raises(UnknownVertexError):
        bfs_distances(k4, "nope")


def test_bfs_reads_its_index_as_adj_does():
    """-n <= src < n, negatives counted from the end; any other index raises
    before the search writes anything, as ``adj`` does."""
    g = path_graph(4)
    assert g.bfs(-1) == g.bfs(3) == [3, 2, 1, 0]
    assert g.bfs(-4) == g.bfs(0) == [0, 1, 2, 3]
    for graph, src in [(g, 4), (g, 5), (g, -5), (Graph([]), 0), (Graph([]), -1)]:
        for read in (graph.adj.__getitem__, graph.bfs):
            with pytest.raises(IndexError, match="^vertex index out of range$"):
                read(src)


def test_bfs_unreachable_absent():
    g = Graph([("a", "b"), ("c", "d")])
    dm = bfs_distances(g, "a")
    assert dm.get("c") is None


def test_predicates(k4):
    assert is_regular(k4, 3)
    p3 = path_graph(3)
    assert not any(is_regular(p3, d) for d in range(5))
    # the empty graph is d-regular for every d; K5 minus an edge, of degrees
    # {3, 4}, is regular for none
    assert all(is_regular(Graph([]), d) for d in range(5))
    k5_less = Graph(list(combinations(range(5), 2))[1:])
    assert degree_histogram(k5_less) == {3: 2, 4: 3}
    assert not any(is_regular(k5_less, d) for d in range(6))
    assert is_connected(k4)
    assert not is_connected(Graph([("a", "b"), ("c", "d")]))
    assert degree_histogram(k4) == {3: 4}


def test_read_basic():
    g = read_graph("a b\nb c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.edge_count == 2
    assert g.neighbors("b") == ("a", "c")


def test_read_comments_and_blanks():
    g = read_graph("# header\n\na b\n  # indented comment\nb c\n")
    assert g.edge_count == 2


def test_read_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        read_graph("a a\n")


def test_read_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError):
        read_graph("a b\nb a\n")


def test_read_rejects_malformed_line():
    with pytest.raises(GraphFormatError):
        read_graph("a b c\n")


def test_graph_rejects_self_loop_and_duplicates():
    with pytest.raises(GraphFormatError):
        Graph([("a", "a")])
    with pytest.raises(GraphFormatError):
        Graph([("a", "b"), ("b", "a")])


def test_write_is_canonical():
    text = "b c\na b\n"
    assert write_graph(read_graph(text)) == "a b\nb c\n"


def test_write_rejects_isolated_vertex():
    with pytest.raises(GraphFormatError):
        write_graph(Graph([], vertices=["a"]))


def test_write_names_first_bad_label_in_edge_order():
    # "c c" comes first in label order, "d d" in canonical edge order
    g = Graph([("c c", "e"), ("a", "d d")], vertices=["#z"])
    with pytest.raises(GraphFormatError, match="label not representable in edge-list format: 'd d'"):
        write_graph(g)
    with pytest.raises(GraphFormatError, match="isolated vertex '#z'"):
        write_graph(Graph([("a", "b")], vertices=["#z"]))


_labels = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3)


class ReferenceGraph:
    """Slow reference: the label-keyed dict of neighbour sets."""

    def __init__(self, edges, vertices=()):
        adj = {v: set() for v in vertices}
        n_edges = 0
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}")
            if u in adj and v in adj[u]:
                raise GraphFormatError(f"duplicate edge {u!r} {v!r}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            n_edges += 1
        self.adj = {v: tuple(sorted(adj[v])) for v in sorted(adj)}
        self.vertices = tuple(self.adj)
        self.edge_count = n_edges

    def edges(self):
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def _outcome(make, edges, vertices):
    try:
        return make(edges, vertices=vertices)
    except GraphFormatError as exc:
        return f"{type(exc).__name__}: {exc}"


# few labels, so that repeated edges and self-loops are common
_few_labels = st.text(alphabet="ab1:", min_size=1, max_size=2)


@given(st.lists(st.tuples(_few_labels, _few_labels), max_size=30), st.lists(_few_labels, max_size=6))
@settings(max_examples=300)
def test_graph_core_matches_reference(edges, vertices):
    g = _outcome(Graph, edges, vertices)
    ref = _outcome(ReferenceGraph, edges, vertices)
    if isinstance(ref, str):
        assert g == ref
        return
    assert g.vertices == ref.vertices
    assert g.edge_count == ref.edge_count
    assert list(g.edges()) == list(ref.edges())
    probes = ref.vertices + ("zz", "")
    for v in ref.vertices:
        assert g.neighbors(v) == ref.adj[v]
        assert g.degree(v) == len(ref.adj[v])
        at = bisect_left(g.labels, v)
        assert g.labels[at] == v
        assert all(g.labels[w] in ref.adj[v] for w in g.adj[at])
    for u in probes:
        for v in probes:
            assert g.has_edge(u, v) == (u in ref.adj and v in ref.adj[u])
    with pytest.raises(UnknownVertexError):
        g.neighbors("zz")


def reference_read_graph(text):
    """Slow reference: the line-by-line parse with its own duplicate set."""
    edges = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two labels, got {stripped!r}")
        u, v = parts
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u!r} {v!r}")
        seen.add(key)
        edges.append((u, v))
    return Graph(edges)


def _read_outcome(read, text):
    try:
        g = read(text)
    except GraphFormatError as exc:
        return f"{type(exc).__name__}: {exc}"
    return g.vertices, list(g.edges()), g.edge_count


# edge lines over few labels (so repeats and self-loops are common), plus
# blank, comment, indented and malformed lines
_line = st.one_of(
    st.tuples(_few_labels, _few_labels).map(" ".join),
    st.tuples(_few_labels, _few_labels).map("\t ".join),
    st.sampled_from(["", "  ", "# c", "  #x y", "a", "a b c", "#", "b\u3000a"]),
)


@given(st.lists(_line, max_size=25))
@settings(max_examples=400)
def test_read_graph_matches_reference(lines):
    text = "\n".join(lines)
    assert _read_outcome(read_graph, text) == _read_outcome(reference_read_graph, text)


def test_read_graph_reports_first_bad_line():
    # a duplicate on line 2 comes before the malformed line 5
    text = "a b\nb a\nc d\n\na b c\n"
    with pytest.raises(GraphFormatError, match="^line 2: duplicate edge 'b' 'a'$"):
        read_graph(text)
    with pytest.raises(GraphFormatError, match="^line 3: expected two labels, got 'a b c'$"):
        read_graph("a b\n# x\na b c\nc c\n")
    with pytest.raises(GraphFormatError, match="^line 2: self-loop at 'c'$"):
        read_graph("a b\n c c \na b c\n")


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    names = sorted(draw(st.sets(_labels, min_size=n, max_size=n)))
    edges = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))
    return Graph(edges, vertices=names)


@given(random_graphs())
@settings(max_examples=100)
def test_roundtrip_idempotent(g):
    if any(g.degree(v) == 0 for v in g.vertices):
        return
    once = write_graph(g)
    assert write_graph(read_graph(once)) == once


@given(random_graphs())
@settings(max_examples=100)
def test_degree_sum_is_twice_edges(g):
    assert sum(d * c for d, c in degree_histogram(g).items()) == 2 * g.edge_count


@given(random_graphs())
@settings(max_examples=100)
def test_bfs_step_across_edges(g):
    # distance difference along any edge is at most one
    for src in g.vertices:
        dm = bfs_distances(g, src)
        for u, v in g.edges():
            du, dv = dm.get(u), dm.get(v)
            if du is not None and dv is not None:
                assert abs(du - dv) <= 1


def test_t_gadget_hook_distance():
    from burnkit.gadgets import make_T

    t = make_T(2, 6)
    dm = bfs_distances(t.graph, t["p"])
    assert dm[t["q"]] == 2 * 2 + 1  # Steps[p, q] = 2*l1 + 2


# The parse as it stood before the chunked read (read_graph, its helpers and
# the constructor's body), kept verbatim as the oracle of the read path.


def _reference_data_lines(text):
    """(line number, stripped line) of each line that is not blank or a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _reference_reject_first_bad_edge(edges, where=repeat("")):
    """Raise for the first self-loop or repeated edge in input order, prefixed by its ``where``."""
    seen = set()
    for (u, v), at in zip(edges, where):
        if u == v:
            raise GraphFormatError(f"{at}self-loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"{at}duplicate edge {u!r} {v!r}")
        seen.add(key)


def _reference_core(edges, vertices=()):
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # read twice, and again on the error path
    labels = tuple(sorted(set(vertices).union(*edges)))
    index = dict(zip(labels, range(len(labels))))
    adj = [[] for _ in labels]
    for u, v in edges:
        a, b = index[u], index[v]
        adj[a].append(b)
        adj[b].append(a)
    for a, nbrs in enumerate(adj):
        nbrs.sort()
        adj[a] = tuple(nbrs)
    # a self-loop or a parallel edge repeats an entry of some tuple
    if any(len(set(nbrs)) != len(nbrs) for nbrs in adj):
        _reference_reject_first_bad_edge(edges)
    return labels, index, adj, len(edges)


def reference_parse(text):
    edges = []
    where = (f"line {n}: " for n, _ in _reference_data_lines(text))  # read on an error path only
    for lineno, stripped in _reference_data_lines(text):
        parts = stripped.split()
        if len(parts) != 2:
            _reference_reject_first_bad_edge(edges, where)
            raise GraphFormatError(f"line {lineno}: expected two labels, got {stripped!r}")
        edges.append((parts[0], parts[1]))
    try:
        return _reference_core(edges)
    except GraphFormatError:
        _reference_reject_first_bad_edge(edges, where)
        raise


def reference_write(g):
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def _core_outcome(parse, text):
    try:
        labels, index, adj, edge_count = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return labels, list(index.items()), adj, edge_count


def _chunked_parse(text):
    g = read_graph(text)
    return g.labels, {v: bisect_left(g.labels, v) for v in g.labels}, g.adj, g.edge_count


# labels over a tiny alphabet, so that repeats, self-loops and labels that
# start with '#' are common; the separators include characters that split()
# treats as whitespace and splitlines() as a line end
_read_labels = st.text(alphabet="ab#", min_size=1, max_size=2)
_gap = st.sampled_from([" ", "  ", "\t", " \t", "\x0b", "\x1c", "\u2028", "\u3000"])
_text_line = st.one_of(
    # write_graph's shape, listed twice so that whole chunks often have it
    st.tuples(_read_labels, _read_labels).map(" ".join),
    st.tuples(_read_labels, _read_labels).map(" ".join),
    st.tuples(_gap, _read_labels, _gap, _read_labels, _gap).map("".join),
    st.tuples(_read_labels, _read_labels).map(lambda e: "#" + " ".join(e)),  # a comment
    st.lists(_read_labels, min_size=1, max_size=3).map(" ".join),  # 1 to 3 tokens
    st.sampled_from(["", "  ", "#", "# c d", "  #x y", "\t"]),
)
_line_end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.tuples(_text_line, _line_end).map("".join), max_size=16))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # often leaves no final newline
    return text


@given(edge_list_texts(), st.integers(min_value=1, max_value=12))
@settings(max_examples=500)
def test_chunked_read_matches_the_reference_parse(text, chunk):
    with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
        assert _core_outcome(_chunked_parse, text) == _core_outcome(reference_parse, text)


@pytest.mark.parametrize("chunk", [1, 2, 4, 1 << 20])
def test_comment_at_a_chunk_start_is_a_comment(chunk):
    # with a 4-character chunk the comment, which has write_graph's shape,
    # starts the second chunk exactly
    text = "a b\n#c d\n"
    with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
        g = read_graph(text)
    assert g.labels == ("a", "b") and g.edge_count == 1
    assert _core_outcome(_chunked_parse, text) == _core_outcome(reference_parse, text)


def test_empty_text_reads_as_the_empty_graph():
    assert _core_outcome(_chunked_parse, "") == ((), [], [], 0)


@given(random_graphs(), st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3))
@settings(max_examples=100)
def test_canonical_text_round_trips_in_chunks(g, chunk, block):
    if any(g.degree(v) == 0 for v in g.vertices):
        return
    text = reference_write(g)
    with mock.patch.object(graph_module, "_READ_CHUNK", chunk), mock.patch.object(
        graph_module, "_WRITE_BLOCK", block
    ):
        assert write_graph(g) == text
        assert write_graph(read_graph(text)) == text


@pytest.fixture(scope="module")
def prism_h_text(prism):
    """Edge-list text of the prism's reduction graph H: 109,478 vertices."""
    return write_graph(build_H(prism).h_graph)


def test_read_graph_peak_is_near_the_graph_it_returns(prism_h_text):
    """One string per label and one pointer per edge end while parsing: the
    peak stays within 4x the 6.4 MB text it reads (when every line, token
    and edge tuple was held at once it was 6.6x, and the bound of 1.6x the
    graph that the tuple layout returned admitted 4.8x), and the graph it
    returns is its labels and three int columns, less than half of that."""
    gc.collect()
    tracemalloc.start()
    try:
        g = read_graph(prism_h_text)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count == 109_478
    assert peak <= 4.0 * sys.getsizeof(prism_h_text)
    assert retained <= 0.5 * peak
    assert len(g.cols) == 3 and g.over == {} and _is_column_core(g)


def test_write_graph_peak_is_near_the_text_it_returns(prism_h_text):
    """Lines joined a block at a time: the peak above the graph stays within
    2.5x of the text (4.2x when one list held every line)."""
    g = read_graph(prism_h_text)
    gc.collect()
    tracemalloc.start()
    try:
        text = write_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == prism_h_text
    assert peak <= 2.5 * sys.getsizeof(text)


def _is_column_core(g) -> bool:
    """Whether ``g``'s adjacency is W ``array('i')`` columns of one entry per
    vertex, W the largest degree capped at 4m/n, padded with the sentinel n
    after a row's neighbours, and an overflow row (an ``array('i')``) for
    exactly the vertices of degree above W: no object per vertex."""
    n, rows = g.vertex_count, list(g.adj)
    width = min(max(map(len, rows), default=0), 4 * g.edge_count // n if n else 0)
    if len(g.cols) != width or any(type(col) is not array or col.typecode != "i" for col in g.cols):
        return False
    padded = [row[:width] + (n,) * (width - len(row)) for row in rows]
    if [tuple(col) for col in g.cols] != [tuple(col) for col in zip(*padded)][:width]:
        return False
    extra = {v: tuple(row[width:]) for v, row in enumerate(rows) if len(row) > width}
    return all(type(r) is array and r.typecode == "i" for r in g.over.values()) and {
        v: tuple(r) for v, r in g.over.items()
    } == extra


def _mixed_text(edges, rnd) -> str:
    """Edge-list text of ``edges`` in which some lines have write_graph's
    shape and others follow a comment line or end in CRLF."""
    lines = []
    for u, v in edges:
        if rnd.random() < 0.3:
            lines.append("# a comment\r\n")
        lines.append(f"{u} {v}" + ("\r\n" if rnd.random() < 0.3 else "\n"))
    return "".join(lines)


@given(random_graphs(), st.randoms(use_true_random=False), st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_read_graph_and_pairs_build_the_reference_core(g, rnd, chunk):
    """``read_graph`` and ``Graph(pairs)`` build the parent constructor's
    labels and adjacency, as int columns and overflow rows, from edges in
    canonical order, shuffled, with endpoints swapped, and from text that
    mixes write_graph's shape with comment and CRLF lines; the constructor
    also keeps isolated ``vertices``."""
    canonical = list(g.edges())
    shuffled = canonical[:]
    rnd.shuffle(shuffled)
    swapped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in shuffled]
    isolated = [v for v in g.vertices if not g.degree(v)]
    for edges in (canonical, shuffled, swapped):
        labels, _, adj, edge_count = _reference_core(edges, isolated)
        built = Graph(edges, vertices=isolated)
        assert (built.labels, built.adj, built.edge_count) == (labels, adj, edge_count)
        assert _is_column_core(built)
        labels, _, adj, edge_count = _reference_core(edges)
        texts = ["".join(f"{u} {v}\n" for u, v in edges), _mixed_text(edges, rnd)]
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            for text in texts:
                read = read_graph(text)
                assert (read.labels, read.adj, read.edge_count) == (labels, adj, edge_count)
                assert _is_column_core(read)


@pytest.mark.parametrize(
    "edges, error",
    [
        (lambda: [("a", "b", "c")], ValueError),
        (lambda: [("a",)], ValueError),
        # together they hold two ends per pair, which must not pair up
        (lambda: [("a", "b", "c"), ("d",)], ValueError),
        (lambda: [("a",), ("b", "c", "d"), ("e", "f")], ValueError),
        (lambda: [iter(("a", "b"))], ValueError),  # consumed before it is unpacked
        (lambda: [("a", "b"), 7], TypeError),
        (lambda: [("a", ["b"])], TypeError),
    ],
    ids=["three", "one", "three_then_one", "one_then_three", "iterator", "int", "unhashable"],
)
def test_graph_rejects_a_pair_of_other_than_two_labels(edges, error):
    """A malformed pair raises what the parent constructor raised."""
    with pytest.raises(error):
        _reference_core(edges())
    with pytest.raises(error):
        Graph(edges())


def _raises_unknown(call, *args) -> bool:
    try:
        call(*args)
    except UnknownVertexError:
        return True
    return False


def assert_lookups_match_a_dict(g):
    """Every label-keyed query of ``g`` agrees with a label -> index dict
    built from its label table.  The probes are every label, ``""``, ``None``
    and ``0``, each string label with a character added and with one
    dropped, and each int label plus and minus one and as a decimal string;
    for ``has_edge`` each is paired with the label nearest it in the table
    and with that label's first neighbour, both ways round."""
    labels, adj = g.labels, g.adj
    # strictly increasing: what a lookup by bisection relies on
    assert all(map(operator.lt, labels, labels[1:]))
    ref = dict(zip(labels, range(len(labels))))

    def edge(u, v):
        a, b = ref.get(u), ref.get(v)
        return a is not None and b is not None and b in adj[a]

    probes = [*labels, "", None, 0]
    for v in labels:
        probes += [v + "\x00", v[:-1]] if isinstance(v, str) else [v - 1, v + 1, str(v)]
    for v in probes:
        at = ref.get(v)
        assert (v in g) == (at is not None)
        if at is None:
            assert _raises_unknown(g.neighbors, v) and _raises_unknown(g.degree, v)
        else:
            assert g.neighbors(v) == tuple(labels[w] for w in adj[at])
            assert g.degree(v) == len(adj[at])
        if labels:
            try:
                near = min(bisect_left(labels, v), len(labels) - 1)
            except TypeError:  # v does not compare with the labels
                near = 0
            for w in (labels[near], *(labels[w] for w in adj[near][:1])):
                assert g.has_edge(v, w) == g.has_edge(w, v) == edge(v, w)


def _relabel(g, names):
    rename = dict(zip(g.labels, names))
    return Graph([(rename[u], rename[v]) for u, v in g.edges()])


@st.composite
def built_graphs(draw):
    """A graph built by the constructor (isolated vertices included, and
    also on int labels), by ``read_graph``, or by ``build_Hd`` at d in
    {4, 5, 12, 13} (``copy10:`` sorts first at d >= 12) or at a d' drawn
    below one of those; string labels come from a small alphabet, so that
    one label is often a prefix of another."""
    how = draw(st.sampled_from(["constructor", "int_labels", "read_graph", "build_Hd", "smaller_d"]))
    if how == "int_labels":
        ints = st.integers(0, 9)
        pairs = draw(st.lists(st.tuples(ints, ints), max_size=20))
        edges = list({(u, v) if u < v else (v, u) for u, v in pairs if u != v})
        return Graph(edges, vertices=draw(st.lists(ints, max_size=4)))
    if how in ("constructor", "read_graph"):
        pairs = draw(st.lists(st.tuples(_few_labels, _few_labels), max_size=30))
        edges = list({(u, v) if u < v else (v, u) for u, v in pairs if u != v})
        if how == "read_graph":
            return read_graph("".join(f"{u} {v}\n" for u, v in edges))
        return Graph(edges, vertices=draw(st.lists(_few_labels, max_size=6)))
    n = draw(st.sampled_from([4, 6, 8]))
    label = st.text(alphabet="ab:1", min_size=1, max_size=3)
    names = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    base = _relabel(random_cubic(n, draw(st.integers(1, 5))), names)
    d = draw(st.sampled_from([4, 5, 12, 13]))
    if how == "smaller_d":
        d = draw(st.integers(4, d))
    return build_Hd(base, d).graph


@given(built_graphs())
@settings(max_examples=200, deadline=None)
def test_label_lookups_match_a_dict_on_every_kind_of_graph(g):
    assert_lookups_match_a_dict(g)


def test_int_labels_are_found_as_the_constructor_stored_them():
    g = Graph([(1, 2)])
    assert g.vertices == (1, 2)
    assert 1 in g and "1" not in g and None not in g
    assert g.neighbors(1) == (2,) and g.degree(2) == 1 and g.has_edge(2, 1)
    assert is_burning_sequence(g, [1, 2]) and not is_burning_sequence(g, [1])


@pytest.mark.parametrize(
    "labels, edge",
    [("abcd", None), (("a", "b", "b:c", "d"), ("a", "d"))],
    ids=["k4", "interleaving_k4"],
)
def test_label_lookups_match_a_dict_on_h(labels, edge):
    """Both of build_H's layouts: K4's blocks in head order, and the one
    permuted into label order because, with (a, d) subdivided, the head
    btp:a:b:c: extends btp:a:b: and their blocks interleave."""
    k4 = _relabel(Graph(list(combinations("abcd", 2))), labels)
    assert_lookups_match_a_dict(build_H(k4, edge).h_graph)


def _queue_bfs(g, src):
    """The BFS as it stood before the level-synchronous walk: a FIFO queue."""
    dist = [-1] * g.vertex_count
    dist[src] = 0
    queue = deque((src,))
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _assert_bfs_matches_a_queue_bfs(g):
    for src in range(g.vertex_count):
        assert g.bfs(src) == _queue_bfs(g, src)
    assert is_connected(g) == (g.vertex_count == 0 or -1 not in _queue_bfs(g, 0))


@given(random_graphs())
@settings(max_examples=200)
def test_level_bfs_matches_a_queue_bfs(g):
    """Random graphs on 2..8 vertices, often disconnected or with isolated
    vertices."""
    _assert_bfs_matches_a_queue_bfs(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph([]),
        Graph([], vertices=["a"]),
        Graph([("a", "b"), ("c", "d")], vertices=["e", "f"]),
        path_graph(40),
        random_cubic(80, 1),
        Graph([*random_cubic(20, 2).edges(), ("x", "y")], vertices=["z"]),
    ],
    ids=["empty", "one_vertex", "two_edges_two_isolated", "path", "cubic", "cubic_plus_parts"],
)
def test_level_bfs_matches_a_queue_bfs_on_fixed_graphs(g):
    _assert_bfs_matches_a_queue_bfs(g)


def _reference_write_outcome(g):
    """write_graph's checks as they stood before the joined-label check: the
    per-label scan over labels with an edge, then the isolated vertices."""

    def ok(label):
        return label.split() == [label] and not label.startswith("#")

    labels, adj = tuple(g.labels), g.adj
    if not all(ok(v) for v, nbrs in zip(labels, adj) if nbrs):
        bad = next(v for edge in g.edges() for v in edge if not ok(v))
        return GraphFormatError, f"label not representable in edge-list format: {bad!r}"
    for v, nbrs in zip(labels, adj):
        if not nbrs:
            return GraphFormatError, f"isolated vertex {v!r} cannot be represented in edge-list format"
    return reference_write(g)


def _write_outcome(g):
    try:
        return write_graph(g)
    except GraphFormatError as exc:
        return type(exc), str(exc)


_odd_labels = st.text(alphabet="a#\n \t\xa0\u2028", max_size=3)


@given(
    st.lists(st.tuples(_odd_labels, _odd_labels), max_size=12),
    st.lists(_odd_labels, max_size=3),
)
@settings(max_examples=400)
def test_write_graph_label_check_matches_the_per_label_scan(pairs, vertices):
    """Labels that are empty, hold whitespace (a newline, a no-break space, a
    line separator) or hold '#' anywhere: the same text, or the same error
    naming the same label, as the per-label scan."""
    edges = list({(u, v) if u < v else (v, u) for u, v in pairs if u != v})
    g = Graph(edges, vertices=vertices)
    assert _write_outcome(g) == _reference_write_outcome(g)


def test_write_graph_accepts_hash_inside_a_label():
    g = Graph([("a#", "b#c"), ("b#c", "d")])
    text = write_graph(g)
    assert text == "a# b#c\nb#c d\n"
    assert read_graph(text).vertices == g.vertices


@pytest.mark.parametrize("bad", ["#a", "#", "a b", "a\nb", "a\n#b", "\xa0", ""])
def test_write_graph_refuses_a_bad_label_with_the_same_message(bad):
    g = Graph([("m", bad), ("m", "n")])
    with pytest.raises(GraphFormatError) as err:
        write_graph(g)
    assert str(err.value) == f"label not representable in edge-list format: {bad!r}"
    # on an isolated vertex the isolated-vertex error still comes first
    with pytest.raises(GraphFormatError) as err:
        write_graph(Graph([("m", "n")], vertices=[bad]))
    assert str(err.value) == f"isolated vertex {bad!r} cannot be represented in edge-list format"


def _collections_started(call):
    """The generations of the collections that start while ``call`` runs,
    counted from an empty generation 0, so that what the caller allocated
    before cannot start one at the call's first allocation."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return started


def _builds(cubic):
    """Every bulk build, by its public entry point, each as a call."""
    return {
        "read_graph": lambda: read_graph("a b\nb c\n"),
        "Graph": lambda: Graph([("a", "b")], vertices=["c"]),
        "build_H": lambda: build_H(cubic),
        "build_Hd": lambda: build_Hd(cubic, 5),
    }


_FAILING_BUILDS = {
    "read_graph_self_loop": (lambda: read_graph("a b\nc c\n"), GraphFormatError),
    "Graph_self_loop": (lambda: Graph([("a", "a")]), GraphFormatError),
    "Graph_duplicate_edge": (lambda: Graph([("a", "b"), ("b", "a")]), GraphFormatError),
    "build_H_not_connected": (lambda: build_H(Graph([("a", "b"), ("c", "d")])), NotConnectedError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_builds_leave_the_collector_as_they_found_it(k4, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for name, build in _builds(k4).items():
            build()
            assert gc.isenabled() is enabled, name
        for name, (build, error) in _FAILING_BUILDS.items():
            with pytest.raises(error):
                build()
            assert gc.isenabled() is enabled, name
    finally:
        (gc.enable if was else gc.disable)()


def test_builds_start_no_collection(k4, k4_instance, prism_h_text):
    """With the collector on, no collection starts while H, H_5 or the
    prism's H from its text is built: no build makes a container per vertex
    or per edge (the gadget builders lay their edges out as flat label
    lists), so none feeds the collector."""
    assert gc.isenabled()
    h = k4_instance.h_graph
    assert _collections_started(lambda: build_H(k4)) == []
    assert _collections_started(lambda: build_Hd(h, 5)) == []
    assert _collections_started(lambda: read_graph(prism_h_text)) == []


def test_schedule_starts_no_collection_and_its_masks_are_untracked(k4_instance):
    """The responsible sources are one int per vertex, which the cyclic
    collector never tracks, so no collection starts while the burning
    schedule runs on the K4 H's constructive witness; a frozenset per vertex
    started three generation-0 collections there."""
    inst = k4_instance
    seq = list(vc_to_witness(inst, vertex_cover_exact(inst.g_prime).witness))
    schedule = []
    assert _collections_started(lambda: schedule.extend(_schedule(inst.h_graph, seq))) == []
    _, time, resp = schedule
    assert _UNBURNED not in time
    assert not any(map(gc.is_tracked, resp))


def _hub_and_cycle(n: int) -> list[tuple[str, str]]:
    """A cycle of n vertices, each also joined to one hub: degrees 3 and n."""
    ring = [f"r{i:06d}" for i in range(n)]
    return [*zip(ring, ring[1:] + ring[:1]), *(("hub", v) for v in ring)]


@pytest.mark.parametrize(
    "edges",
    [[("hub", f"v{i:06d}") for i in range(100_000)], _hub_and_cycle(100_000)],
    ids=["star", "hub_and_cycle"],
)
def test_skewed_graph_keeps_near_2m_column_slots(edges):
    """A graph of one huge degree holds its labels' table and about its 2m
    edge ends, not n slots per column up to the largest degree: W stays at
    most 4m/n and the hub's row runs on in the overflow map.  The bound is
    the label table plus 2.5x the 2m four-byte ends; W = n would be n² of
    them."""
    gc.collect()
    tracemalloc.start()
    try:
        g = Graph(edges)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, m = g.vertex_count, g.edge_count
    assert len(g.cols) <= 4 * m // n and list(g.over) == [g._at("hub")]
    assert retained <= sys.getsizeof(g.labels) + 2.5 * 2 * m * 4
    assert g.degree("hub") == 100_000


@pytest.mark.parametrize(
    "g",
    [
        Graph([]),
        Graph([], vertices=["a", "b"]),
        Graph([("a", "b")], vertices=["c", "d", "e", "f", "g"]),
        Graph([("hub", f"v{i}") for i in range(12)], vertices=["w"]),
        random_cubic(20, 1),
    ],
    ids=["empty", "isolated", "no_column", "star_plus_isolated", "cubic"],
)
def test_adj_is_a_read_only_view_of_the_rows(g):
    """``Graph.adj`` reads as the list of sorted neighbour tuples, whatever
    the columns hold: padding dropped and overflow rows appended; indexing
    both ways with IndexError one past either end, slices as tuples,
    iteration, ``==`` with a list or tuple both ways, no hash, no item
    assignment."""
    ref = [tuple(sorted(g._at(w) for w in g.neighbors(v))) for v in g.vertices]
    adj, n = g.adj, g.vertex_count
    assert len(adj) == n and list(adj) == ref
    assert [adj[i] for i in range(-n, n)] == ref + ref
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            adj[i]
    for cut in (slice(None), slice(1, None), slice(None, None, -2)):
        assert adj[cut] == tuple(ref[cut]) and type(adj[cut]) is tuple
    assert adj == ref and ref == adj and adj == tuple(ref) and adj == g.adj
    assert adj != ref + [()]
    with pytest.raises(TypeError):
        hash(adj)
    with pytest.raises(TypeError):
        adj[0] = ()


@pytest.mark.parametrize("s", [0, 1, 4_999_999])
@pytest.mark.parametrize(
    "length", [0, 1, _SHIFT_CHUNK - 1, _SHIFT_CHUNK, _SHIFT_CHUNK + 1, 3 * _SHIFT_CHUNK + 5]
)
def test_shift_into_adds_s_to_every_entry_in_place(length, s):
    """``_shift_into`` writes ``src[i] + s`` at ``dst[at + i]`` and nothing
    else, across chunk boundaries and a last partial chunk, for entries from
    0 up to the largest whose sum stays below 2**31, from an array or a
    memoryview of one, at any offset into the destination."""
    top = 2**31 - 1 - s
    values = [0, top, 1, top - 1, 123_456, 2**24]
    src = array("i", (values[i] if i < 6 else (i * 7919) % (top + 1) for i in range(length)))
    expected = [x + s for x in src]
    for at in (0, 1, 3):
        for view in (src, memoryview(src)):
            dst = array("i", [-1]) * (at + length + 2)
            _shift_into(dst, at, view, s)
            assert dst.tolist() == [-1] * at + expected + [-1, -1]
