from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.graph import (
    Graph,
    GraphFormatError,
    UnknownVertexError,
    bfs_distances,
    degree_histogram,
    is_connected,
    is_regular,
    read_graph,
    write_graph,
)
from burnkit.generators import path_graph


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


def test_bfs_unreachable_absent():
    g = Graph([("a", "b"), ("c", "d")])
    dm = bfs_distances(g, "a")
    assert dm.get("c") is None


def test_predicates(k4):
    assert is_regular(k4, 3)
    p3 = path_graph(3)
    assert not any(is_regular(p3, d) for d in range(5))
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
        assert g.labels[g.index[v]] == v
        assert all(g.labels[w] in ref.adj[v] for w in g.adj[g.index[v]])
    for u in probes:
        for v in probes:
            assert g.has_edge(u, v) == (u in ref.adj and v in ref.adj[u])
    with pytest.raises(UnknownVertexError):
        g.neighbors("zz")


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
