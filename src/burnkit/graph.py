"""Labeled simple undirected graphs with BFS, structural predicates, and edge-list I/O.

Vertices are string labels.  A graph is one integer core: the sorted label
table ``labels``, the map ``index`` from label to position, and ``adj``, the
sorted tuple of neighbour indices of each vertex.  Index order equals
lexicographic label order, so sorted indices are sorted labels; canonical
edge order and the repair tie-breaks rely on it.  Every label-keyed query
reads the core.  Graphs are immutable after construction, so every read
operation is safe to call concurrently.  All iteration orders are canonical
(lexicographic on labels) to keep downstream output diffable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(Exception):
    """Base class for graph construction and I/O errors."""


class UnknownVertexError(GraphError):
    """A vertex label is not present in the graph."""


class GraphFormatError(GraphError):
    """Edge-list text is malformed (bad line, self-loop, duplicate edge)."""


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the sorted label table, ``index`` maps a label to its
    position in it, and ``adj[i]`` is the sorted tuple of the neighbour
    indices of ``labels[i]``.  No self-loops, no parallel edges, symmetric
    adjacency.
    """

    __slots__ = ("labels", "index", "adj", "_edge_count")

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # read twice, and again on the error path
        labels = tuple(sorted(set(vertices).union(*edges)))
        index = dict(zip(labels, range(len(labels))))
        adj: list = [[] for _ in labels]
        for u, v in edges:
            a, b = index[u], index[v]
            adj[a].append(b)
            adj[b].append(a)
        for a, nbrs in enumerate(adj):
            nbrs.sort()
            adj[a] = tuple(nbrs)
        # a self-loop or a parallel edge repeats an entry of some tuple
        if any(len(set(nbrs)) != len(nbrs) for nbrs in adj):
            _reject_first_bad_edge(edges)
        self.labels: tuple[str, ...] = labels
        self.index: dict[str, int] = index
        self.adj: list[tuple[int, ...]] = adj
        self._edge_count = len(edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.labels

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, v: str) -> bool:
        return v in self.index

    def _at(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        labels = self.labels
        return tuple([labels[w] for w in self.adj[self._at(v)]])

    def degree(self, v: str) -> int:
        return len(self.adj[self._at(v)])

    def has_edge(self, u: str, v: str) -> bool:
        a, b = self.index.get(u), self.index.get(v)
        if a is None or b is None:
            return False
        nbrs = self.adj[a]
        i = bisect_left(nbrs, b)
        return i < len(nbrs) and nbrs[i] == b

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges in canonical order: smaller endpoint first, sorted."""
        labels = self.labels
        for a, nbrs in enumerate(self.adj):
            u = labels[a]
            for b in nbrs[bisect_right(nbrs, a):]:
                yield (u, labels[b])

    def indexed(self) -> "Graph":
        """The integer view (``labels``, ``index``, ``adj``): the graph itself."""
        return self

    def bfs(self, src: int) -> list[int]:
        """Hop distances from index ``src``; -1 marks unreachable vertices."""
        dist = [-1] * len(self.labels)
        dist[src] = 0
        queue = deque((src,))
        adj = self.adj
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# perfbench's tracer rebinds the module name ``Graph`` to a wrapper function;
# code that needs the class itself goes through this alias.
_Graph = Graph


def _reject_first_bad_edge(edges: Iterable[tuple[str, str]]):
    """Raise for the first self-loop or repeated edge in input order."""
    seen: set[tuple[str, str]] = set()
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u!r} {v!r}")
        seen.add(key)


def _from_core(labels: tuple[str, ...], adj: list[tuple[int, ...]], edge_count: int) -> Graph:
    """A graph from a sorted label table and a valid sorted int adjacency,
    trusted as given: no sort, no duplicate scan."""
    g = object.__new__(_Graph)
    g.labels = labels
    g.index = dict(zip(labels, range(len(labels))))
    g.adj = adj
    g._edge_count = edge_count
    return g


@dataclass(frozen=True)
class DistanceMap:
    """BFS hop distances from ``source``; vertices absent from ``dist`` are unreachable."""

    source: str
    dist: dict[str, int]

    def __getitem__(self, v: str) -> int:
        return self.dist[v]

    def get(self, v: str, default: int | None = None) -> int | None:
        return self.dist.get(v, default)


def bfs_distances(g: Graph, src: str) -> DistanceMap:
    """Exact hop distances from ``src`` to every reachable vertex."""
    raw = g.bfs(g._at(src))
    labels = g.labels
    dist = {labels[i]: d for i, d in enumerate(raw) if d >= 0}
    return DistanceMap(source=src, dist=dist)


def eccentricity(g: Graph, src: str) -> int:
    """Maximum BFS distance from ``src``; raises if the graph is disconnected."""
    dm = bfs_distances(g, src)
    if len(dm.dist) != g.vertex_count:
        raise GraphError("eccentricity undefined on a disconnected graph")
    return max(dm.dist.values())


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return all(d >= 0 for d in g.bfs(0))


def degree_histogram(g: Graph) -> dict[int, int]:
    return dict(sorted(Counter(map(len, g.adj)).items()))


def is_regular(g: Graph, d: int) -> bool:
    return all(len(nbrs) == d for nbrs in g.adj)


def _label_ok(label: str) -> bool:
    # split() keeps a label whole exactly when it is non-empty and has no
    # character for which str.isspace() holds
    return label.split() == [label] and not label.startswith("#")


def read_graph(text: str) -> Graph:
    """Parse edge-list text: one edge per line, two whitespace-separated labels.

    Lines starting with '#' are comments; blank lines are skipped.  The vertex
    set is the union of the endpoints.
    """
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
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


def write_graph(g: Graph) -> str:
    """Canonical edge-list text: edges sorted, smaller endpoint first."""
    labels, adj = g.labels, g.adj
    if not all(_label_ok(v) for v, nbrs in zip(labels, adj) if nbrs):
        # name the label that the canonical edge order reaches first
        bad = next(v for edge in g.edges() for v in edge if not _label_ok(v))
        raise GraphFormatError(f"label not representable in edge-list format: {bad!r}")
    for v, nbrs in zip(labels, adj):
        if not nbrs:
            raise GraphFormatError(
                f"isolated vertex {v!r} cannot be represented in edge-list format"
            )
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")
