"""Labeled simple undirected graphs with BFS, structural predicates, and edge-list I/O.

Vertices are string labels.  A graph is one integer core: the sorted label
table ``labels`` and ``adj``, the sorted tuple of neighbour indices of each
vertex.  Index order equals lexicographic label order, so sorted indices are
sorted labels; canonical edge order and the repair tie-breaks rely on it,
and a label's index is found by bisection on the table, with no map beside
it.  Every label-keyed query reads the core.  Graphs are immutable after
construction, so every read operation is safe to call concurrently.  All
iteration orders are canonical (lexicographic on labels) to keep downstream
output diffable.

The constructor works on integers from the start: it numbers the labels
in first-seen order, sorts them once, keeps those numbers as the indices
(one int object per vertex) and fills the adjacency by list indexing.
``read_graph`` numbers each label as it parses and hands the constructor
those ids, one pointer per edge end; ``Graph(pairs)`` numbers the pairs'
labels and goes through the same core.  Edge-list I/O makes no object per
edge that outlives a chunk of the text: ``write_graph`` joins its lines a
block at a time.

The bulk builders (the constructor's core ``_index``, ``reduction.build_H``
and ``lift._from_blocks``) run with the cyclic collector paused.  They make
one tracked container per vertex, a list and then a tuple, and none of them
ends up as garbage in a cycle.  With the collector on, every 700 of them
start a generation-0 collection, and the lists that survive drive
generation-1 and full collections, which walk every tracked object in the
process.  Paused, one generation-0 collection after the build looks at
those containers once and stops tracking each tuple that holds only ints.
The collector is turned back on after the build, on the error path too,
only if it was on before.  The pause is process-wide: another thread that
turns the collector off while a build runs may find it back on when the
build ends.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import wraps
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NoReturn, Sequence


class GraphError(Exception):
    """Base class for graph construction and I/O errors."""


class UnknownVertexError(GraphError):
    """A vertex label is not present in the graph."""


class GraphFormatError(GraphError):
    """Edge-list text is malformed (bad line, self-loop, duplicate edge)."""


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the strictly increasing label table: a tuple, or for a
    lifted graph a read-only view that makes each label when it is read.
    ``adj[i]`` is the sorted tuple of the neighbour indices of ``labels[i]``;
    all entries that name one vertex are one int object.  No self-loops, no
    parallel edges, symmetric adjacency.
    """

    __slots__ = ("labels", "adj", "_edge_count")

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        if isinstance(edges, _Ends):  # read_graph's parse, which replays its own faults
            labels, adj, edge_count = _index(edges)
        else:
            if not isinstance(edges, (list, tuple)):
                edges = list(edges)  # read twice, and again on the error path
            labels, adj, edge_count = _index(_pair_ends(edges, vertices))
            if adj is None:
                _reject_first_bad_edge(edges)
        if adj is None:
            raise GraphFormatError("self-loop or duplicate edge")
        self.labels: Sequence[str] = labels
        self.adj: list[tuple[int, ...]] = adj
        self._edge_count = edge_count

    @property
    def vertices(self) -> Sequence[str]:
        return self.labels

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def _find(self, v: str) -> int | None:
        """The index of label ``v``, or None when ``v`` is not a vertex (a
        probe that does not compare with the labels, such as ``None``,
        included)."""
        labels = self.labels
        try:
            i = bisect_left(labels, v)
        except TypeError:
            return None
        return i if i < len(labels) and labels[i] == v else None

    def __contains__(self, v: str) -> bool:
        return self._find(v) is not None

    def _at(self, v: str) -> int:
        i = self._find(v)
        if i is None:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return i

    def neighbors(self, v: str) -> tuple[str, ...]:
        labels = self.labels
        return tuple([labels[w] for w in self.adj[self._at(v)]])

    def degree(self, v: str) -> int:
        return len(self.adj[self._at(v)])

    def has_edge(self, u: str, v: str) -> bool:
        a, b = self._find(u), self._find(v)
        if a is None or b is None:
            return False
        nbrs = self.adj[a]
        i = bisect_left(nbrs, b)
        return i < len(nbrs) and nbrs[i] == b

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges in canonical order: smaller endpoint first, sorted."""
        labels = tuple(self.labels)  # a view's labels made once, not per edge end
        for a, nbrs in enumerate(self.adj):
            u = labels[a]
            for b in nbrs[bisect_right(nbrs, a):]:
                yield (u, labels[b])

    def indexed(self) -> "Graph":
        """The integer view (``labels``, ``adj``): the graph itself."""
        return self

    def bfs(self, src: int) -> list[int]:
        """Hop distances from index ``src``; -1 marks unreachable vertices.
        The search goes one level at a time, so every vertex of a level
        takes the level's distance."""
        dist = [-1] * len(self.labels)
        dist[src] = 0
        adj = self.adj
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            new = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        new.append(w)
            frontier = new
        return dist

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# perfbench's tracer rebinds the module name ``Graph`` to a wrapper function;
# code that needs the class itself goes through this alias.
_Graph = Graph


def _reject_first_bad_edge(edges: Iterable[tuple[str, str]], where: Iterable[str] = repeat("")):
    """Raise for the first self-loop or repeated edge in input order, prefixed by its ``where``."""
    seen: set[tuple[str, str]] = set()
    for (u, v), at in zip(edges, where):
        if u == v:
            raise GraphFormatError(f"{at}self-loop at {u!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"{at}duplicate edge {u!r} {v!r}")
        seen.add(key)


def _from_core(labels: Sequence[str], adj: list[tuple[int, ...]], edge_count: int) -> Graph:
    """A graph from a strictly increasing label table and a valid sorted int
    adjacency, trusted as given: no sort, no duplicate scan.  Callers fill
    the adjacency with one int object per vertex, as the constructor does."""
    g = object.__new__(_Graph)
    g.labels = labels
    g.adj = adj
    g._edge_count = edge_count
    return g


def _ints(n: int) -> list[int]:
    """The int objects 0..n-1, made by ``count`` as the constructor's ids
    are: tracemalloc sees each at 28 bytes, where ``range`` requests 32."""
    return list(islice(count(), n))


def _nogc(build: Callable) -> Callable:
    """``build`` run with the cyclic collector paused; see the module
    docstring.  The collector is turned back on afterwards, raise or not,
    only if it was on when ``build`` was called, so nested builds pause it
    once."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _label_order(ints: list[int], labels: Sequence) -> tuple[list[int], list[int]]:
    """The ints ``0..n-1`` of an unsorted label table in label order, and the
    rank of each in that order, held as an object of ``ints``."""
    order = sorted(ints, key=labels.__getitem__)
    rank = [0] * len(ints)
    for i, j in zip(ints, order):
        rank[j] = i
    return order, rank


class _Ends:
    """Edges as dense ids, from a parse or a list of pairs to the constructor:
    ``ids`` maps each label to its id, numbered from 0 in first-seen order,
    and ``ends`` is a list of tuples of ids, each holding whole edges as two
    consecutive ends, in order."""

    __slots__ = ("ids", "ends")

    def __init__(self, ids: dict, ends: list[tuple[int, ...]]):
        self.ids = ids
        self.ends = ends


def _number(ids: defaultdict, labels: Sequence) -> tuple[int, ...]:
    """The ids of ``labels`` in an id map that numbers each new label as it
    is first looked up.  ``itemgetter`` looks them all up at C level, about
    twice as fast as a ``map`` over ``ids.__getitem__``, which makes one
    call per label; it returns a bare id for one label."""
    if len(labels) < 2:
        return tuple(map(ids.__getitem__, labels))
    return itemgetter(*labels)(ids)


def _pair_ends(edges: Sequence[tuple[str, str]], vertices: Iterable[str]) -> _Ends:
    """The ids of ``vertices`` and of the ends of each pair of ``edges``."""
    ids: defaultdict = defaultdict(count().__next__)
    deque(map(ids.__getitem__, vertices), 0)
    ends = _number(ids, tuple(chain.from_iterable(edges)))
    # a pair of other than two labels would shift every later end by one:
    # unpacking each pair raises as ``for u, v in edges`` does
    try:
        pairs = {*map(len, edges)} <= {2}
    except TypeError:  # a pair without a length
        pairs = False
    if not pairs:
        for u, v in edges:
            pass
    return _Ends(ids, [ends])


@_nogc
def _index(source: _Ends) -> tuple[tuple, list[tuple[int, ...]] | None, int]:
    """The sorted label table, the adjacency (None when some edge is a
    self-loop or repeats another) and the edge count of ``source``, which is
    emptied as it is read.  Its ids become the indices: one int object per
    vertex."""
    first = list(source.ids)  # the label of each id
    ids = list(source.ids.values())  # ids[j] is j
    source.ids.clear()
    order, rank = _label_order(ids, first)
    labels = tuple(map(first.__getitem__, order))
    del first, ids, order
    adj: list = [[] for _ in labels]
    edge_count = 0
    chunks = source.ends
    for at, chunk in enumerate(chunks):
        chunks[at] = None  # the ends of a chunk are freed once it is read
        edge_count += len(chunk) // 2
        ends = map(rank.__getitem__, chunk)
        for a, b in zip(ends, ends):
            adj[a].append(b)
            adj[b].append(a)
    del rank
    for a, nbrs in enumerate(adj):
        nbrs.sort()
        adj[a] = tuple(nbrs)
    # a self-loop or a parallel edge repeats an entry of some tuple
    if any(len(set(nbrs)) != len(nbrs) for nbrs in adj):
        return labels, None, edge_count
    return labels, adj, edge_count


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
    labels = tuple(g.labels)  # a view's labels made once, not per vertex
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
    return -1 not in g.bfs(0)


def degree_histogram(g: Graph) -> dict[int, int]:
    return dict(sorted(Counter(map(len, g.adj)).items()))


def is_regular(g: Graph, d: int) -> bool:
    return {*map(len, g.adj)} <= {d}


def _label_ok(label: str) -> bool:
    # split() keeps a label whole exactly when it is non-empty and has no
    # character for which str.isspace() holds
    return label.split() == [label] and not label.startswith("#")


def _labels_ok(labels: list[str]) -> bool:
    """Whether :func:`_label_ok` holds for every label, checked at C level:
    split() gives back the labels exactly when none is empty or holds
    whitespace, and a label starts with '#' exactly when the joined text
    does or has '#' after a newline."""
    joined = "\n".join(labels)
    return not joined.startswith("#") and "\n#" not in joined and joined.split() == labels


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _reject_first_bad_line(text: str) -> NoReturn:
    """Raise for the first bad line of ``text``: the per-line parse, kept as
    the reference for line-numbered errors.  Called only on a fault."""
    edges: list[tuple[str, str]] = []
    where = (f"line {n}: " for n, _ in _data_lines(text))
    for lineno, stripped in _data_lines(text):
        parts = stripped.split()
        if len(parts) != 2:
            _reject_first_bad_edge(edges, where)
            raise GraphFormatError(f"line {lineno}: expected two labels, got {stripped!r}")
        edges.append((parts[0], parts[1]))
    _reject_first_bad_edge(edges, where)
    raise GraphFormatError("internal: fault not found on replay")


def _chunk_tokens(chunk: str) -> list[str] | None:
    """The labels of a non-empty chunk of whole lines, two per edge in line
    order, or None when some line holds other than two labels."""
    tokens = chunk.split()
    # write_graph's own shape, "u v\n" on every line and no line a comment,
    # is checked at C level; with the per-line parse alone, reduce-pipeline
    # took 3.20 s a pass instead of 2.78 s (slower in 11 of 11 pairs)
    if not chunk.startswith("#") and "\n#" not in chunk:
        if chunk == "\n".join(map(" ".join, zip(tokens[::2], tokens[1::2]))) + "\n":
            return tokens
    tokens = []
    for _, stripped in _data_lines(chunk):
        parts = stripped.split()
        if len(parts) != 2:
            return None
        tokens += parts
    return tokens


_READ_CHUNK = 1 << 20  # read_graph's chunks: this many characters, then to the end of that line


def read_graph(text: str) -> Graph:
    """Parse edge-list text: one edge per line, two whitespace-separated labels.

    Lines starting with '#' are comments; blank lines are skipped.  The vertex
    set is the union of the endpoints.

    The text is read in chunks of whole lines of about 1 MiB.  A chunk in
    ``write_graph``'s shape (each line two labels joined by one space, no
    comment, no blank line, ending in a newline) is split in one call; any
    other chunk goes through the per-line parse.  Each label is mapped to a
    dense id as it is read, numbered in first-seen order, so the parse holds
    one string and one int per label and one pointer per edge end, and each
    chunk's tokens are dropped before the next chunk is read.  The
    constructor sorts the labels once and keeps the ids as the indices.  On
    a fault, the whole text is parsed again line by line to name the first
    bad line.
    """
    try:
        return Graph(_parse(text))
    except GraphFormatError:
        _reject_first_bad_line(text)


def _parse(text: str) -> _Ends:
    """The ids of the edge ends of ``text``; raises :class:`GraphFormatError`,
    naming no line, when some line holds other than two labels."""
    ids: defaultdict = defaultdict(count().__next__)
    ends: list[tuple[int, ...]] = []  # one tuple per chunk
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _READ_CHUNK - 1) + 1 or len(text)
        tokens = _chunk_tokens(text[start:stop])
        if tokens is None:
            raise GraphFormatError("a line holds other than two labels")
        ends.append(_number(ids, tokens))
        del tokens  # before the next chunk is split
        start = stop
    return _Ends(ids, ends)


_WRITE_BLOCK = 1 << 15  # lines joined at a time by write_graph


def write_graph(g: Graph) -> str:
    """Canonical edge-list text: edges sorted, smaller endpoint first.

    Each edge is one ``"u v\\n"`` line; the lines are joined in blocks of
    32,768, so at most one block of line strings is alive beside the block
    texts and the result.
    """
    labels, adj = tuple(g.labels), g.adj  # a view's labels made once, not per edge end
    # only labels with an edge: a bad isolated label is reported below as an
    # isolated vertex
    if not _labels_ok(list(compress(labels, adj))):
        # name the label that the canonical edge order reaches first
        bad = next(v for edge in g.edges() for v in edge if not _label_ok(v))
        raise GraphFormatError(f"label not representable in edge-list format: {bad!r}")
    for v, nbrs in zip(labels, adj):
        if not nbrs:
            raise GraphFormatError(
                f"isolated vertex {v!r} cannot be represented in edge-list format"
            )
    # the canonical order of edges(), without a tuple per edge
    lines = (f"{labels[a]} {labels[b]}\n" for a, nbrs in enumerate(adj) for b in nbrs if b > a)
    return "".join(iter(lambda: "".join(islice(lines, _WRITE_BLOCK)), ""))
