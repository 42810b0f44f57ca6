"""Labeled simple undirected graphs with BFS, structural predicates, and edge-list I/O.

Vertices are string labels.  A graph is one integer core: the sorted label
table ``labels`` and a fixed-width column layout of the adjacency.  Index
order equals lexicographic label order, so sorted indices are sorted labels;
canonical edge order and the repair tie-breaks rely on it, and a label's
index is found by bisection on the table, with no map beside it.  Every
label-keyed query reads the core.  Graphs are immutable after construction,
so every read operation is safe to call concurrently.  All iteration orders
are canonical (lexicographic on labels) to keep downstream output diffable.

The adjacency is W columns, each an ``array('i')`` of one entry per vertex:
``cols[j][v]`` is the (j + 1)-th smallest neighbour of v.  A vertex of
degree below W pads the rest of its row with the sentinel index n, one past
the last vertex; the sentinel sorts after every neighbour, and the walks
give it a fixed state (burned at step 0, at distance 0) so it never enters a
frontier.  A vertex of degree above W keeps its neighbours past column W,
in order, in the overflow map ``over`` (vertex -> ``array('i')``).  W is the
largest degree, capped at 4m/n so that the column slots stay within twice
the 2m edge ends: the chain's large graphs are regular, with no padding and
no overflow, and a star pays for its hub in the overflow map, not n slots
per leaf.  ``adj`` is a read-only view of the same rows as sorted tuples,
made when they are read, for small graphs and callers that want rows; the
whole-graph walks (BFS, the burning kernel, edge and degree scans) read the
columns; BFS and the burning kernel share one frontier step, ``_advance``,
which gathers a frontier's entries of a column at C level.

The constructor works on integers from the start: it numbers the labels
in first-seen order, sorts them once and puts each edge end in the next
free slot of its row.  On canonical text (``write_graph``'s edge order)
that leaves every row sorted, which one C-level pass per column pair
confirms; each row that the pass finds out of order is sorted in place and
checked for a repeat, which a self-loop or a repeated edge leaves.  ``read_graph``
numbers each label as it parses and hands the constructor those ids, one
pointer per edge end; ``Graph(pairs)`` numbers the pairs' labels and goes
through the same core.  No build keeps a container per vertex, so the
cyclic collector has nothing to walk in a graph.  Edge-list I/O makes no
object per edge that outlives a chunk of the text: ``write_graph`` joins
its lines a block at a time.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import eq, ge, itemgetter, ne
from typing import Iterable, Iterator, NoReturn, Sequence


# The step or distance of a vertex never reached: above every step (a step
# never exceeds n + 1) and below 2**30, a one-digit int, because CPython 3.11
# specialises ``time[w] > t``, which :func:`_advance` makes per edge end, only
# when both sides are one-digit ints.
_UNBURNED = (1 << 30) - 1


class GraphError(Exception):
    """Base class for graph construction and I/O errors."""


class UnknownVertexError(GraphError):
    """A vertex label is not present in the graph."""


class GraphFormatError(GraphError):
    """Edge-list text is malformed (bad line, self-loop, duplicate edge)."""


def _int_text(v: int) -> str:
    """``str(v)``, or for an int with more digits than ``str`` prints
    (``sys.get_int_max_str_digits``) the power of two it reaches, ``at least
    2**k`` or ``at most -2**k``, so that an error message about a caller's
    integer or a closed-form count never fails to format."""
    try:
        return str(v)
    except ValueError:
        k = v.bit_length() - 1
        return f"at least 2**{k}" if v > 0 else f"at most -2**{k}"


class Graph:
    """Immutable simple undirected graph over string-labeled vertices.

    ``labels`` is the strictly increasing label table: a tuple, or for H
    and a lifted graph a read-only view that makes each label when it is
    read (``_BlockLabels``).
    ``cols`` is the tuple of W adjacency columns and ``over`` the overflow
    map, as the module docstring describes; ``adj`` is their rows as sorted
    tuples, made on read.  No self-loops, no parallel edges, symmetric
    adjacency.
    """

    __slots__ = ("labels", "cols", "over", "_edge_count")

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        if isinstance(edges, _Ends):  # read_graph's parse or a builder's ends
            labels, cols, over, edge_count = _index(edges)
        else:
            if not isinstance(edges, (list, tuple)):
                edges = list(edges)  # read twice, and again on the error path
            labels, cols, over, edge_count = _index(_pair_ends(edges, vertices))
            if cols is None:
                _reject_first_bad_edge(edges)
        if cols is None:
            raise GraphFormatError("self-loop or duplicate edge")
        self.labels: Sequence[str] = labels
        self.cols: tuple[array, ...] = cols
        self.over: dict[int, array] = over
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

    @property
    def adj(self) -> "_Rows":
        """The sorted tuple of neighbour indices of each vertex, made when it
        is read from the columns: a read-only sequence."""
        return _Rows(self)

    def _full(self) -> bool:
        """Whether every row fills the columns exactly: no padding, no overflow."""
        return not self.over and len(self.cols) * len(self.labels) == 2 * self._edge_count

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
        """The integer view (``labels`` and the columns): the graph itself."""
        return self

    def bfs(self, src: int) -> list[int]:
        """Hop distances from index ``src`` (-n <= src < n, as ``adj`` reads
        it), -1 for unreachable vertices: one :func:`_advance` per level."""
        n = len(self.labels)
        if not -n <= src < n:
            raise IndexError("vertex index out of range")
        src %= n
        dist = [_UNBURNED] * n
        dist.append(0)  # the padding sentinel: reached at 0, so never queued
        dist[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            frontier = _advance(self.cols, self.over, frontier, dist, d)
        dist.pop()
        for v in compress(count(), map(eq, dist, repeat(_UNBURNED))):
            dist[v] = -1
        return dist

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# perfbench's tracer rebinds the module name ``Graph`` to a wrapper function;
# code that needs the class itself goes through this alias.
_Graph = Graph


class _Rows(Sequence):
    """``Graph.adj``: entry v is the sorted tuple of v's neighbour indices,
    made when it is read from the columns (padding dropped) and the overflow
    map.  Read-only; slices are tuples, and it equals a list or tuple of the
    same rows.  It has no hash, as a list of rows has none."""

    __slots__ = ("cols", "over", "n", "full")

    def __init__(self, g: Graph):
        self.cols = g.cols
        self.over = g.over
        self.n = len(g.labels)
        self.full = g._full()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v):
        n = self.n
        if isinstance(v, slice):
            return tuple(map(self.__getitem__, range(*v.indices(n))))
        if not -n <= v < n:
            raise IndexError("vertex index out of range")
        if v < 0:
            v += n
        return self._row(v, tuple([col[v] for col in self.cols]))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        rows = zip(*self.cols) if self.cols else repeat((), self.n)
        return rows if self.full else map(self._row, count(), rows)

    def _row(self, v: int, row: tuple[int, ...]) -> tuple[int, ...]:
        """Row v from its column entries: padding dropped, overflow added."""
        n = self.n
        if row and row[-1] == n:
            return row[: row.index(n)]
        extra = self.over.get(v)
        return row + tuple(extra) if extra else row

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _Rows)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class _BlockLabels(Sequence):
    """A label table without most of its strings: entry k·n + i, for block k
    of n = ``len(suffixes)`` labels, is ``prefixes[k] + suffixes[i]``, made
    when it is read, and the labels of ``tail`` follow the blocks as they
    are.  H_d's table is the copies' prefixes over the base's labels, with
    no tail; H's is the BTP heads over the BTP template's suffixes, with the
    rest of H as the tail.  Read-only; slices are tuples, and it equals a
    tuple of the same labels.  It has no hash: one equal to that tuple's
    would need every label made."""

    __slots__ = ("prefixes", "suffixes", "tail", "_blocks")

    def __init__(self, prefixes: tuple[str, ...], suffixes: Sequence[str], tail: Sequence[str] = ()):
        self.prefixes = prefixes
        self.suffixes = suffixes
        self.tail = tail
        self._blocks = len(prefixes) * len(suffixes)

    def __len__(self) -> int:
        return self._blocks + len(self.tail)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        blocks = self._blocks
        if i < 0:
            i += blocks + len(self.tail)
            if i < 0:
                raise IndexError("label index out of range")
        if i >= blocks:
            return self.tail[i - blocks]  # IndexError one past the end
        k, i = divmod(i, len(self.suffixes))
        return self.prefixes[k] + self.suffixes[i]

    def __iter__(self) -> Iterator[str]:
        suffixes = self.suffixes
        if isinstance(suffixes, _BlockLabels):
            # a view's labels made once, not once per block
            suffixes = tuple(suffixes)
        blocks = chain.from_iterable(map(prefix.__add__, suffixes) for prefix in self.prefixes)
        return chain(blocks, self.tail)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _BlockLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


def _gather(vertices: list[int]) -> itemgetter:
    """A C-level getter of ``vertices``' entries of a column, as a sequence
    in the order of ``vertices`` (not empty): ``itemgetter`` returns a bare
    entry for one index, so one vertex gets a one-entry slice."""
    if len(vertices) == 1:
        v = vertices[0]
        return itemgetter(slice(v, v + 1))
    return itemgetter(*vertices)


def _advance(
    cols: Sequence[array], over: dict[int, array], frontier: list[int], time: list[int], t: int
) -> list[int]:
    """One frontier step, shared by BFS and the burning kernel: each
    neighbour ``w`` of ``frontier`` (not empty) with ``time[w] > t`` (the
    sentinel's entry never is) takes ``t``; returns them in the order
    reached.  Columns are gathered at C level, then the overflow rows."""
    groups = map(_gather(frontier), cols)
    if over:
        groups = chain(groups, filter(None, map(over.get, frontier)))
    new = []
    for ws in groups:
        for w in ws:
            if time[w] > t:
                time[w] = t
                new.append(w)
    return new


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


def _from_core(
    labels: Sequence[str], cols: Sequence[array], over: dict[int, array], edge_count: int
) -> Graph:
    """A graph from a strictly increasing label table and valid sorted
    columns and overflow map, trusted as given: no sort, no duplicate scan.
    W must be the largest degree capped at :func:`_width`, as the
    constructor makes it."""
    g = object.__new__(_Graph)
    g.labels = labels
    g.cols = tuple(cols)
    g.over = over
    g._edge_count = edge_count
    return g


# Entries per chunk of :func:`_shift_into`: 64 KB of int32, so a call holds
# a few hundred KB at most, whatever the length it writes.
_SHIFT_CHUNK = 1 << 14


def _shift_into(dst: array, at: int, src: array | memoryview, s: int):
    """Write ``src[i] + s`` into ``dst[at + i]`` for every i, at C level.

    ``dst`` and ``src`` hold ``array('i')`` entries.  Each chunk of
    ``_SHIFT_CHUNK`` entries of ``src`` is read as one int in native byte
    order; adding the int with s in every lane of ``dst.itemsize`` bytes (s
    times the int whose every lane is 1) adds s to every entry at once, and
    the sum's bytes go straight into ``dst``.  That holds only while no lane
    carries into the next: every entry and every sum must be non-negative
    and below 2**31.  Callers shift vertex indices, which the caps keep
    below 5M (H_d) and 2M (H).  The lane int is made per call: one kept
    between calls would pin the allocator's heap, 0.5 MB more peak RSS on
    reduce-pipeline."""
    size = dst.itemsize
    step = _SHIFT_CHUNK * size
    raw = memoryview(src).cast("B")
    out = memoryview(dst).cast("B")[at * size :]
    width = min(len(raw), step)  # bytes of the first, and widest, chunk
    lanes = int.from_bytes(array(dst.typecode, [s]) * (width // size), sys.byteorder)
    for lo in range(0, len(raw), step):
        chunk = raw[lo : lo + step]
        if len(chunk) < width:  # the last chunk, with fewer lanes
            lanes >>= 8 * (width - len(chunk))
        total = int.from_bytes(chunk, sys.byteorder) + lanes
        out[lo : lo + len(chunk)] = total.to_bytes(len(chunk), sys.byteorder)


def _width(n: int, edge_count: int) -> int:
    """The most columns a graph of n vertices and ``edge_count`` edges may
    have: W·n column slots stay within twice the 2m edge ends.  A graph has
    as many columns as its largest degree, up to this."""
    return 4 * edge_count // n if n else 0


def _label_order(ints: list[int], labels: Sequence) -> tuple[list[int], list[int]]:
    """The ints ``0..n-1`` of an unsorted label table in label order, and the
    rank of each in that order, held as an object of ``ints``: the
    constructor passes its ids, so the permutation makes no int."""
    order = sorted(ints, key=labels.__getitem__)
    rank = [0] * len(ints)
    for i, j in zip(ints, order):
        rank[j] = i
    return order, rank


class _Ends:
    """Edges as dense ids, from a parse, a list of pairs or a builder's flat
    ends to the constructor: ``ids`` maps each label to its id, numbered
    from 0 in first-seen order, and ``ends`` is a list of tuples of ids,
    each holding whole edges as two consecutive ends, in order."""

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


def _edge_ends(ends: Sequence[str], vertices: Iterable[str] = ()) -> _Ends:
    """The ids of ``vertices`` and of ``ends``, edges' labels two by two in
    one flat sequence: a builder's own edges, which make no tuple per edge.
    ``Graph`` of it reports a self-loop or a repeated edge without naming
    it, as it does for ``read_graph``'s parse."""
    ids: defaultdict = defaultdict(count().__next__)
    deque(map(ids.__getitem__, vertices), 0)
    return _Ends(ids, [_number(ids, ends)])


def _pair_ends(edges: Sequence[tuple[str, str]], vertices: Iterable[str]) -> _Ends:
    """The ids of ``vertices`` and of the ends of each pair of ``edges``."""
    source = _edge_ends(tuple(chain.from_iterable(edges)), vertices)
    # a pair of other than two labels would shift every later end by one:
    # unpacking each pair raises as ``for u, v in edges`` does
    try:
        pairs = {*map(len, edges)} <= {2}
    except TypeError:  # a pair without a length
        pairs = False
    if not pairs:
        for u, v in edges:
            pass
    return source


def _index(source: _Ends) -> tuple[tuple, tuple[array, ...] | None, dict[int, array], int]:
    """The sorted label table, the columns (None when some edge is a
    self-loop or repeats another), the overflow map and the edge count of
    ``source``, which is emptied as it is read."""
    first = list(source.ids)  # the label of each id
    ids = list(source.ids.values())  # ids[j] is j
    source.ids.clear()
    order, rank = _label_order(ids, first)
    labels = tuple(map(first.__getitem__, order))
    del first, ids, order
    n = len(labels)
    chunks = source.ends
    edge_count = sum(map(len, chunks)) // 2
    width = _width(n, edge_count)
    cols: list[array] = []
    over: dict[int, list[int]] = {}
    deg = [0] * n
    for at, chunk in enumerate(chunks):
        chunks[at] = None  # the ends of a chunk are freed once it is read
        ends = map(rank.__getitem__, chunk)
        # each end goes to the next free slot of its row; the step is
        # written out for both ends, so the loop runs once per edge
        for a, b in zip(ends, ends):
            k = deg[a]
            try:
                cols[k][a] = b
            except IndexError:  # past the columns made so far
                _spill(cols, over, width, n, a, b)
            deg[a] = k + 1
            k = deg[b]
            try:
                cols[k][b] = a
            except IndexError:
                _spill(cols, over, width, n, b, a)
            deg[b] = k + 1
    del rank
    if not _sort_rows(cols, over, deg):
        return labels, None, {}, edge_count
    return labels, tuple(cols), {v: array("i", row) for v, row in over.items()}, edge_count


def _spill(cols: list[array], over: dict[int, list[int]], width: int, n: int, v: int, w: int):
    """Put ``w`` in the first slot of v's row past the columns made so far:
    a new column, padded with the sentinel n, while there are fewer than
    ``width``, else v's overflow row."""
    if len(cols) < width:
        cols.append(array("i", [n]) * n)
        cols[-1][v] = w
    else:
        over.setdefault(v, []).append(w)


def _sort_rows(cols: list[array], over: dict[int, list[int]], deg: list[int]) -> bool:
    """Sort, in place, each row that the fill left out of order; False when
    some row repeats an entry (a self-loop or a repeated edge), which no
    strictly increasing row does.  A row is out of order where a column's
    entry is not below the next column's (found at C level; padding, which
    trails, shows there too and sorts back in place) or where it runs on in
    the overflow map."""
    width = len(cols)
    unsorted = set(over)
    for col, nxt in zip(cols, cols[1:]):
        unsorted.update(compress(range(len(deg)), map(ge, col, nxt)))
    for v in unsorted:
        d = deg[v]
        row = [col[v] for col in cols]
        extra = over.get(v)
        if extra:
            row += extra
        row.sort()
        if len(set(row[:d])) < d:
            return False
        for col, w in zip(cols, row):
            col[v] = w
        if extra:
            extra[:] = row[width:]
    return True


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


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return -1 not in g.bfs(0)


def degree_histogram(g: Graph) -> dict[int, int]:
    """Vertices per degree, counted on the columns: column j's entries that
    are not padding are the vertices of degree above j, and an overflow row
    adds its length to W."""
    n, width = g.vertex_count, len(g.cols)
    above = [n] + [n - col.count(n) for col in g.cols]  # above[j]: degree >= j
    hist = Counter({j: above[j] - above[j + 1] for j in range(width)})
    hist[width] += above[width] - len(g.over)
    hist.update(width + len(row) for row in g.over.values())
    return {d: hist[d] for d in sorted(hist) if hist[d]}


def is_regular(g: Graph, d: int) -> bool:
    """Every degree is d: W is d and every row fills the columns exactly."""
    return g.vertex_count == 0 or (len(g.cols) == d and g._full())


def _linked(g: Graph) -> bytes:
    """1 for each vertex with an edge, 0 for an isolated one: whether its
    first column entry is a neighbour, not padding (with no column, whether
    it has an overflow row)."""
    n = g.vertex_count
    if g.cols:
        return bytes(map(ne, g.cols[0], repeat(n)))
    return bytes(map(g.over.__contains__, range(n)))


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
    labels = tuple(g.labels)  # a view's labels made once, not per edge end
    linked = _linked(g)
    # only labels with an edge: a bad isolated label is reported below as an
    # isolated vertex
    if not _labels_ok(list(compress(labels, linked))):
        # name the label that the canonical edge order reaches first
        bad = next(v for edge in g.edges() for v in edge if not _label_ok(v))
        raise GraphFormatError(f"label not representable in edge-list format: {bad!r}")
    if 0 in linked:
        v = labels[linked.index(0)]
        raise GraphFormatError(f"isolated vertex {v!r} cannot be represented in edge-list format")
    # the canonical order of edges(), without a tuple per edge
    lines = (f"{labels[a]} {labels[b]}\n" for a, nbrs in enumerate(g.adj) for b in nbrs if b > a)
    return "".join(iter(lambda: "".join(islice(lines, _WRITE_BLOCK)), ""))
