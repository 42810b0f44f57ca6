"""Vertex-cover-to-burning reduction pipeline.

Stages: a connected cubic graph G is double-subdivided into G' (one edge
replaced by a path p-x-y-q), then every edge of G' becomes a BTP-gadget and a
Y-gadget plus C-gadget annexe hangs off x and y, yielding a connected cubic
graph H whose burning number equals beta(G') + cn' + 3.

Label scheme of H (frozen).  Provenance is decoded from it, never stored: a
label's owner is the G' vertex whose domain holds it.

  g:<u>                            core vertex u of G'      u
  btp:<u>:<v>:bt:ab:<level>:<i>    BTP of G' edge (u, v),   u
  btp:<u>:<v>:bt:ba:<level>:<i>    u < v: two trees and     v
  btp:<u>:<v>:t:<i>:ap:<pos>       2^h T-gadgets            u
  btp:<u>:<v>:t:<i>:aq:<pos>                                v
  btp:<u>:<v>:t:<i>:<l|r>:<pos>                             u if pos > l1, else v
  y:px:*, y:py:* / y:pz:*, y:z     Y-gadget                 x, y / none
  c:*                              C-gadget                 none

The BTP half rule is ``gadgets._btp_half``.  G labels may contain ``:``; two G'
edges with one BTP head would repeat every BTP edge, so build_H rejects them
with the ``GraphFormatError`` that ``Graph`` would raise for H's edge list.

Layout of H (build_H).  The BTPs are about 97% of H and differ only in their
head ``btp:<u>:<v>:``, so one template, the BTP with the empty head, is
built through ``Graph`` and gives the sorted label suffixes, a local
adjacency and the landmarks by suffix.  Every label that starts with
``btp:`` sorts before every other, so H's label table is one block per G'
edge, in head order (``btp:v10:`` before ``btp:v1:``, unlike G' edge
order), then the tail: the C- and Y-gadgets and the cores, built through
``Graph`` as one block.  A block's labels are its head joined to each
suffix, and its part of H's three adjacency columns is the template's
shifted to the block's start, its two roots taking their core as third
neighbour.  H holds no BTP label string: its label table is a
``graph._BlockLabels`` view over the sorted heads, the suffixes and the
tail's labels, which makes a block's label when it is read, and a BTP's
landmarks are a view over its head and the template's landmarks, made on
read too.  Where one sorted head extends the next (``btp:a:b:`` and
``btp:a:b:c:``) the blocks interleave: that is decided from the heads
alone, and then the label table is made as a tuple and one sort of it
permutes H into order.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .burning import BurningSequence, InvalidSequenceError, _outcome, _schedule, is_burning_sequence
from .gadgets import Landmark, _btp_half, _btp_parts, _btp_size, _c_middles, _c_parts, _c_size
from .gadgets import _y_parts, _y_size, check_btp_inequalities
from .graph import (
    Graph,
    GraphFormatError,
    _BlockLabels,
    _edge_ends,
    _from_core,
    _label_order,
    _shift_into,
    is_connected,
    is_regular,
)

# build_H refuses a larger H before building it: the cap admits the
# 998,210-vertex H of random_cubic(14, 1) and refuses a 50-vertex cubic G's
# 58,166,512.
_MAX_H_VERTICES = 2_000_000


class ReductionError(Exception):
    pass


class EdgeNotFoundError(ReductionError):
    pass


class NotCubicError(ReductionError):
    pass


class NotConnectedError(ReductionError):
    pass


class ReductionTooLargeError(ReductionError):
    """H would have more vertices than the reduction's cap allows."""


class NotACoverError(ReductionError):
    def __init__(self, uncovered: list[tuple[str, str]]):
        self.uncovered = tuple(uncovered)
        super().__init__(f"{len(uncovered)} edges uncovered, e.g. {uncovered[0]}")


class MissingXYError(ReductionError):
    """The supplied cover contains neither subdivision vertex."""


class SequenceTooShortError(ReductionError):
    pass


class NotABurningSequenceError(ReductionError):
    pass


class OwnersNotACoverError(ReductionError):
    """A valid threshold-length sequence whose Owners set misses edges.

    This would contradict the backward direction of the reduction; it is
    surfaced loudly and never silently repaired.
    """

    def __init__(self, owners: frozenset[str], unrepresented: list[tuple[str, str]]):
        self.owners = owners
        self.unrepresented = tuple(unrepresented)
        super().__init__(
            f"owners set of a valid sequence misses {len(unrepresented)} edges: "
            f"{list(unrepresented)[:5]}"
        )


@dataclass(frozen=True)
class ReductionParams:
    """Gadget parameters derived from n' = |V(G')|.

    cn is the unique power of two in [4n', 8n'); all other fields follow the
    fixed formulas and satisfy both BTP inequalities.
    """

    n_prime: int
    cn: int
    c: Fraction
    h: int
    l1: int
    l2: int
    d1: int
    d2: int
    m: int

    def as_dict(self) -> dict[str, int | str]:
        return {
            "n_prime": self.n_prime,
            "cn": self.cn,
            "c": str(self.c),
            "h": self.h,
            "l1": self.l1,
            "l2": self.l2,
            "d1": self.d1,
            "d2": self.d2,
            "m": self.m,
        }


def choose_params(n_prime: int) -> ReductionParams:
    """Pick cn' (power of two, 4 <= c < 8) and derive all gadget parameters."""
    if n_prime < 6 or n_prime % 2:
        raise ReductionError(f"n' must be even and >= 6, got {n_prime}")
    cn = 1 << (4 * n_prime - 1).bit_length()  # smallest power of two >= 4n'
    if cn < 4 * n_prime or cn >= 8 * n_prime:
        raise ReductionError(f"internal: no power of two in [4n', 8n') for n'={n_prime}")
    h = cn.bit_length() - 1 + 2
    l1 = (cn - 2 * h) // 2
    l2 = cn // 2 + 2
    params = ReductionParams(
        n_prime=n_prime,
        cn=cn,
        c=Fraction(cn, n_prime),
        h=h,
        l1=l1,
        l2=l2,
        d1=n_prime // 4 + cn // 2,
        d2=-(-n_prime // 4) + cn // 2 + 1,
        m=cn + 3,
    )
    if (cn - 2 * h) % 2:
        raise ReductionError("internal: l1 is not an integer")
    violated = check_btp_inequalities(h, l1, l2)
    if violated:
        raise ReductionError("internal: " + "; ".join(violated))
    return params


def double_subdivide(
    g: Graph, edge: tuple[str, str] | None = None
) -> tuple[Graph, str, str]:
    """Replace one edge (p, q) by a path p-x-y-q; returns (G', x, y).

    Defaults to the lexicographically smallest edge.  The new labels are 'x'
    and 'y', suffixed with underscores if those labels are taken.
    """
    all_edges = list(g.edges())
    if not all_edges:
        raise EdgeNotFoundError("graph has no edges")
    if edge is None:
        p, q = all_edges[0]
    else:
        p, q = edge
        if not g.has_edge(p, q):
            raise EdgeNotFoundError(f"edge {edge!r} not in graph")
    x, y = "x", "y"
    while x in g or y in g:
        x += "_"
        y += "_"
    kept = [e for e in all_edges if set(e) != {p, q}]
    kept += [(p, x), (x, y), (y, q)]
    return Graph(kept), x, y


def _core_label(v: str) -> str:
    """H's label of the core vertex of G' vertex ``v``."""
    return f"g:{v}"


@dataclass
class ReductionInstance:
    """H plus G, G', parameters and landmarks; :meth:`owner_of` decodes
    provenance from H's labels, and ``domains``/``outside_domains`` group by it."""

    g: Graph
    g_prime: Graph
    h_graph: Graph
    params: ReductionParams
    subdivided_edge: tuple[str, str]
    x: str
    y: str
    btp_landmarks: dict[tuple[str, str], Mapping[str, Landmark]]
    y_landmarks: dict[str, Landmark]
    c_landmarks: dict[str, Landmark]

    def core_label(self, v: str) -> str:
        return _core_label(v)

    @cached_property
    def _btp_edges(self) -> dict[str, tuple[str, str]]:
        return {f"btp:{u}:{v}": (u, v) for u, v in self.btp_landmarks}

    def owner_of(self, h_vertex: str) -> str | None:
        """The G' vertex whose domain contains ``h_vertex``, decoded from its
        label (see the label scheme above); None outside every domain or H."""
        return self._decode_owner(h_vertex) if h_vertex in self.h_graph else None

    def _decode_owner(self, h_vertex: str) -> str | None:
        """:meth:`owner_of` for a label known to be H's."""
        if h_vertex.startswith("g:"):
            return h_vertex[2:]
        if h_vertex.startswith("btp:"):
            head, first = _btp_half(h_vertex, self.params.l1)
            u, v = self._btp_edges[head]
            return u if first else v
        return {"y:px:": self.x, "y:py:": self.y}.get(h_vertex[:5])

    @property
    def domains(self) -> dict[str, frozenset[str]]:
        """The vertices of H owned by each G' vertex, keyed in G' order."""
        groups: dict[str, list[str]] = {u: [] for u in self.g_prime.vertices}
        for v in self.h_graph.labels:
            if (owner := self._decode_owner(v)) is not None:
                groups[owner].append(v)
        return {u: frozenset(group) for u, group in groups.items()}

    @property
    def outside_domains(self) -> frozenset[str]:
        return frozenset(v for v in self.h_graph.labels if self._decode_owner(v) is None)


class _HeadMarks(Mapping):
    """A BTP's landmarks under its head: the template's landmark ``name`` is
    a suffix or a tuple of them, and entry ``name`` is ``head`` joined to
    each, made when it is read.  Read-only, in the template's key order; it
    equals, and has the ``repr`` of, the dict of the same landmarks, and
    has no hash, as that dict has none."""

    __slots__ = ("head", "marks")

    def __init__(self, head: str, marks: dict[str, Landmark]):
        self.head = head
        self.marks = marks

    def __getitem__(self, name: str) -> Landmark:
        mark = self.marks[name]
        if isinstance(mark, str):
            return self.head + mark
        return tuple(map(self.head.__add__, mark))

    def __iter__(self) -> Iterator[str]:
        return iter(self.marks)

    def __len__(self) -> int:
        return len(self.marks)

    def __repr__(self) -> str:
        return repr(dict(self))


def _btp_template(h: int, l1: int, l2: int):
    """The BTP with the empty head, as :func:`build_H` lays it out.

    Returns its sorted label suffixes; its three adjacency columns, where
    each root's third entry (its core neighbour in H) is the template's
    padding index, its vertex count; the positions of its two roots; its
    landmarks, by suffix; its edge count; and its first edge.
    """
    ends, marks = _btp_parts(h, l1, l2, "")
    template = Graph(_edge_ends(ends))
    roots = (template._at(marks["r_ab"]), template._at(marks["r_ba"]))
    return template.labels, template.cols, roots, marks, template.edge_count, ends[:2]


def build_H(g: Graph, edge: tuple[str, str] | None = None) -> ReductionInstance:
    """Full reduction: connected cubic G -> instance holding H and provenance.

    H is laid out on integers, one block per G' edge, as the module
    docstring describes, straight into its three adjacency columns; no
    edge list of H is built.  Its label table is a view over the sorted
    BTP heads, the template's suffixes and the tail's labels, and each G'
    edge's BTP landmarks are a view over its head and the template's
    landmarks: H holds no BTP label string.  Where one head extends
    another the label table is made and H permuted.  When the closed form
    :func:`expected_vertex_count` gives H more than ``_MAX_H_VERTICES``
    vertices, :class:`ReductionTooLargeError` is raised before any gadget
    is built.
    """
    if not is_connected(g):
        raise NotConnectedError("input graph must be connected")
    if g.vertex_count < 4 or not is_regular(g, 3):
        raise NotCubicError("input graph must be cubic on at least 4 vertices")
    g_prime, x, y = double_subdivide(g, edge)
    sub_edge = next(e for e in g.edges() if not g_prime.has_edge(*e))
    params = choose_params(g_prime.vertex_count)
    h_vertices = expected_vertex_count(params, g_prime.edge_count)
    if h_vertices > _MAX_H_VERTICES:
        raise ReductionTooLargeError(
            f"H has {h_vertices} vertices, over the reduction's cap of {_MAX_H_VERTICES}"
        )

    core = {v: _core_label(v) for v in g_prime.vertices}
    y_ends, y_marks = _y_parts(params.d1, params.d2, "y:")
    c_ends, c_marks = _c_parts(params.m, "c:")
    tail_ends = y_ends + c_ends
    tail_ends += (core[x], y_marks["x_a"], core[y], y_marks["y_a"], y_marks["z_b"], c_marks["v_m2"])
    tail = Graph(_edge_ends(tail_ends, core.values()))
    suffixes, columns, roots, marks, btp_edges, (a, b) = _btp_template(
        params.h, params.l1, params.l2
    )
    heads: dict[str, tuple[str, str]] = {}
    for u, v in g_prime.edges():
        head = f"btp:{u}:{v}:"
        if head in heads:  # H's edge list would repeat this edge first
            raise GraphFormatError(f"duplicate edge {head + a!r} {head + b!r}")
        heads[head] = (u, v)

    prefixes = tuple(sorted(heads))
    size = len(suffixes)
    n_btp = len(heads) * size
    n = n_btp + tail.vertex_count
    cols = [array("i", [n]) * n for _ in columns]  # sized once: a grown array keeps spare slots
    core_roots: dict[int, list[int]] = {tail._at(label): [] for label in core.values()}
    for start, head in zip(range(0, n_btp, size), prefixes):
        # the template's padding, index size, lands on start + size
        for col, column in zip(cols, columns):
            _shift_into(col, start, column, start)
        for r, owner in zip(roots, heads[head]):
            at = tail._at(core[owner])
            cols[2][start + r] = n_btp + at  # the core sorts after every BTP vertex
            core_roots[at].append(start + r)
    # the tail's rows: a core's BTP roots, then its tail neighbours shifted
    # into H; H is cubic, so each row fills the three columns
    for at, nbrs in enumerate(tail.adj):
        row = core_roots.get(at, []) + [n_btp + w for w in nbrs]
        for col, w in zip(cols, row):
            col[n_btp + at] = w

    labels: Sequence[str] = _BlockLabels(prefixes, suffixes, tail.labels)
    # The blocks are in label order unless one head extends another
    # (btp:a:b: and btp:a:b:c:): then they interleave, and H is permuted.
    if any(map(str.startswith, prefixes[1:], prefixes)):
        table = list(labels)
        order, rank = _label_order(list(range(n)), table)
        rows = [sorted(map(rank.__getitem__, row)) for row in zip(*cols)]
        cols = [array("i", col) for col in zip(*map(rows.__getitem__, order))]
        del rows
        labels = tuple(map(table.__getitem__, order))
        del table
    h_graph = _from_core(labels, cols, {}, len(heads) * (btp_edges + 2) + tail.edge_count)

    return ReductionInstance(
        g=g,
        g_prime=g_prime,
        h_graph=h_graph,
        params=params,
        subdivided_edge=sub_edge,
        x=x,
        y=y,
        btp_landmarks={edge: _HeadMarks(head, marks) for head, edge in heads.items()},
        y_landmarks=y_marks,
        c_landmarks=c_marks,
    )


def expected_vertex_count(params: ReductionParams, n_edges_gprime: int) -> int:
    """Closed-form |V(H)|: cores + BTPs + Y + C."""
    btp = _btp_size(params.h, params.l1, params.l2)
    return params.n_prime + n_edges_gprime * btp + _y_size(params.d1, params.d2) + _c_size(params.m)


def witness_sources(
    cover: Iterable[str], x: str, y: str, m: int, gprime_edges: Iterable[tuple[str, str]]
) -> list[str]:
    """Source labels of the constructive witness: x (or y) first, then the
    rest of the cover lexicographically, then the C-gadget middles.

    The witness's |cover| + m sources are distinct vertices of H, so when
    that exceeds ``_MAX_H_VERTICES`` no H the reduction builds has them:
    :class:`ReductionTooLargeError` is raised before any label is made.
    """
    q = set(cover)
    if len(q) + m > _MAX_H_VERTICES:
        raise ReductionTooLargeError(
            f"witness has {len(q) + m} sources, over the reduction's cap of {_MAX_H_VERTICES}"
        )
    if x in q:
        first = x
    elif y in q:
        first = y
    else:
        raise MissingXYError(
            "cover contains neither subdivision vertex; convert a cover of G first"
        )
    uncovered = [(u, v) for u, v in gprime_edges if u not in q and v not in q]
    if uncovered:
        raise NotACoverError(uncovered)
    sources = [_core_label(first)]
    sources += [_core_label(v) for v in sorted(q - {first})]
    sources += _c_middles(m, "c:")
    return sources


def vc_to_witness(inst: ReductionInstance, cover: Iterable[str]) -> BurningSequence:
    """Burning sequence of length |cover| + cn' + 3 for H from a cover of G'."""
    q = set(cover)
    unknown = q - set(inst.g_prime.vertices)
    if unknown:
        raise ReductionError(f"cover contains non-G' vertices: {sorted(unknown)[:5]}")
    sources = witness_sources(q, inst.x, inst.y, inst.params.m, inst.g_prime.edges())
    return BurningSequence.of(sources)


@dataclass(frozen=True)
class AuditReport:
    """Block partition, owners, edge representation, and BL/UB summary."""

    k: int
    s: int
    start_range: tuple[int, int]
    middle_range: tuple[int, int]
    end_range: tuple[int, int]
    owners: frozenset[str]
    represented: tuple[tuple[str, str], ...]
    unrepresented: tuple[tuple[str, str], ...]
    block_locations: dict[str, tuple[tuple[str, str], ...]]
    valid: bool
    complete: bool
    last_step: frozenset[str]
    uniquely_burned: frozenset[str]

    @property
    def bl_ub(self) -> frozenset[str]:
        return self.last_step & self.uniquely_burned


def _start_owners(
    inst: ReductionInstance, start: Sequence[str]
) -> tuple[frozenset[str], list[tuple[str, str]], list[tuple[str, str]]]:
    """Owners of the start block's sources, and the edges of G' in edge order
    split into those with an owner endpoint and those without."""
    owners = frozenset(owner for lbl in start if (owner := inst.owner_of(lbl)) is not None)
    represented, unrepresented = [], []
    for u, v in inst.g_prime.edges():
        if u in owners or v in owners:
            represented.append((u, v))
        else:
            unrepresented.append((u, v))
    return owners, represented, unrepresented


def audit_sequence(inst: ReductionInstance, sequence: BurningSequence | Sequence[str]) -> AuditReport:
    """Partition a sequence into blocks, chart domain membership, and simulate."""
    sources = list(sequence)
    k = len(sources)
    cn = inst.params.cn
    h = inst.params.h
    s = k - (cn + 3)
    if s < 0:
        raise SequenceTooShortError(f"need at least cn' + 3 = {cn + 3} sources, got {k}")

    blocks = {
        "start": sources[:s],
        "middle": sources[s : s + h + 1],
        "end": sources[s + h + 1 :],
    }
    block_locations = {
        name: tuple(
            (lbl, "inside" if inst.owner_of(lbl) is not None else "outside")
            for lbl in members
        )
        for name, members in blocks.items()
    }
    owners, represented, unrepresented = _start_owners(inst, blocks["start"])

    valid = True
    complete = False
    bl: frozenset[str] = frozenset()
    ub: frozenset[str] = frozenset()
    try:
        _, time, resp = _schedule(inst.h_graph, sources)
    except InvalidSequenceError:
        valid = False
    else:
        unburned, last, unique = _outcome(k, time, resp)
        complete = not unburned
        if complete:
            labels = tuple(inst.h_graph.labels)  # a view's labels made once, not per vertex
            bl = frozenset(map(labels.__getitem__, last))
            ub = frozenset(map(labels.__getitem__, unique))

    return AuditReport(
        k=k,
        s=s,
        start_range=(1, s),
        middle_range=(s + 1, s + h + 1),
        end_range=(s + h + 2, k),
        owners=owners,
        represented=tuple(represented),
        unrepresented=tuple(unrepresented),
        block_locations=block_locations,
        valid=valid,
        complete=complete,
        last_step=bl,
        uniquely_burned=ub,
    )


def witness_to_vc(inst: ReductionInstance, sequence: BurningSequence | Sequence[str]) -> frozenset[str]:
    """Extract the Owners set of a valid sequence; it must cover E(G')."""
    sources = list(sequence)
    if not is_burning_sequence(inst.h_graph, sources):
        raise NotABurningSequenceError("sequence does not burn H")
    s = len(sources) - (inst.params.cn + 3)
    if s < 0:
        raise SequenceTooShortError("valid burning sequences of H are never this short")
    owners, _, unrepresented = _start_owners(inst, sources[:s])
    if unrepresented:
        raise OwnersNotACoverError(owners, unrepresented)
    return owners
