"""Regularity lifting: d-regular graphs from cubic bases, with sequence
projection (copy collapsing) and the one-extra-step lift.

H_d consists of d - 2 copies of the base graph with each vertex's copy set
joined into a clique; labels are ``copy<j>:<v>``.  One layout of the copies'
blocks in the sorted label table builds H_d.  H_d holds no label string: its
table is a view whose entry is a block's ``copy<j>:`` prefix joined to a base
label, made when it is read, so a lifted graph is the base's labels, one
prefix per copy and the adjacency's d int columns, each laid out block by
block from the base's columns and the copies' index ranges.  Projection
onto H_d' keeps vertices of the first d' - 2 copies and folds the rest onto
copy 1; for d' = 3 the result lives on the base graph itself.  Projection builds no H_d': H_d'
is the subgraph of H_d induced on the kept copies' blocks, so it is burned
inside H_d, with every other vertex marked burned before the first step.

Projection is one :func:`~burnkit.burning._repair_sequence` call: the
repair keeps every intended source it can still place and fills a missing
or unplaceable step with the smallest vertex left unburned, so dropping a
trailing duplicate is a case of it.  The lift runs the burning process
once, on the base, for its input check: those burn steps say when each
vertex of H_d burns, so the lift's one extra source is read off them and
H_d is not burned.

A :class:`LiftedGraph` remembers the last sequence known to burn its graph:
the lift's result, or an input that ``project_sequence`` validated.
Projecting that same sequence again skips the input check, whose answer is
already known, as graphs are immutable; any other input is checked.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

from .burning import BurningSequence, _burn_times, _repair_sequence, is_burning_sequence
from .graph import _SHIFT_CHUNK, Graph, _BlockLabels, _from_core, _int_text, _shift_into
from .graph import is_connected, is_regular

_MAX_HD_EDGES = 10_000_000


class LiftError(Exception):
    pass


class NotCubicBaseError(LiftError):
    pass


class LiftTooLargeError(LiftError):
    """H_d would have more edges than the lift's cap allows."""


class BadDegreeError(LiftError):
    pass


class InputNotValidError(LiftError):
    """The supplied sequence does not validate on its graph."""


@dataclass(frozen=True)
class LiftedGraph:
    """H_d of ``base``.  Equal when d is and base and graph are the same objects
    (``Graph`` compares by identity), so equal lifted graphs hash alike."""

    base: Graph
    d: int
    graph: Graph
    # The last sequence known to burn ``graph``; not part of the value.
    _burns: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)


def _remember(lifted: LiftedGraph, sources: tuple[str, ...]):
    object.__setattr__(lifted, "_burns", sources)


def _copy_label(j: int, v: str) -> str:
    return f"copy{j}:{v}"


def _block_order(copies: int) -> list[int]:
    """Copies 1..copies in the order of their blocks in the sorted label table."""
    return sorted(range(1, copies + 1), key=lambda j: _copy_label(j, ""))


def _kept_blocks(lifted: LiftedGraph, d_prime: int) -> list[tuple[int, int]]:
    """Index ranges of the blocks of copies 1..d' - 2 in H_d's label table, in
    table order, which is their order in the table of H_d' too."""
    n = lifted.base.vertex_count
    order = _block_order(lifted.d - 2)
    return [(k * n, k * n + n) for k, j in enumerate(order) if j <= d_prime - 2]


def _from_blocks(base: Graph, copies: int) -> Graph:
    """``copies`` clique-joined copies of a cubic base, on the label table
    whose blocks of ``base.vertex_count`` labels are copies 1..copies in
    ``_block_order``, each in base order."""
    n = base.vertex_count
    if not n:
        # no label to prefix and no column: nothing to lay out, at any d
        return _from_core(_BlockLabels((), ()), [], {}, 0)
    labels = _BlockLabels(tuple(_copy_label(j, "") for j in _block_order(copies)), base.labels)
    # Vertex i of block k: its clique twins in earlier blocks, its base
    # neighbours shifted into block k, its twins in later blocks; that is
    # sorted.  The base is cubic, so it has three columns, and H_d has
    # copies + 2 = d: block k's part of column c is twin block c for c < k,
    # base column c - k shifted by k·n for c < k + 3, else twin block c - 2.
    # Each part is written in place by ``_shift_into``, one big-int add per
    # chunk of 32-bit lanes; twin block j is an identity chunk shifted by j·n
    # plus the chunk's start.  No lane carries: every entry is an index
    # below (d - 2)·n <= 5M under the edge cap.  No entry becomes a Python
    # int and a few chunks are in flight at most: on the K4 H this layout
    # takes about 25 ms at d = 5, where a shift of one int per entry took
    # 85-95 ms and held each block's three shifted columns at once.
    steps = memoryview(array("i", range(min(n, _SHIFT_CHUNK))))
    # sized once: a grown array keeps spare slots
    cols = [array("i", [0]) * (copies * n) for _ in range(copies + 2)]
    for k in range(copies):
        for c, col in enumerate(cols):
            if k <= c < k + 3:
                _shift_into(col, k * n, base.cols[c - k], k * n)
            else:
                j = c if c < k else c - 2
                for lo in range(0, n, _SHIFT_CHUNK):
                    _shift_into(col, k * n + lo, steps[: n - lo], j * n + lo)
    edge_count = copies * base.edge_count + n * copies * (copies - 1) // 2
    return _from_core(labels, cols, {}, edge_count)


def build_Hd(base: Graph, d: int) -> LiftedGraph:
    """d - 2 clique-joined copies of a connected cubic base; d-regular.

    Every label of copy ``j`` starts with ``copy<j>:``, and no such prefix is
    a prefix of another, so each copy is one contiguous block of the sorted
    label table, in base order within; ``copy10:`` comes before ``copy1:``.
    ``graph.labels`` is a view over those prefixes and ``base.labels`` that
    makes each label when it is read; H_d holds no label string.  H_d has
    (d - 2)·|V| vertices of degree d; past ``_MAX_HD_EDGES`` edges,
    :class:`LiftTooLargeError` is raised before anything is built.
    """
    if d < 4:
        raise BadDegreeError(f"lift needs d >= 4 (H_3 is the base itself), got {d}")
    edges = (d - 2) * base.vertex_count * d // 2
    if edges > _MAX_HD_EDGES:
        raise LiftTooLargeError(
            f"H_{_int_text(d)} has {_int_text(edges)} edges, over the lift's cap of {_MAX_HD_EDGES}"
        )
    if not is_connected(base):
        raise NotCubicBaseError("base graph must be connected")
    if not is_regular(base, 3):
        raise NotCubicBaseError("base graph must be cubic")
    return LiftedGraph(base=base, d=d, graph=_from_blocks(base, d - 2))


def split_label(label: str) -> tuple[int, str]:
    """(j, v) of ``copy<j>:<v>``, the label of copy j >= 1 of base vertex v:
    a label that ``_copy_label(j, v)`` does not give back exactly is not one."""
    prefix, _, v = label.partition(":")
    try:
        j = int(prefix[4:])
    except ValueError:
        j = 0
    if j < 1 or not v or _copy_label(j, v) != label:
        raise LiftError(f"not a lifted-graph label: {label!r}")
    return j, v


def project_vertex(label: str, d_prime: int) -> str:
    """Projection onto H_d': keep vertices of the first d' - 2 copies, fold
    the rest onto copy 1.  For d' = 3 the result is a base-graph label."""
    if d_prime < 3:
        raise BadDegreeError(f"d' must be at least 3, got {d_prime}")
    j, v = split_label(label)
    if d_prime == 3:
        return v
    if j <= d_prime - 2:
        return label
    return _copy_label(1, v)


def lift_sequence(lifted: LiftedGraph, sequence: BurningSequence | Sequence[str]) -> BurningSequence:
    """Play a base sequence of length k inside copy 1 and add one source at
    step k + 1: the result burns H_d, so b(H_d) <= b(H) + 1.

    Let T be the base's burn steps under the sequence, which its input check
    computes.  Distances within copy 1 are the base's, and a path out of
    copy 1 takes at least one clique edge, so copy-1 vertex v burns at T(v)
    and each of its twins at T(v) + 1 <= k + 1: the k copy-1 sources stay
    placeable, and all of H_d burns by step k + 1.  The extra source is the
    one the repair with a horizon of k + 1 steps ignites: with no vertex
    unburned after the spread of step k + 1, the smallest vertex burned
    exactly then.  That is, in the first block of the label table that is
    not copy 1's (copy 2's, or copy 10's once d >= 12), the twin of the
    smallest base vertex v with T(v) = k; b_k is one.  H_d is not burned.
    """
    sources = list(sequence)
    time = _burn_times(lifted.base, sources)
    if time is None:
        raise InputNotValidError("sequence does not burn the base graph")
    j = next(j for j in _block_order(lifted.d - 2) if j != 1)
    last = _copy_label(j, lifted.base.labels[time.index(len(sources))])
    result = BurningSequence.of([*(_copy_label(1, v) for v in sources), last])
    _remember(lifted, result.sources)
    return result


def project_sequence(
    lifted: LiftedGraph, sequence: BurningSequence | Sequence[str], d_prime: int
) -> BurningSequence:
    """Collapse a valid H_d sequence of length p onto H_d' (3 <= d' < d): the
    projection, duplicates dropped, repaired with a horizon of p steps.  For
    d' >= 4 the repair runs on H_d within the kept copies' blocks, which is
    the repair on H_d' without building it.

    Projection never increases a distance, so the projected fires reach every
    vertex of H_d' by step p and the repair returns a burning sequence of at
    most p sources.  The input is not checked again when it is the sequence
    ``lifted`` last validated.  It returns:

    - a duplicate-free projection that burns H_d' unchanged, as every source
      can be placed;
    - a de-duplicated projection that burns H_d' unchanged, as after its last
      step no vertex is unburned and none burns at the next step, so the
      repair stops there;
    - for a duplicate only in the last two slots, the repair of
      ``projected[:-1]``: at step p, with no intended source left, it
      ignites the smallest vertex still unburned after the spread, or else
      the smallest vertex burned exactly at step p, which is then the
      smallest vertex left unburned by step p - 1;
    - otherwise, the greedy repair of every placement that distance shrink
      or a duplicate broke.
    """
    if not 3 <= d_prime < lifted.d:
        raise BadDegreeError(f"d' must be in [3, {lifted.d - 1}], got {d_prime}")
    sources = tuple(sequence)
    if sources != lifted._burns:
        if not is_burning_sequence(lifted.graph, sources):
            raise InputNotValidError("sequence does not burn the lifted graph")
        _remember(lifted, sources)
    if d_prime == 3:
        target, within = lifted.base, None
    else:
        target, within = lifted.graph, _kept_blocks(lifted, d_prime)
    projected = [project_vertex(v, d_prime) for v in sources]
    deduped = list(dict.fromkeys(projected))
    repaired, _ = _repair_sequence(target, deduped, len(projected), within)
    return BurningSequence.of(repaired)

