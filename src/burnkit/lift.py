"""Regularity lifting: d-regular graphs from cubic bases, with sequence
projection (copy collapsing) and the one-extra-step lift.

H_d consists of d - 2 copies of the base graph with each vertex's copy set
joined into a clique; labels are ``copy<j>:<v>``.  Projection onto H_d' keeps
vertices of the first d' - 2 copies and folds the rest onto copy 1; for
d' = 3 the result lives on the base graph itself (copy prefix stripped).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .burning import (
    BurningSequence,
    InvalidSequenceError,
    _repair_sequence,
    frontier_burn_times,
    is_burning_sequence,
)
from .graph import Graph, _from_core, is_connected, is_regular


class LiftError(Exception):
    pass


class NotCubicBaseError(LiftError):
    pass


class BadDegreeError(LiftError):
    pass


class InputNotValidError(LiftError):
    """The supplied sequence does not validate on its graph."""


class InternalContradictionError(LiftError):
    """A projection of a sequence declared optimal has a mid-sequence
    duplicate, contradicting the duplicates-at-the-end property."""


@dataclass(frozen=True)
class LiftedGraph:
    base: Graph
    d: int
    graph: Graph
    cliques: dict[str, tuple[str, ...]]

    @property
    def copies(self) -> int:
        return self.d - 2


def _copy_label(j: int, v: str) -> str:
    return f"copy{j}:{v}"


def build_Hd(base: Graph, d: int) -> LiftedGraph:
    """d - 2 clique-joined copies of a connected cubic base; d-regular.

    Built on the base's integer core.  Every label of copy ``j`` starts with
    ``copy<j>:`` and no such prefix is a prefix of another, so each copy is
    one contiguous block of the sorted label table, in base order within.
    The blocks follow the sorted prefixes, so ``copy10:`` comes before
    ``copy1:``.
    """
    if d < 4:
        raise BadDegreeError(f"lift needs d >= 4 (H_3 is the base itself), got {d}")
    if not is_connected(base):
        raise NotCubicBaseError("base graph must be connected")
    if not is_regular(base, 3):
        raise NotCubicBaseError("base graph must be cubic")
    copies = d - 2
    n = base.vertex_count
    blocks = sorted(range(1, copies + 1), key=lambda j: _copy_label(j, ""))
    start = {j: k * n for k, j in enumerate(blocks)}
    labels = tuple(
        chain.from_iterable(map(_copy_label(j, "").__add__, base.labels) for j in blocks)
    )
    # Vertex i of block k: its clique twins in earlier blocks, its base
    # neighbours shifted into block k, its twins in later blocks; that is
    # sorted.  The base is cubic, so its adjacency has three columns.
    twins = [range(start[j], start[j] + n) for j in blocks]
    columns = list(zip(*base.adj))
    adj: list[tuple[int, ...]] = []
    for k, j in enumerate(blocks):
        own = [map(start[j].__add__, column) for column in columns]
        adj += zip(*twins[:k], *own, *twins[k + 1 :])
    edge_count = copies * base.edge_count + n * copies * (copies - 1) // 2
    copy_labels = [labels[start[j] : start[j] + n] for j in range(1, copies + 1)]
    return LiftedGraph(
        base=base,
        d=d,
        graph=_from_core(labels, adj, edge_count),
        cliques=dict(zip(base.labels, zip(*copy_labels))),
    )


def split_label(label: str) -> tuple[int, str]:
    prefix, _, rest = label.partition(":")
    if not prefix.startswith("copy") or not rest:
        raise LiftError(f"not a lifted-graph label: {label!r}")
    try:
        return int(prefix[4:]), rest
    except ValueError:
        raise LiftError(f"not a lifted-graph label: {label!r}") from None


def project_vertex(label: str, d_prime: int) -> str:
    """Projection onto H_d': keep vertices of the first d' - 2 copies, fold
    the rest onto copy 1.  For d' = 3 the result is a base-graph label."""
    j, v = split_label(label)
    if d_prime == 3:
        return v
    if j <= d_prime - 2:
        return label
    return _copy_label(1, v)


def project_to_copy(label: str, k: int) -> str:
    j, v = split_label(label)
    return _copy_label(k, v)


def subgraph_for(lifted: LiftedGraph, d_prime: int) -> Graph:
    """H_d' as a standalone graph (the base itself for d' = 3)."""
    if d_prime == 3:
        return lifted.base
    if not 4 <= d_prime <= lifted.d:
        raise BadDegreeError(f"d' must be in [3, {lifted.d}], got {d_prime}")
    return build_Hd(lifted.base, d_prime).graph


def _unburned_after(g: Graph, sources: Sequence[str]) -> list[str]:
    times = frontier_burn_times(g, sources)
    return sorted(set(g.vertices) - set(times))


def lift_sequence(lifted: LiftedGraph, sequence: BurningSequence | Sequence[str]) -> BurningSequence:
    """Play a base sequence inside copy 1; every clique twin burns one step
    later, so appending one still-unburned vertex (if any) completes H_d."""
    sources = list(sequence)
    if not is_burning_sequence(lifted.base, sources):
        raise InputNotValidError("sequence does not burn the base graph")
    lifted_sources = [_copy_label(1, v) for v in sources]
    leftovers = _unburned_after(lifted.graph, lifted_sources)
    if leftovers:
        lifted_sources.append(leftovers[0])
    result = BurningSequence.of(lifted_sources)
    if not is_burning_sequence(lifted.graph, result):
        raise LiftError("internal: lifted sequence failed validation")
    return result


def project_sequence(
    lifted: LiftedGraph,
    sequence: BurningSequence | Sequence[str],
    d_prime: int,
    assume_optimal: bool = False,
) -> BurningSequence:
    """Collapse a valid H_d sequence onto H_d' (3 <= d' < d).

    Three-branch construction: return the projection if it is duplicate-free;
    if only the last two slots collide, drop the final duplicate and, if
    needed, append one vertex left unburned a step earlier.  Any other
    duplicate pattern, and any placement broken by distance shrink, is
    repaired greedily without exceeding the input length; with
    ``assume_optimal`` a mid-sequence duplicate instead raises
    :class:`InternalContradictionError` so callers probing the
    duplicates-at-the-end property see the event loudly (such inputs do
    exist even among optimal sequences; see the test suite).
    """
    if not 3 <= d_prime < lifted.d:
        raise BadDegreeError(f"d' must be in [3, {lifted.d - 1}], got {d_prime}")
    sources = list(sequence)
    if not is_burning_sequence(lifted.graph, sources):
        raise InputNotValidError("sequence does not burn the lifted graph")
    target = subgraph_for(lifted, d_prime)
    projected = [project_vertex(v, d_prime) for v in sources]
    p = len(projected)

    if len(set(projected)) == p:
        if is_burning_sequence(target, projected):
            return BurningSequence.of(projected)
        # distance shrink broke a placement; coverage is still guaranteed
        return BurningSequence.of(_repair_sequence(target, projected, p))

    first_seen: dict[str, int] = {}
    duplicate_positions = []
    for i, v in enumerate(projected):
        if v in first_seen:
            duplicate_positions.append((first_seen[v], i))
        else:
            first_seen[v] = i
    at_end_only = duplicate_positions == [(p - 2, p - 1)]

    if not at_end_only:
        if assume_optimal:
            raise InternalContradictionError(
                f"mid-sequence duplicates {duplicate_positions} in the projection "
                "of a sequence declared optimal"
            )
        deduped = list(dict.fromkeys(projected))
        if is_burning_sequence(target, deduped):
            return BurningSequence.of(deduped)
        return BurningSequence.of(_repair_sequence(target, deduped, p))

    shortened = projected[:-1]
    if is_burning_sequence(target, shortened):
        return BurningSequence.of(shortened)
    try:
        leftovers = _unburned_after(target, shortened)
    except InvalidSequenceError:
        leftovers = []
    if leftovers:
        completed = shortened + [leftovers[0]]
        if is_burning_sequence(target, completed):
            return BurningSequence.of(completed)
    return BurningSequence.of(_repair_sequence(target, projected, p))
