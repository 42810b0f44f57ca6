"""Exact semantics of the discrete burning process.

A sequence of sources ``(b_1, ..., b_k)`` burns a graph step by step: at step
``t`` the fire spreads from every burned vertex to its neighbors while ``b_t``
is ignited, provided ``b_t`` was still unburned at the end of step ``t-1``.
A source reached by older fire exactly at its own step is a valid placement;
strictly earlier is not.

One step-wise frontier kernel, ``_burn``, runs that process on the graph's
adjacency columns, one ``graph._advance`` (the step ``Graph.bfs`` takes per
level) per step.  Besides each vertex's burn step it holds only the current
frontier, sorted into index order, and counts the vertices it burns.  It
takes a list of intended sources and has one step policy: the intended
source if it is still placeable, else the smallest unburned vertex, else
the smallest vertex burned at that step.  ``is_burning_sequence`` is its
run on the sequence itself (true when every source is kept and every
vertex burns), and ``_burn_times`` that run's burn steps, which the lift
reads its result off; the sequence repair used by the solvers and the
projection is its run on an intended list, and reports whether its fire
burned every vertex, which is the verdict of ``is_burning_sequence`` on
the sequence it returns, so its callers validate that sequence without a
second run.

A schedule (``_schedule``) is one forward walk of the same steps that also
gives each vertex's responsible sources as an int mask (bit i: the source
placed at step i + 1), which the cyclic collector never tracks; it raises
:class:`InvalidSequenceError` at an invalid placement, with a ``cause``
read off the masks it holds at that step.  ``frontier_burn_times`` (by
step, then by label) and ``simulate`` read it; ``simulate`` makes one
frozenset per distinct mask and keys its schedule by label.  The CLI's
``burn`` report and ``reduction.audit_sequence`` read its outcome, the
unburned count, BL and UB by vertex index, from ``_outcome``.  The test
suite cross-checks the schedule against the closed form
``min_i (i + d(b_i, v))`` over per-source BFS distances, and the kernel
against the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge
from typing import Iterable, Iterator, Sequence

from .graph import _UNBURNED, Graph, UnknownVertexError, _advance, _data_lines, _gather, _label_ok


class BurnError(Exception):
    """Base class for burning-process errors."""


class MalformedSequenceError(BurnError, ValueError):
    """A burning sequence is empty or repeats a label, or a label cannot be
    written as sequence text."""


class InvalidSequenceError(BurnError):
    """Some source was already burned strictly before its own step."""

    def __init__(self, step: int, source: str, burned_step: int, cause: str | None = None):
        self.step = step
        self.source = source
        self.burned_step = burned_step
        self.cause = cause
        detail = f" by fire from {cause!r}" if cause else ""
        super().__init__(
            f"source {source!r} placed at step {step} was already burned "
            f"at step {burned_step}{detail}"
        )


class IncompleteScheduleError(BurnError):
    """Operation requires a schedule with no unburned vertices."""


@dataclass(frozen=True)
class BurningSequence:
    """Ordered burning sources; labels are distinct."""

    sources: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.sources)) != len(self.sources):
            raise MalformedSequenceError("burning sequence labels must be distinct")

    @classmethod
    def of(cls, sources: Iterable[str]) -> "BurningSequence":
        return cls(tuple(sources))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sources)

    def __getitem__(self, i: int) -> str:
        return self.sources[i]


@dataclass(frozen=True)
class BurningSchedule:
    """Outcome of simulating a burning sequence.

    ``burn_time`` maps each burned vertex to its step in ``[1, k]``; vertices
    missing from it are unburned.  ``responsible[v]`` is the set of sources
    whose fire reaches ``v`` exactly at its burn time (the source itself
    included when it ignites in place).
    """

    k: int
    burn_time: dict[str, int]
    responsible: dict[str, frozenset[str]]
    unburned: frozenset[str]

    @property
    def complete(self) -> bool:
        return not self.unburned


def _source_indices(g: Graph, sequence: BurningSequence | Sequence[str]) -> list[int]:
    sources = list(sequence)
    if not sources:
        raise MalformedSequenceError("burning sequence is empty")
    indices = list(map(g._find, sources))
    if None in indices:
        b = sources[indices.index(None)]
        raise UnknownVertexError(f"unknown vertex {b!r} in burning sequence")
    return indices


def _burn(
    g: Graph, want: Sequence[int | None], horizon: int, time: list[int] | None = None
) -> tuple[list[int], int, list[int]]:
    """The burning process itself, without responsible sources: the frontier
    loop of ``_burn_times`` and the sequence repair.

    At step ``t`` the fire spreads one hop, then one vertex is ignited: the
    intended ``want[t - 1]`` (a vertex index, or ``None`` for no preference)
    if it is not burned before ``t``, else the smallest unburned vertex,
    else the smallest vertex burned exactly at ``t``.  If there is none, the
    process ends before ``horizon``.  Returns ``time`` (vertex -> burn
    step, ``_UNBURNED`` if never reached), the number of vertices burned at
    the steps run, and the ignited vertex of each step.  ``time`` has one
    entry more than ``g`` has vertices: the padding sentinel's, 0.  A given
    ``time`` of that length is the starting state, updated in place: a
    vertex marked 0 there never enters a frontier, so the fire spreads only
    through the others.

    Besides ``time`` the process holds only the current frontier, the
    vertices burned at the last step; no list of every burned vertex is
    kept.  Each step's spread is one ``graph._advance``, the frontier step
    that ``Graph.bfs`` also takes.  The frontier is sorted into index order,
    so the next step walks the columns in order.
    """
    cols, over = g.cols, g.over
    if time is None:
        time = [_UNBURNED] * g.vertex_count
        time.append(0)
    burned = 0
    placed: list[int] = []
    frontier: list[int] = []
    for t in range(1, horizon + 1):
        new = _advance(cols, over, frontier, time, t) if frontier else []
        b = want[t - 1] if t <= len(want) else None
        if b is None or time[b] < t:
            # index order equals lexicographic label order
            try:
                b = time.index(_UNBURNED)
            except ValueError:
                try:
                    b = time.index(t)
                except ValueError:
                    break
        if time[b] > t:
            time[b] = t
            new.append(b)
        placed.append(b)
        new.sort()
        burned += len(new)
        frontier = new
    return time, burned, placed


def frontier_burn_times(
    g: Graph, sequence: BurningSequence | Sequence[str]
) -> dict[str, int]:
    """Map vertex -> burn step for all vertices burned within ``len(sequence)``
    steps, in burn order: by step, then by label.  The steps are those of
    :func:`_schedule`, which raises :class:`InvalidSequenceError` exactly
    when a source is burned strictly before its own step.
    """
    k, time, _ = _schedule(g, sequence)
    # a stable sort keeps index (label) order within a step
    by_step = sorted(range(g.vertex_count), key=time.__getitem__)
    labels = tuple(g.labels)  # a view's labels made once, not per vertex
    return {labels[v]: time[v] for v in by_step if time[v] <= k}


def _schedule(
    g: Graph, sequence: BurningSequence | Sequence[str]
) -> tuple[int, list[int], list[int]]:
    """The schedule of :func:`simulate` by vertex index, in one forward walk:
    the step count ``k``, each vertex's burn step (``_UNBURNED`` if never
    reached; one entry more, the padding sentinel's 0, as :func:`_burn`
    gives it) and each vertex's responsible-source mask (0 if not burned):
    bit i is set when the source placed at step i + 1 reaches the vertex at
    its burn time.

    A source's fire reaches ``w`` at its burn time exactly when it reaches a
    neighbour burned one step earlier, so at step ``t`` each vertex burned
    at ``t - 1`` passes its mask on to each neighbour that burns at ``t``:
    the first such pair burns ``w`` and gives it the mask, later ones OR
    theirs in.  Then the step's source is placed with its own bit; one
    burned strictly before ``t`` raises :class:`InvalidSequenceError` naming
    the earliest-placed responsible source, the lowest bit of its mask.
    Besides ``time`` and the masks only one step's vertices are held, sorted
    into index order for the column walk, as in :func:`_burn`.  The step's
    entries of a column and their burn times are gathered at C level; only
    the neighbours that burn at ``t`` reach Python.
    """
    sources = _source_indices(g, sequence)
    cols, over = g.cols, g.over
    time = [_UNBURNED] * g.vertex_count
    time.append(0)
    resp = [0] * g.vertex_count
    step: list[int] = []
    for t, b in enumerate(sources, 1):
        new = []
        if step:
            # (vertices, their neighbours) per column, then per overflow row
            groups = [(step, ws) for ws in map(_gather(step), cols)]
            if over:
                groups += [(repeat(u), over[u]) for u in step if u in over]
            for us, ws in groups:
                # read lazily, so a vertex burned earlier in this step reads t
                reached = map(ge, map(time.__getitem__, ws), repeat(t))
                for u, w in compress(zip(us, ws), reached):
                    if time[w] > t:
                        time[w] = t
                        resp[w] = resp[u]
                        new.append(w)
                    else:
                        resp[w] |= resp[u]
        if time[b] < t:
            mask = resp[b]
            cause = g.labels[sources[(mask & -mask).bit_length() - 1]]
            raise InvalidSequenceError(t, g.labels[b], time[b], cause)
        if time[b] > t:
            time[b] = t
            new.append(b)
        resp[b] |= 1 << (t - 1)
        new.sort()
        step = new
    return len(sources), time, resp


def _outcome(k: int, time: list[int], resp: list[int]) -> tuple[int, list[int], list[int]]:
    """What an index schedule of ``k`` steps comes to: the number of
    unburned vertices and, if there are none, the indices of BL (burned at
    step ``k``) and of UB (a mask of one bit: one responsible source); both
    lists are empty for an incomplete schedule."""
    unburned = time.count(_UNBURNED)
    if unburned:
        return unburned, [], []
    last = [v for v, t in enumerate(time) if t == k]
    return 0, last, [v for v, r in enumerate(resp) if not r & (r - 1)]


def simulate(g: Graph, sequence: BurningSequence | Sequence[str]) -> BurningSchedule:
    """Burn times, responsible-source sets and the unburned set of a sequence."""
    sources = tuple(sequence)
    k, time, resp = _schedule(g, sources)
    # one frozenset per distinct mask; bit i is sources[i], which was placed
    sets = {m: frozenset(b for i, b in enumerate(sources) if m >> i & 1) for m in set(resp)}
    burn_time: dict[str, int] = {}
    responsible: dict[str, frozenset[str]] = {}
    unburned: list[str] = []
    for v, label in enumerate(g.labels):
        if time[v] <= k:
            burn_time[label] = time[v]
            responsible[label] = sets[resp[v]]
        else:
            unburned.append(label)
    return BurningSchedule(
        k=k,
        burn_time=burn_time,
        responsible=responsible,
        unburned=frozenset(unburned),
    )


def _repair_sequence(
    g: Graph,
    intended: Sequence[str | None],
    horizon: int,
    within: Sequence[tuple[int, int]] | None = None,
) -> tuple[list[str], bool]:
    """Valid sequence of at most ``horizon`` sources from an intended source
    list (``None`` or a missing entry means no preference) whose fire, placed
    or not, reaches every vertex by the horizon, and whether it burns ``g``.

    This is :func:`_burn`'s run on the intended indices: a source is kept if
    it is still placeable, else replaced as the kernel's step policy says.
    Coverage is preserved because the fire that burned a skipped source is
    ahead of its schedule.  The sequence ends early once every vertex burned
    before the current step.  Every vertex ignited is placeable, so the run
    is the burning process of the returned sequence, and the verdict equals
    :func:`is_burning_sequence` of it.

    With ``within``, a list of ``(start, stop)`` index ranges of ``g``, the
    repair runs on the subgraph induced on those ranges without building it,
    and every intended source must lie in them.  Every other vertex is
    marked burned at step 0: it never spreads fire, never takes it, and is
    neither unburned nor burned at a step ``t >= 1``.  The subgraph's index
    order is ``g``'s restricted to the ranges, so the result and the verdict
    are those of the repair on the subgraph built as a graph.
    """
    want = [None if v is None else g._at(v) for v in intended]
    time = None
    if within is not None:
        time = [0] * (g.vertex_count + 1)  # the padding sentinel's 0 included
        for start, stop in within:
            time[start:stop] = [_UNBURNED] * (stop - start)
    size = g.vertex_count if time is None else time.count(_UNBURNED)
    _, burned, placed = _burn(g, want, horizon, time)
    return [g.labels[b] for b in placed], bool(placed) and burned == size


def _burn_times(g: Graph, sequence: BurningSequence | Sequence[str]) -> list[int] | None:
    """Each vertex's burn step under the sequence, as :func:`_burn` gives
    ``time``, if the sequence burns ``g``; else ``None``.  That is when
    :func:`_burn` on its sources keeps every one of them and burns every
    vertex."""
    sources = list(sequence)
    if len(set(sources)) != len(sources):
        return None
    try:
        indices = _source_indices(g, sources)
    except (UnknownVertexError, MalformedSequenceError):
        return None
    time, burned, placed = _burn(g, indices, len(indices))
    return time if placed == indices and burned == g.vertex_count else None


def is_burning_sequence(g: Graph, sequence: BurningSequence | Sequence[str]) -> bool:
    """True iff the sequence is valid and burns every vertex by step
    ``len(sequence)``: :func:`_burn_times` of it is not ``None``."""
    return _burn_times(g, sequence) is not None


def last_step_set(schedule: BurningSchedule) -> frozenset[str]:
    """Vertices burned in the final step (the set BL)."""
    if not schedule.complete:
        raise IncompleteScheduleError("schedule left vertices unburned")
    return frozenset(v for v, t in schedule.burn_time.items() if t == schedule.k)


def uniquely_burned_set(schedule: BurningSchedule) -> frozenset[str]:
    """Vertices burned by exactly one responsible source (the set UB)."""
    if not schedule.complete:
        raise IncompleteScheduleError("schedule left vertices unburned")
    return frozenset(v for v, s in schedule.responsible.items() if len(s) == 1)


def read_sequence(text: str) -> BurningSequence:
    """Parse sequence text: one vertex label per line, '#' comments allowed."""
    return BurningSequence.of(stripped for _, stripped in _data_lines(text))


def write_sequence(sequence: BurningSequence | Sequence[str]) -> str:
    """Sequence text, one label per line.  Raises, before making any text,
    for a label that the CLI's files cannot hold: empty, holding whitespace
    or starting with ``#`` (which :func:`read_sequence` skips as a comment)."""
    for label in sequence:
        if not _label_ok(label):
            raise MalformedSequenceError(f"label not representable in sequence text: {label!r}")
    return "\n".join(sequence) + "\n"
