"""Exact semantics of the discrete burning process.

A sequence of sources ``(b_1, ..., b_k)`` burns a graph step by step: at step
``t`` the fire spreads from every burned vertex to its neighbors while ``b_t``
is ignited, provided ``b_t`` was still unburned at the end of step ``t-1``.
A source reached by older fire exactly at its own step is a valid placement;
strictly earlier is not.

One step-wise frontier kernel runs that process.  ``frontier_burn_times``,
``is_burning_sequence``, ``simulate`` (which adds the responsible-source sets
in one pass over the burn-order DAG) and the sequence repair used by the
solvers and the lift all drive it.  The kernel only stops at an invalid
placement; the functions that raise :class:`InvalidSequenceError` work out
its ``cause``, and ``is_burning_sequence`` never does.  The test suite cross-checks it against the closed form
``min_i (i + d(b_i, v))`` over per-source BFS distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph, UnknownVertexError

_UNBURNED = 1 << 60


class BurnError(Exception):
    """Base class for burning-process errors."""


class MalformedSequenceError(BurnError, ValueError):
    """A burning sequence is empty or repeats a label."""


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
    for b in sources:
        if b not in g.index:
            raise UnknownVertexError(f"unknown vertex {b!r} in burning sequence")
    return [g.index[b] for b in sources]


def _burn(
    g: Graph, steps: int, choose: Callable[[int, list[int]], int | None]
) -> tuple[list[int], list[int], list[int]]:
    """The burning process itself, the one frontier loop of the package.

    At step ``t`` the fire spreads one hop, then ``choose(t, time)`` names the
    vertex ignited at ``t``; ``None`` ends the process early, and so does a
    vertex that burned before ``t``, which is then not placed.  Returns
    ``time`` (vertex -> burn step, ``_UNBURNED`` if never reached), the burned
    vertices in burn order, and the ignited vertex of each step.
    """
    adj = g.adj
    time = [_UNBURNED] * len(adj)
    order: list[int] = []
    placed: list[int] = []
    frontier: list[int] = []
    for t in range(1, steps + 1):
        new = []
        for u in frontier:
            for w in adj[u]:
                if time[w] > t:
                    time[w] = t
                    new.append(w)
        b = choose(t, time)
        if b is None or time[b] < t:
            break
        if time[b] > t:
            time[b] = t
            new.append(b)
        placed.append(b)
        order += new
        frontier = new
    return time, order, placed


def _burn_sequence(g: Graph, sources: list[int]) -> tuple[list[int], list[int], list[int]]:
    """:func:`_burn` of a fixed source list; it stopped at an invalid
    placement exactly when fewer than ``len(sources)`` sources are placed."""
    return _burn(g, len(sources), lambda t, _time: sources[t - 1])


def _responsible(
    g: Graph, time: list[int], order: list[int], placed: list[int]
) -> list[frozenset[str] | None]:
    """Responsible-source sets of the vertices in ``order``, in one pass.

    A source's fire reaches ``v`` at its burn time exactly when it reaches a
    neighbour burned one step earlier, so ``v`` inherits those neighbours'
    sets, plus itself when it is ignited in place.  Every placed vertex
    burned at its own step, which the process checked.
    """
    adj, labels = g.adj, g.labels
    own = {b: frozenset((labels[b],)) for b in placed}
    resp: list[frozenset[str] | None] = [None] * len(adj)
    for v in order:
        prev = time[v] - 1
        r = own.get(v)
        for u in adj[v]:
            if time[u] == prev:
                s = resp[u]
                if r is None:
                    r = s
                elif s is not r:
                    r = r | s
        resp[v] = r
    return resp


def _invalid(
    g: Graph,
    sources: list[int],
    time: list[int],
    placed: list[int],
    resp: list[frozenset[str] | None],
) -> InvalidSequenceError:
    """The error for the first source that :func:`_burn_sequence` rejected;
    ``resp`` holds the responsible sets of the burned prefix.  The cause is
    the earliest-placed source responsible for the rejected one."""
    b = sources[len(placed)]
    step = {g.labels[v]: i for i, v in enumerate(placed)}
    cause = min(resp[b], key=step.__getitem__)
    return InvalidSequenceError(len(placed) + 1, g.labels[b], time[b], cause)


def frontier_burn_times(
    g: Graph, sequence: BurningSequence | Sequence[str]
) -> dict[str, int]:
    """Map vertex -> burn step for all vertices burned within ``len(sequence)``
    steps, in burn order.  Raises :class:`InvalidSequenceError` exactly when a
    source is burned strictly before its own step.
    """
    sources = _source_indices(g, sequence)
    time, order, placed = _burn_sequence(g, sources)
    if len(placed) < len(sources):
        raise _invalid(g, sources, time, placed, _responsible(g, time, order, placed))
    labels = g.labels
    return {labels[v]: time[v] for v in order}


def simulate(g: Graph, sequence: BurningSequence | Sequence[str]) -> BurningSchedule:
    """Burn times, responsible-source sets and the unburned set of a sequence."""
    sources = _source_indices(g, sequence)
    k = len(sources)
    time, order, placed = _burn_sequence(g, sources)
    resp = _responsible(g, time, order, placed)
    if len(placed) < k:
        raise _invalid(g, sources, time, placed, resp)
    burn_time: dict[str, int] = {}
    responsible: dict[str, frozenset[str]] = {}
    unburned: list[str] = []
    for v, label in enumerate(g.labels):
        if time[v] <= k:
            burn_time[label] = time[v]
            responsible[label] = resp[v]
        else:
            unburned.append(label)
    return BurningSchedule(
        k=k,
        burn_time=burn_time,
        responsible=responsible,
        unburned=frozenset(unburned),
    )


def _repair_sequence(g: Graph, intended: Sequence[str | None], horizon: int) -> list[str]:
    """Valid sequence of at most ``horizon`` sources from an intended source
    list (``None`` or a missing entry means no preference) whose fire, placed
    or not, reaches every vertex by the horizon.

    At each step the intended source is kept if it is still placeable;
    otherwise the smallest unburned vertex is ignited, else the smallest
    vertex burned exactly at that step.  Coverage is preserved because the
    fire that burned a skipped source is ahead of its schedule.  The sequence
    ends early once every vertex burned before the current step.
    """
    want = [None if v is None else g.index[v] for v in intended]

    def choose(t: int, time: list[int]) -> int | None:
        b = want[t - 1] if t <= len(want) else None
        if b is not None and time[b] >= t:
            return b
        # index order equals lexicographic label order
        if _UNBURNED in time:
            return time.index(_UNBURNED)
        if t in time:
            return time.index(t)
        return None

    _, _, placed = _burn(g, horizon, choose)
    return [g.labels[b] for b in placed]


def is_burning_sequence(g: Graph, sequence: BurningSequence | Sequence[str]) -> bool:
    """True iff the sequence is valid and burns every vertex by step ``len(sequence)``."""
    sources = list(sequence)
    if len(set(sources)) != len(sources):
        return False
    try:
        indices = _source_indices(g, sources)
    except (UnknownVertexError, MalformedSequenceError):
        return False
    _, order, placed = _burn_sequence(g, indices)
    return len(placed) == len(indices) and len(order) == g.vertex_count


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
    sources = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        sources.append(stripped)
    return BurningSequence.of(sources)


def write_sequence(sequence: BurningSequence | Sequence[str]) -> str:
    return "\n".join(sequence) + "\n"
