"""Ground-truth solvers at desk scale.

``burning_number_exact`` runs iterative deepening on k and, for each k,
decides whether the vertex set can be covered by balls of radii
k-1, k-2, ..., 0.  A ball cover of that shape always converts into a valid
burning sequence (sources distinct, each unburned when chosen): walk the
positions in order and, whenever the intended center is already burned,
substitute any still-unburned vertex -- the fire that burned the center is
ahead of schedule, so coverage is preserved.  The converse is immediate, so
the cover decision equals the sequence decision; the test suite additionally
asserts agreement with the exhaustive oracle on small graphs.

``burning_number_naive`` is that oracle: exhaustive depth-first enumeration of
every valid source sequence, with its own undoable frontier spread rather
than the burning kernel it is compared against.

``vertex_cover_exact`` is a branch-and-bound with pendant reduction,
max-degree branching, and a greedy-matching lower bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .burning import BurningSequence, _repair_sequence, is_burning_sequence
from .graph import Graph
from .generators import cycle_graph, path_graph

_MEMO_CAP = 1 << 21


class SolverError(Exception):
    pass


class EmptyGraphError(SolverError, ValueError):
    """The burning number of a graph with no vertices is undefined."""


class TooLargeError(SolverError):
    """Instance exceeds the guard of an exhaustive solver."""


class BudgetExceededError(SolverError):
    """Search budget ran out; carries the best bounds found so far."""

    def __init__(self, lower_bound: int, upper_bound: int | None, nodes: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.nodes = nodes
        bound = f"{lower_bound} <= value"
        if upper_bound is not None:
            bound += f" <= {upper_bound}"
        super().__init__(f"budget exhausted after {nodes} nodes ({bound})")


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: BurningSequence | frozenset[str]
    stats: SolveStats


def ceil_sqrt(n: int) -> int:
    if n < 1:
        raise ValueError("need n >= 1")
    return math.isqrt(n - 1) + 1


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetUp()


class _BudgetUp(Exception):
    pass


def _all_pairs(g: Graph) -> list[list[int]]:
    return [g.bfs(s) for s in range(g.vertex_count)]


def _ball_masks(dist: list[list[int]], r: int) -> list[int]:
    n = len(dist)
    masks = []
    for v in range(n):
        m = 0
        row = dist[v]
        for u in range(n):
            d = row[u]
            if 0 <= d <= r:
                m |= 1 << u
        masks.append(m)
    return masks


def _cover_search(
    n: int,
    k: int,
    dist: list[list[int]],
    balls: dict[int, list[int]],
    max_ball: dict[int, int],
    budget: _Budget,
) -> list[tuple[int, int]] | None:
    """Find centers for balls of radii k-1..0 covering all n vertices.

    Branches on the hardest uncovered vertex (maximum distance from the
    covered set, lexicographic tie-break): it must lie inside one of the
    remaining balls, so every covering (radius, center) pair is tried.
    Returns the list of (radius, center) assignments, or None.
    """
    full = (1 << n) - 1
    ecc = [max(d for d in row if d >= 0) for row in dist]
    failed: set[tuple[int, int]] = set()

    def pick_target(covered: int, chosen: list[tuple[int, int]]) -> int:
        best_v, best_d = -1, -1
        for v in range(n):
            if covered >> v & 1:
                continue
            if not chosen:
                d = ecc[v]
            else:
                d = min(max(0, dist[v][x] - r) for r, x in chosen)
            if d > best_d:
                best_v, best_d = v, d
        return best_v

    def search(radii: tuple[int, ...], covered: int, chosen: list[tuple[int, int]]):
        if covered == full:
            return list(chosen)
        if not radii:
            return None
        budget.tick()
        uncovered_count = (full ^ covered).bit_count()
        if sum(max_ball[r] for r in radii) < uncovered_count:
            return None
        radii_key = 0
        for r in radii:
            radii_key |= 1 << r
        state = (radii_key, covered)
        if state in failed:
            return None
        target = pick_target(covered, chosen)
        row = dist[target]
        branches: list[tuple[int, int, int]] = []
        for r in radii:
            ball_r = balls[r]
            for x in range(n):
                if 0 <= row[x] <= r:
                    gain = (ball_r[x] & ~covered).bit_count()
                    branches.append((r, x, gain))
        branches.sort(key=lambda t: (-t[0], -t[2], t[1]))
        for r, x, _gain in branches:
            rest = list(radii)
            rest.remove(r)
            found = search(tuple(rest), covered | balls[r][x], chosen + [(r, x)])
            if found is not None:
                return found
        if len(failed) < _MEMO_CAP:
            failed.add(state)
        return None

    return search(tuple(range(k - 1, -1, -1)), 0, [])


def burning_number_exact(g: Graph, node_budget: int = 10_000_000) -> SolveResult:
    """Exact burning number with a validated witness sequence."""
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("empty graph")
    start = time.monotonic()
    dist = _all_pairs(g)
    budget = _Budget(node_budget)
    balls: dict[int, list[int]] = {}
    max_ball: dict[int, int] = {}

    def ensure_radius(r: int):
        if r not in balls:
            balls[r] = _ball_masks(dist, r)
            max_ball[r] = max(m.bit_count() for m in balls[r])

    k = 1
    while True:
        ensure_radius(k - 1)
        # sound pruning seed: position i covers at most max_ball[k - i] vertices
        if sum(max_ball[r] for r in range(k)) >= n:
            try:
                found = _cover_search(n, k, dist, balls, max_ball, budget)
            except _BudgetUp:
                raise BudgetExceededError(k, None, budget.nodes) from None
            if found is not None:
                centers: list[str | None] = [None] * k
                labels = g.labels
                for r, x in found:
                    centers[k - r - 1] = labels[x]
                repaired = _repair_sequence(g, centers, k)
                if len(repaired) < k:
                    raise SolverError("no placeable source; cover was not minimal")
                seq = BurningSequence.of(repaired)
                if not is_burning_sequence(g, seq):
                    raise SolverError("internal: repaired witness failed validation")
                elapsed = time.monotonic() - start
                return SolveResult(k, seq, SolveStats(budget.nodes, elapsed))
        k += 1
        if k > n:
            raise SolverError("internal: no burning sequence up to length n")


def burning_number_naive(g: Graph, max_vertices: int = 12) -> SolveResult:
    """Exhaustive oracle: enumerate all valid source sequences, shortest first."""
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("empty graph")
    if n > max_vertices:
        raise TooLargeError(f"{n} vertices exceeds the naive guard of {max_vertices}")
    start = time.monotonic()
    adj, labels = g.adj, g.labels
    nodes = 0

    def extend(t: int, k: int, burned_at: dict[int, int], frontier: list[int], acc: list[int]):
        nonlocal nodes
        nodes += 1
        spread = []
        for u in frontier:
            for w in adj[u]:
                if w not in burned_at:
                    burned_at[w] = t
                    spread.append(w)
        try:
            # candidate sources: unburned at the end of step t-1, i.e. not
            # burned strictly before t (burning at exactly t is allowed)
            for v in range(n):
                prior = burned_at.get(v)
                if prior is not None and prior < t:
                    continue
                fresh = prior is None
                if fresh:
                    burned_at[v] = t
                acc.append(v)
                if t == k:
                    if len(burned_at) == n:
                        return list(acc)
                else:
                    next_frontier = spread + [v] if fresh else spread
                    found = extend(t + 1, k, burned_at, next_frontier, acc)
                    if found is not None:
                        return found
                acc.pop()
                if fresh:
                    del burned_at[v]
            return None
        finally:
            for w in spread:
                del burned_at[w]

    for k in range(1, n + 1):
        found = extend(1, k, {}, [], [])
        if found is not None:
            seq = BurningSequence.of(labels[v] for v in found)
            if not is_burning_sequence(g, seq):
                raise SolverError("internal: naive witness failed validation")
            elapsed = time.monotonic() - start
            return SolveResult(k, seq, SolveStats(nodes, elapsed))
    raise SolverError("internal: no burning sequence up to length n")


def path_cycle_burning_number(n: int, kind: str) -> int:
    """Burning number of the n-vertex path or cycle: ceil(sqrt(n))."""
    _check_kind(n, kind)
    return ceil_sqrt(n)


def _check_kind(n: int, kind: str):
    if kind not in ("path", "cycle"):
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    if n < 1 or (kind == "cycle" and n < 3):
        raise ValueError(f"no {kind} on {n} vertices")


def path_cycle_witness(n: int, kind: str) -> BurningSequence:
    """Length-ceil(sqrt(n)) burning sequence for P_n or C_n (labels v1..vn).

    Source i gets radius k-i; its ball covers one contiguous block, and the
    blocks tile the vertex range.  On the cycle the shrunk block sits between
    the two earliest sources so every pairwise spacing constraint holds.
    """
    _check_kind(n, kind)
    k = ceil_sqrt(n)
    if k == 1:
        return BurningSequence.of(["v1"])
    if kind == "path":
        centers = [min((k - 1) * (k - 1) + k, n)]
        for i in range(2, k + 1):
            q = k - i
            centers.append(q * q + q + 1)
    elif n == 5:
        centers = [1, 4, 3]
    else:
        excess = k * k - n
        ell1 = 2 * k - 1 - excess
        centers = [0] * k
        for t in range(k, 2, -1):
            q = k - t
            centers[t - 1] = q * q + q + 1
        s1 = (k - 2) * (k - 2) + 1
        delta = min(k - 1, ell1 - 1)
        centers[0] = s1 + delta
        centers[1] = s1 + ell1 + (k - 2)
    return BurningSequence.of(f"v{c}" for c in centers)


def path_cycle_graph(n: int, kind: str) -> Graph:
    _check_kind(n, kind)
    return path_graph(n) if kind == "path" else cycle_graph(n)


def _greedy_matching(adj: dict[int, set[int]]) -> int:
    used: set[int] = set()
    size = 0
    for u in sorted(adj):
        if u in used:
            continue
        for v in sorted(adj[u]):
            if v not in used and v != u:
                used.add(u)
                used.add(v)
                size += 1
                break
    return size


def vertex_cover_exact(g: Graph, node_budget: int = 10_000_000) -> SolveResult:
    """Minimum vertex cover by branch-and-bound with a validated witness."""
    start = time.monotonic()
    labels = g.labels
    base: dict[int, set[int]] = {v: set(ws) for v, ws in enumerate(g.adj)}
    budget = _Budget(node_budget)
    best: list[int] | None = None

    def remove_vertex(adj: dict[int, set[int]], v: int):
        for w in adj.pop(v, set()):
            adj[w].discard(v)

    def bnb(adj: dict[int, set[int]], chosen: list[int]):
        nonlocal best
        budget.tick()
        adj = {v: set(ws) for v, ws in adj.items()}
        chosen = list(chosen)
        while True:
            isolated = [v for v, ws in adj.items() if not ws]
            for v in isolated:
                del adj[v]
            pendant = next((v for v in sorted(adj) if len(adj[v]) == 1), None)
            if pendant is None:
                break
            u = next(iter(adj[pendant]))
            chosen.append(u)
            remove_vertex(adj, u)
        if not adj:
            if best is None or len(chosen) < len(best):
                best = sorted(chosen)
            return
        if best is not None and len(chosen) + _greedy_matching(adj) >= len(best):
            return
        v = max(sorted(adj), key=lambda u: len(adj[u]))
        with_v = {u: set(ws) for u, ws in adj.items()}
        remove_vertex(with_v, v)
        bnb(with_v, chosen + [v])
        neighbors = sorted(adj[v])
        without_v = {u: set(ws) for u, ws in adj.items()}
        for w in neighbors:
            remove_vertex(without_v, w)
        bnb(without_v, chosen + neighbors)

    try:
        bnb(base, [])
    except _BudgetUp:
        upper = len(best) if best is not None else None
        raise BudgetExceededError(_greedy_matching(base), upper, budget.nodes) from None
    assert best is not None
    cover = frozenset(labels[v] for v in best)
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise SolverError("internal: witness is not a vertex cover")
    elapsed = time.monotonic() - start
    return SolveResult(len(cover), cover, SolveStats(budget.nodes, elapsed))
