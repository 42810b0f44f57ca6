"""Ground-truth solvers at desk scale.

``burning_number_exact`` runs iterative deepening on k and, for each k,
decides whether the vertex set can be covered by balls of radii
k-1, k-2, ..., 0.  The search is one depth-first loop over an explicit stack,
so its depth is not bounded by the recursion limit.  The radii still to
place are one bitmask, which with the covered set keys a memo of failed
nodes.  Distances come only from the balls, one bitmask per vertex and
radius; the set-up takes the root and the components from them too.  A
ball cover of that shape always converts into a valid burning sequence
(sources distinct, each unburned when chosen): walk the positions in order
and, whenever the intended center is already burned, substitute any
still-unburned vertex -- the fire that burned the center is ahead of
schedule, so coverage is preserved.  The converse is immediate, so the
cover decision equals the sequence decision; the test suite additionally
asserts agreement with the exhaustive oracle on small graphs.

``burning_number_naive`` is that oracle: exhaustive depth-first enumeration of
every valid source sequence, with its own undoable frontier spread rather
than the burning kernel it is compared against.

``vertex_cover_exact`` is a branch-and-bound with pendant reduction and
max-degree branching, run on an explicit stack.  Vertices are deleted from
one residual graph in place and restored from an undo trail on backtrack,
so a node costs O(degree) plus a few C-level scans of the degree list, and
no node copies the graph.  It prunes with the larger of a degree bound and
a greedy path/odd-cycle packing.  The bound does not change the cover: the
answer is the first leaf of optimal size in DFS order, and every node on
the path to it has bound <= optimum < incumbent, so it is never pruned.
The test suite keeps the former copying solver as an oracle and checks
equal covers.

On a budget stop both solvers report the best bounds they have: the vertex
cover search the root bound and its incumbent, the burning-number search
the current k and the length of a farthest-first ball-cover sequence.
``SolveStats.prunes`` counts the nodes cut: by the lower bound in the vertex
cover search, by the volume bound or the failure memo in the other.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .burning import BurningSequence, _repair_sequence, is_burning_sequence
from .graph import Graph

_MEMO_CAP = 1 << 21
# the exhaustive solvers refuse larger graphs before any work
_MAX_EXACT_VERTICES = 2_000
_MAX_NAIVE_VERTICES = 12


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
    prunes: int = 0
    reductions: int = 0


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


def _ball_masks(adj: list[tuple[int, ...]], inner: list[int] | None) -> list[int]:
    """Bitmasks of the balls of radius r around each vertex, from those of
    radius r - 1 (``inner``), or of radius 0 when ``inner`` is None: the
    ball of v is its inner ball joined with the inner balls of v's
    neighbours."""
    if inner is None:
        return [1 << v for v in range(len(adj))]
    masks = []
    for mask, nbrs in zip(inner, adj):
        for w in nbrs:
            mask |= inner[w]
        masks.append(mask)
    return masks


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _root_and_components(adj: list[tuple[int, ...]]) -> tuple[int, int, list[int]]:
    """The largest eccentricity D over all components, the first vertex of
    eccentricity D, and each vertex's component, named by its lowest vertex.
    The ball masks grow one radius at a time until none changes, two radii
    held at once: a ball grows at radius r exactly when its center's
    eccentricity is at least r, so D is the number of radii at which one
    grows, and a final ball is its center's component."""
    masks = _ball_masks(adj, None)
    diameter = root = 0
    while (grown := _ball_masks(adj, masks)) != masks:
        diameter += 1
        root = next(v for v, (a, b) in enumerate(zip(masks, grown)) if a != b)
        masks = grown
    return diameter, root, [(m & -m).bit_length() - 1 for m in masks]


def _branches(
    balls: list[list[int]],
    comp: list[int],
    root: int,
    radii: int,
    covered: int,
    chosen: list[tuple[int, int]],
) -> Iterator[tuple[int, int]]:
    """The (radius, center) pairs a ball-cover search node tries, in order:
    each radius r left (bit r of ``radii``), larger first, with each center
    within r of the target, more newly covered vertices first, then the
    smaller center.  The target is the first uncovered vertex farthest from
    the chosen balls (a ball in another component is at distance 0): with
    one component of centers, the first of the last layer of a breadth-first
    search from their union ``covered``, else the first uncovered vertex;
    ``root`` at the root.  Some remaining ball must hold it."""
    target = root
    if chosen:
        target = ((covered + 1) & ~covered).bit_length() - 1  # the first uncovered vertex
        if len({comp[x] for _, x in chosen}) == 1:
            near, reached, ring = balls[1], covered, covered
            while ring := reduce(or_, map(near.__getitem__, _bits(ring)), 0) & ~reached:
                reached |= ring
                target = (ring & -ring).bit_length() - 1
    for r in range(radii.bit_length() - 1, -1, -1):
        if radii >> r & 1:
            ball = balls[r]
            for _, x in sorted((-(ball[x] & ~covered).bit_count(), x) for x in _bits(ball[target])):
                yield r, x


def burning_number_exact(g: Graph, node_budget: int = 10_000_000) -> SolveResult:
    """Exact burning number with a validated witness sequence.

    The set-up grows n ball masks of up to n bits radius by radius to the
    diameter and the search keeps one such set per radius, so a graph of
    more than ``_MAX_EXACT_VERTICES`` vertices is refused with
    ``TooLargeError`` before either.
    """
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("empty graph")
    if n > _MAX_EXACT_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the exact solver's guard of {_MAX_EXACT_VERTICES}")
    start = time.monotonic()
    adj = tuple(g.adj)  # rows made once, not per radius
    diameter, root, comp = _root_and_components(adj)
    full = (1 << n) - 1
    budget = _Budget(node_budget)
    prunes = volume = 0
    balls: list[list[int]] = []  # balls[r][x]: the ball of radius r around x
    biggest: list[int] = []  # biggest[r]: the size of the largest ball of radius r
    found: list[tuple[int, int]] | None = None
    try:
        for k in range(1, n + 1):
            if k - 1 <= diameter:  # past the diameter a ball is its component
                masks = _ball_masks(adj, balls[-1] if balls else None)
                size = max(m.bit_count() for m in masks)
            balls.append(masks)
            biggest.append(size)
            volume += size
            # sound pruning seed: position i covers at most biggest[k - i] vertices
            if volume < n:
                continue
            budget.tick()
            failed: set[tuple[int, int]] = set()
            radii = (1 << k) - 1
            # open nodes, deepest last: (radii left, covered, chosen pairs,
            # summed biggest[r] of the radii left, untried branches)
            stack = [(radii, 0, [], volume, _branches(balls, comp, root, radii, 0, []))]
            while found is None and stack:
                radii, covered, chosen, room, branches = stack[-1]
                for r, x in branches:
                    reach = covered | balls[r][x]
                    if reach == full:
                        found = chosen + [(r, x)]
                        break
                    rest = radii ^ 1 << r
                    if not rest:
                        continue
                    budget.tick()
                    left = room - biggest[r]
                    if left < (full ^ reach).bit_count() or (rest, reach) in failed:
                        prunes += 1
                        continue
                    picked = chosen + [(r, x)]
                    stack.append((rest, reach, picked, left, _branches(balls, comp, root, rest, reach, picked)))
                    break
                else:
                    stack.pop()
                    if len(failed) < _MEMO_CAP:
                        failed.add((radii, covered))
            if found is not None:
                break
        else:
            raise SolverError("internal: no burning sequence up to length n")
    except _BudgetUp:
        upper = _ball_cover_upper_bound(g)
        raise BudgetExceededError(k, upper, budget.nodes) from None
    centers: list[str | None] = [None] * k
    labels = g.labels
    for r, x in found:
        centers[k - r - 1] = labels[x]
    repaired, burns_all = _repair_sequence(g, centers, k)
    if len(repaired) < k:
        raise SolverError("no placeable source; cover was not minimal")
    seq = BurningSequence.of(repaired)
    if not burns_all:
        raise SolverError("internal: repaired witness failed validation")
    elapsed = time.monotonic() - start
    return SolveResult(k, seq, SolveStats(budget.nodes, elapsed, prunes))


def _ball_cover_upper_bound(g: Graph) -> int:
    """Length of a burning sequence built from a farthest-first ball cover.

    Farthest-first traversal (smallest index among the farthest) orders the
    vertices so that the first c of them cover the graph with balls of some
    radius r(c).  Those c centers placed first, each with at least r(c)
    steps of spread left, burn the graph in c + r(c) steps; the shortest of
    these is at most 3b - 2 (Bonato & Kamali, TAMC 2019).  It runs one BFS
    per center and stops once c reaches the shortest length so far.  The
    repair turns it into a valid sequence, whose verdict is checked.
    """
    n = g.vertex_count
    gap = [n if d < 0 else d for d in g.bfs(0)]  # n: not reached by any center
    order = [0]
    length, count = n, n
    while len(order) < length:
        radius = max(gap)
        if len(order) + radius < length:
            length, count = len(order) + radius, len(order)
        if radius == 0:
            break
        far = gap.index(radius)
        order.append(far)
        gap = [a if b < 0 or a <= b else b for a, b in zip(gap, g.bfs(far))]
    labels = g.labels
    seq, burns_all = _repair_sequence(g, [labels[v] for v in order[:count]], length)
    if not burns_all:
        raise SolverError("internal: ball-cover sequence failed validation")
    return len(seq)


def burning_number_naive(g: Graph) -> SolveResult:
    """Exhaustive oracle: enumerate all valid source sequences, shortest first."""
    n = g.vertex_count
    if n == 0:
        raise EmptyGraphError("empty graph")
    if n > _MAX_NAIVE_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the naive guard of {_MAX_NAIVE_VERTICES}")
    start = time.monotonic()
    adj, labels = tuple(g.adj), g.labels  # rows made once, not per node
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


def _take(nbrs: list[set[int]], deg: list[int], trail: list[int], v: int):
    """Put ``v`` in the cover: delete it from the residual graph in place."""
    for w in nbrs[v]:
        nbrs[w].discard(v)
        deg[w] -= 1
    deg[v] = 0
    trail.append(v)


def _undo(nbrs: list[set[int]], deg: list[int], trail: list[int], mark: int):
    """Restore the vertices taken since ``len(trail)`` was ``mark``, last first.

    A taken vertex keeps its neighbour set: every vertex taken after it has
    already dropped it from its own set, so nothing touches that set until it
    is restored, and it is exact again then.
    """
    while len(trail) > mark:
        v = trail.pop()
        ws = nbrs[v]
        for w in ws:
            nbrs[w].add(v)
            deg[w] += 1
        deg[v] = len(ws)


def _take_pendants(nbrs: list[set[int]], deg: list[int], trail: list[int]):
    """Take the neighbour of the smallest degree-1 vertex while one exists."""
    while 1 in deg:
        (u,) = nbrs[deg.index(1)]
        _take(nbrs, deg, trail, u)


def _degree_bound(deg: list[int]) -> int:
    """The fewest vertices whose degrees, largest first, sum to the edge count."""
    m = sum(deg) >> 1
    taken = count = 0
    for d in range(max(deg, default=0), 0, -1):
        c = deg.count(d)
        if taken + c * d >= m:
            return count - ((taken - m) // d)
        taken += c * d
        count += c
    return count


def _packing_bound(nbrs: list[set[int]], deg: list[int], need: float) -> int:
    """Cover vertices needed by a greedy packing of disjoint paths and cycles.

    Each path starts at the smallest unpacked vertex and grows at both ends,
    always to the unpacked neighbour with the fewest unpacked neighbours.  A
    path of L vertices needs L // 2 cover vertices.  When L is odd and an end
    is adjacent to a path vertex at an even distance of at least 2, the path
    splits into an odd cycle and an even path, which need (L + 1) // 2; a
    closed odd cycle is the case where the end meets the other end.  The
    parts are disjoint, so their needs add up.  Counting stops once the sum
    reaches ``need``.
    """
    n = len(deg)
    # position in its path; a path's positions lie within n of its base, so
    # the ranges of two paths are disjoint, and -1 (unpacked) is below all
    pos = [-1] * n
    free = deg[:]  # unpacked neighbours of each vertex
    total = 0
    for s in range(n):
        if pos[s] >= 0 or not deg[s]:
            continue
        base = (2 * s + 1) * n
        pos[s] = base
        for x in nbrs[s]:
            free[x] -= 1
        for step in (1, -1):
            end, p = s, base
            while free[end]:
                nxt, low = -1, n
                for w in nbrs[end]:
                    if pos[w] < 0 and free[w] < low:
                        nxt, low = w, free[w]
                p += step
                pos[nxt] = p
                for x in nbrs[nxt]:
                    free[x] -= 1
                end = nxt
            if step == 1:
                tail, hi = end, p
        head, lo = end, p  # the backward growth ran last
        total += (hi - lo + 1) >> 1
        if (hi - lo) & 1 == 0 and hi > lo:
            for w in nbrs[tail]:
                q = pos[w]
                if lo <= q <= hi - 2 and (hi - q) & 1 == 0:
                    total += 1
                    break
            else:
                for w in nbrs[head]:
                    q = pos[w]
                    if lo + 2 <= q <= hi and (q - lo) & 1 == 0:
                        total += 1
                        break
        if total >= need:
            break
    return total


def _lower_bound(nbrs: list[set[int]], deg: list[int], need: float = math.inf) -> int:
    """A lower bound on the minimum vertex cover of the residual graph: the
    larger of the degree and packing bounds, or any value of at least
    ``need`` once one of them reaches it."""
    bound = _degree_bound(deg)
    if bound >= need:
        return bound
    return max(bound, _packing_bound(nbrs, deg, need))


def vertex_cover_exact(g: Graph, node_budget: int = 10_000_000) -> SolveResult:
    """Minimum vertex cover by branch-and-bound with a validated witness.

    Each search node takes the pendant neighbours first (smallest degree-1
    vertex first).  A node with no edge left is a leaf; one whose lower
    bound leaves no room below the incumbent is pruned.  Otherwise it
    branches on the smallest vertex of maximum degree v: first "take v",
    then "take the neighbours of v" in sorted order.
    """
    start = time.monotonic()
    labels = g.labels
    nbrs = [set(ws) for ws in g.adj]
    deg = [len(ws) for ws in nbrs]
    trail: list[int] = []  # the vertices taken so far: the partial cover
    # one (trail mark, branch vertex) per open node whose second branch is
    # still to come
    pending: list[tuple[int, int]] = []
    budget = _Budget(node_budget)
    best: list[int] | None = None
    prunes = reductions = 0
    try:
        while True:
            budget.tick()
            mark = len(trail)
            _take_pendants(nbrs, deg, trail)
            reductions += len(trail) - mark
            top = max(deg, default=0)
            if top == 0:
                if best is None or len(trail) < len(best):
                    best = sorted(trail)
            elif best is not None and _lower_bound(nbrs, deg, room := len(best) - len(trail)) >= room:
                prunes += 1
            else:
                v = deg.index(top)
                pending.append((len(trail), v))
                _take(nbrs, deg, trail, v)
                continue
            if not pending:
                break
            mark, v = pending.pop()
            _undo(nbrs, deg, trail, mark)
            for w in sorted(nbrs[v]):
                _take(nbrs, deg, trail, w)
    except _BudgetUp:
        _undo(nbrs, deg, trail, 0)
        _take_pendants(nbrs, deg, trail)
        lower = len(trail) + _lower_bound(nbrs, deg)
        upper = len(best) if best is not None else None
        raise BudgetExceededError(lower, upper, budget.nodes) from None
    assert best is not None
    cover = frozenset(labels[v] for v in best)
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise SolverError("internal: witness is not a vertex cover")
    elapsed = time.monotonic() - start
    return SolveResult(len(cover), cover, SolveStats(budget.nodes, elapsed, prunes, reductions))
