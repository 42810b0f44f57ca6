from __future__ import annotations

import gc
import inspect
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burnkit.burning import is_burning_sequence
from burnkit.generators import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_cubic,
    star_graph,
)
from burnkit import make_BT, make_C, solvers
from burnkit.solvers import (
    BudgetExceededError,
    _ball_masks,
    TooLargeError,
    burning_number_exact,
    burning_number_naive,
    ceil_sqrt,
    path_cycle_burning_number,
    path_cycle_witness,
    vertex_cover_exact,
)
from burnkit.graph import Graph
from burnkit.reduction import double_subdivide


def test_naive_small_cases(k4):
    assert burning_number_naive(path_graph(2)).value == 2
    assert burning_number_naive(k4).value == 2
    assert burning_number_naive(star_graph(3)).value == 2


def test_naive_guard(monkeypatch):
    with pytest.raises(TooLargeError, match="^13 vertices exceeds the naive guard of 12$"):
        burning_number_naive(path_graph(13))
    monkeypatch.setattr(solvers, "_MAX_NAIVE_VERTICES", 4)
    with pytest.raises(TooLargeError, match="^5 vertices exceeds the naive guard of 4$"):
        burning_number_naive(path_graph(5))
    assert burning_number_naive(path_graph(4)).value == 2


def test_exact_guard_refuses_before_any_table(monkeypatch):
    def no_work(*args):
        raise AssertionError("BFS run or ball masks built for a refused graph")

    small, large = path_graph(5), path_graph(2001)
    cap = solvers._MAX_EXACT_VERTICES
    monkeypatch.setattr(Graph, "bfs", no_work)
    monkeypatch.setattr(solvers, "_ball_masks", no_work)
    monkeypatch.setattr(solvers, "_MAX_EXACT_VERTICES", 4)
    with pytest.raises(TooLargeError, match="^5 vertices exceeds the exact solver's guard of 4$"):
        burning_number_exact(small)
    monkeypatch.setattr(solvers, "_MAX_EXACT_VERTICES", cap)
    with pytest.raises(TooLargeError, match="^2001 vertices exceeds the exact solver's guard of 2000$"):
        burning_number_exact(large)
    monkeypatch.undo()
    monkeypatch.setattr(solvers, "_MAX_EXACT_VERTICES", 4)
    assert burning_number_exact(path_graph(4)).value == 2


def test_exact_k4(k4):
    result = burning_number_exact(k4)
    assert result.value == 2
    assert is_burning_sequence(k4, result.witness)


def test_exact_witness_validates_and_matches_value():
    for n in (1, 2, 5, 9, 14):
        g = path_graph(n)
        result = burning_number_exact(g)
        assert len(result.witness) == result.value
        assert is_burning_sequence(g, result.witness)


def test_exact_deterministic(k4):
    a = burning_number_exact(k4)
    b = burning_number_exact(k4)
    assert a.value == b.value
    assert list(a.witness) == list(b.witness)


def test_exact_handles_disconnected():
    from burnkit.graph import Graph

    g = Graph([("a", "b"), ("c", "d")])
    result = burning_number_exact(g)
    assert result.value == burning_number_naive(g).value == 3
    assert is_burning_sequence(g, result.witness)


def test_exact_equals_naive_more_disconnected_shapes():
    from burnkit.graph import Graph

    cases = [
        Graph([], vertices=["a", "b"]),  # two isolated vertices
        Graph([("a", "b"), ("b", "c"), ("d", "e")]),
        Graph([("a", "b")], vertices=["a", "b", "z"]),
    ]
    for g in cases:
        exact = burning_number_exact(g)
        assert exact.value == burning_number_naive(g).value
        assert is_burning_sequence(g, exact.witness)


def test_budget_exceeded_carries_lower_bound():
    g = cycle_graph(25)
    with pytest.raises(BudgetExceededError) as info:
        burning_number_exact(g, node_budget=0)
    assert info.value.lower_bound >= 1


def test_budget_stop_reports_ball_cover_upper_bound():
    # b(random_cubic(80, 1)) = 6: an unbudgeted solve takes 290,334 nodes
    cases = [(cycle_graph(n), ceil_sqrt(n)) for n in (10, 25, 49, 80)]
    cases.append((random_cubic(80, 1), 6))
    for g, b in cases:
        for budget in (0, 1):
            with pytest.raises(BudgetExceededError) as info:
                burning_number_exact(g, node_budget=budget)
            assert info.value.upper_bound is not None
            assert info.value.lower_bound <= b <= info.value.upper_bound


# (value, witness, nodes) of burning_number_exact: the witness comes from the
# first cover in depth-first order and nodes counts the tree searched up to
# it, so any change of target rule, branch order, memo or budget tick moves
# them
_PINNED_SEARCHES = {
    "random_cubic(64, 5)": (lambda: random_cubic(64, 5), 5, "v44 v48 v18 v4 v54", 4238),
    "random_cubic(60, 1)": (lambda: random_cubic(60, 1), 5, "v35 v27 v28 v8 v1", 4),
    "cycle(80)": (lambda: cycle_graph(80), 9, "v1 v34 v51 v15 v62 v23 v69 v43 v72", 9),
    "C(7)": (lambda: make_C(7).graph, 7, "p5:a1 p7:a1 p6:a1 p4:a4 p7:a7 p5:a8 tail:q", 19),
    "BT(5)": (lambda: make_BT(5).graph, 6, "bt:0:0 bt:2:0 bt:3:2 bt:4:10 bt:5:12 bt:5:13", 3558),
    "two K4": (
        lambda: Graph([(f"{s}{i}", f"{s}{j}") for s in "ab" for i in range(4) for j in range(i)]), 3, "a0 b0 b1", 2
    ),
    "path, edge, isolated": (
        lambda: Graph([("a", "b"), ("b", "c"), ("x", "y")], vertices=["q", "r"]), 4, "a q x r", 21
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_SEARCHES))
def test_exact_search_tree_is_pinned(case):
    make, value, witness, nodes = _PINNED_SEARCHES[case]
    result = burning_number_exact(make())
    assert (result.value, list(result.witness), result.stats.nodes) == (value, witness.split(), nodes)


def test_exact_runs_no_bfs_before_a_budget_stop(monkeypatch):
    """The root and the components come from the ball masks, so only the
    ball-cover bound of a budget stop runs a BFS."""
    shapes = [
        Graph([], vertices=["a", "b"]),
        Graph([("a", "b"), ("b", "c"), ("d", "e")]),
        Graph([("a", "b")], vertices=["a", "b", "z"]),
    ]
    cases = [(make(), value) for make, value, _, _ in _PINNED_SEARCHES.values()]
    cases += [(g, burning_number_naive(g).value) for g in shapes]

    def no_bfs(self, src):
        raise AssertionError("Graph.bfs called")

    monkeypatch.setattr(Graph, "bfs", no_bfs)
    for g, value in cases:
        assert burning_number_exact(g).value == value


@pytest.mark.parametrize("n, seed, budget, stop", [(80, 1, 1000, (5, 7, 1001)), (70, 2, 50, (5, 6, 51))])
def test_exact_budget_stop_is_pinned(n, seed, budget, stop):
    with pytest.raises(BudgetExceededError) as info:
        burning_number_exact(random_cubic(n, seed), node_budget=budget)
    assert (info.value.lower_bound, info.value.upper_bound, info.value.nodes) == stop


def test_exact_search_depth_is_not_bounded_by_recursion():
    g = Graph([], vertices=[f"v{i}" for i in range(300)])  # b = 300: one source each
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        result = burning_number_exact(g)
    finally:
        sys.setrecursionlimit(limit)
    assert result.value == 300


def _traced_peak(fn, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _distance_table(g):
    """The n-by-n table of BFS rows that the search does without."""
    return [g.bfs(v) for v in range(g.vertex_count)]


def test_exact_builds_no_masks_past_the_largest_eccentricity():
    """A matching of 100 edges has b = 101 and diameter 1: one mask set per
    radius would be 101 sets of 200 masks, several times the distance table,
    where the two sets of radii 0 and 1 are a small part of it."""
    g = Graph([(f"a{i}", f"b{i}") for i in range(100)])
    table = _traced_peak(_distance_table, g)
    assert _traced_peak(burning_number_exact, g) < 3 * table


def test_exact_set_up_holds_two_radii_of_masks():
    """On a 400-vertex path (D = 399) the masks of every radius up to D
    would take about 13 MB; the set-up grows them two radii at a time,
    within a few times one radius's mask set (about 35 KB)."""
    g = path_graph(400)
    one_radius = [(1 << 400) - 1] * 400
    size = sys.getsizeof(one_radius) + 400 * sys.getsizeof(one_radius[0])
    assert solvers._root_and_components(g.adj) == (399, 0, [0] * 400)
    assert _traced_peak(solvers._root_and_components, g.adj) < 5 * size


def test_exact_holds_less_than_a_distance_table():
    """On 2,000 vertices the n-by-n table of BFS rows alone takes about
    32 MB; a budget stop on that graph, with its ball masks and its
    ball-cover bound, stays below it."""
    g = random_cubic(2000, 1)

    def stop():
        with pytest.raises(BudgetExceededError) as info:
            burning_number_exact(g, node_budget=1000)
        assert (info.value.lower_bound, info.value.upper_bound, info.value.nodes) == (10, 13, 1001)

    assert _traced_peak(stop) < _traced_peak(_distance_table, g)


def test_exact_counters_repeat():
    g = random_cubic(58, 4)  # an exact-solve pool instance
    a, b = burning_number_exact(g).stats, burning_number_exact(g).stats
    assert (a.nodes, a.prunes) == (b.nodes, b.prunes)
    assert 0 < a.prunes < a.nodes


def test_path_cycle_numbers():
    assert path_cycle_burning_number(9, "path") == 3
    assert path_cycle_burning_number(1, "path") == 1
    assert path_cycle_burning_number(10, "cycle") == 4
    with pytest.raises(ValueError):
        path_cycle_burning_number(2, "cycle")
    with pytest.raises(ValueError):
        path_cycle_burning_number(5, "tree")


def test_path_witness_examples():
    for n in (1, 9, 10000):
        w = path_cycle_witness(n, "path")
        assert len(w) == ceil_sqrt(n)
        assert is_burning_sequence(path_graph(n), w)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=120, deadline=None)
def test_path_witness_validates(n):
    assert is_burning_sequence(path_graph(n), path_cycle_witness(n, "path"))


@given(st.integers(min_value=3, max_value=400))
@settings(max_examples=120, deadline=None)
def test_cycle_witness_validates(n):
    assert is_burning_sequence(cycle_graph(n), path_cycle_witness(n, "cycle"))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_exact_equals_naive_random(seed):
    import random

    n = random.Random(seed).randint(1, 9)
    g = random_connected_graph(n, seed)
    assert burning_number_exact(g).value == burning_number_naive(g).value


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_intro_upper_bound_random(seed):
    import random

    n = random.Random(seed).randint(1, 12)
    g = random_connected_graph(n, seed)
    assert burning_number_exact(g).value <= 2 * ceil_sqrt(n) - 1


def test_vc_k4(k4):
    result = vertex_cover_exact(k4)
    assert result.value == 3


def test_vc_p3_middle():
    result = vertex_cover_exact(path_graph(3))
    assert result.value == 1
    assert result.witness == frozenset({"v2"})


def test_vc_double_subdivision_of_k4(k4):
    gp, _, _ = double_subdivide(k4)
    assert vertex_cover_exact(gp).value == vertex_cover_exact(k4).value + 1


def test_vc_double_subdivision_of_single_edge():
    from burnkit.graph import Graph

    g = Graph([("a", "b")])
    gp, _, _ = double_subdivide(g)
    assert vertex_cover_exact(g).value == 1
    assert vertex_cover_exact(gp).value == 2


def test_vc_budget():
    with pytest.raises(BudgetExceededError):
        vertex_cover_exact(random_cubic(16, 1), node_budget=1)


def test_vc_budget_stop_bounds_bracket_the_optimum():
    g = random_cubic(16, 1)
    beta = vertex_cover_exact(g).value
    stops = 0
    for budget in range(1, 41):
        try:
            vertex_cover_exact(g, node_budget=budget)
        except BudgetExceededError as stop:
            stops += 1
            assert stop.lower_bound <= beta
            assert stop.upper_bound is None or beta <= stop.upper_bound
    assert stops > 0


def _triangles(t):
    return Graph([(f"t{i}{x}", f"t{i}{y}") for i in range(t) for x, y in ("ab", "bc", "ca")])


def test_vc_disjoint_triangles_prune_to_a_path():
    result = vertex_cover_exact(_triangles(300))
    assert result.value == 600
    assert result.stats.nodes <= 1000


def test_vc_search_depth_is_not_bounded_by_recursion():
    assert vertex_cover_exact(_triangles(1200)).value == 2400


def test_vc_empty_graph():
    result = vertex_cover_exact(Graph([]))
    assert result.value == 0
    assert result.witness == frozenset()


def test_vc_counters_repeat():
    g = random_cubic(40, 3)
    a, b = vertex_cover_exact(g).stats, vertex_cover_exact(g).stats
    assert (a.nodes, a.prunes, a.reductions) == (b.nodes, b.prunes, b.reductions)
    assert a.prunes > 0 and a.reductions > 0


def test_vc_witness_is_cover():
    for seed in range(5):
        g = random_cubic(12, seed)
        result = vertex_cover_exact(g)
        for u, v in g.edges():
            assert u in result.witness or v in result.witness
        assert len(result.witness) == result.value


def test_vc_cubic_bounds_up_to_20():
    for n, seed in [(18, 0), (18, 7), (20, 1), (20, 9)]:
        g = random_cubic(n, seed)
        beta = vertex_cover_exact(g).value
        assert n / 2 <= beta <= -(-2 * n // 3)


def _brute_force_vc(g):
    """Independent oracle: smallest subset covering all edges."""
    from itertools import combinations

    vertices = list(g.vertices)
    edges = list(g.edges())
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_vc_agrees_with_brute_force(seed):
    import random

    n = random.Random(seed).randint(2, 8)
    g = random_connected_graph(n, seed)
    assert vertex_cover_exact(g).value == _brute_force_vc(g)


def _greedy_matching(adj):
    used = set()
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


def reference_vertex_cover(g):
    """The copying branch-and-bound that ``vertex_cover_exact`` replaced, kept
    as the oracle: same pendant reduction, branching rule and branch order,
    a new adjacency dict per node and a greedy-matching bound."""
    base = {v: set(ws) for v, ws in enumerate(g.adj)}
    best = None

    def remove_vertex(adj, v):
        for w in adj.pop(v, set()):
            adj[w].discard(v)

    def bnb(adj, chosen):
        nonlocal best
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

    bnb(base, [])
    return frozenset(g.labels[v] for v in best)


def _suffixed(g, suffix):
    return [(u + suffix, v + suffix) for u, v in g.edges()], [v + suffix for v in g.vertices]


@st.composite
def _vc_graphs(draw):
    kind = draw(st.sampled_from(["connected", "cubic", "union", "isolated", "empty"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "connected":
        return random_connected_graph(draw(st.integers(min_value=1, max_value=14)), seed)
    if kind == "cubic":
        return random_cubic(draw(st.sampled_from(range(12, 25, 2))), seed)
    if kind == "union":
        # suffixes interleave the parts in index order
        edges, vertices = [], []
        for i in range(draw(st.integers(min_value=2, max_value=3))):
            part = random_connected_graph(draw(st.integers(min_value=1, max_value=8)), seed + i)
            e, v = _suffixed(part, "abc"[i])
            edges += e
            vertices += v
        return Graph(edges, vertices)
    if kind == "isolated":
        g = random_connected_graph(draw(st.integers(min_value=1, max_value=10)), seed)
        extra = [f"v{i}z" for i in range(draw(st.integers(min_value=1, max_value=4)))]
        return Graph(list(g.edges()), list(g.vertices) + extra)
    return Graph([])


@given(_vc_graphs())
@settings(max_examples=150, deadline=None)
def test_vc_matches_reference(g):
    result = vertex_cover_exact(g)
    assert result.witness == reference_vertex_cover(g)
    assert result.value == len(result.witness)


@pytest.mark.parametrize("n", [60, 72, 88])
def test_vc_matches_reference_on_cubic(n):
    g = random_cubic(n, 1)
    assert vertex_cover_exact(g).witness == reference_vertex_cover(g)


def _reference_balls(g, r):
    """Slow reference: the ball of v holds every vertex within distance r of v."""
    return [
        sum(1 << u for u, d in enumerate(g.bfs(v)) if 0 <= d <= r) for v in range(g.vertex_count)
    ]


def _assert_balls_match_distance_rows(g):
    balls = None
    for r in range(g.vertex_count + 1):  # the last radius adds nothing
        balls = _ball_masks(g.adj, balls)
        assert balls == _reference_balls(g, r), r


@pytest.mark.parametrize(
    "g",
    [
        path_graph(9),
        Graph([("a", "b"), ("b", "c"), ("d", "e")], vertices=["z"]),
        random_cubic(12, 3),
    ],
    ids=["path", "disconnected", "cubic"],
)
def test_ball_masks_match_distance_rows(g):
    _assert_balls_match_distance_rows(g)


@given(_vc_graphs())
@settings(max_examples=60, deadline=None)
def test_ball_masks_match_distance_rows_on_random_graphs(g):
    _assert_balls_match_distance_rows(g)


def reference_branches(dist, ecc, balls, radii, covered, chosen):
    """The table-driven ``_branches`` that the ball-mask one replaced, kept
    as the oracle: the target minimises, over the chosen (r, x), the gap
    d(v, x) - r by a scan of every uncovered vertex, and the centers come
    from a scan of the target's distance row."""
    n = len(dist)
    target, far = -1, -1
    for v in range(n):
        if covered >> v & 1:
            continue
        d = min(max(0, dist[v][x] - r) for r, x in chosen) if chosen else ecc[v]
        if d > far:
            target, far = v, d
    row = dist[target]
    for r in range(radii.bit_length() - 1, -1, -1):
        if radii >> r & 1:
            ball = balls[r]
            for _, x in sorted((-(ball[x] & ~covered).bit_count(), x) for x in range(n) if 0 <= row[x] <= r):
                yield r, x


@st.composite
def _search_states(draw):
    """A graph with the balls of radii 0..k-1 and a search node on it: the
    radii left (at least one), the (radius, center) pairs placed for the
    others, and the vertices those balls cover, which are not all."""
    g = draw(_vc_graphs().filter(lambda g: g.vertex_count > 0))
    n = g.vertex_count
    k = draw(st.integers(min_value=1, max_value=min(n, 7)))
    balls = [_ball_masks(g.adj, None)]
    while len(balls) < k:
        balls.append(_ball_masks(g.adj, balls[-1]))
    placed = draw(st.lists(st.sampled_from(range(k)), unique=True, max_size=k - 1))
    chosen = [(r, draw(st.integers(min_value=0, max_value=n - 1))) for r in sorted(placed, reverse=True)]
    covered = 0
    for r, x in chosen:
        covered |= balls[r][x]
    assume(covered != (1 << n) - 1)
    radii = (1 << k) - 1
    for r, _ in chosen:
        radii ^= 1 << r
    return g, balls, radii, covered, chosen


@given(_search_states())
@settings(max_examples=300, deadline=None)
def test_branches_match_the_table_oracle(state):
    g, balls, radii, covered, chosen = state
    dist = _distance_table(g)
    ecc = [max(row) for row in dist]
    diameter, root, comp = solvers._root_and_components(g.adj)
    assert (diameter, root) == (max(ecc), ecc.index(max(ecc)))
    assert comp == [min(u for u, d in enumerate(row) if d >= 0) for row in dist]
    expected = list(reference_branches(dist, ecc, balls, radii, covered, chosen))
    assert list(solvers._branches(balls, comp, root, radii, covered, chosen)) == expected


def reference_ball_cover(g):
    """The (centers, horizon) that ``_ball_cover_upper_bound`` repairs, from
    a farthest-first traversal run to the end over the distance table."""
    n = g.vertex_count
    dist = _distance_table(g)
    gap = [n if d < 0 else d for d in dist[0]]
    order = [0]
    length, count = n, n
    while True:
        radius = max(gap)
        if len(order) + radius < length:
            length, count = len(order) + radius, len(order)
        if radius == 0:
            break
        far = gap.index(radius)
        order.append(far)
        gap = [a if b < 0 or a <= b else b for a, b in zip(gap, dist[far])]
    return [g.labels[v] for v in order[:count]], length, len(order)


def test_early_stopped_ball_cover_matches_the_full_traversal(monkeypatch):
    repair = solvers._repair_sequence
    repaired, runs = [], []

    def spy_repair(g, intended, horizon):
        repaired.append((list(intended), horizon))
        return repair(g, intended, horizon)

    def counted_bfs(g, src):
        runs.append(src)
        return bfs(g, src)

    bfs = Graph.bfs
    graphs = [cycle_graph(n) for n in range(3, 60)] + [make_C(m).graph for m in (4, 5, 6, 7)]
    graphs += [random_cubic(n, seed) for n in range(60, 101, 4) for seed in (1, 2, 3)]
    for g in graphs:
        centers, length, traversed = reference_ball_cover(g)
        monkeypatch.setattr(solvers, "_repair_sequence", spy_repair)
        monkeypatch.setattr(Graph, "bfs", counted_bfs)
        upper = solvers._ball_cover_upper_bound(g)
        monkeypatch.undo()
        assert repaired == [(centers, length)]
        assert upper == len(repair(g, centers, length)[0])
        assert len(runs) < traversed  # one BFS per center, and fewer centers
        repaired.clear()
        runs.clear()
