from __future__ import annotations

import random
import tracemalloc
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import burning, cli, lift, reduction, solvers
from burnkit.burning import (
    _UNBURNED,
    BurningSequence,
    IncompleteScheduleError,
    InvalidSequenceError,
    _repair_sequence,
    frontier_burn_times,
    is_burning_sequence,
    last_step_set,
    read_sequence,
    simulate,
    uniquely_burned_set,
    write_sequence,
)
from burnkit.gadgets import make_C, make_C_witness
from burnkit.generators import complete_graph, path_graph, random_connected_graph
from burnkit.graph import (
    Graph,
    bfs_distances,
    degree_histogram,
    is_connected,
    is_regular,
    read_graph,
    write_graph,
)
from burnkit.solvers import path_cycle_witness


def test_single_vertex():
    g = Graph([], vertices=["v"])
    sch = simulate(g, ["v"])
    assert sch.burn_time == {"v": 1}
    assert sch.complete


def test_two_vertex_forced():
    g = Graph([("a", "b")])
    sch = simulate(g, ["a", "b"])
    assert sch.burn_time == {"a": 1, "b": 2}
    assert sch.responsible["b"] == frozenset({"a", "b"})
    assert sch.responsible["a"] == frozenset({"a"})
    assert last_step_set(sch) == frozenset({"b"})
    assert uniquely_burned_set(sch) == frozenset({"a"})
    assert not last_step_set(sch) & uniquely_burned_set(sch)


def test_duplicate_source_rejected():
    g = path_graph(3)
    with pytest.raises(InvalidSequenceError):
        simulate(g, ["v1", "v1"])
    with pytest.raises(ValueError):
        BurningSequence.of(["v1", "v1"])


def test_source_burned_strictly_earlier_rejected():
    g = path_graph(3)
    # v2 is burned at step 2 by v1's fire, so placing it at step 3 is invalid
    with pytest.raises(InvalidSequenceError):
        simulate(g, ["v1", "v3", "v2"])
    with pytest.raises(InvalidSequenceError):
        frontier_burn_times(g, ["v1", "v3", "v2"])


def test_source_reached_same_step_is_valid():
    g = Graph([("a", "b")])
    # b is reached by a's fire exactly at step 2, the step it is placed
    sch = simulate(g, ["a", "b"])
    assert sch.burn_time["b"] == 2


def test_is_burning_sequence_p3():
    g = path_graph(3)
    assert is_burning_sequence(g, ["v1", "v3"])
    assert not is_burning_sequence(g, ["v1"])
    assert not is_burning_sequence(g, ["v1", "v1"])


def test_c4_witness_validates():
    c4 = make_C(4)
    assert is_burning_sequence(c4.graph, make_C_witness(4))


def test_k4_last_step_and_unique(k4):
    sch = simulate(k4, ["v1", "v2"])
    assert last_step_set(sch) == frozenset({"v2", "v3", "v4"})
    ub = uniquely_burned_set(sch)
    # the two non-source last-step vertices are burned only by v1's fire
    assert sch.responsible["v3"] == frozenset({"v1"})
    assert sch.responsible["v4"] == frozenset({"v1"})
    assert {"v3", "v4"} <= ub


def test_incomplete_schedule_errors(k4):
    sch = simulate(k4, ["v1"])
    assert not sch.complete
    assert sch.unburned == frozenset({"v2", "v3", "v4"})
    with pytest.raises(IncompleteScheduleError):
        last_step_set(sch)
    with pytest.raises(IncompleteScheduleError):
        uniquely_burned_set(sch)


def test_sequence_text_roundtrip():
    seq = BurningSequence.of(["b", "a", "c"])
    text = write_sequence(seq)
    assert text == "b\na\nc\n"
    assert read_sequence("# comment\nb\n\na\nc\n") == seq


def _random_valid_sequence(g, rng):
    """Random valid burning sequence via the frontier process."""
    import random

    r = random.Random(rng)
    view_vertices = list(g.vertices)
    burned = {}
    frontier = []
    seq = []
    adj = {v: g.neighbors(v) for v in view_vertices}
    t = 0
    while len(burned) < len(view_vertices):
        t += 1
        new = []
        for u in frontier:
            for w in adj[u]:
                if w not in burned:
                    burned[w] = t
                    new.append(w)
        candidates = [v for v in view_vertices if burned.get(v, t) >= t and v not in seq]
        if not candidates:
            break
        pick = r.choice(candidates)
        if pick not in burned:
            burned[pick] = t
            new.append(pick)
        seq.append(pick)
        frontier = new
    return seq


def closed_form(g, seq):
    """Slow oracle: the per-source closed form ``T(v) = min_i (i + d(b_i, v))``.

    Returns ``(burn_time, responsible, unburned)`` as :func:`simulate` reports
    them.  A sequence is invalid at the earliest step ``j`` whose source some
    earlier source's fire reaches before ``j``; the error names the arrival
    time and, among the sources arriving then, the one placed earliest.
    """
    dist = [bfs_distances(g, b) for b in seq]

    def arrivals(v, steps):
        return {
            i: i + dist[i - 1][v]
            for i in range(1, steps + 1)
            if dist[i - 1].get(v) is not None
        }

    for j, b in enumerate(seq, start=1):
        arr = arrivals(b, j - 1)
        first = min(arr.values(), default=j)
        if first < j:
            cause = min(i for i, t in arr.items() if t == first)
            raise InvalidSequenceError(j, b, first, seq[cause - 1])
    k = len(seq)
    burn_time, responsible, unburned = {}, {}, set()
    for v in g.vertices:
        arr = arrivals(v, k)
        first = min(arr.values(), default=k + 1)
        if first > k:
            unburned.add(v)
            continue
        burn_time[v] = first
        responsible[v] = frozenset(seq[i - 1] for i, t in arr.items() if t == first)
    return burn_time, responsible, frozenset(unburned)


def _error_fields(engine, g, seq):
    with pytest.raises(InvalidSequenceError) as info:
        engine(g, seq)
    exc = info.value
    return exc.step, exc.source, exc.burned_step, exc.cause


_PATH = ["a1", "p", "q", "x", "a2", "c1", "c2", "c3", "a3", "d1", "d2", "d3", "a4"]


@pytest.mark.parametrize(
    "edges, seq, fields",
    [
        # x is reached by a1's fire at step 4 but by a2's already at step 3
        (list(zip(_PATH, _PATH[1:])), ["a1", "a2", "a3", "a4", "x"], (5, "x", 3, "a2")),
        # the process fails at step 3, before the later source w is due
        (
            [("a1", "x"), ("a1", "w"), ("a1", "p"), ("p", "q"), ("q", "b")],
            ["a1", "b", "x", "w"],
            (3, "x", 2, "a1"),
        ),
        # a duplicate is burned by its own first placement and by a's fire
        ([("a", "b")], ["a", "b", "b"], (3, "b", 2, "a")),
    ],
)
def test_invalid_sequence_error_fields(edges, seq, fields):
    """Both engines report the earliest bad step, the source's true burn
    time, and the earliest-placed source responsible for it."""
    g = Graph(edges)
    for engine in (closed_form, simulate, frontier_burn_times):
        assert _error_fields(engine, g, seq) == fields


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=80, deadline=None)
def test_engines_agree(seed):
    """Burn times of both engines equal the closed form's, on a valid sequence
    and on each of its prefixes."""
    import random

    n = random.Random(seed).randint(2, 10)
    g = random_connected_graph(n, seed)
    seq = _random_valid_sequence(g, seed)
    for end in range(1, len(seq) + 1):
        burn_time, _, _ = closed_form(g, seq[:end])
        assert simulate(g, seq[:end]).burn_time == burn_time
        assert frontier_burn_times(g, seq[:end]) == burn_time


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_invalidity(seed):
    """Appending a vertex that is already burned, or drawing sources at
    random (repeats allowed), makes both engines raise exactly when the
    closed form does, with the same error fields, and
    ``is_burning_sequence`` false then; otherwise it is the closed form's
    completeness."""
    import random

    r = random.Random(seed)
    n = r.randint(2, 10)
    g = random_connected_graph(n, seed)
    seq = _random_valid_sequence(g, seed)
    burn_time, _, _ = closed_form(g, seq)
    already = sorted(v for v in burn_time if v not in seq)
    candidates = [[r.choice(g.vertices) for _ in range(r.randint(1, n + 2))]]
    if already:
        candidates.append(list(seq) + [already[0]])
    for bad in candidates:
        try:
            burn_time, _, _ = closed_form(g, bad)
        except InvalidSequenceError as exc:
            fields = (exc.step, exc.source, exc.burned_step, exc.cause)
            assert _error_fields(simulate, g, bad) == fields
            assert _error_fields(frontier_burn_times, g, bad) == fields
            assert is_burning_sequence(g, bad) is False
        else:
            assert bad is candidates[0]  # an appended burned vertex is invalid
            assert simulate(g, bad).burn_time == burn_time
            assert frontier_burn_times(g, bad) == burn_time
            assert is_burning_sequence(g, bad) is (len(burn_time) == g.vertex_count)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_responsible_sets_match_definition(seed):
    """S_v is exactly the set of sources whose fire arrives at v at its burn
    time, and the unburned set is what no fire reaches, on a valid sequence
    and on each of its prefixes."""
    import random

    n = random.Random(seed).randint(2, 9)
    g = random_connected_graph(n, seed)
    seq = _random_valid_sequence(g, seed)
    for end in range(1, len(seq) + 1):
        _, responsible, unburned = closed_form(g, seq[:end])
        sch = simulate(g, seq[:end])
        assert sch.responsible == responsible
        assert sch.unburned == unburned


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=80, deadline=None)
def test_burned_by_k_iff_burning_sequence(seed):
    import random

    n = random.Random(seed).randint(2, 10)
    g = random_connected_graph(n, seed)
    seq = _random_valid_sequence(g, seed)
    sch = simulate(g, seq)
    assert sch.complete == is_burning_sequence(g, seq)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=80, deadline=None)
def test_burned_set_is_union_of_balls(seed):
    """The burned set after k steps is exactly the union of the balls of
    radius k - i around the i-th source (checked against the frontier
    engine, which never computes distances)."""
    import random

    n = random.Random(seed).randint(2, 10)
    g = random_connected_graph(n, seed)
    seq = _random_valid_sequence(g, seed)
    k = len(seq)
    expected = set()
    for i, src in enumerate(seq, start=1):
        dm = bfs_distances(g, src)
        expected |= {v for v, d in dm.dist.items() if d <= k - i}
    assert set(frontier_burn_times(g, seq)) == expected


def test_swapping_far_apart_sources_can_change_the_burned_set():
    """Exchanging sources i < j with d(b_i, b_j) >= j - i preserves pairwise
    placement validity for the pair, but it can still shrink the burned set:
    on the path b - xx - a - v, (a, b) burns everything while (b, a) strands
    v.  The naive exchange heuristic is therefore not an invariant."""
    g = Graph([("b", "xx"), ("xx", "a"), ("a", "v")])
    assert bfs_distances(g, "a")["b"] == 2  # >= j - i = 1
    original = simulate(g, ["a", "b"])
    swapped = simulate(g, ["b", "a"])  # still a valid placement order
    assert original.complete
    assert not swapped.complete
    assert set(swapped.burn_time) < set(original.burn_time)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_repair_verdict_is_is_burning_sequence(seed):
    """The repair's verdict is ``is_burning_sequence`` of what it returns, for
    intended lists holding ``None``, repeated and unplaceable entries and
    every horizon from 1 to n; the result never repeats a label.  Horizon 1
    cannot burn two vertices and horizon n always burns the graph, so both
    verdicts occur."""
    import random

    r = random.Random(seed)
    n = r.randint(1, 10)
    g = random_connected_graph(n, seed)
    choices = list(g.vertices) + [None]
    verdicts = set()
    for _ in range(4):
        intended = [r.choice(choices) for _ in range(r.randint(0, n + 2))]
        if intended:  # a repeat is unplaceable once its first copy is placed
            intended.insert(r.randint(0, len(intended)), r.choice(intended))
        for horizon in range(1, n + 1):
            result, burns_all = _repair_sequence(g, intended, horizon)
            assert len(set(result)) == len(result) <= horizon
            assert burns_all == is_burning_sequence(g, result)
            verdicts.add(burns_all)
    assert verdicts == ({True} if n == 1 else {True, False})


def _failing_repair(truncate):
    """The repair with its verdict forced to ``False`` and, with ``truncate``,
    its last source dropped."""

    def repair(g, intended, horizon):
        result, _ = _repair_sequence(g, intended, horizon)
        return (result[:-1] if truncate else result), False

    return repair


def test_callers_still_check_the_repair_verdict(monkeypatch):
    """A repair that reports a failed burn makes each solver raise its own
    internal error, so reading the verdict keeps the checks live.  The lift
    has no verdict to read: it burns only the base, never H_d."""
    lifted = lift.build_Hd(complete_graph(4), 4)
    burned = []
    burn = burning._burn

    def recorded(g, *args):
        burned.append(g)
        return burn(g, *args)

    monkeypatch.setattr(burning, "_burn", recorded)
    lift.lift_sequence(lifted, ["v1", "v2"])
    monkeypatch.undo()
    assert burned == [lifted.base]

    c4 = Graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    monkeypatch.setattr(solvers, "_repair_sequence", _failing_repair(False))
    with pytest.raises(solvers.SolverError, match="^internal: repaired witness failed validation$"):
        solvers.burning_number_exact(c4)
    monkeypatch.setattr(solvers, "_repair_sequence", _failing_repair(True))
    with pytest.raises(solvers.SolverError, match="^no placeable source; cover was not minimal$"):
        solvers.burning_number_exact(c4)
    with pytest.raises(solvers.SolverError, match="^internal: ball-cover sequence failed validation$"):
        solvers._ball_cover_upper_bound(c4)


def test_unburned_sentinel_is_one_digit_and_above_every_step():
    """``_UNBURNED`` fits one 30-bit digit of CPython's int, so the kernel's
    ``time[w] > t`` stays on the int fast path, and it is above every step
    the process reaches: a step never exceeds n + 1, and n stays far below
    it for every graph the package builds."""
    assert 0 < _UNBURNED < 1 << 30
    assert _UNBURNED > reduction._MAX_H_VERTICES + 1
    assert _UNBURNED > lift._MAX_HD_EDGES // 2 + 1  # H_d has 2E/d <= E/2 vertices
    graphs = [
        Graph([], vertices=["v"]),
        path_graph(9),
        complete_graph(5),
        Graph([("a", "b"), ("c", "d")], vertices=["e"]),
    ]
    for g in graphs:
        time, _, placed = burning._burn(g, [], _UNBURNED + 10)
        assert _UNBURNED not in time
        assert len(placed) <= g.vertex_count  # so no step run passes n + 1
        assert max(time) <= g.vertex_count


@st.composite
def skewed_graphs(draw):
    """A graph of skewed degrees and its edge list: up to three hubs joined
    to many of up to 30 other vertices, a few edges among those, and
    isolated vertices, given to the constructor in shuffled order.  W is
    capped at 4m/n, so a hub's row often runs into the overflow map, rows of
    low degree are padded, and with few edges W is 0."""
    hubs = [f"h{i}" for i in range(draw(st.integers(1, 3)))]
    others = [f"v{i:02d}" for i in range(draw(st.integers(2, 30)))]
    edges = set()
    for hub in hubs:
        edges.update((hub, v) for v in draw(st.sets(st.sampled_from(others))))
    for _ in range(draw(st.integers(0, len(others)))):
        u, v = sorted(draw(st.lists(st.sampled_from(others), min_size=2, max_size=2)))
        if u != v:
            edges.add((u, v))
    edges = sorted(edges)
    return Graph(draw(st.permutations(edges)), vertices=hubs + others), edges


def _queue_distances(rows, src):
    """Hop distances from ``src`` over an adjacency dict, by a FIFO queue."""
    dist = {src: 0}
    queue = deque((src,))
    while queue:
        u = queue.popleft()
        for w in sorted(rows[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@given(skewed_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_skewed_graphs_match_the_oracles(case, rnd):
    """On padded rows, overflow rows and isolated vertices, the column
    readers agree with the edge list: BFS distances with a queue BFS, burn
    times, responsible sets, invalid placements and the verdict of
    ``is_burning_sequence`` with the closed form, degrees, regularity, rows
    and edges, and write/read round trips."""
    g, edges = case
    rows = {v: set() for v in g.vertices}
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    for src in g.vertices:
        assert bfs_distances(g, src).dist == _queue_distances(rows, src)
    assert is_connected(g) == (len(_queue_distances(rows, g.vertices[0])) == g.vertex_count)
    assert g.adj == [tuple(sorted(map(g._at, rows[v]))) for v in g.vertices]
    assert list(g.edges()) == edges
    degrees = Counter(map(len, rows.values()))
    assert degree_histogram(g) == dict(sorted(degrees.items()))
    for d in {0, 1, 2, 3, len(g.cols), *degrees}:
        assert is_regular(g, d) == (set(degrees) <= {d})

    seq = rnd.sample(list(g.vertices), rnd.randint(1, min(6, g.vertex_count)))
    try:
        burn_time, responsible, unburned = closed_form(g, seq)
    except InvalidSequenceError as exc:
        fields = (exc.step, exc.source, exc.burned_step, exc.cause)
        assert _error_fields(simulate, g, seq) == fields
        assert _error_fields(frontier_burn_times, g, seq) == fields
        assert is_burning_sequence(g, seq) is False
    else:
        assert frontier_burn_times(g, seq) == burn_time
        sch = simulate(g, seq)
        assert (sch.burn_time, sch.responsible, sch.unburned) == (burn_time, responsible, unburned)
        assert is_burning_sequence(g, seq) is not unburned

    if edges:  # edge-list text cannot hold the isolated vertices
        linked = Graph(edges)
        back = read_graph(write_graph(linked))
        assert (back.labels, back.cols, back.over) == (linked.labels, linked.cols, linked.over)
        assert back.adj == linked.adj


def _row_major_burn(g, steps, choose):
    """The kernel as it stood with a tuple of neighbours per vertex: each
    step walks the frontier in order and each row in order."""
    adj = tuple(g.adj)
    time = [_UNBURNED] * g.vertex_count + [0]
    order, placed, frontier = [], [], []
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


def _row_major_responsible(g, time, order, placed):
    """``_responsible`` as it stood: one pass over each burned vertex's row."""
    adj, labels = tuple(g.adj), g.labels
    own = {b: frozenset((labels[b],)) for b in placed}
    resp = [None] * g.vertex_count
    for v in order:
        prev = time[v] - 1
        r = own.get(v)
        for u in adj[v]:
            if time[u] == prev:
                s = resp[u]
                r = s if r is None else r | s
        resp[v] = r
    return resp


def _repair_policy(want):
    """The kernel's step policy as a ``choose`` of :func:`_row_major_burn`:
    ``want[t - 1]`` if given and not burned before ``t``, else the smallest
    unburned vertex, else the smallest vertex burned exactly at ``t``."""

    def choose(t, time):
        b = want[t - 1] if t <= len(want) else None
        if b is not None and time[b] >= t:
            return b
        for mark in (_UNBURNED, t):
            if mark in time:
                return time.index(mark)
        return None

    return choose


def _row_major_error(g, src):
    """The fields of ``InvalidSequenceError`` for the index sources ``src``
    by the row-major kernel and responsible sets, or ``None`` if valid."""
    time, order, placed = _row_major_burn(g, len(src), lambda t, _time: src[t - 1])
    if len(placed) == len(src):
        return None
    b = src[len(placed)]
    resp = _row_major_responsible(g, time, order, placed)
    step = {g.labels[v]: i for i, v in enumerate(placed)}
    return len(placed) + 1, g.labels[b], time[b], min(resp[b], key=step.__getitem__)


def _assert_step_order_only_changed(g, sources):
    """The column kernel burns the same vertices at the same steps as the
    row-major one and counts them, ``frontier_burn_times`` lists each step's
    vertices in index order, and the schedule walk gives the kernel's burn
    steps and the row-major responsible sets."""
    src = [g._at(v) for v in sources]
    time, burned, placed = burning._burn(g, src, len(src))
    ref_time, ref_order, ref_placed = _row_major_burn(g, len(src), lambda t, _time: src[t - 1])
    assert (time, burned, placed) == (ref_time, len(ref_order), ref_placed)
    by_step = sorted(ref_order, key=lambda v: (time[v], v))
    assert list(frontier_burn_times(g, sources)) == [g.labels[v] for v in by_step]
    k, schedule_time, masks = burning._schedule(g, sources)
    assert (k, schedule_time) == (len(placed), time)
    labels = [g.labels[b] for b in placed]
    resp = [frozenset(b for i, b in enumerate(labels) if m >> i & 1) if m else None for m in masks]
    assert resp == _row_major_responsible(g, ref_time, ref_order, ref_placed)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=80, deadline=None)
def test_burn_order_within_a_step_is_index_order(seed):
    """``frontier_burn_times`` lists vertices by burn step, then by label
    (index order); the step of each vertex, the burned count, the responsible
    sets, the error fields of an invalid placement and the repair's result
    are the row-major kernel's, on valid, extended and repaired sequences of
    random connected graphs."""
    r = random.Random(seed)
    g = random_connected_graph(r.randint(2, 12), seed)
    seq = _random_valid_sequence(g, seed)
    times = frontier_burn_times(g, seq)
    assert list(times.items()) == sorted(times.items(), key=lambda item: (item[1], item[0]))
    _assert_step_order_only_changed(g, seq)
    bad = seq + [r.choice(g.vertices)]
    want_error = _row_major_error(g, [g._at(v) for v in bad])
    if want_error is None:
        _assert_step_order_only_changed(g, bad)
    else:
        assert _error_fields(simulate, g, bad) == want_error
    intended = [r.choice([None, *g.vertices]) for _ in range(r.randint(0, g.vertex_count))]
    horizon = r.randint(1, g.vertex_count)
    want = [None if v is None else g._at(v) for v in intended]
    _, order, placed = _row_major_burn(g, horizon, _repair_policy(want))
    verdict = bool(placed) and len(order) == g.vertex_count
    assert _repair_sequence(g, intended, horizon) == ([g.labels[b] for b in placed], verdict)


def test_step_order_only_changed_on_h(k4_instance):
    """The same on the K4 reduction graph H with its witness, whose steps
    burn thousands of vertices each."""
    inst = k4_instance
    cover = solvers.vertex_cover_exact(inst.g_prime).witness
    _assert_step_order_only_changed(inst.h_graph, list(reduction.vc_to_witness(inst, cover)))


def _schedule_readers(inst, seq, tmp_path, capsys):
    """What each reader of a schedule makes of ``seq`` on ``inst``'s H: the
    value, or the ``InvalidSequenceError`` fields, of ``_schedule``,
    ``simulate`` and ``frontier_burn_times``, the audit report, and the CLI
    ``burn`` report."""
    g = inst.h_graph
    outcomes = []
    for engine in (burning._schedule, simulate, frontier_burn_times):
        try:
            outcomes.append(engine(g, seq))
        except InvalidSequenceError as exc:
            outcomes.append((exc.step, exc.source, exc.burned_step, exc.cause))
    outcomes.append(reduction.audit_sequence(inst, seq))
    (tmp_path / "s.seq").write_text(write_sequence(seq), encoding="utf-8")
    assert cli.main(["burn", str(tmp_path / "h.g"), str(tmp_path / "s.seq")]) == 0
    outcomes.append(capsys.readouterr().out)
    return outcomes


def test_a_schedule_runs_no_kernel_walk(k4_instance, tmp_path, capsys):
    """A schedule is one walk of its own: with the kernel ``_burn`` made to
    raise, every reader of a schedule gives what it gives with the kernel,
    on the K4 H witness (complete) and on it with one more source (invalid:
    that source burned before its step)."""
    inst = k4_instance
    (tmp_path / "h.g").write_text(write_graph(inst.h_graph), encoding="utf-8")
    witness = list(reduction.vc_to_witness(inst, solvers.vertex_cover_exact(inst.g_prime).witness))
    extra = random.Random(5).choice(sorted(set(inst.h_graph.labels) - set(witness)))
    reports = []
    for seq in (witness, witness + [extra]):
        want = _schedule_readers(inst, seq, tmp_path, capsys)
        with mock.patch.object(burning, "_burn", side_effect=AssertionError("kernel walk")):
            assert _schedule_readers(inst, seq, tmp_path, capsys) == want
        reports.append(want[-1])
    assert "valid\ttrue\ncomplete\ttrue\n" in reports[0]
    assert "valid\tfalse\n" in reports[1]


def test_schedule_holds_burn_times_masks_and_one_step():
    """A schedule keeps each vertex's burn step and responsible mask and one
    step's vertices: on P_200000 with its ceil(sqrt n)-source witness, whose
    steps hold at most 2 vertices per source, it peaks below 1.25 times the
    two 8-byte-per-vertex lists (1.14 measured).  A burn-order list would
    add about 32 bytes per vertex, a second copy of either list 8."""
    n = 200_000
    g = path_graph(n)
    seq = list(path_cycle_witness(n, "path"))
    tracemalloc.start()
    try:
        k, time, resp = burning._schedule(g, seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (k, time.count(_UNBURNED), resp.count(0)) == (len(seq), 0, 0)
    assert peak < 1.25 * 8 * (2 * n + 1)


def test_kernel_holds_burn_times_and_one_frontier():
    """The kernel keeps each vertex's burn step and the current frontier, and
    lists no burned vertex: on P_200000 with its ceil(sqrt n)-source witness,
    whose frontier holds at most 2 vertices per source, checking the
    sequence peaks below 1.5 times the 8-byte-per-vertex ``time`` list.  A
    burn-order list would add about 32 bytes per vertex."""
    n = 200_000
    g = path_graph(n)
    seq = list(path_cycle_witness(n, "path"))
    tracemalloc.start()
    try:
        burns = is_burning_sequence(g, seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burns
    assert peak < 1.5 * 8 * (n + 1)
