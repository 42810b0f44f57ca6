from __future__ import annotations

import dataclasses
import gc
import itertools
from array import array
import random
import sys
import time
import tracemalloc

import pytest

from burnkit import burning, lift
from burnkit.burning import (
    BurningSequence,
    InvalidSequenceError,
    _repair_sequence,
    frontier_burn_times,
    is_burning_sequence,
    last_step_set,
    simulate,
    uniquely_burned_set,
)
from burnkit.generators import random_cubic
from burnkit.graph import Graph, _BlockLabels, bfs_distances, is_connected, is_regular, write_graph
from burnkit.lift import (
    BadDegreeError,
    InputNotValidError,
    LiftedGraph,
    LiftError,
    LiftTooLargeError,
    build_Hd,
    lift_sequence,
    project_sequence,
    project_vertex,
    split_label,
)
from burnkit.reduction import build_H, vc_to_witness
from burnkit.solvers import burning_number_exact, burning_number_naive, vertex_cover_exact


def test_build_hd_shapes(k4):
    for d in (4, 5, 6):
        lifted = build_Hd(k4, d)
        assert lifted.graph.vertex_count == (d - 2) * 4
        assert is_regular(lifted.graph, d)
        assert is_connected(lifted.graph)
        cliques = {}
        for label in lifted.graph.vertices:
            j, v = split_label(label)
            cliques.setdefault(v, []).append(j)
        assert cliques.keys() == set(k4.vertices)
        for v, copies in cliques.items():
            assert sorted(copies) == list(range(1, d - 1))
            for a, b in itertools.combinations(copies, 2):
                assert lifted.graph.has_edge(f"copy{a}:{v}", f"copy{b}:{v}")


def reference_hd(base, d):
    """Slow reference: H_d as the string edge list of its definition."""
    copies = d - 2
    edges = []
    for j in range(1, copies + 1):
        for u, v in base.edges():
            edges.append((f"copy{j}:{u}", f"copy{j}:{v}"))
    for v in base.vertices:
        edges += itertools.combinations([f"copy{j}:{v}" for j in range(1, copies + 1)], 2)
    return Graph(edges)


def standalone(lifted, d_prime):
    """H_d' built on its own, as a reference for projection onto it: the
    base for d' = 3, else ``build_Hd(lifted.base, d')``'s graph."""
    return lifted.base if d_prime == 3 else build_Hd(lifted.base, d_prime).graph


@pytest.mark.parametrize("d", [4, 5, 12])
def test_build_hd_matches_reference(k4, k33, prism, d):
    # at d = 12, copy10: sorts before copy1:, so index order is not (copy, base index)
    for base in (k4, k33, prism, random_cubic(16, 3)):
        lifted = build_Hd(base, d)
        ref = reference_hd(base, d)
        g = lifted.graph
        assert g.vertices == ref.vertices
        assert g.edge_count == ref.edge_count
        assert list(g.edges()) == list(ref.edges())
        assert g.adj == ref.adj
        assert all(g.neighbors(v) == ref.neighbors(v) for v in ref.vertices)


@pytest.mark.parametrize("d", [4, 5, 12])
def test_build_hd_columns_match_a_per_entry_shift(k4_instance, d):
    """On the K4 H (80,294 vertices, several chunks of ``_shift_into`` and a
    last partial one), block k's part of column c is twin block c for c < k,
    base column c - k shifted by k·n for c < k + 3, else twin block c - 2:
    checked entry by entry against that shift made one int at a time."""
    base = k4_instance.h_graph
    n = base.vertex_count
    assert n % lift._SHIFT_CHUNK
    g = build_Hd(base, d).graph
    assert len(g.cols) == d
    for k in range(d - 2):
        for c, col in enumerate(g.cols):
            if k <= c < k + 3:
                ref = array("i", (w + k * n for w in base.cols[c - k]))
            else:
                j = c if c < k else c - 2
                ref = array("i", range(j * n, j * n + n))
            assert col[k * n : k * n + n] == ref, (k, c)


@pytest.mark.parametrize("d", [4, 5, 12, 13])
def test_label_view_reads_as_the_reference_tuple(k4, prism, d):
    """The label table of H_d behaves as the reference's label tuple wherever
    callers read it: length, every index both ways, IndexError one past
    either end (no division by an empty base's n), slices as tuples,
    iteration, ``==`` both ways, no hash."""
    for base in (k4, prism, random_cubic(16, 3), Graph([])):
        ref = reference_hd(base, d).labels
        labels = build_Hd(base, d).graph.labels
        n = len(ref)
        assert len(labels) == n
        assert [labels[i] for i in range(-n, n)] == list(ref + ref)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                labels[i]
        cuts = (slice(None), slice(1, None), slice(-3), slice(3, n // 2, 2), slice(None, None, -5))
        for cut in cuts:
            assert labels[cut] == ref[cut] and type(labels[cut]) is tuple
        assert list(labels) == [labels[i] for i in range(n)]
        assert labels == ref and ref == labels
        assert (labels != ref[:-1]) == (ref[1:] != labels) == (n > 0)
        with pytest.raises(TypeError):
            hash(labels)


def test_whole_graph_walks_read_the_label_view_once(monkeypatch):
    """``write_graph`` and ``edges`` make H_d's labels once, not once per
    edge end, and write what the reference's string edge list writes."""
    base = random_cubic(200, 1)
    g = build_Hd(base, 5).graph
    view = type(g.labels)
    calls = 0
    read = view.__getitem__

    def counted(self, i):
        nonlocal calls
        calls += 1
        return read(self, i)

    monkeypatch.setattr(view, "__getitem__", counted)
    text = write_graph(g)
    edges = list(g.edges())
    monkeypatch.undo()
    assert calls < g.vertex_count
    ref = reference_hd(base, 5)
    assert text == write_graph(ref)
    assert edges == list(ref.edges())


def test_an_empty_base_lifts_at_once():
    """The edge cap reads 0 edges for the empty base at any d, so its lift
    makes no prefix and lays out no column: H_d is empty, still a label
    view (with no hash), however large d is."""
    start = time.perf_counter()
    g = build_Hd(Graph([]), 10**6).graph
    assert time.perf_counter() - start < 1
    assert (g.vertex_count, g.edge_count, g.cols, g.over) == (0, 0, (), {})
    assert type(g.labels) is _BlockLabels and g.labels.prefixes == ()
    assert g.labels == () and list(g.edges()) == []


def test_nested_label_view_reads_its_inner_view_once(k4_instance):
    """H_d of an in-memory H is a label view over H's label view: iterating
    it makes the inner view's labels once, not once per copy."""
    h = k4_instance.h_graph.labels
    reads = []

    class Counted(_BlockLabels):
        __slots__ = ()

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

        def __getitem__(self, i):
            reads.append("item")
            return super().__getitem__(i)

    inner = Counted(h.prefixes, h.suffixes, h.tail)
    prefixes = ("copy10:", "copy1:", "copy2:")
    labels = tuple(_BlockLabels(prefixes, inner))
    assert reads == ["iter"]
    assert labels == tuple(p + v for p in prefixes for v in h)


def test_projection_does_not_build_hd(k4, monkeypatch):
    lifted = build_Hd(k4, 6)
    seq = lift_sequence(lifted, ["v1", "v2"])

    def no_build(*args):
        raise AssertionError("build_Hd called")

    monkeypatch.setattr(lift, "build_Hd", no_build)
    projected = project_sequence(lifted, seq, 4)
    monkeypatch.undo()
    assert projected == project_sequence(build_Hd(k4, 6), seq, 4)
    assert is_burning_sequence(build_Hd(k4, 4).graph, projected)


def _retained(call, *args):
    """Bytes still held after ``call(*args)``, its result kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return retained


def test_lifted_graph_retains_only_labels_and_adjacency():
    """H_5 of a 1000-vertex base holds its label view and its adjacency, W·n
    four-byte column entries, and next to nothing else: no label string, no
    object per vertex, no spare slots (a tuple of the labels beside them is
    several times that, and a label -> index dict more again)."""
    base = random_cubic(1000, 1)
    g = build_Hd(base, 5).graph
    floor = sys.getsizeof(g.labels) + len(g.cols) * g.vertex_count * 4
    del g
    assert _retained(lambda: build_Hd(base, 5).graph) <= 1.05 * floor


def test_build_hd_adjacency_is_d_int_columns():
    """H_d is d-regular, so its adjacency is d ``array('i')`` columns of one
    entry per vertex, with no padding and no overflow row: a lifted graph
    holds no object per vertex."""
    for d in (4, 5, 12):
        g = build_Hd(random_cubic(200, 1), d).graph
        assert len(g.cols) == d and g.over == {}
        assert all(type(col) is array and col.typecode == "i" for col in g.cols)
        assert all(len(col) == g.vertex_count for col in g.cols)
        assert g.vertex_count not in g.cols[-1]  # no padding sentinel


def test_build_hd_rejects_bad_inputs(k4):
    from burnkit.generators import path_graph

    with pytest.raises(BadDegreeError):
        build_Hd(k4, 3)
    with pytest.raises(LiftError):
        build_Hd(path_graph(4), 4)


def test_build_hd_cap_is_on_the_closed_form_edge_count(k4, prism, monkeypatch):
    """(d - 2)·|V| vertices of degree d: the cap admits H_d with exactly
    ``_MAX_HD_EDGES`` edges and refuses one more, whatever the base's shape."""
    cap = lift._MAX_HD_EDGES
    for base in (k4, prism):
        for d in (4, 5, 12):
            edges = build_Hd(base, d).graph.edge_count
            assert edges == (d - 2) * base.vertex_count * d // 2
            monkeypatch.setattr(lift, "_MAX_HD_EDGES", edges)
            assert build_Hd(base, d).graph.edge_count == edges
            monkeypatch.setattr(lift, "_MAX_HD_EDGES", edges - 1)
            message = f"^H_{d} has {edges} edges, over the lift's cap of {edges - 1}$"
            with pytest.raises(LiftTooLargeError, match=message):
                build_Hd(base, d)
            monkeypatch.setattr(lift, "_MAX_HD_EDGES", cap)
    from burnkit.generators import path_graph

    # refused before the base is looked at
    with pytest.raises(LiftTooLargeError):
        build_Hd(path_graph(4), 10**6)
    # d and the edge count have more digits than str prints: the message
    # gives each as a power of two it reaches
    message = "^H_at least 2\\*\\*16609 has at least 2\\*\\*33220 edges, over the lift's cap"
    with pytest.raises(LiftTooLargeError, match=message):
        build_Hd(k4, 10**5000)


def test_projection_definitions():
    assert project_vertex("copy3:a", 4) == "copy1:a"
    assert project_vertex("copy1:a", 4) == "copy1:a"
    assert project_vertex("copy2:a", 3) == "a"
    assert split_label("copy12:v:x") == (12, "v:x")
    with pytest.raises(LiftError):
        split_label("nope")


@pytest.mark.parametrize(
    "label",
    ["copy-1:a", "copy+3:a", "copy 2:a", "copy2 :a", "copy0:a", "copy01:a", "copy1_0:a",
     "copy\u0663:a", "copy:a", "copy1:", "copy1", "copz1:a", "xcopy1:a", "copy" + "9" * 5000 + ":a"],
)
def test_split_label_rejects_what_no_lifted_graph_has(label):
    """Only labels that copy<j>:<v> formatting gives back, with j >= 1."""
    with pytest.raises(LiftError):
        split_label(label)
    with pytest.raises(LiftError):
        project_vertex(label, 4)


def test_project_vertex_rejects_degree_below_three():
    for d_prime in (2, 0, -1):
        with pytest.raises(BadDegreeError):
            project_vertex("copy1:a", d_prime)


def test_projection_preserves_order():
    seq = ["copy1:v1", "copy3:v2", "copy2:v3"]
    assert [project_vertex(v, 4) for v in seq] == ["copy1:v1", "copy1:v2", "copy2:v3"]


def test_twin_distance_law(k4):
    lifted = build_Hd(k4, 5)
    dm = bfs_distances(lifted.graph, "copy1:v1")
    same_copy = bfs_distances(lifted.graph, "copy1:v1")
    for j in (2, 3):
        for v in k4.vertices:
            if v == "v1":
                assert dm[f"copy{j}:{v}"] == 1
            else:
                assert dm[f"copy{j}:{v}"] == same_copy[f"copy1:{v}"] + 1


def test_projection_never_increases_distance(k4):
    lifted = build_Hd(k4, 6)
    g = lifted.graph
    verts = list(g.vertices)
    sub = standalone(lifted, 4)
    for u in verts[::3]:
        dm = bfs_distances(g, u)
        pu = project_vertex(u, 4)
        dmp = bfs_distances(sub, pu)
        for v in verts[::4]:
            assert dmp[project_vertex(v, 4)] <= dm[v]


def test_lift_sequence_k4(k4):
    for d in (4, 6):
        lifted = build_Hd(k4, d)
        result = lift_sequence(lifted, ["v1", "v2"])
        assert len(result) == 3
        assert is_burning_sequence(lifted.graph, result)


def test_lift_sequence_rejects_invalid_base(k4):
    lifted = build_Hd(k4, 4)
    with pytest.raises(InputNotValidError):
        lift_sequence(lifted, ["v1"])


def test_bounds_small_bases(k4, k33, prism):
    for base in (k4, k33, prism):
        b = burning_number_exact(base).value
        for d in (4, 5, 6):
            lifted = build_Hd(base, d)
            bd = burning_number_exact(lifted.graph).value
            assert b <= bd <= b + 1


def test_monotone_chain(k4, k33, prism):
    for base in (k4, k33, prism):
        values = [burning_number_exact(base).value]
        for d in (4, 5, 6):
            values.append(burning_number_exact(build_Hd(base, d).graph).value)
        assert values == sorted(values)
        assert values[-1] <= values[0] + 1


def test_h4_k4_is_three(k4):
    assert burning_number_exact(build_Hd(k4, 4).graph).value == 3


def test_every_optimal_k4_sequence_has_bl_ub(k4):
    b = burning_number_naive(k4).value
    count = 0
    for perm in itertools.permutations(k4.vertices, b):
        if is_burning_sequence(k4, list(perm)):
            sch = simulate(k4, list(perm))
            assert last_step_set(sch) & uniquely_burned_set(sch)
            count += 1
    assert count == 12


def test_no_increase_implies_some_optimal_without_bl_ub(k33):
    """b(H_4(K33)) equals b(K33), so by the contrapositive of the +1
    criterion some optimal K33 sequence must have BL and UB disjoint."""
    b = burning_number_exact(k33).value
    assert burning_number_exact(build_Hd(k33, 4).graph).value == b
    for perm in itertools.permutations(k33.vertices, b):
        if is_burning_sequence(k33, list(perm)):
            sch = simulate(k33, list(perm))
            if not (last_step_set(sch) & uniquely_burned_set(sch)):
                return
    raise AssertionError("every optimal sequence had BL and UB overlapping")


def test_project_optimal_sequences(k4, k33, prism):
    for base in (k4, k33, prism):
        for d in (4, 5):
            lifted = build_Hd(base, d)
            result = burning_number_exact(lifted.graph)
            for dp in range(3, d):
                projected = project_sequence(lifted, result.witness, dp)
                assert is_burning_sequence(standalone(lifted, dp), projected)
                assert len(projected) <= result.value


def test_mid_sequence_duplicate_is_a_real_phenomenon(k4):
    """An optimal H_5(K4) sequence whose H_4 projection duplicates a vertex in
    slots 1-2 (of 3): the duplicates-at-the-end property does not hold for it,
    and the projection repairs it into a sequence that burns H_4."""
    lifted = build_Hd(k4, 5)
    seq = ["copy1:v1", "copy3:v1", "copy2:v2"]
    assert is_burning_sequence(lifted.graph, seq)
    assert burning_number_exact(lifted.graph).value == len(seq)  # seq is optimal
    projected_raw = [project_vertex(v, 4) for v in seq]
    assert projected_raw[0] == projected_raw[1]  # duplicate, not in last two slots
    repaired = project_sequence(lifted, seq, 4)
    assert is_burning_sequence(standalone(lifted, 4), repaired)
    assert len(repaired) <= len(seq)


def test_project_duplicate_free_returns_projection(k4):
    lifted = build_Hd(k4, 5)
    # sources confined to the surviving copies project to themselves
    seq = ["copy1:v1", "copy2:v2", "copy2:v3"]
    assert is_burning_sequence(lifted.graph, seq)
    projected = project_sequence(lifted, seq, 4)
    assert list(projected) == seq


def test_project_drops_trailing_duplicate(k4):
    lifted = build_Hd(k4, 4)
    seq = ["copy1:v1", "copy1:v2", "copy2:v2"]
    assert is_burning_sequence(lifted.graph, seq)
    projected = project_sequence(lifted, seq, 3)  # projects to (v1, v2, v2)
    assert is_burning_sequence(k4, projected)
    assert len(projected) <= 3


def test_project_sequence_rejects_invalid(k4):
    lifted = build_Hd(k4, 4)
    with pytest.raises(InputNotValidError):
        project_sequence(lifted, ["copy1:v1"], 3)
    with pytest.raises(BadDegreeError):
        project_sequence(lifted, ["copy1:v1", "copy2:v2", "copy2:v4"], 4)


def test_project_random_cubic_bases():
    for n, seed in ((8, 0), (8, 1), (10, 2)):
        base = random_cubic(n, seed)
        for d in (4, 5):
            lifted = build_Hd(base, d)
            result = burning_number_exact(lifted.graph)
            b = burning_number_exact(base).value
            assert b <= result.value <= b + 1
            for dp in range(3, d):
                projected = project_sequence(lifted, result.witness, dp)
                assert is_burning_sequence(standalone(lifted, dp), projected)
                assert len(projected) <= result.value


# -- oracle: the three-branch construction -------------------------------------
#
# The projection and the lift as they were built before the projection
# became one repair call and the lift a read of the base's burn steps, kept
# as the reference the library is compared with.


def _reference_first_unburned(g, sequence):
    burned = frontier_burn_times(g, sequence)
    return min((v for v in g.vertices if v not in burned), default=None)


def reference_lift_sequence(lifted, sequence):
    sources = list(sequence)
    if not is_burning_sequence(lifted.base, sources):
        raise InputNotValidError("sequence does not burn the base graph")
    lifted_sources = [f"copy1:{v}" for v in sources]
    leftover = _reference_first_unburned(lifted.graph, lifted_sources)
    if leftover is not None:
        lifted_sources.append(leftover)
    result = BurningSequence.of(lifted_sources)
    if not is_burning_sequence(lifted.graph, result):
        raise LiftError("internal: lifted sequence failed validation")
    return result


def reference_project_sequence(lifted, sequence, d_prime):
    if not 3 <= d_prime < lifted.d:
        raise BadDegreeError(f"d' must be in [3, {lifted.d - 1}], got {d_prime}")
    sources = list(sequence)
    if not is_burning_sequence(lifted.graph, sources):
        raise InputNotValidError("sequence does not burn the lifted graph")
    target = standalone(lifted, d_prime)
    projected = [project_vertex(v, d_prime) for v in sources]
    p = len(projected)

    if len(set(projected)) == p:
        if is_burning_sequence(target, projected):
            return BurningSequence.of(projected)
        return BurningSequence.of(_repair_sequence(target, projected, p)[0])

    first_seen = {}
    duplicate_positions = []
    for i, v in enumerate(projected):
        if v in first_seen:
            duplicate_positions.append((first_seen[v], i))
        else:
            first_seen[v] = i
    at_end_only = duplicate_positions == [(p - 2, p - 1)]

    if not at_end_only:
        deduped = list(dict.fromkeys(projected))
        if is_burning_sequence(target, deduped):
            return BurningSequence.of(deduped)
        return BurningSequence.of(_repair_sequence(target, deduped, p)[0])

    shortened = projected[:-1]
    try:
        leftover = _reference_first_unburned(target, shortened)
    except InvalidSequenceError:
        pass
    else:
        if leftover is None:
            return BurningSequence.of(shortened)
        completed = shortened + [leftover]
        if is_burning_sequence(target, completed):
            return BurningSequence.of(completed)
    return BurningSequence.of(_repair_sequence(target, projected, p)[0])


def _outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except LiftError as exc:
        return type(exc), str(exc)


def _shape(projected):
    if len(set(projected)) == len(projected):
        return "none"
    if len(set(projected[:-1])) == len(projected) - 1 and projected[-1] == projected[-2]:
        return "trailing"
    return "mid"


def _random_sequences(g, r, count, lengths):
    """Valid burning sequences of ``g`` drawn through the repair from random
    intended source lists."""
    found = []
    vertices = g.vertices
    for _ in range(count):
        length = r.choice(lengths)
        intended = [r.choice(vertices) for _ in range(length)]
        seq, _ = _repair_sequence(g, intended, length)
        if is_burning_sequence(g, seq):
            found.append(seq)
    return found


def test_lift_and_project_match_the_reference(k4, k33, prism):
    """Over lifts of base witnesses, exact witnesses of H_d and random valid
    H_d sequences, both functions give the reference's sequence, or raise its
    type with its message; every projection shape occurs."""
    r = random.Random(8)
    bases = [k4, k33, prism] + [random_cubic(n, seed) for n in (8, 10, 12, 14, 16) for seed in (1, 2)]
    shapes = {"none": 0, "trailing": 0, "mid": 0}
    for base in bases:
        b = burning_number_exact(base)
        base_seqs = [list(b.witness)] + _random_sequences(base, r, 6, (b.value, b.value + 1))
        for d in (4, 5, 6):
            lifted = build_Hd(base, d)
            seqs = []
            # raw random draws mostly fail validation: the error path
            drawn = [[r.choice(base.vertices) for _ in range(b.value)] for _ in range(2)]
            for seq in base_seqs + drawn:
                expected = _outcome(reference_lift_sequence, lifted, seq)
                assert _outcome(lift_sequence, lifted, seq) == expected
                if not isinstance(expected, tuple):
                    seqs.append(list(expected))
            if base.vertex_count <= 10:
                seqs.append(list(burning_number_exact(lifted.graph).witness))
            lengths = (b.value, b.value + 1, b.value + 2)
            seqs += _random_sequences(lifted.graph, r, 100, lengths)
            seqs += [[r.choice(lifted.graph.vertices) for _ in range(b.value)] for _ in range(2)]
            for seq in seqs:
                for dp in range(3, d):
                    if is_burning_sequence(lifted.graph, seq):
                        shapes[_shape([project_vertex(v, dp) for v in seq])] += 1
                    args = (lifted, seq, dp)
                    expected = _outcome(reference_project_sequence, *args)
                    assert _outcome(project_sequence, *args) == expected
    assert min(shapes.values()) >= 50, shapes


@pytest.mark.parametrize("d", [12, 13])
def test_lift_matches_the_reference_and_the_repair_when_copy10_sorts_first(k4, k33, prism, d):
    """At d >= 12, copy10: sorts before copy1:, so the extra source is in
    copy 10.  Over exact and random valid base sequences, the lift gives the
    reference's sequence and that of the repair of the copy-1 sources on
    H_d with one more step; invalid inputs raise the reference's type with
    its message."""
    r = random.Random(d)
    lifts = 0
    for base in (k4, k33, prism):
        b = burning_number_exact(base)
        lifted = build_Hd(base, d)
        seqs = [list(b.witness)] + _random_sequences(base, r, 8, (b.value, b.value + 1))
        seqs += [[r.choice(base.vertices) for _ in range(b.value)] for _ in range(4)]
        seqs += [[], ["nowhere"], list(b.witness)[:-1], list(b.witness) * 2]
        for seq in seqs:
            expected = _outcome(reference_lift_sequence, lifted, seq)
            got = _outcome(lift_sequence, lifted, seq)
            assert got == expected
            if isinstance(got, tuple):
                assert got == (InputNotValidError, "sequence does not burn the base graph")
                continue
            copy1 = [f"copy1:{v}" for v in seq]
            repaired, burns_all = _repair_sequence(lifted.graph, copy1, len(seq) + 1)
            assert burns_all and list(got) == repaired
            assert got[-1].startswith("copy10:")
            lifts += 1
    assert lifts >= 15, lifts


# -- the remembered sequence ---------------------------------------------------


def _reduction_witness(inst):
    return vc_to_witness(inst, vertex_cover_exact(inst.g_prime).witness)


def test_one_kernel_run_per_lifted_sequence(k4_instance, monkeypatch):
    """Lifting runs the burning process once, the base check on the base,
    projecting the lift's own result runs only the repair, and a fresh valid
    input costs one more run, for its check."""
    lifted = build_Hd(k4_instance.h_graph, 5)
    witness = _reduction_witness(k4_instance)
    runs = []
    burn = burning._burn

    def counted(*args):
        runs.append(args[0])
        return burn(*args)

    def runs_of(call, *args):
        before = len(runs)
        result = call(*args)
        return result, len(runs) - before

    monkeypatch.setattr(burning, "_burn", counted)
    lifted_seq, count = runs_of(lift_sequence, lifted, witness)
    assert count == 1 and runs[-1] is lifted.base
    for dp in (4, 3):
        assert runs_of(project_sequence, lifted, lifted_seq, dp)[1] == 1

    # Another vertex burned at the last step is also a valid last source.
    last = len(lifted_seq)
    times = frontier_burn_times(lifted.graph, lifted_seq)
    swap = max(v for v, t in times.items() if t == last and v != lifted_seq[-1])
    fresh = list(lifted_seq[:-1]) + [swap]
    assert is_burning_sequence(lifted.graph, fresh)
    assert runs_of(project_sequence, lifted, fresh, 4)[1] == 2
    assert runs_of(project_sequence, lifted, fresh, 3)[1] == 1
    # one sequence is remembered: the lift's result is checked again
    assert runs_of(project_sequence, lifted, lifted_seq, 3)[1] == 2


def test_projection_builds_h_dprime_once_and_burns_no_h_d(k4_instance, monkeypatch):
    """Projecting the lift's remembered result onto H_4 lays out H_4 from the
    base with one ``_from_blocks`` call, and projecting it onto the base
    builds nothing; neither runs ``Graph.__init__``, and the one burning run
    of each is the repair's, on H_4 or on the base, never on H_5.  The
    counters do see a build, as ``build_Hd`` and ``Graph`` at the end show."""
    base = k4_instance.h_graph
    lifted = build_Hd(base, 5)
    seq = lift_sequence(lifted, _reduction_witness(k4_instance))
    built, burned = [], []
    init, from_blocks, burn = Graph.__init__, lift._from_blocks, burning._burn

    def counted_init(self, *args, **kwargs):
        built.append("Graph")
        init(self, *args, **kwargs)

    def counted_from_blocks(g, copies):
        built.append(("_from_blocks", g, copies))
        return from_blocks(g, copies)

    def counted_burn(g, *args):
        burned.append(g.vertex_count if g is not base else "base")
        return burn(g, *args)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(lift, "_from_blocks", counted_from_blocks)
    monkeypatch.setattr(burning, "_burn", counted_burn)
    projected = {}
    for dp, want_built, want_burned in (
        (4, [("_from_blocks", base, 2)], [2 * base.vertex_count]),
        (3, [], ["base"]),
    ):
        projected[dp] = project_sequence(lifted, seq, dp)
        assert (built, burned) == (want_built, want_burned)
        built.clear()
        burned.clear()
    build_Hd(base, 4)
    Graph([("a", "b")])
    assert built == [("_from_blocks", base, 2), "Graph"]
    monkeypatch.undo()
    for dp in (4, 3):
        assert projected[dp] == reference_project_sequence(lifted, seq, dp)


@pytest.mark.parametrize("d", [12, 13])
def test_projection_matches_the_reference_when_blocks_are_not_a_prefix(k4, prism, d):
    """At d >= 12, copy10: sorts before copy1:, so the blocks of H_d' are
    not a prefix of H_d's label table: the projection still gives the
    reference's sequence or error, which burns a standalone H_d' built by
    ``build_Hd``, onto every d' < d."""
    r = random.Random(d)
    repaired = 0
    for base in (k4, prism, random_cubic(10, 1)):
        lifted = build_Hd(base, d)
        b = burning_number_exact(base)
        seqs = [list(lift_sequence(lifted, b.witness))]
        seqs += _random_sequences(lifted.graph, r, 12, (b.value, b.value + 1, b.value + 2))
        for seq in seqs:
            for dp in range(3, d):
                args = (lifted, seq, dp)
                expected = _outcome(reference_project_sequence, *args)
                assert _outcome(project_sequence, *args) == expected
                raw = [project_vertex(v, dp) for v in seq]
                repaired += not isinstance(expected, tuple) and list(expected) != raw
    assert repaired >= 20, repaired


def test_projections_of_a_remembered_sequence_match(k4, k33, prism):
    """Projecting the lift's remembered result gives the reference's sequence
    or error, and what a freshly built LiftedGraph, which checks the input,
    gives."""
    for base in (k4, k33, prism, random_cubic(10, 1)):
        witness = burning_number_exact(base).witness
        for d in (4, 5, 6):
            lifted = build_Hd(base, d)
            seq = lift_sequence(lifted, witness)
            for dp in range(3, d):
                got = _outcome(project_sequence, lifted, seq, dp)
                assert got == _outcome(reference_project_sequence, lifted, seq, dp)
                assert got == _outcome(project_sequence, build_Hd(base, d), seq, dp)
            assert lifted._burns == seq.sources


def test_remembered_sequence_admits_no_other(k4_instance, prism):
    """With a valid sequence remembered, an invalid one is still rejected:
    the lift minus its last source, one with an unknown label, and a lift of
    the K4 H's witness given to the prism H's LiftedGraph."""
    message = "^sequence does not burn the lifted graph$"
    lifted = build_Hd(k4_instance.h_graph, 4)
    seq = lift_sequence(lifted, _reduction_witness(k4_instance))
    project_sequence(lifted, seq, 3)
    for bad in (seq[:-1], seq[:-1] + ("nowhere",)):
        bad = list(bad)
        with pytest.raises(InputNotValidError, match=message):
            project_sequence(lifted, bad, 3)
        assert lifted._burns == seq.sources

    prism_instance = build_H(prism)
    prism_lifted = build_Hd(prism_instance.h_graph, 4)
    prism_seq = lift_sequence(prism_lifted, _reduction_witness(prism_instance))
    assert prism_lifted._burns == prism_seq.sources != seq.sources
    with pytest.raises(InputNotValidError, match=message):
        project_sequence(prism_lifted, seq, 3)


def test_lifted_graph_value_ignores_the_remembered_sequence(k4):
    """The remembered sequence is not a constructor argument and takes no
    part in equality or ``repr``."""
    lifted = build_Hd(k4, 5)
    before = repr(lifted)
    seq = lift_sequence(lifted, ["v1", "v2"])
    fresh = LiftedGraph(lifted.base, lifted.d, lifted.graph)
    assert lifted._burns == seq.sources and fresh._burns is None
    assert lifted == fresh  # Graph compares by identity, so the parts are shared
    assert hash(lifted) == hash(fresh)
    assert lifted != build_Hd(k4, 5) and lifted != LiftedGraph(lifted.base, 6, lifted.graph)
    assert repr(lifted) == repr(fresh) == before == (
        f"LiftedGraph(base={k4!r}, d=5, graph={lifted.graph!r})"
    )
    init = [f.name for f in dataclasses.fields(LiftedGraph) if f.init]
    assert init == ["base", "d", "graph"]
