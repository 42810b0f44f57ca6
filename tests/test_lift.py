from __future__ import annotations

import itertools

import pytest

from burnkit.burning import is_burning_sequence, last_step_set, simulate, uniquely_burned_set
from burnkit.generators import random_cubic
from burnkit.graph import Graph, bfs_distances, is_connected, is_regular
from burnkit.lift import (
    BadDegreeError,
    InputNotValidError,
    InternalContradictionError,
    LiftError,
    build_Hd,
    lift_sequence,
    project_sequence,
    project_to_copy,
    project_vertex,
    split_label,
    subgraph_for,
)
from burnkit.solvers import burning_number_exact, burning_number_naive


def test_build_hd_shapes(k4):
    for d in (4, 5, 6):
        lifted = build_Hd(k4, d)
        assert lifted.graph.vertex_count == (d - 2) * 4
        assert is_regular(lifted.graph, d)
        assert is_connected(lifted.graph)
        for v in k4.vertices:
            clique = lifted.cliques[v]
            assert len(clique) == d - 2
            for a, b in itertools.combinations(clique, 2):
                assert lifted.graph.has_edge(a, b)


def reference_hd(base, d):
    """Slow reference: H_d as the string edge list of its definition."""
    copies = d - 2
    edges = []
    for j in range(1, copies + 1):
        for u, v in base.edges():
            edges.append((f"copy{j}:{u}", f"copy{j}:{v}"))
    cliques = {}
    for v in base.vertices:
        clique = tuple(f"copy{j}:{v}" for j in range(1, copies + 1))
        cliques[v] = clique
        edges += itertools.combinations(clique, 2)
    return Graph(edges), cliques


@pytest.mark.parametrize("d", [4, 5, 12])
def test_build_hd_matches_reference(k4, k33, prism, d):
    # at d = 12, copy10: sorts before copy1:, so index order is not (copy, base index)
    for base in (k4, k33, prism, random_cubic(16, 3)):
        lifted = build_Hd(base, d)
        ref, cliques = reference_hd(base, d)
        g = lifted.graph
        assert g.vertices == ref.vertices
        assert g.edge_count == ref.edge_count
        assert list(g.edges()) == list(ref.edges())
        assert g.index == ref.index
        assert g.adj == ref.adj
        assert all(g.neighbors(v) == ref.neighbors(v) for v in ref.vertices)
        assert lifted.cliques == cliques


def test_build_hd_rejects_bad_inputs(k4):
    from burnkit.generators import path_graph

    with pytest.raises(BadDegreeError):
        build_Hd(k4, 3)
    with pytest.raises(LiftError):
        build_Hd(path_graph(4), 4)


def test_projection_definitions():
    assert project_vertex("copy3:a", 4) == "copy1:a"
    assert project_vertex("copy1:a", 4) == "copy1:a"
    assert project_vertex("copy2:a", 3) == "a"
    assert project_to_copy("copy3:a", 1) == "copy1:a"
    assert split_label("copy12:v:x") == (12, "v:x")
    with pytest.raises(LiftError):
        split_label("nope")


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
    for u in verts[::3]:
        dm = bfs_distances(g, u)
        sub = subgraph_for(lifted, 4)
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
                target = subgraph_for(lifted, dp)
                assert is_burning_sequence(target, projected)
                assert len(projected) <= result.value


def test_mid_sequence_duplicate_is_a_real_phenomenon(k4):
    """An optimal H_5(K4) sequence whose H_4 projection duplicates a vertex in
    slots 1-2 (of 3): the duplicates-at-the-end property does not hold for it.
    The strict mode surfaces this loudly; the default mode repairs it."""
    lifted = build_Hd(k4, 5)
    seq = ["copy1:v1", "copy3:v1", "copy2:v2"]
    assert is_burning_sequence(lifted.graph, seq)
    assert burning_number_exact(lifted.graph).value == len(seq)  # seq is optimal
    projected_raw = [project_vertex(v, 4) for v in seq]
    assert projected_raw[0] == projected_raw[1]  # duplicate, not in last two slots
    with pytest.raises(InternalContradictionError):
        project_sequence(lifted, seq, 4, assume_optimal=True)
    repaired = project_sequence(lifted, seq, 4)
    h4 = subgraph_for(lifted, 4)
    assert is_burning_sequence(h4, repaired)
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
                assert is_burning_sequence(subgraph_for(lifted, dp), projected)
                assert len(projected) <= result.value
