from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from array import array

import pytest

from burnkit import reduction
from burnkit.burning import (
    InvalidSequenceError,
    frontier_burn_times,
    is_burning_sequence,
    last_step_set,
    simulate,
    uniquely_burned_set,
)
from burnkit.gadgets import _btp_parts, _c_parts, _y_parts, make_BTP, make_C, make_Y
from burnkit.generators import complete_bipartite, complete_graph, prism_graph, random_cubic
from burnkit.graph import (
    Graph,
    GraphFormatError,
    _from_core,
    bfs_distances,
    degree_histogram,
    is_connected,
    is_regular,
    write_graph,
)
from burnkit.reduction import (
    EdgeNotFoundError,
    MissingXYError,
    NotConnectedError,
    NotACoverError,
    NotABurningSequenceError,
    NotCubicError,
    ReductionError,
    ReductionInstance,
    ReductionTooLargeError,
    SequenceTooShortError,
    audit_sequence,
    build_H,
    choose_params,
    double_subdivide,
    expected_vertex_count,
    _core_label,
    vc_to_witness,
    witness_to_vc,
)
from burnkit.solvers import vertex_cover_exact


def test_choose_params_n6():
    p = choose_params(6)
    assert (p.cn, p.h, p.l1, p.l2, p.d1, p.d2, p.m) == (32, 7, 9, 18, 17, 19, 35)
    assert str(p.c) == "16/3"
    # inequality spot checks: l1 + l2 = 27 < 2^5 and l2 = 18 > l1 + h + 1 = 17
    assert p.l1 + p.l2 < 2 ** (p.h - 2)
    assert p.l2 > p.l1 + p.h + 1


def test_choose_params_exact_power_of_two():
    p = choose_params(8)  # 4 * 8 = 32 = 2^5, so c = 4 exactly
    assert p.cn == 32
    assert str(p.c) == "4"


def test_choose_params_range():
    for n_prime in range(6, 40, 2):
        p = choose_params(n_prime)
        assert 4 * n_prime <= p.cn < 8 * n_prime
        assert p.cn & (p.cn - 1) == 0
        assert 4 <= p.c < 8


def test_choose_params_rejects_odd_and_small():
    with pytest.raises(ReductionError):
        choose_params(7)
    with pytest.raises(ReductionError):
        choose_params(4)


def test_double_subdivide_k4(k4):
    gp, x, y = double_subdivide(k4)
    assert gp.vertex_count == 6
    assert gp.edge_count == 8
    assert gp.degree(x) == 2 and gp.degree(y) == 2
    assert gp.has_edge(x, y)


def test_double_subdivide_picks_smallest_edge(k4):
    gp, x, y = double_subdivide(k4)
    assert not gp.has_edge("v1", "v2")
    gp2, _, _ = double_subdivide(k4, ("v3", "v4"))
    assert not gp2.has_edge("v3", "v4")
    with pytest.raises(EdgeNotFoundError):
        double_subdivide(k4, ("v1", "nope"))


def test_double_subdivide_fresh_labels():
    g = Graph([("x", "y"), ("x", "z"), ("y", "z")])
    gp, x, y = double_subdivide(g)
    assert x not in g and y not in g
    assert gp.vertex_count == 5


def test_build_h_rejects_non_cubic():
    with pytest.raises(NotCubicError):
        build_H(Graph([("a", "b"), ("b", "c"), ("a", "c")]))
    with pytest.raises(NotCubicError):
        build_H(Graph([("a", "b")]))


def test_build_h_cap_is_on_the_closed_form_vertex_count(k4, monkeypatch):
    """The cap compares expected_vertex_count with ``_MAX_H_VERTICES`` before
    any gadget is built; it admits random_cubic(14, 1)'s 998,210-vertex H and
    refuses a 50-vertex G's 58,166,512."""
    cap = reduction._MAX_H_VERTICES
    assert 998_210 <= cap < 58_166_512
    monkeypatch.setattr(reduction, "_MAX_H_VERTICES", 80_294)
    assert build_H(k4).h_graph.vertex_count == 80_294

    def no_build(*args):
        raise AssertionError("a gadget was built")

    monkeypatch.setattr(reduction, "_btp_template", no_build)
    monkeypatch.setattr(reduction, "_c_parts", no_build)
    monkeypatch.setattr(reduction, "_MAX_H_VERTICES", 80_293)
    with pytest.raises(ReductionTooLargeError) as small:
        build_H(k4)
    monkeypatch.setattr(reduction, "_MAX_H_VERTICES", cap)
    with pytest.raises(ReductionTooLargeError) as large:
        build_H(random_cubic(50, 1))
    assert str(small.value) == "H has 80294 vertices, over the reduction's cap of 80293"
    assert str(large.value) == "H has 58166512 vertices, over the reduction's cap of 2000000"
    assert issubclass(ReductionTooLargeError, ReductionError)


@pytest.mark.parametrize("n_prime", [6, 8, 10])
def test_expected_vertex_count_sums_the_built_gadgets(n_prime):
    """|V(H)| by its closed form is n' + e·|BTP| + |Y| + |C|, with each
    gadget's size counted on the gadget built from ``choose_params(n')``."""
    p = choose_params(n_prime)
    btp = make_BTP(p.h, p.l1, p.l2).graph.vertex_count
    y_and_c = make_Y(p.d1, p.d2).graph.vertex_count + make_C(p.m).graph.vertex_count
    for e in (0, 1, 3 * n_prime // 2 - 1):
        assert expected_vertex_count(p, e) == n_prime + e * btp + y_and_c


def test_build_h_count_and_regularity(k4_instance):
    inst = k4_instance
    assert inst.h_graph.vertex_count == 80294
    assert expected_vertex_count(inst.params, inst.g_prime.edge_count) == 80294
    assert degree_histogram(inst.h_graph) == {3: 80294}
    assert is_regular(inst.h_graph, 3)
    assert is_connected(inst.h_graph)


def test_domains_partition(k4_instance):
    inst = k4_instance
    seen: set[str] = set()
    for u, dom in inst.domains.items():
        assert inst.core_label(u) in dom
        assert not seen & dom, f"domain of {u} overlaps another"
        seen |= dom
    outside = set(inst.h_graph.vertices) - seen
    assert outside == set(inst.outside_domains)
    # OutsideDomains is exactly {z} plus P_z plus the C-gadget
    expected = {inst.y_landmarks["z"]} | set(inst.y_landmarks["pz"])
    expected |= {v for v in inst.h_graph.vertices if v.startswith("c:")}
    assert outside == expected


def _reference_owners(inst):
    """Slow reference: every owned vertex of H and its owner, assembled from
    the gadget landmarks (cores, BTP a_half/b_half, the Y-gadget's P_x/P_y)."""
    owner = {inst.core_label(u): u for u in inst.g_prime.vertices}
    for (u, v), marks in inst.btp_landmarks.items():
        owner.update(dict.fromkeys(marks["a_half"], u))
        owner.update(dict.fromkeys(marks["b_half"], v))
    owner.update(dict.fromkeys(inst.y_landmarks["px"], inst.x))
    owner.update(dict.fromkeys(inst.y_landmarks["py"], inst.y))
    return owner


def _relabelled_k4(names):
    rename = dict(zip(complete_graph(4).vertices, names))
    return Graph([(rename[u], rename[v]) for u, v in complete_graph(4).edges()])


# G labels with ':' whose BTP heads btp:<u>:<v> stay distinct
_COLON_LABELS = ("a:b", "c", ":d", "e:")


@pytest.mark.parametrize("which", ["k4", "prism", "colon_k4"])
def test_owner_of_matches_landmarks(which, k4_instance, prism):
    if which == "k4":
        inst = k4_instance
    else:
        inst = build_H(prism if which == "prism" else _relabelled_k4(_COLON_LABELS))
    ref = _reference_owners(inst)
    labels = inst.h_graph.labels
    assert [inst.owner_of(v) for v in labels] == [ref.get(v) for v in labels]
    grouped = {u: set() for u in inst.g_prime.vertices}
    for v, u in ref.items():
        grouped[u].add(v)
    assert list(inst.domains.items()) == [(u, frozenset(d)) for u, d in grouped.items()]
    assert inst.outside_domains == frozenset(labels) - ref.keys()
    u, v = next(iter(inst.btp_landmarks))
    for absent in ("g:nope", f"btp:{u}:{v}:t:0:l:999", f"btp:{u}:{v}:bt:ab:99:0", "y:px:a999"):
        assert inst.owner_of(absent) is None


def test_colliding_btp_heads_are_rejected():
    """G' edges (a, b:c) and (a:b, c) would share the BTP head btp:a:b:c, so
    H would repeat every BTP edge; build_H rejects such a G."""
    g = _relabelled_k4(("a", "a:b", "b:c", "c"))
    g_prime, _, _ = double_subdivide(g)
    assert g_prime.has_edge("a", "b:c") and g_prime.has_edge("a:b", "c")
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        build_H(g)


def test_x_to_cycle_entry_distance(k4_instance):
    inst = k4_instance
    p = inst.params
    dm = bfs_distances(inst.h_graph, inst.core_label(inst.x))
    assert dm[inst.c_landmarks["v_m2"]] == p.n_prime // 2 + p.cn + 3
    assert dm[inst.y_landmarks["z_b"]] == p.n_prime // 2 + p.cn + 2


def test_fire_from_outside_domain_is_slow(k4_instance):
    """Any fire reaching a core vertex from outside its domain needs at least
    cn'/2 + 3 steps; the closest outside vertex is the far junction row."""
    inst = k4_instance
    p = inst.params
    bound = p.cn // 2 + 2  # distance bound; Steps adds one
    for u in list(inst.g_prime.vertices)[:2]:
        dom = inst.domains[u]
        dm = bfs_distances(inst.h_graph, inst.core_label(u))
        closest_outside = min(d for v, d in dm.dist.items() if v not in dom)
        assert closest_outside == bound


def test_h_internal_distances(k4_instance):
    """Distance facts the burning threshold relies on, checked by BFS."""
    inst = k4_instance
    p = inst.params
    u, v = next(iter(inst.btp_landmarks))
    du = bfs_distances(inst.h_graph, inst.core_label(u))
    # adjacent cores sit a whole BTP apart: Steps[u, v] = cn' + 4
    assert du[inst.core_label(v)] + 1 == p.cn + 4
    # the farthest point of H_uv from u is a tip: Steps = cn' + 4 as well
    tips = inst.btp_landmarks[(u, v)]["tips_ab"] + inst.btp_landmarks[(u, v)]["tips_ba"]
    assert max(du[t] for t in tips) + 1 == p.cn + 4
    # entering the cycle gadget from the nearest inside-domain vertex takes
    # Steps[x_b, z_b] = 3 + ceil(n'/4) + cn'/2
    dxb = bfs_distances(inst.h_graph, inst.y_landmarks["x_b"])
    assert dxb[inst.y_landmarks["z_b"]] + 1 == 3 + -(-p.n_prime // 4) + p.cn // 2


def test_tip_separation_across_btps(k4_instance):
    """Tips of disjoint BTP-gadgets are farther apart than 2(l1 + l2)."""
    inst = k4_instance
    p = inst.params
    edges = list(inst.btp_landmarks)
    tips_a = inst.btp_landmarks[edges[0]]["tips_ab"]
    tips_b = inst.btp_landmarks[edges[1]]["tips_ab"]
    dm = bfs_distances(inst.h_graph, tips_a[0])
    assert min(dm[t] for t in tips_b) > 2 * (p.l1 + p.l2)


def test_btp_inside_h_matches_standalone(k4_instance):
    inst = k4_instance
    p = inst.params
    standalone = make_BTP(p.h, p.l1, p.l2)
    edge = next(iter(inst.btp_landmarks))
    marks = inst.btp_landmarks[edge]
    assert len(marks["tips_ab"]) == len(standalone["tips_ab"]) == 2**p.h
    assert len(marks["a_half"]) + len(marks["b_half"]) == standalone.graph.vertex_count


def test_vc_to_witness_validates(k4_instance):
    inst = k4_instance
    cover = vertex_cover_exact(inst.g_prime).witness
    witness = vc_to_witness(inst, cover)
    assert len(witness) == len(cover) + inst.params.cn + 3 == 39
    assert is_burning_sequence(inst.h_graph, witness)


def test_vc_to_witness_nonminimum_cover(k4_instance):
    inst = k4_instance
    cover = set(vertex_cover_exact(inst.g_prime).witness)
    extra = next(v for v in inst.g_prime.vertices if v not in cover)
    witness = vc_to_witness(inst, cover | {extra})
    assert len(witness) == len(cover) + 1 + inst.params.cn + 3
    assert is_burning_sequence(inst.h_graph, witness)


def test_vc_to_witness_rejects_non_cover(k4_instance):
    inst = k4_instance
    with pytest.raises(NotACoverError):
        vc_to_witness(inst, {inst.x, inst.y})


def test_vc_to_witness_rejects_cover_without_xy(k4_instance):
    inst = k4_instance
    cover = set(inst.g_prime.vertices) - {inst.x, inst.y}
    with pytest.raises(MissingXYError):
        vc_to_witness(inst, cover)


def test_witness_truncation_leaves_unburned(k4_instance):
    inst = k4_instance
    witness = vc_to_witness(inst, vertex_cover_exact(inst.g_prime).witness)
    times = frontier_burn_times(inst.h_graph, list(witness)[:-1])
    unburned = set(inst.h_graph.vertices) - set(times)
    assert unburned
    assert any(v.startswith("c:tail:") for v in unburned)


def test_audit_of_constructed_witness(k4_instance):
    inst = k4_instance
    cover = vertex_cover_exact(inst.g_prime).witness
    report = audit_sequence(inst, vc_to_witness(inst, cover))
    assert report.valid and report.complete
    assert report.s == len(cover)
    assert report.middle_range[1] - report.middle_range[0] + 1 == inst.params.h + 1
    assert report.end_range[1] - report.end_range[0] + 1 == inst.params.cn - inst.params.h + 2
    assert not report.unrepresented
    assert report.owners == frozenset(cover)
    assert all(where == "inside" for _, where in report.block_locations["start"])
    assert all(where == "outside" for _, where in report.block_locations["middle"])
    assert all(where == "outside" for _, where in report.block_locations["end"])
    assert report.bl_ub


def test_audit_bl_ub_match_simulate(k4_instance):
    """The audit's BL and UB, read from the index schedule, are the sets
    ``simulate`` and the BL/UB set functions give, on a complete, an
    incomplete and an invalid sequence; both are empty unless complete."""
    inst = k4_instance
    h = inst.h_graph
    witness = list(vc_to_witness(inst, vertex_cover_exact(inst.g_prime).witness))
    early = frontier_burn_times(h, witness[:-1])
    late = max(v for v in h.vertices if v not in early)  # unburned after k - 1 steps
    burned = next(v for v in early if v not in witness)  # burned before step k
    outcomes = []
    for seq in (witness, witness[:-1] + [late], witness[:-1] + [burned]):
        report = audit_sequence(inst, seq)
        try:
            schedule = simulate(h, seq)
        except InvalidSequenceError:
            want = (False, False, frozenset(), frozenset())
        else:
            complete = schedule.complete
            bl = last_step_set(schedule) if complete else frozenset()
            ub = uniquely_burned_set(schedule) if complete else frozenset()
            want = (True, complete, bl, ub)
        assert (report.valid, report.complete, report.last_step, report.uniquely_burned) == want
        outcomes.append(want[:2])
    assert outcomes == [(True, True), (True, False), (False, False)]


def test_audit_too_short(k4_instance):
    with pytest.raises(SequenceTooShortError):
        audit_sequence(k4_instance, ["g:v1"])


def test_witness_to_vc_roundtrip(k4_instance):
    inst = k4_instance
    cover = vertex_cover_exact(inst.g_prime).witness
    witness = vc_to_witness(inst, cover)
    extracted = witness_to_vc(inst, witness)
    assert extracted == cover
    assert len(extracted) <= len(witness) - (inst.params.cn + 3)


def test_witness_to_vc_nonminimum(k4_instance):
    inst = k4_instance
    cover = set(vertex_cover_exact(inst.g_prime).witness)
    extra = next(v for v in inst.g_prime.vertices if v not in cover)
    extracted = witness_to_vc(inst, vc_to_witness(inst, cover | {extra}))
    assert extracted == frozenset(cover | {extra})


def test_witness_to_vc_rejects_invalid(k4_instance):
    inst = k4_instance
    with pytest.raises(NotABurningSequenceError):
        witness_to_vc(inst, ["g:v1", "g:v3"])


def test_beta_shift_random_cubics():
    for n, seed in [(4, 0), (6, 1), (6, 2), (8, 3), (8, 4)]:
        g = complete_graph(4) if n == 4 else random_cubic(n, seed)
        gp, _, _ = double_subdivide(g)
        assert vertex_cover_exact(gp).value == vertex_cover_exact(g).value + 1


def test_k33_pipeline_exact_power_branch(k33):
    """Full pipeline on K33: n' = 8 makes 4n' an exact power of two, so this
    exercises the c = 4 parameter branch (K4 runs the fractional one)."""
    inst = build_H(k33)
    p = inst.params
    assert str(p.c) == "4" and p.cn == 32
    assert inst.h_graph.vertex_count == expected_vertex_count(p, 11) == 109478
    assert is_regular(inst.h_graph, 3)
    cover = vertex_cover_exact(inst.g_prime)
    witness = vc_to_witness(inst, cover.witness)
    assert len(witness) == cover.value + p.cn + 3
    report = audit_sequence(inst, witness)
    assert report.valid and report.complete
    assert not report.unrepresented
    assert report.bl_ub
    assert witness_to_vc(inst, witness) == cover.witness


def _pairs(ends):
    """The edges of a gadget builder's flat ends, two labels per edge."""
    return zip(ends[::2], ends[1::2])


def reference_build_H(g, edge=None):
    """Slow reference: H from one string edge list through ``Graph``."""
    if not is_connected(g):
        raise NotConnectedError("input graph must be connected")
    if g.vertex_count < 4 or not is_regular(g, 3):
        raise NotCubicError("input graph must be cubic on at least 4 vertices")
    g_prime, x, y = double_subdivide(g, edge)
    sub_edge = next(e for e in g.edges() if not g_prime.has_edge(*e))
    params = choose_params(g_prime.vertex_count)

    core = {v: _core_label(v) for v in g_prime.vertices}
    edges = []
    btp_landmarks = {}
    for u, v in g_prime.edges():
        marks_ends, marks = _btp_parts(params.h, params.l1, params.l2, f"btp:{u}:{v}:")
        edges += _pairs(marks_ends)
        edges.append((core[u], marks["r_ab"]))
        edges.append((core[v], marks["r_ba"]))
        btp_landmarks[(u, v)] = marks

    y_ends, y_marks = _y_parts(params.d1, params.d2, "y:")
    edges += _pairs(y_ends)
    edges.append((core[x], y_marks["x_a"]))
    edges.append((core[y], y_marks["y_a"]))

    c_ends, c_marks = _c_parts(params.m, "c:")
    edges += _pairs(c_ends)
    edges.append((y_marks["z_b"], c_marks["v_m2"]))

    return ReductionInstance(
        g=g,
        g_prime=g_prime,
        h_graph=Graph(edges),
        params=params,
        subdivided_edge=sub_edge,
        x=x,
        y=y,
        btp_landmarks=btp_landmarks,
        y_landmarks=y_marks,
        c_landmarks=c_marks,
    )


def _h_fingerprint(build, g, edge=None):
    """Everything build_H promises about H, or the error it raises.

    Provenance enters as everything ``owner_of`` decodes labels with, not as
    one owner per label: both builds share that method, and
    ``test_owner_of_matches_landmarks`` checks it against
    ``_reference_owners``."""
    try:
        inst = build(g, edge)
    except GraphFormatError as exc:
        return f"{type(exc).__name__}: {exc}"
    h = inst.h_graph
    return (
        h.labels,
        h.adj,
        h.edge_count,
        repr(inst.btp_landmarks),
        repr(inst.y_landmarks),
        repr(inst.c_landmarks),
        (inst.x, inst.y, inst.params, inst.subdivided_edge),
        (inst.g_prime.labels, inst.g_prime.adj),
    )


# K4 relabelled so that, with (a, d) subdivided, the BTP head btp:a:b:c:
# extends btp:a:b: and the two blocks interleave in label order
_INTERLEAVING_LABELS = ("a", "b", "b:c", "d")

_ORACLE_CASES = {
    "K4": (complete_graph(4), None),
    "K3,3": (complete_bipartite(3, 3), None),
    "prism": (prism_graph(), None),
    "colon_k4": (_relabelled_k4(_COLON_LABELS), None),
    "interleaving_k4": (_relabelled_k4(_INTERLEAVING_LABELS), ("a", "d")),
    "colliding_k4": (_relabelled_k4(("a", "a:b", "b:c", "c")), None),
}
_ORACLE_CASES.update(
    (f"random_cubic({n}, {seed})", (random_cubic(n, seed), None))
    for n in (8, 10, 12, 14)
    for seed in (1, 2, 3)
)


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_build_h_matches_reference(case):
    g, edge = _ORACLE_CASES[case]
    want = _h_fingerprint(reference_build_H, g, edge)
    assert _h_fingerprint(build_H, g, edge) == want
    if case == "colliding_k4":
        assert want.startswith("GraphFormatError: duplicate edge")
    if case == "interleaving_k4":
        labels = want[0]
        assert labels.index("btp:a:b:c:bt:ab:0:0") < labels.index("btp:a:b:t:0:l:1")


_VIEW_CASES = ("K4", "prism", "colon_k4", "random_cubic(8, 1)", "interleaving_k4")


@pytest.mark.parametrize("case", _VIEW_CASES)
def test_h_label_view_reads_as_the_reference_tuple(case):
    """H's label table behaves as the reference's label tuple wherever
    callers read it: length, every index both ways, IndexError one past
    either end, slices as tuples (across the last block and the tail too),
    iteration, ``==`` both ways, no hash.  Interleaving blocks are
    permuted into a tuple.  Each BTP's landmarks equal the reference's
    dict both ways, in its key order and with its ``repr``, and have no
    hash."""
    g, edge = _ORACLE_CASES[case]
    inst = build_H(g, edge)
    want = reference_build_H(g, edge)
    ref = want.h_graph.labels
    labels = inst.h_graph.labels
    assert (type(labels) is tuple) == (case == "interleaving_k4")
    n = len(ref)
    assert len(labels) == n
    assert [labels[i] for i in range(-n, n)] == list(ref + ref)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            labels[i]
    cuts = (slice(None), slice(1, None), slice(-3), slice(3, n // 2, 2), slice(None, None, -5))
    tail = sum(label.startswith("btp:") for label in ref)  # the first label after the blocks
    for cut in cuts + (slice(tail - 5, tail + 5), slice(tail + 3, tail - 40, -3)):
        assert labels[cut] == ref[cut] and type(labels[cut]) is tuple
    assert list(labels) == list(ref)
    assert labels == ref and ref == labels
    assert labels != ref[:-1] and ref[1:] != labels
    if case != "interleaving_k4":  # a view has no hash
        with pytest.raises(TypeError):
            hash(labels)
    assert list(inst.btp_landmarks) == list(want.btp_landmarks)
    for key, marks in inst.btp_landmarks.items():
        wanted = want.btp_landmarks[key]
        assert marks == wanted and wanted == marks
        assert list(marks.items()) == list(wanted.items())
        assert repr(marks) == repr(wanted)
        with pytest.raises(TypeError):
            hash(marks)


def test_whole_h_walks_read_the_label_view_once(k4_instance, monkeypatch):
    """``write_graph``, ``edges``, ``simulate``, ``frontier_burn_times`` and
    ``audit_sequence`` make H's labels once, not once per edge end or
    vertex: each indexes the view only to find its sources, far fewer
    times than H has vertices (UB alone is 97% of them).  Each gives what
    it gives on the reference's label tuple."""
    inst = k4_instance
    g = inst.h_graph
    witness = vc_to_witness(inst, vertex_cover_exact(inst.g_prime).witness)
    walks = {
        "write_graph": lambda h, instance: write_graph(h),
        "edges": lambda h, instance: list(h.edges()),
        "simulate": lambda h, instance: simulate(h, witness),
        "frontier_burn_times": lambda h, instance: frontier_burn_times(h, witness),
        "audit_sequence": lambda h, instance: audit_sequence(instance, witness),
    }
    view = type(g.labels)
    read = view.__getitem__
    calls = dict.fromkeys(walks, 0)
    got = {}
    for name, walk in walks.items():

        def counted(self, i, name=name):
            calls[name] += 1
            return read(self, i)

        monkeypatch.setattr(view, "__getitem__", counted)
        got[name] = walk(g, inst)
        monkeypatch.undo()
    assert max(calls.values()) < g.vertex_count // 10, calls
    ref = _from_core(tuple(g.labels), g.cols, g.over, g.edge_count)
    plain = dataclasses.replace(inst, h_graph=ref)
    assert got == {name: walk(ref, plain) for name, walk in walks.items()}


def test_build_h_adjacency_is_three_int_columns(k4_instance):
    """H is cubic, so its adjacency is three ``array('i')`` columns of one
    entry per vertex, with no padding and no overflow row: H holds no
    object per vertex beside its label."""
    g = k4_instance.h_graph
    assert len(g.cols) == 3 and g.over == {}
    assert all(type(col) is array and col.typecode == "i" for col in g.cols)
    assert all(len(col) == g.vertex_count for col in g.cols)
    assert g.vertex_count not in g.cols[2]  # no padding sentinel


def _traced(build, g):
    """(bytes retained by the result, traced peak) of one build; the full
    collection also empties the free lists, which hold no part of the result."""
    gc.collect()
    tracemalloc.start()
    try:
        inst = build(g)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained, peak


def test_build_h_memory_is_no_worse_than_reference(k4):
    """Columns sized once and no container per vertex: a relapse to grown
    arrays (spare slots), per-vertex tuples or a second copy of the label
    table shows up in retained bytes or in the peak."""
    retained, peak = _traced(build_H, k4)
    ref_retained, ref_peak = _traced(reference_build_H, k4)
    assert retained <= ref_retained
    assert peak < ref_peak


def test_build_h_keeps_a_third_of_the_reference(k4):
    """H holds no BTP label string: its label table is a view over the
    heads and the template's suffixes, and its BTP landmarks are read off
    the template.  Label strings are most of the reference's H, so a
    relapse to one string per vertex, in the table or in the landmarks,
    keeps more than a third of what the reference keeps."""
    retained, _ = _traced(build_H, k4)
    ref_retained, _ = _traced(reference_build_H, k4)
    assert 3 * retained <= ref_retained
