from __future__ import annotations

import pytest

from burnkit.burning import is_burning_sequence, simulate
from burnkit.gadgets import (
    InvalidParamsError,
    ParamInequalityError,
    _c_middles,
    _p_parts,
    _tail_parts,
    make_BT,
    make_BTP,
    make_C,
    make_C_witness,
    make_P,
    make_T,
    make_Tail,
    make_Y,
)
from burnkit.graph import bfs_distances, degree_histogram, eccentricity, is_connected


def _gadget_degrees(handle, hooks=()):
    """Degrees within the gadget proper: hook attachments do not count."""
    g = handle.graph
    degs = {}
    for v in g.vertices:
        if v in hooks:
            continue
        degs[v] = sum(1 for w in g.neighbors(v) if w not in hooks)
    return degs


def _assert_degree_discipline(handle, hooks=()):
    ends = set(handle["ends"])
    for v, deg in _gadget_degrees(handle, hooks).items():
        if v in ends:
            assert deg <= 2, (v, deg)
        else:
            assert deg == 3, (v, deg)


# T-gadget -------------------------------------------------------------------


def test_t_vertex_count():
    t = make_T(2, 6)
    assert t.graph.vertex_count - 2 == 4 * 2 + 2 * 6  # hooks p, q excluded


def test_t_distances():
    t = make_T(2, 6)
    dp = bfs_distances(t.graph, t["p"])
    assert dp[t["q"]] == 2 * 2 + 1
    assert dp[t["tip_pq"]] == 2 + 6
    dq = bfs_distances(t.graph, t["q"])
    assert dq[t["tip_qp"]] == 2 + 6


def test_t_smallest_degree_profile():
    t = make_T(1, 2)
    # at l1 = 1 the f-vertices coincide with the junction row and reach degree 3
    assert degree_histogram(t.graph) == {2: 2, 3: 8}


def test_t_degree_discipline():
    for l1, l2 in [(1, 2), (2, 5), (3, 4)]:
        t = make_T(l1, l2)
        _assert_degree_discipline(t, hooks=(t["p"], t["q"]))


def test_t_halves_partition():
    t = make_T(3, 7)
    half_pq, half_qp = set(t["half_pq"]), set(t["half_qp"])
    assert not half_pq & half_qp
    assert half_pq | half_qp == set(t.graph.vertices) - {t["p"], t["q"]}
    assert t["tip_pq"] in half_pq and t["tip_qp"] in half_qp


def test_t_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        make_T(0, 5)
    with pytest.raises(InvalidParamsError):
        make_T(1, 1)


# BT-gadget ------------------------------------------------------------------


def test_bt_counts():
    bt = make_BT(3)
    assert bt.graph.vertex_count == 15
    assert len(bt["leaves"]) == 8
    assert make_BT(1).graph.vertex_count == 3


def test_bt_root_burns_in_h_plus_one_steps():
    bt = make_BT(3)
    # fire at the root burns everything in h + 1 steps: eccentricity h
    assert eccentricity(bt.graph, bt["root"]) == 3


def test_bt_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        make_BT(0)


# BTP-gadget -----------------------------------------------------------------


def test_btp_count():
    btp = make_BTP(6, 1, 9)
    assert btp.graph.vertex_count == 2 * (2**7 - 1) + 2**6 * (4 * 1 + 2 * 9) == 1662


def test_btp_distances():
    btp = make_BTP(6, 1, 9)
    dm = bfs_distances(btp.graph, btp["r_ab"])
    assert dm[btp["r_ba"]] == 2 * 6 + 2 * 1 + 1  # Steps = 2h + 2*l1 + 2
    assert all(dm[t] == 6 + 1 + 9 for t in btp["tips_ab"])  # Steps = h + 1 + l1 + l2


def test_btp_param_inequalities():
    with pytest.raises(ParamInequalityError) as info:
        make_BTP(5, 1, 7)  # l1 + l2 = 8 is not < 2^3, and l2 = 7 is not > 7
    assert len(info.value.violated) == 2


def test_btp_tip_sets_disjoint():
    btp = make_BTP(6, 1, 9)
    assert not set(btp["tips_ab"]) & set(btp["tips_ba"])
    assert len(btp["tips_ab"]) == 2**6


def test_btp_halves_partition():
    btp = make_BTP(6, 1, 9)
    a, b = set(btp["a_half"]), set(btp["b_half"])
    assert not a & b
    assert a | b == set(btp.graph.vertices)


def test_btp_degree_discipline():
    _assert_degree_discipline(make_BTP(6, 1, 9))


# P-gadget -------------------------------------------------------------------


def test_p_counts():
    assert make_P(7).graph.vertex_count == 12
    assert make_P(3).graph.vertex_count == 4


def test_p_middle_burn_radius():
    p = make_P(7)  # d = 2l - 1 with l = 4: middle burns all in l steps
    assert eccentricity(p.graph, p["middle"]) == 3


def test_p_degree_discipline():
    for d in (3, 4, 7, 10):
        _assert_degree_discipline(make_P(d))


def test_p_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        make_P(2)


# Y-gadget -------------------------------------------------------------------


def test_y_counts():
    assert make_Y(3, 3).graph.vertex_count == 13
    assert make_Y(17, 19).graph.vertex_count == 101


def test_y_burn_from_x_a():
    d1, d2 = 4, 6
    y = make_Y(d1, d2)
    # complete burn from x_a takes max(2*d1 + 1, d1 + d2 + 1) steps
    assert eccentricity(y.graph, y["x_a"]) == max(2 * d1, d1 + d2)


def test_y_degree_discipline():
    _assert_degree_discipline(make_Y(4, 5))


# Tail-gadget ----------------------------------------------------------------


def test_tail_count():
    assert make_Tail().graph.vertex_count == 12


def test_tail_structure():
    tail = make_Tail()
    g = tail.graph
    assert g.degree(tail["v1"]) == 2
    assert bfs_distances(g, tail["v9"])[tail["v1"]] == 3  # shortcut via r
    assert set(g.neighbors(tail["p"])) == {tail["v2"], tail["v3"], tail["v4"]}
    assert set(g.neighbors(tail["q"])) == {tail["v5"], tail["v7"], tail["v9"]}
    assert set(g.neighbors(tail["r"])) == {tail["v1"], tail["v6"], tail["v8"]}
    _assert_degree_discipline(tail)


# C-gadget -------------------------------------------------------------------


def test_c_counts():
    c = make_C(4)
    assert c.graph.vertex_count == 23
    assert len(c["trunk"]) == 16
    assert len(c["trunk_prime"]) == 11
    assert make_C(35).graph.vertex_count == 2379


def test_c_trunk_is_cycle():
    c = make_C(5)
    for cycle_name in ("trunk", "trunk_prime"):
        cycle = c[cycle_name]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert c.graph.has_edge(a, b), (cycle_name, a, b)


def test_c_degree_discipline():
    c = make_C(5)
    _assert_degree_discipline(c)
    assert c.graph.degree(c["v_m2"]) == 2


def test_c_connected():
    assert is_connected(make_C(6).graph)


def test_c_witness_validates_small():
    for m in (4, 5, 6):
        c = make_C(m)
        w = make_C_witness(m)
        assert len(w) == m
        assert is_burning_sequence(c.graph, w)


def test_c_witness_truncation_fails():
    c = make_C(6)
    w = list(make_C_witness(6))
    sch = simulate(c.graph, w[:-1])
    assert not sch.complete


def test_c_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        make_C(3)


def test_c_middles_from_labels_match_gadget():
    """The middles written from the label scheme are the middle majors of the
    P-gadgets and PT3, PT2, PT1 of the built gadget."""
    for m in range(4, 13):
        p_middles = [
            _p_parts(2 * m - 2 if i == m else 2 * i - 1, f"p{i}:")[1]["middle"]
            for i in range(m, 3, -1)
        ]
        tail = _tail_parts("tail:")[1]
        expected = tuple(p_middles + [tail["v7"], tail["v3"], tail["v1"]])
        assert _c_middles(m, "") == make_C(m)["middles"] == expected
        assert _c_middles(m, "c:") == tuple("c:" + v for v in expected)
    with pytest.raises(InvalidParamsError):
        _c_middles(3, "c:")


def test_count_sweeps():
    for l1 in range(1, 6):
        for l2 in range(2, 13):
            assert make_T(l1, l2).graph.vertex_count - 2 == 4 * l1 + 2 * l2
    for h in range(1, 9):
        assert make_BT(h).graph.vertex_count == 2 ** (h + 1) - 1
    for d in range(3, 41):
        assert make_P(d).graph.vertex_count == 2 * d - 2
    for d1, d2 in [(3, 3), (3, 8), (5, 4), (17, 19)]:
        assert make_Y(d1, d2).graph.vertex_count == 4 * d1 + 2 * d2 - 5
    for m in range(4, 13):
        assert make_C(m).graph.vertex_count == 2 * m * m - 2 * m - 1
