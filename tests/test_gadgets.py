from __future__ import annotations

import hashlib

import pytest

from burnkit.burning import is_burning_sequence, simulate
from burnkit import gadgets, reduction
from burnkit.cli import _write_landmarks
from burnkit.gadgets import (
    GadgetError,
    GadgetTooLargeError,
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
from burnkit.generators import prism_graph, random_cubic
from burnkit.graph import bfs_distances, degree_histogram, is_connected, write_graph
from burnkit.reduction import build_H


def _gadget_degrees(handle, hooks=()):
    """Degrees within the gadget proper: hook attachments do not count."""
    g = handle.graph
    degs = {}
    for v in g.vertices:
        if v in hooks:
            continue
        degs[v] = sum(1 for w in g.neighbors(v) if w not in hooks)
    return degs


def _farthest(g, src):
    """The largest BFS distance from ``src``, which reaches every vertex."""
    dist = bfs_distances(g, src).dist
    assert len(dist) == g.vertex_count
    return max(dist.values())


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
    assert _farthest(bt.graph, bt["root"]) == 3


def test_bt_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        make_BT(0)


@pytest.mark.parametrize(
    "make, params, name, vertices",
    [
        (make_T, (3, 5), "T(3, 5)", 24),
        (make_BT, (10,), "BT(10)", 2047),
        (make_BTP, (6, 1, 9), "BTP(6, 1, 9)", 1662),
        (make_P, (9,), "P(9)", 16),
        (make_Y, (5, 4), "Y(5, 4)", 23),
        (make_C, (10,), "C(10)", 179),
    ],
)
def test_gadget_cap_is_on_the_closed_form_vertex_count(monkeypatch, make, params, name, vertices):
    """Each ``make_*`` with parameters compares its closed-form vertex count
    with ``_MAX_GADGET_VERTICES`` after checking its parameters and before
    building: the cap admits a gadget of exactly that many vertices and
    refuses one more.  Its value is the reduction's cap on H."""
    assert gadgets._MAX_GADGET_VERTICES == reduction._MAX_H_VERTICES == 2_000_000
    monkeypatch.setattr(gadgets, "_MAX_GADGET_VERTICES", vertices)
    assert make(*params).graph.vertex_count == vertices
    monkeypatch.setattr(gadgets, "_MAX_GADGET_VERTICES", vertices - 1)
    with pytest.raises(GadgetTooLargeError) as refused:
        make(*params)
    message = f"{name} has {vertices} vertices, over the gadget cap of {vertices - 1}"
    assert str(refused.value) == message
    assert issubclass(GadgetTooLargeError, GadgetError)


def test_gadget_cap_refuses_before_building(monkeypatch):
    """BT(60) and C(10^6) are refused from their closed forms alone; a
    parameter out of range is refused as before, however large its count."""
    with pytest.raises(InvalidParamsError):
        make_C(-10**6)

    def no_build(*args):
        raise AssertionError("a gadget was built")

    monkeypatch.setattr(gadgets, "_bt_parts", no_build)
    monkeypatch.setattr(gadgets, "_c_parts", no_build)
    with pytest.raises(GadgetTooLargeError) as bt:
        make_BT(60)
    with pytest.raises(GadgetTooLargeError) as c:
        make_C(1_000_000)
    cap = "over the gadget cap of 2000000"
    assert str(bt.value) == f"BT(60) has 2305843009213693951 vertices, {cap}"
    assert str(c.value) == f"C(1000000) has 1999997999999 vertices, {cap}"


def test_c_witness_is_refused_where_make_c_is(monkeypatch):
    """make_C_witness(m) refuses every m that make_C refuses, with the same
    error and before it makes a label; it admits C(m) at exactly the cap."""
    monkeypatch.setattr(gadgets, "_MAX_GADGET_VERTICES", 179)
    assert len(make_C_witness(10)) == 10
    monkeypatch.setattr(gadgets, "_MAX_GADGET_VERTICES", 178)
    with pytest.raises(GadgetTooLargeError) as c:
        make_C(10)
    with pytest.raises(GadgetTooLargeError) as witness:
        make_C_witness(10)
    assert str(witness.value) == str(c.value) == "C(10) has 179 vertices, over the gadget cap of 178"
    monkeypatch.undo()

    def no_labels(*args):
        raise AssertionError("a label was made")

    monkeypatch.setattr(gadgets, "_c_middles", no_labels)
    with pytest.raises(GadgetTooLargeError, match="^C\\(100000\\) has 19999799999 vertices"):
        make_C_witness(100_000)


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
    assert _farthest(p.graph, p["middle"]) == 3


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
    assert _farthest(y.graph, y["x_a"]) == max(2 * d1, d1 + d2)


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


# Byte pins ------------------------------------------------------------------
#
# sha256 of each gadget's edge-list file and landmark sidecar, and of the H
# file and the BTP, Y and C landmark reprs of three reductions.  Every label,
# edge and landmark order of the gadget layer shows here.

_GADGET_PINS = {
    ("T", 1, 2): (
        "49b3f675f9919bcdfb68c79e8baa2d1e268f3fcebcf6a80edc82089205b1c914",
        "279b1734dde40b9d79da3dabe748499f45068b2851ebac9b30159eb357b0ecb0",
    ),
    ("T", 3, 7): (
        "3453632b193ab0751faf23009d3ec6f7341bea7c14398aeaf0a002f666730e6b",
        "fef6f73044408099b90adbddbb6146b5a80f3d0f393fe414d85c3a6a5f30b240",
    ),
    ("BT", 1): (
        "ee11517e328666bd250d665c95dd3165f276cb65a3d42e211f38250d06c221c8",
        "27c3222ec8c9475ee448a509f0ceb65a829660c1bcaa02426248badb83e0eb7e",
    ),
    ("BT", 4): (
        "20c5f1107d797febf713c9cac0ad85cbbc6038a544445fc8c5fbb261b7307d7b",
        "71ae4d12efaec8630223a1b87ba53958abfeb1e3b14f893571c8e8ae5556dba5",
    ),
    ("BTP", 6, 1, 9): (
        "20b5908215418664904565ff061e4a4bf335b310cf8415f1d7b73bba0078f527",
        "91b6ea185e5880351a62f2cc2ffecac6b5dd865b21d329749c9107a892daac30",
    ),
    ("BTP", 7, 2, 11): (
        "78fc3da019616b1639b6205afd880c72bc0f414d84c96f4cbacdaed6fcdacfd9",
        "477af9f6b57b21f37480390b7a2280e36c4c4ad9dbf664211f40e29ef1b7fd10",
    ),
    ("P", 3): (
        "16a479de7b92db59cece8cd081af94d1d808248acc6b932c8ee09c7bdaa6bf19",
        "24b41fc71b6d1e2eb23e3476d9693a8b01482651ef90acc863bb393c1544ab1b",
    ),
    ("P", 8): (
        "f87315aaa2116cb246e8cf53805ae7acad3aceccfbd23b3601d8f7810909347e",
        "2f3f6b1d130e1d301286fd760038cd0a99b0b24780fccf60b3bd4d6aac01ab5e",
    ),
    ("Y", 3, 3): (
        "f40b67dae2c07c6b5227fea42e476f2ed4c4c4ec488e96a807bd6945ec4ddb7b",
        "8d76305892e107630ad0fee0bfc7090042d48a76919cd14786925e96e84241a7",
    ),
    ("Y", 5, 7): (
        "ad8b492b149f2b00215e08e4fa7edefd93b9fa4d692a88769110dd0ec055fd13",
        "2732edc7ad22db7d0354afcee40d8b89c7e00a04da1f1f4b78cff47b7616400e",
    ),
    ("Tail",): (
        "ccb223bf65651560f65afe7f20d1fa59a794ce0fd34e9d51dd31a9071ed526db",
        "bcc140be81552a3edc6b7c433cdcb56f3918ff0d9bcc889d1bce39a14a227b18",
    ),
    ("C", 4): (
        "92f00aa87e1ade1c30569a27c920ccc9ec81f0d7a7360c6667c92d4b8015c2d4",
        "eef583e8880c2569796f2c8ed6ff857ced18d632cd27ae139d23b8f4d19b3c9d",
    ),
    ("C", 7): (
        "c3f02540c91061aa00832b6323b388a1581725b81201fbfe0f71a9a5bb31e479",
        "c3c2b8a832d0487a7f82fb5ec92b32ff3aa7e69418d12a0406a9be56af71120a",
    ),
}

# H file, then repr of btp_landmarks, y_landmarks and c_landmarks
_H_PINS = {
    "K4": (
        "724c05d3629cb75ddcf46b236eb3ef7a7bfa5e983ad867ac387fd06182c9d4dc",
        "608f5fdbef95d4a637383f5caaa02ca84fd1b4221400c0acd2d8f09b09ac109b",
        "2e978f9eef6a699df9e4c027044fc2fabf412058bfb48fc94e71d15f8730bace",
        "a0133beebcd533aad5afa541ca263329354155db2eb3533371c2b9e449217d58",
    ),
    "prism": (
        "66b86757e3442640c829ee8d6b60ddf56df0540b70342ee632d0932dc8a2839b",
        "c0b1983420a223c4cfab0892f3cbfcbe4365dfe2803c6c39c501cb1e1888879f",
        "90b64d4be5862d93da19d61668aeb616382e017486db12e387d53203cf2e0b17",
        "a0133beebcd533aad5afa541ca263329354155db2eb3533371c2b9e449217d58",
    ),
    "random_cubic(8, 1)": (
        "250fb496c6f3e2ce2106bebc813c9eaf1f2d53d3432c343c2bf5b9da9ac69593",
        "ebb4bb94f146124705cc2f265566292e065ace84578f8bd8ffd02cdf30f4a4ad",
        "45ae0b9b7a7f9fd432b06398b0028ac8b8cd95b3a2cb9d680743b7d638aa9622",
        "c69f3e8caa8b6796cecd54e0a0d9435e159518ab9546ddc63941f755f0d7f12c",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_gadget_and_h_bytes_are_pinned(tmp_path, k4_instance):
    marks_file = tmp_path / "marks"
    gadgets = {}
    for kind, *params in _GADGET_PINS:
        handle = globals()[f"make_{kind}"](*params)
        _write_landmarks(str(marks_file), handle.landmarks)
        gadgets[(kind, *params)] = (
            _sha256(write_graph(handle.graph)),
            hashlib.sha256(marks_file.read_bytes()).hexdigest(),
        )
    assert gadgets == _GADGET_PINS

    def pins(inst):
        return (
            _sha256(write_graph(inst.h_graph)),
            _sha256(repr(inst.btp_landmarks)),
            _sha256(repr(inst.y_landmarks)),
            _sha256(repr(inst.c_landmarks)),
        )

    assert pins(k4_instance) == _H_PINS["K4"]
    assert pins(build_H(prism_graph())) == _H_PINS["prism"]
    assert pins(build_H(random_cubic(8, seed=1))) == _H_PINS["random_cubic(8, 1)"]
