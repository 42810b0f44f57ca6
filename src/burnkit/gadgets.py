"""Deterministic constructors for the reduction gadgets.

Every constructor returns a :class:`GadgetHandle`: the graph plus a landmark
map naming the distinguished vertices (hooks, end vertices, tips, roots,
trunk cycles, middles).  Landmark names are part of the public API; tests and
the reduction address vertices only through them.

T-gadget wiring: two parallel fixed-arm columns of 2*l1 levels with a rung on
every level, the left column continuous and the right column severed between
levels l1 and l1+1, where the two floating-arm rows of l2 vertices attach;
the last two floating levels are cross-braced (no rung on the second-to-last
level, both of its vertices adjacent to both tips, tips adjacent to each
other).  This is the unique wiring consistent with the degree discipline, the
vertex count 4*l1 + 2*l2, and both hook/tip distance formulas, all of which
are asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .burning import BurningSequence
from .graph import Graph

Landmark = str | tuple[str, ...]


class GadgetError(Exception):
    pass


class InvalidParamsError(GadgetError):
    """A gadget parameter is out of range."""


class ParamInequalityError(GadgetError):
    """A BTP parameter inequality does not hold; names the violated ones."""

    def __init__(self, violated: list[str]):
        self.violated = tuple(violated)
        super().__init__("; ".join(violated))


@dataclass(frozen=True)
class GadgetHandle:
    graph: Graph
    landmarks: dict[str, Landmark]

    def __getitem__(self, name: str) -> Landmark:
        return self.landmarks[name]


# ---------------------------------------------------------------------------
# T-gadget


def _t_parts(l1: int, l2: int, name: str, p_hook: str, q_hook: str):
    """Edges and landmarks of one T-gadget wired between two hook vertices."""

    def L(i: int) -> str:
        return f"{name}l:{i}"

    def R(i: int) -> str:
        return f"{name}r:{i}"

    def AQ(i: int) -> str:
        return f"{name}aq:{i}"

    def AP(i: int) -> str:
        return f"{name}ap:{i}"

    top = 2 * l1
    edges = [(q_hook, L(1)), (q_hook, R(1)), (p_hook, L(top)), (p_hook, R(top))]
    for i in range(1, top):
        edges.append((L(i), L(i + 1)))
        if i != l1:  # right column is severed at the floating-arm junction
            edges.append((R(i), R(i + 1)))
    for i in range(1, top + 1):
        edges.append((L(i), R(i)))
    edges.append((R(l1), AQ(1)))
    edges.append((R(l1 + 1), AP(1)))
    for row in (AQ, AP):
        for i in range(1, l2):
            edges.append((row(i), row(i + 1)))
    edges.append((AQ(l2 - 1), AP(l2)))
    edges.append((AP(l2 - 1), AQ(l2)))
    for i in range(1, l2 - 1):
        edges.append((AQ(i), AP(i)))
    edges.append((AQ(l2), AP(l2)))

    landmarks: dict[str, Landmark] = {
        "f1_qp": L(1),
        "f2_qp": R(1),
        "f1_pq": L(top),
        "f2_pq": R(top),
        "j_qp": L(l1),
        "jn_qp": R(l1),
        "j_pq": L(l1 + 1),
        "jn_pq": R(l1 + 1),
        "w_qp": AQ(1),
        "w_pq": AP(1),
        "tip_qp": AQ(l2),
        "tip_pq": AP(l2),
        "half_pq": tuple(
            [L(i) for i in range(l1 + 1, top + 1)]
            + [R(i) for i in range(l1 + 1, top + 1)]
            + [AP(i) for i in range(1, l2 + 1)]
        ),
        "half_qp": tuple(
            [L(i) for i in range(1, l1 + 1)]
            + [R(i) for i in range(1, l1 + 1)]
            + [AQ(i) for i in range(1, l2 + 1)]
        ),
    }
    return edges, landmarks


def make_T(l1: int, l2: int) -> GadgetHandle:
    """T-gadget with hooks p, q: 4*l1 + 2*l2 internal vertices."""
    if l1 < 1 or l2 < 2:
        raise InvalidParamsError(f"T-gadget needs l1 >= 1 and l2 >= 2, got ({l1}, {l2})")
    edges, landmarks = _t_parts(l1, l2, "", "p", "q")
    landmarks["p"] = "p"
    landmarks["q"] = "q"
    landmarks["ends"] = tuple(
        landmarks[name] for name in ("f1_pq", "f2_pq", "f1_qp", "f2_qp")
    )
    return GadgetHandle(Graph(edges), landmarks)


# ---------------------------------------------------------------------------
# BT-gadget


def _bt_parts(h: int, name: str):
    def node(level: int, i: int) -> str:
        return f"{name}{level}:{i}"

    edges = []
    for level in range(h):
        for i in range(1 << level):
            edges.append((node(level, i), node(level + 1, 2 * i)))
            edges.append((node(level, i), node(level + 1, 2 * i + 1)))
    leaves = tuple(node(h, i) for i in range(1 << h))
    return edges, node(0, 0), leaves


def make_BT(h: int) -> GadgetHandle:
    """Perfect binary tree of height h: 2^(h+1) - 1 vertices, 2^h leaves."""
    if h < 1:
        raise InvalidParamsError(f"BT-gadget needs h >= 1, got {h}")
    edges, root, leaves = _bt_parts(h, "bt:")
    return GadgetHandle(
        Graph(edges),
        {"root": root, "leaves": leaves, "ends": (root,) + leaves},
    )


# ---------------------------------------------------------------------------
# BTP-gadget


def check_btp_inequalities(h: int, l1: int, l2: int) -> list[str]:
    violated = []
    if not l1 + l2 < (1 << (h - 2) if h >= 2 else 0):
        violated.append(f"inequality 1 violated: l1 + l2 = {l1 + l2} must be < 2^(h-2)")
    if not l2 > l1 + h + 1:
        violated.append(f"inequality 2 violated: l2 = {l2} must be > l1 + h + 1 = {l1 + h + 1}")
    return violated


def _btp_parts(h: int, l1: int, l2: int, name: str):
    """Edges plus landmark map for a BTP; side 'ab' is the first endpoint's."""
    edges_ab, r_ab, leaves_ab = _bt_parts(h, f"{name}bt:ab:")
    edges_ba, r_ba, leaves_ba = _bt_parts(h, f"{name}bt:ba:")
    edges = edges_ab + edges_ba
    tips_ab, tips_ba = [], []
    half_ab = [v for e in edges_ab for v in e]
    half_ba = [v for e in edges_ba for v in e]
    for i, (pa, pb) in enumerate(zip(leaves_ab, leaves_ba)):
        t_edges, t_marks = _t_parts(l1, l2, f"{name}t:{i}:", pa, pb)
        edges += t_edges
        tips_ab.append(t_marks["tip_pq"])
        tips_ba.append(t_marks["tip_qp"])
        half_ab += list(t_marks["half_pq"])
        half_ba += list(t_marks["half_qp"])
    landmarks: dict[str, Landmark] = {
        "r_ab": r_ab,
        "r_ba": r_ba,
        "leaves_ab": leaves_ab,
        "leaves_ba": leaves_ba,
        "tips_ab": tuple(tips_ab),
        "tips_ba": tuple(tips_ba),
        "a_half": tuple(dict.fromkeys(half_ab)),
        "b_half": tuple(dict.fromkeys(half_ba)),
        "ends": (r_ab, r_ba),
    }
    return edges, landmarks


def _btp_half(label: str, l1: int) -> tuple[str, bool]:
    """``(head, in a_half)`` of a BTP label ``<head>:bt:<ab|ba>:<level>:<i>`` or
    ``<head>:t:<i>:<l|r|aq|ap>:<pos>``; the head may contain ``:``.  ``a_half``
    is the ``bt:ab`` tree plus each T-gadget's ``half_pq``: ``ap`` and ``l``/``r``
    above level l1."""
    head, kind, side, column, pos = label.rsplit(":", 4)
    if kind == "bt":
        return head, side == "ab"
    return head, column == "ap" or (column in ("l", "r") and int(pos) > l1)


def make_BTP(h: int, l1: int, l2: int) -> GadgetHandle:
    """Two BT(h) trees whose paired leaves are joined by 2^h T-gadgets."""
    if h < 1 or l1 < 1 or l2 < 2:
        raise InvalidParamsError(f"BTP-gadget params out of range: ({h}, {l1}, {l2})")
    violated = check_btp_inequalities(h, l1, l2)
    if violated:
        raise ParamInequalityError(violated)
    edges, landmarks = _btp_parts(h, l1, l2, "")
    return GadgetHandle(Graph(edges), landmarks)


# ---------------------------------------------------------------------------
# P-gadget


def _p_parts(d: int, name: str):
    def A(i: int) -> str:
        return f"{name}a{i}"

    def B(i: int) -> str:
        return f"{name}b{i}"

    edges = []
    for i in range(1, d):
        edges.append((A(i), A(i + 1)))
    for i in range(2, d - 1):
        edges.append((B(i), B(i + 1)))
    for i in range(2, d):
        edges.append((A(i), B(i)))
    edges.append((A(1), B(2)))
    edges.append((A(d), B(d - 1)))
    landmarks: dict[str, Landmark] = {
        "a1": A(1),
        "ad": A(d),
        "middle": A((d + 1) // 2),
        "majors": tuple(A(i) for i in range(1, d + 1)),
        "minors": tuple(B(i) for i in range(2, d)),
        "ends": (A(1), A(d)),
    }
    return edges, landmarks


def make_P(d: int) -> GadgetHandle:
    """Double path on 2d - 2 vertices: d majors rung-tied to d - 2 minors."""
    if d < 3:
        raise InvalidParamsError(f"P-gadget needs d >= 3, got {d}")
    edges, landmarks = _p_parts(d, "")
    return GadgetHandle(Graph(edges), landmarks)


# ---------------------------------------------------------------------------
# Y-gadget


def _y_parts(d1: int, d2: int, name: str):
    z = f"{name}z"
    edges_x, marks_x = _p_parts(d1, f"{name}px:")
    edges_y, marks_y = _p_parts(d1, f"{name}py:")
    edges_z, marks_z = _p_parts(d2, f"{name}pz:")
    edges = edges_x + edges_y + edges_z
    edges.append((marks_x["ad"], z))
    edges.append((marks_y["ad"], z))
    edges.append((z, marks_z["a1"]))
    landmarks: dict[str, Landmark] = {
        "x_a": marks_x["a1"],
        "x_b": marks_x["ad"],
        "y_a": marks_y["a1"],
        "y_b": marks_y["ad"],
        "z": z,
        "z_a": marks_z["a1"],
        "z_b": marks_z["ad"],
        "px": tuple(dict.fromkeys(v for e in edges_x for v in e)),
        "py": tuple(dict.fromkeys(v for e in edges_y for v in e)),
        "pz": tuple(dict.fromkeys(v for e in edges_z for v in e)),
        "ends": (marks_x["a1"], marks_y["a1"], marks_z["ad"]),
    }
    return edges, landmarks


def make_Y(d1: int, d2: int) -> GadgetHandle:
    """Three P-gadgets joined at a central vertex: 4*d1 + 2*d2 - 5 vertices."""
    if d1 < 3 or d2 < 3:
        raise InvalidParamsError(f"Y-gadget needs d1, d2 >= 3, got ({d1}, {d2})")
    edges, landmarks = _y_parts(d1, d2, "")
    return GadgetHandle(Graph(edges), landmarks)


# ---------------------------------------------------------------------------
# Tail-gadget


def _tail_parts(name: str):
    def V(i: int) -> str:
        return f"{name}v{i}"

    p, q, r = f"{name}p", f"{name}q", f"{name}r"
    edges = [(V(i), V(i + 1)) for i in range(1, 9)]
    edges += [(p, V(2)), (p, V(3)), (p, V(4))]
    edges += [(q, V(5)), (q, V(7)), (q, V(9))]
    edges += [(r, V(1)), (r, V(6)), (r, V(8))]
    landmarks: dict[str, Landmark] = {f"v{i}": V(i) for i in range(1, 10)}
    landmarks.update(
        p=p,
        q=q,
        r=r,
        PT1=(V(1),),
        PT2=(V(2), V(3), V(4)),
        PT3=tuple(V(i) for i in range(5, 10)),
        spine=tuple(V(i) for i in range(1, 10)),
        ends=(V(1), V(9)),
    )
    return edges, landmarks


def make_Tail() -> GadgetHandle:
    """Spine of nine vertices plus three degree-3 hubs: 12 vertices."""
    edges, landmarks = _tail_parts("")
    return GadgetHandle(Graph(edges), landmarks)


# ---------------------------------------------------------------------------
# C-gadget


def _c_middles(m: int, name: str) -> tuple[str, ...]:
    """C(m)'s length-m witness from labels alone: the middle majors of P_m
    (2m - 2 majors: a_(m-1)), P_(m-1) .. P_4 (a_i), then PT3, PT2, PT1."""
    if m < 4:
        raise InvalidParamsError(f"C-gadget needs m >= 4, got {m}")
    middles = [f"{name}p{i}:a{min(i, m - 1)}" for i in range(m, 3, -1)]
    return tuple(middles + [f"{name}tail:v{j}" for j in (7, 3, 1)])


def _c_parts(m: int, name: str):
    middles = _c_middles(m, name)
    vm2 = f"{name}vm2"
    edges: list[tuple[str, str]] = []
    p_marks: dict[int, dict[str, Landmark]] = {}
    for i in range(m, 3, -1):
        d = 2 * m - 2 if i == m else 2 * i - 1
        part_edges, marks = _p_parts(d, f"{name}p{i}:")
        edges += part_edges
        p_marks[i] = marks
    tail_edges, tail_marks = _tail_parts(f"{name}tail:")
    edges += tail_edges

    edges.append((vm2, p_marks[m]["a1"]))
    for i in range(m, 4, -1):
        edges.append((p_marks[i]["ad"], p_marks[i - 1]["a1"]))
    edges.append((p_marks[4]["ad"], tail_marks["v9"]))
    edges.append((tail_marks["v1"], vm2))

    trunk: list[str] = [vm2]
    for i in range(m, 3, -1):
        trunk += list(p_marks[i]["majors"])
    trunk += [tail_marks[f"v{j}"] for j in range(9, 0, -1)]

    trunk_prime = trunk[: -len(tail_marks["spine"])]
    trunk_prime += [tail_marks["v9"], tail_marks["v8"], tail_marks["r"], tail_marks["v1"]]

    landmarks: dict[str, Landmark] = {
        "v1": tail_marks["v1"],
        "v_m2": vm2,
        "trunk": tuple(trunk),
        "trunk_prime": tuple(trunk_prime),
        "middles": middles,
        "ends": (vm2,),
    }
    return edges, landmarks


def make_C(m: int) -> GadgetHandle:
    """Chained P-gadgets closed through a Tail: 2m^2 - 2m - 1 vertices."""
    edges, landmarks = _c_parts(m, "")
    return GadgetHandle(Graph(edges), landmarks)


def make_C_witness(m: int) -> BurningSequence:
    """Length-m burning sequence for make_C(m): gadget middles, large to small."""
    return BurningSequence.of(_c_middles(m, ""))
