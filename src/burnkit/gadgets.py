"""Deterministic constructors for the reduction gadgets.

Every constructor returns a :class:`GadgetHandle`: the graph plus a landmark
map naming the distinguished vertices (hooks, end vertices, tips, roots,
trunk cycles, middles).  Landmark names are part of the public API; tests and
the reduction address vertices only through them.

Each ``_*_parts`` builder formats every vertex label exactly once, into a
label table: one list per column, arm row, tree level or spine.  Its edges
are one flat list of labels, two ends per edge (no tuple per edge, so a
build gives the cyclic collector nothing to count); its landmarks index
that table, and a set landmark (a half, the leaves, the
majors, a trunk) is a slice or a concatenation of it, so the strings are
shared rather than formatted again.  One builder serves both the ``make_*``
constructor and ``reduction.build_H``.  Every ``make_*`` constructor with
parameters checks them, then refuses a gadget of more vertices, by its
closed form, than ``_MAX_GADGET_VERTICES`` before it builds anything.

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
from itertools import chain

from .burning import BurningSequence
from .graph import Graph, _edge_ends, _int_text

Landmark = str | tuple[str, ...]


class GadgetError(Exception):
    pass


class InvalidParamsError(GadgetError):
    """A gadget parameter is out of range."""


class GadgetTooLargeError(GadgetError):
    """A gadget or generated graph would have more vertices than the cap allows."""


class ParamInequalityError(GadgetError):
    """A BTP parameter inequality does not hold; names the violated ones."""

    def __init__(self, violated: list[str]):
        self.violated = tuple(violated)
        super().__init__("; ".join(violated))


# The most vertices a ``make_*`` gadget or a CLI generator builds: the
# reduction's cap on H, above every size the tests and the benchmark use.
_MAX_GADGET_VERTICES = 2_000_000


def check_vertex_count(name: str, vertices: int):
    """Raise :class:`GadgetTooLargeError` when ``name``, of ``vertices``
    vertices from its closed form, is over the cap; called before building."""
    if vertices > _MAX_GADGET_VERTICES:
        raise _too_large(name, _int_text(vertices))


def _too_large(name: str, vertices: str) -> GadgetTooLargeError:
    return GadgetTooLargeError(
        f"{name} has {vertices} vertices, over the gadget cap of {_MAX_GADGET_VERTICES}"
    )


# Past this height a count ``(y << h) - c`` is not built: at 2^20 bits it
# has far more digits than ``str`` prints (4,300 by default), so
# ``_int_text`` gives it as a power of two, read off its bit length instead.
_MAX_BUILT_HEIGHT = 1 << 20


def _check_shifted_count(name: str, y: int, h: int, c: int):
    """:func:`check_vertex_count` of ``(y << h) - c`` vertices, for y >= 2
    and c in (1, 2), without a shift past ``_MAX_BUILT_HEIGHT``: such a count
    is over the cap, and (y - 1)·2^h + 2^h - c has h + bit_length(y - 1)
    bits, so its text is ``_int_text``'s wherever ``str`` prints at most
    315,000 digits."""
    if h < _MAX_BUILT_HEIGHT:
        check_vertex_count(name, (y << h) - c)
    else:
        raise _too_large(name, f"at least 2**{_int_text(h + (y - 1).bit_length() - 1)}")


def _params_text(*params: int) -> str:
    """``(p1, p2, ...)`` with each parameter as ``_int_text`` gives it."""
    return f"({', '.join(map(_int_text, params))})"


def _pairs(us: list[str], vs: list[str]) -> list[str]:
    """The ends of the edges ``(us[i], vs[i])``, flat."""
    return list(chain.from_iterable(zip(us, vs)))


@dataclass(frozen=True)
class GadgetHandle:
    graph: Graph
    landmarks: dict[str, Landmark]

    def __getitem__(self, name: str) -> Landmark:
        return self.landmarks[name]


# ---------------------------------------------------------------------------
# T-gadget


def _t_parts(l1: int, l2: int, name: str, p_hook: str, q_hook: str):
    """Edge ends and landmarks of one T-gadget wired between two hook vertices."""
    top = 2 * l1
    # level i of a column and position i of an arm row are entry i - 1
    left, right = ([f"{name}{column}:{i}" for i in range(1, top + 1)] for column in "lr")
    aq, ap = ([f"{name}{row}:{i}" for i in range(1, l2 + 1)] for row in ("aq", "ap"))
    ends = [q_hook, left[0], q_hook, right[0], p_hook, left[-1], p_hook, right[-1]]
    for i in range(top - 1):
        ends += (left[i], left[i + 1])
        if i != l1 - 1:  # right column is severed at the floating-arm junction
            ends += (right[i], right[i + 1])
    ends += _pairs(left, right)
    ends += (right[l1 - 1], aq[0], right[l1], ap[0])
    for row in (aq, ap):
        ends += _pairs(row, row[1:])
    ends += (aq[-2], ap[-1], ap[-2], aq[-1])
    ends += _pairs(aq[:-2], ap[:-2])
    ends += (aq[-1], ap[-1])

    landmarks: dict[str, Landmark] = {
        "f1_qp": left[0],
        "f2_qp": right[0],
        "f1_pq": left[-1],
        "f2_pq": right[-1],
        "j_qp": left[l1 - 1],
        "jn_qp": right[l1 - 1],
        "j_pq": left[l1],
        "jn_pq": right[l1],
        "w_qp": aq[0],
        "w_pq": ap[0],
        "tip_qp": aq[-1],
        "tip_pq": ap[-1],
        "half_pq": tuple(left[l1:] + right[l1:] + ap),
        "half_qp": tuple(left[:l1] + right[:l1] + aq),
    }
    return ends, landmarks


def make_T(l1: int, l2: int) -> GadgetHandle:
    """T-gadget with hooks p, q: 4*l1 + 2*l2 internal vertices."""
    params = _params_text(l1, l2)
    if l1 < 1 or l2 < 2:
        raise InvalidParamsError(f"T-gadget needs l1 >= 1 and l2 >= 2, got {params}")
    check_vertex_count(f"T{params}", 4 * l1 + 2 * l2 + 2)
    ends, landmarks = _t_parts(l1, l2, "", "p", "q")
    landmarks["p"] = "p"
    landmarks["q"] = "q"
    landmarks["ends"] = tuple(
        landmarks[name] for name in ("f1_pq", "f2_pq", "f1_qp", "f2_qp")
    )
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


# ---------------------------------------------------------------------------
# BT-gadget


def _bt_parts(h: int, name: str):
    """Edge ends and the level table of a BT(h): ``levels[k][i]`` is vertex i of level k."""
    levels = [[f"{name}{level}:{i}" for i in range(1 << level)] for level in range(h + 1)]
    ends = []
    for parents, children in zip(levels, levels[1:]):
        for parent, left, right in zip(parents, children[::2], children[1::2]):
            ends += (parent, left, parent, right)
    return ends, levels


def make_BT(h: int) -> GadgetHandle:
    """Perfect binary tree of height h: 2^(h+1) - 1 vertices, 2^h leaves."""
    if h < 1:
        raise InvalidParamsError(f"BT-gadget needs h >= 1, got {_int_text(h)}")
    _check_shifted_count(f"BT{_params_text(h)}", 2, h, 1)
    ends, levels = _bt_parts(h, "bt:")
    root, leaves = levels[0][0], tuple(levels[-1])
    return GadgetHandle(
        Graph(_edge_ends(ends)),
        {"root": root, "leaves": leaves, "ends": (root,) + leaves},
    )


# ---------------------------------------------------------------------------
# BTP-gadget


def check_btp_inequalities(h: int, l1: int, l2: int) -> list[str]:
    violated = []
    s = l1 + l2
    # 2^(h-2) past 2^bit_length(s) compares with s as that power does, so
    # no larger power is built
    if not s < (1 << min(h - 2, s.bit_length()) if h >= 2 else 0):
        violated.append(f"inequality 1 violated: l1 + l2 = {_int_text(s)} must be < 2^(h-2)")
    if not l2 > l1 + h + 1:
        violated.append(
            f"inequality 2 violated: l2 = {_int_text(l2)} must be > l1 + h + 1 = {_int_text(l1 + h + 1)}"
        )
    return violated


def _btp_parts(h: int, l1: int, l2: int, name: str):
    """Edge ends plus landmark map for a BTP; side 'ab' is the first endpoint's."""
    ends_ab, levels_ab = _bt_parts(h, f"{name}bt:ab:")
    ends_ba, levels_ba = _bt_parts(h, f"{name}bt:ba:")
    ends = ends_ab + ends_ba
    tips_ab, tips_ba = [], []
    half_ab = [v for level in levels_ab for v in level]
    half_ba = [v for level in levels_ba for v in level]
    for i, (pa, pb) in enumerate(zip(levels_ab[-1], levels_ba[-1])):
        t_ends, t_marks = _t_parts(l1, l2, f"{name}t:{i}:", pa, pb)
        ends += t_ends
        tips_ab.append(t_marks["tip_pq"])
        tips_ba.append(t_marks["tip_qp"])
        half_ab += t_marks["half_pq"]
        half_ba += t_marks["half_qp"]
    r_ab, r_ba = levels_ab[0][0], levels_ba[0][0]
    landmarks: dict[str, Landmark] = {
        "r_ab": r_ab,
        "r_ba": r_ba,
        "leaves_ab": tuple(levels_ab[-1]),
        "leaves_ba": tuple(levels_ba[-1]),
        "tips_ab": tuple(tips_ab),
        "tips_ba": tuple(tips_ba),
        "a_half": tuple(half_ab),
        "b_half": tuple(half_ba),
        "ends": (r_ab, r_ba),
    }
    return ends, landmarks


def _btp_half(label: str, l1: int) -> tuple[str, bool]:
    """``(head, in a_half)`` of a BTP label ``<head>:bt:<ab|ba>:<level>:<i>`` or
    ``<head>:t:<i>:<l|r|aq|ap>:<pos>``; the head may contain ``:``.  ``a_half``
    is the ``bt:ab`` tree plus each T-gadget's ``half_pq``: ``ap`` and ``l``/``r``
    above level l1."""
    head, kind, side, column, pos = label.rsplit(":", 4)
    if kind == "bt":
        return head, side == "ab"
    return head, column == "ap" or (column in ("l", "r") and int(pos) > l1)


def _btp_size(h: int, l1: int, l2: int) -> int:
    """|V(BTP(h, l1, l2))|: two BT(h) trees, 2^(h+1) - 1 vertices each, and
    2^h T-gadgets of 4*l1 + 2*l2 vertices between their leaves."""
    return ((4 * l1 + 2 * l2 + 4) << h) - 2


def make_BTP(h: int, l1: int, l2: int) -> GadgetHandle:
    """Two BT(h) trees whose paired leaves are joined by 2^h T-gadgets."""
    params = _params_text(h, l1, l2)
    if h < 1 or l1 < 1 or l2 < 2:
        raise InvalidParamsError(f"BTP-gadget params out of range: {params}")
    violated = check_btp_inequalities(h, l1, l2)
    if violated:
        raise ParamInequalityError(violated)
    # |V| is _btp_size's closed form
    _check_shifted_count(f"BTP{params}", 4 * l1 + 2 * l2 + 4, h, 2)
    ends, landmarks = _btp_parts(h, l1, l2, "")
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


# ---------------------------------------------------------------------------
# P-gadget


def _p_parts(d: int, name: str):
    # majors[i - 1] is a_i (1 <= i <= d), minors[i - 2] is b_i (2 <= i < d)
    majors = [f"{name}a{i}" for i in range(1, d + 1)]
    minors = [f"{name}b{i}" for i in range(2, d)]
    ends = _pairs(majors, majors[1:])
    ends += _pairs(minors, minors[1:])
    ends += _pairs(majors[1:-1], minors)
    ends += (majors[0], minors[0], majors[-1], minors[-1])
    landmarks: dict[str, Landmark] = {
        "a1": majors[0],
        "ad": majors[-1],
        "middle": majors[(d - 1) // 2],
        "majors": tuple(majors),
        "minors": tuple(minors),
        "ends": (majors[0], majors[-1]),
    }
    return ends, landmarks


def make_P(d: int) -> GadgetHandle:
    """Double path on 2d - 2 vertices: d majors rung-tied to d - 2 minors."""
    if d < 3:
        raise InvalidParamsError(f"P-gadget needs d >= 3, got {_int_text(d)}")
    check_vertex_count(f"P{_params_text(d)}", 2 * d - 2)
    ends, landmarks = _p_parts(d, "")
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


# ---------------------------------------------------------------------------
# Y-gadget


def _y_parts(d1: int, d2: int, name: str):
    z = f"{name}z"
    ends_x, marks_x = _p_parts(d1, f"{name}px:")
    ends_y, marks_y = _p_parts(d1, f"{name}py:")
    ends_z, marks_z = _p_parts(d2, f"{name}pz:")
    ends = ends_x + ends_y + ends_z
    ends += (marks_x["ad"], z, marks_y["ad"], z, z, marks_z["a1"])
    landmarks: dict[str, Landmark] = {
        "x_a": marks_x["a1"],
        "x_b": marks_x["ad"],
        "y_a": marks_y["a1"],
        "y_b": marks_y["ad"],
        "z": z,
        "z_a": marks_z["a1"],
        "z_b": marks_z["ad"],
        "px": marks_x["majors"] + marks_x["minors"],
        "py": marks_y["majors"] + marks_y["minors"],
        "pz": marks_z["majors"] + marks_z["minors"],
        "ends": (marks_x["a1"], marks_y["a1"], marks_z["ad"]),
    }
    return ends, landmarks


def _y_size(d1: int, d2: int) -> int:
    """|V(Y(d1, d2))|: P(d1) twice and P(d2), 2d - 2 vertices each, and z."""
    return 4 * d1 + 2 * d2 - 5


def make_Y(d1: int, d2: int) -> GadgetHandle:
    """Three P-gadgets joined at a central vertex: 4*d1 + 2*d2 - 5 vertices."""
    params = _params_text(d1, d2)
    if d1 < 3 or d2 < 3:
        raise InvalidParamsError(f"Y-gadget needs d1, d2 >= 3, got {params}")
    check_vertex_count(f"Y{params}", _y_size(d1, d2))
    ends, landmarks = _y_parts(d1, d2, "")
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


# ---------------------------------------------------------------------------
# Tail-gadget


def _tail_parts(name: str):
    spine = [f"{name}v{i}" for i in range(1, 10)]  # v_i is spine[i - 1]
    p, q, r = f"{name}p", f"{name}q", f"{name}r"
    ends = _pairs(spine, spine[1:])
    ends += (p, spine[1], p, spine[2], p, spine[3])
    ends += (q, spine[4], q, spine[6], q, spine[8])
    ends += (r, spine[0], r, spine[5], r, spine[7])
    landmarks: dict[str, Landmark] = {f"v{i}": v for i, v in enumerate(spine, 1)}
    landmarks.update(
        p=p,
        q=q,
        r=r,
        PT1=tuple(spine[:1]),
        PT2=tuple(spine[1:4]),
        PT3=tuple(spine[4:]),
        spine=tuple(spine),
        ends=(spine[0], spine[-1]),
    )
    return ends, landmarks


def make_Tail() -> GadgetHandle:
    """Spine of nine vertices plus three degree-3 hubs: 12 vertices."""
    ends, landmarks = _tail_parts("")
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


# ---------------------------------------------------------------------------
# C-gadget


def _c_middles(m: int, name: str) -> tuple[str, ...]:
    """C(m)'s length-m witness from labels alone: the middle majors of P_m
    (2m - 2 majors: a_(m-1)), P_(m-1) .. P_4 (a_i), then PT3, PT2, PT1."""
    if m < 4:
        raise InvalidParamsError(f"C-gadget needs m >= 4, got {_int_text(m)}")
    middles = [f"{name}p{i}:a{min(i, m - 1)}" for i in range(m, 3, -1)]
    return tuple(middles + [f"{name}tail:v{j}" for j in (7, 3, 1)])


def _c_parts(m: int, name: str):
    middles = _c_middles(m, name)
    vm2 = f"{name}vm2"
    ends: list[str] = []
    p_marks: list[dict[str, Landmark]] = []  # P_m down to P_4
    for i in range(m, 3, -1):
        d = 2 * m - 2 if i == m else 2 * i - 1
        part_ends, marks = _p_parts(d, f"{name}p{i}:")
        ends += part_ends
        p_marks.append(marks)
    tail_ends, tail_marks = _tail_parts(f"{name}tail:")
    ends += tail_ends

    ends += (vm2, p_marks[0]["a1"])
    for marks, next_marks in zip(p_marks, p_marks[1:]):
        ends += (marks["ad"], next_marks["a1"])
    ends += (p_marks[-1]["ad"], tail_marks["v9"], tail_marks["v1"], vm2)

    # both cycles run v_m2 and the majors, then close through the Tail: the
    # trunk along the whole spine, trunk' through the hub r
    trunk: list[str] = [vm2]
    for marks in p_marks:
        trunk += marks["majors"]
    trunk_prime = trunk + [tail_marks["v9"], tail_marks["v8"], tail_marks["r"], tail_marks["v1"]]
    trunk += reversed(tail_marks["spine"])

    landmarks: dict[str, Landmark] = {
        "v1": tail_marks["v1"],
        "v_m2": vm2,
        "trunk": tuple(trunk),
        "trunk_prime": tuple(trunk_prime),
        "middles": middles,
        "ends": (vm2,),
    }
    return ends, landmarks


def _c_size(m: int) -> int:
    """|V(C(m))|: 2m^2 - 2m - 1."""
    return 2 * m * m - 2 * m - 1


def _check_C_size(m: int):
    """Refuse C(m) over the cap from its closed form."""
    if m >= 4:  # _c_middles refuses a smaller m
        check_vertex_count(f"C{_params_text(m)}", _c_size(m))


def make_C(m: int) -> GadgetHandle:
    """Chained P-gadgets closed through a Tail: 2m^2 - 2m - 1 vertices."""
    _check_C_size(m)
    ends, landmarks = _c_parts(m, "")
    return GadgetHandle(Graph(_edge_ends(ends)), landmarks)


def make_C_witness(m: int) -> BurningSequence:
    """Length-m burning sequence for make_C(m): gadget middles, large to small.
    Refused, before any label is made, wherever make_C(m) is."""
    _check_C_size(m)
    return BurningSequence.of(_c_middles(m, ""))
