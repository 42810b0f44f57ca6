"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Tolerances are exact; runtime budgets are asserted.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np

from burnkit.burning import frontier_burn_times, is_burning_sequence
from burnkit.cli import main as cli_main
from burnkit.gadgets import make_BT, make_BTP, make_C, make_C_witness, make_P, make_T, make_Tail, make_Y
from burnkit.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    prism_graph,
    random_connected_graph,
    random_cubic,
)
from burnkit.graph import Graph, bfs_distances, is_connected, is_regular, write_graph
from burnkit.lift import build_Hd, lift_sequence, project_sequence
from burnkit.reduction import audit_sequence, build_H, expected_vertex_count, vc_to_witness
from burnkit.solvers import (
    burning_number_exact,
    burning_number_naive,
    ceil_sqrt,
    path_cycle_burning_number,
    path_cycle_witness,
    vertex_cover_exact,
)


class _Criterion:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.t0 = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if elapsed < self.budget_s else "FAIL (over budget)"
        print(f"[criterion {self.number}] {status}: {self.name} ({elapsed:.1f}s / {self.budget_s:.0f}s)")
        assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"


def test_criterion_1_gadget_closed_forms():
    crit = _Criterion(1, "gadget closed forms and distances", 5.0)
    for l1 in range(1, 6):
        for l2 in range(2, 13):
            t = make_T(l1, l2)
            assert t.graph.vertex_count - 2 == 4 * l1 + 2 * l2
            dp = bfs_distances(t.graph, t["p"])
            assert dp[t["q"]] + 1 == 2 * l1 + 2
            assert dp[t["tip_pq"]] + 1 == l1 + l2 + 1
            dq = bfs_distances(t.graph, t["q"])
            assert dq[t["tip_qp"]] + 1 == l1 + l2 + 1
    for h in range(1, 9):
        bt = make_BT(h)
        assert bt.graph.vertex_count == 2 ** (h + 1) - 1
        assert len(bt["leaves"]) == 2**h
        dm = bfs_distances(bt.graph, bt["root"])
        assert all(dm[leaf] == h for leaf in bt["leaves"])
    for h, l1, l2 in [(6, 1, 9), (6, 1, 14), (7, 1, 10), (7, 9, 18)]:
        btp = make_BTP(h, l1, l2)
        assert btp.graph.vertex_count == 2 * (2 ** (h + 1) - 1) + 2**h * (4 * l1 + 2 * l2)
        dm = bfs_distances(btp.graph, btp["r_ab"])
        assert dm[btp["r_ba"]] + 1 == 2 * h + 2 * l1 + 2
        assert all(dm[t] + 1 == h + 1 + l1 + l2 for t in btp["tips_ab"])
    for d in range(3, 41):
        assert make_P(d).graph.vertex_count == 2 * d - 2
    for d1, d2 in [(3, 3), (4, 6), (9, 5), (17, 19)]:
        assert make_Y(d1, d2).graph.vertex_count == 4 * d1 + 2 * d2 - 5
    assert make_Tail().graph.vertex_count == 12
    for m in range(4, 13):
        c = make_C(m)
        assert c.graph.vertex_count == 2 * m * m - 2 * m - 1
        assert len(c["trunk"]) == m * m
        assert len(c["trunk_prime"]) == m * m - 5
    crit.finish()


def test_criterion_2_c_gadget_burning_number():
    crit = _Criterion(2, "b(C(m)) = m exactly at m in {4, 5}; witnesses to m = 40", 125.0)
    for m in (4, 5):
        t0 = time.monotonic()
        result = burning_number_exact(make_C(m).graph)
        assert result.value == m
        assert time.monotonic() - t0 < 60.0
    t0 = time.monotonic()
    for m in range(4, 41):
        c = make_C(m)
        w = make_C_witness(m)
        assert len(w) == m
        assert is_burning_sequence(c.graph, w)
    assert time.monotonic() - t0 < 5.0
    crit.finish()


def test_criterion_3_paths_and_cycles():
    crit = _Criterion(3, "paths/cycles: solver matches ceil(sqrt(n)); witnesses to 10^4", 70.0)
    t0 = time.monotonic()
    for n in range(1, 26):
        assert burning_number_exact(path_graph(n)).value == ceil_sqrt(n)
        assert path_cycle_burning_number(n, "path") == ceil_sqrt(n)
        if n >= 3:
            assert burning_number_exact(cycle_graph(n)).value == ceil_sqrt(n)
    sizes = set(range(1, 101))
    for k in range(2, 41):
        sizes.update({k * k - 1, k * k, k * k + 1})
    sizes.update({2_500, 4_000, 5_000, 7_000, 9_025, 9_026, 9_999, 10_000})
    sizes = sorted(s for s in sizes if 1 <= s <= 10_000)
    t_witness = time.monotonic()
    for n in sizes:
        w = path_cycle_witness(n, "path")
        assert len(w) == ceil_sqrt(n)
        assert is_burning_sequence(path_graph(n), w)
        if n >= 3:
            w = path_cycle_witness(n, "cycle")
            assert len(w) == ceil_sqrt(n)
            assert is_burning_sequence(cycle_graph(n), w)
    assert time.monotonic() - t_witness < 10.0
    crit.finish()


def test_criterion_4_oracle_equivalence():
    crit = _Criterion(4, "exact = naive on 200 random graphs, |V| <= 10", 60.0)
    rng = random.Random(20240811)
    for trial in range(200):
        n = rng.randint(1, 10)
        g = random_connected_graph(n, seed=rng.randrange(1 << 30))
        assert burning_number_exact(g).value == burning_number_naive(g).value
    crit.finish()


def _labeled_connected_cubic(n: int) -> list[frozenset[tuple[int, int]]]:
    """All labeled connected cubic graphs on vertices 0..n-1."""
    adj: list[set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    found: list[frozenset[tuple[int, int]]] = []

    def rec(i: int, min_j: int):
        if i == n:
            edges = frozenset((a, b) for a in range(n) for b in adj[a] if a < b)
            g = Graph((str(a), str(b)) for a, b in edges)
            if g.vertex_count == n and is_connected(g):
                found.append(edges)
            return
        if deg[i] == 3:
            rec(i + 1, i + 2)
            return
        for j in range(max(i + 1, min_j), n):
            if deg[j] < 3 and j not in adj[i]:
                adj[i].add(j)
                adj[j].add(i)
                deg[i] += 1
                deg[j] += 1
                rec(i, j + 1)
                adj[i].discard(j)
                adj[j].discard(i)
                deg[i] -= 1
                deg[j] -= 1

    rec(0, 1)
    return found


def _cubic_catalog(n: int) -> list[Graph]:
    """Non-isomorphic connected cubic graphs on n vertices, deduplicated by a
    spectral-plus-invariants fingerprint (class counts asserted elsewhere)."""
    reps: dict[tuple, Graph] = {}
    for edges in _labeled_connected_cubic(n):
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        eig = tuple(np.round(np.linalg.eigvalsh(a), 6))
        cubed = a @ a @ a
        per_vertex_triangles = tuple(sorted(int(round(cubed[i, i])) for i in range(n)))
        key = (eig, per_vertex_triangles)
        if key not in reps:
            reps[key] = Graph((f"v{u}", f"v{v}") for u, v in edges)
    return list(reps.values())


def test_criterion_5_vertex_cover_lemmas():
    crit = _Criterion(5, "beta(G') = beta(G)+1 and cubic beta bounds", 60.0)
    from burnkit.reduction import double_subdivide

    expected_classes = {4: 1, 6: 2, 8: 5}  # connected cubic graphs up to iso
    graphs: list[Graph] = []
    for n, count in expected_classes.items():
        catalog = _cubic_catalog(n)
        assert len(catalog) == count, (n, len(catalog))
        graphs += catalog
    rng = random.Random(5)
    sizes = [4, 6, 8, 10, 12, 14, 16]
    for _ in range(50):
        graphs.append(random_cubic(rng.choice(sizes), seed=rng.randrange(1 << 30)))
    for g in graphs:
        n = g.vertex_count
        beta = vertex_cover_exact(g).value
        assert n / 2 <= beta <= -(-2 * n // 3)
        gp, _, _ = double_subdivide(g)
        assert vertex_cover_exact(gp).value == beta + 1
    crit.finish()


def test_criterion_6_k4_pipeline():
    crit = _Criterion(6, "end-to-end K4 pipeline", 120.0)
    k4 = complete_graph(4)
    inst = build_H(k4)
    # closed-form recomputation: 6 + 8*9726 + 101 + 2379 with the n'=6 params
    p = inst.params
    assert (p.cn, p.h, p.l1, p.l2, p.d1, p.d2, p.m) == (32, 7, 9, 18, 17, 19, 35)
    assert expected_vertex_count(p, inst.g_prime.edge_count) == 80_294
    assert inst.h_graph.vertex_count == 80_294
    assert is_connected(inst.h_graph)
    assert is_regular(inst.h_graph, 3)

    cover = vertex_cover_exact(inst.g_prime)
    assert cover.value == 4  # k' = beta(K4) + 1
    witness = vc_to_witness(inst, cover.witness)
    assert len(witness) == cover.value + p.cn + 3 == 39
    assert is_burning_sequence(inst.h_graph, witness)

    truncated = list(witness)[:-1]
    times = frontier_burn_times(inst.h_graph, truncated)
    assert len(times) < inst.h_graph.vertex_count  # at least one vertex unburned

    report = audit_sequence(inst, witness)
    assert report.valid and report.complete
    assert not report.unrepresented
    assert report.bl_ub
    crit.finish()


def test_criterion_7_lifting():
    crit = _Criterion(7, "d-regular lifting, bounds, and projections", 300.0)
    bases = {
        "K4": complete_graph(4),
        "K33": complete_bipartite(3, 3),
        "prism": prism_graph(),
    }
    for name, base in bases.items():
        b_base = burning_number_exact(base)
        for d in (4, 5, 6):
            lifted = build_Hd(base, d)
            assert lifted.graph.vertex_count == (d - 2) * base.vertex_count
            assert is_connected(lifted.graph)
            assert is_regular(lifted.graph, d)
            result = burning_number_exact(lifted.graph)
            assert b_base.value <= result.value <= b_base.value + 1
            lifted_witness = lift_sequence(lifted, b_base.witness)
            assert is_burning_sequence(lifted.graph, lifted_witness)
            assert len(lifted_witness) <= b_base.value + 1
            for dp in range(3, d):
                projected = project_sequence(lifted, result.witness, dp)
                target = base if dp == 3 else build_Hd(base, dp).graph
                assert is_burning_sequence(target, projected)
                assert len(projected) <= result.value
    assert burning_number_exact(build_Hd(bases["K4"], 4).graph).value == 3
    crit.finish()


def _run_cli(argv: list[str]) -> int:
    return cli_main(argv)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    crit = _Criterion(8, "byte-identical CLI outputs across reruns", 300.0)
    k4_file = tmp_path / "k4.g"
    k4_file.write_text(write_graph(complete_graph(4)), encoding="utf-8")

    def snapshot(run_dir: Path) -> dict[str, bytes]:
        run_dir.mkdir()
        results: dict[str, bytes] = {}

        def go(name: str, argv: list[str]):
            assert _run_cli(argv) == 0
            results[f"report:{name}"] = capsys.readouterr().out.encode()

        g = str(run_dir / "c4.g")
        marks = str(run_dir / "c4.landmarks")
        go("gen-gadget", ["gen-gadget", "C", "4", "-o", g, "-l", marks])
        go("gen-cubic", ["gen-gadget", "cubic", "8", "--seed", "3",
                         "-o", str(run_dir / "cub.g")])
        go("stats", ["stats", g])
        go("solve-burn", ["solve-burn", g, "-o", str(run_dir / "c4.seq")])
        go("burn", ["burn", g, str(run_dir / "c4.seq")])
        go("solve-vc", ["solve-vc", str(k4_file), "-o", str(run_dir / "k4.cover")])
        go("dot", ["dot", g, "-l", marks, "-o", str(run_dir / "c4.dot")])
        h = str(run_dir / "h.g")
        go("reduce", ["reduce", str(k4_file), "-o", h, "-l", str(run_dir / "h.landmarks")])
        seq = str(run_dir / "w.seq")
        go("witness", [ "witness", str(run_dir / "h.meta"), "-o", seq])
        go("burn-h", ["burn", h, seq])
        go("audit", ["audit", str(k4_file), seq])
        h4 = str(run_dir / "h4.g")
        go("lift", ["lift", str(k4_file), "--d", "4", "-o", h4])
        h4seq = str(run_dir / "h4.seq")
        go("solve-burn-h4", ["solve-burn", h4, "-o", h4seq])
        go("project", ["project", str(k4_file), h4seq, "--d", "4", "--dprime", "3",
                       "-o", str(run_dir / "proj.seq")])

        for file in sorted(run_dir.iterdir()):
            results[f"file:{file.name}"] = file.read_bytes()
        return results

    first = snapshot(tmp_path / "run1")
    second = snapshot(tmp_path / "run2")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"output differs across runs: {key}"
    crit.finish()
