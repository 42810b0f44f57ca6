"""The three benchmark workloads and the closed-loop operation log they share.

Each workload builds its inputs from the seed in ``setup`` and runs one pass
of its operations in ``run_pass``.  A pass is closed-loop: one caller, and
each operation starts only after the previous one has returned and its
output has been checked.  Only the operations themselves are timed; the
checks run between them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import gate


class OpFailed(Exception):
    """An operation raised, exited with an unexpected code, or failed its check."""


def _reference_loop() -> int:
    d: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        k = i & 1023
        d[k] = d.get(k, 0) + i
        acc += len(d)
    return acc


class SpeedGauge:
    """How fast this machine runs Python right now, from a fixed reference loop.

    Other tenants of a shared machine slow every process on it by up to 60%,
    for under a second to minutes at a time.  The slowdown is common to the
    reference loop and to burnkit's code, so an operation's time multiplied
    by ``REFERENCE_S / loop time`` (measured next to it) is what it would
    have taken at the reference speed: the speed of the loop on an idle core
    of the machine the benchmark was defined on.
    """

    REFERENCE_S = 0.0133
    MAX_AGE_S = 0.5  # re-measure the loop when its last reading is older
    READINGS = 5  # a reading is the median of this many loops

    def __init__(self):
        self._reading = 0.0
        self._at = float("-inf")

    def loop_seconds(self) -> float:
        if perf_counter() - self._at > self.MAX_AGE_S:
            times = []
            for _ in range(self.READINGS):
                start = perf_counter()
                _reference_loop()
                self._at = perf_counter()
                times.append(self._at - start)
            self._reading = statistics.median(times)
        return self._reading

    def timed(self, fn, *args):
        """``fn(*args)``'s result or exception, its time at reference speed,
        and its measured time."""
        before = self.loop_seconds()
        start = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:
            result, error = None, exc
        elapsed = perf_counter() - start
        loop = (before + self.loop_seconds()) / 2
        return result, error, elapsed * self.REFERENCE_S / loop, elapsed


class Run:
    """Timings, outcomes and deterministic counters of the operations of one run."""

    def __init__(self, gauge: SpeedGauge | None = None):
        self.tracer = None  # a spans.Tracer once tracing is on
        self.gauge = gauge or SpeedGauge()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (pass, slot, kind, seconds at reference speed, measured seconds)
        self.samples: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, int] = {}
        self.passes = 0
        self._slot = 0

    def next_pass(self):
        self.passes += 1
        self._slot = 0

    def call(self, kind: str, fn, *args, span: tuple[str, str] | None = None):
        """Time one call to ``fn``; raise :class:`OpFailed` if it raises."""
        self.attempted += 1
        if self.tracer is not None:
            name, key = span or (f"bench.{kind}", f"bench.{kind}")
            fn = self.tracer.recorded(name, key, fn)
        result, error, seconds, measured = self.gauge.timed(fn, *args)
        self.samples.append((self.passes, self._slot, kind, seconds, measured))
        self._slot += 1
        if error is not None:
            self._fail(kind, f"{type(error).__name__}: {error}")
        return result

    def verify(self, kind: str, problems: list[str]):
        if problems:
            self._fail(kind, "; ".join(problems))

    def skip(self, count: int):
        """Operations that could not run because an earlier one failed."""
        self.attempted += count
        self.failed += count

    def count(self, key: str, value: int):
        self.counters[key] = self.counters.get(key, 0) + value

    def _fail(self, kind: str, why: str):
        self.failed += 1
        self.failures.append(f"pass {self.passes} {kind}: {why}")
        raise OpFailed(why)

    def pass_times(self, measured: bool = False) -> list[float]:
        """Per pass, the summed time of its operations, at reference speed or
        as measured."""
        totals = [0.0] * self.passes
        for p, _, _, seconds, raw in self.samples:
            if p < self.passes:
                totals[p] += raw if measured else seconds
        return totals

    def best_times(self, kinds: tuple[str, ...] | None = None, measured: bool = False) -> list[float]:
        """Each operation of a pass (of ``kinds`` only, if given) at its fastest
        over the passes.  Interference from other processes only ever slows
        an operation down, so the fastest repeat is the steadiest estimate."""
        best: dict[int, float] = {}
        for p, slot, kind, seconds, raw in self.samples:
            if measured:
                seconds = raw
            if p < self.passes and (kinds is None or kind in kinds):
                best[slot] = min(best.get(slot, seconds), seconds)
        return list(best.values())


EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict[str, dict[str, int]]:
    """Solver values recorded by ``record_expected.py``."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def relabel(bk, g, names: list[str]):
    """``g`` with its vertices, in label order, renamed to ``names``."""
    mapping = dict(zip(g.vertices, names))
    return bk.Graph((mapping[u], mapping[v]) for u, v in g.edges())


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct labels of one fixed length, in seeded random order."""
    return [f"v{i}" for i in rng.sample(range(1000, 10000), count)]


def shuffled_names(g, rng: random.Random) -> list[str]:
    names = list(g.vertices)
    rng.shuffle(names)
    return names


# ---------------------------------------------------------------------------
# reduce-pipeline


class PipelineInput(NamedTuple):
    name: str
    path: Path
    cn: int
    vertices: int  # of H
    k_prime: int  # recorded minimum vertex cover of G'
    h_sha256: str  # of write_graph(build_H(G).h_graph)


class ReducePipeline:
    """CLI chain reduce -> witness -> burn -> audit -> stats on K4 and the prism.

    Both give cn' = 32, so |V(H)| is 80,294 and 109,478.  Graph construction,
    edge-list I/O, build_H and simulate do nearly all of the work; G' has 6 or
    8 vertices, so the vertex-cover solver does almost none.
    """

    name = "reduce-pipeline"
    setup_reps = 3
    stages = ("reduce", "witness", "burn", "audit", "stats")

    def __init__(self, bk, workdir: Path, seed: int):
        self.bk = bk
        self.workdir = workdir
        self.seed = seed
        self.inputs: list[PipelineInput] = []
        self.k_prime = load_expected()["k_prime"]

    def setup(self):
        """Seeded relabellings of K4 and the prism, written as edge-list files,
        and the digest of the H file that ``reduce`` must write for each: the
        edge list of the H that the library builds in memory."""
        bk = self.bk
        rng = random.Random(self.seed)
        self.inputs = []
        for name, base in (("k4", bk.generators.complete_graph(4)), ("prism", bk.generators.prism_graph())):
            g = relabel(bk, base, fresh_names(rng, base.vertex_count))
            path = self.workdir / f"{name}.g"
            path.write_text(bk.write_graph(g), encoding="utf-8")
            h_text = bk.write_graph(bk.build_H(g).h_graph)
            # G' gains two vertices and two edges from the double subdivision
            params = bk.choose_params(g.vertex_count + 2)
            vertices = bk.expected_vertex_count(params, g.edge_count + 2)
            self.inputs.append(PipelineInput(
                name, path, params.cn, vertices, self.k_prime[name],
                hashlib.sha256(h_text.encode("utf-8")).hexdigest(),
            ))

    def run_pass(self, run: Run):
        for inp in self.inputs:
            before = run.attempted
            try:
                self._chain(run, inp)
            except OpFailed:
                run.skip(len(self.stages) - (run.attempted - before))

    def _cli(self, run: Run, argv: list[str]) -> dict[str, str]:
        out, err = io.StringIO(), io.StringIO()

        def main():
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    return self.bk.cli.main(argv)
                except SystemExit as exc:
                    return exc.code

        code = run.call(argv[0], main, span=("burnkit.cli.main", f"cli.{argv[0]}"))
        if code != 0:
            run.verify(argv[0], [f"exit code {code}: {err.getvalue().strip()}"])
        return gate.parse_report(out.getvalue())

    def _chain(self, run: Run, inp: PipelineInput):
        g = str(inp.path)
        h = self.workdir / f"{inp.name}.h.g"
        meta = self.workdir / f"{inp.name}.h.meta"
        seq = str(self.workdir / f"{inp.name}.seq")
        report = self._cli(run, ["reduce", g, "-o", str(h)])
        h_sha256 = hashlib.sha256(h.read_bytes()).hexdigest() if h.is_file() else "no file"
        run.verify("reduce", gate.check_reduce(report, inp.vertices, h_sha256, inp.h_sha256))
        report = self._cli(run, ["witness", str(meta), "-o", seq])
        run.verify("witness", gate.check_witness(report, inp.cn, _gprime_edges(meta), inp.k_prime))
        length = int(report["length"])
        report = self._cli(run, ["burn", str(h), seq])
        run.verify("burn", gate.check_burn(report, length))
        report = self._cli(run, ["audit", g, seq])
        run.verify("audit", gate.check_audit(report, length))
        report = self._cli(run, ["stats", str(h)])
        run.verify("stats", gate.check_stats(report, inp.vertices))
        run.count("graph.vertices", inp.vertices)
        run.count("graph.edges", 3 * inp.vertices // 2)

    def metrics(self, run: Run) -> dict:
        return {
            f"{stage}_s": (sum(run.best_times((stage,))), "s", run.passes)
            for stage in ("reduce", "burn", "audit")
        }


def _gprime_edges(meta: Path) -> list[tuple[str, str]]:
    edges = []
    for line in meta.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        if key == "gprime-edge":
            u, v = value.split()
            edges.append((u, v))
    return edges


# ---------------------------------------------------------------------------
# exact-solve

VC_SIZES = (60, 64, 68, 72, 76, 80, 84, 88)
# Burning number on random cubic graphs: below ~62 vertices a 5-source cover
# is found at once, from 84 on the volume bound rules out k = 5 at once.  In
# between, proving k = 5 infeasible takes 0.3M+ search nodes (3-6 s) per
# instance, too slow for a batch of 100 instances in one run.
BURN_CUBIC_SIZES = (56, 58, 60, 84, 88, 92, 96, 100)
# Per solver: the sizes, and the pool random_cubic(n, 1..pool) of each size
# whose values expected.json holds.
SOLVER_POOLS = {"vertex_cover": (VC_SIZES, 30), "burning_number": (BURN_CUBIC_SIZES, 30)}
# Instances drawn per size.  Vertex-cover cost varies most between instances,
# so it gets more of them.
PER_SIZE = {"vertex_cover": 10, "burning_number": 5}
CYCLES = (16, 20, 24, 27, 30, 36, 40, 42, 49, 50, 56, 60, 63, 64, 70, 72, 80)
C_GADGETS = (4, 5, 6, 7)
BT_GADGETS = (3, 4, 5)

class ExactSolve:
    """A seeded batch of 144 desk-scale exact solves.

    The solvers do nearly all of the work and graph and burning almost none.
    Search cost varies by orders of magnitude between instances, so the
    per-instance latency tail is reported.  Every value is checked against a
    closed form or against the value recorded in expected.json.
    """

    name = "exact-solve"
    setup_reps = 3

    def __init__(self, bk, workdir: Path, seed: int):
        self.bk = bk
        self.seed = seed
        self.instances: list[tuple[str, str, object, int | None]] = []
        self.expected = load_expected()

    def setup(self):
        """Draw the instances from the pools, relabel the cycles and gadgets,
        and build each graph's lazy index, so that every pass starts from the
        same warm state."""
        bk = self.bk
        gen = bk.generators
        expected = self.expected
        rng = random.Random(self.seed)
        plan: list[tuple[str, str, object, int | None]] = []
        for solver, (sizes, pool) in SOLVER_POOLS.items():
            for n in sizes:
                for s in sorted(rng.sample(range(1, pool + 1), PER_SIZE[solver])):
                    label = f"cubic({n},{s})"
                    plan.append((solver, label, gen.random_cubic(n, s), expected[solver].get(label)))
        for n in CYCLES:
            g = gen.cycle_graph(n)
            plan.append(("burning_number", f"cycle({n})", relabel(bk, g, shuffled_names(g, rng)), bk.solvers.ceil_sqrt(n)))
        for m in C_GADGETS:
            g = bk.make_C(m).graph
            plan.append(("burning_number", f"C({m})", relabel(bk, g, shuffled_names(g, rng)), m))
        for h in BT_GADGETS:
            g = bk.make_BT(h).graph
            label = f"BT({h})"
            plan.append(("burning_number", label, relabel(bk, g, shuffled_names(g, rng)), expected["burning_number"].get(label)))
        rng.shuffle(plan)
        for _, _, g, _ in plan:
            g.indexed()
        self.instances = plan

    def run_pass(self, run: Run):
        bk = self.bk
        for solver, label, g, expected in self.instances:
            try:
                if solver == "vertex_cover":
                    result = run.call("solve", bk.vertex_cover_exact, g)
                    problems = gate.check_cover(g, result.witness, result.value, expected)
                else:
                    result = run.call("solve", bk.burning_number_exact, g)
                    problems = gate.check_burning(bk, g, result.witness, result.value, expected)
                run.verify("solve", [f"{solver} {label}: {p}" for p in problems])
            except OpFailed:
                continue
            run.count("graph.vertices", g.vertex_count)
            run.count("graph.edges", g.edge_count)

    def metrics(self, run: Run) -> dict:
        latencies = run.best_times(("solve",))
        cuts = statistics.quantiles(latencies, n=10, method="inclusive")
        n = len(latencies)
        return {
            "solve_p50_ms": (statistics.median(latencies) * 1e3, "ms", n),
            "solve_p90_ms": (cuts[8] * 1e3, "ms", n),
        }


# ---------------------------------------------------------------------------
# regular-lift


class RegularLift:
    """build_Hd of the K4 reduction graph H, lift and project its witness.

    The graph and burning layers are used differently from reduce-pipeline:
    160k- and 240k-vertex graphs are built from memory, and sequences are
    checked by the frontier engine (is_burning_sequence), not by simulate.
    No file I/O and no solver runs in the timed phase.
    """

    name = "regular-lift"
    setup_reps = 3
    ops_per_pass = 8

    def __init__(self, bk, workdir: Path, seed: int):
        self.bk = bk
        self.seed = seed
        self.inst = None
        self.cover = None
        self.k_prime = load_expected()["k_prime"]["k4"]

    def setup(self):
        """Build H from a seeded relabelling of K4, its index, and a minimum
        vertex cover of G'."""
        bk = self.bk
        rng = random.Random(self.seed)
        base = bk.generators.complete_graph(4)
        self.inst = None  # free the previous H before building the next one
        inst = bk.build_H(relabel(bk, base, fresh_names(rng, base.vertex_count)))
        inst.h_graph.indexed()
        self.cover = bk.vertex_cover_exact(inst.g_prime).witness
        self.inst = inst

    def run_pass(self, run: Run):
        before = run.attempted
        try:
            self._chain(run)
        except OpFailed:
            run.skip(self.ops_per_pass - (run.attempted - before))

    def _chain(self, run: Run):
        bk, inst = self.bk, self.inst
        h = inst.h_graph
        witness = run.call("vc_to_witness", bk.vc_to_witness, inst, self.cover)
        want = self.k_prime + inst.params.cn + 3
        problems = [] if len(witness) == want else [f"witness length {len(witness)} != k' + cn' + 3 = {want}"]
        if len(self.cover) != self.k_prime:
            problems.append(f"G' cover has {len(self.cover)} vertices, recorded minimum {self.k_prime}")
        run.verify("vc_to_witness", problems + gate.check_sequence(bk, h, witness, want))
        run.count("graph.vertices", h.vertex_count)
        run.count("graph.edges", h.edge_count)
        # d = 5 first: its projection onto d' = 4 is then checked on the H_4
        # that the d = 4 step builds anyway, so no extra graph is held.
        pending = None
        for d in (5, 4):
            lifted = run.call("build_Hd", bk.build_Hd, h, d)
            g = lifted.graph
            problems = []
            if g.vertex_count != (d - 2) * h.vertex_count or not bk.is_regular(g, d):
                problems.append(f"H_{d} has {g.vertex_count} vertices or is not {d}-regular")
            run.verify("build_Hd", problems)
            run.count("graph.vertices", g.vertex_count)
            run.count("graph.edges", g.edge_count)
            if pending is not None:
                run.verify("project_sequence", gate.check_sequence(bk, g, *pending))
            lifted_seq = run.call("lift_sequence", bk.lift_sequence, lifted, witness)
            run.verify("lift_sequence", gate.check_sequence(bk, g, lifted_seq, len(witness) + 1))
            for d_prime in range(3, d):
                projected = run.call("project_sequence", bk.project_sequence, lifted, lifted_seq, d_prime)
                if d_prime == 3:
                    run.verify("project_sequence", gate.check_sequence(bk, h, projected, len(lifted_seq)))
                else:
                    pending = (projected, len(lifted_seq))
            lifted = g = None

    def metrics(self, run: Run) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ReducePipeline, ExactSolve, RegularLift)}
