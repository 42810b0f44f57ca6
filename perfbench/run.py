"""burnkit benchmark: one workload per process, closed-loop, stdlib only.

    python3 perfbench/run.py --workload reduce-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

Run from the root of a source checkout; burnkit is imported from ``src/``.
A run sets up its inputs from the seed (several times, reporting the median
set-up time), then runs whole passes of the workload until the next pass
would end after ``--seconds`` (always at least one).  Every operation's
output is checked between operations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
one traced set-up, one untraced pass and one traced pass, and reports the
per-layer metrics from the spans of the traced ones plus the tracing
overhead; the spans are written to ``.bench_out/``.

The human-readable report comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

MIN_PASSES = 2

import spans  # noqa: E402
from workloads import WORKLOADS, Run, SpeedGauge  # noqa: E402

# Per-layer metrics of a traced run: (name, unit, span key, field).  Keys
# without spans read the tracer's or the workload's deterministic counters.
LAYER_METRICS = (
    ("graph.Graph.self_s", "s", "graph.Graph", "self_s"),
    ("graph.indexed.self_s", "s", "graph.indexed", "self_s"),
    ("graph.read_graph.s", "s", "graph.read_graph", "s"),
    ("graph.write_graph.s", "s", "graph.write_graph", "s"),
    ("graph.io_bytes", "bytes", None, "graph.io_bytes"),
    ("graph.vertices", "count", None, "graph.vertices"),
    ("graph.edges", "count", None, "graph.edges"),
    ("burning.simulate.self_s", "s", "burning.simulate", "self_s"),
    ("burning.simulate.bfs_visits", "count", None, "burning.simulate.bfs_visits"),
    ("burning.frontier_burn_times.self_s", "s", "burning.frontier_burn_times", "self_s"),
    ("burning.frontier_burn_times.calls", "count", "burning.frontier_burn_times", "calls"),
    ("burning.is_burning_sequence.calls", "count", "burning.is_burning_sequence", "calls"),
    ("reduction.build_H.self_s", "s", "reduction.build_H", "self_s"),
    ("reduction.audit_sequence.self_s", "s", "reduction.audit_sequence", "self_s"),
    ("reduction.vc_to_witness.s", "s", "reduction.vc_to_witness", "s"),
    ("gadgets.make_C.s", "s", "gadgets.make_C", "s"),
    ("gadgets.make_BT.s", "s", "gadgets.make_BT", "s"),
    ("solvers.vertex_cover_exact.nodes", "count", None, "solvers.vertex_cover_exact.nodes"),
    ("solvers.vertex_cover_exact.s", "s", "solvers.vertex_cover_exact", "s"),
    ("solvers.burning_number_exact.nodes", "count", None, "solvers.burning_number_exact.nodes"),
    ("solvers.burning_number_exact.s", "s", "solvers.burning_number_exact", "s"),
    ("solvers.budget_stops", "count", None, "solvers.budget_stops"),
    ("lift.build_Hd.self_s", "s", "lift.build_Hd", "self_s"),
    ("lift.lift_sequence.self_s", "s", "lift.lift_sequence", "self_s"),
    ("lift.project_sequence.self_s", "s", "lift.project_sequence", "self_s"),
    ("lift.subgraph_for.s", "s", "lift.subgraph_for", "s"),
    ("cli.reduce.self_s", "s", "cli.reduce", "self_s"),
    ("cli.witness.self_s", "s", "cli.witness", "self_s"),
    ("cli.burn.self_s", "s", "cli.burn", "self_s"),
    ("cli.audit.self_s", "s", "cli.audit", "self_s"),
    ("cli.stats.self_s", "s", "cli.stats", "self_s"),
    ("generators.random_cubic.s", "s", "generators.random_cubic", "s"),
)
# Per-layer metrics derived from the ones above, and the tracing overhead.
DERIVED_METRICS = (("solvers.vertex_cover_exact.us_per_node", "us"), ("trace.overhead_pct", "%"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="burnkit benchmark")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_burnkit():
    """burnkit from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import burnkit
    import burnkit.cli  # noqa: F401  (the CLI is driven in process)
    import burnkit.generators  # noqa: F401

    if Path(burnkit.__file__).resolve().parent.parent != src:
        raise ImportError(f"burnkit was imported from {burnkit.__file__}")
    return burnkit


def _timed_passes(workload, run: Run, seconds: float):
    """At least MIN_PASSES whole passes, then more until the next one would
    end after ``seconds``."""
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        workload.run_pass(run)
        run.next_pass()
        longest = max(longest, perf_counter() - t0)
        if run.passes >= MIN_PASSES and perf_counter() - start + longest > seconds:
            return


def _setup(workload, gauge: SpeedGauge) -> list[float]:
    """Set-up times at reference speed, one per repeat."""
    times = []
    for _ in range(workload.setup_reps):
        _, error, seconds, _ = gauge.timed(workload.setup)
        if error is not None:
            raise error
        times.append(seconds)
    return times


def run_untraced(workload, seconds: int) -> tuple[Run, dict, dict]:
    gauge = SpeedGauge()
    setup_times = _setup(workload, gauge)
    run = Run(gauge=gauge)
    _timed_passes(workload, run, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(run.best_times()), "s", run.passes),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    extra = dict(workload.metrics(run))
    extra["wall_measured_s"] = (statistics.median(run.pass_times(measured=True)), "s", run.passes)
    extra["wall_best_measured_s"] = (sum(run.best_times(measured=True)), "s", run.passes)
    extra["fail_ratio"] = (run.failed / run.attempted, "ratio", run.attempted)
    return run, metrics, extra


def run_traced(bk, workload, seed: int) -> tuple[Run, dict, dict]:
    tracer = spans.Tracer(bk)
    with tracer.installed():
        with tracer.recording("setup", "bench.setup"):
            workload.setup()
    run = Run()
    workload.run_pass(run)
    run.next_pass()
    run.tracer = tracer
    with tracer.installed():
        workload.run_pass(run)
    run.next_pass()
    untraced, traced = run.pass_times()
    table = spans.aggregate(tracer.spans)
    counters = {**tracer.counters, **{k: v // run.passes for k, v in run.counters.items()}}
    metrics = {}
    for name, unit, key, field in LAYER_METRICS:
        if key is None:
            metrics[name] = (counters.get(field, 0), unit, 1)
        else:
            row = table.get(key, {})
            metrics[name] = (row.get(field, 0), unit, row.get("calls", 0))
    vc = table.get("solvers.vertex_cover_exact")
    vc_nodes = counters.get("solvers.vertex_cover_exact.nodes", 0)
    us_per_node = vc["s"] / vc_nodes * 1e6 if vc and vc_nodes else 0.0
    derived = {
        "solvers.vertex_cover_exact.us_per_node": (us_per_node, vc_nodes),
        "trace.overhead_pct": ((traced / untraced - 1) * 100, 2),
    }
    for name, unit in DERIVED_METRICS:
        value, samples = derived[name]
        metrics[name] = (value, unit, samples)
    _write_spans(tracer, workload.name, seed)
    layers = {}
    for key, row in table.items():
        layer = key.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    extra = {f"layer.{k}.self_s": (v, "s", 1) for k, v in sorted(layers.items())}
    extra["fail_ratio"] = (run.failed / run.attempted, "ratio", run.attempted)
    return run, metrics, extra


def _write_spans(tracer, workload: str, seed: int):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "spans": [[s.sid, s.parent, s.name, s.key, s.start, s.end] for s in tracer.spans],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _print_table(title: str, metrics: dict):
    print(f"# {title}")
    width = max(len(name) for name in metrics)
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<{width}}  {shown} {unit:<6} n={samples}")


def run_one(args) -> int:
    try:
        bk = _import_burnkit()
    except ImportError as exc:
        print(f"perfbench: cannot import burnkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    cls = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(bk, workdir, args.seed)
        if args.trace:
            run, metrics, extra = run_traced(bk, workload, args.seed)
        else:
            run, metrics, extra = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(
        f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
        f"passes={run.passes}"
    )
    _print_table("per-layer metrics" if args.trace else "end-to-end metrics", metrics)
    _print_table("workload metrics", extra)
    for line in run.failures[:20]:
        print(f"# FAILED {line}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
