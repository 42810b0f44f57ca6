"""Batch command-line front end.

Every subcommand is a thin shell over a library operation; reports are
``key<TAB>value`` lines on stdout and are byte-identical across runs on
identical inputs (timings only appear under ``--timings``, in a separate
trailing section).

Exit codes: 0 success, 1 domain error (error name echoed on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from . import gadgets
from .burning import (
    BurnError,
    InvalidSequenceError,
    last_step_set,
    read_sequence,
    simulate,
    uniquely_burned_set,
    write_sequence,
)
from .gadgets import GadgetError, GadgetHandle
from .generators import cycle_graph, path_graph, random_cubic
from .graph import Graph, GraphError, degree_histogram, is_connected, read_graph, write_graph
from .lift import LiftError, build_Hd, project_sequence
from .reduction import ReductionError, audit_sequence, build_H, witness_sources
from .solvers import (
    SolverError,
    burning_number_exact,
    burning_number_naive,
    vertex_cover_exact,
)

_ERRORS = (GraphError, BurnError, GadgetError, ReductionError, SolverError, LiftError)

_GADGET_ARITY = {
    "T": 2, "BT": 1, "BTP": 3, "P": 1, "Y": 2, "Tail": 0, "C": 1,
    "path": 1, "cycle": 1, "cubic": 1,
}


class _UsageError(Exception):
    pass


class MetaFormatError(ReductionError):
    """A reduce meta file lacks x, y or m, or has a malformed line."""


class _Report:
    def __init__(self, timings: bool):
        self.lines: list[tuple[str, object]] = []
        self.timing_lines: list[tuple[str, float]] = []
        self.show_timings = timings
        self._t0 = time.monotonic()

    def add(self, key: str, value: object):
        self.lines.append((key, value))

    def add_input(self, path: str):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
        self.lines.append(("input", digest))

    def timing(self, key: str):
        self.timing_lines.append((key, time.monotonic() - self._t0))
        self._t0 = time.monotonic()

    def emit(self):
        for key, value in self.lines:
            print(f"{key}\t{value}")
        if self.show_timings and self.timing_lines:
            print("# timings")
            for key, value in self.timing_lines:
                print(f"{key}\t{value:.3f}s")


def _read_graph_file(path: str) -> Graph:
    return read_graph(Path(path).read_text(encoding="utf-8"))


def _write_file(path: str | None, text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _fmt_landmark(value) -> str:
    if isinstance(value, str):
        return value
    return ",".join(value)


def _write_landmarks(path: str | None, landmarks: dict):
    if not path:
        return
    lines = [f"{name}\t{_fmt_landmark(value)}" for name, value in sorted(landmarks.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_dot(g: Graph, landmarks: dict | None = None) -> str:
    """DOT text with landmark vertices styled and annotated."""
    tagged: dict[str, list[str]] = {}
    for name, value in sorted((landmarks or {}).items()):
        labels = [value] if isinstance(value, str) else list(value)
        for lbl in labels:
            tagged.setdefault(lbl, []).append(name)
    out = ["graph burnkit {", "  node [shape=circle];"]
    for v in g.vertices:
        if v in tagged:
            names = ",".join(tagged[v])
            out.append(f'  "{v}" [style=filled, fillcolor=lightblue, xlabel="{names}"];')
        elif g.degree(v) == 0:
            out.append(f'  "{v}";')
    for u, v in g.edges():
        out.append(f'  "{u}" -- "{v}";')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_gadget(args, rep: _Report) -> int:
    kind = args.kind
    if len(args.params) != _GADGET_ARITY[kind]:
        raise _UsageError(
            f"gen-gadget {kind} takes {_GADGET_ARITY[kind]} parameter(s), "
            f"got {len(args.params)}"
        )
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        raise _UsageError(f"gadget parameters must be integers: {args.params}") from None
    handle: GadgetHandle | None = None
    if kind == "T":
        handle = gadgets.make_T(*params)
    elif kind == "BT":
        handle = gadgets.make_BT(*params)
    elif kind == "BTP":
        handle = gadgets.make_BTP(*params)
    elif kind == "P":
        handle = gadgets.make_P(*params)
    elif kind == "Y":
        handle = gadgets.make_Y(*params)
    elif kind == "Tail":
        handle = gadgets.make_Tail(*params)
    elif kind == "C":
        handle = gadgets.make_C(*params)
    elif kind == "path":
        g = path_graph(*params)
    elif kind == "cycle":
        g = cycle_graph(*params)
    elif kind == "cubic":
        g = random_cubic(params[0], seed=args.seed)
    else:
        raise GadgetError(f"unknown gadget kind {kind!r}")
    if handle is not None:
        g = handle.graph
        _write_landmarks(args.landmarks, handle.landmarks)
    _write_file(args.output, write_graph(g))
    rep.add("kind", kind)
    rep.add("params", ",".join(map(str, params)))
    rep.add("vertices", g.vertex_count)
    rep.add("edges", g.edge_count)
    rep.timing("generate")
    return 0


def _meta_text(inst) -> str:
    lines = [f"{k}\t{v}" for k, v in inst.params.as_dict().items()]
    lines.append(f"x\t{inst.x}")
    lines.append(f"y\t{inst.y}")
    lines.append(f"subdivided\t{inst.subdivided_edge[0]} {inst.subdivided_edge[1]}")
    for u, v in inst.g_prime.edges():
        lines.append(f"gprime-edge\t{u} {v}")
    return "\n".join(lines) + "\n"


def _parse_meta(path: str) -> dict:
    meta: dict = {"edges": []}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, value = line.partition("\t")
        if key == "gprime-edge":
            ends = value.split()
            if len(ends) != 2:
                raise MetaFormatError(f"line {lineno}: expected two labels, got {value!r}")
            meta["edges"].append((ends[0], ends[1]))
        else:
            meta[key] = value
    missing = [key for key in ("x", "y", "m") if key not in meta]
    if missing:
        raise MetaFormatError(f"missing key(s): {', '.join(missing)}")
    try:
        meta["m"] = int(meta["m"])
    except ValueError:
        raise MetaFormatError(f"m must be an integer, got {meta['m']!r}") from None
    return meta


def _cmd_reduce(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    inst = build_H(g)
    _write_file(args.output, write_graph(inst.h_graph))
    meta_path = args.meta or str(Path(args.output).with_suffix(".meta"))
    _write_file(meta_path, _meta_text(inst))
    if args.landmarks:
        marks: dict = {
            "x": inst.core_label(inst.x),
            "y": inst.core_label(inst.y),
            "z": inst.y_landmarks["z"],
            "z_b": inst.y_landmarks["z_b"],
            "v_m2": inst.c_landmarks["v_m2"],
            "c_v1": inst.c_landmarks["v1"],
            "c_middles": inst.c_landmarks["middles"],
        }
        for u, dom in sorted(inst.domains.items()):
            marks[f"dom:{u}"] = tuple(sorted(dom))
        _write_landmarks(args.landmarks, marks)
    for k, v in inst.params.as_dict().items():
        rep.add(k, v)
    rep.add("vertices", inst.h_graph.vertex_count)
    rep.add("edges", inst.h_graph.edge_count)
    rep.timing("reduce")
    return 0


def _cmd_witness(args, rep: _Report) -> int:
    meta = _parse_meta(args.meta)
    gprime = Graph(meta["edges"])
    result = vertex_cover_exact(gprime, node_budget=args.budget)
    sources = witness_sources(
        result.witness, meta["x"], meta["y"], meta["m"], meta["edges"]
    )
    _write_file(args.output, write_sequence(sources))
    rep.add("k_prime", result.value)
    rep.add("length", len(sources))
    rep.add("cover", ",".join(sorted(result.witness)))
    rep.timing("witness")
    return 0


def _cmd_burn(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    seq = read_sequence(Path(args.sequence).read_text(encoding="utf-8"))
    rep.add("length", len(seq))
    try:
        schedule = simulate(g, seq)
    except InvalidSequenceError as exc:
        rep.add("valid", "false")
        rep.add("reason", str(exc))
        rep.timing("burn")
        return 0
    rep.add("valid", "true")
    rep.add("complete", "true" if schedule.complete else "false")
    rep.add("unburned", len(schedule.unburned))
    if schedule.complete:
        bl = last_step_set(schedule)
        ub = uniquely_burned_set(schedule)
        rep.add("complete_at", schedule.k)
        rep.add("last_step_size", len(bl))
        rep.add("uniquely_burned_size", len(ub))
        rep.add("bl_ub_overlap", len(bl & ub))
    rep.timing("burn")
    return 0


def _cmd_solve_burn(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    if args.naive:
        result = burning_number_naive(g)
    else:
        result = burning_number_exact(g, node_budget=args.budget)
    rep.add("value", result.value)
    rep.add("witness", ",".join(result.witness))
    rep.add("nodes", result.stats.nodes)
    _write_file(args.output, write_sequence(result.witness))
    rep.timing("solve")
    return 0


def _cmd_solve_vc(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    result = vertex_cover_exact(g, node_budget=args.budget)
    rep.add("value", result.value)
    rep.add("cover", ",".join(sorted(result.witness)))
    rep.add("nodes", result.stats.nodes)
    _write_file(args.output, "\n".join(sorted(result.witness)) + "\n")
    rep.timing("solve")
    return 0


def _cmd_audit(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    inst = build_H(g)
    seq = read_sequence(Path(args.sequence).read_text(encoding="utf-8"))
    report = audit_sequence(inst, seq)
    rep.add("k", report.k)
    rep.add("start_block", f"{report.start_range[0]}..{report.start_range[1]}")
    rep.add("middle_block", f"{report.middle_range[0]}..{report.middle_range[1]}")
    rep.add("end_block", f"{report.end_range[0]}..{report.end_range[1]}")
    rep.add("owners", ",".join(sorted(report.owners)))
    rep.add("represented", len(report.represented))
    rep.add("unrepresented", len(report.unrepresented))
    for name in ("start", "middle", "end"):
        locs = report.block_locations[name]
        inside = sum(1 for _, where in locs if where == "inside")
        rep.add(f"{name}_inside", inside)
        rep.add(f"{name}_outside", len(locs) - inside)
    rep.add("valid", "true" if report.valid else "false")
    rep.add("complete", "true" if report.complete else "false")
    rep.add("bl_ub_overlap", len(report.bl_ub))
    rep.timing("audit")
    return 0


def _cmd_lift(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    lifted = build_Hd(g, args.d)
    _write_file(args.output, write_graph(lifted.graph))
    rep.add("base_vertices", g.vertex_count)
    rep.add("d", args.d)
    rep.add("vertices", lifted.graph.vertex_count)
    rep.add("edges", lifted.graph.edge_count)
    rep.timing("lift")
    return 0


def _cmd_project(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    lifted = build_Hd(g, args.d)
    seq = read_sequence(Path(args.sequence).read_text(encoding="utf-8"))
    projected = project_sequence(lifted, seq, args.dprime)
    _write_file(args.output, write_sequence(projected))
    rep.add("input_length", len(seq))
    rep.add("output_length", len(projected))
    # H_d' is d' - 2 copies of the base; d' = 3 is the base itself
    rep.add("target_vertices", (args.dprime - 2) * g.vertex_count)
    rep.timing("project")
    return 0


def _cmd_stats(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    rep.add("vertices", g.vertex_count)
    rep.add("edges", g.edge_count)
    rep.add("connected", "true" if is_connected(g) else "false")
    hist = degree_histogram(g)
    rep.add("degree_histogram", ",".join(f"{d}:{c}" for d, c in hist.items()))
    rep.add("regular", str(next(iter(hist))) if len(hist) == 1 else "no")
    rep.timing("stats")
    return 0


def _cmd_dot(args, rep: _Report) -> int:
    g = _read_graph_file(args.graph)
    landmarks = None
    if args.landmarks:
        landmarks = {}
        for line in Path(args.landmarks).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            name, _, value = line.partition("\t")
            landmarks[name] = tuple(value.split(","))
    text = export_dot(g, landmarks)
    if args.output:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)
    rep.timing("dot")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnkit", description="graph burning toolkit"
    )
    parser.add_argument("--timings", action="store_true", help="append a timing section")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-gadget", help="emit a gadget graph and its landmarks")
    p.add_argument("kind", choices=["T", "BT", "BTP", "P", "Y", "Tail", "C", "path", "cycle", "cubic"])
    p.add_argument("params", nargs="*", help="gadget parameters")
    p.add_argument("-o", "--output", help="graph file")
    p.add_argument("-l", "--landmarks", help="landmark sidecar file")
    p.add_argument("--seed", type=int, default=0, help="seed for random kinds")
    p.set_defaults(func=_cmd_gen_gadget)

    p = sub.add_parser("reduce", help="build H from a connected cubic graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True, help="H edge-list file")
    p.add_argument("-l", "--landmarks", help="landmark/domain sidecar file")
    p.add_argument("--meta", help="meta file (default: output stem + .meta)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("witness", help="constructive witness from a reduce meta file")
    p.add_argument("meta")
    p.add_argument("-o", "--output", help="sequence file")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("burn", help="simulate a burning sequence on a graph")
    p.add_argument("graph")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_burn)

    p = sub.add_parser("solve-burn", help="exact burning number with witness")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="witness sequence file")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--naive", action="store_true", help="use the exhaustive oracle")
    p.set_defaults(func=_cmd_solve_burn)

    p = sub.add_parser("solve-vc", help="exact minimum vertex cover")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="cover file")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_solve_vc)

    p = sub.add_parser("audit", help="audit a sequence against the reduction of a graph")
    p.add_argument("graph", help="the original cubic graph fed to reduce")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("lift", help="build the d-regular lift of a cubic graph")
    p.add_argument("graph")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("project", help="project an H_d sequence onto H_d'")
    p.add_argument("graph", help="the cubic base graph")
    p.add_argument("sequence", help="sequence on H_d labels")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dprime", type=int, required=True)
    p.add_argument("-o", "--output", help="projected sequence file")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("stats", help="structural summary of a graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dot", help="DOT export, landmarks styled")
    p.add_argument("graph")
    p.add_argument("-l", "--landmarks", help="landmark sidecar to style")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = _Report(args.timings)
    rep.add("command", args.command)
    input_attrs = ["graph", "sequence"]
    if args.command == "witness":
        input_attrs.append("meta")  # an output path for reduce, an input here
    try:
        for attr in input_attrs:
            value = getattr(args, attr, None)
            if value:
                rep.add_input(value)
        code = args.func(args, rep)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _ERRORS as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error\tOSError\t{exc}", file=sys.stderr)
        return 1
    rep.emit()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
