"""Batch command-line front end.

Every subcommand is one entry of ``_COMMANDS``, a thin shell over a library
operation; ``main`` builds the parser from the table and does the shared
work once.  Reports are ``key<TAB>value`` lines on stdout and are
byte-identical across runs on identical inputs (timings only appear under
``--timings``, in a separate trailing section).

Exit codes: 0 success, 1 domain error (error name echoed on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import gadgets
from .burning import BurnError, InvalidSequenceError, _outcome, _schedule
from .burning import read_sequence, write_sequence
from .gadgets import GadgetError, GadgetHandle, InvalidParamsError, check_vertex_count
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

# UnicodeDecodeError: an input file that is not UTF-8
_ERRORS = (
    GraphError, BurnError, GadgetError, ReductionError, SolverError, LiftError, UnicodeDecodeError
)


class _UsageError(Exception):
    pass


class MetaFormatError(ReductionError):
    """A reduce meta file lacks x, y, m or the G' edges, or has a malformed line."""


def _text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_file(path: str | None, text: str):
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")


def _landmark_value(value: str | tuple[str, ...]) -> str:
    """Labels joined by ``,``, or each followed by a TAB when one holds a
    ``,`` (labels never hold whitespace); :func:`_dot` reads both."""
    labels = (value,) if isinstance(value, str) else value
    if any("," in lbl for lbl in labels):
        return "".join(f"{lbl}\t" for lbl in labels)
    return ",".join(labels)


def _write_landmarks(path: str | None, landmarks: dict):
    lines = [f"{name}\t{_landmark_value(value)}" for name, value in sorted(landmarks.items())]
    _write_file(path, "\n".join(lines) + "\n")


def _dot_string(text: str) -> str:
    """``text`` as a DOT double-quoted string, its ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph, landmarks: dict | None = None) -> str:
    """DOT text with landmark vertices styled and annotated."""
    tagged: dict[str, list[str]] = {}
    for name, value in sorted((landmarks or {}).items()):
        labels = [value] if isinstance(value, str) else list(value)
        for lbl in labels:
            tagged.setdefault(lbl, []).append(name)
    out = ["graph burnkit {", "  node [shape=circle];"]
    for v, nbrs in zip(g.labels, g.adj):
        if v in tagged:
            names = _dot_string(",".join(tagged[v]))
            out.append(f"  {_dot_string(v)} [style=filled, fillcolor=lightblue, xlabel={names}];")
        elif not nbrs:
            out.append(f"  {_dot_string(v)};")
    for u, v in g.edges():
        out.append(f"  {_dot_string(u)} -- {_dot_string(v)};")
    out.append("}")
    return "\n".join(out) + "\n"


def _generated(make, n: int, **kwargs) -> Graph:
    """``make(n, **kwargs)``, a graph of n vertices: n checked against the
    gadget cap first, and a ValueError on bad parameters a domain error."""
    check_vertex_count(f"{make.__name__}({n})", n)
    try:
        return make(n, **kwargs)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from None


# kind -> (parameter count, constructor from the integer parameters and
# --seed): plain test graphs, which have no landmarks, then gadget handles
_GENERATORS = {
    "path": (1, lambda p, seed: _generated(path_graph, *p)),
    "cycle": (1, lambda p, seed: _generated(cycle_graph, *p)),
    "cubic": (1, lambda p, seed: _generated(random_cubic, *p, seed=seed)),
}
_GADGETS = {
    "T": (2, lambda p, seed: gadgets.make_T(*p)),
    "BT": (1, lambda p, seed: gadgets.make_BT(*p)),
    "BTP": (3, lambda p, seed: gadgets.make_BTP(*p)),
    "P": (1, lambda p, seed: gadgets.make_P(*p)),
    "Y": (2, lambda p, seed: gadgets.make_Y(*p)),
    "Tail": (0, lambda p, seed: gadgets.make_Tail()),
    "C": (1, lambda p, seed: gadgets.make_C(*p)),
    **_GENERATORS,
}


# runners: each takes the parsed arguments and yields its report items


def _gen_gadget(args):
    arity, make = _GADGETS[args.kind]
    if len(args.params) != arity:
        raise _UsageError(
            f"gen-gadget {args.kind} takes {arity} parameter(s), got {len(args.params)}"
        )
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        raise _UsageError(f"gadget parameters must be integers: {args.params}") from None
    if args.landmarks is not None and args.kind in _GENERATORS:
        raise _UsageError(f"gen-gadget {args.kind} has no landmarks to write")
    g = make(params, args.seed)
    if isinstance(g, GadgetHandle):
        _write_landmarks(args.landmarks, g.landmarks)
        g = g.graph
    _write_file(args.output, write_graph(g))
    yield "kind", args.kind
    yield "params", ",".join(map(str, params))
    yield "vertices", g.vertex_count
    yield "edges", g.edge_count


def _meta_text(inst) -> str:
    lines = [f"{k}\t{v}" for k, v in inst.params.as_dict().items()]
    lines.append(f"x\t{inst.x}")
    lines.append(f"y\t{inst.y}")
    lines.append(f"subdivided\t{inst.subdivided_edge[0]} {inst.subdivided_edge[1]}")
    for u, v in inst.g_prime.edges():
        lines.append(f"gprime-edge\t{u} {v}")
    return "\n".join(lines) + "\n"


def _parse_meta(text: str) -> dict:
    meta: dict = {"edges": []}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    if not meta["edges"]:
        raise MetaFormatError("missing the G' edges: no gprime-edge line")
    return meta


def _meta_path(args) -> str:
    return args.meta if args.meta is not None else str(Path(args.output).with_suffix(".meta"))


def _reduce(args):
    inst = build_H(read_graph(_text(args.graph)))
    _write_file(args.output, write_graph(inst.h_graph))
    _write_file(_meta_path(args), _meta_text(inst))
    if args.landmarks is not None:
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
    yield from inst.params.as_dict().items()
    yield "vertices", inst.h_graph.vertex_count
    yield "edges", inst.h_graph.edge_count


def _witness(args):
    meta = _parse_meta(_text(args.meta))
    result = vertex_cover_exact(Graph(meta["edges"]), node_budget=args.budget)
    sources = witness_sources(result.witness, meta["x"], meta["y"], meta["m"], meta["edges"])
    _write_file(args.output, write_sequence(sources))
    yield "k_prime", result.value
    yield "length", len(sources)
    yield "cover", ",".join(sorted(result.witness))


def _burn(args):
    g = read_graph(_text(args.graph))
    seq = read_sequence(_text(args.sequence))
    yield "length", len(seq)
    try:
        k, time, resp = _schedule(g, seq)
    except InvalidSequenceError as exc:
        yield "valid", "false"
        yield "reason", str(exc)
        return
    del g  # free H before the BL and UB lists: the report needs only the schedule
    unburned, bl, ub = _outcome(k, time, resp)
    yield "valid", "true"
    yield "complete", "false" if unburned else "true"
    yield "unburned", unburned
    if not unburned:
        yield "complete_at", k
        yield "last_step_size", len(bl)
        yield "uniquely_burned_size", len(ub)
        yield "bl_ub_overlap", len(set(bl).intersection(ub))


def _solve_burn(args):
    g = read_graph(_text(args.graph))
    if args.naive:
        result = burning_number_naive(g)
    else:
        result = burning_number_exact(g, node_budget=args.budget)
    _write_file(args.output, write_sequence(result.witness))
    yield "value", result.value
    yield "witness", ",".join(result.witness)
    yield "nodes", result.stats.nodes


def _solve_vc(args):
    result = vertex_cover_exact(read_graph(_text(args.graph)), node_budget=args.budget)
    _write_file(args.output, "\n".join(sorted(result.witness)) + "\n")
    yield "value", result.value
    yield "cover", ",".join(sorted(result.witness))
    yield "nodes", result.stats.nodes


def _audit(args):
    inst = build_H(read_graph(_text(args.graph)))
    report = audit_sequence(inst, read_sequence(_text(args.sequence)))
    yield "k", report.k
    yield "start_block", f"{report.start_range[0]}..{report.start_range[1]}"
    yield "middle_block", f"{report.middle_range[0]}..{report.middle_range[1]}"
    yield "end_block", f"{report.end_range[0]}..{report.end_range[1]}"
    yield "owners", ",".join(sorted(report.owners))
    yield "represented", len(report.represented)
    yield "unrepresented", len(report.unrepresented)
    for name in ("start", "middle", "end"):
        locs = report.block_locations[name]
        inside = sum(1 for _, where in locs if where == "inside")
        yield f"{name}_inside", inside
        yield f"{name}_outside", len(locs) - inside
    yield "valid", "true" if report.valid else "false"
    yield "complete", "true" if report.complete else "false"
    yield "bl_ub_overlap", len(report.bl_ub)


def _lift(args):
    g = read_graph(_text(args.graph))
    lifted = build_Hd(g, args.d)
    _write_file(args.output, write_graph(lifted.graph))
    yield "base_vertices", g.vertex_count
    yield "d", args.d
    yield "vertices", lifted.graph.vertex_count
    yield "edges", lifted.graph.edge_count


def _project(args):
    g = read_graph(_text(args.graph))
    lifted = build_Hd(g, args.d)
    seq = read_sequence(_text(args.sequence))
    projected = project_sequence(lifted, seq, args.dprime)
    _write_file(args.output, write_sequence(projected))
    yield "input_length", len(seq)
    yield "output_length", len(projected)
    # H_d' is d' - 2 copies of the base; d' = 3 is the base itself
    yield "target_vertices", (args.dprime - 2) * g.vertex_count


def _stats(args):
    g = read_graph(_text(args.graph))
    hist = degree_histogram(g)
    yield "vertices", g.vertex_count
    yield "edges", g.edge_count
    yield "connected", "true" if is_connected(g) else "false"
    yield "degree_histogram", ",".join(f"{d}:{c}" for d, c in hist.items())
    yield "regular", str(next(iter(hist))) if len(hist) == 1 else "no"


def _dot(args):
    g = read_graph(_text(args.graph))
    landmarks = {}
    if args.landmarks is not None:
        for line in _text(args.landmarks).splitlines():
            if line.strip():
                name, _, value = line.partition("\t")
                landmarks[name] = tuple(value.split() if "\t" in value else value.split(","))
    text = export_dot(g, landmarks)
    if args.output is not None:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)
    return ()


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], Iterable]  # yields the report items
    timing: str  # key of the --timings line
    inputs: tuple  # input file arguments, digested into `input` lines in order
    args: tuple  # argparse arguments as (flags, keywords) pairs
    # the output paths given or implied, None for one not given; one that
    # names no file, one that names an input file, or two that name one
    # file, are a usage error
    outputs: Callable[[argparse.Namespace], Iterable] = lambda args: ()
    sidecars: tuple = ()  # further input file arguments, read but not digested


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


_GRAPH = _arg("graph")
_SEQUENCE = _arg("sequence")
_BUDGET = _arg("--budget", type=int, default=10_000_000)


def _output(args) -> tuple:
    return (args.output,)


def _reduce_outputs(args) -> Iterator:
    """reduce's outputs, yielded one by one: the graph file is checked
    before it is the stem of the default meta path."""
    yield args.output
    yield _meta_path(args)
    yield args.landmarks


_COMMANDS = {
    "gen-gadget": _Command(
        "emit a gadget graph and its landmarks", _gen_gadget, "generate", (),
        (
            _arg("kind", choices=list(_GADGETS)),
            _arg("params", nargs="*", help="gadget parameters"),
            _arg("-o", "--output", help="graph file"),
            _arg("-l", "--landmarks", help="landmark sidecar file"),
            _arg("--seed", type=int, default=0, help="seed for random kinds"),
        ),
        outputs=lambda args: (args.output, args.landmarks),
    ),
    "reduce": _Command(
        "build H from a connected cubic graph", _reduce, "reduce", ("graph",),
        (
            _GRAPH,
            _arg("-o", "--output", required=True, help="H edge-list file"),
            _arg("-l", "--landmarks", help="landmark/domain sidecar file"),
            _arg("--meta", help="meta file (default: output stem + .meta)"),
        ),
        outputs=_reduce_outputs,
    ),
    "witness": _Command(
        "constructive witness from a reduce meta file", _witness, "witness", ("meta",),
        (_arg("meta"), _arg("-o", "--output", help="sequence file"), _BUDGET),
        outputs=_output,
    ),
    "burn": _Command(
        "simulate a burning sequence on a graph", _burn, "burn", ("graph", "sequence"),
        (_GRAPH, _SEQUENCE),
    ),
    "solve-burn": _Command(
        "exact burning number with witness", _solve_burn, "solve", ("graph",),
        (
            _GRAPH,
            _arg("-o", "--output", help="witness sequence file"),
            _BUDGET,
            _arg("--naive", action="store_true", help="use the exhaustive oracle"),
        ),
        outputs=_output,
    ),
    "solve-vc": _Command(
        "exact minimum vertex cover", _solve_vc, "solve", ("graph",),
        (_GRAPH, _arg("-o", "--output", help="cover file"), _BUDGET),
        outputs=_output,
    ),
    "audit": _Command(
        "audit a sequence against the reduction of a graph", _audit, "audit",
        ("graph", "sequence"),
        (_arg("graph", help="the original cubic graph fed to reduce"), _SEQUENCE),
    ),
    "lift": _Command(
        "build the d-regular lift of a cubic graph", _lift, "lift", ("graph",),
        (_GRAPH, _arg("--d", type=int, required=True), _arg("-o", "--output", required=True)),
        outputs=_output,
    ),
    "project": _Command(
        "project an H_d sequence onto H_d'", _project, "project", ("graph", "sequence"),
        (
            _arg("graph", help="the cubic base graph"),
            _arg("sequence", help="sequence on H_d labels"),
            _arg("--d", type=int, required=True),
            _arg("--dprime", type=int, required=True),
            _arg("-o", "--output", help="projected sequence file"),
        ),
        outputs=_output,
    ),
    "stats": _Command("structural summary of a graph", _stats, "stats", ("graph",), (_GRAPH,)),
    "dot": _Command(
        "DOT export, landmarks styled", _dot, "dot", ("graph",),
        (
            _GRAPH,
            _arg("-l", "--landmarks", help="landmark sidecar to style"),
            _arg("-o", "--output", help="output file (default stdout)"),
        ),
        outputs=_output,
        sidecars=("landmarks",),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="burnkit", description="graph burning toolkit")
    parser.add_argument("--timings", action="store_true", help="append a timing section")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    start = time.monotonic()
    items: list = [("command", args.command)]
    try:
        # outputs are checked before anything is written
        reads = {
            os.path.realpath(path)
            for attr in command.inputs + command.sidecars
            if (path := getattr(args, attr)) is not None
        }
        seen = set()
        for path in command.outputs(args):
            if path is None:
                continue
            if not Path(path).name:  # '', '.' or '/'
                raise _UsageError(f"the output names no file: {path!r}")
            real = os.path.realpath(path)
            if real in reads:
                raise _UsageError(f"an output names an input file: {path}")
            if real in seen:
                raise _UsageError(f"two outputs name the same file: {path}")
            seen.add(real)
        for attr in command.inputs:
            digest = hashlib.sha256(Path(getattr(args, attr)).read_bytes()).hexdigest()
            items.append(("input", digest[:16]))
        items += command.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _ERRORS as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error\tOSError\t{exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start
    for key, value in items:
        print(f"{key}\t{value}")
    if args.timings:
        print("# timings")
        print(f"{command.timing}\t{elapsed:.3f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
