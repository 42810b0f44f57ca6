from __future__ import annotations

import hashlib
import io
import itertools
import random
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from burnkit import cli, gadgets, reduction
from burnkit.burning import (
    InvalidSequenceError,
    _repair_sequence,
    is_burning_sequence,
    last_step_set,
    read_sequence,
    simulate,
    uniquely_burned_set,
    write_sequence,
)
from burnkit.cli import export_dot, main
from burnkit.gadgets import make_T
from burnkit.generators import complete_graph, path_graph, prism_graph, random_connected_graph, random_cubic
from burnkit.graph import Graph, read_graph, write_graph
from burnkit.lift import build_Hd
from burnkit.reduction import build_H
from burnkit.solvers import burning_number_exact, vertex_cover_exact


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.g"
    path.write_text(write_graph(complete_graph(4)), encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def parse_report(out: str) -> dict[str, str]:
    report = {}
    for line in out.splitlines():
        if line.startswith("#"):
            break
        key, _, value = line.partition("\t")
        report[key] = value
    return report


def test_gen_gadget_c4(tmp_path, capsys):
    graph_file = tmp_path / "c4.g"
    marks_file = tmp_path / "c4.landmarks"
    out = run(capsys, "gen-gadget", "C", "4", "-o", str(graph_file), "-l", str(marks_file))
    report = parse_report(out)
    assert report["vertices"] == "23"
    g = read_graph(graph_file.read_text(encoding="utf-8"))
    assert g.vertex_count == 23
    marks = dict(
        line.split("\t", 1) for line in marks_file.read_text(encoding="utf-8").splitlines()
    )
    assert len(marks["trunk"].split(",")) == 16


def test_gen_gadget_usage_error(capsys):
    assert main(["gen-gadget", "T", "0", "5", "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert "InvalidParamsError" in err


def test_solve_burn_matches_library(tmp_path, capsys, k4_file):
    out = run(capsys, "solve-burn", k4_file)
    report = parse_report(out)
    assert int(report["value"]) == burning_number_exact(complete_graph(4)).value


def test_solve_vc_matches_library(capsys, k4_file):
    out = run(capsys, "solve-vc", k4_file)
    report = parse_report(out)
    assert int(report["value"]) == vertex_cover_exact(complete_graph(4)).value


def test_solve_burn_naive_mode(capsys, k4_file):
    report = parse_report(run(capsys, "solve-burn", "--naive", k4_file))
    assert int(report["value"]) == 2


def test_burn_reports_invalid(tmp_path, capsys):
    graph_file = tmp_path / "p3.g"
    graph_file.write_text(write_graph(path_graph(3)), encoding="utf-8")
    seq_file = tmp_path / "bad.seq"
    seq_file.write_text("v1\nv3\nv2\n", encoding="utf-8")
    report = parse_report(run(capsys, "burn", str(graph_file), str(seq_file)))
    assert report["valid"] == "false"
    assert report["reason"] == (
        "source 'v2' placed at step 3 was already burned at step 2 by fire from 'v1'"
    )
    # v4 is reached by v1's fire at step 4 but by v5's already at step 3
    graph_file.write_text(write_graph(path_graph(13)), encoding="utf-8")
    seq_file.write_text("v1\nv5\nv9\nv13\nv4\n", encoding="utf-8")
    report = parse_report(run(capsys, "burn", str(graph_file), str(seq_file)))
    assert report["reason"] == (
        "source 'v4' placed at step 5 was already burned at step 3 by fire from 'v5'"
    )


def _burn_oracle(g, seq) -> dict[str, str]:
    """The burn report from ``simulate`` and the BL/UB set functions."""
    report = {"length": str(len(seq))}
    try:
        schedule = simulate(g, seq)
    except InvalidSequenceError as exc:
        return {**report, "valid": "false", "reason": str(exc)}
    report.update(
        valid="true",
        complete="true" if schedule.complete else "false",
        unburned=str(len(schedule.unburned)),
    )
    if schedule.complete:
        bl, ub = last_step_set(schedule), uniquely_burned_set(schedule)
        report.update(
            complete_at=str(schedule.k),
            last_step_size=str(len(bl)),
            uniquely_burned_size=str(len(ub)),
            bl_ub_overlap=str(len(bl & ub)),
        )
    return report


@pytest.mark.parametrize("seed", range(20))
def test_burn_report_matches_simulate(tmp_path, capsys, seed):
    """On a random connected graph, the burn report, read from the index
    schedule, equals the one made from ``simulate``: for a complete valid
    sequence, each of its proper prefixes (incomplete) and random
    sequences (mostly invalid)."""
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(2, 12), seed)
    order = list(g.vertices)
    rng.shuffle(order)
    witness, burns = _repair_sequence(g, order, g.vertex_count)
    assert burns
    sequences = [witness[:end] for end in range(1, len(witness) + 1)]
    sequences += [rng.sample(order, rng.randint(1, len(order))) for _ in range(3)]
    graph_file, seq_file = tmp_path / "g.g", tmp_path / "s.seq"
    graph_file.write_text(write_graph(g), encoding="utf-8")
    outcomes = set()
    for seq in sequences:
        seq_file.write_text(write_sequence(seq), encoding="utf-8")
        report = parse_report(run(capsys, "burn", str(graph_file), str(seq_file)))
        del report["command"], report["input"]
        assert report == _burn_oracle(g, seq)
        outcomes.add(report.get("complete", "invalid"))
    assert "true" in outcomes


@pytest.mark.parametrize("text", ["v1\nv2\nv1\n", "# no sources\n"])
def test_burn_malformed_sequence_is_a_domain_error(tmp_path, capsys, text):
    graph_file = tmp_path / "p3.g"
    graph_file.write_text(write_graph(path_graph(3)), encoding="utf-8")
    seq_file = tmp_path / "bad.seq"
    seq_file.write_text(text, encoding="utf-8")
    assert main(["burn", str(graph_file), str(seq_file)]) == 1
    assert capsys.readouterr().err.startswith("error\tMalformedSequenceError\t")


@pytest.mark.parametrize("naive", [False, True])
def test_solve_burn_empty_graph_is_a_domain_error(tmp_path, capsys, naive):
    graph_file = tmp_path / "empty.g"
    graph_file.write_text("", encoding="utf-8")
    argv = ["solve-burn", str(graph_file)] + (["--naive"] if naive else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == "error\tEmptyGraphError\tempty graph\n"


def test_solve_burn_on_a_999_edge_matching(tmp_path, capsys):
    """b = 1000: one source per edge and one more.  The 1,998 vertices are
    within the exact solver's guard, and the search takes 999 nodes."""
    graph_file = tmp_path / "matching.g"
    graph_file.write_text(write_graph(Graph([(f"a{i}", f"b{i}") for i in range(999)])), encoding="utf-8")
    report = parse_report(run(capsys, "solve-burn", str(graph_file)))
    assert report["value"] == "1000"


def test_solve_burn_refuses_the_k4_h_before_allocating(tmp_path, k4_instance):
    """The exact solver's ball masks on the 80,294-vertex H would take up
    to about 800 MB per radius, after 80,294 BFS runs; the child's address
    space is capped at 1 GiB, far above what the interpreter maps, so a
    missing guard fails this test instead of exhausting the machine."""
    import os
    import subprocess
    import sys

    import burnkit

    h_file = tmp_path / "h.g"
    h_file.write_text(write_graph(k4_instance.h_graph), encoding="utf-8")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from burnkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(burnkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child, "solve-burn", str(h_file)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error\tTooLargeError\t80294 vertices exceeds the exact solver's guard of 2000\n"


@pytest.mark.parametrize("command", ["lift", "project"])
def test_lift_refuses_an_oversized_h_d_before_allocating(tmp_path, k4_file, command):
    """H_1000000 of K4 would have about 2·10^12 edges; its size comes from
    the closed form, so ``lift`` and ``project`` exit 1 before building
    anything.  The child's address space is capped at 1 GiB, so a missing
    guard fails this test instead of exhausting the machine."""
    import os
    import subprocess
    import sys

    import burnkit

    seq_file = tmp_path / "h.seq"
    seq_file.write_text("copy1:v1\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {"lift": [k4_file], "project": [k4_file, str(seq_file), "--dprime", "3"]}[command]
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from burnkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(burnkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child, command, *args, "--d", "1000000", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error\tLiftTooLargeError\tH_1000000 has 1999996000000 edges, over the lift's cap of 10000000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, code, stdout, stderr",
    [
        (
            "lift",
            0,
            "command\tlift\ninput\te3b0c44298fc1c14\nbase_vertices\t0\nd\t1000000\nvertices\t0\nedges\t0\n",
            "",
        ),
        ("project", 1, "", "error\tInputNotValidError\tsequence does not burn the lifted graph\n"),
    ],
)
def test_lift_of_an_empty_base_is_immediate_at_any_d(tmp_path, command, code, stdout, stderr):
    """The empty base passes the edge cap at any d, and its lift is the empty
    graph, made at once: ``lift`` writes it and ``project`` rejects the
    sequence, each with its usual line, within the child's time limit."""
    import os
    import subprocess
    import sys

    import burnkit

    graph_file = tmp_path / "empty.g"
    graph_file.write_text("", encoding="utf-8")
    seq_file = tmp_path / "h.seq"
    seq_file.write_text("copy1:v1\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {"lift": [], "project": [str(seq_file), "--dprime", "3"]}[command]
    env = dict(os.environ, PYTHONPATH=str(Path(burnkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "burnkit.cli", command, str(graph_file), *args, "--d", "1000000", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    assert out.exists() == (command == "lift")


@pytest.mark.parametrize(
    "kind, param, error",
    [
        ("BT", "60", "BT(60) has 2305843009213693951 vertices"),
        ("C", "1000000", "C(1000000) has 1999997999999 vertices"),
        ("BTP", "40 1 43", "BTP(40, 1, 43) has 103354093010942 vertices"),
        ("T", "1000000 2", "T(1000000, 2) has 4000006 vertices"),
        ("P", "2000000", "P(2000000) has 3999998 vertices"),
        ("Y", "1000000 3", "Y(1000000, 3) has 4000001 vertices"),
        ("path", "1000000000", "path_graph(1000000000) has 1000000000 vertices"),
        ("cycle", "1000000000", "cycle_graph(1000000000) has 1000000000 vertices"),
        ("cubic", "1000000000", "random_cubic(1000000000) has 1000000000 vertices"),
    ],
)
def test_gen_gadget_refuses_an_oversized_graph_before_allocating(tmp_path, kind, param, error):
    """The closed-form vertex count of every gadget with parameters and of
    the generators is checked against the gadget cap of 2,000,000, so
    ``gen-gadget`` exits 1 before building anything.  The child's address
    space is capped at 1 GiB, so a missing guard fails this test instead of
    exhausting the machine."""
    import os
    import subprocess
    import sys

    import burnkit

    out = tmp_path / "g.g"
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from burnkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(burnkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child, "gen-gadget", kind, *param.split(), "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error\tGadgetTooLargeError\t{error}, over the gadget cap of 2000000\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["lift", "K4", "--d", "1" + "0" * 2200],
            "LiftTooLargeError\tH_1" + "0" * 2200
            + " has at least 2**14617 edges, over the lift's cap of 10000000",
        ),
        (
            ["gen-gadget", "BT", "14300"],
            "GadgetTooLargeError\tBT(14300) has at least 2**14300 vertices, over the gadget cap of 2000000",
        ),
    ],
)
def test_a_count_too_long_to_print_still_gets_its_error_line(tmp_path, k4_file, capsys, argv, error):
    """A closed-form count past the digits ``str`` prints (4,300 by default)
    is given as a power of two it reaches: one error line, exit 1, no
    traceback, at once."""
    import time

    out = tmp_path / "out.g"
    argv = [k4_file if a == "K4" else a for a in argv] + ["-o", str(out)]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error\t{error}\n")
    assert not out.exists()


def test_gen_gadget_generator_cap_admits_exactly_the_cap(tmp_path, capsys, monkeypatch):
    """A generator's n is its vertex count: n equal to the cap is built, and
    the next even n is refused before the generator runs."""
    monkeypatch.setattr(gadgets, "_MAX_GADGET_VERTICES", 8)
    out = str(tmp_path / "g.g")
    for kind in ("path", "cycle", "cubic"):
        assert main(["gen-gadget", kind, "8", "-o", out]) == 0
        assert "vertices\t8\n" in capsys.readouterr().out
        assert main(["gen-gadget", kind, "10", "-o", out]) == 1
        assert capsys.readouterr().err.endswith("(10) has 10 vertices, over the gadget cap of 8\n")


@pytest.mark.parametrize("command", ["reduce", "audit"])
def test_reduce_refuses_an_oversized_h_before_allocating(tmp_path, command):
    """The H of a 50-vertex cubic G would have 58,166,512 vertices; its size
    comes from the closed form, so ``reduce`` and ``audit`` exit 1 before
    building any gadget.  The child's address space is capped at 1 GiB, so a
    missing guard fails this test instead of exhausting the machine."""
    import os
    import subprocess
    import sys

    import burnkit

    g_file = tmp_path / "g50.g"
    g_file.write_text(write_graph(random_cubic(50, 1)), encoding="utf-8")
    seq_file = tmp_path / "h.seq"
    seq_file.write_text("g:v1\n", encoding="utf-8")
    out = tmp_path / "h.g"
    args = {"reduce": [str(g_file), "-o", str(out)], "audit": [str(g_file), str(seq_file)]}[command]
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from burnkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(burnkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child, command, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error\tReductionTooLargeError\tH has 58166512 vertices, over the reduction's cap of 2000000\n"
    )
    assert not out.exists() and not out.with_suffix(".meta").exists()


_META = "m\t4\nx\tx\ny\ty\ngprime-edge\ta x\ngprime-edge\tx y\ngprime-edge\ty b\n"


@pytest.mark.parametrize(
    "drop, add, reason",
    [
        ("x\tx\n", "", "missing key(s): x"),
        ("y\ty\n", "", "missing key(s): y"),
        ("m\t4\n", "", "missing key(s): m"),
        ("", "gprime-edge\tb\n", "line 7: expected two labels, got 'b'"),
        ("", "gprime-edge\tb c d\n", "line 7: expected two labels, got 'b c d'"),
        ("m\t4\n", "m\tfour\n", "m must be an integer, got 'four'"),
    ],
)
def test_witness_malformed_meta_is_a_domain_error(tmp_path, capsys, drop, add, reason):
    meta_file = tmp_path / "h.meta"
    meta_file.write_text(_META, encoding="utf-8")
    run(capsys, "witness", str(meta_file))
    meta_file.write_text(_META.replace(drop, "") + add, encoding="utf-8")
    assert main(["witness", str(meta_file)]) == 1
    assert capsys.readouterr().err == f"error\tMetaFormatError\t{reason}\n"


def test_witness_meta_without_gprime_edges_is_a_domain_error(tmp_path, capsys):
    """Not a cover error: the meta file names no edge of G' at all."""
    meta_file = tmp_path / "h.meta"
    meta_file.write_text("x\tx\ny\ty\nm\t35\n", encoding="utf-8")
    seq_file = tmp_path / "w.seq"
    assert main(["witness", str(meta_file), "-o", str(seq_file)]) == 1
    assert capsys.readouterr().err == (
        "error\tMetaFormatError\tmissing the G' edges: no gprime-edge line\n"
    )
    assert not seq_file.exists()


def test_solve_burn_witness_with_a_hash_label_is_a_domain_error(tmp_path, capsys):
    """read_graph accepts the second label '#a', but a sequence file would
    read the line '#a' back as a comment; nothing is written."""
    graph_file = tmp_path / "p.g"
    graph_file.write_text("b #a\nb c\nc d\nd e\n", encoding="utf-8")
    seq_file = tmp_path / "p.seq"
    assert main(["solve-burn", str(graph_file), "-o", str(seq_file)]) == 1
    assert capsys.readouterr().err == (
        "error\tMalformedSequenceError\tlabel not representable in sequence text: '#a'\n"
    )
    assert not seq_file.exists()


def test_witness_meta_with_small_m_is_a_domain_error(tmp_path, capsys):
    meta_file = tmp_path / "h.meta"
    meta_file.write_text(_META.replace("m\t4", "m\t3"), encoding="utf-8")
    assert main(["witness", str(meta_file)]) == 1
    assert capsys.readouterr().err.startswith("error\tInvalidParamsError\t")


def test_witness_meta_with_huge_m_builds_no_gadget(tmp_path, capsys, monkeypatch):
    """witness reads the C(m) middles off the label scheme: no gadget edges."""

    def no_gadget(*args):
        raise AssertionError("witness built a gadget")

    monkeypatch.setattr(gadgets, "_p_parts", no_gadget)
    meta_file = tmp_path / "h.meta"
    meta_file.write_text(_META.replace("m\t4", "m\t2000"), encoding="utf-8")
    seq_file = tmp_path / "w.seq"
    report = parse_report(run(capsys, "witness", str(meta_file), "-o", str(seq_file)))
    assert int(report["length"]) == int(report["k_prime"]) + 2000
    middles = seq_file.read_text(encoding="utf-8").split()[-2000:]
    assert middles[:2] == ["c:p2000:a1999", "c:p1999:a1999"]
    assert middles[-4:] == ["c:p4:a4", "c:tail:v7", "c:tail:v3", "c:tail:v1"]


def test_witness_meta_with_m_past_the_h_cap_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A witness's |cover| + m sources are distinct vertices of H, so an m of
    10**9 is refused by the reduction's cap before any C(m) label is made."""

    def no_labels(*args):
        raise AssertionError("witness made the C(m) labels")

    monkeypatch.setattr(reduction, "_c_middles", no_labels)
    meta_file = tmp_path / "h.meta"
    meta_file.write_text(_META.replace("m\t4", "m\t1000000000"), encoding="utf-8")
    seq_file = tmp_path / "w.seq"
    assert main(["witness", str(meta_file), "-o", str(seq_file)]) == 1
    assert capsys.readouterr().err.startswith("error\tReductionTooLargeError\t")
    assert not seq_file.exists()


def test_reduce_rejects_colliding_btp_heads(tmp_path, capsys):
    k4 = complete_graph(4)
    rename = dict(zip(k4.vertices, ("a", "a:b", "b:c", "c")))
    graph_file = tmp_path / "g.g"
    graph_file.write_text(
        write_graph(Graph([(rename[u], rename[v]) for u, v in k4.edges()])), encoding="utf-8"
    )
    assert main(["reduce", str(graph_file), "-o", str(tmp_path / "h.g")]) == 1
    assert capsys.readouterr().err.startswith("error\tGraphFormatError\tduplicate edge ")


def test_full_pipeline_files(tmp_path, capsys, k4_file):
    h_file = tmp_path / "h.g"
    run(capsys, "reduce", k4_file, "-o", str(h_file))
    meta_file = tmp_path / "h.meta"
    assert meta_file.exists()
    seq_file = tmp_path / "w.seq"
    report = parse_report(run(capsys, "witness", str(meta_file), "-o", str(seq_file)))
    assert report["length"] == "39"
    report = parse_report(run(capsys, "burn", str(h_file), str(seq_file)))
    assert report["complete_at"] == "39"
    report = parse_report(run(capsys, "audit", k4_file, str(seq_file)))
    assert report["unrepresented"] == "0"
    assert int(report["bl_ub_overlap"]) > 0


def test_lift_project_pipeline(tmp_path, capsys, k4_file):
    h4_file = tmp_path / "h4.g"
    report = parse_report(run(capsys, "lift", k4_file, "--d", "4", "-o", str(h4_file)))
    assert report["vertices"] == "8"
    seq_file = tmp_path / "h4.seq"
    run(capsys, "solve-burn", str(h4_file), "-o", str(seq_file))
    proj_file = tmp_path / "proj.seq"
    report = parse_report(
        run(capsys, "project", k4_file, str(seq_file), "--d", "4", "--dprime", "3",
            "-o", str(proj_file))
    )
    assert int(report["output_length"]) <= int(report["input_length"])


def test_project_between_lifts(tmp_path, capsys, k4_file):
    h5_file = tmp_path / "h5.g"
    run(capsys, "lift", k4_file, "--d", "5", "-o", str(h5_file))
    seq_file = tmp_path / "h5.seq"
    run(capsys, "solve-burn", str(h5_file), "-o", str(seq_file))
    proj_file = tmp_path / "proj.seq"
    report = parse_report(
        run(capsys, "project", k4_file, str(seq_file), "--d", "5", "--dprime", "4",
            "-o", str(proj_file))
    )
    h4 = build_Hd(complete_graph(4), 4).graph
    assert report["target_vertices"] == str(h4.vertex_count) == "8"
    assert int(report["output_length"]) <= int(report["input_length"])
    assert is_burning_sequence(h4, read_sequence(proj_file.read_text(encoding="utf-8")))


_MID = ("copy1:v1", "copy3:v1", "copy2:v2")  # projects with a mid-sequence duplicate
_FREE = ("copy1:v1", "copy2:v2", "copy2:v3")  # no duplicate onto H_4
_TRAILING = ("copy1:v1", "copy1:v2", "copy2:v2")  # duplicate in the last two slots


@pytest.mark.parametrize(
    "seq, d, dprime, report, output, digest",
    [
        (_MID, 5, 4, "c296e3a8059ca70b\ninput_length\t3\noutput_length\t3\ntarget_vertices\t8\n",
         "copy1:v1\ncopy2:v2\ncopy2:v3\n", "cdcd01d7990dd1b1"),
        (_MID, 5, 3, "c296e3a8059ca70b\ninput_length\t3\noutput_length\t2\ntarget_vertices\t4\n",
         "v1\nv2\n", "105b2c8d7bdd4642"),
        (_FREE, 5, 4, "cdcd01d7990dd1b1\ninput_length\t3\noutput_length\t3\ntarget_vertices\t8\n",
         "copy1:v1\ncopy2:v2\ncopy2:v3\n", "cdcd01d7990dd1b1"),
        (_FREE, 5, 3, "cdcd01d7990dd1b1\ninput_length\t3\noutput_length\t2\ntarget_vertices\t4\n",
         "v1\nv2\n", "105b2c8d7bdd4642"),
        (_TRAILING, 4, 3, "e4c6cad17e6d4c75\ninput_length\t3\noutput_length\t2\ntarget_vertices\t4\n",
         "v1\nv2\n", "105b2c8d7bdd4642"),
    ],
)
def test_project_output_is_pinned(tmp_path, capsys, k4_file, seq, d, dprime, report, output, digest):
    seq_file, proj_file = tmp_path / "in.seq", tmp_path / "out.seq"
    seq_file.write_text("\n".join(seq) + "\n", encoding="utf-8")
    out = run(capsys, "project", k4_file, str(seq_file), "--d", str(d), "--dprime", str(dprime),
              "-o", str(proj_file))
    assert out == "command\tproject\ninput\taba4f05cdfc18efd\ninput\t" + report
    data = proj_file.read_bytes()
    assert data.decode() == output
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_dot_styles_landmarks_whose_labels_hold_commas(tmp_path, capsys):
    """A vertex of G named ``a,b`` puts commas into H's labels; every domain
    written by ``reduce -l`` is still styled by ``dot -l``."""
    text = "a,b v2\na,b v3\na,b v4\nv2 v3\nv2 v4\nv3 v4\n"
    g_file, h_file, marks = tmp_path / "g.g", tmp_path / "h.g", tmp_path / "h.landmarks"
    g_file.write_text(text, encoding="utf-8")
    run(capsys, "reduce", str(g_file), "-o", str(h_file), "-l", str(marks))
    dot_file = tmp_path / "h.dot"
    run(capsys, "dot", str(h_file), "-l", str(marks), "-o", str(dot_file))
    styled = set(re.findall(r'^  "([^"]*)" \[style=filled', dot_file.read_text(), re.M))
    domains = build_H(read_graph(text)).domains
    assert domains["a,b"] and all(set(dom) <= styled for dom in domains.values())


def test_stats(capsys, k4_file):
    report = parse_report(run(capsys, "stats", k4_file))
    assert report["vertices"] == "4"
    assert report["regular"] == "3"
    assert report["connected"] == "true"


def test_an_empty_sidecar_path_is_read_like_any_input(capsys, k4_file):
    """``dot -l ''`` reads the empty path as ``stats ''`` does, and fails on
    the directory it names instead of styling nothing."""
    err = "error\tOSError\t[Errno 21] Is a directory: '.'\n"
    assert main(["stats", ""]) == 1
    assert capsys.readouterr().err == err
    assert main(["dot", k4_file, "-l", ""]) == 1
    assert capsys.readouterr() == ("", err)


def test_dot_export_deterministic():
    t = make_T(2, 6)
    a = export_dot(t.graph, t.landmarks)
    b = export_dot(t.graph, t.landmarks)
    assert a == b
    assert '"p"' in a and "tip_pq" in a


def test_dot_escapes_quotes_and_backslashes():
    g = Graph([('a"b', "c"), ("a\\b", "c")])
    text = export_dot(g, {'q"': ('a"b',), "r\\": ("a\\b",)})
    assert text == (
        "graph burnkit {\n"
        "  node [shape=circle];\n"
        '  "a\\"b" [style=filled, fillcolor=lightblue, xlabel="q\\""];\n'
        '  "a\\\\b" [style=filled, fillcolor=lightblue, xlabel="r\\\\"];\n'
        '  "a\\"b" -- "c";\n'
        '  "a\\\\b" -- "c";\n'
        "}\n"
    )


def test_dot_small(capsys, tmp_path):
    graph_file = tmp_path / "p3.g"
    graph_file.write_text(write_graph(path_graph(3)), encoding="utf-8")
    out = run(capsys, "dot", str(graph_file))
    assert out.count("--") == 2


def test_timings_section_is_optional(capsys, k4_file):
    plain = run(capsys, "stats", k4_file)
    timed = run(capsys, "--timings", "stats", k4_file)
    assert "# timings" not in plain
    assert "# timings" in timed
    assert timed.startswith(plain)


def test_cross_process_determinism(tmp_path):
    """Outputs are byte-identical even across interpreter runs with different
    hash seeds (no set-iteration order leaks into files or reports)."""
    import os
    import subprocess
    import sys

    snapshots = []
    for seed in ("1", "31337"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)

        def cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "burnkit.cli", *argv],
                capture_output=True, text=True, env=env, check=True,
            )
            return proc.stdout

        g, marks = str(work / "c5.g"), str(work / "c5.landmarks")
        out = cli("gen-gadget", "C", "5", "-o", g, "-l", marks)
        out += cli("solve-burn", g, "-o", str(work / "c5.seq"))
        out += cli("gen-gadget", "cubic", "8", "--seed", "3", "-o", str(work / "cub.g"))
        out += cli("solve-vc", str(work / "cub.g"))
        files = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
        snapshots.append((out, files))
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize(
    "argv, clash",
    [
        ("reduce k4.g -o h.meta", "h.meta"),  # the default meta path is h.meta too
        ("reduce k4.g -o h.g --meta h.g", "h.g"),
        ("reduce k4.g -o h.g -l h.g", "h.g"),
        ("reduce k4.g -o h.g --meta m -l ./m", "./m"),
        ("gen-gadget C 4 -o c.g -l c.g", "c.g"),
        ("gen-gadget C 4 -o c.g -l sub/../c.g", "sub/../c.g"),
    ],
)
@pytest.mark.usefixtures("k4_file")  # writes k4.g into tmp_path
def test_coinciding_outputs_are_a_usage_error(tmp_path, monkeypatch, capsys, argv, clash):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"usage error: two outputs name the same file: {clash}\n")
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize(
    "argv, clash",
    [
        ("solve-burn k4.g -o k4.g", "k4.g"),
        ("solve-burn k4.g -o sub/../k4.g", "sub/../k4.g"),
        ("solve-vc k4.g -o ./k4.g", "./k4.g"),
        ("witness h.meta -o h.meta", "h.meta"),
        ("lift k4.g --d 4 -o k4.g", "k4.g"),
        ("project k4.g w.seq --d 4 --dprime 3 -o w.seq", "w.seq"),
        ("dot k4.g -o k4.g", "k4.g"),
        ("dot k4.g -l k4.landmarks -o k4.landmarks", "k4.landmarks"),
        ("reduce k4.g -o k4.g", "k4.g"),
        ("reduce k4.g -o h.g --meta k4.g", "k4.g"),
    ],
)
@pytest.mark.usefixtures("k4_file")  # writes k4.g into tmp_path
def test_output_naming_an_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, clash):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "h.meta").write_text(_META, encoding="utf-8")
    (tmp_path / "w.seq").write_text("copy1:v1\n", encoding="utf-8")
    (tmp_path / "k4.landmarks").write_text("x\tv1\n", encoding="utf-8")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"usage error: an output names an input file: {clash}\n")
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before  # the input is unchanged and nothing is written


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "k4.g", "-o", ""],
        ["reduce", "k4.g", "-o", "."],
        ["reduce", "k4.g", "-o", "/"],
        ["reduce", "k4.g", "-o", "", "--meta", "h.meta"],
        ["reduce", "k4.g", "-o", ".", "--meta", "h.meta"],
        ["lift", "k4.g", "--d", "4", "-o", ""],
        ["lift", "k4.g", "--d", "4", "-o", "."],
    ],
)
@pytest.mark.usefixtures("k4_file")  # writes k4.g into tmp_path
def test_a_required_output_naming_no_file_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    """A required ``-o`` with no file name ('', '.' or '/'), which is also
    the stem of reduce's default meta path, is a usage error raised before
    anything is written: no traceback, and no run that exits 0 with no
    graph written."""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: the output names no file: {argv[argv.index('-o') + 1]!r}\n")
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize(
    "argv, bad",
    [
        ("witness h.meta -o", ""),
        ("solve-vc k4.g -o", ""),
        ("solve-burn k4.g -o", "."),
        ("dot k4.g -o", ""),
        ("dot k4.g -o", "/"),
        ("project k4.g w.seq --d 4 --dprime 3 -o", ""),
        ("gen-gadget C 4 -o", ""),
        ("gen-gadget C 4 -o c.g -l", "."),
        ("reduce k4.g -o h.g --meta", ""),
        ("reduce k4.g -o h.g --meta", "/"),
        ("reduce k4.g -o h.g -l", ""),
    ],
)
@pytest.mark.usefixtures("k4_file")  # writes k4.g into tmp_path
def test_an_optional_output_naming_no_file_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, bad):
    """An optional output (``-o``, ``-l`` or ``--meta``) given as '', '.'
    or '/' is a usage error raised before any input is read or anything is
    written, as a required one is: not taken as no output, not the default
    meta path, not stdout, and not an ``OSError``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.meta").write_text(_META, encoding="utf-8")
    (tmp_path / "w.seq").write_text("copy1:v1\ncopy1:v2\n", encoding="utf-8")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}

    def unread(path, *args, **kwargs):
        raise AssertionError(f"input read: {path}")

    for read in ("read_bytes", "read_text"):
        monkeypatch.setattr(Path, read, unread)
    assert main(argv.split() + [bad]) == 2
    monkeypatch.undo()
    assert capsys.readouterr() == ("", f"usage error: the output names no file: {bad!r}\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("kind, param", [("path", "5"), ("cycle", "5"), ("cubic", "8")])
def test_landmarks_of_a_plain_generator_are_a_usage_error(tmp_path, capsys, kind, param):
    argv = ["gen-gadget", kind, param, "-o", str(tmp_path / "g.g"), "-l", str(tmp_path / "g.l")]
    assert main(argv) == 2
    err = f"usage error: gen-gadget {kind} has no landmarks to write\n"
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


# -- error contract fuzz -------------------------------------------------------
#
# Every subcommand of the table gets an argv built from its argparse arguments,
# over small, malformed and non-UTF-8 graph, sequence, meta and landmark files.
# Graphs have at most 10 vertices, gadget parameters and degrees are at most 6
# and budgets are small, so that every run is bounded.

_FUZZ_LABELS = st.sampled_from([f"v{i}" for i in range(1, 11)] + ["x", "y"])
_EDGE_LINES = st.sets(
    st.tuples(_FUZZ_LABELS, _FUZZ_LABELS).filter(lambda e: e[0] < e[1]).map(" ".join), max_size=15
).map(sorted)
_JUNK_LINES = st.lists(
    st.sampled_from(["", "# comment", "\t", "v1", "v1 v2 v3", "x\ty\tz", "v1 v1", "v2 v1"]),
    max_size=2,
)
_GRAPH_TEXT = st.tuples(_EDGE_LINES, _JUNK_LINES).map(lambda t: t[0] + t[1])
_SEQUENCE_TEXT = st.tuples(st.lists(_FUZZ_LABELS, max_size=8, unique=True), _JUNK_LINES).map(
    lambda t: t[0] + t[1]
)
_META_TEXT = st.tuples(
    st.sampled_from(["4", "6", "3", "-1", "four"]),
    _FUZZ_LABELS,
    _FUZZ_LABELS,
    _EDGE_LINES,
    _JUNK_LINES,
    st.sets(st.sampled_from(["m", "x", "y"]), max_size=1),  # keys left out
).map(
    lambda t: [
        *(f"{key}\t{value}" for key, value in zip("mxy", t[:3]) if key not in t[5]),
        *(f"gprime-edge\t{edge}" for edge in t[3]),
        *t[4],
    ]
)
_LANDMARK_TEXT = st.lists(
    st.tuples(_FUZZ_LABELS, st.lists(_FUZZ_LABELS, max_size=3).map(",".join)).map("\t".join),
    max_size=5,
)


def _file_bytes(lines):
    """Mostly UTF-8 lines; else the lines behind a byte that is not UTF-8, or any bytes."""
    utf8 = lines.map(lambda ls: ("\n".join(ls) + "\n").encode())
    return st.one_of(utf8, utf8, utf8, utf8.map(lambda b: b"\xff" + b), st.binary(max_size=12))


_CUBIC = [write_graph(complete_graph(4)).encode(), write_graph(prism_graph()).encode()]
_FILES = {
    "graph": _file_bytes(_GRAPH_TEXT),
    # reduce and audit get none: each builds an H of 80,000 vertices or more
    "cubic graph": st.one_of(_file_bytes(_GRAPH_TEXT), st.sampled_from(_CUBIC)),
    "sequence": _file_bytes(_SEQUENCE_TEXT),
    "meta": _file_bytes(_META_TEXT),
    "landmarks": _file_bytes(_LANDMARK_TEXT),
}
_INTS = {
    "budget": st.sampled_from(["50", "5", "0", "-1"]),
    "gadget": st.one_of(st.integers(min_value=-1, max_value=6).map(str), st.just("x")),
    "other": st.sampled_from(["4", "5", "3", "6", "2", "0", "-1"]),  # --d, --dprime, --seed
}


@st.composite
def _fuzz_argv(draw, name: str, kind: str | None, root: Path) -> list[str]:
    """An argv for subcommand ``name`` (of gadget ``kind``): every argument it
    declares, with files written under ``root``; an output may also name an
    input, an earlier output, or a missing directory."""
    inputs: list[str] = []
    outputs: list[str] = []

    def input_file(kind: str) -> str:
        if kind == "graph" and name not in ("reduce", "audit"):
            kind = "cubic graph"
        path = root / f"in{len(inputs)}"
        path.write_bytes(draw(_FILES[kind]))
        inputs.append(str(path))
        return str(path)

    def output_path() -> str:
        path = str(root / f"out{len(outputs)}")
        pick = draw(st.sampled_from(["fresh", "fresh", "input", "output", "missing dir"]))
        if pick == "input" and inputs:
            path = draw(st.sampled_from(inputs))
        elif pick == "output" and outputs:
            path = draw(st.sampled_from(outputs))
        elif pick == "missing dir":
            path = str(root / "no" / "dir")
        outputs.append(path)
        return path

    argv = [name]
    for flags, kwargs in cli._COMMANDS[name].args:
        dest = flags[-1].lstrip("-")
        option = flags[0].startswith("-")
        if option and not kwargs.get("required") and draw(st.booleans()):
            continue
        if dest == "kind":
            value = [kind]
        elif dest == "params":  # mostly as many as the kind takes
            arity = cli._GADGETS.get(argv[-1], (1,))[0]
            count = draw(st.sampled_from([arity, arity, arity, arity + 1, max(arity - 1, 0)]))
            value = draw(st.lists(_INTS["gadget"], min_size=count, max_size=count))
        elif not option or (dest == "landmarks" and name == "dot"):
            value = [input_file(dest)]
        elif dest in ("output", "landmarks", "meta"):
            value = [output_path()]
        elif kwargs.get("type") is int:
            value = [draw(_INTS.get(dest, _INTS["other"]))]
        else:
            value = []  # a flag
        argv += [flags[0], *value] if option else value
    mutation = draw(st.sampled_from(["none"] * 4 + ["timings", "drop", "unknown"]))
    if mutation == "timings":
        argv.insert(0, "--timings")
    elif mutation == "drop" and len(argv) > 1:
        del argv[draw(st.integers(min_value=1, max_value=len(argv) - 1))]
    elif mutation == "unknown":
        argv.append("--bogus")
    return argv


_ERROR_LINE = re.compile(r"error\t[A-Za-z]+\t[^\n]*\n")


@pytest.mark.parametrize(
    "name, kind",
    [(name, None) for name in cli._COMMANDS if name != "gen-gadget"]
    + [("gen-gadget", kind) for kind in [*cli._GADGETS, "Q"]],
)
@settings(
    max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_error_contract_fuzz(name, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_fuzz_argv(name, kind, Path(tmp)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert err == "" or _ERROR_LINE.fullmatch(err) or err.startswith("usage"), (argv, err)
    assert "Traceback" not in err


# -- README sync ---------------------------------------------------------------


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index("## CLI") : text.index("## File formats")]


def test_readme_commands_parse_with_the_table_parser():
    parser = cli._build_parser()
    lines = [line for line in _readme_cli_section().splitlines() if line.startswith("burnkit ")]
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)
    for line in lines:
        try:
            parser.parse_args(shlex.split(line.partition("#")[0])[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_gadget_kinds_match_the_table():
    section = _readme_cli_section()
    listing = section[section.index("`gen-gadget` kinds:") : section.index("(random")]
    kinds = {}
    for item in re.findall(r"`([^`]+)`", listing)[1:]:  # [0] is `gen-gadget`
        kind, *words = item.split()
        kinds[kind] = len(list(itertools.takewhile(lambda w: not w.startswith("--"), words)))
    assert kinds == {kind: arity for kind, (arity, _) in cli._GADGETS.items()}


# -- golden transcript ---------------------------------------------------------
#
# Every subcommand on K4, P3, the prism and C(4), including usage and domain
# errors, run in order in one directory: exit code, stdout with timing values
# masked, stderr, and a sha256 prefix of each file the run wrote.  A stdout of
# more than 12 lines, and every --help text, is kept as a sha256 prefix too.
# The expectations are literals, so any drift of the CLI's output shows here.

_SETUP = {
    "k4.g": write_graph(complete_graph(4)).encode(),
    "p3.g": write_graph(path_graph(3)).encode(),
    "prism.g": write_graph(prism_graph()).encode(),
    "bad.seq": b"v1\nv3\nv2\n",
    "empty.g": b"",
    "nonutf8.g": b"\xffv1 v2\n",
    "nonutf8.seq": b"\xffv1\n",
    "nonutf8.meta": b"\xffm\t4\n",
    "nonutf8.landmarks": b"\xffx\tv1\n",
}

_TIMING_VALUE = re.compile(r"\t\d+\.\d{3}s$")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _transcript(root: Path, argv: str) -> tuple:
    stamps = {p.name: p.stat().st_mtime_ns for p in root.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
    head, sep, tail = out.getvalue().partition("# timings\n")
    timings = "".join(_TIMING_VALUE.sub("\t#s", line) + "\n" for line in tail.splitlines())
    stdout = head + sep + timings
    if "--help" in argv or stdout.count("\n") > 12:
        stdout = "sha256:" + _digest(stdout.encode())
    written = {
        p.name: _digest(p.read_bytes())
        for p in sorted(root.iterdir())
        if stamps.get(p.name) != p.stat().st_mtime_ns
    }
    return argv, code, stdout, err.getvalue(), written


def test_golden_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    for name, data in _SETUP.items():
        (tmp_path / name).write_bytes(data)
    mismatches = [
        (expected, got)
        for expected in _GOLDEN
        if (got := _transcript(tmp_path, expected[0])) != expected
    ]
    assert not mismatches


_GOLDEN = [
    (
        "--help",
        0,
        "sha256:ef726b21a8aa1d1c",
        "",
        {},
    ),
    (
        "gen-gadget --help",
        0,
        "sha256:b2c017f2ce071d42",
        "",
        {},
    ),
    (
        "reduce --help",
        0,
        "sha256:a208b1457a6ed819",
        "",
        {},
    ),
    (
        "witness --help",
        0,
        "sha256:bc5d22430d1698f4",
        "",
        {},
    ),
    (
        "burn --help",
        0,
        "sha256:21606ed589251ec9",
        "",
        {},
    ),
    (
        "solve-burn --help",
        0,
        "sha256:25a2e9953e03859a",
        "",
        {},
    ),
    (
        "solve-vc --help",
        0,
        "sha256:3f2e1a3b6bc83a35",
        "",
        {},
    ),
    (
        "audit --help",
        0,
        "sha256:3d7dc6959e010e36",
        "",
        {},
    ),
    (
        "lift --help",
        0,
        "sha256:714f444728ea0086",
        "",
        {},
    ),
    (
        "project --help",
        0,
        "sha256:5c2103225bd3c701",
        "",
        {},
    ),
    (
        "stats --help",
        0,
        "sha256:962066d1793c952e",
        "",
        {},
    ),
    (
        "dot --help",
        0,
        "sha256:9ccd59e166e6b67f",
        "",
        {},
    ),
    (
        "gen-gadget C 4 -o c4.g -l c4.landmarks",
        0,
        "command\tgen-gadget\n"
        "kind\tC\n"
        "params\t4\n"
        "vertices\t23\n"
        "edges\t34\n",
        "",
        {
            "c4.g": "92f00aa87e1ade1c",
            "c4.landmarks": "eef583e8880c2569",
        },
    ),
    (
        "--timings gen-gadget T 2 6 -o t.g -l t.landmarks",
        0,
        "command\tgen-gadget\n"
        "kind\tT\n"
        "params\t2,6\n"
        "vertices\t22\n"
        "edges\t32\n"
        "# timings\n"
        "generate\t#s\n",
        "",
        {
            "t.g": "856e7329fec3e3c6",
            "t.landmarks": "256741a613b69c77",
        },
    ),
    (
        "gen-gadget BT 3",
        0,
        "command\tgen-gadget\n"
        "kind\tBT\n"
        "params\t3\n"
        "vertices\t15\n"
        "edges\t14\n",
        "",
        {},
    ),
    (
        "gen-gadget BTP 6 1 9",
        0,
        "command\tgen-gadget\n"
        "kind\tBTP\n"
        "params\t6,1,9\n"
        "vertices\t1662\n"
        "edges\t2492\n",
        "",
        {},
    ),
    (
        "gen-gadget BTP 2 3 4",
        1,
        "",
        "error\tParamInequalityError\tinequality 1 violated: l1 + l2 = 7 must be < 2^(h-2); inequality 2 violated: l2 = 4 must be > l1 + h + 1 = 6\n",
        {},
    ),
    (
        "gen-gadget P 3",
        0,
        "command\tgen-gadget\n"
        "kind\tP\n"
        "params\t3\n"
        "vertices\t4\n"
        "edges\t5\n",
        "",
        {},
    ),
    (
        "gen-gadget Y 3 4",
        0,
        "command\tgen-gadget\n"
        "kind\tY\n"
        "params\t3,4\n"
        "vertices\t15\n"
        "edges\t21\n",
        "",
        {},
    ),
    (
        "gen-gadget Tail",
        0,
        "command\tgen-gadget\n"
        "kind\tTail\n"
        "params\t\n"
        "vertices\t12\n"
        "edges\t17\n",
        "",
        {},
    ),
    (
        "gen-gadget path 5 -o p5.g",
        0,
        "command\tgen-gadget\n"
        "kind\tpath\n"
        "params\t5\n"
        "vertices\t5\n"
        "edges\t4\n",
        "",
        {
            "p5.g": "6007895c3c112bcc",
        },
    ),
    (
        "gen-gadget cycle 5",
        0,
        "command\tgen-gadget\n"
        "kind\tcycle\n"
        "params\t5\n"
        "vertices\t5\n"
        "edges\t5\n",
        "",
        {},
    ),
    (
        "gen-gadget cubic 8 --seed 3 -o cub.g",
        0,
        "command\tgen-gadget\n"
        "kind\tcubic\n"
        "params\t8\n"
        "vertices\t8\n"
        "edges\t12\n",
        "",
        {
            "cub.g": "939c7f5784b65248",
        },
    ),
    (
        "gen-gadget T 0 5",
        1,
        "",
        "error\tInvalidParamsError\tT-gadget needs l1 >= 1 and l2 >= 2, got (0, 5)\n",
        {},
    ),
    (
        "gen-gadget T 1",
        2,
        "",
        "usage error: gen-gadget T takes 2 parameter(s), got 1\n",
        {},
    ),
    (
        "gen-gadget C x",
        2,
        "",
        "usage error: gadget parameters must be integers: ['x']\n",
        {},
    ),
    (
        "gen-gadget Q 1",
        2,
        "",
        "usage: burnkit gen-gadget [-h] [-o OUTPUT] [-l LANDMARKS] [--seed SEED]\n"
        "                          {T,BT,BTP,P,Y,Tail,C,path,cycle,cubic} [params ...]\n"
        "burnkit gen-gadget: error: argument kind: invalid choice: 'Q' (choose from 'T', 'BT', 'BTP', 'P', 'Y', 'Tail', 'C', 'path', 'cycle', 'cubic')\n",
        {},
    ),
    (
        "gen-gadget",
        2,
        "",
        "usage: burnkit gen-gadget [-h] [-o OUTPUT] [-l LANDMARKS] [--seed SEED]\n"
        "                          {T,BT,BTP,P,Y,Tail,C,path,cycle,cubic} [params ...]\n"
        "burnkit gen-gadget: error: the following arguments are required: kind, params\n",
        {},
    ),
    (
        "reduce k4.g -o h.g -l h.landmarks",
        0,
        "sha256:fb41938ef7d35b9e",
        "",
        {
            "h.g": "724c05d3629cb75d",
            "h.landmarks": "583e979285faf47e",
            "h.meta": "58128db96bc2a663",
        },
    ),
    (
        "witness h.meta -o w.seq",
        0,
        "command\twitness\n"
        "input\t58128db96bc2a663\n"
        "k_prime\t4\n"
        "length\t39\n"
        "cover\tv1,v2,v4,y\n",
        "",
        {
            "w.seq": "73f4a22df8068f38",
        },
    ),
    (
        "--timings witness h.meta",
        0,
        "command\twitness\n"
        "input\t58128db96bc2a663\n"
        "k_prime\t4\n"
        "length\t39\n"
        "cover\tv1,v2,v4,y\n"
        "# timings\n"
        "witness\t#s\n",
        "",
        {},
    ),
    (
        "burn h.g w.seq",
        0,
        "command\tburn\n"
        "input\t724c05d3629cb75d\n"
        "input\t73f4a22df8068f38\n"
        "length\t39\n"
        "valid\ttrue\n"
        "complete\ttrue\n"
        "unburned\t0\n"
        "complete_at\t39\n"
        "last_step_size\t518\n"
        "uniquely_burned_size\t77732\n"
        "bl_ub_overlap\t517\n",
        "",
        {},
    ),
    (
        "audit k4.g w.seq",
        0,
        "sha256:f6fd334e8500710f",
        "",
        {},
    ),
    (
        "stats h.g",
        0,
        "command\tstats\n"
        "input\t724c05d3629cb75d\n"
        "vertices\t80294\n"
        "edges\t120441\n"
        "connected\ttrue\n"
        "degree_histogram\t3:80294\n"
        "regular\t3\n",
        "",
        {},
    ),
    (
        "reduce prism.g -o hp.g --meta prism.meta",
        0,
        "sha256:cba95c08b9cf3da8",
        "",
        {
            "hp.g": "66b86757e3442640",
            "prism.meta": "f9f85e7663b12370",
        },
    ),
    (
        "witness prism.meta -o wp.seq",
        0,
        "command\twitness\n"
        "input\tf9f85e7663b12370\n"
        "k_prime\t5\n"
        "length\t40\n"
        "cover\ta1,a3,b2,b3,y\n",
        "",
        {
            "wp.seq": "1dfb613683745dc6",
        },
    ),
    (
        "reduce p3.g -o bad.g",
        1,
        "",
        "error\tNotCubicError\tinput graph must be cubic on at least 4 vertices\n",
        {},
    ),
    (
        "reduce c4.g -o bad.g",
        1,
        "",
        "error\tNotCubicError\tinput graph must be cubic on at least 4 vertices\n",
        {},
    ),
    (
        "reduce missing.g -o bad.g",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.g'\n",
        {},
    ),
    (
        "reduce k4.g",
        2,
        "",
        "usage: burnkit reduce [-h] -o OUTPUT [-l LANDMARKS] [--meta META] graph\n"
        "burnkit reduce: error: the following arguments are required: -o/--output\n",
        {},
    ),
    (
        "witness k4.g",
        1,
        "",
        "error\tMetaFormatError\tmissing key(s): x, y, m\n",
        {},
    ),
    (
        "witness missing.meta",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.meta'\n",
        {},
    ),
    (
        "audit p3.g bad.seq",
        1,
        "",
        "error\tNotCubicError\tinput graph must be cubic on at least 4 vertices\n",
        {},
    ),
    (
        "burn p3.g bad.seq",
        0,
        "command\tburn\n"
        "input\td3464c47546e31ee\n"
        "input\t09826b30ccb5a87c\n"
        "length\t3\n"
        "valid\tfalse\n"
        "reason\tsource 'v2' placed at step 3 was already burned at step 2 by fire from 'v1'\n",
        "",
        {},
    ),
    (
        "burn k4.g bad.seq",
        0,
        "command\tburn\n"
        "input\taba4f05cdfc18efd\n"
        "input\t09826b30ccb5a87c\n"
        "length\t3\n"
        "valid\tfalse\n"
        "reason\tsource 'v2' placed at step 3 was already burned at step 2 by fire from 'v1'\n",
        "",
        {},
    ),
    (
        "burn c4.g missing.seq",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.seq'\n",
        {},
    ),
    (
        "stats k4.g",
        0,
        "command\tstats\n"
        "input\taba4f05cdfc18efd\n"
        "vertices\t4\n"
        "edges\t6\n"
        "connected\ttrue\n"
        "degree_histogram\t3:4\n"
        "regular\t3\n",
        "",
        {},
    ),
    (
        "stats p3.g",
        0,
        "command\tstats\n"
        "input\td3464c47546e31ee\n"
        "vertices\t3\n"
        "edges\t2\n"
        "connected\ttrue\n"
        "degree_histogram\t1:2,2:1\n"
        "regular\tno\n",
        "",
        {},
    ),
    (
        "stats prism.g",
        0,
        "command\tstats\n"
        "input\t74576873604e0489\n"
        "vertices\t6\n"
        "edges\t9\n"
        "connected\ttrue\n"
        "degree_histogram\t3:6\n"
        "regular\t3\n",
        "",
        {},
    ),
    (
        "--timings stats c4.g",
        0,
        "command\tstats\n"
        "input\t92f00aa87e1ade1c\n"
        "vertices\t23\n"
        "edges\t34\n"
        "connected\ttrue\n"
        "degree_histogram\t2:1,3:22\n"
        "regular\tno\n"
        "# timings\n"
        "stats\t#s\n",
        "",
        {},
    ),
    (
        "stats empty.g",
        0,
        "command\tstats\n"
        "input\te3b0c44298fc1c14\n"
        "vertices\t0\n"
        "edges\t0\n"
        "connected\ttrue\n"
        "degree_histogram\t\n"
        "regular\tno\n",
        "",
        {},
    ),
    (
        "stats missing.g",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.g'\n",
        {},
    ),
    (
        "--timings stats missing.g",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.g'\n",
        {},
    ),
    (
        "solve-burn c4.g -o c4.seq",
        0,
        "command\tsolve-burn\n"
        "input\t92f00aa87e1ade1c\n"
        "value\t4\n"
        "witness\tp4:a6,tail:v1,p4:a1,tail:v4\n"
        "nodes\t4\n",
        "",
        {
            "c4.seq": "8b6a01a96fbeccd1",
        },
    ),
    (
        "burn c4.g c4.seq",
        0,
        "command\tburn\n"
        "input\t92f00aa87e1ade1c\n"
        "input\t8b6a01a96fbeccd1\n"
        "length\t4\n"
        "valid\ttrue\n"
        "complete\ttrue\n"
        "unburned\t0\n"
        "complete_at\t4\n"
        "last_step_size\t10\n"
        "uniquely_burned_size\t23\n"
        "bl_ub_overlap\t10\n",
        "",
        {},
    ),
    (
        "solve-burn --naive p3.g",
        0,
        "command\tsolve-burn\n"
        "input\td3464c47546e31ee\n"
        "value\t2\n"
        "witness\tv1,v3\n"
        "nodes\t3\n",
        "",
        {},
    ),
    (
        "solve-burn k4.g",
        0,
        "command\tsolve-burn\n"
        "input\taba4f05cdfc18efd\n"
        "value\t2\n"
        "witness\tv1,v2\n"
        "nodes\t1\n",
        "",
        {},
    ),
    (
        "solve-burn prism.g --budget 5",
        0,
        "command\tsolve-burn\n"
        "input\t74576873604e0489\n"
        "value\t3\n"
        "witness\ta1,b2,b3\n"
        "nodes\t1\n",
        "",
        {},
    ),
    (
        "solve-burn empty.g",
        1,
        "",
        "error\tEmptyGraphError\tempty graph\n",
        {},
    ),
    (
        "solve-vc k4.g -o k4.cover",
        0,
        "command\tsolve-vc\n"
        "input\taba4f05cdfc18efd\n"
        "value\t3\n"
        "cover\tv1,v2,v4\n"
        "nodes\t5\n",
        "",
        {
            "k4.cover": "5d7d5a36c07de90c",
        },
    ),
    (
        "solve-vc prism.g",
        0,
        "command\tsolve-vc\n"
        "input\t74576873604e0489\n"
        "value\t4\n"
        "cover\ta1,a3,b2,b3\n"
        "nodes\t5\n",
        "",
        {},
    ),
    (
        "solve-vc p3.g",
        0,
        "command\tsolve-vc\n"
        "input\td3464c47546e31ee\n"
        "value\t1\n"
        "cover\tv2\n"
        "nodes\t1\n",
        "",
        {},
    ),
    (
        "solve-vc c4.g --budget 1",
        1,
        "",
        "error\tBudgetExceededError\tbudget exhausted after 2 nodes (12 <= value)\n",
        {},
    ),
    (
        "lift k4.g --d 4 -o h4.g",
        0,
        "command\tlift\n"
        "input\taba4f05cdfc18efd\n"
        "base_vertices\t4\n"
        "d\t4\n"
        "vertices\t8\n"
        "edges\t16\n",
        "",
        {
            "h4.g": "7a86c57dfb15c605",
        },
    ),
    (
        "solve-burn h4.g -o h4.seq",
        0,
        "command\tsolve-burn\n"
        "input\t7a86c57dfb15c605\n"
        "value\t3\n"
        "witness\tcopy1:v1,copy2:v2,copy2:v3\n"
        "nodes\t1\n",
        "",
        {
            "h4.seq": "cdcd01d7990dd1b1",
        },
    ),
    (
        "project k4.g h4.seq --d 4 --dprime 3 -o proj.seq",
        0,
        "command\tproject\n"
        "input\taba4f05cdfc18efd\n"
        "input\tcdcd01d7990dd1b1\n"
        "input_length\t3\n"
        "output_length\t2\n"
        "target_vertices\t4\n",
        "",
        {
            "proj.seq": "105b2c8d7bdd4642",
        },
    ),
    (
        "lift prism.g --d 5 -o h5p.g",
        0,
        "command\tlift\n"
        "input\t74576873604e0489\n"
        "base_vertices\t6\n"
        "d\t5\n"
        "vertices\t18\n"
        "edges\t45\n",
        "",
        {
            "h5p.g": "74d0abad0e585584",
        },
    ),
    (
        "lift p3.g --d 4 -o bad.g",
        1,
        "",
        "error\tNotCubicBaseError\tbase graph must be cubic\n",
        {},
    ),
    (
        "lift k4.g --d 2 -o bad.g",
        1,
        "",
        "error\tBadDegreeError\tlift needs d >= 4 (H_3 is the base itself), got 2\n",
        {},
    ),
    (
        "lift k4.g -o bad.g",
        2,
        "",
        "usage: burnkit lift [-h] --d D -o OUTPUT graph\n"
        "burnkit lift: error: the following arguments are required: --d\n",
        {},
    ),
    (
        "project k4.g bad.seq --d 4 --dprime 3",
        1,
        "",
        "error\tInputNotValidError\tsequence does not burn the lifted graph\n",
        {},
    ),
    (
        "project k4.g h4.seq --d 4 --dprime 5",
        1,
        "",
        "error\tBadDegreeError\td' must be in [3, 3], got 5\n",
        {},
    ),
    (
        "dot c4.g -l c4.landmarks -o c4.dot",
        0,
        "command\tdot\n"
        "input\t92f00aa87e1ade1c\n",
        "",
        {
            "c4.dot": "e338064853aaf143",
        },
    ),
    (
        "dot p3.g",
        0,
        "graph burnkit {\n"
        "  node [shape=circle];\n"
        '  "v1" -- "v2";\n'
        '  "v2" -- "v3";\n'
        "}\n"
        "command\tdot\n"
        "input\td3464c47546e31ee\n",
        "",
        {},
    ),
    (
        "dot c4.g -l c4.landmarks",
        0,
        "sha256:acdee4908904a3cf",
        "",
        {},
    ),
    (
        "dot k4.g -l h.landmarks",
        0,
        "graph burnkit {\n"
        "  node [shape=circle];\n"
        '  "v1" -- "v2";\n'
        '  "v1" -- "v3";\n'
        '  "v1" -- "v4";\n'
        '  "v2" -- "v3";\n'
        '  "v2" -- "v4";\n'
        '  "v3" -- "v4";\n'
        "}\n"
        "command\tdot\n"
        "input\taba4f05cdfc18efd\n",
        "",
        {},
    ),
    (
        "dot missing.g",
        1,
        "",
        "error\tOSError\t[Errno 2] No such file or directory: 'missing.g'\n",
        {},
    ),
    (
        "bogus",
        2,
        "",
        "usage: burnkit [-h] [--timings]\n"
        "               {gen-gadget,reduce,witness,burn,solve-burn,solve-vc,audit,lift,project,stats,dot}\n"
        "               ...\n"
        "burnkit: error: argument command: invalid choice: 'bogus' (choose from 'gen-gadget', 'reduce', 'witness', 'burn', 'solve-burn', 'solve-vc', 'audit', 'lift', 'project', 'stats', 'dot')\n",
        {},
    ),
    # Exit 1 or 2 here where the CLI used to end in a traceback (generator
    # parameters, non-UTF-8 input) or silently overwrite one output with another.
    (
        "gen-gadget path 0",
        1,
        "",
        "error\tInvalidParamsError\tpath needs n >= 1\n",
        {},
    ),
    (
        "gen-gadget cycle 2",
        1,
        "",
        "error\tInvalidParamsError\tcycle needs n >= 3\n",
        {},
    ),
    (
        "gen-gadget cubic 7",
        1,
        "",
        "error\tInvalidParamsError\tcubic graphs need even n >= 4\n",
        {},
    ),
    (
        "stats nonutf8.g",
        1,
        "",
        "error\tUnicodeDecodeError\t'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        {},
    ),
    (
        "burn k4.g nonutf8.seq",
        1,
        "",
        "error\tUnicodeDecodeError\t'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        {},
    ),
    (
        "witness nonutf8.meta",
        1,
        "",
        "error\tUnicodeDecodeError\t'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        {},
    ),
    (
        "dot k4.g -l nonutf8.landmarks",
        1,
        "",
        "error\tUnicodeDecodeError\t'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        {},
    ),
    (
        "reduce k4.g -o h.meta",
        2,
        "",
        "usage error: two outputs name the same file: h.meta\n",
        {},
    ),
    (
        "reduce k4.g -o h2.g --meta h2.g",
        2,
        "",
        "usage error: two outputs name the same file: h2.g\n",
        {},
    ),
    (
        "reduce k4.g -o h2.g -l h2.g",
        2,
        "",
        "usage error: two outputs name the same file: h2.g\n",
        {},
    ),
    (
        "gen-gadget C 4 -o c.g -l c.g",
        2,
        "",
        "usage error: two outputs name the same file: c.g\n",
        {},
    ),
]
