from __future__ import annotations

import pytest

from burnkit.cli import export_dot, main
from burnkit.gadgets import make_T
from burnkit.generators import complete_graph, path_graph
from burnkit.graph import read_graph, write_graph
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


def test_witness_meta_with_small_m_is_a_domain_error(tmp_path, capsys):
    meta_file = tmp_path / "h.meta"
    meta_file.write_text(_META.replace("m\t4", "m\t3"), encoding="utf-8")
    assert main(["witness", str(meta_file)]) == 1
    assert capsys.readouterr().err.startswith("error\tInvalidParamsError\t")


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


def test_stats(capsys, k4_file):
    report = parse_report(run(capsys, "stats", k4_file))
    assert report["vertices"] == "4"
    assert report["regular"] == "3"
    assert report["connected"] == "true"


def test_dot_export_deterministic():
    t = make_T(2, 6)
    a = export_dot(t.graph, t.landmarks)
    b = export_dot(t.graph, t.landmarks)
    assert a == b
    assert '"p"' in a and "tip_pq" in a


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
