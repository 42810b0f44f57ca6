"""Time the CLI chain on one rung of the input ladder, one child process per step.

    python tools/ladder.py [--n 10] [--workdir DIR] > ladder.json

G is ``random_cubic(n, 1)``: the default is the rung whose H has 740,164
vertices, ``--n 14`` gives the 998,210-vertex one and ``--n 4`` gives K4.
The script writes G as an edge list, then runs ``reduce``, ``witness``,
``burn``, ``audit``, ``stats``, ``lift --d 4``, ``project --d 4 --dprime
3`` and ``project --d 5 --dprime 4`` through ``python -m burnkit.cli``.  No
command writes a sequence on H_d, so the one each ``project`` reads is made
by a library step before it (``lift_sequence`` of ``build_Hd(H, d)`` and the
witness), also a child process.  For each step it records the wall time and
the maximum resident set size that ``os.wait4`` reports, and it prints the
record as JSON.  A step that exits non-zero stops the run with exit status 1.

Linux counts the parent's memory into a child's maximum when the child
starts, so this script does no graph work of its own beyond writing G: the
smallest steps read about its own size.  Children import burnkit from this
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: read H and the witness, write the witness lifted to H_d
_LIFT_SEQUENCE = """
import sys
from pathlib import Path
from burnkit.burning import read_sequence, write_sequence
from burnkit.graph import read_graph
from burnkit.lift import build_Hd, lift_sequence
h_path, seq_path, d, out_path = sys.argv[1:]
lifted = build_Hd(read_graph(Path(h_path).read_text(encoding="utf-8")), int(d))
seq = read_sequence(Path(seq_path).read_text(encoding="utf-8"))
Path(out_path).write_text(write_sequence(lift_sequence(lifted, seq)), encoding="utf-8")
"""


_CLI = ["-m", "burnkit.cli"]

# (name, arguments after the interpreter) of each step, in order; paths are
# relative to the work directory, and stdout goes to <name>.out there
_STEPS = [
    ("reduce", _CLI + ["reduce", "g.g", "-o", "h.g"]),
    ("witness", _CLI + ["witness", "h.meta", "-o", "w.seq"]),
    ("burn", _CLI + ["burn", "h.g", "w.seq"]),
    ("audit", _CLI + ["audit", "g.g", "w.seq"]),
    ("stats", _CLI + ["stats", "h.g"]),
    ("lift", _CLI + ["lift", "h.g", "--d", "4", "-o", "h4.g"]),
    ("lift_sequence", ["-c", _LIFT_SEQUENCE, "h.g", "w.seq", "4", "w4.seq"]),
    ("project", _CLI + ["project", "h.g", "w4.seq", "--d", "4", "--dprime", "3", "-o", "p.seq"]),
    ("lift_sequence_5", ["-c", _LIFT_SEQUENCE, "h.g", "w.seq", "5", "w5.seq"]),
    ("project_5_4", _CLI + ["project", "h.g", "w5.seq", "--d", "5", "--dprime", "4", "-o", "p4.seq"]),
]


def _run_step(name: str, args: list[str], workdir: Path, env: dict) -> dict:
    """Run one step with stdout and stderr in files of ``workdir``; its wall
    time and its own maximum RSS, from ``os.wait4``."""
    with open(workdir / f"{name}.out", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        message = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        sys.exit(f"step {name} exited {proc.returncode}: {message.strip()}")
    # ru_maxrss is in KiB on Linux
    return {"step": name, "wall_s": round(wall, 3), "max_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def _report_value(path: Path, key: str) -> str:
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, value = line.partition("\t")
        if name == key:
            return value
    raise KeyError(key)


def ladder(n: int, workdir: Path) -> dict:
    """The record of one run of every step on ``random_cubic(n, 1)``."""
    sys.path.insert(0, str(SRC))
    from burnkit.generators import random_cubic
    from burnkit.graph import write_graph

    (workdir / "g.g").write_text(write_graph(random_cubic(n, 1)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    steps = [_run_step(name, args, workdir, env) for name, args in _STEPS]
    return {
        "graph": f"random_cubic({n}, 1)",
        "h_vertices": int(_report_value(workdir / "stats.out", "vertices")),
        "h4_vertices": int(_report_value(workdir / "lift.out", "vertices")),
        "python": platform.python_version(),
        "steps": steps,
        "total_wall_s": round(sum(step["wall_s"] for step in steps), 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10, help="vertices of the cubic G (default 10)")
    parser.add_argument("--workdir", help="directory for the chain's files (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        record = ladder(args.n, Path(args.workdir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            record = ladder(args.n, Path(tmp))
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
