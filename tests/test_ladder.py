from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_ladder_runs_the_chain_on_k4(tmp_path):
    """The ladder script runs every step of the CLI chain on K4's H as a
    child process and records each one's wall time and maximum RSS."""
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(LADDER), "--n", "4", "--workdir", str(work)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    record = json.loads(done.stdout)
    assert (record["graph"], record["h_vertices"], record["h4_vertices"]) == (
        "random_cubic(4, 1)",
        80_294,
        160_588,
    )
    names = [step["step"] for step in record["steps"]]
    assert names == [
        "reduce", "witness", "burn", "audit", "stats", "lift", "lift_sequence", "project",
        "lift_sequence_5", "project_5_4",
    ]
    for step in record["steps"]:
        assert step["wall_s"] > 0 and step["max_rss_mb"] > 0
    # the lift adds one source, and on K4's H projecting back to H drops it;
    # the lift to H_5 projects onto H_4 as the lift to H_4
    lengths = [len((work / name).read_text(encoding="utf-8").split()) for name in ("w.seq", "w4.seq", "p.seq")]
    assert lengths == [39, 40, 39]
    assert (work / "p4.seq").read_text(encoding="utf-8") == (work / "w4.seq").read_text(encoding="utf-8")
