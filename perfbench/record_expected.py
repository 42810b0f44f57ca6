"""Record the solver values that the exact-solve and reduce-pipeline gates check.

    python3 perfbench/record_expected.py      # rewrites perfbench/expected.json

Run it once, at a commit whose solvers are trusted, from the root of a source
checkout.  The values are graph invariants: the minimum vertex cover and the
burning number of every instance in the exact-solve pool, and the minimum
vertex cover k' of G' for K4 and the prism.  Relabelling a graph leaves them
unchanged, so one table serves every ``--seed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import burnkit  # noqa: E402
import burnkit.generators as gen  # noqa: E402
from workloads import BT_GADGETS, EXPECTED_PATH, SOLVER_POOLS  # noqa: E402


def main() -> int:
    expected: dict[str, dict[str, int]] = {"vertex_cover": {}, "burning_number": {}, "k_prime": {}}
    solve = {"vertex_cover": burnkit.vertex_cover_exact, "burning_number": burnkit.burning_number_exact}
    for solver, (sizes, pool) in SOLVER_POOLS.items():
        for n in sizes:
            start = perf_counter()
            for s in range(1, pool + 1):
                expected[solver][f"cubic({n},{s})"] = solve[solver](gen.random_cubic(n, s)).value
            print(f"{solver} n={n}: {pool} instances in {perf_counter() - start:.1f} s", flush=True)
    for h in BT_GADGETS:
        expected["burning_number"][f"BT({h})"] = burnkit.burning_number_exact(burnkit.make_BT(h).graph).value
    for name, g in (("k4", gen.complete_graph(4)), ("prism", gen.prism_graph())):
        expected["k_prime"][name] = burnkit.vertex_cover_exact(burnkit.build_H(g).g_prime).value
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
