"""Correctness checks on the outputs of each benchmarked operation.

Checks test properties that hold for any seed.  A solver's value must also
equal the one recorded for that instance in expected.json (or a closed form):
a valid witness that is not minimum fails.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations


def parse_report(text: str) -> dict[str, str]:
    """``key<TAB>value`` report lines; a repeated key keeps its last value."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            report[key] = value
    return report


def _expect(problems: list[str], report: dict, key: str, want):
    got = report.get(key)
    if got != str(want):
        problems.append(f"{key} is {got!r}, expected {want!r}")


def check_reduce(report: dict, vertices: int, h_sha256: str, expected_sha256: str) -> list[str]:
    """The reported size, and an H file byte-identical to the library's H."""
    problems: list[str] = []
    _expect(problems, report, "vertices", vertices)
    _expect(problems, report, "edges", 3 * vertices // 2)
    if h_sha256 != expected_sha256:
        problems.append(f"H file sha256 {h_sha256[:16]} != {expected_sha256[:16]} of build_H")
    return problems


def check_witness(report: dict, cn: int, gprime_edges: list[tuple[str, str]], recorded_k: int) -> list[str]:
    """Length k' + cn' + 3, the reported cover covers every edge of G', and k'
    is the recorded minimum."""
    problems: list[str] = []
    cover = set(filter(None, report.get("cover", "").split(",")))
    try:
        k_prime = int(report["k_prime"])
        length = int(report["length"])
    except (KeyError, ValueError):
        return [f"witness report lacks k_prime/length: {report}"]
    if k_prime != recorded_k:
        problems.append(f"k' is {k_prime}, recorded minimum {recorded_k}")
    if length != k_prime + cn + 3:
        problems.append(f"witness length {length} != k' + cn' + 3 = {k_prime + cn + 3}")
    if len(cover) != k_prime:
        problems.append(f"cover has {len(cover)} vertices, k' is {k_prime}")
    uncovered = [e for e in gprime_edges if e[0] not in cover and e[1] not in cover]
    if uncovered or not gprime_edges:
        problems.append(f"cover misses G' edges {uncovered[:3]}")
    return problems


def check_burn(report: dict, length: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, report, "length", length)
    _expect(problems, report, "valid", "true")
    _expect(problems, report, "complete", "true")
    _expect(problems, report, "complete_at", length)
    return problems


def check_audit(report: dict, length: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, report, "k", length)
    _expect(problems, report, "valid", "true")
    _expect(problems, report, "complete", "true")
    _expect(problems, report, "unrepresented", 0)
    return problems


def check_stats(report: dict, vertices: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, report, "vertices", vertices)
    _expect(problems, report, "regular", 3)
    _expect(problems, report, "connected", "true")
    return problems


def _check_value(problems: list[str], value: int, expected: int | None):
    if expected is None:
        problems.append("no recorded value for this instance")
    elif value != expected:
        problems.append(f"value {value} != recorded {expected}")


def check_cover(g, cover, value: int, expected: int | None) -> list[str]:
    """A vertex cover of ``g`` whose size is the reported value, which is ``expected``."""
    problems: list[str] = []
    if len(cover) != value:
        problems.append(f"cover size {len(cover)} != value {value}")
    uncovered = [(u, v) for u, v in g.edges() if u not in cover and v not in cover]
    if uncovered:
        problems.append(f"{len(uncovered)} edges uncovered, e.g. {uncovered[0]}")
    _check_value(problems, value, expected)
    return problems


def check_burning(bk, g, sequence, value: int, expected: int | None) -> list[str]:
    """A burning sequence of ``g`` whose length is the reported value, which is ``expected``."""
    problems: list[str] = []
    if len(sequence) != value:
        problems.append(f"witness length {len(sequence)} != value {value}")
    if not bk.is_burning_sequence(g, sequence):
        problems.append("witness is not a burning sequence")
    _check_value(problems, value, expected)
    return problems


def check_sequence(bk, target, sequence, max_length: int) -> list[str]:
    """A lifted or projected sequence: burns ``target`` within ``max_length`` steps."""
    problems: list[str] = []
    if len(sequence) > max_length:
        problems.append(f"length {len(sequence)} exceeds {max_length}")
    if not bk.is_burning_sequence(target, sequence):
        problems.append("sequence does not burn its target graph")
    return problems
