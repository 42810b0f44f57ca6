from __future__ import annotations

import burnkit

# The package's public names; a change to this list is a change to its API.
_PUBLIC = [
    "AuditReport",
    "BurningSchedule",
    "BurningSequence",
    "DistanceMap",
    "GadgetHandle",
    "Graph",
    "InvalidSequenceError",
    "LiftedGraph",
    "MalformedSequenceError",
    "ReductionInstance",
    "ReductionParams",
    "SolveResult",
    "audit_sequence",
    "bfs_distances",
    "build_H",
    "build_Hd",
    "burning_number_exact",
    "burning_number_naive",
    "choose_params",
    "degree_histogram",
    "double_subdivide",
    "expected_vertex_count",
    "frontier_burn_times",
    "is_burning_sequence",
    "is_connected",
    "is_regular",
    "last_step_set",
    "lift_sequence",
    "make_BT",
    "make_BTP",
    "make_C",
    "make_C_witness",
    "make_P",
    "make_T",
    "make_Tail",
    "make_Y",
    "path_cycle_burning_number",
    "path_cycle_witness",
    "project_sequence",
    "project_vertex",
    "read_graph",
    "read_sequence",
    "simulate",
    "uniquely_burned_set",
    "vc_to_witness",
    "vertex_cover_exact",
    "witness_to_vc",
    "write_graph",
    "write_sequence",
]


def test_public_names_are_pinned():
    assert burnkit.__all__ == _PUBLIC
    assert all(hasattr(burnkit, name) for name in _PUBLIC)
