from __future__ import annotations

import gc

import pytest

from burnkit.generators import complete_bipartite, complete_graph, prism_graph
from burnkit.reduction import build_H


@pytest.fixture(autouse=True)
def _collector_state_is_kept():
    """Fail a test that leaves the cyclic collector switched otherwise than
    it found it (no build may switch it), and switch it back for the next
    test."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"test left gc.isenabled() {not enabled}, found {enabled}")


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k33():
    return complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def prism():
    return prism_graph()


@pytest.fixture(scope="session")
def k4_instance(k4):
    """The full K4 reduction; built once, ~80k vertices."""
    return build_H(k4)
