"""In-memory call spans around burnkit's public functions.

The tracer replaces every public function of the burnkit modules, in every
namespace that holds it (the defining module, each module that imports it,
and the package), by a wrapper that records a span: name, key, start, end
and parent.  The name says which namespace the call went through, such as
``burnkit.cli.build_H``; the key says which layer defines the function, such
as ``reduction.build_H``, and is what the per-layer table aggregates.

Wrappers record only while ``active`` is set, which the benchmark sets around
each timed operation, so correctness checks between operations leave no
spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("graph", "burning", "solvers", "gadgets", "reduction", "lift", "generators", "cli")

# The benchmark's own span around ``burnkit.cli.main`` carries the subcommand
# in its key (``cli.reduce``), so ``main`` itself is not wrapped.
_NOT_WRAPPED = {"cli.main"}


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    key: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _io_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _count_read_graph(counters, args, kwargs, result):
    _add(counters, "graph.io_bytes", _io_bytes(args[0] if args else kwargs["text"]))


def _count_write_graph(counters, args, kwargs, result):
    _add(counters, "graph.io_bytes", _io_bytes(result))


def _count_simulate(counters, args, kwargs, result):
    # simulate runs one full BFS per source: k * |V| vertex visits
    g = args[0] if args else kwargs["g"]
    _add(counters, "burning.simulate.bfs_visits", result.k * g.vertex_count)


def _solver_counter(prefix: str):
    def count(counters, args, kwargs, result):
        _add(counters, f"{prefix}.nodes", result.stats.nodes)
    return count


_COUNTERS = {
    "graph.read_graph": _count_read_graph,
    "graph.write_graph": _count_write_graph,
    "burning.simulate": _count_simulate,
    "solvers.vertex_cover_exact": _solver_counter("solvers.vertex_cover_exact"),
    "solvers.burning_number_exact": _solver_counter("solvers.burning_number_exact"),
}


def _add(counters: dict, key: str, value: int):
    counters[key] = counters.get(key, 0) + value


class Tracer:
    """Records spans and deterministic counters for calls into burnkit."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._budget_error = importlib.import_module(f"{package.__name__}.solvers").BudgetExceededError

    # -- recording -------------------------------------------------------

    def _open(self, name: str, key: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, key, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def recording(self, name: str, key: str):
        """A root span during which the wrappers record."""
        self.active = True
        span = self._open(name, key)
        try:
            yield span
        finally:
            self._close(span)
            self.active = False

    def recorded(self, name: str, key: str, fn):
        """``fn`` run inside :meth:`recording`."""
        def run(*args):
            with self.recording(name, key):
                return fn(*args)
        return run

    def _wrap(self, fn, name: str, key: str):
        count = _COUNTERS.get(key)
        budget_error = self._budget_error if key.startswith("solvers.") else ()

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name, key)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                _add(self.counters, "solvers.budget_stops", 1)
                raise
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every public burnkit function in every namespace that holds it."""
        pkg = self.package.__name__
        modules = [importlib.import_module(f"{pkg}.{layer}") for layer in LAYERS]
        graph_cls = modules[0].Graph
        for ns in [self.package] + modules:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if not (inspect.isfunction(obj) or obj is graph_cls):
                    continue
                module = getattr(obj, "__module__", "")
                if not module.startswith(pkg + "."):
                    continue
                key = f"{module.rsplit('.', 1)[1]}.{obj.__qualname__}"
                if key in _NOT_WRAPPED:
                    continue
                self._patch(ns, attr, self._wrap(obj, f"{ns.__name__}.{attr}", key))
        indexed = graph_cls.indexed
        self._patch(graph_cls, "indexed", self._wrap(indexed, f"{pkg}.graph.Graph.indexed", "graph.indexed"))

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per key: ``calls``, ``self_s``, and ``s`` (time inside outermost calls only,
    so a key nested in itself is not counted twice)."""
    by_sid = {s.sid: s for s in spans}
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.key, {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        parent = s.parent
        while parent >= 0 and by_sid[parent].key != s.key:
            parent = by_sid[parent].parent
        if parent < 0:
            row["s"] += s.duration
    return table
