"""In-process spans around the public functions at tribell's module boundaries.

Nothing under ``src/`` is edited: each wrapper replaces a function's name
in its defining module and in every ``tribell`` module that imported it by
name, and the originals are put back on exit.  Spans are aggregated in
memory per function: calls, inclusive time and the part of it covered by
child spans, so that self time = inclusive - child.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a span named "<layer>.<function>",
# the layer being the module's name inside the package
TRACED = (
    ("tribell.qcore", "pure_behavior_probabilities"),
    ("tribell.qcore", "behavior_from_settings"),
    ("tribell.inequality", "t2_statistic"),
    ("tribell.inequality", "t2_triple_and_pair_sums"),
    ("tribell.inequality", "svetlichny_coefficients"),
    ("tribell.detector", "observed_probabilities"),
    ("tribell.polytope", "enumerate_svetlichny_vertices"),
    ("tribell.polytope", "enumerate_t2_vertices"),
    ("tribell.polytope", "classical_max"),
)
SEARCHES = {"minimize_svetlichny_cutoff": "svetlichny", "minimize_t2_cutoff": "t2"}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass
class Search:
    """One MDE search: what it was asked and what its optimizer calls cost."""

    kind: str
    restarts: int
    total_s: float = 0.0
    minimize_s: float = 0.0      # inside scipy's minimize, objective included
    objective_calls: int = 0
    values: tuple = ()
    best: float | None = None


@dataclass
class Tracer:
    spans: dict = field(default_factory=lambda: defaultdict(Span))
    searches: list = field(default_factory=list)
    sweep_points: int = 0          # grid points with a crossing, i.e. bisected
    sweep_bisection_steps: int = 0
    vertices: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _search: Search | None = None

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()
                record = self.spans[name]
                record.calls += 1
                record.total_s += elapsed
                record.child_s += child
                if self._stack:
                    self._stack[-1] += elapsed

        return wrapper

    def _search_wrapper(self, kind: str, fn):
        inner = self.span(f"search.{kind}", fn)

        def wrapper(cfg, *args, **kwargs):
            search = self._search = Search(kind, cfg.restarts)
            start = time.perf_counter()
            try:
                result = inner(cfg, *args, **kwargs)
            finally:
                search.total_s = time.perf_counter() - start
                self._search = None
            search.values = tuple(result.restart_values)
            search.best = result.best_eta
            self.searches.append(search)
            return result

        return wrapper

    def _minimize_wrapper(self, fn):
        inner = self.span("search.scipy_minimize", fn)

        def wrapper(objective, *args, **kwargs):
            search = self._search
            if search is None:
                return inner(objective, *args, **kwargs)

            def counted(x, *extra):
                search.objective_calls += 1
                return objective(x, *extra)

            start = time.perf_counter()
            try:
                return inner(counted, *args, **kwargs)
            finally:
                search.minimize_s += time.perf_counter() - start

        return wrapper

    def _sweep_wrapper(self, fn):
        inner = self.span("search.sweep_t2_noise", fn)

        def wrapper(*args, **kwargs):
            before = self.spans["detector.observed_probabilities"].calls
            rows = inner(*args, **kwargs)
            self.sweep_bisection_steps += self.spans["detector.observed_probabilities"].calls - before
            self.sweep_points += sum(1 for row in rows if row.eta_min is not None)
            return rows

        return wrapper

    def _vertex_wrapper(self, name: str, fn):
        inner = self.span(name, fn)

        def wrapper(*args, **kwargs):
            vertices = inner(*args, **kwargs)
            self.vertices += len(vertices)
            return vertices

        return wrapper

    def _replace(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "tribell" or name.startswith("tribell.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        import tribell.cli  # noqa: F401  (loads every module that is patched)

        search = sys.modules["tribell.search"]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.')[1]}.{attr}"
            if attr.startswith("enumerate_"):
                self._replace(original, self._vertex_wrapper(name, original))
            else:
                self._replace(original, self.span(name, original))
        for attr, kind in SEARCHES.items():
            original = getattr(search, attr)
            self._replace(original, self._search_wrapper(kind, original))
        self._replace(search.sweep_t2_noise, self._sweep_wrapper(search.sweep_t2_noise))
        self._replace(search.minimize, self._minimize_wrapper(search.minimize))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
