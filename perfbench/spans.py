"""Span recorder for the traced benchmark run.

Spans are taken from outside the program only: :func:`install` wraps the
public entry points of each layer (class methods and module functions) for
the duration of a traced pass, and the returned ``uninstall`` puts the
originals back.  An untraced pass never calls :func:`install`, so it runs
the program exactly as shipped.

Spans live in memory (one list per recorder) and are written out once, by
the caller, at the end of the pass.  A layer's *self time* is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: span name -> layer whose self time it adds to.  The ``service.*``
#: sums only count toward the share of wall time the spans cover; their
#: metrics are per-request medians.
LAYER_OF_SPAN = {
    "parse_program": "lang.parse_s",
    "static_info": "logic.static_context_s",
    "context_map": "logic.static_context_s",
    "constraint_system": "analysis.derive_s",
    "solve": "lp.solve_s",
    "analyze": "analysis.resolve_s",
    "best_upper_tail": "tail.bounds_s",
    "evaluate_spec": "policy.evaluate_s",
    "service.handle": "service.handle",
    "http": "service.transport",
}

_PIPELINE_METHODS = ("static_info", "context_map", "constraint_system", "solve", "analyze")
_SERVICE_METHODS = ("analyze_request", "check_request")
_FUNCTIONS = (
    ("repro.lang.parser", "parse_program"),
    ("repro.tail.bounds", "best_upper_tail"),
    ("repro.policy.evaluate", "evaluate_spec"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    item: "str | None"


class Recorder:
    """In-memory span store.  Each thread keeps its own stack of open
    spans.  A span opened on an empty stack while the client has a round
    trip open (a server thread handling that request) takes the round trip
    as its parent: there is one client and it sends one request at a
    time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: "str | None" = None
        self.client_span: "int | None" = None
        #: Every ``StageSolution`` the traced ``solve`` returned, once each.
        self.solutions: list = []
        self._seen: set[int] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next
            self._next += 1
        parent = stack[-1] if stack else self.client_span
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.item))

    def note_solution(self, solution) -> None:
        with self._lock:
            if id(solution) not in self._seen:
                self._seen.add(id(solution))
                self.solutions.append(solution)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in sorted(self.spans, key=lambda s: s.start)]


def _wrap(recorder: Recorder, name: str, fn, on_result=None):
    def traced(*args, **kwargs):
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return traced


def install(recorder: Recorder):
    """Wrap every traced entry point; returns the function that undoes it."""
    from repro.analysis.pipeline import AnalysisPipeline
    from repro.service.server import AnalysisService

    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for method in _PIPELINE_METHODS:
        on_result = recorder.note_solution if method == "solve" else None
        patch(AnalysisPipeline, method,
              _wrap(recorder, method, getattr(AnalysisPipeline, method),
                    on_result))
    for method in _SERVICE_METHODS:
        original = getattr(AnalysisService, method)
        patch(AnalysisService, method, _wrap(recorder, "service.handle", original))
    # Module functions are bound by name wherever they were imported, so
    # every loaded ``repro`` module holding the original gets the wrapper.
    for module_name, attr in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(recorder, attr, original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                module, attr, None
            ) is original:
                patch(module, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per layer (seconds, summed over the spans)."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYER_OF_SPAN.values()}
    for span in spans:
        layer = LAYER_OF_SPAN.get(span.name)
        if layer is not None:
            out[layer] += own[span.id]
    return out
