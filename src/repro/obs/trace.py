"""Hierarchical span tracing for the query lifecycle.

The paper reports only end-to-end runtimes; this module makes the
pipeline's internal anatomy observable.  A :class:`Tracer` records
*spans* — named, timed intervals arranged in a tree — covering the full
query lifecycle: parse → GHD search → attribute ordering → codegen →
plan-cache lookup → per-bag execution → (optionally) per-intersection.
Spans on the main lane nest by context-manager discipline; an interval
timed elsewhere can be recorded onto its own lane (:meth:`Tracer.record`).

The recorded spans export to Chrome ``trace_event`` JSON
(:mod:`repro.obs.export`), loadable in ``chrome://tracing`` or Perfetto.

Tracing is off by default and must cost nothing when off: the engine's
hot paths hold a ``tracer`` that is ``None`` and go through
:func:`maybe_span`, which returns one shared no-op context manager
without allocating.
"""

import time

#: Lane name for spans recorded on the main (driver) thread of control.
MAIN_LANE = "main"

#: Span categories used by the engine's instrumentation points.
CAT_QUERY = "query"
CAT_COMPILE = "compile"
CAT_EXECUTE = "execute"
CAT_CACHE = "cache"
CAT_INTERSECT = "intersect"


class SpanRecord:
    """One finished span: a named interval on a lane, at a tree depth."""

    __slots__ = ("name", "cat", "start", "end", "lane", "depth", "args")

    def __init__(self, name, cat, start, end, lane=MAIN_LANE, depth=0,
                 args=None):
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.lane = lane
        self.depth = depth
        self.args = args if args is not None else {}

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self, t0=0.0):
        """JSON-safe form with timestamps re-based on ``t0`` (the
        tracer epoch) — what the flight recorder rings and dumps."""
        return {
            "name": self.name, "cat": self.cat,
            "start": self.start - t0, "end": self.end - t0,
            "lane": self.lane, "depth": self.depth,
        }

    def __repr__(self):
        return "SpanRecord(%s/%s, %.6fs, lane=%s, depth=%d)" % (
            self.cat, self.name, self.seconds, self.lane, self.depth)


class _NullSpan:
    """Shared no-op context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


#: The one null span every disabled call site shares — no allocation.
NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one main-lane span on its tracer."""

    __slots__ = ("tracer", "name", "cat", "args", "start", "depth")

    def __init__(self, tracer, name, cat, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        tracer = self.tracer
        self.depth = len(tracer._stack)
        tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(SpanRecord(self.name, self.cat, self.start,
                                       end, MAIN_LANE, self.depth,
                                       self.args))
        return False


class Tracer:
    """Collects the span tree of one or more query executions.

    Parameters
    ----------
    capture_intersections:
        Record one span per set intersection.  Off by default: the
        per-intersection volume dwarfs every other level.  Bag and
        compile-phase spans are always captured.
    """

    def __init__(self, capture_intersections=False):
        self.enabled = True
        self.capture_intersections = capture_intersections
        self.t0 = time.perf_counter()
        self.spans = []
        self._stack = []

    # -- recording ----------------------------------------------------------

    @staticmethod
    def now():
        """Timestamp on the tracer's clock (``time.perf_counter``)."""
        return time.perf_counter()

    def span(self, name, cat=CAT_QUERY, **args):
        """Context manager recording a nested span on the main lane."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, args)

    def record(self, name, cat, start, end, lane=MAIN_LANE, args=None):
        """Record an already-timed interval.

        Main-lane records adopt the current nesting depth; other lanes
        are flat sequences of non-overlapping intervals.
        """
        if not self.enabled:
            return
        depth = len(self._stack) if lane == MAIN_LANE else 0
        self.spans.append(SpanRecord(name, cat, start, end, lane, depth,
                                     args))

    # -- inspection ---------------------------------------------------------

    def lanes(self):
        """Lane names, main lane first, others in sorted order."""
        seen = {span.lane for span in self.spans}
        ordered = [MAIN_LANE] if MAIN_LANE in seen else []
        ordered.extend(sorted(seen - {MAIN_LANE}))
        return ordered

    def find(self, name=None, cat=None):
        """Spans matching a name and/or category."""
        return [span for span in self.spans
                if (name is None or span.name == name)
                and (cat is None or span.cat == cat)]

    def phase_seconds(self, max_depth=1):
        """Seconds per pipeline phase, aggregated by span name.

        Covers main-lane spans from depth 1 (direct children of the
        root ``query`` span: parse, rule, plan-cache lookup, per-bag
        execution) down to ``max_depth``; the telemetry query log
        stores this as the record's ``phases`` field.
        """
        phases = {}
        for span in self.spans:
            if span.lane != MAIN_LANE or not 0 < span.depth <= max_depth:
                continue
            phases[span.name] = phases.get(span.name, 0.0) + span.seconds
        return phases

    def reset(self):
        """Drop every recorded span and restart the clock."""
        self.spans = []
        self._stack = []
        self.t0 = time.perf_counter()

    def __len__(self):
        return len(self.spans)


def maybe_span(tracer, name, cat=CAT_QUERY, **args):
    """Span on ``tracer``, or the shared no-op when tracing is off.

    The engine's instrumentation points call this with the config's
    ``tracer`` attribute, which is ``None`` unless the user enabled
    tracing — the disabled path is one ``is None`` check plus a shared
    object, so instrumented code costs nothing in normal runs.
    """
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return _Span(tracer, name, cat, args)
