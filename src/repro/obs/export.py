"""Chrome ``trace_event`` export and schema validation.

Converts a :class:`repro.obs.trace.Tracer`'s span records into the JSON
Array Format understood by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): one ``"X"`` (complete) event per span with
microsecond timestamps relative to the tracer's epoch, one thread per
lane (``tid`` 0 is the main lane, any other lane gets its own row),
and ``"M"`` (metadata) events naming the process and threads.

:func:`validate_chrome_trace` checks a payload against the parts of the
trace-event schema the viewers actually enforce — required keys, known
phase letters, non-negative monotonic timestamps, non-negative
durations — plus per-lane span nesting (no partially-overlapping
spans).  CI runs it over a traced smoke query via::

    python -m repro.obs.export trace.json
"""

import json
import sys

from .trace import MAIN_LANE

#: Phase letters of the Chrome trace-event format we may emit or accept.
ALLOWED_PHASES = frozenset("BEXIiMsftPNODbne")

#: Keys every emitted event carries.
REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")

PROCESS_NAME = "repro-engine"


def lane_tids(lanes):
    """Stable lane → integer thread-id mapping; main lane is tid 0."""
    ordered = [MAIN_LANE] + sorted(set(lanes) - {MAIN_LANE})
    return {lane: tid for tid, lane in enumerate(ordered)}


def events_from_spans(spans, t0=0.0, pid=1):
    """Chrome trace events (metadata + ``"X"`` spans) from span records.

    Shared by :func:`to_chrome` and the telemetry layer's slow-query
    trace archiving; ``spans`` is any iterable of
    :class:`~repro.obs.trace.SpanRecord`.
    """
    spans = sorted(spans, key=lambda span: span.start)
    tids = lane_tids(span.lane for span in spans)
    if not tids:
        tids = {MAIN_LANE: 0}
    events = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
        "args": {"name": PROCESS_NAME},
    }]
    for lane, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": tid, "args": {"name": lane},
        })
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": max(0.0, (span.start - t0) * 1e6),
            "dur": max(0.0, (span.end - span.start) * 1e6),
            "pid": pid,
            "tid": tids[span.lane],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    return events


def to_chrome(tracer, pid=1):
    """Render a tracer's spans as a Chrome trace-event payload (dict)."""
    return {
        "traceEvents": events_from_spans(tracer.spans, tracer.t0,
                                         pid=pid),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(tracer, path, pid=1):
    """Serialize :func:`to_chrome` output to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(to_chrome(tracer, pid=pid), handle, indent=1)
    return path


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _events_of(payload):
    if isinstance(payload, list):
        return payload
    if isinstance(payload, dict):
        return payload.get("traceEvents")
    return None


def span_nesting_problems(events):
    """Check per-lane span trees are well formed.

    Within one ``(pid, tid)`` lane, any two ``"X"`` spans must either be
    disjoint or strictly nested — a pair that partially overlaps means
    an orphaned or mis-closed span.  Quadratic per lane, fine at trace
    scale.
    """
    problems = []
    by_lane = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = (event.get("pid"), event.get("tid"))
        by_lane.setdefault(key, []).append(event)
    for key, spans in sorted(by_lane.items()):
        intervals = [(e["ts"], e["ts"] + e.get("dur", 0), e["name"])
                     for e in spans]
        intervals.sort()
        for i, (s1, e1, n1) in enumerate(intervals):
            for s2, e2, n2 in intervals[i + 1:]:
                if s2 >= e1:
                    break
                if e2 > e1:
                    problems.append(
                        "lane %s: spans %r [%f, %f] and %r [%f, %f] "
                        "partially overlap" % (key, n1, s1, e1, n2, s2, e2))
    return problems


def validate_chrome_trace(payload):
    """Return a list of schema problems (empty = valid).

    ``payload`` is a parsed trace: either the JSON Object Format
    (``{"traceEvents": [...]}``) or the bare JSON Array Format.
    """
    events = _events_of(payload)
    if not isinstance(events, list):
        return ["payload has no traceEvents array"]
    if not events:
        return ["traceEvents is empty"]
    problems = []
    last_ts = None
    for position, event in enumerate(events):
        where = "event %d" % position
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        for key in REQUIRED_KEYS:
            if key not in event:
                problems.append("%s: missing required key %r" % (where, key))
        phase = event.get("ph")
        if not (isinstance(phase, str) and len(phase) == 1
                and phase in ALLOWED_PHASES):
            problems.append("%s: bad phase letter %r" % (where, phase))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append("%s: bad timestamp %r" % (where, ts))
        elif phase != "M":
            if last_ts is not None and ts < last_ts:
                problems.append(
                    "%s: timestamp %f goes backwards (previous %f)"
                    % (where, ts, last_ts))
            last_ts = ts
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append("%s: bad duration %r" % (where, duration))
    problems.extend(span_nesting_problems(
        [e for e in events if isinstance(e, dict)]))
    return problems


def main(argv=None):
    """Validate a trace file: ``python -m repro.obs.export trace.json``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        payload = json.load(handle)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print("INVALID: %s" % problem, file=sys.stderr)
        return 1
    events = _events_of(payload)
    names = {e["name"] for e in events if e.get("ph") == "X"}
    lanes = {e.get("tid") for e in events if e.get("ph") == "X"}
    print("valid Chrome trace: %d events, %d spans, %d lane(s), "
          "span names: %s"
          % (len(events), sum(1 for e in events if e.get("ph") == "X"),
             len(lanes), ", ".join(sorted(names))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
