"""Span tracer: per-job trace trees, exportable as Chrome trace events.

A :class:`Tracer` records :class:`Span` trees — named, timestamped
intervals with string-keyed args and explicit parent links — and
exports them in the Chrome trace-event JSON format, loadable directly
in ``chrome://tracing`` / Perfetto: each span becomes one complete
(``"ph": "X"``) event with microsecond ``ts``/``dur`` relative to the
tracer's epoch, real thread ids mapped to small stable ints, and
``args`` carrying the span's tags plus its ``id``/``parent`` so the
tree survives the flat encoding.

Design constraints, driven by the serving pipeline:

* **Cross-thread parenting** — a job's root span is opened on the event
  loop, its execute span on a worker thread, its node spans wherever
  the executor runs.  Parents are therefore *explicit* (``span.child``)
  rather than inferred from a thread-local stack; the tracer's lock
  only guards span registration, never timing.
* **No global state** — a tracer is an object you thread through the
  stack (``ServiceConfig.tracer``, ``execute(span=...)``).  Untraced
  serving code holds the falsy no-op :data:`NULL_SPAN`, not ``None``;
  the executor keeps ``span=None`` on its per-node hot path.
* **Crash-tolerant export** — spans left open (a worker died mid-node)
  are closed at export time with the current clock, flagged
  ``"unfinished": true``, so a trace of a failed run still loads.

``python -m repro.obs.trace <file.json>`` validates an exported file
against the trace-event schema (the CI trace smoke step).
"""

from __future__ import annotations

import json
import sys
import threading
import time


class Span:
    """One timed interval in a trace tree (create via ``Tracer.span``)."""

    __slots__ = ("tracer", "span_id", "name", "cat", "args", "parent",
                 "children", "tid", "t0", "t1")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 cat: str, args: dict, parent: "Span | None",
                 tid: int, t0: float) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.cat = cat
        self.args = args
        self.parent = parent
        self.children: list[Span] = []
        self.tid = tid
        self.t0 = t0
        self.t1: float | None = None

    def child(self, name: str, cat: str = "", **args) -> "Span":
        """Open a child span (explicit parent: safe across threads)."""
        return self.tracer._start(name, cat, self, args)

    def annotate(self, **args) -> None:
        """Merge tags into the span's args (last write wins)."""
        self.args.update(args)

    def end(self) -> None:
        """Close the span (idempotent: the first end sticks)."""
        if self.t1 is None:
            self.t1 = self.tracer._clock()

    @property
    def duration_s(self) -> float | None:
        return None if self.t1 is None else self.t1 - self.t0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.t1 is None else f"{self.duration_s:.6f}s"
        return f"<Span {self.span_id} {self.name!r} {state}>"


class _NullSpan:
    """The span of an untraced run: falsy, and every method a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def child(self, *args, **kwargs) -> "_NullSpan":
        return self

    __enter__ = child

    def annotate(self, **args) -> None:
        pass

    end = annotate

    def __exit__(self, *exc_info) -> None:
        pass  # returns None: exceptions propagate


#: Stand-in for :class:`Span` when tracing is off (see the module doc).
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; thread-safe; injectable clock for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._epoch = clock()
        self._next_id = 1
        self._tids: dict[int, int] = {}
        self._tid_names: dict[int, str] = {}
        self.spans: list[Span] = []   #: every span, creation order
        self.roots: list[Span] = []   #: spans with no parent

    def span(self, name: str, cat: str = "", parent: Span | None = None,
             **args) -> Span:
        """Open a span (use as a context manager or ``end()`` it)."""
        return self._start(name, cat, parent, args)

    def _start(self, name: str, cat: str, parent: Span | None,
               args: dict) -> Span:
        t0 = self._clock()
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids) + 1
                self._tid_names[tid] = threading.current_thread().name
            span = Span(self, self._next_id, name, cat, dict(args),
                        parent, tid, t0)
            self._next_id += 1
            self.spans.append(span)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
        return span

    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        now = self._clock()
        with self._lock:
            spans = list(self.spans)
            tid_names = dict(self._tid_names)
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "ts": 0, "args": {"name": "fhe-server"},
        }]
        for tid, name in sorted(tid_names.items()):
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "ts": 0, "args": {"name": name}})
        for span in spans:
            end = span.t1 if span.t1 is not None else now
            args = dict(span.args)
            args["id"] = span.span_id
            if span.parent is not None:
                args["parent"] = span.parent.span_id
            if span.t1 is None:
                args["unfinished"] = True
            events.append({
                "name": span.name,
                "cat": span.cat or "default",
                "ph": "X",
                "ts": round((span.t0 - self._epoch) * 1e6, 3),
                "dur": round(max(0.0, end - span.t0) * 1e6, 3),
                "pid": 1,
                "tid": span.tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> int:
        """Dump the Chrome trace JSON to ``path``; returns event count."""
        trace = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=1, default=str)
            fh.write("\n")
        return len(trace["traceEvents"])


def validate_chrome_trace(trace) -> list[str]:
    """Schema check of a trace-event object; returns problem strings.

    Validates the subset this tracer emits (and ``chrome://tracing``
    requires): a ``traceEvents`` list of dicts, metadata (``M``) events
    naming processes/threads, complete (``X``) events with non-negative
    numeric ``ts``/``dur``, integer ``pid``/``tid``, dict ``args``.
    An empty return value means the trace is valid.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return ["top level must be an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"{where}: ph {phase!r} not in ('X', 'M')")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an int")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
        if phase == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata event "
                                f"{event.get('name')!r}")
            continue
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value < 0:
                problems.append(f"{where}: {field} must be a "
                                "non-negative number")
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: cat must be a string")
    # Parent links must resolve to span ids present in the trace.
    span_ids = {event["args"]["id"] for event in events
                if isinstance(event, dict) and event.get("ph") == "X"
                and isinstance(event.get("args"), dict)
                and "id" in event["args"]}
    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args")
        if isinstance(args, dict) and "parent" in args \
                and args["parent"] not in span_ids:
            problems.append(f"traceEvents[{index}]: parent "
                            f"{args['parent']!r} is not a span id")
    return problems


def main(argv: list[str]) -> int:
    """CLI validator: ``python -m repro.obs.trace <trace.json>``."""
    if len(argv) != 1:
        print("usage: python -m repro.obs.trace <trace.json>",
              file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        trace = json.load(fh)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    roots = [e for e in spans if "parent" not in e.get("args", {})]
    print(f"{argv[0]}: valid trace — {len(events)} events, "
          f"{len(spans)} spans, {len(roots)} roots")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main(sys.argv[1:]))
