"""Span tracer: tree integrity, Chrome export, schema validation."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.trace import NULL_SPAN, Tracer, main, validate_chrome_trace


class FakeClock:
    """Deterministic monotonic clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestSpans:
    def test_nesting_builds_the_tree(self):
        tracer = Tracer()
        root = tracer.span("job", cat="job", tenant="alice")
        child = root.child("admit", cat="sched")
        grandchild = child.child("plan")
        grandchild.end()
        child.end()
        root.end()
        assert tracer.roots == [root]
        assert root.children == [child]
        assert child.children == [grandchild]
        assert grandchild.parent is child
        assert child.parent is root

    def test_durations_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("work")
        clock.now += 2.5
        span.end()
        assert span.duration_s == 2.5
        # idempotent end: the first end sticks
        clock.now += 10.0
        span.end()
        assert span.duration_s == 2.5

    def test_open_span_has_no_duration(self):
        span = Tracer().span("open")
        assert span.duration_s is None

    def test_context_manager_tags_errors(self):
        tracer = Tracer()
        try:
            with tracer.span("boom") as span:
                raise RuntimeError("nope")
        except RuntimeError:
            pass
        assert span.t1 is not None
        assert span.args["error"] == "RuntimeError"

    def test_annotate_merges_args(self):
        span = Tracer().span("s", level=3)
        span.annotate(rotation=4, level=2)
        assert span.args == {"level": 2, "rotation": 4}

    def test_cross_thread_children_keep_explicit_parent(self):
        """A child opened on a pool thread parents correctly and gets
        its own tid in the export."""
        tracer = Tracer()
        root = tracer.span("job")
        holder = {}

        def worker() -> None:
            child = root.child("execute")
            child.end()
            holder["child"] = child

        thread = threading.Thread(target=worker, name="pool-thread")
        thread.start()
        thread.join()
        root.end()
        child = holder["child"]
        assert child.parent is root
        assert child.tid != root.tid
        trace = tracer.chrome_trace()
        thread_names = {e["args"]["name"]
                        for e in trace["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "pool-thread" in thread_names


class TestNullSpan:
    """The untraced stand-in: falsy, inert, and never hides an error."""

    def test_falsy_while_real_spans_are_truthy(self):
        assert not NULL_SPAN
        assert Tracer().span("real")

    def test_child_returns_itself_and_methods_are_no_ops(self):
        assert NULL_SPAN.child("admit", cat="sched", k=1) is NULL_SPAN
        assert NULL_SPAN.child("x").child("y") is NULL_SPAN
        NULL_SPAN.annotate(error="ignored")
        NULL_SPAN.end()
        with NULL_SPAN as span:
            assert span is NULL_SPAN

    def test_with_block_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError, match="nope"):
            with NULL_SPAN.child("boom"):
                raise RuntimeError("nope")


class TestChromeExport:
    def test_event_shape_and_parent_links(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        root = tracer.span("job", cat="job")
        clock.now += 0.001
        child = root.child("step", cat="sched", level=3)
        clock.now += 0.002
        child.end()
        root.end()
        trace = tracer.chrome_trace()
        assert validate_chrome_trace(trace) == []
        spans = {e["args"]["id"]: e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        root_ev = spans[root.span_id]
        child_ev = spans[child.span_id]
        assert "parent" not in root_ev["args"]
        assert child_ev["args"]["parent"] == root.span_id
        assert child_ev["args"]["level"] == 3
        assert child_ev["ts"] == 1000.0   # µs after the epoch
        assert child_ev["dur"] == 2000.0
        assert root_ev["dur"] == 3000.0

    def test_unfinished_spans_closed_at_export(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.span("crashed")
        clock.now += 1.0
        trace = tracer.chrome_trace()
        [event] = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["unfinished"] is True
        assert event["dur"] == 1e6
        assert span.t1 is None  # export does not mutate the span

    def test_write_and_cli_roundtrip(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.span("only").end()
        path = tmp_path / "trace.json"
        count = tracer.write(path)
        on_disk = json.loads(path.read_text())
        assert len(on_disk["traceEvents"]) == count
        assert main([str(path)]) == 0
        assert "valid trace" in capsys.readouterr().out

    def test_cli_rejects_invalid_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_cli_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestValidator:
    def test_rejects_structural_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [42]}) != []

    def test_rejects_bad_events(self):
        def problems(event):
            return validate_chrome_trace({"traceEvents": [event]})

        assert problems({"ph": "B", "name": "n"})      # wrong phase
        assert problems({"ph": "X", "name": "", "pid": 1, "tid": 1,
                         "ts": 0, "dur": 0, "cat": "c"})  # empty name
        assert problems({"ph": "X", "name": "n", "pid": "x", "tid": 1,
                         "ts": 0, "dur": 0, "cat": "c"})  # pid type
        assert problems({"ph": "X", "name": "n", "pid": 1, "tid": 1,
                         "ts": -1, "dur": 0, "cat": "c"})  # negative ts
        assert problems({"ph": "X", "name": "n", "pid": 1, "tid": 1,
                         "ts": 0, "dur": 0})              # missing cat
        assert problems({"ph": "M", "name": "weird", "pid": 1,
                         "tid": 1})                        # bad metadata
        assert problems({"ph": "X", "name": "n", "pid": 1, "tid": 1,
                         "ts": 0, "dur": 0, "cat": "c",
                         "args": "nope"})                  # args type

    def test_rejects_dangling_parent_link(self):
        trace = {"traceEvents": [
            {"ph": "X", "name": "n", "pid": 1, "tid": 1, "ts": 0,
             "dur": 1, "cat": "c", "args": {"id": 1, "parent": 99}},
        ]}
        [problem] = validate_chrome_trace(trace)
        assert "parent" in problem
