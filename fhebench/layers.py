"""Traced mode: wrap each layer's public functions, attribute self time.

Nothing under ``src/`` is edited.  For the length of a traced phase the
benchmark rebinds every ``repro`` module attribute and class attribute
that holds one of the listed layer functions to a wrapper that opens a
span on a :class:`LayerTracer`; :meth:`Instrumentation.restore` puts the
originals back.  Callers that imported a function by name (the
evaluator's ``key_switch``, the linear transform's key-switch helpers,
the NTT/RNS/key-switch modules' modmath primitives) hold module
attributes too, so rebinding every attribute that *is* the original
reaches the bindings callers actually use.

The tracer is also the serving scheduler's ``ServiceConfig.tracer``, so
its existing ``queue_wait``/``admit``/``decode_inputs``/
``execute_attempt`` spans and the executor's per-node ``op`` spans join
the same trees.  Wrapper spans take the innermost span still open on
their own thread as parent, which puts worker-thread work under its
job's ``execute_attempt`` (or under the batch-level coalescing and CSE
spans, for work shared by a batch).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter

from repro.obs.trace import Span, Tracer

from fhebench import benchstats, catalog

UNATTRIBUTED = "unattributed"

#: (module, class, method, layer) wrapped for the length of a traced run.
LAYER_METHODS = (
    ("repro.ckks.bootstrap", "Bootstrapper", "bootstrap",
     "bootstrap.bootstrap"),
    ("repro.ckks.bootstrap", "Bootstrapper", "mod_raise",
     "bootstrap.mod_raise"),
    ("repro.ckks.bootstrap", "Bootstrapper", "sub_sum", "bootstrap.sub_sum"),
    ("repro.ckks.bootstrap", "Bootstrapper", "coeff_to_slot",
     "bootstrap.coeff_to_slot"),
    ("repro.ckks.bootstrap", "Bootstrapper", "eval_mod",
     "bootstrap.eval_mod"),
    ("repro.ckks.bootstrap", "Bootstrapper", "slot_to_coeff",
     "bootstrap.slot_to_coeff"),
    *(("repro.ckks.evaluator", "Evaluator", op, f"evaluator.{op}")
      for op in ("multiply", "rescale", "rotate", "galois_hoisted",
                 "conjugate", "multiply_plain", "multiply_scalar",
                 "add_scalar")),
    ("repro.ckks.encoder", "Encoder", "encode", "encoder.encode"),
    ("repro.ckks.encoder", "Encoder", "encode_scalar",
     "encoder.encode_scalar"),
    ("repro.ckks.ntt", "NttContext", "forward", "ntt.forward"),
    ("repro.ckks.ntt", "NttContext", "inverse", "ntt.inverse"),
    ("repro.ckks.ntt", "BatchedNttContext", "forward", "ntt.forward"),
    ("repro.ckks.ntt", "BatchedNttContext", "inverse", "ntt.inverse"),
    ("repro.runtime.planner", "PlanCache", "get", "planner.plan"),
)

#: (module, function, layer) rebound at every binding for a traced run.
LAYER_FUNCTIONS = (
    ("repro.ckks.keyswitch", "raise_decomposition", "keyswitch.raise"),
    ("repro.ckks.keyswitch", "key_switch_accumulate",
     "keyswitch.evk_product"),
    ("repro.ckks.keyswitch", "mod_down", "keyswitch.moddown"),
    ("repro.ckks.keyswitch", "mod_down_pair", "keyswitch.moddown"),
    ("repro.ckks.keyswitch", "mod_down_many", "keyswitch.moddown"),
    ("repro.ckks.rns", "base_convert", "rns.bconv"),
    ("repro.runtime.planner", "plan_program", "planner.plan"),
    ("repro.runtime.executor", "execute_subgraph", "executor.execute"),
    ("repro.service.wire", "serialize_ciphertext", "wire.encode"),
    ("repro.service.wire", "deserialize_ciphertext", "wire.decode"),
)

#: Scheduler spans whose self time is a named scheduler metric.
_SCHEDULER_LABELS = {
    "queue_wait": "scheduler.queue_wait",
    "admit": "scheduler.admit",
    "supervise": "scheduler.worker_wait",
}


class LayerTracer(Tracer):
    """A :class:`Tracer` that also knows the open spans of each thread.

    Spans on one thread open and close in stack order, so the innermost
    span still open on the calling thread is the right parent for a
    wrapper span.  Ended spans are popped lazily.
    """

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _start(self, name: str, cat: str, parent: Span | None,
               args: dict) -> Span:
        span = super()._start(name, cat, parent, args)
        self._stack().append(span)
        return span

    def current(self) -> Span | None:
        """Innermost span opened on this thread and not yet ended."""
        stack = self._stack()
        while stack and stack[-1].t1 is not None:
            stack.pop()
        if len(stack) > 64:  # async spans of one job end out of order
            stack[:] = [span for span in stack if span.t1 is None]
        return stack[-1] if stack else None

    def layer(self, name: str) -> Span:
        return self._start(name, "layer", self.current(), {})


def _import(module: str):
    __import__(module)
    return sys.modules[module]


class Instrumentation:
    """Wrappers installed over the layer functions until :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list = []

    def method(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def function(self, original, replacement) -> None:
        """Point every ``repro`` module attribute holding ``original``
        at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _span_wrapper(tracer: LayerTracer, label: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.layer(label)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end()
    return wrapper


def _execute_wrapper(tracer: LayerTracer, execute):
    """``execute`` under an ``executor.execute`` span.

    When the caller traces (the scheduler passes its ``execute_attempt``
    span), the executor's per-node ``op`` spans are re-parented under
    the wrapper span so the two never overlap as siblings.
    """
    @functools.wraps(execute)
    def wrapper(*args, span=None, **kwargs):
        mine = tracer.layer("executor.execute")
        try:
            return execute(*args, span=mine if span is not None else None,
                           **kwargs)
        finally:
            mine.end()
    return wrapper


def instrument(tracer: LayerTracer) -> Instrumentation:
    """Wrap every listed layer function; spans go to ``tracer``."""
    inst = Instrumentation()
    try:
        for module, cls_name, method, label in LAYER_METHODS:
            cls = getattr(_import(module), cls_name)
            inst.method(cls, method, _span_wrapper(
                tracer, label, cls.__dict__[method]))
        for module, name, label in LAYER_FUNCTIONS:
            original = getattr(_import(module), name)
            inst.function(original, _span_wrapper(tracer, label, original))
        executor = _import("repro.runtime.executor")
        inst.function(executor.execute,
                      _execute_wrapper(tracer, executor.execute))
    except BaseException:
        inst.restore()
        raise
    return inst


# ----- attribution -----------------------------------------------------------

def _label(span: Span) -> str:
    if span.cat == "layer":
        return span.name
    if span.cat == "op":
        return "executor.execute"
    if span.cat == "job":
        return "scheduler.batch_wait"
    return _SCHEDULER_LABELS.get(span.name, UNATTRIBUTED)


def records(tracer: Tracer) -> list[benchstats.SpanRecord]:
    """The tracer's spans, flattened and labelled for attribution.

    A span still open (a failed node) is closed at the current time.
    """
    now = time.perf_counter()
    return [benchstats.SpanRecord(
        span.span_id, None if span.parent is None else span.parent.span_id,
        span.t0, span.t1 if span.t1 is not None else now, _label(span))
        for span in list(tracer.spans)]


def breakdown(tracer: Tracer, units: int) -> dict[str, float]:
    """Self time and call counts per layer, per job (or bootstrap).

    Returns every ``<stem>_ms`` / ``<stem>.calls`` metric plus
    ``trace.wall_ms``, ``trace.unattributed_ms`` and
    ``trace.unattributed_share``; the self times and the unattributed
    remainder add up to the wall.
    """
    spans = records(tracer)
    per_label, wall = benchstats.attribute(spans)
    calls = Counter(span.label for span in spans)
    out = {}
    named = 0.0
    for stem in catalog.SELF_TIME_STEMS:
        seconds = per_label.get(stem, 0.0)
        named += seconds
        out[f"{stem}_ms"] = seconds * 1e3 / units
    for stem in catalog.CALL_STEMS:
        out[f"{stem}.calls"] = calls.get(stem, 0) / units
    out["trace.wall_ms"] = wall * 1e3 / units
    out["trace.unattributed_ms"] = (wall - named) * 1e3 / units
    out["trace.unattributed_share"] = (wall - named) / wall if wall else 0.0
    return out


def call_totals(tracer: Tracer) -> dict[str, int]:
    """Raw call count of every wrapped layer (for the stability check)."""
    return dict(Counter(span.name for span in tracer.spans
                        if span.cat == "layer"))


def span_tallies(tracer: Tracer) -> dict[str, int]:
    """Kernel tallies recorded on op spans and batch-level sharing spans."""
    totals: Counter = Counter()
    for span in tracer.spans:
        if span.cat == "op" or span.name in ("coalesce_group", "cse_group"):
            for field in catalog.KERNEL_FIELDS:
                totals[field] += span.args.get(field, 0)
    return {field: totals[field] for field in catalog.KERNEL_FIELDS}


# ----- modmath crossings ---------------------------------------------------------

def _modmath_primitives() -> dict[str, object]:
    modmath = _import("repro.ckks.modmath")
    return {name: fn for name, fn in vars(modmath).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == modmath.__name__}


def modmath_calls(evaluator, ct) -> dict[str, int]:
    """Public modmath calls made by one HMult and by one HRot of ``ct``.

    Every primitive is counted at every binding (the NTT, RNS and
    key-switch modules import them by name).  The counts stand in for
    native crossings and do not depend on the inputs' values.
    """
    counts: Counter = Counter()
    inst = Instrumentation()

    def counting(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    other = ct.clone()  # a distinct operand: the generic HMult path
    amount = min(evaluator.rotation_keys)
    # Steady state only: the first op at a level fills key-slice caches.
    evaluator.multiply(ct, other)
    evaluator.rotate(ct, amount)
    try:
        for fn in _modmath_primitives().values():
            inst.function(fn, counting(fn))
        evaluator.multiply(ct, other)
        hmult = sum(counts.values())
        evaluator.rotate(ct, amount)
        hrot = sum(counts.values()) - hmult
    finally:
        inst.restore()
    return {"modmath.calls_per_hmult": hmult,
            "modmath.calls_per_hrot": hrot}
