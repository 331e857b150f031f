"""Per-layer attribution from outside the program.

The traced run wraps the program's public functions from here, records
one span per wrapped call (name, start, end, parent, operation id) in
memory, and turns the spans into per-layer counts and self times once
the run ends.  No program source is changed: every wrapper is
installed by rebinding a module or class attribute, at every place a
caller looks the name up, and :meth:`Tracer.uninstall` puts each
original object back.

A layer's self time is its span's duration minus the union of the
intervals its child spans cover.  Procpool coordinates from lane
threads; a span opened on a thread other than the operation's own has
the operation thread's innermost open span as its parent, and child
intervals are merged as a union, so overlapping lanes are not counted
twice.
"""

from __future__ import annotations

import functools
import os
import pathlib
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

# The layers, named after the repo's modules.  ``target`` is
# "module:attribute" or "module:Class.method"; the original object is
# looked up there and replaced wherever a loaded ``repro`` module holds
# it.  ``kind`` is "span" (timed, nested) or "count" (call count only:
# store reads happen thousands of times per operation, and a span each
# would bury the layers above them in overhead).
PLAN = "core.taskgraph.plan"
CONNECT = "core.taskgraph.connect"
SAVE = "persistence.save"


@dataclass(frozen=True)
class Layer:
    name: str
    target: str
    kind: str = "span"
    #: extra counter bumped once per recorded call
    counter: str | None = None


LAYERS = (
    Layer(CONNECT, "repro.core.taskgraph:TaskGraph.connect"),
    Layer(PLAN, "repro.core.taskgraph:TaskGraph.validate"),
    Layer(PLAN, "repro.core.taskgraph:TaskGraph.topological_order"),
    Layer(PLAN, "repro.core.taskgraph:TaskGraph.invocations"),
    Layer("scenarios.generator.materialize",
          "repro.scenarios.generator:materialize_scenario"),
    Layer("execution.executor.execute",
          "repro.execution.executor:FlowExecutor.execute"),
    Layer("execution.procpool.execute",
          "repro.execution.procpool:ProcessFlowExecutor.execute"),
    Layer("execution.cache.fetch",
          "repro.execution.cache:DerivationCache.fetch"),
    Layer("execution.cache.store",
          "repro.execution.cache:DerivationCache.store"),
    Layer("execution.encapsulation.signature",
          "repro.execution.encapsulation:EncapsulationRegistry.signature"),
    Layer("execution.encapsulation.run",
          "repro.execution.encapsulation:ToolEncapsulation.run"),
    Layer("execution.shared_memo.poll",
          "repro.execution.shared_memo:SharedDerivationMemo.poll"),
    Layer("execution.shared_memo.append",
          "repro.execution.shared_memo:SharedDerivationMemo.append"),
    Layer("history.consistency.validate",
          "repro.history.consistency:all_up_to_date"),
    Layer("history.consistency.successor_versions",
          "repro.history.consistency:successor_versions"),
    Layer("history.consistency.stale_inputs",
          "repro.history.consistency:stale_inputs"),
    Layer("history.trace.backward", "repro.history.trace:backward_trace"),
    Layer("history.trace.forward", "repro.history.trace:forward_trace"),
    Layer("history.store.get",
          "repro.history.store:InMemoryHistoryStore.get", "count"),
    Layer("history.store.get",
          "repro.history.sqlite_store:SqliteHistoryStore.get", "count"),
    Layer("history.database.record",
          "repro.history.database:HistoryDatabase.record"),
    Layer("history.database.data",
          "repro.history.database:HistoryDatabase.data", "count"),
    Layer("history.datastore.put", "repro.history.datastore:DataStore.put"),
    Layer(SAVE, "repro.persistence:save_environment"),
    Layer("persistence.load", "repro.persistence:load_environment"),
    Layer("obs.ledger.record_run", "repro.obs.ledger:RunLedger.record_run"),
    Layer("obs.tracing.span", "repro.obs.tracing:Tracer.start_span"),
    Layer("obs.tracing.span", "repro.obs.tracing:Tracer.finish",
          counter="obs.tracing.spans"),
)

#: Plan calls made while connecting belong to ``connect``: every
#: ``TaskGraph.connect`` runs a full ``topological_order`` as its cycle
#: check, and that cost is the connect layer's, not planning's.
SUPPRESS_UNDER = {PLAN: CONNECT}


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, original) for a layer target."""
    module_name, _, path = target.partition(":")
    owner: Any = sys.modules[module_name]
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute, owner.__dict__[attribute]


class QueryCounter:
    """The SQLite store's ``set_query_recorder`` hook: counts and times
    every statement issued while an operation is open."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def record(self, statement: str, seconds: float,
               rows: int = 0) -> None:
        if self.tracer.recording():
            self.tracer.add("history.sqlite_store.statements", 1)
            self.tracer.add("history.sqlite_store.statement_s", seconds)


class Tracer:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        #: [name, start, end, parent span or None, operation id]
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op_id: int | None = None
        self.op_spans: list[list[Any]] = []
        self._forked = False
        self._thread = threading.get_ident()
        self._local = threading.local()
        self._main_stack: list[list[Any]] = []
        self._count_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.queries = QueryCounter(self)

    # -- recording ---------------------------------------------------------
    def recording(self) -> bool:
        return self.op_id is not None and not self._forked

    def add(self, name: str, amount: float) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _stack(self) -> list[list[Any]]:
        if threading.get_ident() == self._thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list[Any] | None:
        """Open a span; ``None`` when nothing should be recorded."""
        if not self.recording():
            return None
        stack = self._stack()
        suppressor = SUPPRESS_UNDER.get(name)
        if suppressor is not None and any(
                span[0] == suppressor for span in stack):
            return None
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = [name, time.perf_counter(), 0.0, parent, self.op_id]
        stack.append(span)
        return span

    def end(self, span: list[Any]) -> None:
        span[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def operation(self, op_id: int) -> "_Operation":
        """Context manager: the root span of one benchmark operation."""
        return _Operation(self, op_id)

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable,
                      counter: str | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                tracer.add(counter, 1)
            tracer.observe(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.recording():
                tracer.add(calls, 1)
            return fn(*args, **kwargs)

        return wrapper

    def observe(self, name: str, args: tuple, result: Any) -> None:
        """Counters read off a finished call's arguments or result."""
        if name == "execution.cache.fetch" and result is not None:
            self.add("execution.cache.hits", 1)
        elif name == "execution.procpool.execute":
            self.add("execution.procpool.queue_wait_s",
                     result.queue_wait_time)
        elif name == "obs.ledger.record_run" and result is not None \
                and result.workers:
            self.add("execution.procpool.busy_ratio_sum",
                     result.worker_utilization)
            self.add("execution.procpool.ledger_records", 1)

    def _memo_append_wrapper(self, fn: Callable) -> Callable:
        """Span wrapper that also counts the bytes the append adds."""
        traced = self._span_wrapper("execution.shared_memo.append", fn)
        tracer = self

        @functools.wraps(fn)
        def append(memo: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.recording():
                return fn(memo, *args, **kwargs)
            before = _size(memo.path)
            result = traced(memo, *args, **kwargs)
            tracer.add("execution.shared_memo.bytes_appended",
                       _size(memo.path) - before)
            return result

        return append

    def _write_text_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def write_text(path: pathlib.Path, data: str,
                       *args: Any, **kwargs: Any) -> int:
            written = fn(path, data, *args, **kwargs)
            if tracer.recording() and any(
                    span[0] == SAVE for span in tracer._stack()):
                tracer.add("persistence.bytes_written", written)
            return written

        return write_text

    def _store_init_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def __init__(store: Any, *args: Any, **kwargs: Any) -> None:
            fn(store, *args, **kwargs)
            store.set_query_recorder(tracer.queries)

        return __init__

    def _patch_everywhere(self, original: Any, replacement: Any,
                          owner: Any, attribute: str) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
        # callers that imported the function by name hold their own
        # reference (``repro.execution.cache.all_up_to_date``,
        # ``repro.cli.save_environment``, ...): rebind those too
        for module_name, module in list(sys.modules.items()):
            if module is None or module is owner \
                    or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, replacement)

    def install(self) -> None:
        """Wrap every layer; call :meth:`uninstall` to restore them."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        # forked procpool workers inherit the wrappers; what they would
        # record never reaches this process, so they pass straight through
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _mark_forked(ref))
        from repro.history import sqlite_store
        for layer in LAYERS:
            owner, attribute, original = _resolve(layer.target)
            if layer.kind == "count":
                replacement = self._count_wrapper(layer.name, original)
            elif layer.name == "execution.shared_memo.append":
                replacement = self._memo_append_wrapper(original)
            else:
                replacement = self._span_wrapper(layer.name, original,
                                                 layer.counter)
            self._patch_everywhere(original, replacement, owner,
                                   attribute)
        self._patch_everywhere(
            pathlib.Path.write_text,
            self._write_text_wrapper(pathlib.Path.write_text),
            pathlib.Path, "write_text")
        store_cls = sqlite_store.SqliteHistoryStore
        self._patch_everywhere(
            store_cls.__dict__["__init__"],
            self._store_init_wrapper(store_cls.__dict__["__init__"]),
            store_cls, "__init__")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- results -----------------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self seconds and span counts over every operation."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                children.setdefault(id(parent), []).append(
                    (span[1], span[2]))
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            if span[0] is None:
                continue
            covered = _union_length(children.get(id(span), ()),
                                    span[1], span[2])
            self_s[span[0]] = (self_s.get(span[0], 0.0)
                               + (span[2] - span[1]) - covered)
            calls[span[0]] = calls.get(span[0], 0) + 1
        return self_s, calls

    def unattributed_ratio(self) -> float:
        """Share of operation wall time no wrapped layer covers."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] is not None and span[3][0] is None:
                children.setdefault(id(span[3]), []).append(
                    (span[1], span[2]))
        wall = sum(op[2] - op[1] for op in self.op_spans)
        if wall <= 0.0:
            return 0.0
        covered = sum(_union_length(children.get(id(op), ()),
                                    op[1], op[2])
                      for op in self.op_spans)
        return (wall - covered) / wall


class _Operation:
    def __init__(self, tracer: Tracer, op_id: int) -> None:
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.op_id = self.op_id
        # the root span carries no layer name; its children are the
        # outermost layer calls of the operation
        self.span = [None, time.perf_counter(), 0.0, None, self.op_id]
        tracer._main_stack.append(self.span)

    def __exit__(self, *exc_info: Any) -> None:
        tracer = self.tracer
        self.span[2] = time.perf_counter()
        if tracer._main_stack and tracer._main_stack[-1] is self.span:
            tracer._main_stack.pop()
        # spans a failed call left open are closed with the operation
        tracer._main_stack.clear()
        tracer.spans.append(self.span)
        tracer.op_spans.append(self.span)
        tracer.op_id = None


def _mark_forked(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer._forked = True


def _size(path: pathlib.Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _union_length(intervals: Any, low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total
