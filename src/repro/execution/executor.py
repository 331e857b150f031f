"""Flow execution: turning bound task graphs into design history.

Section 3.3: *"Dynamically defined flows easily allow for automatic task
sequencing (flow automation) because tool and data dependencies are
specified in the task schema."*  The executor drains a task graph's
invocations in dependency order, runs one tool call per coalesced
:class:`~repro.core.taskgraph.TaskInvocation` (Fig. 5's multi-output
subtasks), fans out over multi-instance selections (section 4.1), and
records every created object in the history database with its derivation
record — which is the entire persistence story of the paper.

Sub-flows run by passing ``targets``: only the invocations in the targets'
supplier subtrees execute (*"a subflow may be run at any stage as long as
its dependencies are satisfied independently of the remainder of the
flow"*).

Every executor shares one execution kernel (:class:`_ExecutionKernel`):
one run envelope around ``execute()``, one ready set of invocations that
lanes claim from, and one prepare -> call -> record path per invocation.
The executors differ only in how many lanes drain which ready set and
where a call runs — inline on the caller's thread here, on simulated
machines in the parallel and scheduled executors, in worker processes in
the process pool.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph, TaskInvocation
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..history.instance import DerivationRecord
from ..obs import (CACHE_HIT, CACHE_MISS, CACHE_SPAN, COMPOSE_SPAN,
                   COMPOSE_TOOL, COMPOSITION_RUN, EXECUTION_FAILED,
                   FLOW_FINISHED, FLOW_STARTED, NO_OP_BUS, NO_OP_TRACER,
                   NODE_READY, RUN_SPAN, SEQUENTIAL_EXECUTOR, TASK_SPAN,
                   TOOL_FINISHED, TOOL_INVOKED, TOOL_QUARANTINED,
                   TOOL_RETRIED, TOOL_SPAN, TOOL_TIMED_OUT, WORKER_STATS,
                   EventBus, RunLedger, Tracer)
from .cache import (CACHE_OFF, CACHE_READWRITE, CACHE_REUSE,
                    DerivationCache, normalize_policy)
from .encapsulation import (EncapsulationRegistry, ToolContext,
                            ToolEncapsulation, fingerprint_callable)
from .faults import FaultPlan
from .resilience import (UPSTREAM, CallStats,
                         InvocationFailure, ResiliencePolicy,
                         annotate_error, failure_entry)


@dataclass
class InvocationResult:
    """Report entry for one executed task invocation."""

    invocation_id: str
    tool_type: str | None
    tool_instances: tuple[str, ...]
    encapsulation: str
    runs: int
    created: tuple[str, ...]
    outputs_by_node: dict[str, tuple[str, ...]]
    duration: float
    machine: str = "local"
    #: Time the invocation sat ready (dependencies satisfied) before a
    #: machine picked it up — nonzero only under scheduled/process-pool
    #: execution, and always separate from ``duration``.
    queue_wait: float = 0.0
    #: Transient failures cured by the resilience policy before this
    #: invocation succeeded (``timeouts`` counts how many of those
    #: attempts were watchdog abandonments).
    retries: int = 0
    timeouts: int = 0


@dataclass
class CachedInvocation:
    """Report entry for a task invocation coalesced from the cache.

    ``hits`` counts the remembered tool runs reused (one per input
    combination); ``saved`` estimates the tool time those runs cost when
    first executed, and ``bytes_saved`` the canonical size of the design
    data that did not have to be recreated.
    """

    tool_type: str | None
    outputs: tuple[str, ...]
    hits: int
    instances: tuple[str, ...]
    outputs_by_node: dict[str, tuple[str, ...]]
    saved: float
    bytes_saved: int
    machine: str = "local"


@dataclass
class ExecutionReport:
    """Everything that happened during one ``execute()`` call.

    ``wall_time`` is the elapsed clock time of the whole ``execute()``
    call; ``serial_time`` sums the individual invocation durations.  For
    a sequential run the two are close; for parallel lanes the gap is
    the realized speedup.
    """

    flow_name: str
    results: list[InvocationResult] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    cached: list[CachedInvocation] = field(default_factory=list)
    wall_time: float = 0.0
    #: Invocations that failed for good under graceful degradation —
    #: empty unless a :class:`ResiliencePolicy` with ``degrade=True``
    #: turned a fatal error into a partial report.
    failures: list[InvocationFailure] = field(default_factory=list)
    #: Tool types the circuit breaker had quarantined by run end.
    quarantined: list[str] = field(default_factory=list)

    @property
    def created(self) -> tuple[str, ...]:
        return tuple(itertools.chain.from_iterable(
            r.created for r in self.results))

    @property
    def runs(self) -> int:
        return sum(r.runs for r in self.results)

    @property
    def cache_hits(self) -> int:
        """Tool runs coalesced from the derivation cache."""
        return sum(c.hits for c in self.cached)

    @property
    def reused(self) -> tuple[str, ...]:
        """Instance ids served from the cache instead of re-derived."""
        return tuple(itertools.chain.from_iterable(
            c.instances for c in self.cached))

    @property
    def time_saved(self) -> float:
        """Estimated tool time the cache hits avoided."""
        return sum(c.saved for c in self.cached)

    @property
    def bytes_saved(self) -> int:
        """Canonical data bytes the cache hits avoided recreating."""
        return sum(c.bytes_saved for c in self.cached)

    @property
    def serial_time(self) -> float:
        """Total tool/composition time, as if run on one machine."""
        return sum(r.duration for r in self.results)

    @property
    def queue_wait_time(self) -> float:
        """Total time invocations spent ready but waiting for a machine.

        Reported separately from execute time: ``serial_time`` counts
        only the work itself, so scheduling pressure is visible instead
        of being conflated into tool durations.
        """
        return sum(r.queue_wait for r in self.results)

    @property
    def speedup(self) -> float:
        """Realized serial-time / wall-time ratio (1.0 when unknown)."""
        return self.serial_time / self.wall_time if self.wall_time else 1.0

    @property
    def retries(self) -> int:
        """Transient failures retried away across all invocations."""
        return (sum(r.retries for r in self.results)
                + sum(f.retries for f in self.failures))

    @property
    def timeouts(self) -> int:
        """Watchdog abandonments across all invocations."""
        return (sum(r.timeouts for r in self.results)
                + sum(f.timeouts for f in self.failures))

    @property
    def failed(self) -> bool:
        """True when a degraded run left invocations unexecuted."""
        return bool(self.failures)

    def created_of_node(self, node_id: str) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for cached in self.cached:
            if node_id in cached.outputs_by_node:
                out += cached.outputs_by_node[node_id]
        for result in self.results:
            if node_id in result.outputs_by_node:
                out += result.outputs_by_node[node_id]
        return out

    def merge(self, other: "ExecutionReport") -> None:
        """Fold another report (e.g. of a concurrent run) into this one.

        Concurrent runs overlap in time, so wall-clock aggregates by
        ``max`` — summing would silently report serial time and erase
        the speedup concurrency delivers.  (Serial time needs no
        special handling: it derives from the merged results.)
        """
        self.results.extend(other.results)
        self.skipped.extend(other.skipped)
        self.cached.extend(other.cached)
        self.failures.extend(other.failures)
        self.quarantined = sorted(
            set(self.quarantined) | set(other.quarantined))
        self.wall_time = max(self.wall_time, other.wall_time)


@dataclass
class _Run:
    """One ``execute()`` call's shared state, seen by every lane."""

    graph: TaskGraph
    targets: Sequence[str] | None
    needed: set[str]
    force: bool
    report: ExecutionReport
    started: float = field(default_factory=time.perf_counter)
    #: The run span's context; lane threads adopt it explicitly.
    context: Any = None
    #: What the executor planned: branches, or the invocation graph.
    plan: Any = None
    #: Node ids whose producing invocation failed under degradation.
    failed: set[str] = field(default_factory=set)
    #: Executor-specific totals for the run span and ``flow_finished``.
    summary: dict[str, Any] = field(default_factory=dict)
    #: Per-worker counters for the ledger (process pool only).
    workers: dict[str, Any] | None = None


@dataclass
class _Call:
    """One cold tool or composition call of an invocation."""

    #: The resolved encapsulation and its context; None for a
    #: composition, whose callable lives on the task.
    enc: ToolEncapsulation | None
    ctx: ToolContext | None
    #: One input combination: role -> instance id (or list of ids for
    #: batch encapsulations).
    combo: dict[str, Any]
    #: Fingerprint of the code the call runs; its derivation record
    #: keeps it, so the cache can key the run from the history alone.
    code: str
    key: str | None
    inputs: dict[str, Any]
    value: Any = None
    #: Tool time of the call, retries included.
    elapsed: float = 0.0
    stats: CallStats = field(default_factory=lambda: CallStats(attempts=0))
    error: BaseException | None = None

    @property
    def tool_id(self) -> str | None:
        return self.ctx.tool_instance_id if self.ctx is not None else None


@dataclass
class _Task:
    """One invocation between the prepare and record steps."""

    invocation: TaskInvocation
    machine: str
    #: Tool type as events and the policy see it (COMPOSE_TOOL for
    #: compositions).
    tool_type: str
    output_nodes: list[Any]
    role_ids: dict[str, tuple[str, ...]]
    queue_wait: float = 0.0
    wave: int | None = None
    compose: Callable[[dict[str, Any]], Any] | None = None
    tool_ids: tuple[str, ...] = ()
    encapsulation_name: str = ""
    invocation_id: str | None = None
    started: float = field(default_factory=time.perf_counter)
    runs: int = 0
    retries: int = 0
    timeouts: int = 0
    hits: int = 0
    saved: float = 0.0
    bytes_saved: int = 0
    created: list[str] = field(default_factory=list)
    reused: list[str] = field(default_factory=list)
    created_by_node: dict[str, list[str]] = field(init=False)
    reused_by_node: dict[str, list[str]] = field(init=False)

    def __post_init__(self) -> None:
        self.created_by_node = {n.node_id: [] for n in self.output_nodes}
        self.reused_by_node = {n.node_id: [] for n in self.output_nodes}

    @property
    def node(self) -> str:
        return ",".join(self.invocation.outputs)

    @property
    def output_types(self) -> tuple[str, ...]:
        return tuple(n.entity_type for n in self.output_nodes)

    @property
    def name(self) -> str:
        """The tool type, or the composed entity type."""
        return (self.output_types[0] if self.compose is not None
                else self.tool_type)


@dataclass(frozen=True)
class _InvocationNode:
    """An invocation plus its dependency bookkeeping."""

    index: int
    invocation: TaskInvocation
    tool_type: str | None
    predecessors: tuple[int, ...]
    successors: tuple[int, ...]


def _invocation_graph(graph: TaskGraph, needed: set[str] | None = None
                      ) -> list[_InvocationNode]:
    """The invocations producing ``needed`` nodes (default: all), with
    their dependencies.

    Invocations are indexed in the order a sequential walk of
    ``graph.topological_order()`` meets them — by each one's first
    needed output — so every predecessor has a lower index than its
    successors, and claiming the lowest ready index replays that walk.
    """
    position = {node_id: i
                for i, node_id in enumerate(graph.topological_order())}
    ranked = sorted(
        (min(position[o] for o in outputs), invocation)
        for invocation in graph.invocations()
        if (outputs := [o for o in invocation.outputs
                        if needed is None or o in needed]))
    invocations = [invocation for _, invocation in ranked]
    producer_of = {output: index
                   for index, invocation in enumerate(invocations)
                   for output in invocation.outputs}
    predecessors: list[set[int]] = [set() for _ in invocations]
    successors: list[set[int]] = [set() for _ in invocations]
    for index, invocation in enumerate(invocations):
        sources = list(invocation.input_nodes)
        if invocation.tool_node is not None:
            sources.append(invocation.tool_node)
        for node_id in sources:
            producer = producer_of.get(node_id)
            if producer is not None and producer != index:
                predecessors[index].add(producer)
                successors[producer].add(index)
    return [_InvocationNode(
        index, invocation,
        (graph.node(invocation.tool_node).entity_type
         if invocation.tool_node is not None else None),
        tuple(sorted(predecessors[index])),
        tuple(sorted(successors[index])))
        for index, invocation in enumerate(invocations)]


class _ReadySet:
    """One invocation graph's state, shared by every lane draining it.

    One graph state and interchangeable workers: lanes claim ready
    invocations, run them wherever their dispatcher runs calls, and
    release the successors.  Lanes claim from the front of the ready
    list.  It stays sorted by index, so a lone lane replays the walk of
    the topological order — unless invocations ``queued`` for a pool's
    machines: a queue serves them in the order they became ready, which
    keeps independent chains advancing in step across the machines.
    """

    def __init__(self, nodes: list[_InvocationNode],
                 queued: bool = False) -> None:
        self.nodes = nodes
        self.queued = queued
        self.done = 0
        self.errors: list[BaseException] = []
        self.condition = threading.Condition()
        # dependency depth of each invocation: its scheduler "wave"
        # (wave 0 runs immediately, wave n waits on some wave n-1 task);
        # predecessors come first in index order
        self.wave: list[int] = []
        for node in nodes:
            self.wave.append(1 + max(
                (self.wave[p] for p in node.predecessors), default=-1))
        self.pending = [len(n.predecessors) for n in nodes]
        self.ready = [n.index for n in nodes if not n.predecessors]
        # when each invocation became runnable, for queue-wait accounting
        self.ready_at = dict.fromkeys(self.ready, time.perf_counter())

    def claim(self, batch: Callable[[str | None, int], int] | None = None
              ) -> list[int]:
        """Wait for ready work and claim it; ``[]`` once the run is over.

        A lane claims the invocation at the front of the ready list.
        ``batch(tool_type, ready)`` may let it claim up to that many
        ready invocations of the same tool type in one go.
        """
        with self.condition:
            while not self.ready and self.done < len(self.nodes) \
                    and not self.errors:
                self.condition.wait()
            if self.errors or self.done >= len(self.nodes):
                return []
            claimed = [self.ready.pop(0)]
            if batch is None:
                return claimed
            tool_type = self.nodes[claimed[0]].tool_type
            limit = batch(tool_type, len(self.ready) + 1)
            position = 0
            while position < len(self.ready) and len(claimed) < limit:
                if self.nodes[self.ready[position]].tool_type == tool_type:
                    claimed.append(self.ready.pop(position))
                else:
                    position += 1
            return claimed

    def release(self, claimed: list[int]) -> None:
        """Mark claimed invocations done and ready their successors."""
        with self.condition:
            now = time.perf_counter()
            for index in claimed:
                self.done += 1
                for successor in self.nodes[index].successors:
                    self.pending[successor] -= 1
                    if self.pending[successor] == 0:
                        if self.queued:
                            self.ready.append(successor)
                        else:
                            bisect.insort(self.ready, successor)
                        self.ready_at[successor] = now
            self.condition.notify_all()

    def abort(self, error: BaseException) -> None:
        with self.condition:
            self.errors.append(error)
            self.condition.notify_all()


class _Claim(NamedTuple):
    invocation: TaskInvocation
    queue_wait: float
    wave: int | None


class _ExecutionKernel:
    """What every executor shares: the wiring, the run envelope, the
    ready-set driver and the one path an invocation takes.

    A run plans an invocation graph (:func:`_invocation_graph`) and
    lanes drain it through :meth:`_claim_loop`, the only code that
    admits and dispatches invocations.  An invocation's path has three
    steps.  *Prepare* (:meth:`_prepare`, :meth:`_calls`) resolves
    inputs, announces the invocation, checks the quarantine and the
    cache and loads the inputs of each cold call.  *Call* runs the tool
    wherever the dispatcher runs calls: inline through
    :meth:`_call_tool`, or in a worker process.  *Record*
    (:meth:`_record`, :meth:`_finish`) writes history and cache, and
    reports.  Executors differ only in how they plan a run (``_plan``)
    and which lanes drain it (``_dispatch_run``).
    """

    #: ``executor`` label of this executor's ledger records.
    _kind = SEQUENTIAL_EXECUTOR
    #: Machine named on run-level events; lanes name their own.
    machine = ""
    #: Whether invocations queue for a pool's machines: only then are
    #: they served in ready order, and do results and task spans carry
    #: a queue wait and a scheduler wave.
    _queued = False

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *, user: str = "",
                 bus: EventBus | None = None,
                 cache: DerivationCache | None = None,
                 cache_policy: str = CACHE_READWRITE,
                 tracer: Tracer | None = None,
                 ledger: RunLedger | None = None,
                 resilience: ResiliencePolicy | None = None,
                 faults: FaultPlan | None = None,
                 profiler=None) -> None:
        self.db = db
        self.registry = registry
        self.user = user
        # The lock serializes history-database access (and report
        # updates) across lanes; tool code runs outside it.
        self._lock = threading.Lock()
        # Without sinks the shared no-op bus makes every emit an early
        # return, so uninstrumented execution stays on the fast path.
        self.bus = bus if bus is not None else NO_OP_BUS
        # Likewise for spans: without sinks the tracer hands out the
        # shared null span and tracing costs one truth test.
        self.tracer = tracer if tracer is not None else NO_OP_TRACER
        # Incremental re-execution: with a cache attached, remembered
        # tool runs (same tool, code and input content) are reused
        # instead of re-executed, subject to the policy.
        self.cache = cache
        self.cache_policy = normalize_policy(
            cache_policy if cache is not None else CACHE_OFF)
        self._force = False
        # Longitudinal observability: with a ledger attached, every
        # execute() call appends exactly one RunRecord.
        self.ledger = ledger
        # Resilience: with a policy attached, every encapsulation and
        # composition call runs under its retry/timeout/quarantine
        # machinery, and breaker state is global to the run whichever
        # lane runs a call.  Without a policy the first tool exception
        # aborts the flow.
        self.resilience = resilience
        # Fault injection: a FaultPlan scripts failures at the same
        # boundary the policy guards, so chaos drills exercise the real
        # retry path.  None in production.
        self.faults = faults
        # Profiling: a SamplingProfiler brackets every tool body so
        # the sweep thread can attribute stacks (and busy time) to the
        # tool type, whatever thread ends up executing the call.
        self.profiler = profiler

    @property
    def _pool_size(self) -> int:
        return 1

    # ------------------------------------------------------------------
    # the run envelope
    # ------------------------------------------------------------------
    def _execute(self, flow: TaskGraph | DynamicFlow,
                 targets: Sequence[str] | None,
                 force: bool) -> ExecutionReport:
        """Open, dispatch, close and record one run.

        Only the invocations producing ``targets``' supplier subtrees
        (default: the whole flow) are planned; ``force`` re-runs every
        one of them.
        """
        graph = flow.graph if isinstance(flow, DynamicFlow) else flow
        graph.validate()
        run = _Run(graph, targets, self._needed_nodes(graph, targets),
                   force, ExecutionReport(graph.name))
        details = self._plan(run)
        report = run.report
        emitting = self.bus.enabled
        with self.tracer.span(
                f"run:{graph.name}", RUN_SPAN,
                attributes={"flow": graph.name, **details,
                            "cache": self.cache_policy}) as run_span:
            run.context = run_span.context
            try:
                if emitting:
                    self.bus.emit(FLOW_STARTED, flow=graph.name,
                                  machine=self.machine, payload=details)
                self._check_ready(graph, run.needed)
                if force:
                    # drop previous results so re-runs do not fan out
                    # over them
                    for node_id in run.needed:
                        if graph.suppliers(node_id):
                            graph.node(node_id).produced = ()
                self._force = force
                self._dispatch_run(run)
            except Exception as error:
                if emitting:
                    self.bus.emit(EXECUTION_FAILED, flow=graph.name,
                                  machine=self.machine,
                                  payload={"error": str(error)})
                report.wall_time = time.perf_counter() - run.started
                self._ledger_record(run, run_span, error)
                raise
            if self.resilience is not None:
                report.quarantined = sorted(
                    set(report.quarantined)
                    | set(self.resilience.quarantined()))
            # lanes overlap: the measured elapsed time of this call is
            # the wall-clock, never a sum over lanes
            report.wall_time = time.perf_counter() - run.started
            totals = {"runs": report.runs,
                      "created": len(report.created),
                      "skipped": len(report.skipped),
                      "cache_hits": report.cache_hits,
                      "queue_wait": round(report.queue_wait_time, 6),
                      **run.summary}
            run_span.set(**totals)
        if emitting:
            # the pool's per-worker counters, as the ledger records them
            for name, stats in sorted((run.workers or {}).items()):
                self.bus.emit(
                    WORKER_STATS, flow=graph.name, machine=name,
                    duration=stats.busy_time,
                    payload={"batches": stats.batches,
                             "invocations": stats.invocations,
                             "steals": stats.steals,
                             "respawns": stats.respawns,
                             "cache_hits": stats.cache_hits,
                             "busy": stats.busy_time,
                             "idle": stats.idle_time,
                             "rss_kb": stats.rss_kb,
                             "utilization": round(
                                 stats.busy_time / report.wall_time, 4)})
            payload = {**totals, "serial_time": report.serial_time,
                       "speedup": round(report.speedup, 3)}
            if report.failures:
                payload["failures"] = len(report.failures)
            self.bus.emit(FLOW_FINISHED, flow=graph.name,
                          machine=self.machine,
                          duration=report.wall_time, payload=payload)
        self._ledger_record(run, run_span)
        return report

    def _ledger_record(self, run: _Run, run_span: Any,
                       error: BaseException | None = None) -> None:
        """Append this run to the ledger, when one is attached."""
        if self.ledger is None:
            return
        self.ledger.record_run(
            run.report, executor=self._kind,
            cache_policy=self.cache_policy,
            trace_id=getattr(run_span, "trace_id", ""), error=error,
            workers=run.workers,
            profile=(self.profiler.summary()
                     if self.profiler is not None else None),
            pool_size=self._pool_size)

    def _needed_nodes(self, graph: TaskGraph,
                      targets: Sequence[str] | None) -> set[str]:
        if targets is None:
            return set(graph.node_ids())
        needed: set[str] = set()
        for target in targets:
            needed |= graph.subtree(target)
        return needed

    def _check_ready(self, graph: TaskGraph, needed: set[str]) -> None:
        unbound = [
            str(graph.node(node_id)) for node_id in sorted(needed)
            if not graph.suppliers(node_id)
            and not graph.node(node_id).results()
        ]
        if unbound:
            raise ExecutionError(
                "flow is not ready: select instances for leaf nodes "
                + ", ".join(unbound))

    def _cache_for_run(self) -> DerivationCache | None:
        if self.cache is None or self.cache_policy == CACHE_OFF:
            return None
        return self.cache

    @property
    def _cache_reads(self) -> bool:
        return self.cache_policy in (CACHE_REUSE, CACHE_READWRITE) \
            and not self._force

    @property
    def _cache_writes(self) -> bool:
        return self.cache_policy == CACHE_READWRITE

    @property
    def _degrade(self) -> bool:
        return self.resilience is not None and self.resilience.degrade

    # ------------------------------------------------------------------
    # routing: the ready-set driver, admission and failures
    # ------------------------------------------------------------------
    def _drive(self, run: _Run,
               lanes: list[Callable[[_ReadySet], Any]]) -> None:
        """Drain the run's invocation graph with ``lanes`` over one
        ready set — a lone lane inline on the caller's thread, more on
        a thread each — then re-raise the first error any lane hit."""
        state = _ReadySet(run.plan, self._queued)
        if len(lanes) == 1:
            lanes[0](state)
        else:
            threads = [threading.Thread(target=lane, args=(state,))
                       for lane in lanes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if state.errors:
            raise state.errors[0]

    def _claim_loop(self, run: _Run, state: _ReadySet, machine: str,
                    dispatch: Callable[[list[_Claim]], int] | None = None,
                    batch: Callable[[str | None, int], int] | None = None
                    ) -> int:
        """One lane: claim, admit, dispatch and release until the run is
        over.  Returns how many invocations the lane executed.

        ``dispatch`` defaults to running each claim inline.  An
        invocation that failed under graceful degradation is still
        released: its successors must be skipped as upstream failures,
        or the other lanes would wait for them forever.
        """
        if dispatch is None:
            dispatch = functools.partial(self._run_claims, run, machine)
        executed = 0
        while True:
            claimed = state.claim(batch)
            if not claimed:
                return executed
            # The wait ends when dispatch starts, measured after the
            # claim lock is released: contention for the lock counts as
            # waiting, it is not hidden inside it.
            dispatch_at = time.perf_counter()
            claims = []
            for index in claimed:
                invocation = state.nodes[index].invocation
                if not self._admit(run, invocation, machine):
                    continue
                claims.append(_Claim(
                    invocation,
                    max(0.0, dispatch_at - state.ready_at[index]),
                    state.wave[index]) if state.queued
                    else _Claim(invocation, 0.0, None))
            try:
                executed += dispatch(claims)
            except BaseException as error:
                state.abort(error)
                return executed
            state.release(claimed)

    def _run_claims(self, run: _Run, machine: str,
                    claims: list[_Claim]) -> int:
        """Inline dispatch: run each claimed invocation on this thread."""
        return sum(self._invoke(run, claim.invocation, machine,
                                claim.queue_wait, claim.wave) is not None
                   for claim in claims)

    def _admit(self, run: _Run, invocation: TaskInvocation,
               machine: str) -> bool:
        """False when an invocation needs no run: its outputs exist
        (recorded as skipped) or, under degradation, one of its
        suppliers failed.

        An upstream failure records an ``upstream``-classified entry and
        adds the invocation's own outputs to the failed set, so the
        loss propagates down the subtree without ever invoking a tool
        on missing inputs.
        """
        graph = run.graph
        if not run.force and all(graph.node(o).results()
                                 for o in invocation.outputs):
            with self._lock:
                run.report.skipped.extend(invocation.outputs)
            return False
        if not self._degrade:
            return True
        with self._lock:
            upstream = sorted({supplier_id for _, supplier_id
                               in invocation.inputs
                               if supplier_id in run.failed})
            if invocation.tool_node in run.failed:
                upstream.append(invocation.tool_node)
            if not upstream:
                return True
            run.report.failures.append(InvocationFailure(
                outputs=tuple(invocation.outputs),
                tool_type=_tool_type(graph, invocation),
                error="inputs unavailable: upstream invocation(s) "
                      "failed: " + ", ".join(upstream),
                error_class="ExecutionError",
                classification=UPSTREAM,
                attempts=0,
                machine=machine))
            run.failed.update(invocation.outputs)
        return False

    def _fail(self, run: _Run, invocation: TaskInvocation,
              error: BaseException, machine: str) -> None:
        """Raise an invocation's error, or under graceful degradation
        record the loss and let independent work go on.

        The error carries the tool type either way, so the ledger and
        reports can group failures by tool.
        """
        if getattr(error, "repro_tool_type", None) is None:
            annotate_error(error,
                           tool_type=_tool_type(run.graph, invocation))
        if not self._degrade:
            raise error
        with self._lock:
            run.report.failures.append(failure_entry(
                error, outputs=tuple(invocation.outputs),
                tool_type=getattr(error, "repro_tool_type", None),
                machine=machine, policy=self.resilience))
            run.failed.update(invocation.outputs)
        if self.bus.enabled:
            self.bus.emit(EXECUTION_FAILED, flow=run.graph.name,
                          node=",".join(invocation.outputs),
                          machine=machine,
                          payload={"error": str(error), "degraded": True})

    # ------------------------------------------------------------------
    # one invocation: prepare -> call -> record
    # ------------------------------------------------------------------
    def _invoke(self, run: _Run, invocation: TaskInvocation,
                machine: str, queue_wait: float = 0.0,
                wave: int | None = None) -> InvocationResult | None:
        """Run one invocation inline, each cold combination in turn:
        lookup, call, record, store.

        Returns the executed-runs entry, or None when the cache served
        every combination or a degraded failure was recorded.
        """
        try:
            task = self._prepare(run, invocation, machine, queue_wait,
                                 wave)
            with self._task_span(run, task) as task_span:
                for call in self._calls(run, task):
                    with self._call_span(task, call) as call_span:
                        self._call_tool(run, task, call)
                        self._record(run, task, call, call_span)
                return self._finish(run, task, task_span,
                                    time.perf_counter() - task.started)
        except Exception as error:
            self._fail(run, invocation, error, machine)
            return None

    def _prepare(self, run: _Run, invocation: TaskInvocation,
                 machine: str, queue_wait: float = 0.0,
                 wave: int | None = None) -> _Task:
        """Resolve the inputs, announce the invocation and fail fast
        when its tool type is quarantined."""
        graph = run.graph
        emitting = self.bus.enabled
        output_nodes = [graph.node(o) for o in invocation.outputs]
        if emitting:
            for node in output_nodes:
                self.bus.emit(NODE_READY, flow=graph.name,
                              node=node.node_id, machine=machine,
                              payload={"entity_type": node.entity_type})
        role_ids: dict[str, tuple[str, ...]] = {}
        for role, supplier_id in invocation.inputs:
            supplier = graph.node(supplier_id)
            ids = supplier.results()
            if not ids:
                raise ExecutionError(
                    f"{supplier}: no instances available for role "
                    f"{role!r}")
            role_ids[role] = ids
        task = _Task(invocation, machine, _tool_type(graph, invocation),
                     output_nodes, role_ids, queue_wait, wave)
        if emitting:
            self.bus.emit(TOOL_INVOKED, flow=graph.name, node=task.node,
                          tool_type=task.tool_type, machine=machine,
                          payload={"roles": sorted(role_ids)})
        if self.resilience is not None:
            self.resilience.check(task.tool_type)
        if invocation.tool_node is None:
            # composed invocations have exactly one output
            entity_type = output_nodes[0].entity_type
            task.compose = self.registry.composition(entity_type)
            task.encapsulation_name = f"compose:{entity_type}"
        else:
            tool_node = graph.node(invocation.tool_node)
            task.tool_ids = tuple(tool_node.results())
            if not task.tool_ids:
                raise ExecutionError(
                    f"{tool_node}: no tool instance available")
        return task

    def _combos(self, task: _Task) -> Iterator[
            tuple[ToolEncapsulation | None, ToolContext | None,
                  dict[str, Any]]]:
        """Every (encapsulation, context, input combination) to run."""
        if task.compose is not None:
            for combo in _combinations(task.role_ids):
                yield None, None, combo
            return
        for tool_id in task.tool_ids:
            with self._lock:
                tool_instance = self.db.get(tool_id)
                tool_data = self.db.data(tool_instance)
            enc = self.registry.resolve(tool_instance.entity_type, tool_id)
            task.encapsulation_name = enc.name
            ctx = ToolContext(
                tool_type=tool_instance.entity_type,
                tool_instance_id=tool_id,
                tool_data=tool_data,
                output_types=task.output_types,
                options=enc.options(),
                user=self.user,
            )
            if enc.batch:
                combos: Any = [{role: list(ids)
                                for role, ids in task.role_ids.items()}]
            else:
                combos = _combinations(task.role_ids)
            for combo in combos:
                yield enc, ctx, combo

    def _calls(self, run: _Run, task: _Task) -> Iterator[_Call]:
        """Look every combination up in the cache; yield the cold ones
        with their inputs loaded.

        A hit is folded into the task.  The first miss allocates the
        invocation id all of the invocation's calls share.
        """
        cache = self._cache_for_run()
        types = sorted(set(task.output_types))
        for enc, ctx, combo in self._combos(task):
            code = (fingerprint_callable(task.compose) if enc is None
                    else enc.fingerprint())
            key = None
            if cache is not None:
                key = (cache.composition_key(task.name, combo, code)
                       if ctx is None else
                       cache.tool_run_key(ctx.tool_instance_id, combo,
                                          types, code))
                if self._cache_reads:
                    attributes = {"key": key[:16]}
                    if ctx is not None:
                        attributes["tool"] = ctx.tool_instance_id
                    with self.tracer.span(f"cache:{task.name}", CACHE_SPAN,
                                          attributes=attributes) as lookup:
                        hit = cache.fetch(key, types)
                        lookup.set(outcome="hit" if hit is not None
                                   else "miss")
                    if hit is not None:
                        self._take_hit(run, task, hit)
                        continue
                    if self.bus.enabled:
                        self.bus.emit(CACHE_MISS, flow=run.graph.name,
                                      node=task.node,
                                      tool_type=task.tool_type,
                                      machine=task.machine,
                                      payload={"key": key[:16]})
            with self._lock:
                if task.invocation_id is None:
                    task.invocation_id = self.db.new_invocation_id()
                inputs = {
                    role: ([self.db.data(r) for r in ref]
                           if isinstance(ref, list)
                           else self.db.data(ref))
                    for role, ref in combo.items()
                }
            yield _Call(enc, ctx, combo, code, key, inputs)

    def _take_hit(self, run: _Run, task: _Task, hit: Any) -> None:
        grouped = hit.ids_by_type()
        for node in task.output_nodes:
            ids = grouped.get(node.entity_type, [])
            instance_id = ids.pop(0) if ids else hit.instance_ids[0]
            task.reused_by_node[node.node_id].append(instance_id)
            task.reused.append(instance_id)
        task.hits += 1
        task.saved += hit.saved
        task.bytes_saved += hit.bytes_saved
        if self.bus.enabled:
            self.bus.emit(CACHE_HIT, flow=run.graph.name, node=task.node,
                          tool_type=task.tool_type, machine=task.machine,
                          payload={"instances": list(hit.instance_ids),
                                   "saved": hit.saved,
                                   "bytes": hit.bytes_saved,
                                   "key": hit.key[:16]})

    def _call_tool(self, run: _Run, task: _Task, call: _Call) -> None:
        """The inline call step, under faults and the policy.

        This is the single in-process resilience boundary: the fault
        plan wraps the raw call (so injected crashes/hangs hit the same
        machinery real ones would), and the policy wraps the fault plan
        (so injected transients are retried, injected hangs time out).
        Without a policy the call runs bare and any failure propagates
        unchanged.
        """
        tool_type = task.tool_type
        if task.compose is not None:
            compose = task.compose
            guarded = lambda: compose(call.inputs)  # noqa: E731
        else:
            guarded = lambda: call.enc.run(call.ctx, call.inputs)  # noqa: E731
        if self.faults is not None:
            faults, inner = self.faults, guarded
            guarded = lambda: faults.apply(tool_type, inner)  # noqa: E731
        if self.profiler is not None:
            # inside the policy wrap, outside the fault wrap: every
            # attempt (including injected slowdowns, and watchdog
            # threads running the body) registers the thread that
            # actually executes the tool
            profiler, wrapped = self.profiler, guarded
            guarded = lambda: profiler.run(tool_type, wrapped)  # noqa: E731
        started = time.perf_counter()
        policy = self.resilience
        if policy is None:
            call.value, call.stats = guarded(), CallStats()
        else:
            call.value, call.stats = policy.run(
                tool_type, guarded, **self._policy_hooks(run, task))
        call.elapsed = time.perf_counter() - started

    def _policy_hooks(self, run: _Run,
                      task: _Task) -> dict[str, Callable[..., None]]:
        """Event hooks for :meth:`ResiliencePolicy.settle`, whichever
        boundary settles the task's failed attempts."""
        if not self.bus.enabled:
            return {}
        emit = functools.partial(self.bus.emit, flow=run.graph.name,
                                 node=task.node, tool_type=task.tool_type,
                                 machine=task.machine)

        def on_retry(attempt: int, error: BaseException, delay: float,
                     classification: str) -> None:
            emit(TOOL_RETRIED,
                 payload={"attempt": attempt, "error": str(error),
                          "error_class": type(error).__name__,
                          "classification": classification,
                          "delay": round(delay, 6)})

        def on_timeout(attempt: int, budget: float) -> None:
            emit(TOOL_TIMED_OUT,
                 payload={"attempt": attempt, "budget": budget})

        def on_quarantine(consecutive: int) -> None:
            emit(TOOL_QUARANTINED,
                 payload={"consecutive_failures": consecutive})

        return {"on_retry": on_retry, "on_timeout": on_timeout,
                "on_quarantine": on_quarantine}

    def _task_span(self, run: _Run, task: _Task):
        attributes: dict[str, Any] = {
            "flow": run.graph.name,
            "machine": task.machine,
            "outputs": sorted(task.invocation.outputs),
            "inputs": sorted({supplier_id for _, supplier_id
                              in task.invocation.inputs}),
            "entity_types": sorted(set(task.output_types)),
            "tool_type": task.tool_type,
        }
        if task.wave is not None:
            attributes["wave"] = task.wave
        if task.queue_wait > 0:
            attributes["queue_wait"] = round(task.queue_wait, 6)
        return self.tracer.span("task:" + task.node, TASK_SPAN,
                                attributes=attributes)

    def _call_span(self, task: _Task, call: _Call, **attributes: Any):
        """The tool (or compose) span one call is recorded under."""
        if call.enc is None:
            return self.tracer.span(
                f"compose:{task.name}", COMPOSE_SPAN,
                attributes={"entity_type": task.name, **attributes})
        return self.tracer.span(
            f"tool:{task.name}", TOOL_SPAN,
            attributes={"tool": call.tool_id, "tool_type": task.name,
                        "encapsulation": call.enc.name, **attributes})

    def _record(self, run: _Run, task: _Task, call: _Call,
                span: Any) -> None:
        """Record one finished call: history, its span, the cache."""
        if call.stats.retries:
            span.set(retries=call.stats.retries)
        if call.stats.timeouts:
            span.set(timeouts=call.stats.timeouts)
        if call.enc is None:
            produced = {task.name: call.value}
        else:
            produced = _normalize_result(call.value, task.output_types,
                                         call.enc.name)
        derivation = DerivationRecord(call.tool_id,
                                      _derivation_inputs(call.combo),
                                      task.invocation_id, call.code)
        created: list[tuple[str, str]] = []
        for node in task.output_nodes:
            with self._lock:
                instance = self.db.record(
                    node.entity_type, produced[node.entity_type],
                    derivation, user=self.user, name=node.label,
                    annotations={"flow": run.graph.name,
                                 "machine": task.machine},
                    trace=span.context)
            task.created_by_node[node.node_id].append(instance.instance_id)
            task.created.append(instance.instance_id)
            created.append((node.entity_type, instance.instance_id))
        span.set(created=[i for _, i in created],
                 invocation_id=task.invocation_id)
        task.runs += 1
        task.retries += call.stats.retries
        task.timeouts += call.stats.timeouts
        if call.key is not None and self._cache_writes:
            self.cache.store(call.key, created, call.elapsed)

    def _finish(self, run: _Run, task: _Task, span: Any,
                duration: float) -> InvocationResult | None:
        """Publish a recorded invocation: produced results, report
        entries, the task span's outcome and the finish event.

        A fully warm invocation yields only a cache entry, a cold one
        only a result, and a partially warm fan-out both.
        """
        for node in task.output_nodes:
            node.produced = node.produced \
                + tuple(task.reused_by_node[node.node_id]) \
                + tuple(task.created_by_node[node.node_id])
        tool_type = None if task.compose is not None else task.tool_type
        result = cached = None
        if task.runs:
            result = InvocationResult(
                task.invocation_id or "", tool_type, task.tool_ids,
                task.encapsulation_name, task.runs, tuple(task.created),
                {k: tuple(v) for k, v in task.created_by_node.items()},
                duration, task.machine, queue_wait=task.queue_wait,
                retries=task.retries, timeouts=task.timeouts)
            span.set(created=list(result.created),
                     invocation_id=result.invocation_id)
        if task.hits:
            cached = CachedInvocation(
                tool_type, task.invocation.outputs, task.hits,
                tuple(task.reused),
                {k: tuple(v) for k, v in task.reused_by_node.items()},
                task.saved, task.bytes_saved, task.machine)
            span.set(reused=list(cached.instances))
        if self._cache_for_run() is not None:
            # cache outcome: every combination served from the cache is
            # a hit; a mix of reused and executed combos is "partial"
            if cached is not None:
                span.set(cache="hit" if result is None else "partial")
            elif self._cache_reads:
                span.set(cache="miss")
        with self._lock:
            if result is not None:
                run.report.results.append(result)
            if cached is not None:
                run.report.cached.append(cached)
        if result is not None and self.bus.enabled:
            payload: dict[str, Any] = {"runs": result.runs,
                                       "created": list(result.created)}
            if task.queue_wait > 0:
                payload["queue_wait"] = round(task.queue_wait, 6)
            self.bus.emit(
                COMPOSITION_RUN if task.compose is not None
                else TOOL_FINISHED,
                flow=run.graph.name, node=task.node,
                tool_type=task.tool_type,
                invocation_id=result.invocation_id,
                machine=task.machine, duration=duration, payload=payload)
        return result


class FlowExecutor(_ExecutionKernel):
    """Executes dynamically defined flows against a history database:
    one lane, drained inline on the caller's thread."""

    machine = "local"

    def execute(self, flow: TaskGraph | DynamicFlow,
                targets: Sequence[str] | None = None, *,
                force: bool = False) -> ExecutionReport:
        """Run a flow (or the sub-flow reaching ``targets``).

        Already-executed nodes (with ``produced`` results) and bound
        nodes are reused unless ``force`` re-runs every invocation.
        """
        return self._execute(flow, targets, force)

    def execute_node(self, flow: TaskGraph | DynamicFlow,
                     node_id: str, *, force: bool = False
                     ) -> ExecutionReport:
        """Run just the sub-flow producing one node."""
        return self.execute(flow, targets=[node_id], force=force)

    def _plan(self, run: _Run) -> dict[str, Any]:
        run.plan = _invocation_graph(run.graph, run.needed)
        return {"machine": self.machine, "nodes": len(run.needed),
                "targets": sorted(run.targets or ()), "force": run.force}

    def _dispatch_run(self, run: _Run) -> None:
        self._drive(run, [functools.partial(
            self._claim_loop, run, machine=self.machine)])


def _tool_type(graph: TaskGraph, invocation: TaskInvocation) -> str:
    """An invocation's tool type as events and the policy see it."""
    if invocation.tool_node is None:
        return COMPOSE_TOOL
    return graph.node(invocation.tool_node).entity_type


def _combinations(role_ids: dict[str, tuple[str, ...]]):
    """Cartesian product over roles with multiple selected instances.

    Section 4.1: selecting a set of instances causes *"the task to be run
    for each data instance specified"*; with several multi-selected roles
    the task runs for each combination.
    """
    roles = sorted(role_ids)
    for values in itertools.product(*(role_ids[r] for r in roles)):
        yield dict(zip(roles, values))


def _derivation_inputs(combo: dict[str, Any]
                       ) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    for role, ref in combo.items():
        if isinstance(ref, list):
            pairs.extend((role, r) for r in ref)
        else:
            pairs.append((role, ref))
    return tuple(sorted(pairs))


def _normalize_result(result: Any, output_types: tuple[str, ...],
                      encapsulation_name: str) -> dict[str, Any]:
    """Map an encapsulation return value onto the expected output types."""
    if isinstance(result, dict) and set(result) == set(output_types):
        return result
    if len(output_types) == 1:
        return {output_types[0]: result}
    raise ExecutionError(
        f"encapsulation {encapsulation_name!r} must return a dict keyed "
        f"by output types {sorted(output_types)}, got "
        f"{type(result).__name__}")
