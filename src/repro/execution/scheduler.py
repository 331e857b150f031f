"""Invocation-level flow scheduling (extension beyond Fig. 6).

The paper parallelizes *disjoint branches* (weakly connected components).
A natural extension — enabled by the same schema dependencies — is
invocation-level scheduling: within one connected flow, every task
invocation whose inputs are ready may run, so a diamond-shaped flow
(extract -> {simulate, verify} -> plot) still overlaps its middle stages.

Three pieces:

* :class:`DurationModel` — expected tool run times learned from executed
  reports (the history's time-stamps are the paper's meta-data; the
  durations come from execution reports);
* :func:`plan_schedule` — critical-path list scheduling of a flow's
  invocations onto M machines, yielding a predicted makespan;
* :class:`ScheduledFlowExecutor` — executes a flow with invocation-level
  parallelism on a :class:`~repro.execution.parallel.MachinePool`,
  strictly respecting dependencies.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph, TaskInvocation
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..obs import (COMPOSE_TOOL, COMPOSITION_RUN, SCHEDULED_EXECUTOR,
                   TOOL_FINISHED, WAVE_SPAN, Event, EventBus, RunLedger,
                   Tracer)
from .cache import CACHE_OFF, DerivationCache
from .encapsulation import EncapsulationRegistry
from .executor import (ExecutionReport, InvocationResult,
                       _ExecutionKernel, _Run)
from .faults import FaultPlan
from .parallel import MachinePool
from .resilience import ResiliencePolicy

DEFAULT_DURATION = 1.0


class DurationModel:
    """Per-tool-type expected durations, learned from execution events.

    The model is an event sink: subscribe it to the bus an executor
    emits on and every ``tool_finished`` / ``composition_run`` event
    updates the estimate — no ad-hoc recording calls in the executors.
    The report/result entry points remain for offline training from
    stored reports.
    """

    def __init__(self, default: float = DEFAULT_DURATION) -> None:
        self.default = default
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def handle(self, event: Event) -> None:
        """EventBus sink interface: learn from timing events."""
        if event.event_type in (TOOL_FINISHED, COMPOSITION_RUN):
            self.record(event.tool_type or None, event.duration)

    def observe_report(self, report: ExecutionReport) -> None:
        for result in report.results:
            self.observe(result)

    def observe(self, result: InvocationResult) -> None:
        self.record(result.tool_type, result.duration)

    def record(self, tool_type: str | None, duration: float) -> None:
        key = tool_type or COMPOSE_TOOL
        self._totals[key] = self._totals.get(key, 0.0) + duration
        self._counts[key] = self._counts.get(key, 0) + 1

    def estimate(self, tool_type: str | None) -> float:
        key = tool_type or COMPOSE_TOOL
        if key not in self._counts:
            return self.default
        return self._totals[key] / self._counts[key]

    def observed_types(self) -> tuple[str, ...]:
        return tuple(sorted(self._counts))


@dataclass(frozen=True)
class _InvocationNode:
    """An invocation plus its dependency bookkeeping."""

    index: int
    invocation: TaskInvocation
    tool_type: str | None
    predecessors: tuple[int, ...]
    successors: tuple[int, ...]
    duration: float


@dataclass(frozen=True)
class ScheduleEntry:
    """One invocation's planned slot."""

    outputs: tuple[str, ...]
    tool_type: str | None
    machine: str
    start: float
    end: float


@dataclass
class Schedule:
    """A planned execution of a flow on M machines."""

    entries: tuple[ScheduleEntry, ...]
    makespan: float
    machines: int
    serial_time: float
    critical_path: float

    @property
    def predicted_speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0

    def render(self) -> str:
        lines = [f"schedule on {self.machines} machines "
                 f"(makespan {self.makespan:.3f}, serial "
                 f"{self.serial_time:.3f}, critical path "
                 f"{self.critical_path:.3f})"]
        for entry in sorted(self.entries,
                            key=lambda e: (e.start, e.machine)):
            tool = entry.tool_type or "<compose>"
            lines.append(
                f"  {entry.machine:<10} {entry.start:7.3f} -> "
                f"{entry.end:7.3f}  {tool:<20} "
                f"outputs={list(entry.outputs)}")
        return "\n".join(lines)


def _invocation_graph(graph: TaskGraph,
                      durations: DurationModel) -> list[_InvocationNode]:
    invocations = graph.invocations()
    producer_of: dict[str, int] = {}
    for index, invocation in enumerate(invocations):
        for output in invocation.outputs:
            producer_of[output] = index
    predecessors: list[set[int]] = [set() for _ in invocations]
    for index, invocation in enumerate(invocations):
        sources = list(invocation.input_nodes)
        if invocation.tool_node is not None:
            sources.append(invocation.tool_node)
        for node_id in sources:
            producer = producer_of.get(node_id)
            if producer is not None and producer != index:
                predecessors[index].add(producer)
    successors: list[set[int]] = [set() for _ in invocations]
    for index, preds in enumerate(predecessors):
        for pred in preds:
            successors[pred].add(index)
    nodes = []
    for index, invocation in enumerate(invocations):
        tool_type = (graph.node(invocation.tool_node).entity_type
                     if invocation.tool_node is not None else None)
        nodes.append(_InvocationNode(
            index, invocation, tool_type,
            tuple(sorted(predecessors[index])),
            tuple(sorted(successors[index])),
            durations.estimate(tool_type)))
    return nodes


def _critical_lengths(nodes: list[_InvocationNode]) -> list[float]:
    """Longest path from each invocation to any sink (its priority)."""
    length = [0.0] * len(nodes)
    # process in reverse topological order: repeat-until-stable is fine
    # for the small graphs flows produce, but we do it properly:
    indegree_out = [len(n.successors) for n in nodes]
    stack = [n.index for n in nodes if not n.successors]
    order: list[int] = []
    remaining = list(indegree_out)
    while stack:
        current = stack.pop()
        order.append(current)
        for pred in nodes[current].predecessors:
            remaining[pred] -= 1
            if remaining[pred] == 0:
                stack.append(pred)
    for index in order:
        node = nodes[index]
        best_successor = max((length[s] for s in node.successors),
                             default=0.0)
        length[index] = node.duration + best_successor
    return length


def plan_schedule(flow: TaskGraph | DynamicFlow, machines: int,
                  durations: DurationModel | None = None) -> Schedule:
    """Critical-path list schedule of a flow's invocations."""
    graph = flow.graph if isinstance(flow, DynamicFlow) else flow
    if machines < 1:
        raise ExecutionError("need at least one machine")
    durations = durations if durations is not None else DurationModel()
    nodes = _invocation_graph(graph, durations)
    priority = _critical_lengths(nodes)
    pending = {n.index: len(n.predecessors) for n in nodes}
    ready = sorted((n.index for n in nodes if not n.predecessors),
                   key=lambda i: -priority[i])
    machine_free = {f"machine{i}": 0.0 for i in range(machines)}
    finish_time: dict[int, float] = {}
    entries: list[ScheduleEntry] = []
    while ready:
        index = ready.pop(0)
        node = nodes[index]
        earliest = max((finish_time[p] for p in node.predecessors),
                       default=0.0)
        machine = min(machine_free,
                      key=lambda m: (max(machine_free[m], earliest), m))
        start = max(machine_free[machine], earliest)
        end = start + node.duration
        machine_free[machine] = end
        finish_time[index] = end
        entries.append(ScheduleEntry(node.invocation.outputs,
                                     node.tool_type, machine, start,
                                     end))
        for successor in node.successors:
            pending[successor] -= 1
            if pending[successor] == 0:
                position = 0
                while position < len(ready) and \
                        priority[ready[position]] >= priority[successor]:
                    position += 1
                ready.insert(position, successor)
    makespan = max((e.end for e in entries), default=0.0)
    serial = sum(n.duration for n in nodes)
    critical = max(priority, default=0.0)
    return Schedule(tuple(entries), makespan, machines, serial, critical)


class _ReadySet:
    """One run's invocation graph state, shared by every lane.

    One graph state and interchangeable workers: lanes claim ready
    invocations, run them wherever their dispatcher runs calls, and
    release the successors.
    """

    def __init__(self, nodes: list[_InvocationNode]) -> None:
        self.nodes = nodes
        self.done = 0
        self.errors: list[BaseException] = []
        self.condition = threading.Condition()
        # dependency depth of each invocation: its scheduler "wave"
        # (wave 0 runs immediately, wave n waits on some wave n-1 task)
        self.wave: dict[int, int] = {}
        for node in nodes:
            chain = [node.index]
            while chain:
                index = chain[-1]
                missing = [p for p in nodes[index].predecessors
                           if p not in self.wave]
                if missing:
                    chain.extend(missing)
                    continue
                chain.pop()
                self.wave[index] = 1 + max(
                    (self.wave[p] for p in nodes[index].predecessors),
                    default=-1)
        self.pending = {n.index: len(n.predecessors) for n in nodes}
        self.ready = [n.index for n in nodes if not n.predecessors]
        # when each invocation became runnable, for queue-wait accounting
        self.ready_at = dict.fromkeys(self.ready, time.perf_counter())

    def claim(self, batch: Callable[[str | None, int], int] | None = None
              ) -> list[int]:
        """Wait for ready work and claim it; ``[]`` once the run is over.

        A lane claims the oldest ready invocation.  ``batch(tool_type,
        ready)`` may let it claim up to that many ready invocations of
        the same tool type in one go.
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
                        self.ready.append(successor)
                        self.ready_at[successor] = now
            self.condition.notify_all()

    def abort(self, error: BaseException) -> None:
        with self.condition:
            self.errors.append(error)
            self.condition.notify_all()


class _Claim(NamedTuple):
    invocation: TaskInvocation
    queue_wait: float
    wave: int


class _ReadySetExecutor(_ExecutionKernel):
    """The ready-set driver the thread and process tiers share.

    Both plan the flow's invocation graph and run one lane per machine
    (or worker) over one shared :class:`_ReadySet`; they differ in what
    a lane claims at a time and where it runs the calls.
    """

    durations: DurationModel

    def _execute_learning(self, flow: TaskGraph | DynamicFlow,
                          force: bool,
                          cache: str | None) -> ExecutionReport:
        """The run envelope, with the duration model learning from this
        run's ``tool_finished`` / ``composition_run`` events.

        The model listens only while the run lasts: a subscription for
        good would keep the shared bus enabled and make every later
        run, on any executor, pay for events.
        """
        self.bus.subscribe(self.durations)
        try:
            return self._execute(flow, None, force=force, cache=cache)
        finally:
            self.bus.unsubscribe(self.durations)

    def _drive(self, run: _Run,
               lanes: list[Callable[[_ReadySet], None]]) -> None:
        """Run each lane on its own thread over one ready set; once all
        stopped, re-raise the first error any of them hit."""
        state = _ReadySet(run.plan)
        threads = [threading.Thread(target=lane, args=(state,))
                   for lane in lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if state.errors:
            raise state.errors[0]

    def _claim_loop(self, run: _Run, state: _ReadySet, machine: str,
                    dispatch: Callable[[list[_Claim]], int],
                    batch: Callable[[str | None, int], int] | None = None
                    ) -> int:
        """One lane: claim, admit, dispatch and release until the run is
        over.  Returns how many invocations the lane executed.

        An invocation that failed under graceful degradation is still
        released: its successors must be skipped as upstream failures,
        or the other lanes would wait for them forever.
        """
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
                if self._admit(run, invocation, machine):
                    claims.append(_Claim(
                        invocation,
                        max(0.0, dispatch_at - state.ready_at[index]),
                        state.wave[index]))
            try:
                executed += dispatch(claims)
            except BaseException as error:
                state.abort(error)
                return executed
            state.release(claimed)


class ScheduledFlowExecutor(_ReadySetExecutor):
    """Executes one flow with invocation-level parallelism."""

    _kind = SCHEDULED_EXECUTOR

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *, user: str = "",
                 pool: MachinePool | None = None, machines: int = 2,
                 durations: DurationModel | None = None,
                 bus: EventBus | None = None,
                 cache: DerivationCache | None = None,
                 cache_policy: str = CACHE_OFF,
                 tracer: Tracer | None = None,
                 ledger: RunLedger | None = None,
                 resilience: ResiliencePolicy | None = None,
                 faults: FaultPlan | None = None,
                 profiler=None) -> None:
        # the duration model listens on this bus while a run lasts
        super().__init__(db, registry, user=user,
                         bus=bus if bus is not None else EventBus(),
                         cache=cache, cache_policy=cache_policy,
                         tracer=tracer, ledger=ledger,
                         resilience=resilience, faults=faults,
                         profiler=profiler)
        self.pool = pool if pool is not None else MachinePool.local(machines)
        self.durations = durations if durations is not None \
            else DurationModel()

    @property
    def _pool_size(self) -> int:
        return len(self.pool)

    def execute(self, flow: TaskGraph | DynamicFlow, *,
                force: bool = False,
                cache: str | None = None) -> ExecutionReport:
        return self._execute_learning(flow, force, cache)

    def _plan(self, run: _Run) -> dict[str, Any]:
        run.plan = _invocation_graph(run.graph, self.durations)
        return {"scheduler": "invocation-level",
                "machines": len(self.pool), "invocations": len(run.plan)}

    def _dispatch_run(self, run: _Run) -> None:
        if not run.plan:
            return

        def lane(state: _ReadySet) -> None:
            machine = self.pool.acquire()
            try:
                with self.tracer.activate(run.context), self.tracer.span(
                        f"lane:{machine.name}", WAVE_SPAN,
                        attributes={"flow": run.graph.name,
                                    "machine": machine.name}) as span:
                    executed = self._claim_loop(
                        run, state, machine.name,
                        functools.partial(self._run_claims, run,
                                          machine.name))
                    span.set(invocations=executed)
                machine.executed_invocations += executed
            finally:
                self.pool.release(machine)

        self._drive(run, [lane] * len(self.pool))

    def _run_claims(self, run: _Run, machine: str,
                    claims: list[_Claim]) -> int:
        """Thread dispatch: run each claimed invocation inline."""
        return sum(self._invoke(run, claim.invocation, machine,
                                claim.queue_wait, claim.wave) is not None
                   for claim in claims)
