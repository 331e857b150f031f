"""Invocation-level flow scheduling (extension beyond Fig. 6).

The paper parallelizes *disjoint branches* (weakly connected components).
A natural extension — enabled by the same schema dependencies — is
invocation-level scheduling: within one connected flow, every task
invocation whose inputs are ready may run, so a diamond-shaped flow
(extract -> {simulate, verify} -> plot) still overlaps its middle stages.

Three pieces:

* :class:`DurationModel` — expected tool run times learned from
  execution events (the history's time-stamps are the paper's
  meta-data; the durations come from ``tool_finished`` events);
* :func:`plan_schedule` — critical-path list scheduling of a flow's
  invocations onto M machines, yielding a predicted makespan;
* :class:`ScheduledFlowExecutor` — executes a flow with invocation-level
  parallelism on a :class:`~repro.execution.parallel.MachinePool`,
  strictly respecting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..obs import (COMPOSE_TOOL, COMPOSITION_RUN, SCHEDULED_EXECUTOR,
                   TOOL_FINISHED, WAVE_SPAN, Event)
from .encapsulation import EncapsulationRegistry
from .executor import (ExecutionReport, InvocationResult,
                       _ExecutionKernel, _invocation_graph,
                       _InvocationNode, _ReadySet, _Run)
from .parallel import MachinePool

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


def _critical_lengths(nodes: list[_InvocationNode],
                      duration: list[float]) -> list[float]:
    """Longest path from each invocation to any sink (its priority)."""
    length = [0.0] * len(nodes)
    # successors have higher indices: one reverse sweep settles them all
    for node in reversed(nodes):
        length[node.index] = duration[node.index] + max(
            (length[s] for s in node.successors), default=0.0)
    return length


def plan_schedule(flow: TaskGraph | DynamicFlow, machines: int,
                  durations: DurationModel | None = None) -> Schedule:
    """Critical-path list schedule of a flow's invocations."""
    graph = flow.graph if isinstance(flow, DynamicFlow) else flow
    if machines < 1:
        raise ExecutionError("need at least one machine")
    durations = durations if durations is not None else DurationModel()
    nodes = _invocation_graph(graph)
    duration = [durations.estimate(n.tool_type) for n in nodes]
    priority = _critical_lengths(nodes, duration)
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
        end = start + duration[index]
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
    serial = sum(duration)
    critical = max(priority, default=0.0)
    return Schedule(tuple(entries), makespan, machines, serial, critical)


class ScheduledFlowExecutor(_ExecutionKernel):
    """Executes one flow with invocation-level parallelism.

    ``pool`` is a :class:`MachinePool` or the number of local machines
    to simulate; each machine runs one lane over the flow's one ready
    set.
    """

    _kind = SCHEDULED_EXECUTOR
    _queued = True

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *,
                 pool: MachinePool | int = 2, **wiring: Any) -> None:
        super().__init__(db, registry, **wiring)
        self.pool = pool if isinstance(pool, MachinePool) \
            else MachinePool.local(pool)

    @property
    def _pool_size(self) -> int:
        return len(self.pool)

    def execute(self, flow: TaskGraph | DynamicFlow,
                targets: Sequence[str] | None = None, *,
                force: bool = False) -> ExecutionReport:
        """Run a flow (or the sub-flow reaching ``targets``)."""
        return self._execute(flow, targets, force)

    def _plan(self, run: _Run) -> dict[str, Any]:
        run.plan = _invocation_graph(run.graph, run.needed)
        return {"scheduler": "invocation-level",
                "machines": len(self.pool), "invocations": len(run.plan)}

    def _dispatch_run(self, run: _Run) -> None:
        def lane(state: _ReadySet) -> None:
            machine = self.pool.acquire()
            try:
                with self.tracer.activate(run.context), self.tracer.span(
                        f"lane:{machine.name}", WAVE_SPAN,
                        attributes={"flow": run.graph.name,
                                    "machine": machine.name}) as span:
                    executed = self._claim_loop(run, state, machine.name)
                    span.set(invocations=executed)
                machine.executed_invocations += executed
            finally:
                self.pool.release(machine)

        if run.plan:
            self._drive(run, [lane] * len(self.pool))
