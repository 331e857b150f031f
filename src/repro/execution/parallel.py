"""Parallel execution of disjoint flow branches (paper Fig. 6).

Section 3.3: *"It is also possible to support parallel task execution,
wherein disjoint branches in the flow can be executed in parallel,
possibly on different machines."*

The 1993 machine farm is simulated by a :class:`MachinePool`; each weakly
connected component of the task graph (a *branch*) is claimed by one
machine, whose lane drains the branch's own ready set on its own thread
through the execution kernel's claim loop.  All lanes share one lock
around the history
database, so derivation records stay consistent while tool code (the
slow part — external processes in the paper's world, here Python
callables that may block or sleep) runs concurrently.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph
from ..errors import ExecutionError
from ..history.database import HistoryDatabase
from ..obs import LANE_ASSIGNED, PARALLEL_EXECUTOR, WAVE_SPAN
from .encapsulation import EncapsulationRegistry
from .executor import (ExecutionReport, _ExecutionKernel, _invocation_graph,
                       _ReadySet, _Run)


@dataclass
class Machine:
    """One (simulated) workstation of the design environment."""

    name: str
    executed_branches: int = 0
    executed_invocations: int = 0


class MachinePool:
    """Fixed set of machines handed out to branch executions."""

    def __init__(self, names: Sequence[str]) -> None:
        if not names:
            raise ExecutionError("machine pool needs at least one machine")
        self._machines = {name: Machine(name) for name in names}
        self._idle = list(names)
        self._condition = threading.Condition()

    @classmethod
    def local(cls, size: int) -> "MachinePool":
        return cls([f"machine{i}" for i in range(size)])

    def acquire(self) -> Machine:
        with self._condition:
            while not self._idle:
                self._condition.wait()
            return self._machines[self._idle.pop()]

    def release(self, machine: Machine) -> None:
        with self._condition:
            self._idle.append(machine.name)
            self._condition.notify()

    def machines(self) -> tuple[Machine, ...]:
        return tuple(self._machines.values())

    def __len__(self) -> int:
        return len(self._machines)


@dataclass
class BranchPlan:
    """The parallel schedule: which nodes run together."""

    branches: tuple[frozenset[str], ...] = field(default_factory=tuple)

    @property
    def width(self) -> int:
        return len(self.branches)


def plan_branches(graph: TaskGraph,
                  targets: Sequence[str] | None = None) -> BranchPlan:
    """Split a flow into independently executable branches.

    With ``targets``, only branches containing a target are scheduled.
    """
    branches = graph.disjoint_branches()
    if targets is not None:
        wanted = set(targets)
        branches = tuple(b for b in branches if b & wanted)
    return BranchPlan(tuple(sorted(branches, key=sorted)))


class ParallelFlowExecutor(_ExecutionKernel):
    """Executes disjoint branches of a flow concurrently.

    ``pool`` is a :class:`MachinePool` or the number of local machines
    to simulate.
    """

    _kind = PARALLEL_EXECUTOR

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
        """Run every (selected) branch, one machine per branch."""
        return self._execute(flow, targets, force)

    def _plan(self, run: _Run) -> dict[str, Any]:
        run.plan = plan_branches(run.graph, run.targets)
        return {"scheduler": "disjoint-branches",
                "branches": run.plan.width, "machines": len(self.pool)}

    def _dispatch_run(self, run: _Run) -> None:
        errors: list[BaseException] = []

        def lane(branch: frozenset[str]) -> None:
            wait_started = time.perf_counter()
            machine = self.pool.acquire()
            queue_wait = time.perf_counter() - wait_started
            try:
                if self.bus.enabled:
                    self.bus.emit(LANE_ASSIGNED, flow=run.graph.name,
                                  machine=machine.name,
                                  payload={"branch": sorted(branch)})
                # worker threads adopt the run span's context explicitly
                # (thread-locals never cross threads)
                with self.tracer.activate(run.context), self.tracer.span(
                        f"branch:{machine.name}", WAVE_SPAN,
                        attributes={"flow": run.graph.name,
                                    "machine": machine.name,
                                    "branch": sorted(branch),
                                    "queue_wait": round(queue_wait, 6)}):
                    state = _ReadySet(_invocation_graph(
                        run.graph, run.needed & branch))
                    executed = self._claim_loop(run, state, machine.name)
                    if state.errors:
                        raise state.errors[0]
                machine.executed_branches += 1
                machine.executed_invocations += executed
            except BaseException as exc:  # re-raised on the caller thread
                errors.append(exc)
            finally:
                self.pool.release(machine)

        with ThreadPoolExecutor(max_workers=len(self.pool)) as tp:
            for future in [tp.submit(lane, branch)
                           for branch in run.plan.branches]:
                future.result()
        if errors:
            raise errors[0]
        run.summary["lanes"] = run.plan.width
