"""Tests for parallel disjoint-branch execution (Fig. 6)."""

import threading
import time

import pytest

from repro.errors import ExecutionError
from repro.execution import (DesignEnvironment, MachinePool,
                             ParallelFlowExecutor, encapsulation,
                             plan_branches)
from repro.obs import PARALLEL_EXECUTOR
from repro.schema import standard as S


@pytest.fixture
def slow_env(schema, clock) -> DesignEnvironment:
    """Environment whose extractor sleeps, to observe real concurrency."""
    env = DesignEnvironment(schema, user="tester", clock=clock)
    env.concurrent = 0          # type: ignore[attr-defined]
    env.peak_concurrent = 0     # type: ignore[attr-defined]
    gate = threading.Lock()

    def slow_extract(ctx, inputs):
        with gate:
            env.concurrent += 1
            env.peak_concurrent = max(env.peak_concurrent,
                                      env.concurrent)
        time.sleep(0.05)
        with gate:
            env.concurrent -= 1
        return {t: {"made": t} for t in ctx.output_types}

    env.install_tool(S.EXTRACTOR, encapsulation("slowx", slow_extract),
                     name="slowx")
    return env


def two_branch_flow(env):
    """Two disjoint extract branches (the Fig. 6 picture)."""
    flow = env.new_flow("fig6")
    for index in range(2):
        layout = env.install_data(S.EDITED_LAYOUT, {"i": index})
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        layout_nodes = [n for n in flow.graph.leaves()
                        if n.entity_type == S.LAYOUT and not n.is_bound]
        flow.bind(layout_nodes[0], layout.instance_id)
        tool_nodes = [n for n in flow.nodes()
                      if n.entity_type == S.EXTRACTOR and not n.is_bound]
        flow.bind(tool_nodes[0], env.db.latest(S.EXTRACTOR).instance_id)
    return flow


class TestMachinePool:
    def test_acquire_release(self):
        pool = MachinePool.local(2)
        first = pool.acquire()
        second = pool.acquire()
        assert {first.name, second.name} == {"machine0", "machine1"}
        pool.release(first)
        third = pool.acquire()
        assert third.name == first.name

    def test_empty_pool_rejected(self):
        with pytest.raises(ExecutionError):
            MachinePool([])

    def test_blocking_acquire(self):
        pool = MachinePool.local(1)
        machine = pool.acquire()
        got: list[str] = []

        def waiter():
            got.append(pool.acquire().name)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        assert got == []  # still blocked
        pool.release(machine)
        thread.join(timeout=1)
        assert got == [machine.name]


class TestBranchPlanning:
    def test_disjoint_branches_found(self, slow_env):
        flow = two_branch_flow(slow_env)
        plan = plan_branches(flow.graph)
        assert plan.width == 2

    def test_targets_filter_branches(self, slow_env):
        flow = two_branch_flow(slow_env)
        goal = flow.goals()[0]
        plan = plan_branches(flow.graph, targets=[goal.node_id])
        assert plan.width == 1


class TestParallelExecution:
    def test_branches_run_concurrently(self, slow_env):
        flow = two_branch_flow(slow_env)
        executor = slow_env.executor(PARALLEL_EXECUTOR, workers=2)
        report = executor.execute(flow)
        assert len(report.results) == 2
        assert slow_env.peak_concurrent == 2  # true overlap observed

    def test_single_machine_serializes(self, slow_env):
        flow = two_branch_flow(slow_env)
        executor = slow_env.executor(PARALLEL_EXECUTOR, workers=1)
        executor.execute(flow)
        assert slow_env.peak_concurrent == 1

    def test_machines_recorded_on_instances(self, slow_env):
        flow = two_branch_flow(slow_env)
        pool = MachinePool.local(2)
        executor = ParallelFlowExecutor(slow_env.db, slow_env.registry,
                                        user="tester", pool=pool)
        executor.execute(flow)
        machines_used = {
            i.annotation_map().get("machine")
            for i in slow_env.db.browse(S.EXTRACTED_NETLIST)}
        assert machines_used <= {"machine0", "machine1"}
        assert sum(m.executed_branches for m in pool.machines()) == 2

    def test_history_consistent_after_parallel_run(self, slow_env):
        flow = two_branch_flow(slow_env)
        slow_env.executor(PARALLEL_EXECUTOR, workers=2).execute(flow)
        for instance in slow_env.db.browse(S.EXTRACTED_NETLIST):
            record = instance.derivation
            assert record is not None
            layout = slow_env.db.get(record.input_map()["layout"])
            assert layout.entity_type == S.EDITED_LAYOUT

    def test_parallel_speedup_wallclock(self, slow_env):
        """Two 50ms branches should take well under 2x50ms on 2 machines."""
        flow = two_branch_flow(slow_env)
        started = time.perf_counter()
        slow_env.executor(PARALLEL_EXECUTOR, workers=2).execute(flow)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.095

    def test_error_in_branch_propagates(self, slow_env):
        def broken(ctx, inputs):
            raise RuntimeError("tool crashed")

        instance = slow_env.db.install(S.EXTRACTOR, {}, name="broken")
        slow_env.registry.register_for_instance(
            instance.instance_id, encapsulation("broken", broken))
        flow = slow_env.new_flow("crash")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        layout = slow_env.install_data(S.EDITED_LAYOUT, {})
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  instance.instance_id)
        with pytest.raises(RuntimeError, match="tool crashed"):
            slow_env.executor(PARALLEL_EXECUTOR, workers=2).execute(flow)

    def test_empty_flow(self, slow_env):
        flow = slow_env.new_flow("empty")
        report = slow_env.executor(PARALLEL_EXECUTOR).execute(flow)
        assert report.results == []
