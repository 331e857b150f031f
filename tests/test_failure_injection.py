"""Failure injection: the framework under misbehaving tools and data.

The history database is the ground truth of the design process, so the
key property under failure is *atomicity*: a failed invocation records
nothing, completed upstream invocations keep their results, and a repaired
re-run continues from the cache instead of redoing work.
"""

import pytest

from repro.errors import (EncapsulationError, ExecutionError, HistoryError)
from repro.execution import DesignEnvironment, encapsulation
from repro.obs import PARALLEL_EXECUTOR
from repro.schema import standard as S


@pytest.fixture
def env(schema, clock) -> DesignEnvironment:
    return DesignEnvironment(schema, user="chaos", clock=clock)


def extraction_flow(env, extractor_id):
    layout = env.install_data(S.EDITED_LAYOUT, {"l": 1})
    flow = env.new_flow("f")
    netlist = flow.place(S.EXTRACTED_NETLIST)
    flow.expand(netlist)
    flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
    flow.bind(flow.sole_node_of_type(S.EXTRACTOR), extractor_id)
    return flow, netlist


class TestToolCrashes:
    def test_failed_invocation_records_nothing(self, env):
        def broken(ctx, inputs):
            raise RuntimeError("segfault, probably")

        tool = env.install_tool(S.EXTRACTOR,
                                encapsulation("broken", broken))
        flow, netlist = extraction_flow(env, tool.instance_id)
        before = len(env.db)
        with pytest.raises(RuntimeError):
            env.run(flow)
        assert len(env.db) == before  # nothing half-recorded
        assert netlist.produced == ()

    def test_upstream_results_survive_downstream_crash(self, env):
        calls = {"count": 0}

        def extract_ok(ctx, inputs):
            calls["count"] += 1
            return {t: {"made": t} for t in ctx.output_types}

        def simulate_broken(ctx, inputs):
            raise RuntimeError("license server down")

        env.install_tool(S.EXTRACTOR, encapsulation("x", extract_ok),
                         name="x")
        env.install_tool(S.SIMULATOR,
                         encapsulation("s", simulate_broken), name="s")
        layout = env.install_data(S.EDITED_LAYOUT, {"l": 1})
        models = env.install_data(S.DEVICE_MODELS, {"m": 1})
        stim = env.install_data(S.STIMULI, [[0]])
        flow, goal = env.goal_flow(S.PERFORMANCE)
        flow.expand(goal)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        flow.expand(circuit)
        netlist = flow.sole_node_of_type(S.NETLIST)
        flow.specialize(netlist, S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.DEVICE_MODELS),
                  models.instance_id)
        flow.bind(flow.sole_node_of_type(S.STIMULI), stim.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  env.db.latest(S.EXTRACTOR).instance_id)
        flow.bind(flow.sole_node_of_type(S.SIMULATOR),
                  env.db.latest(S.SIMULATOR).instance_id)
        with pytest.raises(RuntimeError, match="license"):
            env.run(flow)
        # extraction and composition succeeded and are in the history
        assert netlist.produced
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1
        assert len(env.db.browse(S.PERFORMANCE)) == 0

        # repair the simulator and re-run: cached results are reused
        env.registry.register_for_instance(
            env.db.latest(S.SIMULATOR).instance_id,
            encapsulation("fixed", lambda ctx, ins: {"ok": True}))
        extract_calls_before = calls["count"]
        report = env.run(flow)
        assert calls["count"] == extract_calls_before  # not re-run
        assert goal.produced
        assert len(report.results) == 1  # only the repaired simulation

    def test_partial_fanout_crash(self, env):
        """A crash mid-fan-out keeps the combos that completed."""
        state = {"runs": 0}

        def flaky(ctx, inputs):
            state["runs"] += 1
            if state["runs"] == 2:
                raise RuntimeError("disk full")
            return {t: {"n": state["runs"]} for t in ctx.output_types}

        tool = env.install_tool(S.EXTRACTOR,
                                encapsulation("flaky", flaky))
        layouts = [env.install_data(S.EDITED_LAYOUT, {"l": i})
                   for i in range(3)]
        flow = env.new_flow("fan")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT),
                  *[layout.instance_id for layout in layouts])
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  tool.instance_id)
        with pytest.raises(RuntimeError, match="disk full"):
            env.run(flow)
        # the first combo completed and is in the history
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1


class TestBadEncapsulations:
    def test_missing_output_type_rejected(self, env):
        def half(ctx, inputs):
            return {S.EXTRACTED_NETLIST: {"only": "one"}}  # stats missing

        tool = env.install_tool(S.EXTRACTOR, encapsulation("half", half))
        layout = env.install_data(S.EDITED_LAYOUT, {})
        flow = env.new_flow("f")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        stats = flow.graph.add_node(S.EXTRACTION_STATISTICS)
        flow.expand(netlist)
        flow.connect(stats, flow.sole_node_of_type(S.EXTRACTOR))
        flow.connect(stats, flow.sole_node_of_type(S.LAYOUT),
                     role="layout")
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  tool.instance_id)
        with pytest.raises(ExecutionError, match="must return a dict"):
            env.run(flow)

    def test_unregistered_tool_type(self, env):
        layout = env.install_data(S.EDITED_LAYOUT, {})
        tool = env.db.install(S.EXTRACTOR, {}, name="bare")
        flow, netlist = extraction_flow(env, tool.instance_id)
        with pytest.raises(EncapsulationError, match="no encapsulation"):
            env.run(flow)

    def test_unserializable_result_rejected(self, env):
        class Mystery:
            pass

        def weird(ctx, inputs):
            return {t: Mystery() for t in ctx.output_types}

        tool = env.install_tool(S.EXTRACTOR,
                                encapsulation("weird", weird))
        flow, netlist = extraction_flow(env, tool.instance_id)
        before = len(env.db)
        with pytest.raises(HistoryError, match="no codec"):
            env.run(flow)
        assert len(env.db) == before
        assert netlist.produced == ()


class TestParallelFailures:
    def test_other_branches_complete(self, env):
        import threading

        gate = threading.Event()

        def good(ctx, inputs):
            gate.wait(timeout=2)
            return {t: {"ok": True} for t in ctx.output_types}

        def bad(ctx, inputs):
            gate.set()
            raise RuntimeError("branch down")

        good_tool = env.install_tool(S.EXTRACTOR,
                                     encapsulation("good", good),
                                     name="good")
        bad_tool = env.db.install(S.EXTRACTOR, {}, name="bad")
        env.registry.register_for_instance(bad_tool.instance_id,
                                           encapsulation("bad", bad))
        flow = env.new_flow("two")
        for tool in (good_tool, bad_tool):
            layout = env.install_data(S.EDITED_LAYOUT,
                                      {"for": tool.instance_id})
            netlist = flow.place(S.EXTRACTED_NETLIST)
            unexpanded = [n for n in flow.nodes()
                          if n.entity_type == S.EXTRACTED_NETLIST
                          and not flow.graph.is_expanded(n.node_id)]
            flow.expand(unexpanded[0])
            unbound_layouts = [n for n in flow.nodes()
                               if n.entity_type == S.LAYOUT
                               and not n.is_bound]
            flow.bind(unbound_layouts[0], layout.instance_id)
            unbound_tools = [n for n in flow.nodes()
                             if n.entity_type == S.EXTRACTOR
                             and not n.is_bound]
            flow.bind(unbound_tools[0], tool.instance_id)
        executor = env.executor(PARALLEL_EXECUTOR, workers=2)
        with pytest.raises(RuntimeError, match="branch down"):
            executor.execute(flow)
        # the good branch finished and recorded its result
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 1
