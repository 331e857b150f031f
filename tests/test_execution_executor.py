"""Tests for encapsulations and the sequential flow executor."""

import pytest

from repro.errors import (EncapsulationError, ExecutionError)
from repro.execution import (DesignEnvironment, DurationModel,
                             EncapsulationRegistry, encapsulation)
from repro.obs import (PARALLEL_EXECUTOR, PROCESS_EXECUTOR,
                       SCHEDULED_EXECUTOR, SEQUENTIAL_EXECUTOR)
from repro.schema import standard as S


@pytest.fixture
def bare_env(schema, clock) -> DesignEnvironment:
    """Environment with trivial counting encapsulations (no real CAD)."""
    env = DesignEnvironment(schema, user="tester", clock=clock)
    env.calls = []  # type: ignore[attr-defined]

    def make(tool_name, result=None):
        def fn(ctx, inputs):
            env.calls.append((tool_name, ctx.tool_type,
                              sorted(inputs), dict(ctx.options)))
            if result is not None:
                return result(ctx, inputs)
            return {"made-by": tool_name, "inputs": sorted(inputs)}
        return fn

    env.install_tool(S.EXTRACTOR, encapsulation(
        "x", make("extractor", lambda ctx, ins: {
            t: {"out": t} for t in ctx.output_types})), name="x")
    env.install_tool(S.SIMULATOR, encapsulation("s", make("simulator")),
                     name="s")
    env.install_tool(S.PLOTTER, encapsulation("p", make("plotter")),
                     name="p")
    return env


class TestEncapsulationRegistry:
    def test_resolution_walks_supertypes(self, schema):
        registry = EncapsulationRegistry(schema)
        shared = encapsulation("opt", lambda ctx, ins: None)
        registry.register(S.OPTIMIZER, shared)
        assert registry.resolve(S.ANNEALING_OPTIMIZER) is shared
        assert registry.has_encapsulation(S.RANDOM_OPTIMIZER)

    def test_instance_override_wins(self, schema):
        registry = EncapsulationRegistry(schema)
        generic = encapsulation("g", lambda ctx, ins: None)
        special = encapsulation("sp", lambda ctx, ins: None)
        registry.register(S.SIMULATOR, generic)
        registry.register_for_instance("Simulator#0002", special)
        assert registry.resolve(S.SIMULATOR, "Simulator#0001") is generic
        assert registry.resolve(S.SIMULATOR, "Simulator#0002") is special

    def test_unregistered_rejected(self, schema):
        registry = EncapsulationRegistry(schema)
        with pytest.raises(EncapsulationError):
            registry.resolve(S.VERIFIER)

    def test_non_tool_registration_rejected(self, schema):
        registry = EncapsulationRegistry(schema)
        with pytest.raises(EncapsulationError):
            registry.register(S.NETLIST,
                              encapsulation("n", lambda c, i: None))

    def test_with_args_variants(self):
        base = encapsulation("base", lambda ctx, ins: ctx.options,
                             mode="fast")
        slow = base.with_args("slow", mode="slow", extra=1)
        assert base.options() == {"mode": "fast"}
        assert slow.options() == {"mode": "slow", "extra": 1}
        assert slow.name == "slow"

    def test_composition_registration(self, schema):
        registry = EncapsulationRegistry(schema)
        registry.register_composition(S.CIRCUIT, lambda ins: ins)
        assert registry.composition(S.CIRCUIT)({"a": 1}) == {"a": 1}
        with pytest.raises(EncapsulationError):
            registry.register_composition(S.NETLIST, lambda ins: ins)

    def test_default_composition_used_when_unregistered(self, schema):
        registry = EncapsulationRegistry(schema)
        compose = registry.composition(S.CIRCUIT)
        assert compose({"models": 1, "netlist": 2}) == {"models": 1,
                                                        "netlist": 2}

    def test_decomposition(self, schema):
        registry = EncapsulationRegistry(schema)
        decompose = registry.decomposition(S.CIRCUIT)
        assert decompose({"a": 1}) == {"a": 1}
        with pytest.raises(EncapsulationError):
            decompose(42)


class TestExecutor:
    def simulate_flow(self, env):
        models = env.install_data(S.DEVICE_MODELS, {"m": 1})
        netlist = env.install_data(S.EDITED_NETLIST, {"n": 1})
        stim = env.install_data(S.STIMULI, [[0]])
        flow, goal = env.goal_flow(S.PERFORMANCE)
        flow.expand(goal)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        flow.expand(circuit)
        flow.bind(flow.sole_node_of_type(S.NETLIST), netlist.instance_id)
        flow.bind(flow.sole_node_of_type(S.DEVICE_MODELS),
                  models.instance_id)
        flow.bind(flow.sole_node_of_type(S.STIMULI), stim.instance_id)
        flow.bind(flow.sole_node_of_type(S.SIMULATOR),
                  env.db.latest(S.SIMULATOR).instance_id)
        return flow, goal

    def test_executes_in_dependency_order(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        report = bare_env.run(flow)
        assert [r.tool_type for r in report.results] == [None,
                                                         S.SIMULATOR]
        assert goal.produced

    def test_derivation_recorded(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        bare_env.run(flow)
        perf = bare_env.db.get(goal.produced[0])
        assert perf.derivation is not None
        roles = dict(perf.derivation.inputs)
        assert set(roles) == {"circuit", "stimuli"}
        assert perf.derivation.tool.startswith("Simulator#")
        assert perf.user == "tester"
        assert perf.annotation_map()["flow"] == flow.name

    def test_unready_flow_rejected(self, bare_env):
        flow, goal = bare_env.goal_flow(S.PERFORMANCE)
        flow.expand(goal)
        with pytest.raises(ExecutionError, match="not ready"):
            bare_env.run(flow)

    def test_partial_execution_of_subflow(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        report = bare_env.run(flow, targets=[circuit.node_id])
        assert circuit.produced
        assert not goal.produced
        assert len(report.results) == 1

    def test_cached_results_reused(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        bare_env.run(flow)
        calls_before = len(bare_env.calls)
        report = bare_env.run(flow)
        assert len(bare_env.calls) == calls_before  # nothing re-ran
        assert report.results == []
        assert goal.node_id in report.skipped

    def test_force_re_executes(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        bare_env.run(flow)
        report = bare_env.run(flow, force=True)
        assert report.runs >= 2
        # fresh results replace the node's previous ones...
        assert goal.produced == ("Performance#0002",)
        # ...but the first run's instance stays in the history
        assert len(bare_env.db.browse(S.PERFORMANCE)) == 2

    def test_multi_output_single_run(self, bare_env):
        layout = bare_env.install_data(S.EDITED_LAYOUT, {"l": 1})
        flow = bare_env.new_flow("extract")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        stats = flow.graph.add_node(S.EXTRACTION_STATISTICS)
        flow.connect(stats, flow.sole_node_of_type(S.EXTRACTOR))
        flow.connect(stats, flow.sole_node_of_type(S.LAYOUT),
                     role="layout")
        flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  bare_env.db.latest(S.EXTRACTOR).instance_id)
        report = bare_env.run(flow)
        assert report.runs == 1
        assert len(report.created) == 2
        made = {bare_env.db.get(i).entity_type for i in report.created}
        assert made == {S.EXTRACTED_NETLIST, S.EXTRACTION_STATISTICS}
        # siblings share one invocation id
        records = [bare_env.db.get(i).derivation for i in report.created]
        assert len({r.invocation for r in records}) == 1

    def test_fanout_over_instance_set(self, bare_env):
        """Section 4.1: selecting a set runs the task per instance."""
        layouts = [bare_env.install_data(S.EDITED_LAYOUT, {"l": i})
                   for i in range(3)]
        flow = bare_env.new_flow("fan")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT),
                  *[layout.instance_id for layout in layouts])
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  bare_env.db.latest(S.EXTRACTOR).instance_id)
        report = bare_env.run(flow)
        assert report.runs == 3
        assert len(netlist.produced) == 3
        used = {dict(bare_env.db.get(i).derivation.inputs)["layout"]
                for i in netlist.produced}
        assert used == {layout.instance_id for layout in layouts}

    def test_batch_encapsulation_single_call(self, bare_env, schema):
        """Or: pass all of the data to a single call of the tool."""
        batch_calls = []

        def batch_fn(ctx, inputs):
            batch_calls.append(inputs)
            return {"batched": len(inputs["layout"])}

        instance = bare_env.db.install(S.EXTRACTOR, {}, name="batchx")
        bare_env.registry.register_for_instance(
            instance.instance_id,
            encapsulation("batchx", batch_fn, batch=True))
        layouts = [bare_env.install_data(S.EDITED_LAYOUT, {"l": i})
                   for i in range(3)]
        flow = bare_env.new_flow("batch")
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        flow.bind(flow.sole_node_of_type(S.LAYOUT),
                  *[layout.instance_id for layout in layouts])
        flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
                  instance.instance_id)
        report = bare_env.run(flow)
        assert report.runs == 1
        assert len(batch_calls) == 1
        assert len(batch_calls[0]["layout"]) == 3
        # derivation keeps every input id
        record = bare_env.db.get(netlist.produced[0]).derivation
        assert len(record.all_antecedents()) == 4  # tool + 3 layouts

    def test_downstream_of_fanout_fans_out(self, bare_env):
        """Performances for each of two stimuli sets in one flow."""
        flow, goal = self.simulate_flow(bare_env)
        stim2 = bare_env.install_data(S.STIMULI, [[1]])
        stim_node = flow.sole_node_of_type(S.STIMULI)
        flow.bind(stim_node, stim_node.bindings[0], stim2.instance_id)
        report = bare_env.run(flow)
        assert len(goal.produced) == 2

    def test_execute_node_convenience(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        circuit = flow.sole_node_of_type(S.CIRCUIT)
        bare_env.executor().execute_node(flow, circuit.node_id)
        assert circuit.produced and not goal.produced

    def test_report_accessors(self, bare_env):
        flow, goal = self.simulate_flow(bare_env)
        report = bare_env.run(flow)
        assert report.created_of_node(goal.node_id) == goal.produced
        assert report.created_of_node("n99") == ()
        assert report.runs == len(report.results)


class TestExecutionReportMerge:
    """Regression: merging parallel-lane reports must aggregate the
    timing fields correctly — wall-clock by max (lanes overlap), serial
    time by sum (it derives from the merged results)."""

    @staticmethod
    def result(duration: float):
        from repro.execution import InvocationResult

        return InvocationResult(
            "run#1", "Simulator", ("Simulator#0001",), "enc", 1,
            ("Performance#0001",), {"n0": ("Performance#0001",)},
            duration)

    def test_merge_takes_max_wall_time_not_sum(self):
        from repro.execution import ExecutionReport

        lane_a = ExecutionReport("f", results=[self.result(1.0)],
                                 wall_time=1.0)
        lane_b = ExecutionReport("f", results=[self.result(2.0)],
                                 wall_time=2.0)
        merged = ExecutionReport("f")
        merged.merge(lane_a)
        merged.merge(lane_b)
        assert merged.wall_time == 2.0  # max, not 3.0
        assert merged.serial_time == pytest.approx(3.0)
        assert len(merged.results) == 2
        assert merged.speedup == pytest.approx(1.5)

    def test_sequential_report_wall_time_measured(self, bare_env):
        flow, goal = TestExecutor().simulate_flow(bare_env)
        report = bare_env.run(flow)
        assert report.wall_time > 0
        assert report.serial_time <= report.wall_time

    def test_empty_report_has_neutral_speedup(self):
        from repro.execution import ExecutionReport

        report = ExecutionReport("f")
        assert report.wall_time == 0.0
        assert report.speedup == 1.0


class TestRunEnvelope:
    """What every executor's run envelope guarantees, whatever the
    dispatcher: one ledger record per call and a bus left as found."""

    FACTORIES = (SEQUENTIAL_EXECUTOR, PARALLEL_EXECUTOR, SCHEDULED_EXECUTOR,
                 PROCESS_EXECUTOR)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_one_ledger_record_for_a_flow_without_invocations(
            self, bare_env, tmp_path, factory):
        ledger = bare_env.attach_ledger(tmp_path / "ledger.jsonl")
        report = bare_env.executor(factory).execute(
            bare_env.new_flow("empty"))
        assert report.runs == 0
        assert len(ledger.records()) == 1

    @pytest.mark.parametrize("factory", (SCHEDULED_EXECUTOR,
                                         PROCESS_EXECUTOR))
    def test_duration_model_subscribed_only_while_executing(
            self, bare_env, factory):
        """A duration model learns while its owner keeps it subscribed
        to the environment's bus; executors never touch the bus's
        sinks themselves."""
        bus = bare_env.bus
        model = bus.subscribe(DurationModel())
        sinks = list(bus._sinks)
        executor = bare_env.executor(factory)
        assert bus._sinks == sinks
        flow, _ = TestExecutor().simulate_flow(bare_env)
        executor.execute(flow)
        assert bus._sinks == sinks
        bus.unsubscribe(model)
        assert not bus.enabled
        # the model learned from the run's events
        assert S.SIMULATOR in model.observed_types()
