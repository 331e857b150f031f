"""Extra coverage for scheduler reporting paths and duration learning."""

from repro.execution import (DesignEnvironment, DurationModel,
                             ScheduledFlowExecutor, encapsulation,
                             plan_schedule)
from repro.schema import standard as S


def noop_env(schema, clock):
    env = DesignEnvironment(schema, clock=clock)
    env.install_tool(S.EXTRACTOR,
                     encapsulation("x", lambda ctx, ins: {
                         t: {"ok": True} for t in ctx.output_types}),
                     name="x")
    return env


def extraction_flow(env):
    layout = env.install_data(S.EDITED_LAYOUT, {"l": 1})
    flow = env.new_flow("f")
    netlist = flow.place(S.EXTRACTED_NETLIST)
    flow.expand(netlist)
    flow.bind(flow.sole_node_of_type(S.LAYOUT), layout.instance_id)
    flow.bind(flow.sole_node_of_type(S.EXTRACTOR),
              env.db.latest(S.EXTRACTOR).instance_id)
    return flow


class TestDurationLearningFromReports:
    def test_observe_report(self, schema, clock):
        env = noop_env(schema, clock)
        flow = extraction_flow(env)
        report = env.run(flow)
        model = DurationModel(default=99.0)
        model.observe_report(report)
        assert model.estimate(S.EXTRACTOR) < 1.0  # learned, not default
        assert S.EXTRACTOR in model.observed_types()

    def test_learned_durations_shape_the_schedule(self, schema, clock):
        env = noop_env(schema, clock)
        flow = extraction_flow(env)
        model = DurationModel(default=1.0)
        model.record(S.EXTRACTOR, 5.0)
        schedule = plan_schedule(flow, 2, model)
        extract_entries = [e for e in schedule.entries
                           if e.tool_type == S.EXTRACTOR]
        assert extract_entries[0].end - extract_entries[0].start == 5.0


class TestScheduleRendering:
    def test_render_lists_every_entry(self, schema, clock):
        env = noop_env(schema, clock)
        flow = extraction_flow(env)
        schedule = plan_schedule(flow, 2, DurationModel(default=1.0))
        text = schedule.render()
        assert "makespan" in text
        assert S.EXTRACTOR in text
        assert "machine0" in text

    def test_empty_flow_schedule(self, schema, clock):
        env = noop_env(schema, clock)
        flow = env.new_flow("empty")
        schedule = plan_schedule(flow, 3)
        assert schedule.makespan == 0.0
        assert schedule.entries == ()
        assert schedule.predicted_speedup == 1.0

    def test_composed_entries_render_as_compose(self, stocked_env):
        env = stocked_env
        from tests.conftest import build_performance_flow

        flow, goal = build_performance_flow(
            env,
            netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        schedule = plan_schedule(flow, 1)
        assert "<compose>" in schedule.render()
        # serial schedule on one machine: makespan == serial time
        assert schedule.makespan == schedule.serial_time


class TestScheduledExecutorForce:
    def test_force_reruns(self, schema, clock):
        env = noop_env(schema, clock)
        flow = extraction_flow(env)
        executor = ScheduledFlowExecutor(env.db, env.registry, pool=2)
        first = executor.execute(flow)
        assert len(first.results) == 1
        second = executor.execute(flow, force=True)
        assert len(second.results) == 1
        assert len(env.db.browse(S.EXTRACTED_NETLIST)) == 2
