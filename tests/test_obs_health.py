"""Tests for the run ledger and longitudinal health checks."""

import json

import pytest

from repro.errors import ObservabilityError, ToolError
from repro.execution import encapsulation
from repro.execution.executor import ExecutionReport, InvocationResult
from repro.obs import (FAIL, OK, PARALLEL_EXECUTOR, SCHEDULED_EXECUTOR,
                       WARN, HealthThresholds, JSONLSink,
                       RunLedger, RunRecord, ToolRunStats,
                       evaluate_health, render_json,
                       render_prometheus_ledger, timer_stats_of,
                       tool_baselines)
from repro.obs.health import (check_cache_hit_rate, check_error_rate,
                              check_parallelism_efficiency,
                              check_tool_duration_drift)
from repro.persistence import (LEDGER_FILE, load_environment,
                               save_environment)
from repro.schema import standard as S
from tests.conftest import build_performance_flow


def make_report(flow="f", durations=(0.02,), tool=S.SIMULATOR):
    report = ExecutionReport(flow)
    for index, duration in enumerate(durations):
        report.results.append(InvocationResult(
            invocation_id=f"i{index}", tool_type=tool,
            tool_instances=(), encapsulation="e", runs=1,
            created=(f"X#{index:04d}",), outputs_by_node={},
            duration=duration))
    report.wall_time = sum(durations)
    return report


def make_record(tool_mean=0.05, *, tool=S.SIMULATOR, flow="f",
                executor="sequential", errors=0, error="",
                cache_policy="off", cache_hits=0, cache_misses=0,
                parallelism=1.0, pool_size=0, run_id="",
                trace_id=""):
    return RunRecord(
        run_id=run_id or f"r{tool_mean}", timestamp=1.0, flow=flow,
        executor=executor, cache_policy=cache_policy,
        trace_id=trace_id, wall_time=tool_mean,
        serial_time=tool_mean * parallelism, parallelism=parallelism,
        pool_size=pool_size,
        runs=1, created=1, cache_hits=cache_hits,
        cache_misses=cache_misses, errors=errors, error=error,
        tools={tool: ToolRunStats(1, 1, timer_stats_of([tool_mean]))})


THRESHOLDS = HealthThresholds()


class TestRunRecord:
    def test_from_report_groups_by_tool_type(self):
        report = make_report(durations=(0.01, 0.03))
        report.results.append(InvocationResult(
            invocation_id="c", tool_type=None, tool_instances=(),
            encapsulation="compose", runs=1, created=("Y#0001",),
            outputs_by_node={}, duration=0.002))
        record = RunRecord.from_report(report, executor="sequential")
        assert set(record.tools) == {S.SIMULATOR, "@compose"}
        stats = record.tools[S.SIMULATOR]
        assert stats.invocations == 2
        assert stats.duration.mean == pytest.approx(0.02)
        assert record.runs == 3
        assert record.created == 3

    def test_cache_miss_heuristic_counts_executed_runs(self):
        report = make_report(durations=(0.01, 0.01))
        off = RunRecord.from_report(report, executor="sequential")
        assert (off.cache_misses, off.cache_lookups) == (0, 0)
        cached = RunRecord.from_report(report, executor="sequential",
                                       cache_policy="reuse")
        assert cached.cache_misses == 2
        assert cached.cache_hit_rate == 0.0

    def test_roundtrip_via_dict(self):
        record = make_record(0.02, errors=1, error="boom",
                             trace_id="t1", parallelism=2.5)
        clone = RunRecord.from_dict(
            json.loads(render_json(record.to_dict())))
        assert clone == record

    def test_unsupported_major_version_rejected(self):
        spec = make_record(0.02).to_dict()
        spec["schema_version"] = "ledger2.v9"
        with pytest.raises(ObservabilityError):
            RunRecord.from_dict(spec)

    def test_render_mentions_run_and_errors(self):
        text = make_record(0.02, errors=1, run_id="abc123").render()
        assert "abc123" in text
        assert "ERRORS=1" in text


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(make_record(0.01, run_id="a1"))
        ledger.append(make_record(0.02, run_id="b2"))
        assert [r.run_id for r in ledger.records()] == ["a1", "b2"]
        assert len(ledger) == 2
        assert [r.run_id for r in ledger.last(1)] == ["b2"]

    def test_missing_file_is_an_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "absent.jsonl")
        assert ledger.records() == ()
        assert len(ledger) == 0

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(make_record(0.01, run_id="ok1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn')  # killed mid-write
        assert [r.run_id for r in ledger.records()] == ["ok1"]

    def test_find_accepts_unambiguous_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(make_record(0.01, run_id="abc123"))
        ledger.append(make_record(0.02, run_id="abd456"))
        assert ledger.find("abc").run_id == "abc123"
        assert ledger.find("abd456").run_id == "abd456"
        with pytest.raises(ObservabilityError, match="ambiguous"):
            ledger.find("ab")
        with pytest.raises(ObservabilityError, match="no run"):
            ledger.find("zzz")

    def test_for_trace_joins_latest_matching_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(make_record(0.01, run_id="a1", trace_id="t1"))
        ledger.append(make_record(0.02, run_id="b2", trace_id="t1"))
        assert ledger.for_trace("t1").run_id == "b2"
        assert ledger.for_trace("t9") is None
        assert ledger.for_trace("") is None

    def test_record_run_swallows_write_failures(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("", encoding="utf-8")
        ledger = RunLedger(blocker / "ledger.jsonl")
        result = ledger.record_run(make_report(),
                                   executor="sequential")
        assert result is None  # the design run must not fail


class TestBaselines:
    def test_median_mad_and_floors(self):
        records = [make_record(mean) for mean in (0.10, 0.12, 0.14)]
        base = tool_baselines(records)[S.SIMULATOR]
        assert base.samples == 3
        assert base.median == pytest.approx(0.12)
        assert base.mad == pytest.approx(0.02)
        # MAD term: 4 * 1.4826 * 0.02 ≈ 0.119 dominates both floors
        assert base.threshold == pytest.approx(4 * 1.4826 * 0.02)

    def test_relative_floor_guards_tight_baselines(self):
        records = [make_record(0.10) for _ in range(4)]  # MAD == 0
        base = tool_baselines(records)[S.SIMULATOR]
        assert base.threshold == pytest.approx(0.025)  # 0.25 * median

    def test_absolute_floor_guards_fast_tools(self):
        records = [make_record(0.001) for _ in range(4)]
        base = tool_baselines(records)[S.SIMULATOR]
        assert base.threshold == pytest.approx(0.010)

    def test_error_runs_and_old_runs_excluded(self):
        records = [make_record(9.0)] + \
            [make_record(0.1) for _ in range(25)] + \
            [make_record(9.0, errors=1)]
        base = tool_baselines(records, window=20)[S.SIMULATOR]
        assert base.samples == 20
        assert base.median == pytest.approx(0.1)


class TestHealthChecks:
    def test_drift_fail_warn_and_ok(self):
        baseline = [make_record(0.10) for _ in range(5)]
        fail = check_tool_duration_drift(make_record(0.20), baseline,
                                         THRESHOLDS)
        assert fail.verdict == FAIL
        assert S.SIMULATOR in fail.detail
        warn = check_tool_duration_drift(make_record(0.118), baseline,
                                         THRESHOLDS)
        assert warn.verdict == WARN
        ok = check_tool_duration_drift(make_record(0.10), baseline,
                                       THRESHOLDS)
        assert ok.verdict == OK

    def test_drift_needs_min_samples(self):
        result = check_tool_duration_drift(
            make_record(9.9), [make_record(0.1)], THRESHOLDS)
        assert result.verdict == OK

    def test_error_rate_spike_vs_unstable_baseline(self):
        clean = [make_record(0.1) for _ in range(4)]
        spike = check_error_rate(make_record(0.1, errors=1, error="x"),
                                 clean, THRESHOLDS)
        assert spike.verdict == FAIL
        flaky = [make_record(0.1, errors=(i % 2)) for i in range(4)]
        tolerated = check_error_rate(make_record(0.1, errors=1),
                                     flaky, THRESHOLDS)
        assert tolerated.verdict == WARN
        no_base = check_error_rate(make_record(0.1, errors=1), [],
                                   THRESHOLDS)
        assert no_base.verdict == WARN
        healthy = check_error_rate(make_record(0.1), clean, THRESHOLDS)
        assert healthy.verdict == OK

    def test_cache_hit_rate_collapse(self):
        good = [make_record(0.1, cache_policy="reuse", cache_hits=8,
                            cache_misses=2) for _ in range(3)]
        collapsed = check_cache_hit_rate(
            make_record(0.1, cache_policy="reuse", cache_hits=1,
                        cache_misses=9), good, THRESHOLDS)
        assert collapsed.verdict == FAIL
        dipped = check_cache_hit_rate(
            make_record(0.1, cache_policy="reuse", cache_hits=6,
                        cache_misses=4), good, THRESHOLDS)
        assert dipped.verdict == WARN
        steady = check_cache_hit_rate(
            make_record(0.1, cache_policy="reuse", cache_hits=8,
                        cache_misses=2), good, THRESHOLDS)
        assert steady.verdict == OK
        uncached = check_cache_hit_rate(make_record(0.1), good,
                                        THRESHOLDS)
        assert uncached.verdict == OK

    def test_parallelism_degradation_same_executor_only(self):
        peers = [make_record(0.1, executor="parallel",
                             parallelism=3.8) for _ in range(3)]
        degraded = check_parallelism_efficiency(
            make_record(0.1, executor="parallel", parallelism=1.5),
            peers, THRESHOLDS)
        assert degraded.verdict == FAIL
        other = check_parallelism_efficiency(
            make_record(0.1, executor="sequential", parallelism=1.0),
            peers, THRESHOLDS)
        assert other.verdict == OK  # different executor: no peers

    def test_efficiency_drift_normalized_by_pool_size(self):
        # same raw parallelism, but it took 4x the slots to get it:
        # the worker-normalized gate must fail where raw drift passes
        peers = [make_record(0.1, executor="procpool",
                             parallelism=3.2, pool_size=4,
                             run_id=f"p{i}") for i in range(3)]
        bloated = check_parallelism_efficiency(
            make_record(0.1, executor="procpool", parallelism=3.2,
                        pool_size=16),
            peers, THRESHOLDS)
        assert bloated.verdict == FAIL
        assert "efficiency" in bloated.detail
        steady = check_parallelism_efficiency(
            make_record(0.1, executor="procpool", parallelism=3.2,
                        pool_size=4),
            peers, THRESHOLDS)
        assert steady.verdict == OK
        assert "efficiency" in steady.detail

    def test_efficiency_gate_needs_pool_size_on_the_wire(self):
        # pre-PR-10 ledgers carry no pool_size: the normalized gate
        # sits out and only raw drift can speak
        peers = [make_record(0.1, executor="procpool",
                             parallelism=3.2, run_id=f"p{i}")
                 for i in range(3)]
        legacy = check_parallelism_efficiency(
            make_record(0.1, executor="procpool", parallelism=3.0,
                        pool_size=16),
            peers, THRESHOLDS)
        assert legacy.verdict == OK
        assert "efficiency" not in legacy.detail

    def test_efficiency_floor_never_gates_serial_flows(self):
        # a flow without parallel work has baseline efficiency under
        # the floor; shrinking it further must not flake
        peers = [make_record(0.1, executor="procpool",
                             parallelism=2.0, pool_size=16,
                             run_id=f"p{i}") for i in range(3)]
        quiet = check_parallelism_efficiency(
            make_record(0.1, executor="procpool", parallelism=1.8,
                        pool_size=16),
            peers, THRESHOLDS)
        assert quiet.verdict == OK
        assert "below gating floor" in quiet.detail

    def test_pool_size_roundtrips_optionally(self):
        record = make_record(0.1, executor="procpool",
                             parallelism=3.0, pool_size=8)
        spec = record.to_dict()
        assert spec["pool_size"] == 8
        assert RunRecord.from_dict(spec).pool_size == 8
        assert "pool=8" in record.render()
        legacy = make_record(0.1)
        assert "pool_size" not in legacy.to_dict()
        assert RunRecord.from_dict(legacy.to_dict()).pool_size == 0

    def test_evaluate_health_empty_and_exit_codes(self):
        empty = evaluate_health([])
        assert empty.run is None
        assert empty.exit_code == 0
        assert "no runs" in empty.render()
        records = [make_record(0.10) for _ in range(4)] \
            + [make_record(0.30, run_id="slow")]
        report = evaluate_health(records)
        assert report.run.run_id == "slow"
        assert report.verdict == FAIL
        assert report.exit_code == 1
        assert [c.name for c in report.failures] == \
            ["tool-duration-drift"]
        payload = json.loads(render_json(report.to_dict()))
        assert payload["verdict"] == "fail"
        assert payload["run"]["run_id"] == "slow"
        healthy = evaluate_health(records[:-1])
        assert healthy.exit_code == 0


class TestPrometheusLedgerExport:
    def test_totals_and_last_run_series(self):
        records = [make_record(0.1, flow="f6", executor="parallel",
                               run_id=f"r{i}", parallelism=3.0)
                   for i in range(3)]
        text = render_prometheus_ledger(records)
        assert "# TYPE repro_runs_total counter\nrepro_runs_total 3" \
            in text
        assert 'flow="f6"' in text
        assert f'tool="{S.SIMULATOR}",quantile="0.5"' in text or \
            f'quantile="0.5",tool="{S.SIMULATOR}"' in text
        assert "repro_run_tool_duration_seconds_count" in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        record = make_record(0.1, flow='we"ird\\flow')
        text = render_prometheus_ledger([record])
        assert 'flow="we\\"ird\\\\flow"' in text

    def test_empty_ledger_renders_only_totals(self):
        text = render_prometheus_ledger([])
        assert "repro_runs_total 0" in text
        assert "gauge" not in text


def simulate_flow(env):
    return build_performance_flow(
        env,
        netlist_id=env.netlist.instance_id,
        models_id=env.models.instance_id,
        stimuli_id=env.stimuli.instance_id,
        simulator_id=env.tools[S.SIMULATOR].instance_id)


class TestExecutorWiring:
    def test_sequential_run_appends_one_record(self, stocked_env,
                                               tmp_path):
        ledger = stocked_env.attach_ledger(tmp_path / "ledger.jsonl")
        flow, goal = simulate_flow(stocked_env)
        report = stocked_env.run(flow)
        (record,) = ledger.records()
        assert record.executor == "sequential"
        assert record.flow == flow.graph.name
        assert record.runs == report.runs
        assert record.created == len(report.created)
        assert S.SIMULATOR in record.tools
        assert record.errors == 0

    def test_parallel_run_appends_exactly_one_record(self, stocked_env,
                                                     tmp_path):
        ledger = stocked_env.attach_ledger(tmp_path / "ledger.jsonl")
        flow = stocked_env.new_flow("par")
        for _ in range(2):
            flow.expand(flow.place(S.CIRCUIT))
        for node in flow.nodes():
            if node.entity_type == S.NETLIST:
                flow.bind(node, stocked_env.netlist.instance_id)
            elif node.entity_type == S.DEVICE_MODELS:
                flow.bind(node, stocked_env.models.instance_id)
        stocked_env.executor(PARALLEL_EXECUTOR, workers=2).execute(flow)
        (record,) = ledger.records()
        assert record.executor == "parallel"
        assert record.runs == 2

    def test_scheduled_run_appends_one_record(self, stocked_env,
                                              tmp_path):
        ledger = stocked_env.attach_ledger(tmp_path / "ledger.jsonl")
        flow, goal = simulate_flow(stocked_env)
        stocked_env.executor(SCHEDULED_EXECUTOR, workers=2).execute(flow)
        (record,) = ledger.records()
        assert record.executor == "scheduled"

    def test_failed_run_is_recorded_with_error(self, stocked_env,
                                               tmp_path):
        ledger = stocked_env.attach_ledger(tmp_path / "ledger.jsonl")

        def explode(ctx, inputs):
            raise ToolError("simulator crashed")

        stocked_env.registry.register(S.SIMULATOR,
                                      encapsulation("boom", explode))
        flow, goal = simulate_flow(stocked_env)
        with pytest.raises(ToolError):
            stocked_env.run(flow)
        (record,) = ledger.records()
        assert record.errors == 1
        assert "simulator crashed" in record.error

    def test_traced_run_joins_ledger_via_trace_id(self, stocked_env,
                                                  tmp_path):
        ledger = stocked_env.attach_ledger(tmp_path / "ledger.jsonl")
        sink = JSONLSink(tmp_path / "trace.jsonl")
        stocked_env.tracer.subscribe(sink)
        flow, goal = simulate_flow(stocked_env)
        report = stocked_env.run(flow)
        sink.close()
        (record,) = ledger.records()
        assert record.trace_id == stocked_env.tracer.last_trace_id
        instance = stocked_env.db.get(report.created[-1])
        assert ledger.for_trace(instance.trace_id) == record

    def test_no_ledger_no_file(self, stocked_env, tmp_path):
        flow, goal = simulate_flow(stocked_env)
        stocked_env.run(flow)
        assert list(tmp_path.iterdir()) == []


class TestPersistenceWiring:
    def test_loaded_environment_records_runs(self, stocked_env,
                                             tmp_path):
        flow, goal = simulate_flow(stocked_env)
        stocked_env.save_flow("simulate", flow)
        save_environment(stocked_env, tmp_path / "envdir")
        loaded = load_environment(tmp_path / "envdir")
        assert loaded.ledger is not None
        assert loaded.ledger.path == tmp_path / "envdir" / LEDGER_FILE
        assert loaded.ledger.records() == ()  # pre-ledger: no error
        from repro.tools import register_standard_encapsulations
        register_standard_encapsulations(loaded)
        loaded.run(loaded.plan_flow("simulate"))
        assert len(loaded.ledger.records()) == 1

    def test_read_only_directory_disables_recording(self, stocked_env,
                                                    tmp_path,
                                                    monkeypatch):
        save_environment(stocked_env, tmp_path / "envdir")
        import repro.persistence as persistence
        monkeypatch.setattr(persistence.os, "access",
                            lambda *args: False)
        loaded = load_environment(tmp_path / "envdir")
        assert loaded.ledger is None
