"""Tests for the derivation-keyed incremental re-execution cache."""

import json

import pytest

from repro.cli import main
from repro.errors import ExecutionError
from repro.execution import (CACHE_OFF, CACHE_READWRITE, CACHE_REUSE,
                             DerivationCache, DesignEnvironment,
                             DurationModel, encapsulation,
                             fingerprint_callable, normalize_policy)
from repro.history.store import BACKENDS
from repro.obs import PARALLEL_EXECUTOR, SCHEDULED_EXECUTOR
from repro.persistence import (MEMO_FILE, load_environment,
                               save_environment)
from repro.schema import standard as S
from repro.tools import register_standard_encapsulations
from tests.conftest import build_performance_flow


@pytest.fixture
def counting_env(schema, clock) -> DesignEnvironment:
    """Environment whose tools count their invocations."""
    env = DesignEnvironment(schema, user="tester", clock=clock)
    env.calls = []  # type: ignore[attr-defined]

    def make(tool_name, result=None):
        def fn(ctx, inputs):
            env.calls.append((tool_name, sorted(inputs)))
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


def simulate_flow(env):
    models = env.install_data(S.DEVICE_MODELS, {"m": 1})
    netlist = env.install_data(S.EDITED_NETLIST, {"n": 1})
    stim = env.install_data(S.STIMULI, [[0]])
    flow, goal = build_performance_flow(
        env, netlist_id=netlist.instance_id, models_id=models.instance_id,
        stimuli_id=stim.instance_id,
        simulator_id=env.db.latest(S.SIMULATOR).instance_id)
    return flow, goal


def stocked_flow(env, stock):
    """The simulate-performance flow over ``stock``'s installed ids."""
    flow, _ = build_performance_flow(
        env, netlist_id=stock.netlist.instance_id,
        models_id=stock.models.instance_id,
        stimuli_id=stock.stimuli.instance_id,
        simulator_id=stock.tools[S.SIMULATOR].instance_id)
    return flow


def reload(directory):
    env = load_environment(directory)
    register_standard_encapsulations(env)
    return env


class TestPolicies:
    def test_normalize(self):
        assert normalize_policy(None) == CACHE_OFF
        assert normalize_policy("reuse") == CACHE_REUSE
        assert normalize_policy("readwrite") == CACHE_READWRITE
        with pytest.raises(ExecutionError):
            normalize_policy("sometimes")

    def test_off_policy_is_inert(self, counting_env):
        """cache=off must behave byte-identically to no cache at all."""
        flow, goal = simulate_flow(counting_env)
        report = counting_env.run(flow, cache="off")
        assert counting_env._cache is None  # never even constructed
        assert report.cache_hits == 0 and not report.cached
        assert len(counting_env.calls) == 1  # simulator only
        # rerun with force still executes, exactly as without a cache
        counting_env.run(flow, force=True, cache="off")
        assert len(counting_env.calls) == 2


class TestReuse:
    def test_warm_rerun_is_fully_coalesced(self, counting_env):
        flow, goal = simulate_flow(counting_env)
        cold = counting_env.run(flow, cache="readwrite")
        calls_after_cold = len(counting_env.calls)
        flow2, goal2 = build_performance_flow(
            counting_env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        warm = counting_env.run(flow2, cache="reuse")
        assert len(counting_env.calls) == calls_after_cold  # no tool ran
        assert not warm.results
        assert warm.cache_hits == 2  # circuit composition + simulation
        assert sorted(warm.reused) == sorted(cold.created)
        assert goal2.produced  # goal node carries the reused instance

    def test_fresh_run_is_keyed_once(self, counting_env, monkeypatch):
        """The executor keys a cold run; storing it never re-keys it."""
        keyed = []
        original = DerivationCache.tool_run_key

        def counting(cache, *args, **kwargs):
            keyed.append(args[0])
            return original(cache, *args, **kwargs)

        monkeypatch.setattr(DerivationCache, "tool_run_key", counting)
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        assert len(keyed) == len(counting_env.calls) == 1

    def test_force_bypasses_cache_reads(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)
        forced = counting_env.run(flow, force=True, cache="readwrite")
        assert forced.cache_hits == 0
        assert len(counting_env.calls) == calls + 1

    def test_hits_are_reported_and_skip_duration_model(self, counting_env):
        from repro.obs import (CACHE_HIT, COMPOSITION_RUN, TOOL_FINISHED,
                               RingBufferSink)
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        sink = RingBufferSink(64)
        counting_env.bus.subscribe(sink)
        flow2, _ = build_performance_flow(
            counting_env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        counting_env.run(flow2, cache="reuse")
        kinds = [e.event_type for e in sink.events()]
        assert kinds.count(CACHE_HIT) == 2
        assert TOOL_FINISHED not in kinds  # hits never feed timing
        assert COMPOSITION_RUN not in kinds


class TestOtherExecutors:
    def warm_pair(self, env):
        flow, _ = simulate_flow(env)
        cold = env.run(flow, cache="readwrite")
        flow2, _ = build_performance_flow(
            env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        return cold, flow2

    def test_parallel_executor_reuses(self, counting_env):
        cold, flow2 = self.warm_pair(counting_env)
        calls = len(counting_env.calls)
        executor = counting_env.executor(PARALLEL_EXECUTOR, workers=2,
                                         cache="reuse")
        warm = executor.execute(flow2)
        assert len(counting_env.calls) == calls
        assert warm.cache_hits == 2
        assert sorted(warm.reused) == sorted(cold.created)

    def test_scheduled_executor_reuses(self, counting_env):
        cold, flow2 = self.warm_pair(counting_env)
        calls = len(counting_env.calls)
        model = counting_env.bus.subscribe(DurationModel())
        warm = counting_env.executor(SCHEDULED_EXECUTOR, workers=2,
                                     cache="reuse").execute(flow2)
        assert len(counting_env.calls) == calls
        assert warm.cache_hits == 2
        assert sorted(warm.reused) == sorted(cold.created)
        # zero-cost hits: the duration model never saw the cached runs
        assert model.observed_types() == ()


class TestInvalidation:
    def test_edited_input_misses(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)
        other_netlist = counting_env.install_data(
            S.EDITED_NETLIST, {"n": 2})
        flow2, _ = build_performance_flow(
            counting_env, netlist_id=other_netlist.instance_id,
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        report = counting_env.run(flow2, cache="reuse")
        assert report.cache_hits == 0
        assert len(counting_env.calls) == calls + 1

    def test_reregistered_tool_invalidates(self, counting_env):
        flow, _ = simulate_flow(counting_env)
        counting_env.run(flow, cache="readwrite")
        calls = len(counting_env.calls)

        def rewritten(ctx, inputs):
            counting_env.calls.append(("simulator-v2", sorted(inputs)))
            return {"made-by": "v2"}

        counting_env.registry.register(
            S.SIMULATOR, encapsulation("s2", rewritten))
        # the pre-rewrite result must not satisfy the new key: the
        # simulator runs again even though its inputs are unchanged
        flow2, _ = build_performance_flow(
            counting_env,
            netlist_id=flow.sole_node_of_type(S.NETLIST).bindings[0],
            models_id=flow.sole_node_of_type(
                S.DEVICE_MODELS).bindings[0],
            stimuli_id=flow.sole_node_of_type(S.STIMULI).bindings[0],
            simulator_id=flow.sole_node_of_type(S.SIMULATOR).bindings[0])
        report = counting_env.run(flow2, cache="reuse")
        assert counting_env.calls[-1][0] == "simulator-v2"
        assert len(counting_env.calls) == calls + 1
        # the circuit composition is untouched, so it still coalesces
        assert report.cache_hits == 1

    def test_stale_history_is_not_reused(self, stocked_env):
        """A cached result whose inputs were superseded is skipped."""
        env = stocked_env
        flow, goal = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        cold = env.run(flow, cache="readwrite")
        # supersede the netlist through an editing task so the cached
        # performance becomes version-wise stale
        from repro.tools import edit_session
        session = edit_session(env, S.CIRCUIT_EDITOR, [
            {"op": "rename", "name": "mux-v2"}], name="fix")
        edit_flow, edit_goal = env.goal_flow(S.EDITED_NETLIST)
        edit_flow.expand(edit_goal, include_optional=["previous"])
        previous = edit_flow.graph.data_suppliers(
            edit_goal.node_id)["previous"]
        edit_flow.bind(edit_flow.node(previous), env.netlist.instance_id)
        edit_flow.bind(edit_flow.sole_node_of_type(S.CIRCUIT_EDITOR),
                       session.instance_id)
        env.run(edit_flow)
        assert env.is_stale(cold.created[-1])
        flow2, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        warm = env.run(flow2, cache="reuse")
        assert warm.cache_hits == 0
        assert env.cache.stats.invalidated >= 1

    def test_optional_input_presence_changes_key(self, stocked_env):
        """SimArgs is optional on Performance: bound vs absent differ."""
        env = stocked_env
        cache = env.cache
        sim_args = env.install_data(S.SIM_ARGS, {"step": 0.1})
        sim_id = env.tools[S.SIMULATOR].instance_id
        combo_without = {"netlist": env.netlist.instance_id}
        combo_with = {"netlist": env.netlist.instance_id,
                      "args": sim_args.instance_id}
        key_without = cache.tool_run_key(sim_id, combo_without,
                                         [S.PERFORMANCE])
        key_with = cache.tool_run_key(sim_id, combo_with,
                                      [S.PERFORMANCE])
        assert key_without != key_with


class TestFingerprints:
    def test_nested_code_objects_are_stable(self):
        def with_comprehension(ctx, inputs):
            return {k: v for k, v in inputs.items()}

        first = fingerprint_callable(with_comprehension)
        second = fingerprint_callable(with_comprehension)
        assert first == second
        assert "0x" not in first

    def test_different_code_different_fingerprint(self):
        def a(ctx, inputs):
            return 1

        def b(ctx, inputs):
            return 2

        assert fingerprint_callable(a) != fingerprint_callable(b)

    def test_preset_args_change_fingerprint(self):
        base = encapsulation("e", lambda ctx, ins: None, mode="fast")
        slow = base.with_args("e", mode="slow")
        assert base.fingerprint() != slow.fingerprint()


class TestPersistence:
    """The history is the index's only source on either backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_round_trips_through_save_load(self, tmp_path,
                                                 stocked_env, backend):
        env = stocked_env
        cold = env.run(stocked_flow(env, env), cache="readwrite")
        save_environment(env, tmp_path, backend=backend)
        assert not (tmp_path / "cache.json").exists()

        reloaded = reload(tmp_path)
        warm = reloaded.run(stocked_flow(reloaded, env), cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(cold.created)

    def test_records_without_code_still_reuse(self, tmp_path,
                                              stocked_env):
        """Histories saved before records carried code stay reusable."""
        env = stocked_env
        cold = env.run(stocked_flow(env, env), cache="readwrite")
        save_environment(env, tmp_path)
        history = tmp_path / "history.json"
        payload = json.loads(history.read_text())
        stripped = [spec["derivation"].pop("code")
                    for spec in payload["instances"] if spec["derivation"]]
        assert len(stripped) == len(cold.created)
        history.write_text(json.dumps(payload))

        reloaded = reload(tmp_path)
        warm = reloaded.run(stocked_flow(reloaded, env), cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(cold.created)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_off_run_results_are_reused(self, tmp_path, stocked_env,
                                        backend):
        """Cacheless runs are indexed from the history they recorded."""
        save_environment(stocked_env, tmp_path, backend=backend)
        indexed = reload(tmp_path)
        indexed.cache.sync()  # build the persisted index first
        save_environment(indexed, tmp_path)

        # after save -> reload
        env = reload(tmp_path)
        cold = env.run(stocked_flow(env, stocked_env), cache="off")
        assert cold.runs == 2  # circuit composition + simulation
        save_environment(env, tmp_path)
        assert not (tmp_path / "cache.json").exists()
        reloaded = reload(tmp_path)
        warm = reloaded.run(stocked_flow(reloaded, stocked_env),
                            cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(cold.created)

        # in-process: the newest, cacheless run wins
        forced = reloaded.run(stocked_flow(reloaded, stocked_env),
                              cache="off", force=True)
        again = reloaded.run(stocked_flow(reloaded, stocked_env),
                             cache="reuse")
        assert not again.results
        assert sorted(again.reused) == sorted(forced.created)

    def test_reload_prefers_newest_group_after_force(self, tmp_path,
                                                     stocked_env):
        # memo lines and the history sweep feed a key's groups in
        # either order, so list order is not recency order; fetch
        # must rank by member timestamps
        save_environment(stocked_env, tmp_path)
        first = reload(tmp_path)
        first.run(stocked_flow(first, stocked_env), cache="readwrite")
        save_environment(first, tmp_path)

        mid = reload(tmp_path)
        forced = mid.run(stocked_flow(mid, stocked_env),
                         cache="readwrite", force=True)
        save_environment(mid, tmp_path)

        # newest memo line first: a key's groups now arrive newest
        # first, the opposite of recording order
        memo = tmp_path / MEMO_FILE
        lines = memo.read_text().splitlines()
        assert len(lines) == 4  # composition + simulation, twice
        memo.write_text("\n".join(reversed(lines)) + "\n")

        reloaded = reload(tmp_path)
        warm = reloaded.run(stocked_flow(reloaded, stocked_env),
                            cache="reuse")
        assert not warm.results
        assert sorted(warm.reused) == sorted(forced.created)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_changed_encapsulation_reexecutes_after_reload(
            self, tmp_path, stocked_env, backend):
        env = stocked_env
        env.run(stocked_flow(env, env), cache="readwrite")
        save_environment(env, tmp_path, backend=backend)

        reloaded = reload(tmp_path)
        reloaded.registry.register(S.SIMULATOR, encapsulation(
            "s2", lambda ctx, inputs: {"made-by": "v2"}))
        report = reloaded.run(stocked_flow(reloaded, env), cache="reuse")
        # the simulator's old key embeds the old code and stops
        # matching; the circuit composition still coalesces
        assert report.runs == 1
        assert report.cache_hits == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_reports_cache_from_history(self, tmp_path, capsys,
                                              stocked_env, backend):
        stocked_env.save_flow("simulate", stocked_flow(stocked_env,
                                                       stocked_env))
        save_environment(stocked_env, tmp_path, backend=backend)
        assert main(["run", str(tmp_path), "simulate",
                     "--cache", "readwrite"]) == 0
        capsys.readouterr()
        assert main(["stats", str(tmp_path)]) == 0
        assert "derivation cache: 2 keys, 2 remembered results" in \
            capsys.readouterr().out
        assert main(["stats", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"keys": 2, "results": 2}
        assert not (tmp_path / "cache.json").exists()

    def test_invocation_counter_survives_reload(self, tmp_path,
                                                stocked_env):
        env = stocked_env
        flow, _ = build_performance_flow(
            env, netlist_id=env.netlist.instance_id,
            models_id=env.models.instance_id,
            stimuli_id=env.stimuli.instance_id,
            simulator_id=env.tools[S.SIMULATOR].instance_id)
        env.run(flow)
        used = {i.derivation.invocation for i in env.db.instances()
                if i.derivation is not None}
        save_environment(env, tmp_path)
        reloaded = load_environment(tmp_path)
        assert reloaded.db.new_invocation_id() not in used


class TestDataStoreDigests:
    def test_full_digests_with_short_ref_compat(self, schema):
        from repro.history import DataStore
        store = DataStore()
        ref = store.put({"x": 1})
        assert len(ref) == 64
        short = ref[:16]
        assert store.get(short) == {"x": 1}  # legacy refs still resolve
        assert store.get(ref) == {"x": 1}
        assert short in store and ref in store

    def test_legacy_history_payload_upgraded(self, schema, clock):
        """Histories saved with truncated refs load and resolve."""
        from repro.history import HistoryDatabase
        db = HistoryDatabase(schema, clock=clock)
        instance = db.install(S.STIMULI, [[0, 1]])
        payload = db.to_dict()
        # simulate a pre-upgrade save: truncate refs everywhere
        for spec in payload["instances"]:
            if spec.get("data_ref"):
                spec["data_ref"] = spec["data_ref"][:16]
        payload["blobs"] = {
            (k[:16]): v for k, v in payload["blobs"].items()}
        db2 = HistoryDatabase.from_dict(schema, payload)
        assert db2.data(instance.instance_id) == [[0, 1]]
