"""Cross-executor differential harness over the scenario corpus.

Every generated scenario must land on the *same* history — the exact
(entity type, data_ref) multiset the manifest's offline simulation
predicted — on all four executors and both history backends.  A fixed
seed exercises the full matrix; hypothesis then sweeps generator seeds
over a reduced matrix, and seeded fault plans check the resilience
invariants (retry-count exactness, fault-free digest equality) on the
generated fork-join and pipeline shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.faults import FaultPlan
from repro.execution.resilience import ResiliencePolicy
from repro.persistence import load_environment, save_environment
from repro.scenarios import (MAIN_FLOW, SHAPES, CorpusSpec,
                             ScenarioSpec, expected_signature,
                             generate_corpus, history_signature,
                             materialize_scenario,
                             register_corpus_encapsulations,
                             scenario_nodes, scenario_specs,
                             signature_digest)

EXECUTORS = ("sequential", "parallel", "scheduled", "procpool")
BACKENDS = ("json", "sqlite")


def no_sleep(delay: float) -> None:
    """Backoff sleeps observed but never slept."""


def run_scenario(spec: ScenarioSpec, directory, *, executor: str,
                 backend: str, targets: tuple[str, ...] | None = None):
    """Materialize, persist, reload and execute one scenario.

    Round-trips through the requested history backend before running,
    so the differential covers persistence (schema reload, salt-based
    tool re-registration) as well as execution.  ``targets`` names
    entity types whose sub-flow alone runs.
    """
    env = materialize_scenario(spec)
    save_environment(env, directory, backend=backend)
    env = load_environment(directory)
    register_corpus_encapsulations(env)
    flow = env.flow_catalog.select(MAIN_FLOW)
    if targets is not None:
        targets = [flow.sole_node_of_type(t).node_id for t in targets]
    report = env.executor(executor, workers=2).execute(flow, targets)
    save_environment(env, directory)
    return report, history_signature(load_environment(directory))


class TestFixedSeedMatrix:
    """The full 5-shape x 4-executor x 2-backend matrix at one seed."""

    MANIFEST = generate_corpus(CorpusSpec(seed=2026))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_all_scenarios_agree_with_manifest(self, tmp_path,
                                               executor, backend):
        for spec, entry in zip(scenario_specs(self.MANIFEST),
                               self.MANIFEST["scenarios"]):
            report, signature = run_scenario(
                spec, tmp_path / spec.scenario_id,
                executor=executor, backend=backend)
            assert not report.failures
            assert report.runs == entry["expected"]["runs"], \
                (spec.scenario_id, executor, backend)
            assert signature_digest(signature) == \
                entry["expected"]["history_digest"], \
                (spec.scenario_id, executor, backend)

    def test_report_equivalence_across_executors(self, tmp_path):
        """Same created/reused/skipped portrait on every executor."""
        spec = scenario_specs(self.MANIFEST)[4]  # pipeline
        portraits = set()
        for executor in EXECUTORS:
            report, _ = run_scenario(
                spec, tmp_path / executor, executor=executor,
                backend="json")
            portraits.add((report.runs, len(report.created),
                           len(report.reused), len(report.skipped),
                           len(report.failures)))
        assert len(portraits) == 1

    #: One strict sub-flow per shape of the (2 wide, 2 deep, fan-out 2)
    #: corpus: a lone output, stage, branch tip, fork and lane.
    SUBFLOW_TARGETS = {"independent": ("Out0",), "chain": ("Stage1",),
                       "diamond": ("A2",), "fork_join": ("Fork0",),
                       "pipeline": ("Lane0S2",)}

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_subflow_targets_match_sequential(self, tmp_path, executor):
        """A sub-flow run (``targets``) lands on the same history and
        run count on every executor, and runs less than the flow."""
        for spec, entry in zip(scenario_specs(self.MANIFEST),
                               self.MANIFEST["scenarios"]):
            targets = self.SUBFLOW_TARGETS[spec.shape]
            outcomes = []
            for kind in ("sequential", executor):
                report, signature = run_scenario(
                    spec, tmp_path / kind / spec.scenario_id,
                    executor=kind, backend="json", targets=targets)
                assert not report.failures
                assert report.runs < entry["expected"]["runs"], \
                    (spec.scenario_id, kind)
                outcomes.append((report.runs,
                                 signature_digest(signature)))
            assert outcomes[0] == outcomes[1], (spec.scenario_id, executor)


@given(seed=st.integers(0, 99999),
       shape=st.sampled_from(SHAPES),
       executor=st.sampled_from(("sequential", "parallel",
                                 "scheduled")),
       backend=st.sampled_from(BACKENDS))
@settings(max_examples=12, deadline=None)
def test_any_seed_any_shape_matches_simulation(tmp_path_factory, seed,
                                               shape, executor,
                                               backend):
    """Hypothesis sweep: executed history == offline simulation.

    The procpool executor is excluded here (worker-process forking per
    example is too slow for a sweep); the fixed-seed matrix covers it.
    """
    spec = ScenarioSpec(f"h-{shape}", shape, seed, 2, 2, 2)
    directory = tmp_path_factory.mktemp("hyp")
    report, signature = run_scenario(spec, directory,
                                     executor=executor,
                                     backend=backend)
    assert not report.failures
    assert signature == expected_signature(spec)


@given(seed=st.integers(0, 9999),
       shape=st.sampled_from(("fork_join", "pipeline")),
       faults=st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_chaos_on_generated_scenarios(seed, shape, faults):
    """PR-5 recovery invariants beyond the fig6 fixture.

    With a retry budget covering every scripted crash, the run must
    recover (retry-count exactness: exactly the fired faults were
    retried away) and the history must be digest-identical to a run
    that never saw a fault.
    """
    spec = ScenarioSpec(f"c-{shape}", shape, seed, 2, 2, 2)
    tool_types = sorted({node.tool_type
                         for node in scenario_nodes(spec)
                         if node.tool_type is not None})
    plan = FaultPlan.seeded(seed, tool_types, faults=faults,
                            max_invocation=3, sleep=no_sleep)
    env = materialize_scenario(spec)
    env.faults = plan
    env.resilience = ResiliencePolicy(retries=3, seed=seed,
                                      sleep=no_sleep)
    report = env.run(env.flow_catalog.select(MAIN_FLOW))
    assert not report.failures
    # retry-count exactness: every fired fault cost exactly one retry
    assert report.retries == len(plan.fired)
    assert history_signature(env) == expected_signature(spec)


# ---------------------------------------------------------------------------
# telemetry equivalence: every executor reports the same work
# ---------------------------------------------------------------------------
#: Events describing one invocation's lifecycle; machine names and
#: timings differ by executor, what happened to which node must not.
INVOCATION_EVENTS = ("node_ready", "tool_invoked", "cache_hit",
                     "cache_miss", "tool_finished", "composition_run")
INVOCATION_SPANS = ("task", "tool", "compose", "cache_lookup")
TELEMETRY_SPEC = ScenarioSpec("t-diamond", "diamond", 5, 2, 2, 2)


def _executor_for(env, executor: str, cache: str):
    return env.executor(executor, workers=2, cache=cache)


def _telemetry(executor: str, cache: str):
    """Events and spans of one run under ``cache``.

    For ``reuse`` a first ``readwrite`` run (unobserved) fills the
    cache, so the observed run is the warm one.
    """
    from collections import Counter

    from repro.obs import RingBufferSink

    env = materialize_scenario(TELEMETRY_SPEC)
    if cache == "reuse":
        _executor_for(env, executor, "readwrite").execute(
            env.flow_catalog.select(MAIN_FLOW))
    events = env.bus.subscribe(RingBufferSink(8192))
    spans = env.tracer.subscribe(RingBufferSink(8192))
    _executor_for(env, executor, cache).execute(
        env.flow_catalog.select(MAIN_FLOW))
    kinds = Counter(e.event_type for e in events.events())
    invocation_events = Counter(
        (e.event_type, e.node, e.tool_type) for e in events.events()
        if e.event_type in INVOCATION_EVENTS)
    invocation_spans = Counter(
        (s.kind, s.name) for s in spans.events()
        if s.kind in INVOCATION_SPANS)
    return kinds, invocation_events, invocation_spans


@pytest.mark.parametrize("cache", ("readwrite", "reuse"))
@pytest.mark.parametrize("executor", EXECUTORS)
def test_telemetry_matches_sequential(executor, cache):
    """Only where a tool call runs differs between executors."""
    kinds, events, spans = _telemetry(executor, cache)
    _, reference_events, reference_spans = _telemetry("sequential", cache)
    assert events == reference_events
    assert spans == reference_spans
    assert (kinds["lane_assigned"] > 0) == (executor == "parallel")
    assert (kinds["worker_stats"] > 0) == (executor == "procpool")
    hit_or_miss = "cache_hit" if cache == "reuse" else "cache_miss"
    assert kinds[hit_or_miss] > 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_one_flow_started_and_finished_per_run(executor):
    """One run envelope per execute(): lanes never open a second one."""
    kinds, _, _ = _telemetry(executor, "readwrite")
    assert kinds["flow_started"] == 1
    assert kinds["flow_finished"] == 1


#: Events one failed attempt or invocation leaves behind.
RESILIENCE_EVENTS = ("tool_retried", "tool_timed_out", "tool_quarantined",
                     "execution_failed")
#: The watchdog budget of the hung tool type; the hang outlasts it.
CHAOS_TIMEOUT = 0.3
CHAOS_HANG = 2.0


def _chaos(shape: str, executor: str):
    """One degraded run of ``shape`` under a scripted fault plan.

    The first tool type crashes transiently twice, then recovers; the
    last hangs past its watchdog and crashes permanently on the retry,
    which opens its quarantine.  The plan sleeps for real: its
    injected ``sleep`` applies only in-process, while a worker process
    always really sleeps.
    """
    from collections import Counter

    from repro.execution.faults import FaultSpec
    from repro.obs import RingBufferSink

    spec = ScenarioSpec(f"q-{shape}", shape, 11, 2, 2, 2)
    tool_types = [node.tool_type for node in scenario_nodes(spec)
                  if node.tool_type is not None]
    first, last = tool_types[0], tool_types[-1]
    plan = FaultPlan([FaultSpec(first, 1), FaultSpec(first, 2),
                      FaultSpec(last, 1, kind="hang", delay=CHAOS_HANG),
                      FaultSpec(last, 2, transient=False)])
    policy = ResiliencePolicy(retries=2, degrade=True, quarantine_after=1,
                              sleep=no_sleep)
    policy.override(last, timeout=CHAOS_TIMEOUT)
    env = materialize_scenario(spec)
    events = env.bus.subscribe(RingBufferSink(8192))
    report = env.executor(executor, workers=2, resilience=policy,
                          faults=plan).execute(
        env.flow_catalog.select(MAIN_FLOW))
    failures = sorted((f.outputs, f.tool_type, f.error, f.error_class,
                       f.classification, f.attempts, f.retries,
                       f.timeouts) for f in report.failures)
    counts = Counter((e.event_type, e.node, e.tool_type)
                     for e in events.events()
                     if e.event_type in RESILIENCE_EVENTS)
    return (report.retries, report.timeouts, failures,
            report.quarantined), counts, last


@pytest.mark.parametrize("shape", ("chain", "diamond", "fork_join",
                                   "independent"))
def test_chaos_telemetry_matches_across_executors(shape):
    """Retries, timeouts, losses and quarantine agree on every executor,
    and so do the resilience events naming them."""
    outcome, counts, last = _chaos(shape, "sequential")
    retries, timeouts, failures, quarantined = outcome
    assert (retries, timeouts, quarantined) == (3, 1, [last])
    assert any(f[4] == "permanent" and f[1] == last for f in failures)
    assert {kind for kind, _, _ in counts} == set(RESILIENCE_EVENTS)
    for executor in EXECUTORS[1:]:
        assert _chaos(shape, executor)[:2] == (outcome, counts), executor


def test_sequential_lane_replays_the_topological_walk():
    """The sequential executor's one lane claims invocations in the
    order a walk of the flow's topological order meets them, on a
    branching shape where a first-ready-first-run queue would not."""
    from repro.obs import TOOL_INVOKED, RingBufferSink

    env = materialize_scenario(TELEMETRY_SPEC)
    flow = env.flow_catalog.select(MAIN_FLOW)
    events = env.bus.subscribe(RingBufferSink(8192))
    env.executor().execute(flow)
    walk = [node_id for node_id in flow.graph.topological_order()
            if flow.graph.suppliers(node_id)]
    assert [e.node for e in events.events(TOOL_INVOKED)] == walk
