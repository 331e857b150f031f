"""Cross-process shared derivation memo: locking, absorption, sharing.

The memo is an append-only JSONL log guarded by a file lock; concurrent
writers (worker lanes, parallel CLI runs) must never corrupt it, every
reader must eventually observe every writer's entries, and the
registry-signature guard must reject entries recorded under different
tool code.  The cache-level tests pin how :class:`DerivationCache`
absorbs memo entries — only usable ones (instances present in this
history) ever surface as hits.
"""

from __future__ import annotations

import json
import multiprocessing
import time

from repro import DesignEnvironment
from repro.execution import (FaultPlan, FaultSpec, ResiliencePolicy,
                             SharedDerivationMemo, encapsulation)
from repro.execution.shared_memo import MEMO_SCHEMA_VERSION
from repro.obs import PROCESS_EXECUTOR, SCHEDULED_EXECUTOR
from repro.schema.builder import SchemaBuilder

SIG = "sig-a"


def memo_at(path, signature=SIG):
    return SharedDerivationMemo(path, lambda: signature)


class TestMemoLog:
    def test_append_then_poll_roundtrip(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        writer = memo_at(path)
        reader = memo_at(path)
        writer.append("k1", (("Out", "i1"),), duration=0.5)
        assert reader.poll() == [("k1", (("Out", "i1"),), 0.5)]
        # the offset advanced: nothing new, nothing re-read
        assert reader.poll() == []
        writer.append("k2", (("Out", "i2"),))
        assert [k for k, _, _ in reader.poll()] == ["k2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert memo_at(tmp_path / "never-written.jsonl").poll() == []

    def test_rewind_rereads_everything(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo = memo_at(path)
        memo.append("k1", (("Out", "i1"),))
        assert len(memo.poll()) == 1
        memo.rewind()
        assert len(memo.poll()) == 1

    def test_wrong_signature_skipped(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo_at(path, "other-code").append("k1", (("Out", "i1"),))
        memo_at(path).append("k2", (("Out", "i2"),))
        assert [k for k, _, _ in memo_at(path).poll()] == ["k2"]

    def test_wrong_schema_version_skipped(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "key": "k1", "outputs": [["Out", "i1"]], "sig": SIG,
                "v": MEMO_SCHEMA_VERSION + 1}) + "\n")
        memo_at(path).append("k2", (("Out", "i2"),))
        assert [k for k, _, _ in memo_at(path).poll()] == ["k2"]

    def test_torn_tail_left_for_next_poll(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        memo = memo_at(path)
        memo.append("k1", (("Out", "i1"),))
        reader = memo_at(path)
        # a writer died mid-line: no trailing newline
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "outp')
        assert [k for k, _, _ in reader.poll()] == ["k1"]
        # the torn line completes (as a valid record) later
        with path.open("a", encoding="utf-8") as handle:
            handle.write('uts": [["Out", "i2"]], "sig": "%s", '
                         '"v": %d, "duration": 0.0}\n'
                         % (SIG, MEMO_SCHEMA_VERSION))
        assert [k for k, _, _ in reader.poll()] == ["k2"]

    def test_garbage_lines_are_consumed_not_fatal(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        path.write_text("not json\n\x00\xff garbage\n", encoding="utf-8",
                        errors="ignore")
        memo = memo_at(path)
        assert memo.poll() == []
        memo.append("k1", (("Out", "i1"),))
        assert [k for k, _, _ in memo.poll()] == ["k1"]


def _hammer(path, worker, count):
    memo = SharedDerivationMemo(path, lambda: SIG)
    for index in range(count):
        memo.append(f"w{worker}-k{index}",
                    (("Out", f"w{worker}-i{index}"),),
                    duration=0.001)


def _handshake(path, mine, theirs, status):
    memo = SharedDerivationMemo(path, lambda: SIG)
    memo.append(mine, (("Out", mine),))
    seen: set[str] = set()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        seen.update(key for key, _, _ in memo.poll())
        if theirs in seen:
            status.put((mine, True))
            return
        time.sleep(0.01)
    status.put((mine, False))


class TestCrossProcess:
    def test_concurrent_writers_never_corrupt_the_log(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        context = multiprocessing.get_context("fork")
        writers, per_writer = 4, 25
        processes = [context.Process(target=_hammer,
                                     args=(path, worker, per_writer))
                     for worker in range(writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == writers * per_writer
        for line in lines:  # every line is a complete, valid record
            record = json.loads(line)
            assert record["sig"] == SIG
            assert record["v"] == MEMO_SCHEMA_VERSION
        polled = memo_at(path).poll()
        assert len(polled) == writers * per_writer
        assert len({key for key, _, _ in polled}) == writers * per_writer

    def test_two_processes_observe_each_other(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        context = multiprocessing.get_context("fork")
        status = context.Queue()
        a = context.Process(target=_handshake,
                            args=(path, "key-a", "key-b", status))
        b = context.Process(target=_handshake,
                            args=(path, "key-b", "key-a", status))
        a.start()
        b.start()
        results = dict(status.get(timeout=60) for _ in range(2))
        a.join(60)
        b.join(60)
        assert results == {"key-a": True, "key-b": True}


def fan_env(tmp_path=None):
    builder = SchemaBuilder("fan")
    builder.data("Spec")
    builder.tool("Tool")
    builder.data("Out")
    builder.produced_by("Out", "Tool", inputs=[("src", "Spec")])
    env = DesignEnvironment(builder.build(), user="tester")
    env.install_tool(
        "Tool",
        encapsulation("fan-tool",
                      lambda ctx, ins: {"ok": ins["src"]["n"]}),
        name="t0")
    for index in range(4):
        env.install_data("Spec", {"n": index}, name=f"s{index}")
    return env


def fan_flow(env):
    tool = env.db.latest("Tool")
    specs = sorted((i for i in env.db.instances()
                    if i.entity_type == "Spec"),
                   key=lambda i: i.name)
    flow = env.new_flow("fan")
    for index, spec in enumerate(specs):
        spec_node = flow.place("Spec", label=f"s{index}")
        flow.bind(spec_node, spec.instance_id)
        out = flow.place("Out", label=f"o{index}")
        tool_node = flow.place("Tool", label=f"t{index}")
        flow.bind(tool_node, tool.instance_id)
        flow.connect(out, tool_node)
        flow.connect(out, spec_node, role="src")
    return flow


class TestCacheIntegration:
    def test_memo_populated_by_store(self, tmp_path):
        env = fan_env()
        env.enable_shared_memo(tmp_path / "memo.jsonl")
        env.run(fan_flow(env), cache="readwrite")
        lines = (tmp_path / "memo.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_second_run_hits_via_memo_only(self, tmp_path):
        """Memo entries alone (no warm in-memory cache) produce hits."""
        env = fan_env()
        memo_path = tmp_path / "memo.jsonl"
        env.enable_shared_memo(memo_path)
        env.run(fan_flow(env), cache="readwrite")
        # a second cache over the same history, cold except for the memo
        from repro.execution import DerivationCache
        cold = DerivationCache(env.db, env.registry)
        cold.attach_shared_memo(memo_path)
        executor = env.executor()
        executor.cache = cold
        executor.cache_policy = "reuse"
        report = executor.execute(fan_flow(env))
        assert not report.results
        assert report.cache_hits == 4

    def test_foreign_instances_never_surface_as_hits(self, tmp_path):
        """Entries from a run whose records this history never received
        are unusable here — skipped, not treated as stale."""
        memo_path = tmp_path / "memo.jsonl"
        producer = fan_env()
        producer.enable_shared_memo(memo_path)
        producer.run(fan_flow(producer), cache="readwrite")
        # a different environment (fresh history, same tool code) sees
        # the entries but owns none of the recorded instances
        consumer = fan_env()
        consumer.enable_shared_memo(memo_path)
        report = consumer.run(fan_flow(consumer), cache="readwrite")
        assert len(report.results) == 4
        assert report.cache_hits == 0

    def test_signature_guard_rejects_changed_tool_code(self, tmp_path):
        memo_path = tmp_path / "memo.jsonl"
        env = fan_env()
        env.enable_shared_memo(memo_path)
        env.run(fan_flow(env), cache="readwrite")
        changed = DesignEnvironment(env.schema, user="tester")
        changed.install_tool(
            "Tool",
            encapsulation("fan-tool",
                          lambda ctx, ins: {"ok": -ins["src"]["n"]}),
            name="t0")
        memo = changed.cache.registry.signature  # sanity: differs
        assert memo() != env.registry.signature()
        foreign = SharedDerivationMemo(
            memo_path, lambda: changed.registry.signature())
        assert foreign.poll() == []


class TestDeterminism:
    def test_same_seed_chaos_matches_thread_scheduler(self):
        """Same flow + same-seed fault plan: thread-scheduled and
        process-pool execution leave identical history content."""
        def run(executor_of):
            env = fan_env()
            policy = ResiliencePolicy(retries=2, backoff_base=0.0,
                                      jitter=0.0)
            faults = FaultPlan([FaultSpec("Tool", 2),
                                FaultSpec("Tool", 4)], seed=9)
            report = executor_of(env, policy, faults).execute(
                fan_flow(env))
            digest = sorted((inst.entity_type, inst.data_ref)
                            for inst in env.db.instances())
            return digest, report.retries, faults.fired

        threaded = run(lambda env, policy, faults: env.executor(
            SCHEDULED_EXECUTOR, workers=2, resilience=policy,
            faults=faults))
        pooled = run(lambda env, policy, faults: env.executor(
            PROCESS_EXECUTOR, workers=2, resilience=policy, faults=faults))
        assert threaded[0] == pooled[0]
        assert threaded[1] == pooled[1] == 2
        assert threaded[2] == pooled[2]
