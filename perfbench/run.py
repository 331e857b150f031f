"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_corpus --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in its own
process, and ends with one line that sums their results.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same operations twice, untraced and then with
every layer wrapped (see ``layers.py``), and prints the per-layer
metrics, the trace's unattributed share and its overhead.  Both modes
print a readable report (every metric with its unit and sample count,
and the id of every scenario whose history missed its manifest), then
one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts operations that raised, exited nonzero or failed
their oracle.  ``correct`` is false when any of them is something other
than the known ``fork_join`` defect described in ``workloads.py``.

The program is imported from ``src/`` of the checkout; all scratch
state lives in ``.perfbench_work/`` there and is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: a phase stops early once it has run this long, so a run on a slow
#: host still exits well inside the driver's limit
PHASE_CAP_S = 70.0


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by the exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Phase:
    """Everything recorded while one phase of operations ran."""

    def __init__(self, round_size: int) -> None:
        self.round_size = round_size
        self.samples: list[tuple[str, float]] = []
        self.invocations = 0
        self.attempted = 0
        self.failures: list[tuple[int, Any]] = []
        self.gets_in_queries = 0
        self.returned = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def latencies(self, *kinds: str) -> list[float]:
        return [ms for kind, ms in self.samples
                if not kinds or kind in kinds]

    def busy_s(self) -> float:
        return sum(self.latencies()) / 1000.0

    def ops_per_s(self) -> float:
        """Median over the phase's rounds of each round's throughput.

        A round holds one of every operation of the mix, so each
        round's rate is comparable; the median keeps a burst of host
        contention in a few rounds from moving the run's figure.
        """
        ms = self.latencies()
        size = self.round_size
        rates = [size * 1000.0 / sum(ms[i:i + size])
                 for i in range(0, len(ms) - size + 1, size)]
        if not rates:
            return len(ms) * 1000.0 / sum(ms)
        return statistics.median(rates)


def run_phase(workload: Any, seconds: float, *, min_ops: int,
              op_count: int | None = None, tracer: Any = None) -> Phase:
    """Closed loop: one operation at a time until the phase ends.

    Without ``op_count`` the phase runs whole rounds until ``seconds``
    have passed and at least ``min_ops`` operations completed.  The
    phase starts from the workload's pristine state and first runs one
    untimed round, so lazy imports and the program's own caches (the
    SQLite store keeps every instance it has read) are in their steady
    state when timing starts.
    """
    from workloads import Verdict
    workload.reset()
    for index in range(workload.round):
        op = workload.op(index)
        prepared = workload.prepare(op)
        try:
            workload.check(op, prepared, workload.execute(op, prepared))
        except Exception:  # the timed round records the same failure
            pass
    gc.collect()
    phase = Phase(workload.round)
    started = time.perf_counter()
    gets = "history.store.get.calls"
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if op_count is not None:
            done = index >= op_count
        else:
            done = elapsed >= seconds and index >= min_ops
        if index % workload.round == 0 and (done or elapsed >= PHASE_CAP_S):
            break
        op = workload.op(index)
        prepared = workload.prepare(op)
        before = tracer.counts[gets] if tracer is not None else 0
        outcome = error = None
        begun = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.operation(index):
                    outcome = workload.execute(op, prepared)
            else:
                outcome = workload.execute(op, prepared)
        except Exception as exc:  # a failed operation is a result
            error = exc
        latency_ms = (time.perf_counter() - begun) * 1000.0
        phase.attempted += 1
        if error is not None:
            phase.failures.append(
                (index, Verdict(False, None,
                                f"{op.kind} #{index}: {error!r}")))
            index += 1
            continue
        try:
            verdict = workload.check(op, prepared, outcome)
        except Exception as exc:
            verdict = Verdict(False, None,
                              f"{op.kind} #{index}: oracle raised {exc!r}")
        phase.samples.append((outcome.kind, latency_ms))
        phase.invocations += outcome.invocations
        if outcome.kind in ("backward", "forward") and tracer is not None:
            phase.gets_in_queries += tracer.counts[gets] - before
            phase.returned += outcome.returned
        if not verdict.ok:
            phase.failures.append((index, verdict))
        index += 1
    return phase


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the
    procpool workers are this process's children); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(phase: Phase, setup_times: list[float]
               ) -> tuple[dict[str, Any], list[str]]:
    """The gated metrics, and report lines for every metric named."""
    lines: list[str] = []

    def line(name: str, value: float, unit: str, samples: str) -> None:
        lines.append(f"  {name:<20} {value:12.4f} {unit:<6} ({samples})")

    all_ms = phase.latencies()
    busy = phase.busy_s()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "ops_per_s": (phase.ops_per_s(), "op/s",
                      f"median of {len(all_ms) // phase.round_size} "
                      f"rounds, n={len(all_ms)} ops"),
        "op_ms.p50": (percentile(all_ms, 50), "ms", f"n={len(all_ms)}"),
        "op_ms.p90": (percentile(all_ms, 90), "ms", f"n={len(all_ms)}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process + largest child"),
    }
    for name, (value, unit, samples) in metrics.items():
        line(name, value, unit, samples)
    # the workload-specific metrics: reported, not gated (BENCHMARK.json
    # can only gate metrics every workload has and none reads 0)
    if phase.invocations:
        line("invocations_per_s", phase.invocations / busy, "inv/s",
             f"n={phase.invocations} invocations")
    line("failed_ratio", phase.failed / phase.attempted, "ratio",
         f"{phase.failed}/{phase.attempted} ops")
    for name, kinds in (("trace_ms", ("backward", "forward")),
                        ("stale_ms", ("stale",)), ("edit_ms", ("edit",))):
        values = phase.latencies(*kinds)
        if values:
            line(f"{name}.p50", percentile(values, 50), "ms",
                 f"n={len(values)}")
            line(f"{name}.p90", percentile(values, 90), "ms",
                 f"n={len(values)}")
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit, _) in metrics.items()}, lines)


#: Layers reported by call count and by self time, per operation.
CALLS = ("core.taskgraph.connect", "execution.cache.fetch",
         "execution.encapsulation.signature", "execution.encapsulation.run",
         "history.consistency.validate",
         "history.consistency.successor_versions", "history.store.get",
         "history.database.record", "history.database.data",
         "persistence.save")
SELF_S = ("core.taskgraph.connect", "core.taskgraph.plan",
          "scenarios.generator.materialize", "execution.executor.execute",
          "execution.procpool.execute", "execution.cache.fetch",
          "execution.cache.store", "execution.encapsulation.signature",
          "execution.shared_memo.poll", "execution.shared_memo.append",
          "execution.encapsulation.run", "history.consistency.validate",
          "history.consistency.successor_versions",
          "history.consistency.stale_inputs", "history.trace.backward",
          "history.trace.forward", "history.database.record",
          "history.datastore.put", "persistence.save", "persistence.load",
          "obs.ledger.record_run", "obs.tracing.span")


def per_layer(tracer: Any, traced: Phase,
              untraced: Phase) -> dict[str, Any]:
    """Per-operation layer costs from the traced phase."""
    self_s, calls = tracer.layer_totals()
    counts = tracer.counts
    ops = max(1, traced.attempted)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: dict[str, tuple[float, str]] = {}
    for layer in CALLS:
        total = calls.get(layer, 0) + counts[layer + ".calls"]
        values[layer + ".calls"] = (total / ops, "count/op")
    for layer in SELF_S:
        values[layer + ".self_s"] = (self_s.get(layer, 0.0) / ops, "s/op")
    statements = counts["history.sqlite_store.statements"]
    values.update({
        "execution.procpool.queue_wait_s": (
            counts["execution.procpool.queue_wait_s"] / ops, "s/op"),
        "execution.procpool.worker_busy_ratio": (
            ratio(counts["execution.procpool.busy_ratio_sum"],
                  counts["execution.procpool.ledger_records"]), "ratio"),
        "execution.cache.hit_ratio": (
            ratio(counts["execution.cache.hits"],
                  calls.get("execution.cache.fetch", 0)), "ratio"),
        "execution.shared_memo.bytes_appended": (
            counts["execution.shared_memo.bytes_appended"] / ops, "B/op"),
        "history.reads_per_result": (
            ratio(traced.gets_in_queries, traced.returned), "ratio"),
        "history.sqlite_store.statements": (float(statements), "count"),
        "history.sqlite_store.statements_per_op": (statements / ops,
                                                   "count/op"),
        "history.sqlite_store.statement_s": (
            counts["history.sqlite_store.statement_s"] / ops, "s/op"),
        "persistence.bytes_written_per_save": (
            ratio(counts["persistence.bytes_written"],
                  calls.get("persistence.save", 0)), "B/save"),
        "obs.tracing.spans": (counts["obs.tracing.spans"] / ops,
                              "count/op"),
        "trace.unattributed_ratio": (tracer.unattributed_ratio(),
                                     "ratio"),
        "trace.overhead_ratio": (
            ratio(percentile(traced.latencies(), 50),
                  percentile(untraced.latencies(), 50)), "ratio"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(values.items())}


def measure(name: str, seed: int, seconds: float, trace: bool,
            work: pathlib.Path, sizes: Any = None) -> dict[str, Any]:
    """Set up, run and check one workload; return the result object."""
    import workloads
    sizes = sizes or workloads.FULL
    cls = workloads.WORKLOADS[name]
    print(f"workload {name} seed {seed} trace {int(trace)} | nproc "
          f"{workloads.nproc()} python {platform.python_version()}")
    setup_times = []
    workload = None
    for attempt in range(1 if trace else sizes.setups):
        if workload is not None:
            workload.close()
        target = work / f"setup{attempt}"
        target.mkdir(parents=True)
        workload = cls(seed, sizes)
        begun = time.perf_counter()
        workload.setup(target)
        setup_times.append(time.perf_counter() - begun)
    try:
        untraced = run_phase(workload, seconds, min_ops=sizes.min_ops)
        phases = [untraced]
        if trace:
            import layers
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, seconds,
                                   min_ops=sizes.min_ops,
                                   op_count=untraced.attempted,
                                   tracer=tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics = per_layer(tracer, traced, untraced)
            for metric, spec in metrics.items():
                print(f"  {metric:<42} {spec['value']:14.6f} "
                      f"{spec['unit']:<8} (n={traced.attempted} ops)")
        else:
            metrics, lines = end_to_end(untraced, setup_times)
            print("\n".join(lines))
    finally:
        workload.close()
    failures = [verdict for phase in phases
                for _, verdict in phase.failures]
    known = sorted({v.detail.split(":")[0] for v in failures
                    if v.defect is not None})
    if known:
        print(f"  known defect {workloads.KNOWN_DEFECT} in: "
              f"{', '.join(known)}")
    for verdict in failures:
        if verdict.defect is None:
            print(f"  FAILED {verdict.detail}")
    return {
        "correct": all(v.defect is not None for v in failures),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in turn, each in its own process (peak RSS and
    lazily built state stay per workload); the last line sums them."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, spec in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = spec
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # keep every temporary file of the program inside the checkout
    tempfile.tempdir = str(work)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
