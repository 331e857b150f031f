#!/usr/bin/env python
"""Multi-core wall-time trajectory for the procpool executor.

Measures two scenarios end to end under ``ProcessFlowExecutor`` with
1, 2 and 4 worker processes:

* **fig06** — the paper's Fig. 6 shape: four independent
  layout -> extraction branches, one tool invocation each;
* **scale_pipeline** — eight independent four-stage pipelines
  (32 invocations, dependency chains limiting per-chain parallelism).

Tool bodies are deterministic ``time.sleep`` calls modelling external
CAD-tool latency, so real speedup is observable even on a single-core
CI runner (the paper's tools are external processes the framework
*waits on*; a worker process sleeping frees the others to dispatch).
Every sweep also runs the sequential executor first and asserts the
procpool history digests are byte-identical — speed never changes
what gets designed.

Modes::

    PYTHONPATH=src python benchmarks/bench_multicore.py           # check
    PYTHONPATH=src python benchmarks/bench_multicore.py --update  # record

``--update`` appends one entry to ``BENCH_multicore.json`` (the
longitudinal trajectory, one entry per PR touching the executor);
both modes write raw timings to
``benchmarks/artifacts/bench_multicore_raw.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.execution import (DesignEnvironment,            # noqa: E402
                             encapsulation)
from repro.obs import PROCESS_EXECUTOR                     # noqa: E402
from repro.schema.builder import SchemaBuilder             # noqa: E402

DEFAULT_BENCH = REPO / "BENCH_multicore.json"
DEFAULT_RAW = REPO / "benchmarks" / "artifacts" / \
    "bench_multicore_raw.json"
WORKER_SWEEP = (1, 2, 4)
REPEATS = 3

FIG06_BRANCHES = 4
FIG06_SLEEP = 0.05
PIPELINE_CHAINS = 8
PIPELINE_STAGES = 4
PIPELINE_SLEEP = 0.025


def _sleepy(name: str, delay: float):
    def tool(ctx, inputs):
        time.sleep(delay)
        payload = inputs["src"]
        return {"n": payload["n"] + 1, "via": name}
    return encapsulation(name, tool)


def _chain_schema(stages: int) -> "SchemaBuilder":
    builder = SchemaBuilder(f"chains{stages}")
    builder.data("Data0")
    for stage in range(1, stages + 1):
        builder.tool(f"Tool{stage}")
        builder.data(f"Data{stage}")
        builder.produced_by(f"Data{stage}", f"Tool{stage}",
                            inputs=[("src", f"Data{stage - 1}")])
    return builder


def build_scenario(chains: int, stages: int, delay: float):
    """Environment + flow: ``chains`` independent ``stages``-deep runs."""
    env = DesignEnvironment(_chain_schema(stages).build(), user="bench")
    tools = {}
    for stage in range(1, stages + 1):
        tools[stage] = env.install_tool(
            f"Tool{stage}", _sleepy(f"sleepy{stage}", delay),
            name=f"t{stage}")
    flow = env.new_flow("bench")
    for chain in range(chains):
        source = env.install_data("Data0", {"n": chain * 1000},
                                  name=f"src{chain}")
        previous = flow.place("Data0", label=f"src{chain}")
        flow.bind(previous, source.instance_id)
        for stage in range(1, stages + 1):
            out = flow.place(f"Data{stage}",
                             label=f"d{stage}c{chain}")
            tool_node = flow.place(f"Tool{stage}",
                                   label=f"t{stage}c{chain}")
            flow.bind(tool_node, tools[stage].instance_id)
            flow.connect(out, tool_node)
            flow.connect(out, previous, role="src")
            previous = out
    return env, flow


SCENARIOS = {
    "fig06": (FIG06_BRANCHES, 1, FIG06_SLEEP),
    "scale_pipeline": (PIPELINE_CHAINS, PIPELINE_STAGES,
                       PIPELINE_SLEEP),
}


def history_digest(env: DesignEnvironment):
    return sorted((inst.entity_type, inst.data_ref)
                  for inst in env.db.instances())


def run_scenario(name: str, *, sweep=WORKER_SWEEP, repeats=REPEATS):
    """Time one scenario across the worker sweep.

    Returns ``{"invocations", "digest_sequential_equal",
    "digest_workers_equal", "walls": {workers: best-of-N seconds},
    "speedups", "efficiency", "raw": [...]}``.
    """
    chains, stages, delay = SCENARIOS[name]
    sequential_env, sequential_flow = build_scenario(chains, stages,
                                                     delay)
    sequential_env.run(sequential_flow)
    reference = history_digest(sequential_env)

    walls: dict[int, float] = {}
    raw: list[dict] = []
    digests_equal = True
    invocations = chains * stages
    for workers in sweep:
        best = float("inf")
        for repeat in range(repeats):
            env, flow = build_scenario(chains, stages, delay)
            executor = env.executor(PROCESS_EXECUTOR, workers=workers)
            started = time.perf_counter()
            report = executor.execute(flow)
            wall = time.perf_counter() - started
            assert len(report.results) == invocations
            digests_equal &= history_digest(env) == reference
            raw.append({"scenario": name, "workers": workers,
                        "repeat": repeat, "wall_s": wall})
            best = min(best, wall)
        walls[workers] = best
    base = walls[sweep[0]]
    speedups = {workers: base / wall
                for workers, wall in walls.items()}
    return {
        "invocations": invocations,
        "digest_sequential_equal": digests_equal,
        "walls": {str(w): round(v, 6) for w, v in walls.items()},
        "speedups": {str(w): round(v, 4)
                     for w, v in speedups.items()},
        "efficiency": {str(w): round(v / w, 4)
                       for w, v in speedups.items()},
        "raw": raw,
    }


def load_trajectory(path: pathlib.Path) -> dict:
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"version": 1, "entries": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="append an entry to BENCH_multicore.json")
    parser.add_argument("--label", default="local",
                        help="entry label (e.g. pr7-procpool)")
    parser.add_argument("--bench", type=pathlib.Path,
                        default=DEFAULT_BENCH)
    parser.add_argument("--raw", type=pathlib.Path, default=DEFAULT_RAW)
    args = parser.parse_args(argv)

    results = {}
    raw: list[dict] = []
    failures: list[str] = []
    for name in SCENARIOS:
        outcome = run_scenario(name)
        raw.extend(outcome.pop("raw"))
        results[name] = outcome
        print(f"{name}: {outcome['invocations']} invocations")
        for workers in WORKER_SWEEP:
            key = str(workers)
            print(f"  workers={workers}: "
                  f"wall={outcome['walls'][key]:.3f}s "
                  f"speedup={outcome['speedups'][key]:.2f}x "
                  f"efficiency={outcome['efficiency'][key]:.2f}")
        if not outcome["digest_sequential_equal"]:
            failures.append(
                f"{name}: procpool history digests diverged from the "
                "sequential executor")

    # the acceptance floor: 4 workers at least 2x over 1 worker on the
    # pipeline scenario
    pipeline_speedup = results["scale_pipeline"]["speedups"]["4"]
    if pipeline_speedup < 2.0:
        failures.append(
            f"scale_pipeline speedup at 4 workers is "
            f"{pipeline_speedup:.2f}x, need >= 2x")

    args.raw.parent.mkdir(parents=True, exist_ok=True)
    args.raw.write_text(
        json.dumps({"raw": raw, "results": results}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if args.update:
        trajectory = load_trajectory(args.bench)
        trajectory["entries"].append({"label": args.label,
                                      "results": results})
        args.bench.write_text(
            json.dumps(trajectory, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"recorded entry {args.label!r} to {args.bench}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
