"""FIG-6: parallel execution of disjoint branches on a machine pool.

Measures wall-clock time for a flow with B independent branches executed
on 1, 2 and B simulated machines.  Tool latency is simulated with a
sleep, as in 1993 tool runtime (external processes) dominated framework
overhead.  The shape to reproduce: near-linear speedup up to the branch
count.
"""

import time

from repro.execution import MachinePool, encapsulation
from repro.obs import PARALLEL_EXECUTOR
from repro.schema import standard as S

from conftest import fresh_env

BRANCHES = 4
LATENCY = 0.04


def slow_env():
    env = fresh_env()

    def slow_tool(ctx, inputs):
        time.sleep(LATENCY)
        return {t: {"made": t} for t in ctx.output_types}

    env.slow_extractor = env.install_tool(  # type: ignore[attr-defined]
        S.EXTRACTOR, None, name="slow")
    env.registry.register_for_instance(
        env.slow_extractor.instance_id,
        encapsulation("slow", slow_tool))
    return env


def build_branches(env):
    flow = env.new_flow("fig6")
    for index in range(BRANCHES):
        layout = env.install_data(S.EDITED_LAYOUT, {"i": index})
        netlist = flow.place(S.EXTRACTED_NETLIST)
        flow.expand(netlist)
        unbound_layouts = [n for n in flow.graph.leaves()
                           if n.entity_type == S.LAYOUT
                           and not n.is_bound]
        flow.bind(unbound_layouts[0], layout.instance_id)
        unbound_tools = [n for n in flow.nodes()
                         if n.entity_type == S.EXTRACTOR
                         and not n.is_bound]
        flow.bind(unbound_tools[0], env.slow_extractor.instance_id)
    return flow


def run_with_machines(env, machines: int) -> float:
    flow = build_branches(env)
    executor = env.executor(PARALLEL_EXECUTOR,
                            pool=MachinePool.local(machines))
    started = time.perf_counter()
    executor.execute(flow)
    return time.perf_counter() - started


def test_bench_fig06_parallel(benchmark, write_artifact):
    env = slow_env()

    timings = {}
    for machines in (1, 2, BRANCHES):
        timings[machines] = run_with_machines(env, machines)

    # the benchmarked kernel: full-width pool
    benchmark.pedantic(lambda: run_with_machines(env, BRANCHES),
                       rounds=3, iterations=1)

    serial = timings[1]
    rows = ["FIG-6: disjoint branches executed in parallel",
            f"branches: {BRANCHES}, simulated tool latency: "
            f"{LATENCY * 1000:.0f} ms",
            "",
            f"{'machines':>9} {'wall ms':>9} {'speedup':>8}"]
    for machines, elapsed in sorted(timings.items()):
        rows.append(f"{machines:>9} {elapsed * 1000:9.1f} "
                    f"{serial / elapsed:8.2f}")
    write_artifact("fig06_parallel", "\n".join(rows))

    # shape assertions: more machines, more speedup; near-linear at B
    assert timings[2] < timings[1]
    assert timings[BRANCHES] < timings[2]
    assert serial / timings[BRANCHES] > BRANCHES * 0.6
