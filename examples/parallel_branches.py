#!/usr/bin/env python3
"""Parallel execution of disjoint flow branches (paper Fig. 6).

Section 3.3: disjoint branches in the flow can be executed in parallel,
possibly on different machines.  This demo builds one flow containing
four independent extract-and-analyze branches (one per layout variant),
runs it serially and then on a simulated 4-machine pool, and reports the
wall-clock speedup.  Tool latency is simulated with a small sleep, as the
1993 tools were external processes whose runtime dominated.

Run:  python3 examples/parallel_branches.py
"""

import time

from repro import DesignEnvironment, odyssey_schema
from repro.execution import MachinePool, encapsulation
from repro.obs import PARALLEL_EXECUTOR
from repro.schema import standard as S
from repro.tools import extract, install_standard_tools, standard_library
from repro.tools import stdcell_layout
from repro.tools.logic import LogicSpec

TOOL_LATENCY = 0.1  # seconds per tool run (simulated external process)
BRANCHES = 4


def install_slow_extractor(env):
    library = standard_library()

    def slow_extract(ctx, inputs):
        time.sleep(TOOL_LATENCY)
        netlist, statistics = extract(inputs["layout"], library)
        produced = {S.EXTRACTED_NETLIST: netlist,
                    S.EXTRACTION_STATISTICS: statistics}
        return {t: produced[t] for t in ctx.output_types}

    return env.install_tool(S.EXTRACTOR,
                            encapsulation("slow-netex", slow_extract),
                            name="slow-netex")


def build_flow(env, extractor, layouts):
    """One flow, BRANCHES disjoint extract branches (the Fig. 6 shape)."""
    flow = env.new_flow("fig6")
    for layout in layouts:
        netlist_node = flow.place(S.EXTRACTED_NETLIST)
        stats_node = flow.graph.add_node(S.EXTRACTION_STATISTICS)
        tool_node = flow.graph.add_node(S.EXTRACTOR)
        layout_node = flow.graph.add_node(S.LAYOUT)
        layout_node.bind(layout.instance_id)
        tool_node.bind(extractor.instance_id)
        for output in (netlist_node, stats_node):
            flow.connect(output, tool_node)
            flow.connect(output, layout_node, role="layout")
    return flow


def main() -> None:
    env = DesignEnvironment(odyssey_schema(), user="fig6")
    install_standard_tools(env)
    extractor = install_slow_extractor(env)
    library = standard_library()

    # four layout variants of small functions
    functions = ["y = a & b", "y = a | b", "y = ~(a & b)",
                 "y = (a & ~b) | (~a & b)"]
    layouts = []
    for index, equation in enumerate(functions):
        spec = LogicSpec.from_equations(f"f{index}", equation)
        layout = stdcell_layout(spec, library, {"seed": index})
        layouts.append(env.install_data(S.STD_CELL_LAYOUT, layout,
                                        name=f"variant-{index}"))

    # serial execution
    serial_flow = build_flow(env, extractor, layouts)
    started = time.perf_counter()
    serial_report = env.run(serial_flow)
    serial_time = time.perf_counter() - started

    # parallel execution on a 4-machine pool
    parallel_flow = build_flow(env, extractor, layouts)
    pool = MachinePool.local(BRANCHES)
    executor = env.executor(PARALLEL_EXECUTOR, pool=pool)
    started = time.perf_counter()
    parallel_report = executor.execute(parallel_flow)
    parallel_time = time.perf_counter() - started

    print(f"{BRANCHES} disjoint branches, "
          f"{TOOL_LATENCY * 1000:.0f} ms per tool run")
    print(f"  serial:   {serial_time * 1000:7.1f} ms "
          f"({serial_report.runs} tool runs)")
    print(f"  parallel: {parallel_time * 1000:7.1f} ms "
          f"({parallel_report.runs} tool runs, "
          f"{len(pool)} machines)")
    print(f"  speedup:  {serial_time / parallel_time:5.2f}x")
    for machine in pool.machines():
        print(f"    {machine.name}: {machine.executed_branches} branch, "
              f"{machine.executed_invocations} invocations")
    # every created instance remembers which machine made it
    sample = env.db.browse(S.EXTRACTION_STATISTICS)[-1]
    print(f"  e.g. {sample.instance_id} made on machine "
          f"{sample.annotation_map().get('machine')!r}")


if __name__ == "__main__":
    main()
