"""The benchmark's own checks, at tiny sizes.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(invocations=12, prior_runs=1, history=400,
                       min_ops=5, setups=1)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _workload(name, tmp_path, seed=5):
    workload = workloads.WORKLOADS[name](seed, TINY)
    workload.setup(tmp_path)
    return workload


def test_tampered_expected_digest_raises_failed_ratio(tmp_path):
    workload = _workload("cold_corpus", tmp_path)
    clean = run.run_phase(workload, 0.0, min_ops=5, op_count=5)
    # at fanout 12 the fork_join scenario is the known defect, nothing else
    assert [v.defect for _, v in clean.failures] == [
        workloads.KNOWN_DEFECT]
    spec, entry = workload.entries[0]
    assert spec.shape == "independent"
    entry["expected"]["history_digest"] = "0" * 64
    tampered = run.run_phase(workload, 0.0, min_ops=5, op_count=5)
    assert tampered.failed / tampered.attempted \
        > clean.failed / clean.attempted
    assert any(v.defect is None and spec.scenario_id in v.detail
               for _, v in tampered.failures)


def _bindings():
    """Every repro module attribute and class attribute, by identity."""
    seen = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in vars(module).items():
            seen[(module_name, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(module_name, name, attr)] = member
    seen[("pathlib", "Path.write_text")] = pathlib.Path.write_text
    return seen


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_restores_every_wrapped_attribute(name, tmp_path):
    workload = _workload(name, tmp_path)
    before = _bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        wrapped = [key for key, value in _bindings().items()
                   if before.get(key) is not value]
        assert len(wrapped) >= len(layers.LAYERS)
        phase = run.run_phase(workload, 0.0, min_ops=1,
                              op_count=workload.round, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.close()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert phase.attempted == workload.round
    assert tracer.spans, "the traced phase recorded no spans"


def test_self_time_subtracts_the_union_of_children():
    tracer = layers.Tracer()
    root = [None, 0.0, 10.0, None, 0]
    parent = ["a", 1.0, 9.0, root, 0]
    # two overlapping children (lanes) covering [2, 6]
    tracer.spans = [["b", 2.0, 5.0, parent, 0],
                    ["b", 3.0, 6.0, parent, 0], parent, root]
    tracer.op_spans = [root]
    self_s, calls = tracer.layer_totals()
    assert self_s == {"a": 4.0, "b": 6.0}
    assert calls == {"a": 1, "b": 2}
    assert tracer.unattributed_ratio() == pytest.approx(0.2)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_match_benchmark_json(trace, tmp_path,
                                                   capsys):
    key = "per_layer" if trace else "end_to_end"
    names = [metric["name"] for metric in SPEC[key]]
    result = run.measure("procpool_corpus", 3, 0.0, trace, tmp_path,
                         TINY)
    assert sorted(result["metrics"]) == sorted(names)
    assert result["correct"] is True
    assert result["failed"] >= 1  # the fork_join scenario
    units = {metric["name"]: metric["unit"] for metric in SPEC[key]}
    assert all(spec["unit"] == units[name]
               for name, spec in result["metrics"].items())
    printed = capsys.readouterr().out
    assert all(name in printed for name in names)


def test_benchmark_without_program_sources_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "cold_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
