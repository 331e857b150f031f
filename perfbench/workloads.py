"""The benchmark's four workloads.

Each workload is a closed loop with one client in one process: the
next operation starts only after the previous one returned.  Inputs
come from the workload seed alone; the program sees only the generated
scenarios and histories.  Every operation is split into an untimed
``prepare``, the timed ``execute`` and an untimed ``check`` (the
oracle), so copies of pristine state and the oracle's own reads never
count as the program's time.

Why each workload exists is recorded in ``NOTES.md`` next to this file
and, in one line, in ``BENCHMARK.json`` for the three it gates.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pathlib
import random
import re
import shutil
from dataclasses import dataclass
from typing import Any

from repro import cli, persistence
from repro.history import consistency, trace
from repro.history.database import HistoryDatabase
from repro.history.instance import DerivationRecord
from repro.history.sqlite_store import SqliteHistoryStore
from repro.history.store import parse_serial
from repro.history.synth import build_history, synth_schema, tick_clock
from repro.scenarios import generator
from repro.scenarios.generator import (MAIN_FLOW, ScenarioSpec,
                                       history_signature, scenario_entry,
                                       signature_digest)
from repro.scenarios.synthetic import register_corpus_encapsulations
from repro.tools import register_standard_encapsulations

#: The mismatch that is known at this commit and kept visible: the
#: executor hands a join its input roles sorted (``Fork10`` before
#: ``Fork2``), the offline simulation in node order, and
#: ``CodecRegistry.encode`` hashes dicts in insertion order, so a
#: ``fork_join`` with fanout >= 11 records a ``Join`` whose data_ref
#: differs from the manifest although the payloads are equal dicts.
KNOWN_DEFECT = "fork_join-join-ref"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs :data:`FULL`, its own tests
    much smaller ones."""

    #: tool invocations per corpus scenario (every run workload)
    invocations: int = 36
    #: forced prior runs in each warm_rerun project's history
    prior_runs: int = 3
    #: instances in the history_session history
    history: int = 20_000
    #: a run collects at least this many operations (p90 needs ten
    #: samples beyond it)
    min_ops: int = 100
    #: set-ups per run; setup_s is their median
    setups: int = 3


FULL = Sizes()


@dataclass
class Verdict:
    """The oracle's answer for one operation."""

    ok: bool
    defect: str | None = None
    detail: str = ""


@dataclass
class Outcome:
    """What the runner records of one executed operation."""

    kind: str
    invocations: int = 0
    returned: int = 0
    data: Any = None


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    target: Any = None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``repro`` in-process; return its exit code and stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def scenario_spec(shape: str, seed: int, index: int,
                  invocations: int) -> ScenarioSpec:
    """One scenario of ``shape`` with about ``invocations`` tool runs.

    Every shape gets the same invocation count; the tool-type count
    differs by shape, as in the corpus (pipeline shares its stage tool
    types across lanes, so it has only about sqrt(n) of them).
    """
    width, depth, fanout = 1, 1, 2
    if shape == "independent":
        width = invocations
    elif shape == "chain":
        depth = invocations
    elif shape == "diamond":
        depth = max(1, invocations // 2)
    elif shape == "fork_join":
        fanout = invocations
    else:
        width = depth = max(1, math.isqrt(invocations))
    return ScenarioSpec(f"s{index:03d}-{shape}", shape, seed, width,
                        depth, fanout)


def manifest_verdict(entry: dict[str, Any],
                     pairs: list[tuple[str, str]], runs: int,
                     failures: int) -> Verdict:
    """Compare a finished scenario with its manifest entry.

    A mismatch that is exactly the known ``fork_join`` defect (run
    count right, only the ``Join`` data_ref differs) is reported under
    :data:`KNOWN_DEFECT`; any other mismatch has no defect label.
    """
    expected = entry["expected"]
    digest = signature_digest(pairs)
    if digest == expected["history_digest"] \
            and runs == expected["runs"] and not failures:
        return Verdict(True)
    refs = dict(pairs)
    wrong = sorted(kind for kind, ref in expected["data_refs"].items()
                   if refs.get(kind) != ref)
    detail = (f"{entry['scenario_id']}: digest {digest[:16]} != "
              f"{expected['history_digest'][:16]}, runs {runs}/"
              f"{expected['runs']}, failures {failures}, "
              f"refs differ for {','.join(wrong) or '-'}")
    if entry["shape"] == "fork_join" and wrong == ["Join"] \
            and runs == expected["runs"] and not failures \
            and len(pairs) == expected["instances"]:
        return Verdict(False, KNOWN_DEFECT, detail)
    return Verdict(False, None, detail)


_RAN = re.compile(r"ran '[^']*': (\d+) tool runs, (\d+) instances "
                  r"created, (\d+) cache hits")


def parse_ran(stdout: str) -> tuple[int, int, int]:
    """(tool runs, instances created, cache hits) of ``repro run``."""
    match = _RAN.search(stdout)
    if match is None:
        raise ValueError(f"unexpected repro run output: {stdout!r}")
    runs, created, hits = (int(group) for group in match.groups())
    return runs, created, hits


def load_signature(directory: pathlib.Path) -> list[tuple[str, str]]:
    """The history signature of a saved project (read-only use)."""
    env = persistence.load_environment(directory)
    try:
        return history_signature(env)
    finally:
        if isinstance(env.db.store, SqliteHistoryStore):
            env.db.store.close()


def save_closed(env: Any, directory: pathlib.Path, backend: str) -> None:
    persistence.save_environment(env, directory, backend=backend)
    if isinstance(env.db.store, SqliteHistoryStore):
        env.db.store.close()


class Workload:
    """Base class: the shape every workload's operations take."""

    name = ""
    #: operations per balanced round; runs stop on a round boundary so
    #: every run measures the same mix
    round = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work: pathlib.Path | None = None

    def setup(self, work: pathlib.Path) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state every measured phase starts from."""

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def prepare(self, op: Op) -> Any:
        return None

    def execute(self, op: Op, prepared: Any) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, prepared: Any, outcome: Outcome) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        """Release open handles before the work directory goes."""


class ColdCorpus(Workload):
    """Define and run one fresh scenario per operation (JSON backend,
    sequential executor, ``--cache readwrite``, shared memo armed)."""

    name = "cold_corpus"
    shapes = ("independent", "chain", "diamond", "fork_join", "pipeline")
    round = len(shapes)
    #: distinct scenarios per shape; operation i runs scenario i mod
    #: pool in a fresh directory, so every run is a cold define + run
    pool_per_shape = 8

    def setup(self, work: pathlib.Path) -> None:
        self.work = work
        rng = random.Random(self.seed)
        self.entries = []
        for index in range(self.pool_per_shape * len(self.shapes)):
            shape = self.shapes[index % len(self.shapes)]
            spec = scenario_spec(shape, rng.getrandbits(32), index,
                                 self.sizes.invocations)
            self.entries.append((spec, scenario_entry(spec)))

    def op(self, index: int) -> Op:
        return Op(index, "define_run",
                  self.entries[index % len(self.entries)])

    def prepare(self, op: Op) -> pathlib.Path:
        directory = self.work / "ops" / str(op.index)
        if directory.exists():
            shutil.rmtree(directory)
        return directory

    def execute(self, op: Op, directory: pathlib.Path) -> Outcome:
        # the steps `repro corpus run` performs for one scenario
        spec, _ = op.target
        env = generator.materialize_scenario(spec)
        persistence.save_environment(env, directory, backend="json")
        env = persistence.load_environment(directory)
        register_standard_encapsulations(env)
        register_corpus_encapsulations(env)
        flow = env.flow_catalog.select(MAIN_FLOW)
        report = env.executor(cache="readwrite").execute(flow)
        persistence.save_environment(env, directory)
        pairs = history_signature(env)
        return Outcome(op.kind, report.runs + report.cache_hits,
                       data=(pairs, report.runs, len(report.failures)))

    def check(self, op: Op, directory: pathlib.Path,
              outcome: Outcome) -> Verdict:
        shutil.rmtree(directory, ignore_errors=True)
        pairs, runs, failures = outcome.data
        return manifest_verdict(op.target[1], pairs, runs, failures)


class WarmRerun(Workload):
    """``repro run <proj> main --cache reuse`` on SQLite projects whose
    histories already hold several forced runs of the same flow."""

    name = "warm_rerun"
    shapes = ColdCorpus.shapes
    round = len(shapes)

    def setup(self, work: pathlib.Path) -> None:
        self.work = work
        rng = random.Random(self.seed)
        self.projects = []
        for index, shape in enumerate(self.shapes):
            spec = scenario_spec(shape, rng.getrandbits(32), index,
                                 self.sizes.invocations)
            directory = work / spec.scenario_id
            save_closed(generator.materialize_scenario(spec), directory,
                        "sqlite")
            for _ in range(self.sizes.prior_runs):
                code, out = quiet_cli(["run", str(directory), MAIN_FLOW,
                                       "--force", "--cache",
                                       "readwrite"])
                if code != 0:
                    raise RuntimeError(f"prior run failed: {out}")
            expected = scenario_entry(spec)["expected"]["runs"]
            self.projects.append(
                (directory, expected,
                 signature_digest(load_signature(directory))))

    def op(self, index: int) -> Op:
        return Op(index, "rerun", self.projects[index % len(self.projects)])

    def execute(self, op: Op, prepared: Any) -> Outcome:
        directory = op.target[0]
        code, out = quiet_cli(["run", str(directory), MAIN_FLOW,
                               "--cache", "reuse"])
        _, _, hits = parse_ran(out) if code == 0 else (0, 0, 0)
        return Outcome(op.kind, hits, data=(code, out))

    def check(self, op: Op, prepared: Any, outcome: Outcome) -> Verdict:
        directory, invocations, digest = op.target
        code, out = outcome.data
        if code != 0:
            return Verdict(False, None, f"{directory.name}: exit {code}")
        runs, created, hits = parse_ran(out)
        now = signature_digest(load_signature(directory))
        if runs or created or hits != invocations or now != digest:
            return Verdict(False, None,
                           f"{directory.name}: {runs} runs, {created} "
                           f"created, {hits}/{invocations} hits, "
                           f"history {'same' if now == digest else 'changed'}")
        return Verdict(True)


@dataclass
class _Segment:
    source: str
    head: str
    betas: range


class HistorySession(Workload):
    """A designer session on a seeded ``build_history`` SQLite history:
    40% backward traces, 25% forward traces, 25% ``stale_inputs``, 10%
    edits recording a new version of a source ``Alpha``."""

    name = "history_session"
    #: one round of 20 operations holds exactly the mix above
    mix = (("backward", 8), ("forward", 5), ("stale", 5), ("edit", 2))
    round = 20

    def setup(self, work: pathlib.Path) -> None:
        self.work = work
        pristine = work / "history.sqlite"
        synth = build_history(self.sizes.history, "forkjoin",
                              seed=self.seed,
                              store=SqliteHistoryStore(pristine))
        synth.db.store.close()
        self.pristine = pristine
        self.tool_id = synth.tool_id
        self.initially_edited = frozenset(synth.edited)
        # segment k's Betas are the serials after head k-1 up to head k:
        # an id-based membership that does not lean on the trace code
        self.segments = []
        low = 0
        for source, head in zip(synth.sources, synth.heads):
            high = parse_serial(head)[1]
            self.segments.append(_Segment(source, head,
                                          range(low + 1, high + 1)))
            low = high
        self.db: HistoryDatabase | None = None

    def reset(self) -> None:
        self.close()
        session = self.work / "session.sqlite"
        for suffix in ("", "-wal", "-shm"):
            stale = session.with_name(session.name + suffix)
            if stale.exists():
                stale.unlink()
        shutil.copyfile(self.pristine, session)
        self.db = HistoryDatabase(synth_schema(),
                                  store=SqliteHistoryStore(session),
                                  clock=tick_clock(2_000_000_000.0))
        self.edited = set(self.initially_edited)

    def close(self) -> None:
        if getattr(self, "db", None) is not None:
            self.db.store.close()
            self.db = None

    def op(self, index: int) -> Op:
        block, offset = divmod(index, self.round)
        rng = random.Random(f"{self.seed}:{block}")
        kinds = [kind for kind, count in self.mix for _ in range(count)]
        rng.shuffle(kinds)
        targets = [rng.randrange(len(self.segments)) for _ in kinds]
        return Op(index, kinds[offset], targets[offset])

    def execute(self, op: Op, prepared: Any) -> Outcome:
        segment = self.segments[op.target]
        db = self.db
        if op.kind == "backward":
            found = trace.backward_trace(db, segment.head).instances()
            return Outcome(op.kind, returned=len(found), data=found)
        if op.kind == "forward":
            found = trace.forward_trace(db, segment.source).instances()
            return Outcome(op.kind, returned=len(found), data=found)
        if op.kind == "stale":
            found = consistency.stale_inputs(db, segment.head)
            return Outcome(op.kind, returned=len(found), data=found)
        record = DerivationRecord.make(self.tool_id,
                                       {"previous": segment.source},
                                       db.new_invocation_id())
        edit = db.record("Alpha", {"edit-of": segment.source,
                                   "op": op.index},
                         record, user="designer", name="edit")
        db.store.flush()
        return Outcome(op.kind, data=edit.instance_id)

    def check(self, op: Op, prepared: Any, outcome: Outcome) -> Verdict:
        segment = self.segments[op.target]
        label = f"{op.kind} of segment {op.target}"
        if op.kind == "edit":
            self.edited.add(segment.source)
            edit = self.db.get(outcome.data)
            ok = edit.derivation.input_map() == {
                "previous": segment.source}
            return Verdict(ok, None, "" if ok else f"{label}: bad edit")
        if op.kind == "stale":
            expect = segment.source in self.edited
            ok = bool(outcome.data) == expect and all(
                reason.used == segment.source for reason in outcome.data)
            return Verdict(ok, None, "" if ok else
                           f"{label}: {len(outcome.data)} stale inputs, "
                           f"source edited: {expect}")
        found = set(outcome.data)
        # a backward trace from the head reaches the source, a forward
        # trace from the source reaches the head
        ends = segment.head in found and segment.source in found
        strays = [i for i in found if not self._inside(i, segment)]
        ok = ends and not strays
        return Verdict(ok, None, "" if ok else
                       f"{label}: {len(found)} instances, head and "
                       f"source {'in' if ends else 'not both in'} it, "
                       f"{len(strays)} outside the segment")

    def _inside(self, instance_id: str, segment: _Segment) -> bool:
        entity_type, serial = parse_serial(instance_id)
        if instance_id in (segment.source, self.tool_id):
            return True
        if entity_type == "Beta":
            return serial in segment.betas
        # an Alpha other than the source must be an edit of it
        derivation = self.db.get(instance_id).derivation
        return derivation is not None and \
            derivation.input_map().get("previous") == segment.source


class ProcpoolCorpus(Workload):
    """``repro run --executor procpool --force --trace`` on pristine
    copies of saved SQLite scenario projects, ``--cache off``."""

    name = "procpool_corpus"
    shapes = ("independent", "fork_join", "pipeline")
    round = len(shapes)

    def setup(self, work: pathlib.Path) -> None:
        self.work = work
        self.workers = min(2, nproc())
        rng = random.Random(self.seed)
        self.projects = []
        for index, shape in enumerate(self.shapes):
            spec = scenario_spec(shape, rng.getrandbits(32), index,
                                 self.sizes.invocations)
            directory = work / "pristine" / spec.scenario_id
            save_closed(generator.materialize_scenario(spec), directory,
                        "sqlite")
            self.projects.append((directory, scenario_entry(spec)))

    def op(self, index: int) -> Op:
        return Op(index, "procpool_run",
                  self.projects[index % len(self.projects)])

    def prepare(self, op: Op) -> pathlib.Path:
        directory = self.work / "ops" / str(op.index)
        if directory.exists():
            shutil.rmtree(directory)
        shutil.copytree(op.target[0], directory)
        return directory

    def execute(self, op: Op, directory: pathlib.Path) -> Outcome:
        code, out = quiet_cli(["run", str(directory), MAIN_FLOW,
                               "--executor", "procpool", "--workers",
                               str(self.workers), "--force", "--trace",
                               "--cache", "off"])
        runs = parse_ran(out)[0] if code == 0 else 0
        return Outcome(op.kind, runs, data=(code, runs))

    def check(self, op: Op, directory: pathlib.Path,
              outcome: Outcome) -> Verdict:
        code, runs = outcome.data
        entry = op.target[1]
        if code != 0:
            verdict = Verdict(False, None,
                              f"{entry['scenario_id']}: exit {code}")
        else:
            verdict = manifest_verdict(entry, load_signature(directory),
                                       runs, 0)
        shutil.rmtree(directory, ignore_errors=True)
        return verdict


WORKLOADS = {cls.name: cls for cls in (ColdCorpus, WarmRerun,
                                       HistorySession, ProcpoolCorpus)}
