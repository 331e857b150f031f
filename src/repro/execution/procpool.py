"""Process-pool flow execution: real multi-core task dispatch.

The thread-based executors overlap tool *waiting* but never tool
*computing* — every Python-level encapsulation still serializes on the
GIL, so the paper's "parallel task execution ... possibly on different
machines" (section 3.3) has so far only been simulated.  This tier
dispatches the scheduler's ready set to a pool of real
``multiprocessing`` worker processes:

* the coordinator keeps every piece of shared state — the history
  database, the derivation cache, the circuit breaker, the fault
  counters, the trace — and workers receive only **invocation
  envelopes**: picklable records of tool type + encapsulation
  fingerprint + resolved input payloads, re-resolved against the
  (fork-inherited) tool registry inside the worker;
* ready invocations of one tool type are **batched** onto one worker
  round-trip (up to ``DEFAULT_BATCH_MAX``), and every lane **steals**
  from the one global ready set, so an idle worker drains whatever is
  runnable;
* the coordinator settles every failed attempt through the same
  :class:`~repro.execution.resilience.ResiliencePolicy` steps the
  in-process call takes (``check``, ``timeout_for``, ``settle``) and
  the kernel's event hooks, so retries, timeouts and quarantine count
  and report alike on every tier.  What this module adds is the
  process boundary: a watchdog timeout *kills and respawns the worker
  process* (something the thread watchdog could never do), and a
  retry re-enqueues the envelope with a freshly drawn fault.

Workers never touch the history database; recording, cache population,
span and event emission happen coordinator-side, with worker-reported
tool durations attached to the spans.  ``fork`` is required: the registry
holds arbitrary closures that cannot be pickled to a spawned child,
but a forked child inherits them for free.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Sequence

from ..core.flow import DynamicFlow
from ..core.taskgraph import TaskGraph
from ..errors import (ExecutionError, InvocationTimeoutError, ToolError,
                      ToolQuarantinedError, TransientToolError)
from ..history.database import HistoryDatabase
from ..obs import (COMPOSE_TOOL, PHASE_DECODE, PHASE_ENCODE, PHASE_SPAN,
                   PHASE_TOOL, PHASE_VERIFY, PROCESS_EXECUTOR, WAVE_SPAN,
                   ClockSync, SamplingProfiler, Span, WorkerRunStats,
                   WorkerTelemetry, fit_phases, merge_profiles,
                   worker_utilization)
from .encapsulation import (EncapsulationRegistry, ToolContext,
                            fingerprint_callable)
from .executor import (ExecutionReport, InvocationResult, _Call, _Claim,
                       _ExecutionKernel, _invocation_graph, _ReadySet,
                       _Run, _Task, _derivation_inputs)
from .faults import FaultSpec, run_with_fault
from .resilience import annotate_error

DEFAULT_BATCH_MAX = 4

#: Clock-handshake request sentinel on the worker pipe (``None`` stays
#: the shutdown sentinel; envelope batches are lists, so neither can be
#: mistaken for the other).
_SYNC = "__clock_sync__"

#: How long the coordinator waits for the handshake pong.  Generous:
#: a fork under memory pressure can take a while to reach its loop, and
#: an unsynced handle degrades gracefully (offset 0) rather than fail.
SYNC_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# the wire format: what crosses the process boundary
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InvocationEnvelope:
    """One tool (or composition) call, serialized for a worker.

    Everything a worker needs is resolved coordinator-side into plain
    picklable values; the one exception is the encapsulation itself,
    which the worker re-resolves from its fork-inherited registry and
    verifies against ``fingerprint`` — the envelope names *code by
    content*, it never ships code.
    """

    envelope_id: int
    #: ``"tool"`` or ``"compose"``.
    kind: str
    #: Entity type of the tool node (tool) or composed data (compose).
    tool_type: str
    tool_instance_id: str | None
    tool_data: Any
    #: sha256 fingerprint of the encapsulation/composition callable the
    #: coordinator keyed the derivation on; the worker refuses to run
    #: different code under the same envelope.
    fingerprint: str
    output_types: tuple[str, ...]
    #: ``(role, payload)`` pairs; a payload is one design datum or (for
    #: batch encapsulations) a list of them.
    inputs: tuple[tuple[str, Any], ...]
    #: ``(role, instance_id)`` provenance of each input, for debugging
    #: and worker-side error messages — never re-resolved remotely.
    input_digests: tuple[tuple[str, str], ...]
    user: str
    #: Scripted fault to fire *inside* the worker (drawn by the
    #: coordinator, where the plan's counters live), or None.
    fault: FaultSpec | None = None
    #: True when the coordinator has a live tracer: the worker then
    #: records per-phase timing samples (decode/verify/tool/encode)
    #: and ships them home on the outcome.  Untraced runs skip the
    #: collection entirely.
    collect_phases: bool = False
    #: Sampling-profiler interval for the worker-side profiler, in
    #: seconds; 0 disables profiling for this envelope.  The worker
    #: keeps one profiler per process incarnation and ships its
    #: cumulative aggregate on every batch reply.
    profile_interval: float = 0.0
    #: Enable ``tracemalloc`` high-water tracking in the worker (the
    #: coordinator mirrors its own ``--profile-memory`` flag; off by
    #: default because tracemalloc multiplies tool-body cost).
    profile_memory: bool = False


@dataclass(frozen=True)
class EnvelopeOutcome:
    """What came back: a tool result or a transportable error triple."""

    envelope_id: int
    ok: bool
    value: Any = None
    #: Tool run time measured inside the worker — excludes dispatch,
    #: pickling and queueing, so durations stay comparable with the
    #: in-process executors.
    duration: float = 0.0
    worker: str = ""
    pid: int = 0
    error_class: str = ""
    error_message: str = ""
    error_module: str = ""
    #: Worker-side phase samples ``(name, start, end)`` on the worker's
    #: clock — only populated when the envelope asked for them; the
    #: coordinator skew-corrects and merges them as child spans.
    phases: tuple[tuple[str, float, float], ...] = ()
    #: Pickled size of the result payload (the encode phase's probe);
    #: 0 when phases were not collected.
    result_bytes: int = 0


def _decode_error(outcome: EnvelopeOutcome) -> BaseException:
    """Reconstruct a worker-reported error on the coordinator.

    Exceptions cross the pipe as ``(module, class, message)`` strings —
    arbitrary exception objects may not pickle, strings always do.
    Framework errors rebuild as their real types (so transient vs
    permanent classification survives the hop); anything unknown
    becomes a permanent :class:`~repro.errors.ToolError`.
    """
    from .. import errors as errors_module
    cls: Any = getattr(errors_module, outcome.error_class, None)
    if cls is None:
        cls = getattr(builtins, outcome.error_class, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(outcome.error_message)
        except Exception:  # noqa: BLE001 - odd constructor signature
            pass
    return ToolError(
        f"{outcome.error_class}: {outcome.error_message} "
        f"(raised in worker {outcome.worker or '?'})")


# ---------------------------------------------------------------------------
# worker side (runs in the forked child)
# ---------------------------------------------------------------------------
def _run_envelope(registry: EncapsulationRegistry,
                  envelope: InvocationEnvelope,
                  telemetry: WorkerTelemetry,
                  profiler=None) -> EnvelopeOutcome:
    telemetry.begin_envelope(collect=envelope.collect_phases)
    started = telemetry.clock()
    value: Any = None
    failure: BaseException | None = None
    result_bytes = 0
    try:
        with telemetry.phase(PHASE_DECODE):
            inputs = {role: payload
                      for role, payload in envelope.inputs}
        if envelope.kind == "compose":
            with telemetry.phase(PHASE_VERIFY):
                compose = registry.composition(envelope.tool_type)
                if fingerprint_callable(compose) != envelope.fingerprint:
                    raise ExecutionError(
                        f"composition for {envelope.tool_type!r} "
                        "changed between dispatch and execution "
                        "(fingerprint mismatch)")
            with telemetry.phase(PHASE_TOOL):
                body = lambda: compose(inputs)  # noqa: E731
                if profiler is not None:
                    value = profiler.run(COMPOSE_TOOL,
                                         lambda: run_with_fault(
                                             envelope.fault, body))
                else:
                    value = run_with_fault(envelope.fault, body)
        else:
            with telemetry.phase(PHASE_VERIFY):
                enc = registry.resolve(envelope.tool_type,
                                       envelope.tool_instance_id)
                if enc.fingerprint() != envelope.fingerprint:
                    raise ExecutionError(
                        f"encapsulation {enc.name!r} changed between "
                        "dispatch and execution (fingerprint mismatch)")
                ctx = ToolContext(
                    tool_type=envelope.tool_type,
                    tool_instance_id=envelope.tool_instance_id or "",
                    tool_data=envelope.tool_data,
                    output_types=envelope.output_types,
                    options=enc.options(),
                    user=envelope.user)
            with telemetry.phase(PHASE_TOOL):
                body = lambda: enc.run(ctx, inputs)  # noqa: E731
                if profiler is not None:
                    value = profiler.run(envelope.tool_type,
                                         lambda: run_with_fault(
                                             envelope.fault, body))
                else:
                    value = run_with_fault(envelope.fault, body)
        if envelope.collect_phases:
            # The real result serialization happens in conn.send();
            # this probe sizes the payload so the encode phase carries
            # data, and stays off the untraced fast path entirely.
            with telemetry.phase(PHASE_ENCODE):
                try:
                    result_bytes = len(pickle.dumps(value))
                except Exception:  # noqa: BLE001 - size is best-effort
                    result_bytes = 0
    except BaseException as error:  # transported, never fatal here
        failure = error
    duration = telemetry.clock() - started
    telemetry.finish_envelope(duration)
    if failure is not None:
        return EnvelopeOutcome(
            envelope_id=envelope.envelope_id, ok=False,
            duration=duration, worker=telemetry.worker,
            pid=os.getpid(), error_class=type(failure).__name__,
            error_message=str(failure),
            error_module=type(failure).__module__,
            phases=telemetry.phases())
    return EnvelopeOutcome(
        envelope_id=envelope.envelope_id, ok=True, value=value,
        duration=duration, worker=telemetry.worker, pid=os.getpid(),
        phases=telemetry.phases(), result_bytes=result_bytes)


def _worker_main(conn: multiprocessing.connection.Connection,
                 registry: EncapsulationRegistry, worker: str) -> None:
    """Worker loop: receive envelope batches, send outcome batches.

    ``None`` is the shutdown sentinel; the :data:`_SYNC` string is the
    clock handshake (answered with this worker's monotonic clock and
    pid); a broken pipe means the coordinator is gone and the worker
    simply exits.  Every batch reply travels as ``(outcomes, stats)``
    where ``stats`` is the telemetry counter snapshot — the coordinator
    keeps the latest, so a killed worker costs at most one batch of
    counters.
    """
    telemetry = WorkerTelemetry(worker)
    # Created lazily on the first profiled envelope and kept for the
    # life of this process; every batch reply carries the *cumulative*
    # aggregate, so the coordinator's replace-latest/fold-on-respawn
    # stats protocol works unchanged for profiles.
    profiler: SamplingProfiler | None = None
    try:
        while True:
            try:
                batch = conn.recv()
            except (EOFError, OSError):
                return
            if batch is None:
                return
            if batch == _SYNC:
                try:
                    conn.send((telemetry.clock(), os.getpid()))
                except (BrokenPipeError, OSError):
                    return
                continue
            telemetry.batches += 1
            if profiler is None:
                for envelope in batch:
                    if envelope.profile_interval > 0:
                        profiler = SamplingProfiler(
                            envelope.profile_interval,
                            track_memory=envelope.profile_memory)
                        profiler.start()
                        break
            replies = [_run_envelope(registry, envelope, telemetry,
                                     profiler)
                       for envelope in batch]
            stats = telemetry.stats()
            if profiler is not None:
                stats["profile"] = profiler.payload()
            try:
                conn.send((replies, stats))
            except Exception as error:  # unpicklable tool result
                conn.send(([
                    EnvelopeOutcome(
                        envelope_id=reply.envelope_id, ok=False,
                        duration=reply.duration, worker=worker,
                        pid=os.getpid(),
                        error_class="ExecutionError",
                        error_message=(
                            "tool result could not cross the process "
                            f"boundary: {error}"),
                        error_module="repro.errors",
                        phases=reply.phases)
                    for reply in replies], stats))
    finally:
        if profiler is not None:
            profiler.stop()


class _WorkerHandle:
    """One worker process plus its pipe, owned by one coordinator lane.

    Dedicated ``Process`` + ``Pipe`` pairs (rather than a shared
    ``concurrent.futures`` pool) exist precisely so one hung worker can
    be killed and respawned without disturbing the others — the
    process-level analogue of abandoning a watchdogged thread.
    """

    def __init__(self, name: str, registry: EncapsulationRegistry,
                 context, clock: Any = time.perf_counter) -> None:
        self.name = name
        self.registry = registry
        self.context = context
        self.clock = clock
        self.restarts = 0
        self.process: Any = None
        self.conn: Any = None
        #: Clock handshake result for the *current* process; refreshed
        #: on every (re)spawn, since a fresh fork is a fresh clock.
        self.sync = ClockSync()
        #: Worker-reported counters: the latest snapshot from the live
        #: process, plus the folded totals of every process a watchdog
        #: killed before it — "respawns survived" means the numbers
        #: keep accumulating across replacements.
        self.last_stats: dict[str, Any] = {}
        self.stats_base: dict[str, Any] = {}
        #: Lane-side counters (each handle is owned by exactly one
        #: coordinator lane thread, so these need no locking).  A
        #: *steal* is a claim whose tool type differs from this lane's
        #: previous claim — the lane left its warm streak to drain
        #: whatever was runnable on the shared deque.
        self.lane_steals = 0
        self.lane_cache_hits = 0
        self.last_tool_type: str | None = None

    def start(self) -> None:
        parent, child = self.context.Pipe()
        self.process = self.context.Process(
            target=_worker_main, args=(child, self.registry, self.name),
            name=f"repro-{self.name}", daemon=True)
        self.process.start()
        child.close()
        self.conn = parent
        self._handshake()

    def _handshake(self) -> None:
        """One ping/pong to estimate the worker-clock offset.

        Failure is harmless: an unsynced handle keeps offset 0 (exact
        on Linux, where ``perf_counter`` is the system-wide monotonic
        clock) and phase clamping bounds any residual error.
        """
        self.sync = ClockSync()
        try:
            sent_at = self.clock()
            self.conn.send(_SYNC)
            if self.conn.poll(SYNC_TIMEOUT):
                worker_clock, _pid = self.conn.recv()
                self.sync = ClockSync.estimate(
                    sent_at, float(worker_clock), self.clock())
        except (BrokenPipeError, EOFError, OSError):
            pass

    def _fold_stats(self) -> None:
        """Bank the dying process's last snapshot before replacing it."""
        base, snap = self.stats_base, self.last_stats
        if not snap:
            return
        for key in ("batches", "envelopes"):
            base[key] = base.get(key, 0) + int(snap.get(key, 0))
        base["busy_time"] = (base.get("busy_time", 0.0)
                             + float(snap.get("busy_time", 0.0)))
        base["rss_kb"] = max(int(base.get("rss_kb", 0)),
                             int(snap.get("rss_kb", 0)))
        profile = merge_profiles(base.get("profile", {}),
                                 snap.get("profile", {}))
        if profile:
            base["profile"] = profile
        self.last_stats = {}

    def worker_stats(self) -> dict[str, Any]:
        """Cumulative worker-side counters across every respawn."""
        merged = dict(self.stats_base)
        snap = self.last_stats
        for key in ("batches", "envelopes"):
            merged[key] = merged.get(key, 0) + int(snap.get(key, 0))
        merged["busy_time"] = (merged.get("busy_time", 0.0)
                               + float(snap.get("busy_time", 0.0)))
        merged["rss_kb"] = max(int(merged.get("rss_kb", 0)),
                               int(snap.get("rss_kb", 0)))
        profile = merge_profiles(merged.get("profile", {}),
                                 snap.get("profile", {}))
        if profile:
            merged["profile"] = profile
        elif "profile" in merged:
            del merged["profile"]
        return merged

    def respawn(self) -> None:
        """Kill the current process (if any) and fork a fresh one."""
        self._fold_stats()
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join()
        if self.conn is not None:
            self.conn.close()
        self.restarts += 1
        self.start()

    def call(self, batch: list[InvocationEnvelope],
             timeout: float | None) -> list[EnvelopeOutcome]:
        """One round trip under ``timeout`` (the policy's
        ``timeout_for`` budget, or None); on trouble the worker is
        replaced first.

        * broken pipe on send -> the worker died between rounds:
          respawn, raise transient;
        * no reply within ``timeout`` -> the worker is wedged (a real
          hang, not a slow scheduler): **kill it**, respawn, raise
          :class:`~repro.errors.InvocationTimeoutError` (transient, so
          the retry budget applies);
        * EOF on receive -> the worker crashed mid-call: respawn,
          raise transient.
        """
        try:
            self.conn.send(batch)
        except (BrokenPipeError, OSError):
            self.respawn()
            raise TransientToolError(
                f"worker {self.name} was gone before dispatch; "
                "respawned")
        if timeout is not None:
            if not self.conn.poll(timeout):
                self.respawn()
                raise InvocationTimeoutError(
                    f"worker {self.name} exceeded its {timeout:g}s "
                    "watchdog budget; process killed and respawned")
        try:
            replies, stats = self.conn.recv()
        except (EOFError, OSError):
            self.respawn()
            raise TransientToolError(
                f"worker {self.name} died mid-invocation "
                "(exit code suggests a crash); respawned")
        self.last_stats = dict(stats)
        return replies

    def stop(self) -> None:
        if self.conn is not None:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self.process is not None:
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if self.conn is not None:
            self.conn.close()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
@dataclass
class _Unit:
    """One cold call of a claimed invocation, on its way to a worker."""

    task: _Task
    call: _Call
    envelope: InvocationEnvelope
    outcome: EnvelopeOutcome | None = None
    #: Tool time of earlier units in the same worker round trip: a
    #: batched unit waits this long after dispatch before its tool
    #: starts, so it counts toward queue wait, not duration.
    batch_offset: float = 0.0
    #: Coordinator-observed (send, receive) interval of the round trip
    #: that produced ``outcome``, on the tracer clock — the clamp
    #: window for skew-corrected worker phase spans.  Retries
    #: overwrite it, so the last (successful) attempt wins.
    window: tuple[float, float] | None = None


class ProcessFlowExecutor(_ExecutionKernel):
    """Executes one flow on a pool of ``pool`` real worker processes.

    The coordinator runs the kernel's ready-set driver: one lane thread
    per worker process claims ready invocations from the shared ready
    set (work-stealing), batches same-tool-type claims onto one round
    trip, and records all results into the (single-process) history
    database.  Requires the ``fork`` start method — the tool registry
    holds closures only a forked child can inherit.
    """

    _kind = PROCESS_EXECUTOR
    _queued = True

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry, *, pool: int = 2,
                 **wiring: Any) -> None:
        if not isinstance(pool, int) or pool < 1:
            raise ExecutionError(
                f"need a worker process count >= 1, got {pool!r}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "the procpool executor requires the 'fork' start "
                "method (tool encapsulations hold closures that "
                "cannot be pickled to a spawned worker); this "
                "platform offers only: "
                + ", ".join(multiprocessing.get_all_start_methods()))
        super().__init__(db, registry, **wiring)
        self.workers = pool
        # Coordinator-side profiling aggregate: workers run their own
        # in-process samplers (a coordinator thread cannot see worker
        # stacks) and ship cumulative payloads back on every batch
        # reply; the coordinator absorbs them and clamps busy time to
        # the fitted tool-phase durations before the ledger snapshot.
        self._profile_caps: dict[str, float] = {}
        self._profile_lock = threading.Lock()
        self._context = multiprocessing.get_context("fork")
        self._envelope_ids = itertools.count(1)

    @property
    def _pool_size(self) -> int:
        return self.workers

    @property
    def _profile_interval(self) -> float:
        return self.profiler.interval if self.profiler is not None \
            else 0.0

    @property
    def _profile_memory(self) -> bool:
        return bool(self.profiler is not None
                    and self.profiler.track_memory)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, flow: TaskGraph | DynamicFlow,
                targets: Sequence[str] | None = None, *,
                force: bool = False) -> ExecutionReport:
        """Run a flow (or the sub-flow reaching ``targets``)."""
        return self._execute(flow, targets, force)

    def _plan(self, run: _Run) -> dict[str, Any]:
        run.plan = _invocation_graph(run.graph, run.needed)
        return {"scheduler": "procpool", "workers": self.workers,
                "invocations": len(run.plan)}

    def _dispatch_run(self, run: _Run) -> None:
        if not run.plan:
            return  # nothing to run: fork no workers
        self._profile_caps = {}
        # Fork the whole pool BEFORE any lane thread exists: forking a
        # single-threaded coordinator is safe; forking one with live
        # lanes would snapshot their lock states into the child.
        handles = [_WorkerHandle(f"worker{i}", self.registry,
                                 self._context, clock=self.tracer.clock)
                   for i in range(self.workers)]
        for handle in handles:
            handle.start()
        try:
            self._drive(run, [functools.partial(self._lane, run, handle)
                              for handle in handles])
        finally:
            for handle in handles:
                handle.stop()
            wall = time.perf_counter() - run.started
            run.workers = self._collect_worker_stats(handles, wall)
            if self.profiler is not None:
                # Fold every worker's cumulative aggregate (respawn
                # bases included), then clamp busy time to the
                # skew-corrected tool-phase durations so self time
                # stays contained in the merged trace spans.
                for handle in handles:
                    payload = handle.worker_stats().get("profile")
                    if payload:
                        self.profiler.absorb(payload)
                self.profiler.clamp_to(self._profile_caps)
        run.summary.update(
            restarts=sum(h.restarts for h in handles),
            utilization=round(worker_utilization(run.workers, wall), 4))

    def _lane(self, run: _Run, handle: _WorkerHandle,
              state: _ReadySet) -> None:
        with self.tracer.activate(run.context), self.tracer.span(
                f"lane:{handle.name}", WAVE_SPAN,
                attributes={"flow": run.graph.name,
                            "machine": handle.name}) as lane_span:
            executed = self._claim_loop(
                run, state, handle.name,
                functools.partial(self._run_batch, run, handle),
                functools.partial(self._claim_limit, handle))
            lane_span.set(invocations=executed,
                          restarts=handle.restarts,
                          steals=handle.lane_steals,
                          cache_hits=handle.lane_cache_hits,
                          clock_offset=round(handle.sync.offset, 6),
                          clock_rtt=round(handle.sync.rtt, 6))

    def _collect_worker_stats(self, handles: list[_WorkerHandle],
                              wall: float
                              ) -> dict[str, WorkerRunStats]:
        """Fold worker-side counters + lane counters per worker."""
        stats: dict[str, WorkerRunStats] = {}
        for handle in handles:
            snap = handle.worker_stats()
            busy = float(snap.get("busy_time", 0.0))
            stats[handle.name] = WorkerRunStats(
                batches=int(snap.get("batches", 0)),
                invocations=int(snap.get("envelopes", 0)),
                steals=handle.lane_steals,
                respawns=handle.restarts,
                cache_hits=handle.lane_cache_hits,
                busy_time=round(busy, 6),
                idle_time=round(max(0.0, wall - busy), 6),
                rss_kb=int(snap.get("rss_kb", 0)))
        return stats

    # ------------------------------------------------------------------
    # lane: claim, batch, prepare, dispatch, record
    # ------------------------------------------------------------------
    def _claim_limit(self, handle: _WorkerHandle, tool_type: str | None,
                     ready: int) -> int:
        """How many same-tool-type invocations one claim may take.

        Runs under the ready set's lock.  Same-tool-type claims share
        one worker round trip unless a watchdog budget applies (it is
        per invocation), and batch greed is capped at this lane's fair
        share of the ready set: amortize round trips only when there is
        more ready work than workers — otherwise batching would
        serialize exactly the parallelism it exists to exploit.
        """
        # Steal accounting: this lane switched tool types to drain
        # whatever was runnable off the shared ready set.
        if handle.last_tool_type is not None \
                and tool_type != handle.last_tool_type:
            handle.lane_steals += 1
        handle.last_tool_type = tool_type
        if self.resilience is not None and self.resilience.timeout_for(
                tool_type or COMPOSE_TOOL) is not None:
            return 1
        return min(DEFAULT_BATCH_MAX, max(1, -(-ready // self.workers)))

    def _run_batch(self, run: _Run, handle: _WorkerHandle,
                   claims: list[_Claim]) -> int:
        """Prepare, dispatch and record one claimed batch; returns how
        many invocations executed a call."""
        prepared: list[tuple[_Task, list[_Unit]]] = []
        for claim in claims:
            try:
                task = self._prepare(run, claim.invocation, handle.name,
                                     claim.queue_wait, claim.wave)
                units = [_Unit(task, call, self._envelope(task, call))
                         for call in self._calls(run, task)]
            except Exception as error:
                self._fail(run, claim.invocation, error, handle.name)
                continue
            handle.lane_cache_hits += task.hits
            prepared.append((task, units))
        units = [unit for _, task_units in prepared for unit in task_units]
        if units:
            self._dispatch(run, handle, units)
        executed = 0
        for task, task_units in prepared:
            try:
                result = self._record_task(run, task, task_units, handle)
            except Exception as error:
                self._fail(run, task.invocation, error, handle.name)
                continue
            executed += result is not None
        return executed

    def _envelope(self, task: _Task, call: _Call) -> InvocationEnvelope:
        """Serialize one prepared call for a worker.

        The fault is drawn here, on the coordinator, where the plan's
        counters live.
        """
        fault = (self.faults.next_fault(task.tool_type)
                 if self.faults is not None else None)
        if call.enc is None:
            kind, fingerprint = "compose", fingerprint_callable(task.compose)
        else:
            kind, fingerprint = "tool", call.enc.fingerprint()
        return InvocationEnvelope(
            envelope_id=next(self._envelope_ids), kind=kind,
            tool_type=task.name, tool_instance_id=call.tool_id,
            tool_data=call.ctx.tool_data if call.ctx is not None else None,
            fingerprint=fingerprint, output_types=task.output_types,
            inputs=tuple(sorted(call.inputs.items())),
            input_digests=_derivation_inputs(call.combo),
            user=self.user, fault=fault,
            collect_phases=self.tracer.enabled,
            profile_interval=self._profile_interval,
            profile_memory=self._profile_memory)

    # ------------------------------------------------------------------
    # dispatch: worker round trips, settled through the policy
    # ------------------------------------------------------------------
    def _dispatch(self, run: _Run, handle: _WorkerHandle,
                  units: list[_Unit]) -> None:
        """Run every unit to a final outcome (success or final error).

        Only the process-boundary work lives here: grouping units into
        round trips, the pipe round trip, and a fresh fault draw for a
        retried envelope.  The policy decides the rest through the
        steps :meth:`ResiliencePolicy.run` takes in-process: ``check``
        refuses a quarantined tool type before dispatch,
        ``timeout_for`` is the round trip's watchdog budget (enforced
        by :meth:`_WorkerHandle.call`, which kills and respawns a hung
        worker) and :meth:`_settle` hands each failed attempt to
        ``settle``.
        """
        pending = list(units)
        while pending:
            current, pending = pending, []
            # Per-unit watchdog budgets force one-envelope round trips;
            # unbounded units of one batch share a single trip.
            groups: list[list[_Unit]] = []
            for unit in current:
                if groups and self._timeout_for(unit) is None \
                        and self._timeout_for(groups[-1][0]) is None:
                    groups[-1].append(unit)
                else:
                    groups.append([unit])
            for group in groups:
                # A batch-mate (or an earlier group) may have opened
                # the quarantine after this unit was prepared.
                group = [unit for unit in group if not self._refused(unit)]
                if not group:
                    continue
                for unit in group:
                    unit.call.stats.attempts += 1
                sent_at = self.tracer.clock()
                try:
                    outcomes = handle.call(
                        [unit.envelope for unit in group],
                        self._timeout_for(group[0]))
                except BaseException as error:
                    # transport-level failure: the whole round is one
                    # failed attempt for every unit aboard
                    for unit in group:
                        self._settle(run, unit, error, pending)
                    continue
                received_at = self.tracer.clock()
                for unit in group:
                    unit.window = (sent_at, received_at)
                by_id = {outcome.envelope_id: outcome
                         for outcome in outcomes}
                # A worker runs its batch serially: unit K's tool only
                # starts after units 0..K-1 finished, so their summed
                # tool time is queue wait from unit K's point of view.
                elapsed = 0.0
                for unit in group:
                    unit.batch_offset = elapsed
                    got = by_id.get(unit.envelope.envelope_id)
                    if got is not None:
                        elapsed += got.duration
                for unit in group:
                    outcome = by_id.get(unit.envelope.envelope_id)
                    if outcome is None:
                        self._settle(
                            run, unit,
                            TransientToolError(
                                f"worker {handle.name} returned no "
                                "outcome for envelope "
                                f"{unit.envelope.envelope_id}"),
                            pending)
                    elif outcome.ok:
                        unit.outcome = outcome
                        unit.call.value = outcome.value
                        unit.call.elapsed = outcome.duration
                        if self.resilience is not None:
                            self.resilience.breaker.record_success(
                                unit.task.tool_type)
                    else:
                        self._settle(run, unit, _decode_error(outcome),
                                     pending)

    def _timeout_for(self, unit: _Unit) -> float | None:
        return (self.resilience.timeout_for(unit.task.tool_type)
                if self.resilience is not None else None)

    def _refused(self, unit: _Unit) -> bool:
        """Fail ``unit`` fast when its tool type is quarantined."""
        try:
            if self.resilience is not None:
                self.resilience.check(unit.task.tool_type)
        except ToolQuarantinedError as error:
            unit.call.error = error
            return True
        return False

    def _settle(self, run: _Run, unit: _Unit, error: BaseException,
                pending: list[_Unit]) -> None:
        """Settle one failed attempt: re-enqueue the unit for a retry,
        or leave its final error on the call."""
        policy = self.resilience
        if policy is None:
            unit.call.error = annotate_error(error,
                                             tool_type=unit.task.tool_type)
            return
        try:
            # A round-trip-mate may have opened the quarantine: had the
            # units run one at a time, as in-process, this one would
            # have been refused before its attempt, so its failure is
            # not counted again.
            policy.check(unit.task.tool_type)
            delay = policy.settle(unit.task.tool_type, error,
                                  unit.call.stats,
                                  **self._policy_hooks(run, unit.task))
        except BaseException as final:
            unit.call.error = final
            return
        policy.sleep(delay)
        # Per-attempt fault counting: the retried call is a fresh draw
        # from the plan, exactly as the in-process boundary counts it.
        unit.envelope = replace(
            unit.envelope,
            fault=self.faults.next_fault(unit.task.tool_type)
            if self.faults is not None else None)
        pending.append(unit)

    # ------------------------------------------------------------------
    # record: history writes, spans and events (coordinator side)
    # ------------------------------------------------------------------
    def _record_task(self, run: _Run, task: _Task, units: list[_Unit],
                     handle: _WorkerHandle) -> InvocationResult | None:
        """Record one invocation's outcomes under its task span.

        Invocations fail atomically: if any unit ended in error,
        nothing of the invocation is recorded and the (annotated)
        error is raised — mirroring how the inline path never records
        past the first failing combination.
        """
        # The invocation waited in the coordinator's ready set AND (when
        # batched) behind its round-trip-mates inside the worker.
        if units:
            task.queue_wait += min(u.batch_offset for u in units)
        with self._task_span(run, task) as task_span:
            failed = next((u.call.error for u in units
                           if u.call.error is not None), None)
            if failed is not None:
                raise failed
            for unit in units:
                outcome = unit.outcome
                with self._call_span(
                        task, unit.call,
                        worker=outcome.worker or handle.name,
                        worker_pid=outcome.pid,
                        tool_duration=round(outcome.duration, 6)
                        ) as call_span:
                    self._record(run, task, unit.call, call_span)
                    if isinstance(call_span, Span):
                        self._merge_phases(handle, unit, call_span)
            # Spans are recorded post-hoc (the work already happened
            # inside the worker); pull the task span's start back to
            # the earliest dispatch so child intervals stay contained.
            windows = [u.window for u in units if u.window is not None]
            if windows and isinstance(task_span, Span):
                task_span.start = min([task_span.start]
                                      + [w[0] for w in windows])
            return self._finish(run, task, task_span,
                                sum(u.call.elapsed for u in units))

    def _merge_phases(self, handle: _WorkerHandle, unit: _Unit,
                      tool_span: Span) -> None:
        """Graft worker-side phase samples under the tool span.

        Worker clocks are skew-corrected via the handshake offset and
        then clamped into the coordinator-observed dispatch window, so
        a bad offset estimate can distort a phase but never push it
        outside its parent.  The tool span's start is pulled back to
        the earliest phase so the children stay contained.
        """
        outcome = unit.outcome
        if outcome is None:
            return
        fitted = fit_phases(outcome.phases, handle.sync, unit.window)
        if not fitted:
            return
        if self.profiler is not None:
            # Sum the fitted tool-body durations per tool type: these
            # are, by construction, contained in the merged tool spans,
            # so they are the containment cap for worker-sampled busy
            # time (clamped once, after all lanes join).
            tool_body = sum(end - start for name, start, end in fitted
                            if name == PHASE_TOOL)
            if tool_body > 0:
                with self._profile_lock:
                    self._profile_caps[unit.task.tool_type] = \
                        self._profile_caps.get(
                            unit.task.tool_type, 0.0) + tool_body
        worker = outcome.worker or handle.name
        for name, start, end in fitted:
            phase_span = self.tracer.start_span(
                f"{name}:{unit.task.tool_type}", PHASE_SPAN,
                parent=tool_span.context,
                attributes={"worker": worker, "phase": name},
                start=start)
            self.tracer.finish(phase_span, end=end)
        tool_span.start = min([tool_span.start]
                              + [s for _, s, _ in fitted])
        if outcome.result_bytes:
            tool_span.set(result_bytes=outcome.result_bytes)


__all__ = [
    "DEFAULT_BATCH_MAX",
    "EnvelopeOutcome",
    "InvocationEnvelope",
    "ProcessFlowExecutor",
]
