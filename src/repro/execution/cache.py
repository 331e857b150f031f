"""Derivation-keyed incremental re-execution cache.

Every design object already carries a :class:`DerivationRecord` (the
immediate tool and data inputs that created it — paper section 1) and
the datastore is content-addressed, so the ingredients of Make/Dask
style memoization are free: a *derivation key* — tool type, tool data
content, encapsulation fingerprint, canonical content digests of every
bound input and the output-type signature — uniquely identifies one
tool run.  The :class:`DerivationCache` maintains a key -> instance-ids
index over a :class:`~repro.history.database.HistoryDatabase`; an
executor that is about to run a tool asks the cache first, and on a hit
reuses the recorded instances instead of calling the tool again.

A hit is only taken when every remembered instance is still up to date
(:func:`repro.history.consistency.all_up_to_date`), so version-wise
staleness — an edited input anywhere upstream — silently degrades to a
miss and a fresh run, exactly the paper's consistency-maintenance rules
applied in reverse.

The history is the index's only source; the index is a view of it.
It is populated two ways:

* **on record** — the cache registers as a record listener on the
  database, so every instance written while the cache is attached is
  queued and indexed at the next :meth:`DerivationCache.sync`, whatever
  the run's cache policy;
* **lazily for pre-existing histories** — the first lookup sweeps any
  instances the listener never saw (e.g. a history loaded from disk)
  and indexes their recorded derivations.

Executors record the fingerprint of the code that ran in every
derivation record (``DerivationRecord.code``), so a run is keyed under
that code whenever it is indexed, and a re-registered tool never
matches runs of its old code; records without one fall back to the
registered code.

Two copies of the index persist, both guarded by the encapsulation
registry's :meth:`signature`: the SQLite backend's key-index table
(which replaces the first-use sweep when its signature still holds) and
the cross-process :mod:`~repro.execution.shared_memo` log.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..errors import ExecutionError
from ..history.consistency import all_up_to_date
from ..history.database import HistoryDatabase
from ..history.instance import DerivationRecord, EntityInstance
from .encapsulation import EncapsulationRegistry, fingerprint_callable
from .shared_memo import SharedDerivationMemo

# -- cache policies ----------------------------------------------------------
# The record listener indexes every recorded instance once the cache
# exists, whatever the policy; the policies differ in what they read and
# in what a fresh run adds beyond the listener.
CACHE_OFF = "off"            #: no lookups; the cache is never built
CACHE_REUSE = "reuse"        #: reuse hits; fresh runs only via the listener
CACHE_READWRITE = "readwrite"  #: reuse hits; store duration and memo line

CACHE_POLICIES = (CACHE_OFF, CACHE_REUSE, CACHE_READWRITE)


def normalize_policy(policy: str | None) -> str:
    """Validate a ``cache=`` policy value (``None`` means off)."""
    if policy is None:
        return CACHE_OFF
    if policy not in CACHE_POLICIES:
        raise ExecutionError(
            f"unknown cache policy {policy!r}; choose from "
            f"{', '.join(CACHE_POLICIES)}")
    return policy


@dataclass(frozen=True)
class CacheHit:
    """One remembered tool run the executor may coalesce.

    ``outputs`` preserves the recording order of ``(entity_type,
    instance_id)`` pairs, so multi-output invocations (Fig. 5) can map
    each reused instance back onto the right flow node.
    """

    key: str
    outputs: tuple[tuple[str, str], ...]
    saved: float
    bytes_saved: int

    @property
    def instance_ids(self) -> tuple[str, ...]:
        return tuple(instance_id for _, instance_id in self.outputs)

    def ids_by_type(self) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for entity_type, instance_id in self.outputs:
            grouped.setdefault(entity_type, []).append(instance_id)
        return grouped


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (process lifetime)."""

    hits: int = 0
    misses: int = 0
    bytes_saved: int = 0
    time_saved: float = 0.0
    invalidated: int = 0

    def render(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (f"derivation cache: {self.hits} hits, "
                f"{self.misses} misses ({rate:.0f}% hit rate), "
                f"{self.bytes_saved} bytes saved, "
                f"{self.time_saved * 1e3:.2f}ms saved, "
                f"{self.invalidated} stale entries skipped")


@dataclass
class _Entry:
    """All remembered runs for one derivation key, newest last."""

    groups: list[tuple[tuple[str, str], ...]] = field(default_factory=list)
    duration: float = 0.0


class DerivationCache:
    """Key -> instance-ids index enabling incremental re-execution."""

    def __init__(self, db: HistoryDatabase,
                 registry: EncapsulationRegistry) -> None:
        self.db = db
        self.registry = registry
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._seen: set[str] = set()
        self._dirty: list[EntityInstance] = []
        self._synced = False
        self._attached = False
        self.memo: SharedDerivationMemo | None = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self) -> "DerivationCache":
        """Start indexing every instance the database records."""
        if not self._attached:
            self.db.add_record_listener(self._on_record)
            self._attached = True
        return self

    def attach_shared_memo(
            self, path: str | pathlib.Path) -> SharedDerivationMemo:
        """Share remembered runs with other processes via ``path``.

        Freshly stored runs are appended to the memo log and entries
        other processes appended are absorbed on every :meth:`sync` —
        concurrent runs (and procpool coordinators of concurrent runs)
        observe each other's hits.  Memo entries naming instances this
        history has never recorded are ignored at :meth:`fetch` time.
        """
        with self._lock:
            self.memo = SharedDerivationMemo(
                path, lambda: self.registry.signature())
            return self.memo

    def _on_record(self, instance: EntityInstance) -> None:
        """Record listener: capture freshly written instances.

        Sibling outputs of one multi-output run arrive one at a time, so
        keys (which embed the full output signature) cannot be computed
        here; instances queue up and are grouped and indexed in batch at
        the next :meth:`sync`.
        """
        with self._lock:
            self._dirty.append(instance)

    # ------------------------------------------------------------------
    # derivation keys
    # ------------------------------------------------------------------
    def _data_digest(self, instance_id: str) -> str:
        instance = self.db.get(instance_id)
        if instance.data_ref is None:
            return ""
        # legacy short refs resolve to full-length digests, so keys
        # never inherit the old truncation collisions
        return self.db.datastore.resolve(instance.data_ref)

    def tool_run_key(self, tool_id: str,
                     combo: Mapping[str, Any],
                     output_types: Iterable[str],
                     code: str | None = None) -> str:
        """Derivation key for one tool call.

        ``combo`` maps role names to an input instance id (fan-out mode)
        or a list of them (batch mode).  ``code`` is the fingerprint of
        the encapsulation that ran; ``None`` means the registered one.
        """
        tool = self.db.get(tool_id)
        if code is None:
            code = self.registry.resolve(tool.entity_type,
                                         tool_id).fingerprint()
        return self._key(
            kind="tool",
            tool_type=tool.entity_type,
            tool_digest=self._data_digest(tool_id),
            code=code,
            combo=combo,
            output_types=output_types)

    def composition_key(self, entity_type: str,
                        combo: Mapping[str, Any],
                        code: str | None = None) -> str:
        """Derivation key for one implicit-composition run."""
        if code is None:
            code = fingerprint_callable(
                self.registry.composition(entity_type))
        return self._key(
            kind="compose",
            tool_type=entity_type,
            tool_digest="",
            code=code,
            combo=combo,
            output_types=(entity_type,))

    def _key(self, *, kind: str, tool_type: str, tool_digest: str,
             code: str, combo: Mapping[str, Any],
             output_types: Iterable[str]) -> str:
        inputs = []
        for role in sorted(combo):
            ref = combo[role]
            ids = ref if isinstance(ref, (list, tuple)) else (ref,)
            inputs.append(
                [role, sorted(self._data_digest(i) for i in ids)])
        spec = json.dumps(
            {"kind": kind, "tool": tool_type, "tool_data": tool_digest,
             "code": code, "inputs": inputs,
             "outputs": sorted(output_types)},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(spec.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _key_store(self):
        """The history store's persistent key index, when it has one."""
        store = getattr(self.db, "store", None)
        if store is not None and store.supports_key_index:
            return store
        return None

    def _load_key_index(self) -> bool:
        """Adopt the store-persisted key index if its signature holds.

        The SQLite backend persists key -> outputs rows next to the
        instances; when the encapsulation registry's signature matches
        the one the rows were built against, reopening a history skips
        the first-use full sweep entirely.
        """
        store = self._key_store()
        if store is None:
            return False
        if store.key_index_signature() != self.registry.signature():
            return False
        for key, pairs, duration in store.iter_key_groups():
            self._merge(key, pairs, duration)
            self._seen.update(instance_id for _, instance_id in pairs)
        return True

    def sync(self) -> int:
        """Materialize the index from captured and pre-existing records.

        Drains the record listener's queue and — on first use — sweeps
        the whole database, so histories that predate the cache (or were
        loaded from disk) participate.  Instances are grouped into tool
        runs by their shared derivation record before keys are computed,
        so multi-output siblings land in one group under one key.
        Returns the number of instances newly indexed.

        On a store with a persistent key index (the SQLite backend) the
        first-use sweep is replaced by loading that index when its
        registry signature still matches; a full sweep (re)builds it.
        """
        with self._lock:
            self._absorb_memo()
            batch: Iterable[EntityInstance] = self._dirty
            self._dirty = []
            if not self._synced:
                self._synced = True
                if not self._load_key_index():
                    batch = self.db.iter_instances()
                    store = self._key_store()
                    if store is not None:
                        store.reset_key_index(self.registry.signature())
            groups: dict[DerivationRecord, list[EntityInstance]] = {}
            added = 0
            for instance in batch:
                if instance.instance_id in self._seen:
                    continue
                self._seen.add(instance.instance_id)
                added += 1
                derivation = instance.derivation
                if derivation is None:
                    continue
                groups.setdefault(derivation, []).append(instance)
            for derivation, members in groups.items():
                members.sort(key=lambda i: (i.timestamp, i.instance_id))
                combo: dict[str, list[str]] = {}
                for role, input_id in derivation.inputs:
                    combo.setdefault(role, []).append(input_id)
                # key under the code that made the run; records that
                # predate the field fall back to the registered code
                code = derivation.code or None
                try:
                    if derivation.tool is None:
                        key = self.composition_key(
                            members[0].entity_type, combo, code)
                    else:
                        key = self.tool_run_key(
                            derivation.tool, combo,
                            sorted({m.entity_type for m in members}), code)
                except Exception:
                    # underivable record (unregistered encapsulation,
                    # vanished blob, ...): stays uncached
                    continue
                pairs = tuple((m.entity_type, m.instance_id)
                              for m in members)
                self._remember(key, pairs)
            return added

    def _merge(self, key: str, pairs: tuple[tuple[str, str], ...],
               duration: float = 0.0) -> _Entry:
        """Add one group under ``key``, keeping the larger duration."""
        entry = self._entries.setdefault(key, _Entry())
        entry.duration = max(entry.duration, duration)
        members = frozenset(pairs)
        if not any(frozenset(g) == members for g in entry.groups):
            entry.groups.append(pairs)
        return entry

    def _remember(self, key: str, pairs: tuple[tuple[str, str], ...],
                  duration: float = 0.0) -> None:
        """Merge one of this history's groups and persist it."""
        entry = self._merge(key, pairs, duration)
        store = self._key_store()
        if store is not None and self._synced:
            store.put_key_group(key, pairs, entry.duration)

    def _absorb_memo(self) -> None:
        """Adopt runs other processes published to the shared memo.

        Memo entries feed ``_entries`` only — never ``_seen`` or the
        store-persisted key index, which both describe *this* history's
        records.  Entries for instances absent from this history stay
        inert until :meth:`fetch` skips them.
        """
        if self.memo is None:
            return
        try:
            polled = self.memo.poll()
        except OSError:
            return  # unreadable memo: degrade to a process-local cache
        for key, pairs, duration in polled:
            self._merge(key, pairs, duration)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def remembered(self) -> int:
        """Remembered runs (groups) across every key."""
        with self._lock:
            return sum(len(entry.groups)
                       for entry in self._entries.values())

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def fetch(self, key: str,
              output_types: Iterable[str]) -> CacheHit | None:
        """Newest remembered run for ``key`` that is still reusable.

        Validates that the remembered instances exist, are up to date
        version-wise, and cover the requested output types; stale or
        incomplete groups are skipped (and counted as invalidated).
        Updates hit/miss statistics.
        """
        wanted = sorted(output_types)
        with self._lock:
            self.sync()
            entry = self._entries.get(key)
            groups = list(entry.groups) if entry is not None else []
            duration = entry.duration if entry is not None else 0.0

        def recency(group: tuple[tuple[str, str], ...]) -> float:
            # rank by actual member timestamps, not list position: memo
            # lines and swept history may interleave in either order
            stamps = [self.db.get(instance_id).timestamp
                      for _, instance_id in group
                      if instance_id in self.db]
            return max(stamps) if stamps else -1.0

        for group in sorted(groups, key=recency, reverse=True):
            types = sorted(entity_type for entity_type, _ in group)
            if types != wanted:
                continue
            ids = [instance_id for _, instance_id in group]
            if any(instance_id not in self.db for instance_id in ids):
                # a shared-memo entry from a run whose records this
                # history never received: unusable here, not stale
                continue
            if not all_up_to_date(self.db, ids):
                with self._lock:
                    self.stats.invalidated += 1
                continue
            bytes_saved = 0
            for instance_id in ids:
                ref = self.db.get(instance_id).data_ref
                if ref is not None:
                    bytes_saved += self.db.datastore.size(ref)
            with self._lock:
                self.stats.hits += 1
                self.stats.bytes_saved += bytes_saved
                self.stats.time_saved += duration
            return CacheHit(key, tuple(group), duration, bytes_saved)
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, key: str, outputs: Iterable[tuple[str, str]],
              duration: float = 0.0) -> None:
        """Index one freshly executed run under the key it ran with.

        The group's instances are marked seen before the listener queue
        drains, so :meth:`sync` does not key the run a second time.
        Also remembers the measured duration (the basis of ``time
        saved`` reporting) and publishes the run to the memo.
        """
        group = tuple(outputs)
        if not group:
            return
        with self._lock:
            self._seen.update(instance_id for _, instance_id in group)
            self.sync()
            self._remember(key, group, duration)
            if self.memo is not None:
                try:
                    self.memo.append(key, group, duration)
                except OSError:
                    pass  # unwritable memo: stay process-local

    def __repr__(self) -> str:
        return (f"DerivationCache({len(self._entries)} keys, "
                f"{len(self._seen)} instances indexed)")
