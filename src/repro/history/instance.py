"""Entity instances and their derivation meta-data.

Section 1: *"by associating a small amount of meta-data with each design
object, indicating the immediate tool and data used in creating that
object, the complete derivation history of a design may be stored."*

An :class:`EntityInstance` carries exactly the meta-data shown in the
Fig. 9 browser — user id, creation time-stamp, name and comment — plus a
:class:`DerivationRecord` pointing at the *immediate* tool instance and
input instances.  Everything deeper (full traces, version trees, staleness)
is reconstructed from these records by :mod:`repro.history.query` and
:mod:`repro.history.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping


@dataclass(frozen=True)
class DerivationRecord:
    """The immediate provenance of one instance.

    Attributes
    ----------
    tool:
        Instance id of the tool that produced the instance, or ``None``
        for composed entities (implicit composition function).
    inputs:
        Sorted ``(role, input instance id)`` pairs.
    invocation:
        Identifier shared by all sibling outputs of one coalesced task
        invocation (Fig. 5: extractor producing both a netlist and
        statistics in one run).
    code:
        Fingerprint of the tool encapsulation (or composition function)
        that ran, so the run's derivation key can be rebuilt from the
        record after the registered code changes; empty on records
        that predate it.
    """

    tool: str | None
    inputs: tuple[tuple[str, str], ...] = ()
    invocation: str = ""
    code: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(sorted(self.inputs)))

    @classmethod
    def make(cls, tool: str | None,
             inputs: Mapping[str, str] | None = None,
             invocation: str = "") -> "DerivationRecord":
        return cls(tool, tuple(sorted((inputs or {}).items())), invocation)

    def input_map(self) -> dict[str, str]:
        return dict(self.inputs)

    def input_ids(self) -> tuple[str, ...]:
        return tuple(instance_id for _, instance_id in self.inputs)

    def all_antecedents(self) -> tuple[str, ...]:
        """Every instance id this one immediately depends on (tool first)."""
        out = [] if self.tool is None else [self.tool]
        out.extend(self.input_ids())
        return tuple(out)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "tool": self.tool,
            "inputs": [[role, ref] for role, ref in self.inputs],
            "invocation": self.invocation,
        }
        # omitted when unknown, so such records serialize as before
        if self.code:
            payload["code"] = self.code
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DerivationRecord":
        return cls(payload.get("tool"),
                   tuple((role, ref) for role, ref in
                         payload.get("inputs", ())),
                   payload.get("invocation", ""),
                   payload.get("code", ""))


@dataclass(frozen=True)
class EntityInstance:
    """One design object and its meta-data.

    The actual design data lives in the content-addressed
    :class:`~repro.history.datastore.DataStore`; several instances may
    share one blob (``data_ref``) while differing in meta-data — the
    paper's footnote 5 about RCS/SCCS files.
    """

    instance_id: str
    entity_type: str
    user: str = ""
    timestamp: float = 0.0
    name: str = ""
    comment: str = ""
    data_ref: str | None = None
    derivation: DerivationRecord | None = None
    annotations: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    #: When the producing run was traced, the ids of the span that
    #: executed the invocation — the provenance↔timing join key.
    trace_id: str = ""
    span_id: str = ""

    def annotation_map(self) -> dict[str, str]:
        return dict(self.annotations)

    def annotated(self, **notes: str) -> "EntityInstance":
        """Return a copy with extra annotations merged in."""
        merged = dict(self.annotations)
        merged.update(notes)
        return replace(self, annotations=tuple(sorted(merged.items())))

    def renamed(self, name: str, comment: str | None = None
                ) -> "EntityInstance":
        """Return a copy with a new display name (and optional comment)."""
        return replace(self, name=name,
                       comment=self.comment if comment is None else comment)

    @property
    def is_derived(self) -> bool:
        """True if created by a flow (vs installed from outside)."""
        return self.derivation is not None

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "instance_id": self.instance_id,
            "entity_type": self.entity_type,
            "user": self.user,
            "timestamp": self.timestamp,
            "name": self.name,
            "comment": self.comment,
            "data_ref": self.data_ref,
            "derivation": (None if self.derivation is None
                           else self.derivation.to_dict()),
            "annotations": [[k, v] for k, v in self.annotations],
        }
        # only stamped for traced runs; omitting the keys otherwise
        # keeps untraced history files byte-identical to older builds
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.span_id:
            payload["span_id"] = self.span_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "EntityInstance":
        derivation = payload.get("derivation")
        return cls(
            instance_id=payload["instance_id"],
            entity_type=payload["entity_type"],
            user=payload.get("user", ""),
            timestamp=float(payload.get("timestamp", 0.0)),
            name=payload.get("name", ""),
            comment=payload.get("comment", ""),
            data_ref=payload.get("data_ref"),
            derivation=(None if derivation is None
                        else DerivationRecord.from_dict(derivation)),
            annotations=tuple((k, v) for k, v in
                              payload.get("annotations", ())),
            trace_id=payload.get("trace_id", ""),
            span_id=payload.get("span_id", ""),
        )

    def __str__(self) -> str:
        display = self.name or self.instance_id
        return f"{self.entity_type}:{display}"
