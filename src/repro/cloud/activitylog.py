"""Cloud activity log.

Simulates Azure Activity Log / AWS CloudTrail / GCP Audit Logs: every
control-plane mutation is appended with actor identity and timestamp.
The cloudless drift watcher (3.5) consumes this log instead of scanning
resources, which is precisely the design the paper advocates.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclasses.dataclass(frozen=True)
class ActivityEvent:
    """One management-plane event."""

    sequence: int
    timestamp: float
    provider: str
    operation: str  # create | update | delete
    resource_type: str
    resource_id: str
    resource_name: str
    region: str
    actor: str  # "iac" for framework-driven ops, anything else is external
    changed_attrs: tuple = ()

    @property
    def is_external(self) -> bool:
        return self.actor != "iac"

    @classmethod
    def from_fields(cls, fields: Dict[str, Any], **changes: Any) -> "ActivityEvent":
        """The event with these ``fields`` and ``changes`` (between them
        every field, as a checked world section names them), built
        without the ``object.__setattr__`` per field a frozen
        ``__init__`` costs."""
        event = object.__new__(cls)
        event.__dict__.update(fields, **changes)
        return event


class ActivityLog:
    """Append-only event log with cursor-based tailing.

    Cursors are event *sequence numbers*, not list indexes: a cursor of
    ``n`` means "I have consumed every event with ``sequence < n``".
    Sequence numbers are durable -- they survive :meth:`compact` (log
    retention dropping old events) and persistence round-trips -- so a
    watcher can checkpoint its cursor and resume after a restart
    without replaying or losing events.
    """

    def __init__(self, provider: str):
        self.provider = provider
        self._events: List[ActivityEvent] = []
        #: sequence of ``_events[0]`` -- nonzero once old events have
        #: been compacted away
        self._base = 0
        self._next_seq = 0

    def append(
        self,
        timestamp: float,
        operation: str,
        resource_type: str,
        resource_id: str,
        resource_name: str,
        region: str,
        actor: str,
        changed_attrs: tuple = (),
    ) -> ActivityEvent:
        # every mutation of a plane appends one: built as ``from_fields``
        # builds, not through the frozen ``__init__``'s setattr per field
        event = object.__new__(ActivityEvent)
        event.__dict__.update(
            sequence=self._next_seq,
            timestamp=timestamp,
            provider=self.provider,
            operation=operation,
            resource_type=resource_type,
            resource_id=resource_id,
            resource_name=resource_name,
            region=region,
            actor=actor,
            changed_attrs=changed_attrs,
        )
        self._events.append(event)
        self._next_seq += 1
        return event

    def events_since(self, cursor: int, until: Optional[float] = None) -> List[
        ActivityEvent
    ]:
        """Events with sequence >= cursor, optionally up to a timestamp.

        ``cursor`` is a sequence number (see class docstring), so a
        checkpointed cursor stays correct even after :meth:`compact`
        drops the events below it. Reading the log is itself one
        (cheap, read-class) API call in the control plane; callers go
        through the gateway for that.
        """
        start = max(0, int(cursor) - self._base)
        out = []
        for event in self._events[start:]:
            if until is not None and event.timestamp > until:
                break
            out.append(event)
        return out

    @property
    def next_cursor(self) -> int:
        """The cursor positioned just past the newest event."""
        return self._next_seq

    def compact(self, up_to: int) -> int:
        """Drop events with ``sequence < up_to`` (log retention).

        Sequence numbers -- and therefore checkpointed cursors -- stay
        valid; only the retained window shrinks. Returns how many
        events were dropped.
        """
        drop = min(max(0, int(up_to) - self._base), len(self._events))
        if drop:
            del self._events[:drop]
            self._base += drop
        return drop

    def restore(
        self, events: List[ActivityEvent], next_sequence: Optional[int] = None
    ) -> None:
        """Replace the log's contents (persistence restore path).

        Re-derives ``_base`` and the next sequence from the events'
        own sequence numbers, so a log saved after compaction keeps
        minting non-colliding sequences when reloaded.
        """
        self._events = []
        self.extend(events, next_sequence)

    def extend(
        self, events: List[ActivityEvent], next_sequence: Optional[int] = None
    ) -> None:
        """``restore(all_events() + events, next_sequence)`` without
        copying the events already held: a world replays its log one
        commit at a time."""
        self._events.extend(events)
        if self._events:
            self._base = self._events[0].sequence
            derived = self._events[-1].sequence + 1
        else:
            self._base = 0
            derived = 0
        self._next_seq = derived if next_sequence is None else max(
            int(next_sequence), derived
        )
        if not self._events:
            self._base = self._next_seq

    def all_events(self) -> List[ActivityEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ActivityEvent]:
        return iter(self._events)
