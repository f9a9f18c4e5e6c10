"""Drift detection (3.5).

Two detectors, one interface:

* :class:`FullScanDetector` -- the driftctl-style baseline: enumerate
  every resource through the paginated, rate-limited cloud list API and
  compare against state. Thorough but slow and API-hungry, exactly the
  overhead the paper attributes to this approach.
* :class:`LogWatchDetector` -- the cloudless design: tail the cloud
  activity logs and flag management events whose actor is not the IaC
  framework. Near-instant detection at one read per poll.

Two functions are the rules the whole drift package shares:
:func:`findings_from_events` is the only fold from activity-log events
to findings (one finding per resource, however many events it took;
``engine.watch()`` and the :class:`~repro.drift.watcher.DriftWatcher`
both use it), and :func:`changed_attrs` the only comparison of a state
entry against its live record.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..addressing import ResourceAddress
from ..cloud.activitylog import ActivityEvent
from ..cloud.base import CloudAPIError
from ..cloud.resilience import ResilientGateway, is_outage_error
from ..lang.values import values_equal
from ..state.document import ResourceState, StateDocument


@dataclasses.dataclass
class DriftFinding:
    """One detected divergence between state and cloud."""

    kind: str  # "modified" | "deleted" | "unmanaged"
    resource_id: str
    resource_type: str
    address: Optional[ResourceAddress] = None
    changed_attrs: List[str] = dataclasses.field(default_factory=list)
    detected_at: float = 0.0
    actor: str = ""
    #: owning partition, when the detector could resolve it -- the
    #: watcher's defer-to-dark-partition logic keys off these
    provider: str = ""
    region: str = ""
    #: how many raw log events this finding summarises (coalescing)
    event_count: int = 1

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.resource_id}"


@dataclasses.dataclass
class DetectionRun:
    """Result of one detector pass."""

    findings: List[DriftFinding]
    api_calls: int
    duration_s: float
    finished_at: float
    #: partitions ("provider" or "provider/region") the pass could not
    #: observe -- outage or open breaker. State entries behind them are
    #: *not* reported as drift: absence of evidence during an outage is
    #: not evidence of deletion.
    unreachable: List[str] = dataclasses.field(default_factory=list)


def changed_attrs(held: Mapping[str, Any], live: Mapping[str, Any]) -> List[str]:
    """The attributes whose state (``held``) and live values differ,
    sorted."""
    return sorted(
        key
        for key in set(held) | set(live)
        if not values_equal(held.get(key), live.get(key))
    )


def findings_from_events(
    by_provider: Dict[str, List[ActivityEvent]],
    state: StateDocument,
    now: float,
) -> List[DriftFinding]:
    """Fold each resource's external events into at most one finding.

    Events by the IaC framework itself are not drift. The rest are
    grouped per resource, in the order each resource first appears in
    its provider's log, and a group is the terminal delete, an
    out-of-band create, or the union of the attributes it changed
    (``event_count`` says how many events it covers). A resource
    created and deleted out of band within one read converges to
    nothing, so it is no finding.
    """
    findings: List[DriftFinding] = []
    for provider in sorted(by_provider):
        groups: Dict[str, List[ActivityEvent]] = {}
        for event in by_provider[provider]:
            if event.is_external:
                groups.setdefault(event.resource_id, []).append(event)
        for resource_id, events in groups.items():
            finding = _fold(
                provider, events, state.by_resource_id(resource_id), now
            )
            if finding is not None:
                findings.append(finding)
    return findings


def _fold(
    provider: str,
    events: List[ActivityEvent],
    entry: Optional[ResourceState],
    now: float,
) -> Optional[DriftFinding]:
    last = events[-1]
    common = dict(
        resource_id=last.resource_id,
        resource_type=last.resource_type,
        detected_at=now,
        actor=last.actor,
        provider=provider,
        event_count=len(events),
    )
    if entry is None:
        if last.operation != "delete" and any(
            event.operation == "create" for event in events
        ):
            return DriftFinding(kind="unmanaged", region=last.region, **common)
        # never managed, or created then deleted out of band: nothing
        # to converge
        return None
    if last.operation == "delete":
        kind, changed = "deleted", []
    else:
        kind = "modified"
        changed = sorted({a for event in events for a in event.changed_attrs})
    return DriftFinding(
        kind=kind,
        address=entry.address,
        changed_attrs=changed,
        region=last.region or entry.region,
        **common,
    )


class FullScanDetector:
    """Baseline: list every resource, page by page, and diff.

    Page reads go through the resilience layer: a transient fault mid-
    pagination retries that page (same token) instead of aborting the
    scan, so one flaky list call cannot hide a drifted estate.

    The scan is outage-aware: a provider whose list API is down (or
    whose breaker is open) is reported in ``DetectionRun.unreachable``
    instead of aborting the whole pass, partial pages from it are
    discarded, and state entries behind any unreachable partition are
    skipped rather than flagged as phantom "deleted" drift.
    """

    def __init__(self, gateway: ResilientGateway):
        self.gateway = gateway

    def _unreachable_partition(
        self, provider: str, region: str, now: float, dark_providers: Set[str]
    ) -> Optional[str]:
        """The partition label hiding (provider, region) from this scan,
        or None if the partition is observable."""
        health = self.gateway.health
        if provider in dark_providers:
            return provider
        if health is not None and health.blocked(provider, "", now):
            return provider
        plane = self.gateway.planes.get(provider)
        if plane is not None and plane.outage_horizon(region, now) is not None:
            return f"{provider}/{region}" if region else provider
        if region and health is not None and health.blocked(provider, region, now):
            return f"{provider}/{region}"
        return None

    def _provider_for(self, entry: Any) -> str:
        """The plane key owning a state entry.

        ``entry.provider`` when it names a live plane (the gateway minted
        it at apply time), else the type prefix, which is the plane key
        by the gateway's routing rule.
        """
        if entry.provider and entry.provider in self.gateway.planes:
            return entry.provider
        return entry.address.type.split("_", 1)[0]

    def scan(self, state: StateDocument) -> DetectionRun:
        clock = self.gateway.clock
        started = clock.now
        calls_before = self.gateway.calls_routed()
        live: Dict[str, Dict[str, Any]] = {}
        live_types: Dict[str, str] = {}
        live_providers: Dict[str, str] = {}
        dark_providers: Set[str] = set()
        unreachable: Set[str] = set()
        for provider, plane in sorted(self.gateway.planes.items()):
            token: Any = 0
            items: Dict[str, Dict[str, Any]] = {}
            types: Dict[str, str] = {}
            try:
                while token is not None:
                    page = self.gateway.execute_on(
                        plane, "list", attrs={"page_token": token}
                    )
                    for item, rtype in zip(page["items"], page["types"]):
                        items[item["id"]] = item
                        types[item["id"]] = rtype
                    token = page["next_token"]
            except CloudAPIError as exc:
                if not is_outage_error(exc):
                    raise
                # the provider's list plane is down: drop its partial
                # pages (a half-seen estate would fabricate deletions)
                # and mark it unreachable for the diff below
                dark_providers.add(provider)
                unreachable.add(provider)
                continue
            live.update(items)
            live_types.update(types)
            for item_id in items:
                live_providers[item_id] = provider
        findings: List[DriftFinding] = []
        managed_ids: Set[str] = set()
        for entry in state.resources():
            managed_ids.add(entry.resource_id)
            snapshot = live.get(entry.resource_id)
            if snapshot is None:
                provider = self._provider_for(entry)
                hidden = self._unreachable_partition(
                    provider, entry.region, clock.now, dark_providers
                )
                if hidden is not None:
                    # unreachable, not deleted: the record may well be
                    # alive behind the outage. No phantom drift.
                    unreachable.add(hidden)
                    continue
                findings.append(
                    DriftFinding(
                        kind="deleted",
                        resource_id=entry.resource_id,
                        resource_type=entry.address.type,
                        address=entry.address,
                        detected_at=clock.now,
                        provider=provider,
                        region=entry.region,
                    )
                )
                continue
            changed = changed_attrs(entry.attrs, snapshot)
            if changed:
                findings.append(
                    DriftFinding(
                        kind="modified",
                        resource_id=entry.resource_id,
                        resource_type=entry.address.type,
                        address=entry.address,
                        changed_attrs=changed,
                        detected_at=clock.now,
                        provider=self._provider_for(entry),
                        region=entry.region,
                    )
                )
        for resource_id, snapshot in sorted(live.items()):
            if resource_id not in managed_ids:
                findings.append(
                    DriftFinding(
                        kind="unmanaged",
                        resource_id=resource_id,
                        resource_type=live_types.get(resource_id, ""),
                        detected_at=clock.now,
                        provider=live_providers.get(resource_id, ""),
                    )
                )
        return DetectionRun(
            findings=findings,
            api_calls=self.gateway.calls_routed() - calls_before,
            duration_s=clock.now - started,
            finished_at=clock.now,
            unreachable=sorted(unreachable),
        )


class LogWatchDetector:
    """Cloudless: consume activity-log events since the last poll.

    A provider whose log endpoint is dark is skipped *without advancing
    its cursor*: the missed events are delivered on the first poll after
    the outage lifts, so detection degrades to "late", never to "lost".

    Cursors are event *sequence numbers* (see
    :class:`~repro.cloud.activitylog.ActivityLog`), advanced to the
    last delivered event's ``sequence + 1`` -- never by list index --
    so they survive log compaction and can be checkpointed/restored
    across watcher restarts. Planes added to the gateway after
    construction simply start from cursor 0.
    """

    def __init__(
        self, gateway: ResilientGateway, cursors: Optional[Dict[str, int]] = None
    ):
        self.gateway = gateway
        #: ``cursors`` is adopted, not copied: its owner (an engine)
        #: checkpoints and restores it as plain data, and a detector
        #: built over restored cursors resumes instead of replaying the
        #: log from sequence 0
        self._cursors: Dict[str, int] = (
            {name: 0 for name in gateway.planes} if cursors is None else cursors
        )

    @property
    def cursors(self) -> Dict[str, int]:
        """Current per-provider cursors (a copy; safe to persist)."""
        return dict(self._cursors)

    def tail(self) -> Tuple[Dict[str, List[ActivityEvent]], List[str]]:
        """Read each plane's log past its cursor, up to the time of the
        call, and advance the cursors.

        Returns ``(events by provider, unreachable providers)``. One
        read-class API call per reachable plane; a dark plane's cursor
        is left untouched so its events replay once the outage lifts.
        """
        # the log reads below advance the clock: events they overlap
        # are the next tail's
        until = self.gateway.clock.now
        by_provider: Dict[str, List[ActivityEvent]] = {}
        unreachable: List[str] = []
        for provider, plane in sorted(self.gateway.planes.items()):
            # reading the log is one read-class API call (retried on
            # transient faults like any other read)
            try:
                self.gateway.execute_on(plane, "log")
            except CloudAPIError as exc:
                if not is_outage_error(exc):
                    raise
                unreachable.append(provider)
                continue  # cursor untouched: events replay post-outage
            # late-added planes (absent at construction) start at 0
            cursor = self._cursors.get(provider, 0)
            events = plane.log.events_since(cursor, until=until)
            if events:
                self._cursors[provider] = events[-1].sequence + 1
            else:
                self._cursors.setdefault(provider, cursor)
            by_provider[provider] = events
        return by_provider, unreachable

    def poll(self, state: StateDocument) -> DetectionRun:
        """One poll: :meth:`tail` the logs and fold the events into
        findings (:func:`findings_from_events`)."""
        clock = self.gateway.clock
        started = clock.now
        calls_before = self.gateway.calls_routed()
        by_provider, unreachable = self.tail()
        return DetectionRun(
            findings=findings_from_events(by_provider, state, clock.now),
            api_calls=self.gateway.calls_routed() - calls_before,
            duration_s=clock.now - started,
            finished_at=clock.now,
            unreachable=unreachable,
        )
