"""Event-driven continuous reconciliation (the paper's 3.5, done right).

:class:`DriftWatcher` replaces periodic :class:`FullScanDetector`
sweeps with cursor-based tailing of each provider plane's activity log
-- the push-based drift handling the paper advocates. Turning events
into findings is not the watcher's job: it reads the logs with
:meth:`LogWatchDetector.tail` and folds them with
:func:`~repro.drift.detector.findings_from_events`, the same fold
behind ``engine.watch()`` (N events against one resource are one
finding, so reconcile cost tracks *drifted resources*, not event
volume). On top of that fold the watcher adds:

* **durable cursors** -- per-partition cursors are event *sequence
  numbers* held by the :class:`LogWatchDetector` and persisted by
  :mod:`repro.persist` in the same world commit as the repairs they
  caused (cursors and repairs land together or not at all), so a
  restarted watcher resumes where it stopped instead of replaying (or
  worse, re-repairing) the whole log;
* **bounded staleness** -- every partition carries an observation lag;
  a partition unobserved for longer than ``max_lag_s`` (outage, open
  breaker) is reported stale, and lags surface as ``drift.*`` perf
  counters;
* **carry-over** -- repairs that failed or were interrupted, and
  findings deferred behind a dark partition, are re-derived against
  live state and retried in a later cycle;
* **decisions and repair** -- each finding is classified through a
  reconcile-decision taxonomy (``enforce`` / ``adopt`` / ``notify`` /
  ``defer-dark``, after the agent-policy split in arxiv 2510.20211),
  and the actionable ones go through :meth:`Reconciler.reconcile`, the
  loop ``engine.reconcile`` runs too. Findings behind a dark partition
  (status-page outage or open circuit breaker) are deferred, not
  dropped, and re-admitted once the horizon passes. Every decision
  also carries a defect class from the IaC defect taxonomy of arxiv
  2505.01568, so repair activity can be scored against the defect mix
  it addressed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..cloud.activitylog import ActivityEvent
from ..cloud.resilience import ResilientGateway
from ..perf import PERF
from ..state.document import StateDocument
from .detector import (
    DetectionRun,
    DriftFinding,
    LogWatchDetector,
    changed_attrs,
    findings_from_events,
)
from .reconcile import (
    ADOPT,
    ENFORCE,
    NOTIFY,
    ReconcileAction,
    ReconcileReport,
    Reconciler,
)

#: fourth reconcile decision, beyond the Reconciler's enforce/adopt/
#: notify: the finding's partition is dark -- repair is *deferred* to
#: the partition's recovery horizon, never attempted into an outage
DEFER_DARK = "defer-dark"

#: attribute-name hints that lift a modification from plain
#: configuration drift into the security bucket of the defect taxonomy
_SECURITY_HINTS = (
    "public",
    "policy",
    "role",
    "password",
    "secret",
    "key",
    "cidr",
    "ingress",
    "egress",
    "firewall",
    "acl",
    "encrypt",
)

_CAPACITY_ATTRS = ("size", "instance_count", "capacity", "sku", "tier", "count")


def classify_defect(finding: DriftFinding) -> str:
    """Bucket a finding per the IaC defect taxonomy (arxiv 2505.01568).

    Deletions are availability defects, out-of-band resources are
    provisioning defects, and modifications split into security /
    capacity / plain configuration drift by the attributes touched.
    """
    if finding.kind == "deleted":
        return "availability/missing-resource"
    if finding.kind == "unmanaged":
        return "provisioning/unmanaged-resource"
    attrs = [a.lower() for a in finding.changed_attrs]
    if any(hint in attr for attr in attrs for hint in _SECURITY_HINTS):
        return "security/misconfiguration"
    if any(attr in _CAPACITY_ATTRS for attr in attrs):
        return "capacity/misconfiguration"
    return "configuration/attribute-drift"


@dataclasses.dataclass
class ReconcileDecision:
    """One finding, classified: what the watcher decided and why."""

    finding: DriftFinding
    decision: str  # enforce | adopt | notify | defer-dark
    reason: str
    defect_class: str
    #: earliest time a deferred repair can possibly succeed (dark-
    #: partition recovery horizon); 0 for immediate decisions
    retry_at: float = 0.0
    #: filled in once the auto-reconcile stage ran the repair
    action: Optional[ReconcileAction] = None


@dataclasses.dataclass
class WatchCycle:
    """Everything one watcher cycle observed, decided, and repaired."""

    run: DetectionRun
    decisions: List[ReconcileDecision]
    report: Optional[ReconcileReport]
    deferred: List[ReconcileDecision]
    #: seconds since each partition was last successfully observed
    lag_s: Dict[str, float]
    #: partitions whose lag exceeds the staleness bound
    stale: List[str]
    #: failed/interrupted repairs carried into the next cycle's retry
    pending: int = 0

    @property
    def findings(self) -> List[DriftFinding]:
        return self.run.findings

    @property
    def degraded(self) -> bool:
        """Converging, but not fully caught up: dark partitions,
        stale observations, or repairs carried forward."""
        return bool(
            self.deferred or self.stale or self.run.unreachable or self.pending
        )

    @property
    def hard_failed(self) -> bool:
        """A repair failed terminally (not interrupted-and-resumable)."""
        if self.report is None:
            return False
        return any(
            not a.ok and not a.interrupted for a in self.report.actions
        )

    @property
    def ok(self) -> bool:
        return not self.hard_failed and not self.degraded

    def defect_counts(self) -> Dict[str, int]:
        """Repair activity scored against the defect taxonomy."""
        out: Dict[str, int] = {}
        for decision in self.decisions:
            out[decision.defect_class] = out.get(decision.defect_class, 0) + 1
        return out


class DriftWatcher:
    """Continuous reconciliation: tail logs, decide, repair, repeat.

    One :meth:`cycle` = tail every plane's activity log past its
    cursor, account staleness, fold the events into findings, classify
    each finding (enforce/adopt/notify/defer-dark), and drive the
    :class:`Reconciler` over the actionable ones. :meth:`run` strings
    cycles together on the simulated clock.
    """

    def __init__(
        self,
        gateway: ResilientGateway,
        *,
        max_lag_s: float = 900.0,
        auto_reconcile: bool = True,
        detector: Optional[LogWatchDetector] = None,
    ):
        self.gateway = gateway
        self.detector = detector or LogWatchDetector(gateway)
        self.reconciler = Reconciler(gateway)
        self.max_lag_s = max_lag_s
        self.auto_reconcile = auto_reconcile
        #: when each partition was last successfully observed
        self._last_seen: Dict[str, float] = {}
        self._started_at: Optional[float] = None
        #: repairs that failed or were interrupted -- refreshed against
        #: live state and retried next cycle
        self._pending: List[DriftFinding] = []
        #: repairs deferred to a dark partition's recovery horizon
        self._deferred: List[Tuple[DriftFinding, float]] = []

    # -- introspection -------------------------------------------------------

    @property
    def cursors(self) -> Dict[str, int]:
        return self.detector.cursors

    @property
    def pending(self) -> List[DriftFinding]:
        return list(self._pending)

    @property
    def deferred(self) -> List[Tuple[DriftFinding, float]]:
        return list(self._deferred)

    # -- the loop ------------------------------------------------------------

    def run(
        self, state: StateDocument, cycles: int = 1, interval_s: float = 60.0
    ) -> List[WatchCycle]:
        """``cycles`` watcher passes, ``interval_s`` of simulated time
        apart."""
        out = []
        for i in range(cycles):
            if i:
                self.gateway.clock.advance_by(interval_s)
            out.append(self.cycle(state))
        return out

    def cycle(self, state: StateDocument) -> WatchCycle:
        clock = self.gateway.clock
        started = clock.now
        if self._started_at is None:
            self._started_at = started
        calls_before = self.gateway.calls_routed()
        by_provider, unreachable = self.detector.tail()
        detect_calls = self.gateway.calls_routed() - calls_before
        now = clock.now

        lag_s, stale = self._account_staleness(by_provider, now)
        fresh = findings_from_events(by_provider, state, now)
        readmitted, still_dark = self._readmit_deferred(state, now)
        retries = self._refresh_pending(state, now)
        findings = self._merge(retries, readmitted, fresh)

        decisions: List[ReconcileDecision] = []
        actionable: List[ReconcileDecision] = []
        deferred: List[ReconcileDecision] = []
        for finding in findings:
            decision = self._decide(finding, now)
            decisions.append(decision)
            if decision.decision == DEFER_DARK:
                deferred.append(decision)
                self._deferred.append((finding, decision.retry_at))
            else:
                actionable.append(decision)
        # still-dark carryovers stay deferred without a fresh decision
        self._deferred.extend(still_dark)

        report = None
        if self.auto_reconcile and actionable:
            report = self._repair(actionable, state)

        run = DetectionRun(
            findings=findings,
            api_calls=detect_calls,
            duration_s=clock.now - started,
            finished_at=clock.now,
            unreachable=unreachable,
        )
        raw = sum(len(events) for events in by_provider.values())
        external = sum(
            1
            for events in by_provider.values()
            for event in events
            if event.is_external
        )
        PERF.count("drift.cycles")
        PERF.count("drift.events", raw)
        PERF.count("drift.external_events", external)
        PERF.count("drift.findings", len(findings))
        PERF.count("drift.coalesced_events", max(0, external - len(fresh)))
        PERF.count("drift.deferrals", len(deferred))
        PERF.count("drift.retries", len(retries))
        if report is not None:
            PERF.count(
                "drift.repairs",
                sum(
                    1
                    for a in report.actions
                    if a.ok and a.policy in (ENFORCE, ADOPT)
                ),
            )
        return WatchCycle(
            run=run,
            decisions=decisions,
            report=report,
            deferred=deferred,
            lag_s=lag_s,
            stale=stale,
            pending=len(self._pending) + len(self._deferred),
        )

    # -- staleness ----------------------------------------------------------

    def _account_staleness(
        self, by_provider: Dict[str, List[ActivityEvent]], now: float
    ) -> Tuple[Dict[str, float], List[str]]:
        """Per-partition observation lag; partitions over the bound."""
        lag_s: Dict[str, float] = {}
        stale: List[str] = []
        for provider in sorted(self.gateway.planes):
            if provider in by_provider:
                self._last_seen[provider] = now
                lag = 0.0
            else:
                last = self._last_seen.get(provider, self._started_at or now)
                lag = max(0.0, now - last)
            lag_s[provider] = lag
            PERF.observe("drift.lag_s", lag)
            if lag > self.max_lag_s:
                stale.append(provider)
        return lag_s, stale

    # -- carryover (deferred + retry) ---------------------------------------

    def _readmit_deferred(
        self, state: StateDocument, now: float
    ) -> Tuple[List[DriftFinding], List[Tuple[DriftFinding, float]]]:
        """Deferred repairs whose recovery horizon has passed; the rest
        stay parked (the log events behind them were already consumed,
        so the deferred finding is their only carrier)."""
        readmitted: List[DriftFinding] = []
        still_dark: List[Tuple[DriftFinding, float]] = []
        for finding, retry_at in self._deferred:
            if now < retry_at:
                still_dark.append((finding, retry_at))
                continue
            refreshed = self._refresh(finding, state, now)
            if refreshed is not None:
                readmitted.append(refreshed)
        self._deferred = []
        return readmitted, still_dark

    def _refresh_pending(
        self, state: StateDocument, now: float
    ) -> List[DriftFinding]:
        """Failed/interrupted repairs, re-derived against live truth.

        An interrupted replacement leaves *no* external log event (the
        Reconciler's half-repair acted as ``iac``), so the retry queue
        -- not the log -- is what resumes it: the refreshed view of a
        checkpointed half-replacement is a ``deleted`` finding, which
        ENFORCE completes by recreating."""
        retries: List[DriftFinding] = []
        for finding in self._pending:
            refreshed = self._refresh(finding, state, now)
            if refreshed is not None:
                retries.append(refreshed)
        self._pending = []
        return retries

    def _refresh(
        self, finding: DriftFinding, state: StateDocument, now: float
    ) -> Optional[DriftFinding]:
        """A carried finding, re-derived: None once converged/moot."""
        if finding.kind == "unmanaged":
            live = self.gateway.find_record(finding.resource_id)
            return dataclasses.replace(finding, detected_at=now) if live else None
        entry = self.reconciler._entry_for(finding, state)
        if entry is None:
            return None  # no longer managed; nothing to converge
        live = (
            self.gateway.find_record(entry.resource_id)
            if entry.resource_id
            else None
        )
        common = dict(
            resource_id=entry.resource_id,
            resource_type=entry.address.type,
            address=entry.address,
            detected_at=now,
            actor=finding.actor,
            provider=finding.provider or entry.provider,
            region=entry.region,
        )
        if live is None:
            return DriftFinding(kind="deleted", **common)
        changed = changed_attrs(entry.attrs, live.attrs)
        if not changed:
            return None  # converged while we weren't looking
        return DriftFinding(kind="modified", changed_attrs=changed, **common)

    @staticmethod
    def _merge(*batches: List[DriftFinding]) -> List[DriftFinding]:
        """Union of finding batches, one finding per resource; later
        batches win (fresh log evidence beats a carried-over view)."""
        merged: Dict[str, DriftFinding] = {}
        for batch in batches:
            for finding in batch:
                key = (
                    str(finding.address)
                    if finding.address is not None
                    else finding.resource_id
                )
                merged[key] = finding
        return list(merged.values())

    # -- decisions -----------------------------------------------------------

    def _decide(self, finding: DriftFinding, now: float) -> ReconcileDecision:
        defect = classify_defect(finding)
        horizon = self._dark_horizon(finding.provider, finding.region, now)
        if horizon is not None:
            label = (
                f"{finding.provider}/{finding.region}"
                if finding.region
                else finding.provider
            )
            return ReconcileDecision(
                finding,
                DEFER_DARK,
                reason=f"partition {label} dark until t={horizon:.0f}",
                defect_class=defect,
                retry_at=horizon,
            )
        policy = self.reconciler.policy.get(finding.kind, NOTIFY)
        reasons = {
            ENFORCE: "golden state is authoritative; pushing cloud back",
            ADOPT: "cloud is authoritative here; pulling into state",
            NOTIFY: "out-of-band change; surfacing to operators",
        }
        return ReconcileDecision(
            finding,
            policy,
            reason=reasons.get(policy, "per-kind policy"),
            defect_class=defect,
        )

    def _dark_horizon(
        self, provider: str, region: str, now: float
    ) -> Optional[float]:
        """Latest recovery horizon hiding the finding's partition:
        provider status page (PR 5 outage windows) or open circuit
        breaker -- None if the partition is reachable."""
        if not provider:
            return None
        horizons: List[float] = []
        plane = self.gateway.planes.get(provider)
        if plane is not None:
            horizon = plane.outage_horizon(region or "", now)
            if horizon is not None:
                horizons.append(horizon)
        health = self.gateway.health
        if health is not None:
            horizon = health.recovery_horizon(provider, region or "", now)
            if horizon is not None:
                horizons.append(horizon)
        return max(horizons) if horizons else None

    # -- repair --------------------------------------------------------------

    def _repair(
        self, actionable: List[ReconcileDecision], state: StateDocument
    ) -> ReconcileReport:
        """The :class:`Reconciler`'s own loop over the actionable
        findings (``_decide`` gave each one its per-kind policy); a
        failed repair is carried into the next cycle's retry."""
        report = self.reconciler.reconcile(
            [decision.finding for decision in actionable], state
        )
        for decision, action in zip(actionable, report.actions):
            decision.action = action
            if not action.ok:
                self._pending.append(decision.finding)
        return report
