"""Drift reconciliation (3.5).

Once drift is detected the framework "should either regenerate the
IaC-level program to reflect the latest deployment, or notify
corresponding parties". The :class:`Reconciler` supports both, per
drift kind:

* ``enforce`` -- push the cloud back to the golden state;
* ``adopt``   -- accept the cloud's version into state (and flag the
  configuration for regeneration);
* ``notify``  -- surface the finding to humans, touch nothing.

Enforcement decides and performs nothing itself: a finding's repair is
:func:`~repro.update.rollback.repair_action` over the attributes it
names, run by the rollback's phased executor (3.4) as a one-action
plan with no cascade -- the same rule and the same checkpoints a
rollback applies to that entry.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cloud.base import CloudAPIError
from ..cloud.resilience import ResilientGateway
from ..state.document import ResourceState, StateDocument
from .detector import DriftFinding

if TYPE_CHECKING:
    from ..update.rollback import RollbackAction

ENFORCE = "enforce"
ADOPT = "adopt"
NOTIFY = "notify"


@dataclasses.dataclass
class ReconcileAction:
    finding: DriftFinding
    policy: str
    performed: str  # human-readable description of what happened
    ok: bool = True
    #: the repair was cut mid-sequence: the old record is gone, the
    #: entry is checkpointed without its id and left in the executor's
    #: remainder -- a later detect+reconcile pass (or the watcher's
    #: retry queue) resumes it. A repair that failed with the old
    #: record still live is a terminal failure, not an interruption.
    interrupted: bool = False
    #: what enforcement ran (the shared per-entry repair rule's verdict);
    #: None when nothing needed a cloud call
    repair: Optional["RollbackAction"] = None


@dataclasses.dataclass
class ReconcileReport:
    actions: List[ReconcileAction]
    notifications: List[str]
    api_calls: int
    #: precise resumable work: addresses of repairs interrupted
    #: mid-sequence (state checkpointed; a fresh detect+reconcile pass
    #: picks them up)
    remainder: List[str] = dataclasses.field(default_factory=list)

    def count(self, policy: str) -> int:
        return sum(1 for a in self.actions if a.policy == policy)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.actions)


class Reconciler:
    """Applies a per-kind reconciliation policy to drift findings.

    Every cloud call goes through the resilience layer: transient and
    throttled faults are retried with backoff, and an enforced repair
    runs through the rollback's phased executor, which checkpoints
    state between the steps of a replacement so a terminal
    mid-sequence fault never leaves state pointing at a dead resource.
    """

    def __init__(
        self, gateway: ResilientGateway, policy: Optional[Dict[str, str]] = None
    ):
        self.gateway = gateway
        self.policy = {
            "modified": ENFORCE,
            "deleted": ENFORCE,
            "unmanaged": NOTIFY,
        }
        if policy:
            self.policy.update(policy)

    def reconcile(
        self, findings: List[DriftFinding], state: StateDocument
    ) -> ReconcileReport:
        calls_before = self.gateway.calls_routed()
        actions: List[ReconcileAction] = []
        notifications: List[str] = []
        remainder: List[str] = []
        for finding in findings:
            policy = self.policy.get(finding.kind, NOTIFY)
            action = self.reconcile_one(finding, state, policy=policy)
            actions.append(action)
            if action.policy == NOTIFY:
                notifications.append(
                    f"drift[{finding.kind}] {finding.resource_type} "
                    f"{finding.resource_id}"
                    + (f" by {finding.actor}" if finding.actor else "")
                )
            elif action.interrupted:
                remainder.append(str(action.repair.address))
        return ReconcileReport(
            actions=actions,
            notifications=notifications,
            api_calls=self.gateway.calls_routed() - calls_before,
            remainder=remainder,
        )

    def reconcile_one(
        self,
        finding: DriftFinding,
        state: StateDocument,
        policy: Optional[str] = None,
    ) -> ReconcileAction:
        """Repair a single finding under ``policy`` (default: the
        per-kind policy) -- what :meth:`reconcile` runs for each one.

        Never raises for cloud-side failures: interruptions and
        terminal faults come back as a not-``ok`` action (with
        ``interrupted`` set when state was checkpointed mid-repair and
        a later pass can resume)."""
        if policy is None:
            policy = self.policy.get(finding.kind, NOTIFY)
        if policy == NOTIFY:
            return ReconcileAction(finding, NOTIFY, "notified operators")
        if finding.kind != "unmanaged" and policy == ENFORCE:
            return self._enforce(finding, state)
        if finding.kind == "unmanaged" and policy != ADOPT:
            return ReconcileAction(finding, policy, "no action")
        try:
            return ReconcileAction(finding, policy, self._adopt(finding, state))
        except CloudAPIError as exc:
            return ReconcileAction(finding, policy, str(exc), ok=False)

    def _entry_for(
        self, finding: DriftFinding, state: StateDocument
    ) -> Optional[ResourceState]:
        """The state entry a finding refers to -- by address when the
        detector resolved one (robust across interrupted replacements,
        whose entries carry an empty resource id), else by id."""
        if finding.address is not None:
            entry = state.get(finding.address)
            if entry is not None:
                return entry
        return state.by_resource_id(finding.resource_id)

    def _enforce(
        self, finding: DriftFinding, state: StateDocument
    ) -> ReconcileAction:
        """Push the live record back to its state entry: the shared
        repair rule over the attributes the finding names, executed as
        a one-action rollback plan (a replacement's dependents are not
        cascaded)."""
        from ..update.rollback import (
            ReversibilityAwareRollback,
            RollbackPlan,
            repair_action,
        )

        entry = self._entry_for(finding, state)
        if entry is None:
            return ReconcileAction(
                finding, ENFORCE, "no state entry; nothing to do"
            )
        repair = repair_action(
            self.gateway, entry, state, finding.changed_attrs or None
        )
        if repair is None:
            return ReconcileAction(
                finding, ENFORCE, "drift already matches golden state"
            )
        result = ReversibilityAwareRollback(self.gateway).execute(
            RollbackPlan([repair]), state
        )
        if not result.ok:
            return ReconcileAction(
                finding,
                ENFORCE,
                "; ".join(result.errors),
                ok=False,
                interrupted=not state.get(entry.address).resource_id,
                repair=repair,
            )
        performed = {
            "update": "reset cloud attributes to golden state",
            "replace": f"recreated resource ({'; '.join(repair.reasons)})",
            "recreate": "recreated deleted resource",
        }[repair.kind.value]
        return ReconcileAction(finding, ENFORCE, performed, repair=repair)

    def _adopt(self, finding: DriftFinding, state: StateDocument) -> str:
        """Pull the cloud's version into state."""
        if finding.kind == "unmanaged":
            if finding.address is None:
                return "flagged for import into configuration"
            # the caller knows where this resource belongs (crash
            # recovery resolves the address from the WAL intent):
            # adopt it into state under that address
            live = self.gateway.find_record(finding.resource_id)
            if live is None:
                return "resource vanished before adoption; nothing to do"
            provider = self.gateway.provider_of(live.type)
            state.set(
                ResourceState(
                    address=finding.address,
                    resource_id=live.id,
                    provider=provider,
                    attrs=live.snapshot(),
                    region=live.region,
                    created_at=live.created_at,
                    updated_at=live.updated_at,
                )
            )
            return f"adopted orphaned resource {live.id} into state"
        entry = self._entry_for(finding, state)
        if entry is None:
            return "no state entry; nothing to do"
        if finding.kind == "deleted":
            state.remove(entry.address)
            return "removed deleted resource from state"
        live = self.gateway.find_record(finding.resource_id)
        if live is not None:
            state.set(entry.replace(attrs=live.snapshot()))
        return "adopted cloud attributes into state"
