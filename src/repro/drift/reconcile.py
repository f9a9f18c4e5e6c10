"""Drift reconciliation (3.5).

Once drift is detected the framework "should either regenerate the
IaC-level program to reflect the latest deployment, or notify
corresponding parties". The :class:`Reconciler` supports both, per
drift kind:

* ``enforce`` -- push the cloud back to the golden state;
* ``adopt``   -- accept the cloud's version into state (and flag the
  configuration for regeneration);
* ``notify``  -- surface the finding to humans, touch nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..cloud.base import CloudAPIError
from ..cloud.gateway import CloudGateway
from ..cloud.resilience import ResilientGateway, RetryPolicy
from ..cloud.resources import settable_attrs
from ..state.document import ResourceState, StateDocument
from .detector import DriftFinding, changed_attrs

ENFORCE = "enforce"
ADOPT = "adopt"
NOTIFY = "notify"


class ReconcileInterrupted(CloudAPIError):
    """A multi-step repair was cut mid-sequence.

    State has been checkpointed after the last successful cloud call,
    so re-running detection + reconciliation resumes cleanly (the
    half-replaced resource surfaces as a ``deleted`` finding).
    """

    def __init__(self, message: str, cause: CloudAPIError):
        super().__init__(
            "ReconcileInterrupted",
            message,
            http_status=cause.http_status,
            resource_type=cause.resource_type,
            operation=cause.operation,
        )
        self.cause = cause


@dataclasses.dataclass
class ReconcileAction:
    finding: DriftFinding
    policy: str
    performed: str  # human-readable description of what happened
    ok: bool = True
    #: the repair was cut mid-sequence with state checkpointed -- a
    #: later detect+reconcile pass (or the watcher's retry queue)
    #: resumes it
    interrupted: bool = False


@dataclasses.dataclass
class ReconcileReport:
    actions: List[ReconcileAction]
    notifications: List[str]
    api_calls: int
    #: precise resumable work: repairs interrupted mid-sequence (state
    #: checkpointed; a fresh detect+reconcile pass picks them up)
    remainder: List[str] = dataclasses.field(default_factory=list)

    def count(self, policy: str) -> int:
        return sum(1 for a in self.actions if a.policy == policy)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.actions)


class Reconciler:
    """Applies a per-kind reconciliation policy to drift findings.

    Every cloud call goes through the resilience layer: transient and
    throttled faults are retried with backoff, and the delete->create
    replacement path checkpoints state between steps so a terminal
    mid-sequence fault never leaves state pointing at a dead resource.
    """

    def __init__(
        self,
        gateway: CloudGateway,
        policy: Optional[Dict[str, str]] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.gateway = ResilientGateway.wrap(gateway, retry=retry)
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
                remainder.append(action.performed)
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
        try:
            return ReconcileAction(
                finding, policy, self._apply(finding, policy, state)
            )
        except ReconcileInterrupted as exc:
            return ReconcileAction(
                finding, policy, exc.message, ok=False, interrupted=True
            )
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

    def _apply(
        self, finding: DriftFinding, policy: str, state: StateDocument
    ) -> str:
        if finding.kind == "modified":
            entry = self._entry_for(finding, state)
            if entry is None:
                return "no state entry; nothing to do"
            if policy == ENFORCE:
                rtype = entry.address.type
                updatable, immutable = self._split_drift(entry, finding)
                if immutable:
                    # the drifted attribute cannot change in place; the
                    # only way back to golden state is replacement
                    old_id = entry.resource_id
                    self.gateway.execute(
                        "delete", rtype, resource_id=entry.resource_id
                    )
                    # checkpoint: the old resource is gone -- state must
                    # say so *before* the create is attempted, or a
                    # create fault strands a dead id in golden state
                    entry = entry.replace(resource_id="")
                    state.set(entry)
                    state.bump()
                    payload = settable_attrs(
                        self.gateway.try_spec(rtype), entry.attrs
                    )
                    region = entry.region or self.gateway.default_region(rtype)
                    try:
                        response = self.gateway.execute(
                            "create", rtype, attrs=payload, region=region
                        )
                    except CloudAPIError as exc:
                        raise ReconcileInterrupted(
                            f"replacement of {entry.address} interrupted: "
                            f"deleted {old_id} but create failed "
                            f"({exc.code}); re-run reconcile to resume",
                            exc,
                        ) from exc
                    state.set(
                        entry.replace(
                            resource_id=response["id"], attrs=dict(response)
                        )
                    )
                    return (
                        "recreated resource (drift on immutable attrs: "
                        + ", ".join(immutable)
                        + ")"
                    )
                if not updatable:
                    return "drift already matches golden state"
                response = self.gateway.execute(
                    "update",
                    rtype,
                    resource_id=entry.resource_id,
                    attrs=updatable,
                )
                state.set(entry.replace(attrs=dict(response)))
                return "reset cloud attributes to golden state"
            # adopt: pull the cloud's version into state
            live = self.gateway.find_record(finding.resource_id)
            if live is not None:
                state.set(entry.replace(attrs=live.snapshot()))
            return "adopted cloud attributes into state"
        if finding.kind == "deleted":
            entry = self._entry_for(finding, state)
            if entry is None:
                return "no state entry; nothing to do"
            if policy == ENFORCE:
                rtype = entry.address.type
                payload = settable_attrs(
                    self.gateway.try_spec(rtype), entry.attrs
                )
                region = entry.region or self.gateway.default_region(rtype)
                response = self.gateway.execute(
                    "create", rtype, attrs=payload, region=region
                )
                state.set(
                    ResourceState(
                        address=entry.address,
                        resource_id=response["id"],
                        provider=entry.provider,
                        attrs=dict(response),
                        region=region,
                    )
                )
                return "recreated deleted resource"
            state.remove(entry.address)
            return "removed deleted resource from state"
        if finding.kind == "unmanaged" and policy == ADOPT:
            if finding.address is not None:
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
            return "flagged for import into configuration"
        return "no action"

    def _split_drift(self, entry: ResourceState, finding: DriftFinding):
        """Golden values for the drifted attrs: (updatable, immutable)."""
        spec = self.gateway.try_spec(entry.address.type)
        live = self.gateway.find_record(entry.resource_id)
        changed = list(finding.changed_attrs)
        if not changed and live is not None:
            changed = changed_attrs(entry.attrs, live.attrs)
        updatable: Dict[str, object] = {}
        immutable: List[str] = []
        for attr in changed:
            golden = entry.attrs.get(attr)
            if live is not None and live.attrs.get(attr) == golden:
                continue  # already matches
            if spec is not None:
                aspec = spec.attr(attr)
                if aspec is None or aspec.computed:
                    continue
                if attr in spec.immutable_attrs or aspec.forces_replacement:
                    immutable.append(attr)
                    continue
                # golden None means the attr was never set: enforce
                # resets it (an out-of-band `ingress_rules` opened on a
                # firewall must close again, not survive as un-enforceable)
                updatable[attr] = golden
            elif golden is not None:
                updatable[attr] = golden
        return updatable, immutable

