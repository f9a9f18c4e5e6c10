"""Crash recovery: replay the intent journal against the live clouds.

The resume half of the crash-safe apply path. After a process death the
intent journal (:mod:`repro.deploy.wal`) holds the crashed run's
intents, some without commit markers. :class:`CrashRecovery` classifies
every open intent by *probing the control plane* -- the cloud, not the
state file, is the source of truth about what actually happened:

* **committed** -- the intent has a commit marker; state already
  describes the outcome. Nothing to do.
* **orphaned** -- an open *create* whose idempotency token maps to a
  live resource: the cloud finished the call but the process died
  before the state commit. The resource is adopted into state via the
  existing ``ADOPT`` reconcile action, under the address the intent
  recorded.
* **landed** -- an open *delete* whose target id no longer exists
  cloud-side: the delete finished; the state entry is removed.
* **never-started** -- no cloud-side evidence. The re-planned apply
  simply does the work again (creates re-send the *same* token, so even
  a probe miss cannot duplicate).

Open *updates* are always classified never-started: updates are
idempotent at the attribute level, so re-sending one converges
regardless of whether the crashed attempt landed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..addressing import ResourceAddress
from ..cloud.resilience import ResilientGateway
from ..drift.detector import DriftFinding
from ..drift.reconcile import ADOPT, Reconciler
from ..state.document import StateDocument
from .wal import IntentJournal, IntentRecord

COMMITTED = "committed"
ORPHANED = "orphaned"
LANDED = "landed"
NEVER_STARTED = "never-started"
ABORTED = "aborted"
QUARANTINED = "quarantined"


@dataclasses.dataclass
class RecoveryAction:
    """The classification (and repair, if any) of one journaled intent."""

    intent: IntentRecord
    classification: str
    performed: str = ""


@dataclasses.dataclass
class RecoveryReport:
    """What recovery found and fixed before the apply continues."""

    run_id: str
    actions: List[RecoveryAction] = dataclasses.field(default_factory=list)
    adopted: List[str] = dataclasses.field(default_factory=list)
    removed: List[str] = dataclasses.field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(
            1 for a in self.actions if a.classification == classification
        )

    def summary(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for action in self.actions:
            out[action.classification] = out.get(action.classification, 0) + 1
        return out


class CrashRecovery:
    """Classify a crashed run's intents and repair state accordingly."""

    def __init__(self, gateway: ResilientGateway, journal: IntentJournal):
        self.gateway = gateway
        self.journal = journal
        self._adopted: List[str] = []
        self._removed: List[str] = []

    def recover(self, state: StateDocument) -> RecoveryReport:
        self._adopted = []
        self._removed = []
        report = RecoveryReport(run_id=self.journal.run_id or "")
        for intent in self.journal.records():
            report.actions.append(self._classify(intent, state))
        report.adopted = list(self._adopted)
        report.removed = list(self._removed)
        if report.adopted or report.removed:
            state.bump()
        return report

    # -- per-intent classification ----------------------------------------

    def _classify(
        self, intent: IntentRecord, state: StateDocument
    ) -> RecoveryAction:
        if intent.status == "aborted":
            if intent.error.startswith("quarantined"):
                # Parked by a degraded-mode apply, not failed: the
                # partition was unreachable. The resumed apply re-plans
                # and re-sends the work once the partition recovers.
                return RecoveryAction(
                    intent,
                    QUARANTINED,
                    f"parked by degraded-mode apply: {intent.error}",
                )
            return RecoveryAction(
                intent, ABORTED, f"run recorded terminal failure: {intent.error}"
            )
        # Committed intents are probed exactly like open ones: the crash
        # may have destroyed the in-memory state the commit landed in
        # (the state file is written at the end of an apply), so the
        # cloud -- not the marker -- decides what repair is needed. The
        # repairs are idempotent, so re-probing a commit whose state
        # entry *did* survive rewrites it with identical content.
        if intent.op == "create":
            return self._classify_create(intent, state)
        if intent.op == "delete":
            return self._classify_delete(intent, state)
        # update: idempotent at the attribute level -- the re-planned
        # apply re-diffs against state and re-sends whatever is missing
        classification = (
            COMMITTED if intent.status == "committed" else NEVER_STARTED
        )
        return RecoveryAction(
            intent, classification, "update re-sent by the resumed apply"
        )

    def _classify_create(
        self, intent: IntentRecord, state: StateDocument
    ) -> RecoveryAction:
        committed = intent.status == "committed"
        live = self.gateway.find_record_by_token(intent.token)
        if live is None:
            return RecoveryAction(
                intent,
                COMMITTED if committed else NEVER_STARTED,
                "no cloud-side resource for token",
            )
        address = self._parse_address(intent.address)
        finding = DriftFinding(
            kind="unmanaged",
            resource_id=live.id,
            resource_type=live.type,
            address=address,
        )
        reconciler = Reconciler(self.gateway, policy={"unmanaged": ADOPT})
        result = reconciler.reconcile([finding], state)
        performed = (
            result.actions[0].performed if result.actions else "adoption failed"
        )
        if result.ok and address is not None:
            entry = state.get(address)
            if entry is not None and entry.resource_id == live.id:
                self._adopted.append(str(address))
        return RecoveryAction(
            intent, COMMITTED if committed else ORPHANED, performed
        )

    def _classify_delete(
        self, intent: IntentRecord, state: StateDocument
    ) -> RecoveryAction:
        committed = intent.status == "committed"
        live = (
            self.gateway.find_record(intent.resource_id)
            if intent.resource_id
            else None
        )
        if live is not None:
            return RecoveryAction(
                intent, NEVER_STARTED, "target still live; delete re-sent"
            )
        address = self._parse_address(intent.address)
        if address is not None and state.get(address) is not None:
            state.remove(address)
            self._removed.append(str(address))
            return RecoveryAction(
                intent,
                COMMITTED if committed else LANDED,
                f"delete finished cloud-side; removed {address} from state",
            )
        return RecoveryAction(
            intent,
            COMMITTED if committed else LANDED,
            "delete finished cloud-side; state already clean",
        )

    @staticmethod
    def _parse_address(text: str) -> Optional[ResourceAddress]:
        try:
            return ResourceAddress.parse(text)
        except ValueError:
            return None
