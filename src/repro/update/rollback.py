"""Rollback planning (3.4).

"Simply applying a previous configuration doesn't always roll back the
infrastructure to its intended previous state." Two planners:

* :class:`NaiveRollback` -- today's practice: diff the *state file*
  against the target snapshot and re-apply. Blind to out-of-band
  modifications (shadow attributes a VM picked up from a script) and to
  attributes the cloud cannot change in place.
* :class:`ReversibilityAwareRollback` -- the cloudless design: reads the
  *actual cloud records*, classifies every divergence as reversible
  in-place (update) or irreversible (destroy + recreate), cascades
  replacements through dependents, and executes in phases (update ->
  destroy dependents-first -> recreate dependencies-first with id
  remapping) so the estate provably converges.

:func:`repair_action` is the per-entry rule behind that
classification, and the one drift enforcement (3.5) runs too: the
:class:`~repro.drift.reconcile.Reconciler` repairs a finding with it
and this module's phased executor, without the cascade.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, List, Optional, Set

from ..addressing import ResourceAddress
from ..cloud.base import CloudAPIError
from ..cloud.gateway import CloudGateway
from ..cloud.resilience import ResilientGateway
from ..cloud.resources import settable_attrs
from ..state.document import ResourceState, StateDocument
from ..state.snapshots import Snapshot


class RollbackKind(enum.Enum):
    UPDATE = "update"  # in-place attribute reset
    REPLACE = "replace"  # destroy + recreate (irreversible divergence)
    RECREATE = "recreate"  # resource vanished; create it again
    DELETE = "delete"  # resource did not exist at the snapshot

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass
class RollbackAction:
    address: ResourceAddress
    kind: RollbackKind
    reasons: List[str]
    target_attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    dependencies: List[str] = dataclasses.field(default_factory=list)
    cascaded: bool = False


@dataclasses.dataclass
class RollbackPlan:
    actions: List[RollbackAction]

    def count(self, kind: RollbackKind) -> int:
        return sum(1 for a in self.actions if a.kind is kind)

    @property
    def redeployments(self) -> int:
        """Resources that must be destroyed and rebuilt."""
        return self.count(RollbackKind.REPLACE) + self.count(RollbackKind.RECREATE)

    def __len__(self) -> int:
        return len(self.actions)


@dataclasses.dataclass
class RollbackResult:
    plan: RollbackPlan
    state: StateDocument
    duration_s: float
    api_calls: int
    errors: List[str]
    #: addresses whose rebuild is unfinished (destroy failed, or destroy
    #: landed but the recreate did not) -- state is checkpointed after
    #: each successful cloud call, so re-planning against the same
    #: snapshot resumes exactly this work
    remainder: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _remap_ids(value: Any, remap: Dict[str, str]) -> Any:
    """Rewrite old resource ids to their replacements, recursively."""
    if isinstance(value, str):
        return remap.get(value, value)
    if isinstance(value, list):
        return [_remap_ids(v, remap) for v in value]
    if isinstance(value, dict):
        return {k: _remap_ids(v, remap) for k, v in value.items()}
    return value


def repair_action(
    gateway: CloudGateway,
    entry: ResourceState,
    state: StateDocument,
    names: Optional[List[str]] = None,
) -> Optional[RollbackAction]:
    """What brings the live record behind ``entry``'s address in
    ``state`` back to ``entry`` -- the one repair rule, shared by
    rollback and drift enforcement. None when nothing diverges.

    Compares ``names`` (default: every attribute either side holds)
    and applies what the cloud's update call accepts: a computed
    attribute is skipped, a declared one is reset in place (a ``None``
    target clears it), and a replacement-forcing or undeclared
    (out-of-band, "shadow") one needs a replacement. A record that no
    longer exists is recreated.
    """
    current = state.get(entry.address)
    live = (
        gateway.find_record(current.resource_id) if current is not None else None
    )
    if live is None:
        return RollbackAction(
            address=entry.address,
            kind=RollbackKind.RECREATE,
            reasons=["resource no longer exists in the cloud"],
            target_attrs=dict(entry.attrs),
            dependencies=list(entry.dependencies),
        )
    spec = gateway.try_spec(entry.address.type)
    live_attrs = live.snapshot()
    keys = set(live_attrs) | set(entry.attrs) if names is None else names
    updates: Dict[str, Any] = {}
    immutable: List[str] = []
    shadow: List[str] = []
    for key in sorted(keys):
        want = entry.attrs.get(key)
        if live_attrs.get(key) == want:
            continue
        aspec = spec.attr(key) if spec is not None else None
        if aspec is None:
            shadow.append(key)
        elif aspec.computed:
            continue
        elif key in spec.immutable_attrs or aspec.forces_replacement:
            immutable.append(key)
        else:
            updates[key] = want
    if immutable or shadow:
        return RollbackAction(
            address=entry.address,
            kind=RollbackKind.REPLACE,
            reasons=[f"immutable attribute {name!r} diverged" for name in immutable]
            + [
                f"out-of-band modification {name!r} cannot be reverted in place"
                for name in shadow
            ],
            target_attrs=dict(entry.attrs),
            dependencies=list(entry.dependencies),
        )
    if updates:
        return RollbackAction(
            address=entry.address,
            kind=RollbackKind.UPDATE,
            reasons=[f"attribute {name!r} diverged" for name in updates],
            target_attrs=updates,
            dependencies=list(entry.dependencies),
        )
    return None


class ReversibilityAwareRollback:
    """The cloudless rollback planner + phased executor.

    All cloud calls route through the resilience layer (retry with
    backoff on transient/throttled faults); the phased executor
    checkpoints state after every successful call so a terminal
    mid-sequence fault leaves a precise resumable remainder instead of
    silent corruption.
    """

    def __init__(self, gateway: ResilientGateway):
        self.gateway = gateway

    # -- planning --------------------------------------------------------------

    def plan(
        self, snapshot: Snapshot, current_state: StateDocument
    ) -> RollbackPlan:
        actions: List[RollbackAction] = []
        target = snapshot.state
        target_addrs = {str(a) for a in target.addresses()}
        for entry in target.resources():
            action = repair_action(self.gateway, entry, current_state)
            if action is not None:
                actions.append(action)
        for entry in current_state.resources():
            if str(entry.address) not in target_addrs:
                actions.append(
                    RollbackAction(
                        address=entry.address,
                        kind=RollbackKind.DELETE,
                        reasons=["resource did not exist at the snapshot"],
                        dependencies=list(entry.dependencies),
                    )
                )
        actions = self._with_cascades(actions, snapshot, current_state)
        return RollbackPlan(actions=sorted(actions, key=lambda a: str(a.address)))

    def _with_cascades(
        self,
        actions: List[RollbackAction],
        snapshot: Snapshot,
        current_state: StateDocument,
    ) -> List[RollbackAction]:
        """Replacing X forces replacing everything that references X."""
        by_addr = {str(a.address): a for a in actions}
        dependents: Dict[str, List[ResourceState]] = {}
        for entry in current_state.resources():
            for dep in entry.dependencies:
                dependents.setdefault(dep, []).append(entry)

        frontier = [
            str(a.address)
            for a in actions
            if a.kind in (RollbackKind.REPLACE, RollbackKind.RECREATE)
        ]
        while frontier:
            addr = frontier.pop()
            for entry in dependents.get(addr, []):
                dep_addr = str(entry.address)
                existing = by_addr.get(dep_addr)
                if existing is not None and existing.kind in (
                    RollbackKind.REPLACE,
                    RollbackKind.RECREATE,
                    RollbackKind.DELETE,
                ):
                    continue
                target_entry = snapshot.state.get(entry.address)
                target_attrs = dict(
                    target_entry.attrs if target_entry else entry.attrs
                )
                action = RollbackAction(
                    address=entry.address,
                    kind=RollbackKind.REPLACE,
                    reasons=[f"depends on replaced resource {addr}"],
                    target_attrs=target_attrs,
                    dependencies=list(entry.dependencies),
                    cascaded=True,
                )
                by_addr[dep_addr] = action
                frontier.append(dep_addr)
        return list(by_addr.values())

    # -- execution -----------------------------------------------------------------

    def execute(
        self, plan: RollbackPlan, current_state: StateDocument
    ) -> RollbackResult:
        gateway = self.gateway
        started = gateway.clock.now
        calls_before = gateway.calls_routed()
        errors: List[str] = []
        remainder: List[str] = []
        remap: Dict[str, str] = {}

        replaced_addrs = {
            str(a.address)
            for a in plan.actions
            if a.kind in (RollbackKind.REPLACE, RollbackKind.RECREATE)
        }
        updates = [
            a
            for a in plan.actions
            if a.kind is RollbackKind.UPDATE
            and str(a.address) not in replaced_addrs
        ]
        deletes = [a for a in plan.actions if a.kind is RollbackKind.DELETE]
        rebuilds = [
            a
            for a in plan.actions
            if a.kind in (RollbackKind.REPLACE, RollbackKind.RECREATE)
        ]

        # phase A: in-place resets (also drops references to resources
        # about to be deleted, e.g. an LB shedding extra VMs)
        for action in updates:
            entry = current_state.get(action.address)
            if entry is None:
                continue
            try:
                response = gateway.execute(
                    "update",
                    action.address.type,
                    resource_id=entry.resource_id,
                    attrs=action.target_attrs,
                )
                # a reset restores the entry's own value: no new stamp
                current_state.set(entry.replace(attrs=dict(response)))
            except CloudAPIError as exc:
                errors.append(f"{action.address}: {exc}")

        # phase B: destroy -- deletes + the destroy half of replaces,
        # dependents before their dependencies. After each successful
        # destroy the state entry is checkpointed (resource id cleared)
        # so a later fault can never strand a dead id in golden state;
        # destroys that *fail* are remembered so phase C skips their
        # rebuild instead of creating a duplicate twin.
        destroy = deletes + [
            a for a in rebuilds if current_state.get(a.address) is not None
        ]
        failed_destroys: Set[str] = set()
        destroyed_ids: Dict[str, str] = {}  # address -> pre-destroy live id
        for action in _dependents_first(destroy):
            entry = current_state.get(action.address)
            if entry is None:
                continue
            if gateway.find_record(entry.resource_id) is None:
                if action.kind is RollbackKind.DELETE:
                    current_state.remove(action.address)
                continue
            try:
                gateway.execute(
                    "delete", action.address.type, resource_id=entry.resource_id
                )
                if action.kind is RollbackKind.DELETE:
                    current_state.remove(action.address)
                else:
                    destroyed_ids[str(action.address)] = entry.resource_id
                    # checkpoint: old resource gone
                    current_state.set(entry.replace(resource_id=""))
                    current_state.bump()
            except CloudAPIError as exc:
                errors.append(f"{action.address}: {exc}")
                if action.kind is not RollbackKind.DELETE:
                    failed_destroys.add(str(action.address))

        # phase C: recreate -- dependencies before dependents, rewriting
        # references to replaced resources as we learn their new ids
        for action in _dependencies_first(rebuilds):
            rtype = action.address.type
            addr = str(action.address)
            if addr in failed_destroys:
                # the old resource is still live; recreating now would
                # put two resources under one address
                errors.append(
                    f"{action.address}: recreate skipped -- destroy half "
                    f"failed; resolve and re-run rollback"
                )
                remainder.append(addr)
                continue
            entry = current_state.get(action.address)
            old_id = (
                action.target_attrs.get("id")
                or destroyed_ids.get(addr)
                or (entry.resource_id if entry else "")
            )
            payload = {
                k: _remap_ids(v, remap)
                for k, v in settable_attrs(
                    gateway.try_spec(rtype), action.target_attrs
                ).items()
            }
            region = (
                action.target_attrs.get("location")
                or (entry.region if entry else "")
                or gateway.default_region(rtype)
            )
            try:
                response = gateway.execute(
                    "create", rtype, attrs=payload, region=region
                )
            except CloudAPIError as exc:
                errors.append(f"{action.address}: {exc}")
                remainder.append(addr)
                continue
            if old_id:
                remap[str(old_id)] = response["id"]
            live_old = destroyed_ids.get(addr)
            if live_old and live_old != old_id:
                # dependents' live attrs reference the pre-rollback id;
                # map it to the twin as well
                remap[live_old] = response["id"]
            current_state.set(
                ResourceState(
                    address=action.address,
                    resource_id=response["id"],
                    provider=gateway.provider_of(rtype),
                    attrs=dict(response),
                    region=region,
                    created_at=gateway.clock.now,
                    updated_at=gateway.clock.now,
                    dependencies=list(action.dependencies),
                )
            )

        return RollbackResult(
            plan=plan,
            state=current_state,
            duration_s=gateway.clock.now - started,
            api_calls=gateway.calls_routed() - calls_before,
            errors=errors,
            remainder=sorted(set(remainder)),
        )


class NaiveRollback:
    """Baseline: re-apply the snapshot by diffing the *state file* only.

    Never consults the live cloud, so out-of-band modifications are
    invisible and immutable-attribute divergence surfaces as runtime
    API errors instead of planned replacements.
    """

    def __init__(self, gateway: ResilientGateway):
        self.gateway = gateway

    def plan(self, snapshot: Snapshot, current_state: StateDocument) -> RollbackPlan:
        actions: List[RollbackAction] = []
        target = snapshot.state
        target_addrs = {str(a) for a in target.addresses()}
        for entry in target.resources():
            current = current_state.get(entry.address)
            if current is None:
                actions.append(
                    RollbackAction(
                        entry.address,
                        RollbackKind.RECREATE,
                        ["missing from state"],
                        dict(entry.attrs),
                        dependencies=list(entry.dependencies),
                    )
                )
                continue
            changed = {
                k: v
                for k, v in entry.attrs.items()
                if current.attrs.get(k) != v and k != "id"
            }
            if changed:
                actions.append(
                    RollbackAction(
                        entry.address,
                        RollbackKind.UPDATE,
                        [f"state diff on {n!r}" for n in changed],
                        changed,
                        dependencies=list(entry.dependencies),
                    )
                )
        for entry in current_state.resources():
            if str(entry.address) not in target_addrs:
                actions.append(
                    RollbackAction(
                        entry.address,
                        RollbackKind.DELETE,
                        ["not in snapshot"],
                        dependencies=list(entry.dependencies),
                    )
                )
        return RollbackPlan(actions=sorted(actions, key=lambda a: str(a.address)))

    def execute(
        self, plan: RollbackPlan, current_state: StateDocument
    ) -> RollbackResult:
        gateway = self.gateway
        started = gateway.clock.now
        calls_before = gateway.calls_routed()
        errors: List[str] = []
        remap: Dict[str, str] = {}
        updates = [a for a in plan.actions if a.kind is RollbackKind.UPDATE]
        deletes = [a for a in plan.actions if a.kind is RollbackKind.DELETE]
        recreates = [a for a in plan.actions if a.kind is RollbackKind.RECREATE]
        ordered = (
            updates
            + _dependents_first(deletes)
            + _dependencies_first(recreates)
        )
        for action in ordered:
            entry = current_state.get(action.address)
            rtype = action.address.type
            try:
                if action.kind is RollbackKind.DELETE and entry is not None:
                    gateway.execute("delete", rtype, resource_id=entry.resource_id)
                    current_state.remove(action.address)
                elif action.kind is RollbackKind.UPDATE and entry is not None:
                    payload = {
                        k: v
                        for k, v in action.target_attrs.items()
                        if v is not None and k != "id"
                    }
                    response = gateway.execute(
                        "update",
                        rtype,
                        resource_id=entry.resource_id,
                        attrs=payload,
                    )
                    current_state.set(entry.replace(attrs=dict(response)))
                elif action.kind is RollbackKind.RECREATE:
                    payload = {
                        k: _remap_ids(v, remap)
                        for k, v in action.target_attrs.items()
                        if v is not None and k != "id"
                    }
                    old_id = action.target_attrs.get("id", "")
                    region = action.target_attrs.get(
                        "location"
                    ) or gateway.default_region(rtype)
                    response = gateway.execute(
                        "create", rtype, attrs=payload, region=region
                    )
                    if old_id:
                        remap[str(old_id)] = response["id"]
                    current_state.set(
                        ResourceState(
                            address=action.address,
                            resource_id=response["id"],
                            provider=gateway.provider_of(rtype),
                            attrs=dict(response),
                            region=region,
                            dependencies=list(action.dependencies),
                        )
                    )
            except CloudAPIError as exc:
                errors.append(f"{action.address}: {exc}")
        return RollbackResult(
            plan=plan,
            state=current_state,
            duration_s=gateway.clock.now - started,
            api_calls=gateway.calls_routed() - calls_before,
            errors=errors,
        )


# -- ordering helpers -----------------------------------------------------------


def _dependents_first(actions: List[RollbackAction]) -> List[RollbackAction]:
    """Destroy order: a resource before anything it depends on."""
    return _topo(actions, dependents_first=True)


def _dependencies_first(actions: List[RollbackAction]) -> List[RollbackAction]:
    """Create order: a resource after everything it depends on."""
    return _topo(actions, dependents_first=False)


def _topo(actions: List[RollbackAction], dependents_first: bool) -> List[
    RollbackAction
]:
    from ..graph.dag import Dag

    in_set = {str(a.address) for a in actions}
    dag: Dag = Dag()
    for action in actions:
        addr = str(action.address)
        dag.add_node(addr)
        for dep in action.dependencies:
            if dep in in_set and dep != addr:
                if dependents_first:
                    dag.add_edge(addr, dep)  # dependent runs first
                else:
                    dag.add_edge(dep, addr)  # dependency runs first
    by_addr = {str(a.address): a for a in actions}
    try:
        return [by_addr[n] for n in dag.topological_order()]
    except Exception:
        return sorted(actions, key=lambda a: str(a.address))


def measure_divergence(
    gateway: CloudGateway, snapshot: Snapshot, state: StateDocument
) -> int:
    """How many resources still differ from the snapshot's intent.

    The E4 convergence metric: compares *live cloud records* against the
    snapshot attribute-by-attribute (ignoring computed identity attrs,
    and following id replacements made by a rollback: reference attrs
    count as converged when they point at the recreated twin of the
    snapshot target).
    """
    # map snapshot resource ids to the ids now recorded in state for the
    # same address (identity across replacement)
    id_map: Dict[str, str] = {}
    for entry in snapshot.state.resources():
        current = state.get(entry.address)
        if current is not None:
            id_map[entry.resource_id] = current.resource_id

    divergent = 0
    for entry in snapshot.state.resources():
        current = state.get(entry.address)
        live = (
            gateway.find_record(current.resource_id) if current is not None else None
        )
        if live is None:
            divergent += 1
            continue
        spec = gateway.try_spec(entry.address.type)
        computed = {a.name for a in spec.computed_attrs()} if spec else {"id"}
        keys = (set(entry.attrs) | set(live.attrs)) - computed
        for key in keys:
            want = _remap_ids(entry.attrs.get(key), id_map)
            if want != live.attrs.get(key):
                divergent += 1
                break
    snapshot_addrs = {str(e.address) for e in snapshot.state.resources()}
    for entry in state.resources():
        if str(entry.address) not in snapshot_addrs:
            divergent += 1
    return divergent
