"""The chaos scenario DSL.

A **scenario** is a declarative value: a workload, a list of
**injections** (what breaks), a list of lifecycle **phases** (what the
operator does while it is broken), and the defect-taxonomy classes the
combination exercises. Scenarios and campaigns round-trip through
JSON -- ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` -- so a
campaign file fully names an experiment. The dataclass declarations
below are the schema: :class:`~repro.cloud.faults.Spec` derives
``to_dict`` / ``from_dict`` from their fields and annotations, every
range check lives in ``__post_init__`` (so constructing a spec and
loading one refuse the same values), and every validation error names
the offending field (:class:`SpecValidationError`).

Injections compose the cloud layer's primitives
(:class:`~repro.cloud.faults.FaultSpec`,
:class:`~repro.cloud.faults.OutageSpec`, blanket transient rates) with
the correlated/asymmetric/contention failure modes real estates see:

========================  ====================================================
``fault``                 one scheduled :class:`FaultSpec` rule per provider
``transient-rate``        blanket transient failure probability on mutations
``outage``                one :class:`OutageSpec` window on one provider
``correlated-outage``     staggered hard outages across several (provider,
                          region) zones -- the classic correlated failure
``asymmetric-partition``  op-class-scoped outage: writes fail, reads answer
                          (or the inverse)
``quota-storm``           a co-tenant squats the quota; creates fail
                          terminally until capacity is released
``ratelimit-storm``       a noisy neighbor drains a token bucket and reserves
                          its refill stream
``version-skew``          a provider rejects an API version inside a time
                          window, then heals
``clock-skew``            a provider's management plane runs ahead of the
                          coordinator clock
========================  ====================================================

Each injection knows how to ``arm(engine)`` before the phases run, what
recovery ``horizon()`` the drain must advance past, and how to
``release(engine)`` anything (squatters, quotas, re-clocked planes)
that would otherwise keep the estate from converging.
"""

from __future__ import annotations

import dataclasses
from typing import Annotated, Any, Dict, List, Mapping, Optional, Tuple

from ..cloud.clock import SkewedClock
from ..cloud.faults import FaultSpec, OutageSpec, Spec, SpecValidationError
from ..cloud.resilience import THROTTLE_CODES
from ..workloads import (
    scale_estate,
    sized_estate,
    two_region_estate,
    web_tier,
)
from .taxonomy import validate_classes

#: workload name -> generator; scenario files reference these by name
WORKLOADS = {
    "web_tier": web_tier,
    "two_region_estate": two_region_estate,
    "sized_estate": sized_estate,
    "scale_estate": scale_estate,
}


def _target_planes(engine, providers: List[str]) -> List[Tuple[str, Any]]:
    """(name, plane) pairs an injection targets; ``[]`` = every plane."""
    names = providers or sorted(engine.gateway.planes)
    out = []
    for name in names:
        plane = engine.gateway.planes.get(name)
        if plane is None:
            raise SpecValidationError(
                f"injection targets unknown provider {name!r} "
                f"(have: {', '.join(sorted(engine.gateway.planes))})"
            )
        out.append((name, plane))
    return out


class Injection(Spec):
    """Base class: one named failure mode, armed onto an engine.

    Each subclass sets ``kind``, the tag its payload carries and
    :data:`INJECTION_KINDS` files it under."""

    def arm(self, engine) -> None:
        raise NotImplementedError

    def release(self, engine) -> None:
        """Undo anything that must be lifted before the drain phase."""

    def horizon(self) -> float:
        """Sim time after which the injection no longer fires."""
        return 0.0

    def defect_classes(self) -> List[str]:
        raise NotImplementedError


@dataclasses.dataclass(eq=False)
class FaultInjection(Injection):
    """One scheduled :class:`FaultSpec` rule, added to each target
    provider's injector (each plane gets its own copy, so strike and
    skip accounting never crosses planes)."""

    fault: FaultSpec
    providers: List[str] = dataclasses.field(default_factory=list)

    kind = "fault"

    def arm(self, engine) -> None:
        for _, plane in _target_planes(engine, self.providers):
            plane.faults.add_rule(dataclasses.replace(self.fault))

    def horizon(self) -> float:
        return self.fault.end_s or 0.0

    def defect_classes(self) -> List[str]:
        if self.fault.error_code in THROTTLE_CODES:
            return ["performance/rate-limit"]
        return ["reliability/transient-error"]


@dataclasses.dataclass(eq=False)
class TransientRate(Injection):
    """Blanket transient failure probability on every mutating call."""

    rate: float
    providers: List[str] = dataclasses.field(default_factory=list)

    kind = "transient-rate"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise SpecValidationError(
                f"TransientRate.rate must be in [0, 1), got {self.rate}"
            )

    def arm(self, engine) -> None:
        for _, plane in _target_planes(engine, self.providers):
            plane.faults.set_transient_rate(self.rate)

    def defect_classes(self) -> List[str]:
        return [
            "reliability/transient-error",
            "idempotency/duplicate-request",
        ]


@dataclasses.dataclass(eq=False)
class OutageInjection(Injection):
    """One :class:`OutageSpec` window on one provider."""

    provider: str
    outage: OutageSpec

    kind = "outage"

    def arm(self, engine) -> None:
        engine.gateway.inject_outage(self.provider, self.outage)

    def horizon(self) -> float:
        return self.outage.end_s

    def defect_classes(self) -> List[str]:
        if self.outage.mode == "brownout":
            return ["performance/degraded-service"]
        if self.outage.op_class:
            return ["availability/partial-outage"]
        return ["availability/service-outage"]


@dataclasses.dataclass(eq=False)
class CorrelatedOutage(Injection):
    """Staggered hard outages across several (provider, region) zones.

    Zone ``i`` goes dark at ``start_s + i * stagger_s`` for
    ``duration_s`` -- the correlated multi-zone failure (shared power,
    shared backbone, cascading load) that single-window outage tests
    never exercise.
    """

    zones: List[List[str]]  # [provider, region] pairs; region "" = whole plane
    start_s: float = 0.0
    duration_s: float = 10000.0
    stagger_s: float = 0.0

    kind = "correlated-outage"

    def __post_init__(self) -> None:
        if not self.zones:
            raise SpecValidationError(
                "CorrelatedOutage.zones must be a non-empty list of "
                "[provider, region] pairs"
            )
        for i, zone in enumerate(self.zones):
            if not (
                isinstance(zone, (list, tuple))
                and len(zone) == 2
                and all(isinstance(part, str) for part in zone)
            ):
                raise SpecValidationError(
                    f"CorrelatedOutage.zones[{i}] must be a "
                    f"[provider, region] pair, got {zone!r}"
                )

    def arm(self, engine) -> None:
        for i, (provider, region) in enumerate(self.zones):
            begin = self.start_s + i * self.stagger_s
            engine.gateway.inject_outage(
                provider,
                OutageSpec(
                    start_s=begin, end_s=begin + self.duration_s, region=region
                ),
            )

    def horizon(self) -> float:
        if not self.zones:
            return 0.0
        return (
            self.start_s
            + (len(self.zones) - 1) * self.stagger_s
            + self.duration_s
        )

    def defect_classes(self) -> List[str]:
        return ["availability/service-outage"]


@dataclasses.dataclass(eq=False)
class AsymmetricPartition(Injection):
    """An op-class-scoped outage: the classic half-broken partition.

    ``op_class="write"`` (default): mutations fail fast while list
    pages, log tails, and probes keep answering -- the control plane
    went read-only. ``"read"`` models the inverse (blind but writable).
    """

    provider: str
    region: str = ""
    start_s: float = 0.0
    end_s: float = 10000.0
    op_class: str = "write"

    kind = "asymmetric-partition"

    def __post_init__(self) -> None:
        if self.op_class not in ("read", "write"):
            raise SpecValidationError(
                f"AsymmetricPartition.op_class must be 'read' or 'write', "
                f"got {self.op_class!r}"
            )

    def arm(self, engine) -> None:
        engine.gateway.inject_outage(
            self.provider,
            OutageSpec(
                start_s=self.start_s,
                end_s=self.end_s,
                region=self.region,
                op_class=self.op_class,
                error_code="PartitionUnavailable",
            ),
        )

    def horizon(self) -> float:
        return self.end_s

    def defect_classes(self) -> List[str]:
        return ["availability/partial-outage"]


@dataclasses.dataclass(eq=False)
class QuotaStorm(Injection):
    """A co-tenant exhausts a provider quota.

    ``squatters`` out-of-band resources land first, then the quota is
    clamped to ``limit`` (default: exactly the squatter count -- zero
    headroom), so every managed create of ``rtype`` in the region fails
    terminally with ``QuotaExceeded`` until :meth:`release` deletes the
    squatters and lifts the quota.
    """

    provider: str
    rtype: str
    region: str = ""  # "" = the plane's default region
    squatters: int = 4
    limit: int = -1  # -1 = exactly `squatters` (no headroom)

    kind = "quota-storm"

    def __post_init__(self) -> None:
        if self.squatters < 0:
            raise SpecValidationError(
                f"QuotaStorm.squatters must be >= 0, got {self.squatters}"
            )
        self._squatter_ids: List[str] = []
        self._armed_region = ""

    def arm(self, engine) -> None:
        plane = engine.gateway.planes[self.provider]
        region = self.region or plane.regions[0]
        self._armed_region = region
        self._squatter_ids = [
            plane.external_create(
                self.rtype,
                {"name": f"squatter-{i}"},
                region,
                actor="noisy-tenant",
            )
            for i in range(self.squatters)
        ]
        limit = self.limit if self.limit >= 0 else self.squatters
        plane.set_quota(self.rtype, region, limit)

    def release(self, engine) -> None:
        plane = engine.gateway.planes[self.provider]
        for rid in self._squatter_ids:
            try:
                plane.external_delete(rid, actor="noisy-tenant")
            except Exception:
                pass
        self._squatter_ids = []
        plane.quotas.pop((self.rtype, self._armed_region), None)

    def defect_classes(self) -> List[str]:
        return ["capacity/quota-exhaustion"]


@dataclasses.dataclass(eq=False)
class RateLimitStorm(Injection):
    """A noisy neighbor drains a rate-limit bucket at arm time.

    The co-tenant burns every token in the ``op_class`` bucket and
    reserves the refill stream for ``busy_s`` simulated seconds (see
    :meth:`~repro.cloud.ratelimit.TokenBucket.preempt`); the tenant's
    first calls then start throttled, exactly the cross-tenant
    contention the paper's 3.3 blames for slow management planes.
    """

    busy_s: float
    op_class: str = "write"
    providers: List[str] = dataclasses.field(default_factory=list)

    kind = "ratelimit-storm"

    def __post_init__(self) -> None:
        if self.busy_s < 0:
            raise SpecValidationError(
                f"RateLimitStorm.busy_s must be >= 0, got {self.busy_s}"
            )
        self._armed_until = 0.0

    def arm(self, engine) -> None:
        now = engine.clock.now
        for _, plane in _target_planes(engine, self.providers):
            self._armed_until = max(
                self._armed_until,
                plane.limiter.preempt(self.op_class, now, self.busy_s),
            )

    def horizon(self) -> float:
        return self._armed_until

    def defect_classes(self) -> List[str]:
        return ["performance/rate-limit"]


@dataclasses.dataclass(eq=False)
class VersionSkew(Injection):
    """A provider rejects an API version inside a time window.

    Every matching call fails (transiently -- the provider rolls
    forward at ``end_s`` and the same request then succeeds), modelling
    the deploy-during-provider-rollout races real estates hit.
    """

    providers: List[str] = dataclasses.field(default_factory=list)
    match_type: str = ""
    match_operation: str = ""
    start_s: float = 0.0
    end_s: float = 5000.0
    error_code: str = "InvalidApiVersion"

    kind = "version-skew"

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise SpecValidationError(
                f"VersionSkew window must be non-empty: "
                f"[{self.start_s}, {self.end_s})"
            )

    def arm(self, engine) -> None:
        for _, plane in _target_planes(engine, self.providers):
            plane.faults.add_rule(
                FaultSpec(
                    error_code=self.error_code,
                    message=(
                        f"{self.error_code}: the requested API version is "
                        f"not supported until the provider rolls forward "
                        f"(t={self.end_s:.0f})"
                    ),
                    match_type=self.match_type,
                    match_operation=self.match_operation,
                    probability=1.0,
                    transient=True,
                    max_strikes=-1,
                    start_s=self.start_s,
                    end_s=self.end_s,
                )
            )

    def horizon(self) -> float:
        return self.end_s

    def defect_classes(self) -> List[str]:
        return ["interface/version-skew"]


@dataclasses.dataclass(eq=False)
class ClockSkew(Injection):
    """One provider's management plane runs ahead of the coordinator.

    The plane's clock is replaced with a :class:`SkewedClock` view of
    the shared base clock: its activity-log events and completion
    stamps land ``offset_s`` in the coordinator's future. Release folds
    the skew into the base clock (time never moves backwards) and
    restores the shared clock.
    """

    provider: str
    offset_s: float = 120.0

    kind = "clock-skew"

    def __post_init__(self) -> None:
        if self.offset_s < 0.0:
            raise SpecValidationError(
                f"ClockSkew.offset_s must be >= 0 (time never runs "
                f"backwards), got {self.offset_s}"
            )
        self._replaced: List[Tuple[Any, Any]] = []

    def arm(self, engine) -> None:
        plane = engine.gateway.planes[self.provider]
        original = plane.clock
        plane.clock = SkewedClock(original, self.offset_s)
        self._replaced.append((plane, original))

    def release(self, engine) -> None:
        for plane, original in self._replaced:
            original.advance_to(plane.clock.now)
            plane.clock = original
        self._replaced = []

    def defect_classes(self) -> List[str]:
        return ["timing/clock-skew"]


INJECTION_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        FaultInjection,
        TransientRate,
        OutageInjection,
        CorrelatedOutage,
        AsymmetricPartition,
        QuotaStorm,
        RateLimitStorm,
        VersionSkew,
        ClockSkew,
    )
}


def injection_from_dict(data: Mapping[str, Any]) -> Injection:
    """Decode one injection payload: its ``kind`` picks the class."""
    if not isinstance(data, Mapping):
        raise SpecValidationError(
            f"injection must be a mapping, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in INJECTION_KINDS:
        raise SpecValidationError(
            f"injection.kind must be one of "
            f"{', '.join(sorted(INJECTION_KINDS))}; got {kind!r}"
        )
    rest = {k: v for k, v in data.items() if k != "kind"}
    return INJECTION_KINDS[kind].from_dict(rest)


# -- phases -------------------------------------------------------------------

#: phase op -> allowed parameter fields (and accepted types)
PHASE_OPS: Dict[str, Dict[str, tuple]] = {
    "apply": {"workload_args": (dict,)},
    "crash_apply": {
        "kill_frac": (int, float),
        "kill_point": (int,),
        "workload_args": (dict,),
    },
    "churn": {
        "updates": (int,),
        "deletes": (int,),
        "creates": (int,),
        "security": (int,),
    },
    "reconcile": {"rounds": (int,)},
    "watch": {
        "cycles": (int,),
        "interval_s": (int, float),
        "max_lag_s": (int, float),
    },
    "snapshot": {},
    "rollback": {},
    "advance": {"to_s": (int, float), "by_s": (int, float)},
    "tenant_storm": {
        "tenants": (int,),
        "kill_frac": (int, float),
        "drift_reads": (int,),
        "workload_args": (dict,),
    },
}

#: defect classes a phase exercises regardless of injections
_PHASE_CLASSES = {
    "crash_apply": (
        "reliability/crash-consistency",
        "idempotency/duplicate-request",
    ),
    "tenant_storm": (
        "reliability/crash-consistency",
        "idempotency/duplicate-request",
        "isolation/tenant-interference",
        "capacity/admission-overload",
    ),
}

_CHURN_CLASSES = {
    "updates": "capacity/misconfiguration",
    "deletes": "availability/missing-resource",
    "creates": "provisioning/unmanaged-resource",
    "security": "security/misconfiguration",
}


def _validate_phase(index: int, phase: Any) -> Dict[str, Any]:
    where = f"ScenarioSpec.phases[{index}]"
    if not isinstance(phase, Mapping):
        raise SpecValidationError(
            f"{where} must be a mapping, got {type(phase).__name__}"
        )
    op = phase.get("op")
    if op not in PHASE_OPS:
        raise SpecValidationError(
            f"{where}.op must be one of {', '.join(sorted(PHASE_OPS))}; "
            f"got {op!r}"
        )
    allowed = PHASE_OPS[op]
    out: Dict[str, Any] = {"op": op}
    for key, value in phase.items():
        if key == "op":
            continue
        if key not in allowed:
            raise SpecValidationError(
                f"{where}.{key} is not a parameter of op {op!r} "
                f"(allowed: {', '.join(sorted(allowed)) or 'none'})"
            )
        if isinstance(value, bool) or not isinstance(value, allowed[key]):
            raise SpecValidationError(
                f"{where}.{key} must be "
                f"{' or '.join(t.__name__ for t in allowed[key])}, "
                f"got {value!r}"
            )
        out[key] = value
    return out


# -- scenario / campaign ------------------------------------------------------


@dataclasses.dataclass(eq=False)
class ScenarioSpec(Spec):
    """One named chaos experiment: workload x injections x phases."""

    name: str
    description: str = ""
    workload: str = "web_tier"
    workload_args: Dict[str, Any] = dataclasses.field(default_factory=dict)
    injections: List[Annotated[Injection, injection_from_dict]] = (
        dataclasses.field(default_factory=list)
    )
    phases: List[Dict[str, Any]] = dataclasses.field(
        default_factory=lambda: [{"op": "apply"}]
    )
    trials: int = 1
    #: defect classes beyond what injections/phases imply
    extra_classes: List[str] = dataclasses.field(default_factory=list)
    #: require byte-identical ``content_hash`` vs the uninterrupted arm
    #: (identity-keyed minting makes this hold unless an injection
    #: legitimately perturbs attribute values)
    strict_hash: bool = True
    #: give the deploy executors a patient retry schedule (needed for
    #: high blanket fault rates)
    patient_retry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecValidationError("ScenarioSpec.name is required")
        if self.workload not in WORKLOADS:
            raise SpecValidationError(
                f"ScenarioSpec.workload must be one of "
                f"{', '.join(sorted(WORKLOADS))}; got {self.workload!r}"
            )
        if self.trials < 1:
            raise SpecValidationError(
                f"ScenarioSpec.trials must be >= 1, got {self.trials}"
            )
        self.phases = [
            _validate_phase(i, p) for i, p in enumerate(self.phases)
        ]
        unknown = validate_classes(self.extra_classes)
        if unknown:
            raise SpecValidationError(
                f"ScenarioSpec.extra_classes contains unknown defect "
                f"class(es): {', '.join(unknown)}"
            )

    def sources(self, overrides: Optional[Dict[str, Any]] = None) -> str:
        """The workload's config text (phase overrides win)."""
        kwargs = dict(self.workload_args)
        kwargs.update(overrides or {})
        return WORKLOADS[self.workload](**kwargs)

    def defect_classes(self) -> List[str]:
        out = set(self.extra_classes)
        for injection in self.injections:
            out.update(injection.defect_classes())
        for phase in self.phases:
            out.update(_PHASE_CLASSES.get(phase["op"], ()))
            if phase["op"] == "churn":
                for key, klass in _CHURN_CLASSES.items():
                    if phase.get(key, 0) > 0:
                        out.add(klass)
        return sorted(out)


@dataclasses.dataclass(eq=False)
class CampaignSpec(Spec):
    """A named matrix of scenarios; the unit the runner executes.

    ``trials`` (when set) overrides every scenario's trial count -- the
    smoke-tier dial. The campaign ``name`` seeds every trial RNG (see
    :mod:`repro.chaos.seeds`), so two campaign files with different
    names explore different randomness over the same scenarios.
    """

    name: str
    scenarios: List[ScenarioSpec]
    description: str = ""
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecValidationError("CampaignSpec.name is required")
        if not self.scenarios:
            raise SpecValidationError(
                "CampaignSpec.scenarios must be non-empty"
            )
        seen = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise SpecValidationError(
                    f"CampaignSpec.scenarios: duplicate scenario name "
                    f"{scenario.name!r}"
                )
            seen.add(scenario.name)
        if self.trials is not None:
            if self.trials < 1:
                raise SpecValidationError(
                    f"CampaignSpec.trials must be >= 1, got {self.trials}"
                )
            self.scenarios = [
                dataclasses.replace(s, trials=self.trials)
                if s.trials != self.trials
                else s
                for s in self.scenarios
            ]

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        library: Optional[Mapping[str, ScenarioSpec]] = None,
    ) -> "CampaignSpec":
        """Build a campaign; string entries in ``scenarios`` name
        library scenarios (see :mod:`repro.chaos.library`)."""
        known = library or {}
        entries = data.get("scenarios") if isinstance(data, Mapping) else None
        if isinstance(entries, list):
            for i, entry in enumerate(entries):
                if isinstance(entry, str) and entry not in known:
                    raise SpecValidationError(
                        f"CampaignSpec.scenarios[{i}]: unknown library "
                        f"scenario {entry!r} "
                        f"(known: {', '.join(sorted(known)) or 'none'})"
                    )
            data = {
                **data,
                "scenarios": [
                    known[e] if isinstance(e, str) else e for e in entries
                ],
            }
        return super().from_dict(data)
