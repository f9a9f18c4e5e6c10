"""Simulated cloud control plane.

One :class:`ControlPlane` per provider: it owns the resource store, the
API rate limiters, the fault injector, and the activity log, and serves
its provider's table of :func:`~repro.cloud.resources.simulated_catalog`.
Every operation flows through :meth:`submit`, which returns a
:class:`PendingOperation` carrying the simulated completion time --
executors drive these as discrete events.

The control plane also enforces *cloud-level* constraints (same-region
rules, reference existence, CIDR overlap, quotas). When they fail, they
fail the way real clouds do: after provisioning latency, with an opaque
provider-style error message (the raw material for 3.5's debugger).
"""

from __future__ import annotations

import dataclasses
import hashlib
import ipaddress
import itertools
import random
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple
)

from .activitylog import ActivityLog
from .clock import SimClock
from .faults import FaultInjector
from .latency import DEFAULT_PROFILE, LatencyProfile
from .ratelimit import RateLimiterBank
from .resources import AttributeSpec, ResourceTypeSpec, simulated_catalog

READ_OPS = ("read", "list", "log")
WRITE_OPS = ("create", "update", "delete")

#: operation -> the :class:`ControlPlane` method that builds its
#: completion event
_BUILDERS = {
    "create": "_build_create",
    "update": "_build_update",
    "delete": "_build_delete",
    "read": "_build_read",
    "log": "_build_read",
    "list": "_build_list",
}

#: memoized CIDR parses -- provider overlap checks re-see the same
#: strings thousands of times at 10k-resource scale
_NETWORK_CACHE: Dict[Tuple[str, bool], Any] = {}
_NETWORK_CACHE_MAX = 8192


def parse_network(text: str, strict: bool = True) -> Any:
    """``ipaddress.ip_network`` with a process-wide parse cache.

    Networks are immutable, so sharing parses is safe; invalid inputs
    raise ``ValueError`` exactly like the underlying call (and are not
    cached).
    """
    key = (text, strict)
    net = _NETWORK_CACHE.get(key)
    if net is None:
        net = ipaddress.ip_network(text, strict=strict)
        if len(_NETWORK_CACHE) >= _NETWORK_CACHE_MAX:
            _NETWORK_CACHE.clear()
        _NETWORK_CACHE[key] = net
    return net


class CloudAPIError(Exception):
    """A provider API error -- code + human-oriented (opaque) message."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        http_status: int = 400,
        transient: bool = False,
        resource_type: str = "",
        operation: str = "",
        resource_id: str = "",
    ):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.http_status = http_status
        self.transient = transient
        self.resource_type = resource_type
        self.operation = operation
        self.resource_id = resource_id


@dataclasses.dataclass
class ResourceRecord:
    """One live resource in the provider's store."""

    id: str
    type: str
    region: str
    attrs: Dict[str, Any]
    created_at: float
    updated_at: float
    state: str = "active"  # active | deleting

    @classmethod
    def from_fields(cls, fields: Dict[str, Any], **changes: Any) -> "ResourceRecord":
        """The record with these ``fields`` and ``changes`` (every field
        without a default named, as a checked world section names them),
        built without binding them as keywords first."""
        record = object.__new__(cls)
        record.__dict__.update(fields, **changes)
        for name, default in _RECORD_DEFAULTS:
            record.__dict__.setdefault(name, default)
        return record

    @property
    def name(self) -> str:
        return str(self.attrs.get("name", self.id))

    def snapshot(self) -> Dict[str, Any]:
        """Attribute view as the API would return it (includes id)."""
        out = dict(self.attrs)
        out["id"] = self.id
        return out


#: the fields a record may be built without, and what they then hold
_RECORD_DEFAULTS = tuple(
    (field.name, field.default)
    for field in dataclasses.fields(ResourceRecord)
    if field.default is not dataclasses.MISSING
)


_EMPTY_IDS: FrozenSet[str] = frozenset()


def _any_type(value: Any) -> bool:
    return True


#: attribute-type validators, hoisted out of the per-create loop
_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "list": lambda v: isinstance(v, list),
    "map": lambda v: isinstance(v, dict),
}


class RecordStore(Dict[str, ResourceRecord]):
    """The provider's resource store, with secondary indexes.

    Behaves as a plain ``id -> ResourceRecord`` dict for every existing
    caller (persistence round-trips write into it directly), while
    keeping three indexes in lockstep with mutations:

    * ``ids_by_type`` -- resource ids per resource type, so provider
      constraint checks (CIDR overlap, peering) scan only same-type
      records instead of the whole estate;
    * per ``(type, region)`` counts for O(1) quota checks;
    * per ``(type, region, name)`` counts for O(1) name-uniqueness
      checks.

    Together these turn per-create validation from O(records) into
    O(1) -- the difference between quadratic and linear applies at
    10k-resource scale (see ``docs/performance.md``).

    The indexes key off ``record.type``, ``record.region`` and
    ``record.attrs["name"]``. Code that mutates a stored record's name
    in place must call :meth:`note_renamed` with the previous name
    (the two in-place mutation sites live in this module); type and
    region are never mutated.
    """

    #: attribute names that act as parent links (subnet -> network
    #: container); records carrying one are indexed by
    #: ``(type, attr, value)`` so sibling scans (CIDR overlap checks)
    #: touch only records under the same parent instead of every record
    #: of the type.
    LINK_ATTRS: Tuple[str, ...] = ("vpc_id", "vnet_id")

    def __init__(self) -> None:
        super().__init__()
        self.ids_by_type: Dict[str, Set[str]] = {}
        self._region_counts: Dict[Tuple[str, str], int] = {}
        self._name_counts: Dict[Tuple[str, str, str], int] = {}
        self._link_ids: Dict[Tuple[str, str, str], Set[str]] = {}

    # -- index maintenance -------------------------------------------------

    def _index_add(self, record: ResourceRecord) -> None:
        self.ids_by_type.setdefault(record.type, set()).add(record.id)
        tr = (record.type, record.region)
        self._region_counts[tr] = self._region_counts.get(tr, 0) + 1
        name = record.attrs.get("name")
        if isinstance(name, str):
            key = (record.type, record.region, name)
            self._name_counts[key] = self._name_counts.get(key, 0) + 1
        for attr in self.LINK_ATTRS:
            value = record.attrs.get(attr)
            if isinstance(value, str):
                self._link_ids.setdefault(
                    (record.type, attr, value), set()
                ).add(record.id)

    def _index_remove(self, record: ResourceRecord) -> None:
        ids = self.ids_by_type.get(record.type)
        if ids is not None:
            ids.discard(record.id)
            if not ids:
                del self.ids_by_type[record.type]
        tr = (record.type, record.region)
        left = self._region_counts.get(tr, 0) - 1
        if left > 0:
            self._region_counts[tr] = left
        else:
            self._region_counts.pop(tr, None)
        name = record.attrs.get("name")
        if isinstance(name, str):
            self._discard_name(record.type, record.region, name)
        for attr in self.LINK_ATTRS:
            value = record.attrs.get(attr)
            if isinstance(value, str):
                bucket = self._link_ids.get((record.type, attr, value))
                if bucket is not None:
                    bucket.discard(record.id)
                    if not bucket:
                        del self._link_ids[(record.type, attr, value)]

    def _discard_name(self, rtype: str, region: str, name: str) -> None:
        key = (rtype, region, name)
        left = self._name_counts.get(key, 0) - 1
        if left > 0:
            self._name_counts[key] = left
        else:
            self._name_counts.pop(key, None)

    # -- dict overrides (every mutation path maintains the indexes) --------

    def __setitem__(self, key: str, record: ResourceRecord) -> None:
        old = super().get(key)
        if old is not None:
            self._index_remove(old)
        super().__setitem__(key, record)
        self._index_add(record)

    def __delitem__(self, key: str) -> None:
        record = super().__getitem__(key)
        super().__delitem__(key)
        self._index_remove(record)

    def pop(self, key: str, *default: Any) -> Any:
        if key in self:
            record = super().__getitem__(key)
            super().__delitem__(key)
            self._index_remove(record)
            return record
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self) -> Tuple[str, ResourceRecord]:
        key, record = super().popitem()
        self._index_remove(record)
        return key, record

    def clear(self) -> None:
        super().clear()
        self.ids_by_type.clear()
        self._region_counts.clear()
        self._name_counts.clear()
        self._link_ids.clear()

    def update(self, *args: Any, **kwargs: Any) -> None:  # type: ignore[override]
        for key, record in dict(*args, **kwargs).items():
            self[key] = record

    def setdefault(
        self, key: str, default: Optional[ResourceRecord] = None
    ) -> Any:
        if key not in self:
            self[key] = default  # type: ignore[assignment]
        return super().__getitem__(key)

    # -- indexed queries ---------------------------------------------------

    def has_name(self, rtype: str, region: str, name: str) -> bool:
        """Any live record of ``rtype`` named ``name`` in ``region``?"""
        return (rtype, region, name) in self._name_counts

    def count_in_region(self, rtype: str, region: str) -> int:
        return self._region_counts.get((rtype, region), 0)

    def ids_of_type(self, rtype: str) -> FrozenSet[str]:
        """Read-only view of the ids of every record of ``rtype``."""
        return self.ids_by_type.get(rtype, _EMPTY_IDS)  # type: ignore[return-value]

    def ids_linked(self, rtype: str, attr: str, value: str) -> FrozenSet[str]:
        """Ids of ``rtype`` records whose link ``attr`` equals ``value``.

        ``attr`` must be one of :attr:`LINK_ATTRS` (indexed at insert).
        """
        return self._link_ids.get((rtype, attr, value), _EMPTY_IDS)  # type: ignore[return-value]

    def note_renamed(self, record: ResourceRecord, old_name: Any) -> None:
        """Re-index after an in-place ``record.attrs`` name change."""
        new_name = record.attrs.get("name")
        if old_name == new_name:
            return
        if isinstance(old_name, str):
            self._discard_name(record.type, record.region, old_name)
        if isinstance(new_name, str):
            key = (record.type, record.region, new_name)
            self._name_counts[key] = self._name_counts.get(key, 0) + 1


@dataclasses.dataclass
class PendingOperation:
    """An in-flight API operation in simulated time."""

    operation: str
    resource_type: str
    t_submit: float
    t_start: float  # after rate limiting
    t_complete: float  # when the result becomes visible
    _resolve: Callable[[], Any] = lambda: None
    resolved: bool = False
    result: Any = None
    error: Optional[CloudAPIError] = None

    @property
    def duration(self) -> float:
        return self.t_complete - self.t_submit

    def resolve(self) -> Any:
        """Apply the operation's effect; call once clock >= t_complete."""
        if self.resolved:
            if self.error is not None:
                raise self.error
            return self.result
        self.resolved = True
        try:
            self.result = self._resolve()
        except CloudAPIError as exc:
            self.error = exc
            raise
        return self.result


class ControlPlane:
    """The management plane of one simulated provider."""

    #: provider name; subclasses override
    provider = "generic"
    #: page size for list() calls -- what makes full scans expensive
    list_page_size = 25
    #: operation class -> (tokens per second, burst) of its API bucket;
    #: subclasses set it
    rate_limits: Dict[str, Tuple[float, int]]

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        seed: int = 0,
        regions: Optional[List[str]] = None,
    ):
        self.clock = clock or SimClock()
        self.seed = seed
        self.rng = random.Random(seed)
        #: the provider's table of the one catalog: read-only, shared by
        #: every plane of the process
        self.specs: Mapping[str, ResourceTypeSpec] = simulated_catalog().specs[
            self.provider
        ]
        self.limiter = RateLimiterBank(self.rate_limits)
        self.faults = FaultInjector(random.Random(seed + 1))
        self.log = ActivityLog(self.provider)
        self.records: RecordStore = RecordStore()
        self.regions = regions or ["region-1"]
        self.quotas: Dict[Tuple[str, str], int] = {}  # (rtype, region) -> max
        self._next_id = 1
        #: (rtype, region, name) -> next generation for identity-keyed
        #: id minting; delete/recreate of the same identity bumps the
        #: generation so the recreate gets a fresh id
        self._id_gens: Dict[Tuple[str, str, str], int] = {}
        self.api_calls: Dict[str, int] = {"read": 0, "write": 0}
        #: API calls this plane served in this process: unlike
        #: ``api_calls``, never persisted and never deferred, so counting
        #: them does not replay a plane nobody called
        self.calls_served = 0
        #: idempotency-token index: token -> minted resource id. A create
        #: retried with the same token returns the original resource
        #: instead of provisioning a duplicate (ClientToken semantics).
        self._tokens: Dict[str, str] = {}
        #: write operations submitted but not yet resolved by a client.
        #: The cloud side finishes these even if the client dies --
        #: ``CloudGateway.settle_inflight`` models that by resolving
        #: every survivor.
        self._inflight: List[PendingOperation] = []
        #: brownout latency multiplier for the operation currently being
        #: built (set around the builder call in ``submit``)
        self._latency_scale = 1.0
        #: memoized identity-keyed latency draws (pure in their key)
        self._latency_samples: Dict[Tuple[str, str, str], float] = {}

    # -- deferred restore ------------------------------------------------

    def defer(
        self, names: Iterable[str], replay: Callable[["ControlPlane"], None]
    ) -> None:
        """Hold the attributes ``names`` back until one is first read;
        ``replay`` then runs on the freshly constructed ones. A verb that
        never asks never pays for it. A replay that raises must have
        landed nothing: the plane is left deferred, and the next read
        replays (and raises) again."""
        fresh = {name: self.__dict__.pop(name) for name in names}
        self.__dict__["_deferred"] = (fresh, replay)

    @property
    def deferred(self) -> bool:
        """Not read since :meth:`defer`."""
        return "_deferred" in self.__dict__

    def __getattr__(self, name: str) -> Any:
        # reached only for what the instance lacks: on a deferred
        # plane, the held-back attributes until the first read
        deferred = self.__dict__.get("_deferred")
        if deferred is not None and name in deferred[0]:
            del self.__dict__["_deferred"]
            fresh, replay = deferred
            self.__dict__.update(fresh)
            try:
                replay(self)
            except BaseException:
                for held in fresh:
                    del self.__dict__[held]
                self.__dict__["_deferred"] = deferred
                raise
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- subclass hooks ------------------------------------------------------

    def validate_create(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        """Provider-specific create-time constraints (raise CloudAPIError)."""

    def validate_update(
        self,
        spec: ResourceTypeSpec,
        record: ResourceRecord,
        new_attrs: Dict[str, Any],
    ) -> None:
        """Provider-specific update-time constraints."""

    # -- catalog ------------------------------------------------------------

    def latency_profile(self, rtype: str) -> LatencyProfile:
        """``rtype``'s latency profile; :data:`DEFAULT_PROFILE` for a
        type this plane does not serve."""
        spec = self.specs.get(rtype)
        return DEFAULT_PROFILE if spec is None else spec.latency

    def spec_for(self, rtype: str) -> ResourceTypeSpec:
        spec = self.specs.get(rtype)
        if spec is None:
            raise CloudAPIError(
                "UnknownResourceType",
                f"The resource type '{rtype}' is not supported by {self.provider}.",
                http_status=404,
                resource_type=rtype,
            )
        return spec

    def set_quota(self, rtype: str, region: str, limit: int) -> None:
        self.quotas[(rtype, region)] = limit

    # -- public operation API -------------------------------------------------

    def submit(
        self,
        operation: str,
        rtype: str = "",
        *,
        resource_id: str = "",
        attrs: Optional[Dict[str, Any]] = None,
        region: str = "",
        actor: str = "iac",
        t_submit: Optional[float] = None,
        idempotency_token: str = "",
    ) -> PendingOperation:
        """Enqueue one API call; returns its completion event."""
        now = self.clock.now if t_submit is None else t_submit
        op_class = "read" if operation in READ_OPS else "write"
        self.api_calls[op_class] += 1
        self.calls_served += 1
        t_start = self.limiter.consume(op_class, now)
        spec = self.spec_for(rtype) if rtype else None

        # where does this call land? explicit region kwarg, else the
        # targeted record's home region, else "" (a region-less call --
        # log reads, token probes -- only a provider-wide outage hits it)
        op_region = region
        if not op_region and resource_id:
            targeted = self.records.get(resource_id)
            if targeted is not None:
                op_region = targeted.region

        # sustained outages dominate point faults: a dark partition
        # rejects *every* operation class fast, and brownouts stretch
        # whatever latency the operation would otherwise have had
        outage = self.faults.outage_at(now, rtype, op_region, op_class)
        if outage is not None:
            t_complete = t_start + outage.error_latency_s
            outage_error = CloudAPIError(
                outage.error_code,
                outage.message,
                http_status=503,
                transient=True,
                resource_type=rtype,
                operation=operation,
            )

            def unavailable() -> Any:
                raise outage_error

            return self._track(
                PendingOperation(
                    operation, rtype, now, t_start, t_complete, unavailable
                )
            )
        self._latency_scale = self.faults.brownout_scale(now, rtype, op_region)
        try:
            # scheduled fault rules may target any operation class (a list
            # page mid-scan, a log read); the blanket transient_rate still
            # only hits mutating calls (see FaultInjector.check)
            fault = self.faults.check(rtype, operation, now=now)
            if fault is not None:
                t_complete = (
                    t_start
                    + self._sample_latency(rtype, operation, resource_id or "fault")
                    + fault.extra_delay_s
                )
                error = CloudAPIError(
                    fault.error_code,
                    fault.message,
                    http_status=500 if fault.transient else 400,
                    transient=fault.transient,
                    resource_type=rtype,
                    operation=operation,
                )

                def fail() -> Any:
                    raise error

                return self._track(
                    PendingOperation(operation, rtype, now, t_start, t_complete, fail)
                )

            builder = _BUILDERS.get(operation)
            if builder is None:
                raise ValueError(f"unknown operation {operation!r}")
            return self._track(
                getattr(self, builder)(
                    spec,
                    now,
                    t_start,
                    resource_id=resource_id,
                    attrs=attrs or {},
                    region=region,
                    actor=actor,
                    token=idempotency_token,
                )
            )
        finally:
            self._latency_scale = 1.0

    def _track(self, pending: PendingOperation) -> PendingOperation:
        """Register a write op as in flight until resolved or settled."""
        if pending.operation in WRITE_OPS:
            if len(self._inflight) > 512:
                self._inflight = [p for p in self._inflight if not p.resolved]
            self._inflight.append(pending)
        return pending

    def execute(self, operation: str, rtype: str = "", **kwargs: Any) -> Any:
        """Synchronous convenience: submit, advance the clock, resolve."""
        pending = self.submit(operation, rtype, **kwargs)
        self.clock.advance_to(pending.t_complete)
        return pending.resolve()

    # -- operation builders ---------------------------------------------------

    def _finish_time(
        self, rtype: str, operation: str, t_start: float, key: str = ""
    ) -> float:
        return t_start + self._sample_latency(rtype, operation, key)

    def _sample_latency(self, rtype: str, operation: str, key: str) -> float:
        """Latency draw keyed by operation *identity*, not call order.

        Two executors running the same plan therefore see identical
        per-resource latencies -- scheduling comparisons measure
        scheduling, never RNG stream divergence. Identity-keyed also
        means the draw is a pure function of its key, so it is memoized:
        seeding a fresh ``Random`` per operation (SHA-512 over the key
        string) is a measurable slice of large applies.
        """
        cache_key = (rtype, operation, key)
        sample = self._latency_samples.get(cache_key)
        if sample is None:
            rng = random.Random(
                f"{self.provider}|{rtype}|{operation}|{key}|{self.seed}"
            )
            sample = self.latency_profile(rtype).sample(operation, rng)
            self._latency_samples[cache_key] = sample
        return sample * self._latency_scale

    def _build_create(
        self,
        spec: ResourceTypeSpec,
        t_submit: float,
        t_start: float,
        *,
        resource_id: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str,
        token: str = "",
    ) -> PendingOperation:
        t_complete = self._finish_time(
            spec.name, "create", t_start, key=str(attrs.get("name", ""))
        )

        def apply() -> Dict[str, Any]:
            if token:
                # ClientToken semantics: a create retried with the same
                # token is the *same* logical request -- return the
                # original resource instead of provisioning a duplicate
                prior_id = self._tokens.get(token)
                if prior_id is not None:
                    prior = self.records.get(prior_id)
                    if prior is not None:
                        return prior.snapshot()
            self._check_create(spec, attrs, region)
            new_id = self._mint_id(spec, region, str(attrs.get("name", "")))
            full_attrs = self._attrs_with_defaults(spec, attrs)
            full_attrs.update(self._computed_attrs(spec, new_id, region))
            record = ResourceRecord(
                id=new_id,
                type=spec.name,
                region=region,
                attrs=full_attrs,
                created_at=t_complete,
                updated_at=t_complete,
            )
            self.records[new_id] = record
            if token:
                self._tokens[token] = new_id
            self.log.append(
                t_complete,
                "create",
                spec.name,
                new_id,
                record.name,
                region,
                actor,
                tuple(sorted(attrs)),
            )
            return record.snapshot()

        return PendingOperation("create", spec.name, t_submit, t_start, t_complete, apply)

    def _build_update(
        self,
        spec: ResourceTypeSpec,
        t_submit: float,
        t_start: float,
        *,
        resource_id: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str,
        token: str = "",
    ) -> PendingOperation:
        t_complete = self._finish_time(spec.name, "update", t_start, key=resource_id)

        def apply() -> Dict[str, Any]:
            record = self._get_record(spec.name, resource_id, "update")
            for name in attrs:
                if name in spec.immutable_attrs:
                    raise CloudAPIError(
                        "InvalidParameterCombination",
                        f"The property '{name}' cannot be changed after "
                        f"the resource is created.",
                        resource_type=spec.name,
                        operation="update",
                        resource_id=resource_id,
                    )
            self._check_attr_types(spec, attrs, partial=True)
            self._check_references(spec, attrs, record.region)
            self.validate_update(spec, record, attrs)
            old_name = record.attrs.get("name")
            record.attrs.update(attrs)
            self.records.note_renamed(record, old_name)
            record.updated_at = t_complete
            self.log.append(
                t_complete,
                "update",
                spec.name,
                record.id,
                record.name,
                record.region,
                actor,
                tuple(sorted(attrs)),
            )
            return record.snapshot()

        return PendingOperation("update", spec.name, t_submit, t_start, t_complete, apply)

    def _build_delete(
        self,
        spec: ResourceTypeSpec,
        t_submit: float,
        t_start: float,
        *,
        resource_id: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str,
        token: str = "",
    ) -> PendingOperation:
        t_complete = self._finish_time(spec.name, "delete", t_start, key=resource_id)

        def apply() -> Dict[str, Any]:
            record = self._get_record(spec.name, resource_id, "delete")
            dependents = self._dependents_of(resource_id)
            if dependents:
                raise CloudAPIError(
                    "DependencyViolation",
                    f"The resource {resource_id} has dependent resources "
                    f"({', '.join(sorted(dependents)[:3])}) and cannot be deleted.",
                    http_status=409,
                    resource_type=spec.name,
                    operation="delete",
                    resource_id=resource_id,
                )
            del self.records[resource_id]
            self.log.append(
                t_complete,
                "delete",
                spec.name,
                record.id,
                record.name,
                record.region,
                actor,
            )
            return record.snapshot()

        return PendingOperation("delete", spec.name, t_submit, t_start, t_complete, apply)

    def _build_read(
        self,
        spec: Optional[ResourceTypeSpec],
        t_submit: float,
        t_start: float,
        *,
        resource_id: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str,
        token: str = "",
    ) -> PendingOperation:
        rtype = spec.name if spec else ""
        t_complete = t_start + self._sample_latency(rtype or "_read", "read", resource_id)

        def apply() -> Optional[Dict[str, Any]]:
            record = self.records.get(resource_id)
            if record is None or (rtype and record.type != rtype):
                return None
            return record.snapshot()

        return PendingOperation("read", rtype, t_submit, t_start, t_complete, apply)

    def _build_list(
        self,
        spec: Optional[ResourceTypeSpec],
        t_submit: float,
        t_start: float,
        *,
        resource_id: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str,
        token: str = "",
    ) -> PendingOperation:
        rtype = spec.name if spec else ""
        page_token = attrs.get("page_token", 0)
        t_complete = t_start + self._sample_latency(
            rtype or "_read", "list", str(page_token)
        )

        def apply() -> Dict[str, Any]:
            # records in a dark region vanish from cross-region scans --
            # exactly the phantom-delete trap a naive drift scanner
            # falls into; outage-aware callers check the status page
            now = self.clock.now
            matches = sorted(
                (
                    r
                    for r in self.records.values()
                    if (not rtype or r.type == rtype)
                    and (not region or r.region == region)
                    and not self.faults.is_dark(now, r.type, r.region, "read")
                ),
                key=lambda r: r.id,
            )
            start = int(page_token)
            page = matches[start : start + self.list_page_size]
            next_token = (
                start + self.list_page_size
                if start + self.list_page_size < len(matches)
                else None
            )
            return {
                "items": [r.snapshot() for r in page],
                "types": [r.type for r in page],
                "regions": [r.region for r in page],
                "next_token": next_token,
            }

        return PendingOperation("list", rtype, t_submit, t_start, t_complete, apply)

    # -- data sources -------------------------------------------------------

    def read_data(
        self, rtype: str, attrs: Dict[str, Any], region: str = ""
    ) -> Dict[str, Any]:
        """Resolve a data-source query (used by ``data`` blocks).

        Built-in pseudo sources (``<provider>_region``,
        ``<provider>_availability_zones``, ``<provider>_image``) answer
        from provider metadata; any catalog type is looked up by name.
        """
        region = region or self.regions[0]
        short = rtype.split("_", 1)[-1] if "_" in rtype else rtype
        if short in ("region", "location"):
            return {"name": region, "id": region}
        if short in ("availability_zones", "zones"):
            return {
                "names": [f"{region}-{z}" for z in ("a", "b", "c")],
                "id": region,
            }
        if short == "image":
            family = str(attrs.get("family", "linux"))
            return {"id": f"img-{family}-latest", "family": family}
        if rtype in self.specs:
            name = attrs.get("name")
            if not isinstance(name, str):
                raise CloudAPIError(
                    "MissingParameter",
                    f"Data lookup for '{rtype}' requires 'name'.",
                    resource_type=rtype,
                    operation="read",
                )
            record = self.find_by_name(rtype, name)
            if record is None:
                raise CloudAPIError(
                    "ResourceNotFound",
                    f"No '{rtype}' named '{name}' was found.",
                    http_status=404,
                    resource_type=rtype,
                    operation="read",
                )
            return record.snapshot()
        raise CloudAPIError(
            "UnknownResourceType",
            f"The data source '{rtype}' is not supported by {self.provider}.",
            http_status=404,
            resource_type=rtype,
            operation="read",
        )

    # -- out-of-band (non-IaC) mutations -- instant, for drift experiments ----

    def external_update(
        self, resource_id: str, attrs: Dict[str, Any], actor: str = "legacy-script"
    ) -> None:
        """A change performed outside the IaC framework ("ClickOps")."""
        record = self.records.get(resource_id)
        if record is None:
            raise CloudAPIError(
                "ResourceNotFound", f"{resource_id} does not exist", http_status=404
            )
        old_name = record.attrs.get("name")
        record.attrs.update(attrs)
        self.records.note_renamed(record, old_name)
        record.updated_at = self.clock.now
        self.log.append(
            self.clock.now,
            "update",
            record.type,
            record.id,
            record.name,
            record.region,
            actor,
            tuple(sorted(attrs)),
        )

    def external_delete(self, resource_id: str, actor: str = "legacy-script") -> None:
        record = self.records.get(resource_id)
        if record is None:
            raise CloudAPIError(
                "ResourceNotFound", f"{resource_id} does not exist", http_status=404
            )
        del self.records[resource_id]
        self.log.append(
            self.clock.now,
            "delete",
            record.type,
            record.id,
            record.name,
            record.region,
            actor,
        )

    def external_create(
        self,
        rtype: str,
        attrs: Dict[str, Any],
        region: str,
        actor: str = "legacy-script",
    ) -> str:
        spec = self.spec_for(rtype)
        new_id = self._mint_id(spec, region, str(attrs.get("name", "")))
        full_attrs = self._attrs_with_defaults(spec, attrs)
        full_attrs.update(self._computed_attrs(spec, new_id, region))
        self.records[new_id] = ResourceRecord(
            id=new_id,
            type=rtype,
            region=region,
            attrs=full_attrs,
            created_at=self.clock.now,
            updated_at=self.clock.now,
        )
        self.log.append(
            self.clock.now,
            "create",
            rtype,
            new_id,
            str(full_attrs.get("name", new_id)),
            region,
            actor,
            tuple(sorted(attrs)),
        )
        return new_id

    # -- shared validation --------------------------------------------------

    def _check_create(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        if region not in self.regions:
            raise CloudAPIError(
                "InvalidLocation",
                f"The location '{region}' is not available for subscription.",
                resource_type=spec.name,
                operation="create",
            )
        for attr in spec.required_attrs():
            if attr.computed:
                continue
            if attrs.get(attr.name) is None:
                raise CloudAPIError(
                    "MissingParameter",
                    f"The request is missing the required parameter "
                    f"'{attr.name}'.",
                    resource_type=spec.name,
                    operation="create",
                )
        self._check_attr_types(spec, attrs, partial=False)
        self._check_references(spec, attrs, region)
        self._check_quota(spec, region)
        self._check_name_unique(spec, attrs, region)
        self.validate_create(spec, attrs, region)

    def _check_attr_types(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], partial: bool
    ) -> None:
        for name, value in attrs.items():
            aspec = spec.attr(name)
            if aspec is None:
                raise CloudAPIError(
                    "InvalidParameter",
                    f"Unknown property '{name}' for resource type "
                    f"'{spec.name}'.",
                    resource_type=spec.name,
                )
            if aspec.computed:
                raise CloudAPIError(
                    "InvalidParameter",
                    f"The property '{name}' is read-only.",
                    resource_type=spec.name,
                )
            if value is None:
                continue
            ok = _TYPE_CHECKS.get(aspec.base_type, _any_type)
            if not ok(value):
                raise CloudAPIError(
                    "InvalidParameterValue",
                    f"Value for '{name}' has the wrong type "
                    f"(expected {aspec.type}).",
                    resource_type=spec.name,
                )
            enum = aspec.enum_values
            if enum and isinstance(value, str) and value not in enum:
                raise CloudAPIError(
                    "InvalidParameterValue",
                    f"'{value}' is not a valid value for '{name}'.",
                    resource_type=spec.name,
                )

    def _check_references(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        for aspec in spec.reference_attrs():
            value = attrs.get(aspec.name)
            if value is None:
                continue
            targets = value if aspec.is_ref_list else [value]
            for target_id in targets:
                if not isinstance(target_id, str):
                    raise CloudAPIError(
                        "InvalidParameterValue",
                        f"Value for '{aspec.name}' must be a resource id.",
                        resource_type=spec.name,
                    )
                record = self.records.get(target_id)
                if record is None:
                    raise CloudAPIError(
                        self._not_found_code(aspec.ref_target or ""),
                        self._not_found_message(aspec.ref_target or "", target_id),
                        http_status=404,
                        resource_type=spec.name,
                    )
                if aspec.ref_target and record.type != aspec.ref_target:
                    # the classic leaky-abstraction error: right-looking
                    # string, wrong resource kind (paper 3.2)
                    raise CloudAPIError(
                        self._not_found_code(aspec.ref_target),
                        self._not_found_message(aspec.ref_target, target_id),
                        http_status=404,
                        resource_type=spec.name,
                    )

    def _check_quota(self, spec: ResourceTypeSpec, region: str) -> None:
        limit = self.quotas.get((spec.name, region))
        if limit is None:
            return
        current = self.records.count_in_region(spec.name, region)
        if current >= limit:
            raise CloudAPIError(
                "QuotaExceeded",
                f"Operation could not be completed as it results in exceeding "
                f"approved quota for '{spec.name}' in '{region}' "
                f"(limit: {limit}).",
                http_status=429,
                resource_type=spec.name,
                operation="create",
            )

    def _check_name_unique(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        name = attrs.get("name")
        if not isinstance(name, str):
            return
        if self.records.has_name(spec.name, region, name):
            raise CloudAPIError(
                "Conflict",
                f"A resource named '{name}' already exists in '{region}'.",
                http_status=409,
                resource_type=spec.name,
                operation="create",
            )

    # -- helpers ----------------------------------------------------------------

    def _get_record(
        self, rtype: str, resource_id: str, operation: str
    ) -> ResourceRecord:
        record = self.records.get(resource_id)
        if record is None or (rtype and record.type != rtype):
            raise CloudAPIError(
                "ResourceNotFound",
                f"The resource '{resource_id}' was not found.",
                http_status=404,
                resource_type=rtype,
                operation=operation,
                resource_id=resource_id,
            )
        return record

    def _not_found_code(self, ref_type: str) -> str:
        return "ResourceNotFound"

    def _not_found_message(self, ref_type: str, target_id: str) -> str:
        return f"The referenced resource '{target_id}' was not found."

    def _mint_id(
        self, spec: ResourceTypeSpec, region: str = "", name: str = ""
    ) -> str:
        """Mint a resource id keyed by *identity*, not call order.

        The historical counter id (``vm-00000007``) depends on how many
        creates this plane has already resolved, so two schedules of the
        same plan -- sequential vs critical-path, say -- minted
        different ids and every dependent attribute diverged with them. Keying the id on (type, region, name, generation)
        makes it a pure function of what is being created; the
        generation counter keeps a delete/recreate of the same identity
        from colliding. Unnamed resources keep the sequential fallback.
        """
        if name:
            gen_key = (spec.name, region, name)
            gen = self._id_gens.get(gen_key, 0)
            self._id_gens[gen_key] = gen + 1
            digest = hashlib.sha256(
                f"{self.provider}|{spec.name}|{region}|{name}|{gen}|"
                f"{self.seed}".encode()
            ).hexdigest()[:16]
            return f"{spec.id_prefix}{digest}"
        minted = f"{spec.id_prefix}{self._next_id:08x}"
        self._next_id += 1
        return minted

    def _attrs_with_defaults(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any]
    ) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, default in spec.settable_defaults():
            value = attrs.get(name)
            if value is not None:
                out[name] = value
            elif default is not None:
                out[name] = default
        return out

    def _computed_attrs(
        self, spec: ResourceTypeSpec, new_id: str, region: str
    ) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for aspec in spec.computed_attrs():
            if aspec.name == "id":
                out["id"] = new_id
            elif aspec.name in ("arn", "resource_uri"):
                out[aspec.name] = f"arn:{self.provider}:{region}:{new_id}"
            elif "ip" in aspec.name:
                # identity-keyed draw (not self.rng): the address is a
                # pure function of the resource id, so every schedule
                # of the same plan computes the same value
                ip_rng = random.Random(
                    f"{self.provider}|{new_id}|{aspec.name}|{self.seed}"
                )
                out[aspec.name] = (
                    f"10.{ip_rng.randint(0, 255)}."
                    f"{ip_rng.randint(0, 255)}.{ip_rng.randint(1, 254)}"
                )
            elif aspec.name == "fqdn" or "dns" in aspec.name:
                out[aspec.name] = f"{new_id}.{region}.{self.provider}.sim"
            else:
                out[aspec.name] = f"{aspec.name}-{new_id}"
        return out

    def _dependents_of(self, resource_id: str) -> List[str]:
        """Live resources holding a reference to ``resource_id``."""
        out = []
        for record in self.records.values():
            spec = self.specs.get(record.type)
            if spec is None:
                continue
            for aspec in spec.reference_attrs():
                value = record.attrs.get(aspec.name)
                targets = value if isinstance(value, list) else [value]
                if resource_id in [t for t in targets if t]:
                    out.append(record.id)
        return out

    # -- status page ---------------------------------------------------------

    def unavailable_regions(self, now: Optional[float] = None) -> Dict[str, float]:
        """The provider's status page: dark region -> expected recovery
        time (``"*"`` = the whole provider). Empty when healthy."""
        return self.faults.unavailable_regions(
            self.clock.now if now is None else now
        )

    def outage_horizon(
        self, region: str, now: Optional[float] = None
    ) -> Optional[float]:
        """When ``region`` is expected back, or None if reachable now."""
        return self.faults.outage_horizon(
            self.clock.now if now is None else now, region
        )

    # -- introspection -----------------------------------------------------------

    def count(self, rtype: str = "", region: str = "") -> int:
        if rtype and region:
            return self.records.count_in_region(rtype, region)
        if rtype:
            return len(self.records.ids_of_type(rtype))
        if region:
            return sum(1 for r in self.records.values() if r.region == region)
        return len(self.records)

    def find_by_name(self, rtype: str, name: str) -> Optional[ResourceRecord]:
        for record in self.records.values():
            if record.type == rtype and record.attrs.get("name") == name:
                return record
        return None

    def find_by_token(self, token: str) -> Optional[ResourceRecord]:
        """The live resource a create with ``token`` minted, if any."""
        rid = self._tokens.get(token)
        if rid is None:
            return None
        return self.records.get(rid)

    def total_api_calls(self) -> int:
        return sum(self.api_calls.values())
