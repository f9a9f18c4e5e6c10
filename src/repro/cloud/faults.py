"""Fault injection for the simulated control planes.

Deployments in the paper's world "error out at the cloud level" (3.5);
this module decides when. Three mechanisms:

* probabilistic transient faults (throttle bursts, capacity errors,
  hangs) applied per operation class,
* scheduled faults targeted at specific resource types/names, for
  reproducible failure-handling tests, and
* sustained **outage windows** (:class:`OutageSpec`): a region or a
  whole provider goes dark (hard outage) or slow (brownout) for a span
  of simulated time. Outages hit *every* operation class -- list pages,
  log reads, and probes fail just like mutations do -- which is what
  makes them a different beast from point faults: retrying does not
  help until the window closes.
"""

from __future__ import annotations

import dataclasses
import random
import typing
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple

OUTAGE_MODES = ("hard", "brownout")
OP_CLASSES = ("", "read", "write")


class SpecValidationError(ValueError):
    """A declarative spec failed validation, constructed or loaded.

    The message always names the offending field so campaign files can
    be debugged without reading this module.
    """


def _describe(hint: Any) -> str:
    """How a validation message names the JSON type ``hint`` takes."""
    if hint is float:
        return "int or float"
    if isinstance(hint, type) and issubclass(hint, Spec):
        return "dict"
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return _describe(typing.get_args(hint)[0])
    return getattr(origin or hint, "__name__", str(hint))


def _decode(hint: Any, value: Any, where: str) -> Any:
    """``value`` as a field annotated ``hint`` holds it.

    Raises :class:`SpecValidationError` naming ``where`` when the value
    is not of the annotated type. ``bool`` never passes as a number,
    ``None`` passes only an ``Optional[...]`` annotation, and a
    ``float`` field stores an int as a float.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any or (origin is typing.Union and value is None):
        return value
    if origin is typing.Union:  # Optional[X]: the only union a spec declares
        return _decode(args[0], value, where)
    if origin is typing.Annotated:  # a decoder named beside the type
        return args[1](value)
    if isinstance(hint, type) and issubclass(hint, Spec):
        if isinstance(value, hint):
            return value
        if isinstance(value, Mapping):
            return hint.from_dict(value)
    elif origin is list:
        if isinstance(value, list):
            return [
                _decode(args[0], item, f"{where}[{i}]")
                for i, item in enumerate(value)
            ]
    elif origin is dict:
        if isinstance(value, Mapping):
            return {
                key: _decode(args[1], item, f"{where}[{key!r}]")
                for key, item in value.items()
            }
    # bool is an int subclass; reject True where a number is wanted
    elif isinstance(value, bool) == (hint is bool) and isinstance(
        value, (int, float) if hint is float else hint
    ):
        return float(value) if hint is float else value
    raise SpecValidationError(
        f"{where} must be {_describe(hint)}, got {value!r}"
    )


def _encode(value: Any) -> Any:
    """The JSON form of a field value."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


#: spec class -> {public field: (annotation, required)}, filled on first use
_SCHEMAS: Dict[type, Dict[str, Tuple[Any, bool]]] = {}


def _schema(cls: type) -> Dict[str, Tuple[Any, bool]]:
    schema = _SCHEMAS.get(cls)
    if schema is None:
        hints = typing.get_type_hints(cls, include_extras=True)
        schema = _SCHEMAS[cls] = {
            f.name: (
                hints[f.name],
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
            )
            for f in dataclasses.fields(cls)
            if not f.name.startswith("_")
        }
    return schema


class Spec:
    """A declarative value whose dataclass declaration is its schema.

    :meth:`to_dict` and :meth:`from_dict` read the public fields and
    their annotations: a field without a default is required, an
    ``Optional`` field may be ``null`` (and is left out when ``None``),
    and nested specs decode recursively. A ``ValueError`` from
    ``__post_init__`` is reported as a :class:`SpecValidationError`, so
    constructing a spec and loading one refuse the same values.
    """

    #: a tagged variant's name; when set, it leads :meth:`to_dict`
    kind: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind} if self.kind else {}
        for name in _schema(type(self)):
            value = getattr(self, name)
            if value is not None:
                out[name] = _encode(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        name = cls.__name__
        if not isinstance(data, Mapping):
            raise SpecValidationError(
                f"{name} payload must be a mapping, got {type(data).__name__}"
            )
        schema = _schema(cls)
        unknown = sorted(set(data) - set(schema))
        if unknown:
            raise SpecValidationError(
                f"{name}: unknown field(s) "
                f"{', '.join(repr(u) for u in unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for field, (hint, required) in schema.items():
            if field in data:
                kwargs[field] = _decode(hint, data[field], f"{name}.{field}")
            elif required:
                raise SpecValidationError(f"{name}.{field} is required")
        try:
            return cls(**kwargs)
        except SpecValidationError:
            raise
        except ValueError as exc:
            raise SpecValidationError(f"{name}: {exc}") from None

    def __eq__(self, other: Any) -> bool:
        return type(other) is type(self) and other.to_dict() == self.to_dict()


@dataclasses.dataclass
class FaultSpec(Spec):
    """One injected failure rule."""

    error_code: str
    message: str = ""  # "" = "<error_code> (injected)"
    match_type: str = ""  # resource type glob-ish match; "" = any
    match_operation: str = ""  # create/update/delete/read; "" = any
    probability: float = 1.0
    transient: bool = True  # transient faults succeed on retry
    max_strikes: int = 1  # how many times the rule may fire in total
    extra_delay_s: float = 0.0  # hang before failing (resource hanging)
    #: let this many matching operations through before arming -- e.g.
    #: fail the *third* page of a paginated scan, not the first
    skip_first: int = 0
    #: optional activity window on the simulated clock: the rule only
    #: fires while ``start_s <= now < end_s``. ``None`` bounds are open
    #: -- the historical always-armed behaviour. This is what lets a
    #: campaign express *time-scoped* point faults (an API version skew
    #: that heals when the provider rolls forward, a throttling storm
    #: with a known end) without bespoke harness code.
    start_s: Optional[float] = None
    end_s: Optional[float] = None
    _strikes: int = 0
    _seen: int = 0

    def __post_init__(self) -> None:
        if not self.message:
            self.message = f"{self.error_code} (injected)"
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.skip_first < 0:
            raise ValueError(
                f"skip_first must be >= 0, got {self.skip_first}"
            )
        if self.max_strikes < -1:
            raise ValueError(
                "max_strikes must be -1 (unlimited) or >= 0, "
                f"got {self.max_strikes}"
            )
        if (
            self.start_s is not None
            and self.end_s is not None
            and self.end_s <= self.start_s
        ):
            raise ValueError(
                f"fault window must be non-empty: "
                f"[{self.start_s}, {self.end_s})"
            )

    @property
    def exhausted(self) -> bool:
        """Has the rule fired its full strike budget?"""
        return self.max_strikes >= 0 and self._strikes >= self.max_strikes

    def active_at(self, now: Optional[float]) -> bool:
        """Is the rule's window open? ``now=None`` (callers that do not
        track time) keeps the historical always-armed behaviour."""
        if now is None:
            return True
        if self.start_s is not None and now < self.start_s:
            return False
        if self.end_s is not None and now >= self.end_s:
            return False
        return True

    def matches(self, rtype: str, operation: str) -> bool:
        """Does the rule's filter cover this operation? Pure -- all
        accounting (skip window, strikes) lives in
        :meth:`FaultInjector.check` so a match that loses the dice roll
        never consumes anything."""
        if self.exhausted:
            return False
        if self.match_type and self.match_type != rtype:
            return False
        if self.match_operation and self.match_operation != operation:
            return False
        return True

    def strike(self) -> None:
        self._strikes += 1


@dataclasses.dataclass
class OutageSpec(Spec):
    """A sustained unavailability window on the simulated clock.

    * ``region`` scopes the outage to one region; ``""`` takes down the
      whole provider (any region, plus region-less operations such as
      log reads).
    * ``match_type`` scopes to one resource type (e.g. only the VM
      service browns out); ``""`` hits every type.
    * ``mode="hard"``: every covered call fails fast with
      ``error_code`` (transient -- retrying *after* the window succeeds).
      ``mode="brownout"``: calls succeed but latency is multiplied by
      ``latency_multiplier``.

    Windows may overlap freely; hard outages dominate brownouts, and
    overlapping brownout multipliers compound.
    """

    start_s: float
    end_s: float
    region: str = ""
    match_type: str = ""
    mode: str = "hard"
    latency_multiplier: float = 5.0
    error_code: str = "ServiceUnavailable"
    message: str = ""
    #: how long a call into a dark partition takes to come back with the
    #: error -- real outages fail fast, not after provisioning latency
    error_latency_s: float = 2.0
    #: restrict the outage to one operation class: ``"write"`` models
    #: the classic *asymmetric partition* (mutations fail, reads and
    #: log tails keep working -- the control plane is read-only), and
    #: ``"read"`` the inverse. ``""`` (default) hits every class.
    op_class: str = ""

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"outage window must be non-empty: "
                f"[{self.start_s}, {self.end_s})"
            )
        if self.mode not in OUTAGE_MODES:
            raise ValueError(f"mode must be one of {OUTAGE_MODES}")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1.0")
        if self.op_class not in OP_CLASSES:
            raise ValueError(f"op_class must be one of {OP_CLASSES}")
        if not self.message:
            scope = self.region or "the service"
            self.message = (
                f"The service is temporarily unavailable in {scope}. "
                f"Please try again later."
            )

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def covers(self, rtype: str, region: str, op_class: str = "") -> bool:
        """Does this outage hit an operation on (rtype, region)?

        A region-scoped outage never covers a region-less operation
        (region ``""``) -- those only go down with the whole provider.
        An op-class-scoped outage only covers that class; callers that
        do not know their class (``op_class=""``) are covered by any.
        """
        if self.region and self.region != region:
            return False
        if self.match_type and self.match_type != rtype:
            return False
        if self.op_class and op_class and self.op_class != op_class:
            return False
        return True


@dataclasses.dataclass
class InjectedFault:
    """What the control plane should do for one doomed operation."""

    error_code: str
    message: str
    transient: bool
    extra_delay_s: float


class FaultInjector:
    """Holds fault rules and rolls the dice per operation."""

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)
        self.rules: List[FaultSpec] = []
        self.outages: List[OutageSpec] = []
        self.transient_rate: float = 0.0  # blanket transient failure rate
        self.fired: int = 0
        #: operations that hit an active hard outage -- the bench gates
        #: on this to prove breakers stop the retry storm
        self.outage_hits: int = 0

    def add_rule(self, rule: FaultSpec) -> None:
        self.rules.append(rule)

    def add_outage(self, outage: OutageSpec) -> None:
        self.outages.append(outage)

    def set_transient_rate(self, rate: float) -> None:
        """Blanket probability that any mutating call fails transiently."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("transient rate must be in [0, 1)")
        self.transient_rate = rate

    # -- outage queries ------------------------------------------------------

    def outage_at(
        self, now: float, rtype: str, region: str, op_class: str = ""
    ) -> Optional[OutageSpec]:
        """The active *hard* outage covering this operation, if any.

        Counts the hit: every call that lands in a dark window is one
        wasted API round-trip the resilience layer should have avoided.
        """
        for spec in self.outages:
            if (
                spec.mode == "hard"
                and spec.active_at(now)
                and spec.covers(rtype, region, op_class)
            ):
                self.outage_hits += 1
                self.fired += 1
                return spec
        return None

    def brownout_scale(self, now: float, rtype: str, region: str) -> float:
        """Compound latency multiplier from active brownouts."""
        scale = 1.0
        for spec in self.outages:
            if (
                spec.mode == "brownout"
                and spec.active_at(now)
                and spec.covers(rtype, region)
            ):
                scale *= spec.latency_multiplier
        return scale

    def is_dark(
        self, now: float, rtype: str, region: str, op_class: str = ""
    ) -> bool:
        """Pure query (no hit accounting): is (rtype, region) in an
        active hard outage right now?"""
        return any(
            spec.mode == "hard"
            and spec.active_at(now)
            and spec.covers(rtype, region, op_class)
            for spec in self.outages
        )

    def outage_horizon(self, now: float, region: str) -> Optional[float]:
        """When the last active *untyped* hard outage covering
        ``region`` ends, or None if the region is reachable.

        This is the provider's status page: type-scoped outages are a
        service degradation, not a dark region, and an op-class-scoped
        (asymmetric) partition still answers reads, so neither counts.
        """
        horizon: Optional[float] = None
        for spec in self.outages:
            if (
                spec.mode == "hard"
                and not spec.match_type
                and not spec.op_class
                and spec.active_at(now)
                and spec.region in ("", region)
            ):
                horizon = spec.end_s if horizon is None else max(horizon, spec.end_s)
        return horizon

    def unavailable_regions(self, now: float) -> Dict[str, float]:
        """Status page: dark scope -> when it is expected back.

        Keys are region names; a provider-wide outage appears under
        ``"*"``. Only untyped, class-blind hard outages count (see
        :meth:`outage_horizon`).
        """
        out: Dict[str, float] = {}
        for spec in self.outages:
            if (
                spec.mode != "hard"
                or spec.match_type
                or spec.op_class
                or not spec.active_at(now)
            ):
                continue
            key = spec.region or "*"
            out[key] = max(out.get(key, spec.end_s), spec.end_s)
        return out

    # -- the per-operation dice roll -----------------------------------------

    def check(
        self, rtype: str, operation: str, now: Optional[float] = None
    ) -> Optional[InjectedFault]:
        """Decide whether this operation fails, and how.

        Accounting invariants (regression-tested):

        * the skip window consumes exactly one slot per *matching*
          operation, before the dice are rolled;
        * a strike is consumed only when the rule actually fires -- a
          probability-gated rule that loses the roll stays armed;
        * a rule outside its time window neither fires nor consumes
          skip slots (the window opens later; the skip budget must
          still be intact when it does).
        """
        for rule in self.rules:
            if not rule.active_at(now):
                continue
            if not rule.matches(rtype, operation):
                continue
            if rule._seen < rule.skip_first:
                rule._seen += 1
                continue
            # strict <, matching transient_rate below: a probability-0
            # rule must never fire, even when the RNG returns exactly 0.0
            if self.rng.random() < rule.probability:
                rule.strike()
                self.fired += 1
                return InjectedFault(
                    error_code=rule.error_code,
                    message=rule.message,
                    transient=rule.transient,
                    extra_delay_s=rule.extra_delay_s,
                )
        if (
            self.transient_rate > 0.0
            and operation in ("create", "update", "delete")
            and self.rng.random() < self.transient_rate
        ):
            self.fired += 1
            return InjectedFault(
                error_code="InternalServerError",
                message="An internal error occurred. Please retry.",
                transient=True,
                extra_delay_s=0.0,
            )
        return None
