"""Resource type specifications for the simulated clouds.

A :class:`ResourceTypeSpec` is the *cloud-level* schema of one resource
type: attribute names/types, which attributes the cloud computes, which
reference other resources (and of what type -- the semantic information
the paper says IaC-level "stringly" types throw away, 3.2), and the
provisioning latency profile.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from .latency import LatencyProfile


@dataclasses.dataclass(frozen=True)
class AttributeSpec:
    """Schema of one attribute of a resource type.

    ``semantic`` carries the machine-readable meaning of the value:

    * ``ref:<type>`` / ``ref_list:<type>`` -- id of another resource
    * ``cidr`` / ``cidr_list`` -- network prefixes
    * ``region`` -- a provider region name
    * ``enum:a|b|c`` -- closed vocabulary
    * ``password`` -- secret material
    * ``""`` -- plain value
    """

    name: str
    type: str = "string"
    required: bool = False
    computed: bool = False
    default: Any = None
    semantic: str = ""
    forces_replacement: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        # decode ``semantic`` once; these are read on every simulated
        # API call, and startswith/split per read shows up at estate
        # scale (frozen dataclass, hence object.__setattr__)
        sem = self.semantic
        if sem.startswith("ref:"):
            target: Optional[str] = sem[4:]
        elif sem.startswith("ref_list:"):
            target = sem[9:]
        else:
            target = None
        object.__setattr__(self, "_ref_target", target)
        object.__setattr__(self, "_is_ref_list", sem.startswith("ref_list:"))
        object.__setattr__(
            self,
            "_enum_values",
            sem[5:].split("|") if sem.startswith("enum:") else None,
        )
        object.__setattr__(self, "_base_type", self.type.split("(")[0])

    @property
    def ref_target(self) -> Optional[str]:
        """Referenced resource type, if this is a reference attribute."""
        return self._ref_target  # type: ignore[attr-defined]

    @property
    def is_ref_list(self) -> bool:
        return self._is_ref_list  # type: ignore[attr-defined]

    @property
    def enum_values(self) -> Optional[List[str]]:
        return self._enum_values  # type: ignore[attr-defined]

    @property
    def base_type(self) -> str:
        """``type`` with any precision suffix stripped: ``string(64)``
        -> ``string``."""
        return self._base_type  # type: ignore[attr-defined]


@dataclasses.dataclass(frozen=True)
class ResourceTypeSpec:
    """Cloud-level schema + behaviour of one resource type."""

    name: str
    provider: str
    attributes: Dict[str, AttributeSpec]
    latency: LatencyProfile
    id_prefix: str
    description: str = ""
    # attribute changes that cannot be performed in place; the resource
    # must be destroyed and recreated (drives rollback planning, 3.4)
    immutable_attrs: tuple = ()
    # attributes the cloud lets scripts mutate out-of-band but an IaC
    # re-apply will NOT see (e.g. runtime network settings); these model
    # the paper's "modifications not captured in configuration files"
    shadow_attrs: tuple = ()

    def __post_init__(self) -> None:
        # per-kind views, computed once (validation walks them on every
        # simulated API call; ``attributes`` is never mutated)
        values = tuple(self.attributes.values())
        object.__setattr__(
            self, "_required", [a for a in values if a.required]
        )
        object.__setattr__(
            self, "_computed", [a for a in values if a.computed]
        )
        object.__setattr__(
            self, "_reference", [a for a in values if a.ref_target]
        )

    def signature(self) -> str:
        """One line naming everything a compile or a validation decides
        from this spec; a catalog's fingerprint hashes these."""
        attrs = ",".join(
            f"{a.name}:{a.type}:{int(a.computed)}:{int(a.required)}:"
            f"{int(a.forces_replacement)}:{a.semantic}:{a.default!r}"
            for a in sorted(self.attributes.values(), key=lambda a: a.name)
        )
        immutable = ",".join(self.immutable_attrs)
        return f"{self.provider}|{self.name}|{self.id_prefix}|{immutable}|{attrs}"

    def required_attrs(self) -> List[AttributeSpec]:
        return self._required  # type: ignore[attr-defined]

    def computed_attrs(self) -> List[AttributeSpec]:
        return self._computed  # type: ignore[attr-defined]

    def reference_attrs(self) -> List[AttributeSpec]:
        return self._reference  # type: ignore[attr-defined]

    def attr(self, name: str) -> Optional[AttributeSpec]:
        return self.attributes.get(name)


def spec(
    name: str,
    provider: str,
    attrs: List[AttributeSpec],
    create_s: float,
    update_s: Optional[float] = None,
    delete_s: Optional[float] = None,
    id_prefix: str = "",
    description: str = "",
    immutable: tuple = (),
    shadow: tuple = (),
    spread: float = 0.15,
) -> ResourceTypeSpec:
    """Terse constructor used by the provider catalogs."""
    attr_map = {a.name: a for a in attrs}
    if "id" not in attr_map:
        attr_map["id"] = AttributeSpec("id", computed=True, description="cloud id")
    profile = LatencyProfile(
        create_s=create_s,
        update_s=update_s if update_s is not None else max(1.0, create_s * 0.4),
        delete_s=delete_s if delete_s is not None else max(1.0, create_s * 0.3),
        spread=spread,
    )
    return ResourceTypeSpec(
        name=name,
        provider=provider,
        attributes=attr_map,
        latency=profile,
        id_prefix=id_prefix or name.split("_", 1)[-1][:3] + "-",
        description=description,
        immutable_attrs=immutable,
        shadow_attrs=shadow,
    )


def a(
    name: str,
    type: str = "string",
    required: bool = False,
    computed: bool = False,
    default: Any = None,
    semantic: str = "",
    forces_replacement: bool = False,
    description: str = "",
) -> AttributeSpec:
    """Terse AttributeSpec constructor for catalogs."""
    return AttributeSpec(
        name=name,
        type=type,
        required=required,
        computed=computed,
        default=default,
        semantic=semantic,
        forces_replacement=forces_replacement,
        description=description,
    )
