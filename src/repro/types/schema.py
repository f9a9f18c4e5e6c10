"""Schema registry: the IaC-level knowledge base of resource types.

Aggregates per-provider catalogs into one lookup surface for semantic
validation. The paper proposes deriving and *updating* this knowledge
base from documentation and examples as clouds evolve (3.2);
:mod:`repro.types.inference` feeds learned entries into the same
registry.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from ..cloud.resources import AttributeSpec, ResourceTypeSpec
from .semantic import SemanticType, expected_semantic, produced_by_attr


class SchemaRegistry:
    """Maps resource types to their attribute schemas and semantics."""

    def __init__(self, specs: Optional[Iterable[ResourceTypeSpec]] = None):
        self._specs: Dict[str, ResourceTypeSpec] = {}
        self._regions: Dict[str, List[str]] = {}
        #: :meth:`fingerprint`, until the next registration
        self._fingerprint: Optional[str] = None
        for spec in specs or []:
            self.register(spec)

    @classmethod
    def default(cls) -> "SchemaRegistry":
        """Registry preloaded with both simulated provider catalogs."""
        from ..cloud.aws.provider import AWS_REGIONS, aws_catalog
        from ..cloud.azure.provider import AZURE_LOCATIONS, azure_catalog

        registry = cls()
        for spec in aws_catalog():
            registry.register(spec)
        for spec in azure_catalog():
            registry.register(spec)
        registry.set_regions("aws", AWS_REGIONS)
        registry.set_regions("azure", AZURE_LOCATIONS)
        return registry

    # -- registration ------------------------------------------------------

    def register(self, spec: ResourceTypeSpec) -> None:
        self._specs[spec.name] = spec
        self._fingerprint = None

    def set_regions(self, provider: str, regions: List[str]) -> None:
        self._regions[provider] = list(regions)
        self._fingerprint = None

    # -- lookups --------------------------------------------------------------

    def spec_for(self, rtype: str) -> Optional[ResourceTypeSpec]:
        return self._specs.get(rtype)

    def known_types(self) -> List[str]:
        return sorted(self._specs)

    def attr_spec(self, rtype: str, attr: str) -> Optional[AttributeSpec]:
        spec = self._specs.get(rtype)
        return spec.attr(attr) if spec else None

    def provider_of(self, rtype: str) -> str:
        spec = self._specs.get(rtype)
        if spec is not None:
            return spec.provider
        return rtype.split("_", 1)[0]

    def regions_of(self, provider: str) -> List[str]:
        return list(self._regions.get(provider, []))

    def fingerprint(self) -> str:
        """Digest of everything validation reads here (every spec's
        :meth:`~ResourceTypeSpec.signature`, every region list): a
        recorded verdict holds only under the registry that gave it.
        Hashed once per registration: a resident engine asks on every
        validation whether its last one still holds."""
        if self._fingerprint is None:
            lines = [self._specs[rtype].signature() for rtype in sorted(self._specs)]
            lines += [
                f"{provider}@{','.join(regions)}"
                for provider, regions in sorted(self._regions.items())
            ]
            self._fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return self._fingerprint

    # -- semantic helpers ----------------------------------------------------------

    def expected(self, rtype: str, attr: str) -> SemanticType:
        aspec = self.attr_spec(rtype, attr)
        if aspec is None:
            return SemanticType("any")
        return expected_semantic(aspec)

    def produced(self, rtype: str, attr: str) -> SemanticType:
        return produced_by_attr(rtype, attr, self.attr_spec(rtype, attr))
