"""Configuration mutators for the validation study (E6).

Each mutator plants one realistic configuration error in a valid
program -- the classes of mistakes 3.2 catalogues. The mutation record
carries the *level* at which a validator should first be able to catch
it (``types`` or ``rules``), so the benchmark can score each pipeline
level's catch rate; everything here is syntax-clean by construction,
which is exactly the paper's point about today's ``terraform validate``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Optional, Tuple

from ..cloud.resources import Catalog, simulated_catalog
from ..lang.ast_nodes import AttrAccess, Attribute, ListExpr, Literal, ScopeRef
from ..lang.config import Configuration, ResourceDecl
from ..lang.diagnostics import SourceSpan


@dataclasses.dataclass
class Mutation:
    """One planted configuration error."""

    kind: str
    target: str  # resource address text
    attr: str
    description: str
    catchable_at: str  # "types" | "rules" -- earliest catching level


class MutationError(RuntimeError):
    """The mutator found no applicable site in this config."""


def _lit(value) -> Literal:
    return Literal(value, SourceSpan())


def _set_attr(decl: ResourceDecl, name: str, value) -> None:
    decl.body.attributes[name] = Attribute(name, _lit(value), SourceSpan())


class ConfigMutator:
    """Applies one randomly-chosen applicable mutation to a config."""

    def __init__(
        self, catalog: Optional[Catalog] = None, seed: int = 0
    ):
        self.catalog = catalog or simulated_catalog()
        self.rng = random.Random(seed)

    # each entry: (kind, catchable_at, function(config) -> Mutation)
    def mutators(self) -> List[Tuple[str, Callable[[Configuration], Mutation]]]:
        return [
            ("unknown_attr", self.mutate_unknown_attr),
            ("bad_enum", self.mutate_bad_enum),
            ("wrong_ref_type", self.mutate_wrong_ref_type),
            ("drop_required", self.mutate_drop_required),
            ("invalid_cidr", self.mutate_invalid_cidr),
            ("bad_region", self.mutate_bad_region),
            ("region_mismatch", self.mutate_region_mismatch),
            ("cidr_outside_parent", self.mutate_cidr_outside_parent),
            ("password_rule", self.mutate_password_rule),
            ("duplicate_name", self.mutate_duplicate_name),
        ]

    def apply_random(self, config: Configuration) -> Mutation:
        """Apply one applicable mutation chosen uniformly at random."""
        options = list(self.mutators())
        self.rng.shuffle(options)
        for kind, fn in options:
            try:
                return fn(config)
            except MutationError:
                continue
        raise MutationError("no mutation applies to this configuration")

    def apply_kind(self, config: Configuration, kind: str) -> Mutation:
        for name, fn in self.mutators():
            if name == kind:
                return fn(config)
        raise KeyError(kind)

    # -- helpers ----------------------------------------------------------------

    def _managed(self, config: Configuration) -> List[ResourceDecl]:
        return sorted(config.managed_resources(), key=lambda d: d.address)

    def _pick(self, items: List) -> object:
        if not items:
            raise MutationError("no applicable site")
        return self.rng.choice(items)

    # -- type-level mutations (semantic types should catch) ------------------------

    def mutate_unknown_attr(self, config: Configuration) -> Mutation:
        decl = self._pick(self._managed(config))
        _set_attr(decl, "flavour", "strawberry")
        return Mutation(
            kind="unknown_attr",
            target=decl.address,
            attr="flavour",
            description="attribute not in the resource schema",
            catchable_at="types",
        )

    def mutate_bad_enum(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            spec = self.catalog.try_spec(decl.type)
            if spec is None:
                continue
            for aspec in spec.attributes.values():
                if aspec.enum_values and not aspec.computed:
                    sites.append((decl, aspec.name))
        decl, attr = self._pick(sites)
        _set_attr(decl, attr, "not-a-real-value")
        return Mutation(
            kind="bad_enum",
            target=decl.address,
            attr=attr,
            description="enum attribute set to an unsupported value",
            catchable_at="types",
        )

    def mutate_wrong_ref_type(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            spec = self.catalog.try_spec(decl.type)
            if spec is None:
                continue
            for aspec in spec.reference_attrs():
                if aspec.name not in decl.body.attributes:
                    continue
                wrong = [
                    other
                    for other in self._managed(config)
                    if other.type != (aspec.ref_target or "")
                    and other.type != decl.type
                    and self.catalog.try_provider_of(other.type)
                    == self.catalog.provider_of(decl.type)
                ]
                if wrong:
                    sites.append((decl, aspec, wrong))
        decl, aspec, wrong = self._pick(sites)
        other = self.rng.choice(wrong)
        ref_expr = AttrAccess(
            obj=AttrAccess(
                obj=ScopeRef(other.type, SourceSpan()),
                name=other.name,
                span=SourceSpan(),
            ),
            name="id",
            span=SourceSpan(),
        )
        expr = ListExpr([ref_expr], SourceSpan()) if aspec.is_ref_list else ref_expr
        decl.body.attributes[aspec.name] = Attribute(
            aspec.name, expr, SourceSpan()
        )
        return Mutation(
            kind="wrong_ref_type",
            target=decl.address,
            attr=aspec.name,
            description=f"references a {other.type} where a "
            f"{aspec.ref_target} id is expected",
            catchable_at="types",
        )

    def mutate_drop_required(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            spec = self.catalog.try_spec(decl.type)
            if spec is None:
                continue
            for aspec in spec.required_attrs():
                if aspec.name in decl.body.attributes and aspec.name != "name":
                    sites.append((decl, aspec.name))
        decl, attr = self._pick(sites)
        del decl.body.attributes[attr]
        return Mutation(
            kind="drop_required",
            target=decl.address,
            attr=attr,
            description="required attribute removed",
            catchable_at="types",
        )

    def mutate_invalid_cidr(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            spec = self.catalog.try_spec(decl.type)
            if spec is None:
                continue
            for aspec in spec.attributes.values():
                if aspec.semantic == "cidr" and aspec.name in decl.body.attributes:
                    sites.append((decl, aspec.name))
        decl, attr = self._pick(sites)
        _set_attr(decl, attr, "10.0.0.0/33")
        return Mutation(
            kind="invalid_cidr",
            target=decl.address,
            attr=attr,
            description="syntactically invalid CIDR block",
            catchable_at="types",
        )

    def mutate_bad_region(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            spec = self.catalog.try_spec(decl.type)
            if spec is None:
                continue
            for aspec in spec.attributes.values():
                if aspec.semantic == "region" and aspec.name in decl.body.attributes:
                    sites.append((decl, aspec.name))
        decl, attr = self._pick(sites)
        _set_attr(decl, attr, "middleearth-1")
        return Mutation(
            kind="bad_region",
            target=decl.address,
            attr=attr,
            description="region that does not exist",
            catchable_at="types",
        )

    # -- rule-level mutations (cross-resource; need the rule engine) -----------------

    def mutate_region_mismatch(self, config: Configuration) -> Mutation:
        vms = [
            d
            for d in self._managed(config)
            if d.type == "azure_virtual_machine"
            and "location" in d.body.attributes
        ]
        decl = self._pick(vms)
        current = decl.body.attributes["location"].expr
        current_value = current.value if isinstance(current, Literal) else None
        regions = self.catalog.regions_of("azure")
        others = [r for r in regions if r != current_value]
        _set_attr(decl, "location", self.rng.choice(others))
        return Mutation(
            kind="region_mismatch",
            target=decl.address,
            attr="location",
            description="VM moved to a different region than its NICs",
            catchable_at="rules",
        )

    def mutate_cidr_outside_parent(self, config: Configuration) -> Mutation:
        sites = []
        for decl in self._managed(config):
            if decl.type == "aws_subnet" and "cidr_block" in decl.body.attributes:
                sites.append((decl, "cidr_block"))
            if (
                decl.type == "azure_subnet"
                and "address_prefix" in decl.body.attributes
            ):
                sites.append((decl, "address_prefix"))
        decl, attr = self._pick(sites)
        _set_attr(decl, attr, "192.168.77.0/24")
        return Mutation(
            kind="cidr_outside_parent",
            target=decl.address,
            attr=attr,
            description="subnet prefix outside the parent network range",
            catchable_at="rules",
        )

    def mutate_password_rule(self, config: Configuration) -> Mutation:
        vms = [
            d for d in self._managed(config) if d.type == "azure_virtual_machine"
        ]
        decl = self._pick(vms)
        _set_attr(decl, "admin_password", "Sup3rSecret!")
        decl.body.attributes.pop("disable_password_auth", None)
        return Mutation(
            kind="password_rule",
            target=decl.address,
            attr="admin_password",
            description="password set while password auth is disabled",
            catchable_at="rules",
        )

    def mutate_duplicate_name(self, config: Configuration) -> Mutation:
        by_type = {}
        for decl in self._managed(config):
            attr = decl.body.attributes.get("name")
            if (
                attr is not None
                and isinstance(attr.expr, Literal)
                and decl.count is None
                and decl.for_each is None
            ):
                by_type.setdefault(decl.type, []).append(decl)
        pairs = [v for v in by_type.values() if len(v) >= 2]
        group = self._pick(pairs)
        first, second = group[0], group[1]
        first_name = first.body.attributes["name"].expr
        assert isinstance(first_name, Literal)
        _set_attr(second, "name", first_name.value)
        return Mutation(
            kind="duplicate_name",
            target=second.address,
            attr="name",
            description="two resources share one cloud-visible name",
            catchable_at="rules",
        )
