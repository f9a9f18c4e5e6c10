"""Cloud-error to IaC-program correlation (3.5).

The paper's example: the cloud says *"Linux virtual machine creation
failed because specified NIC is not found"* while the real problem is a
region mismatch, and nothing points at a line of code. The
:class:`IaCDebugger` closes that gap: it takes the raw provider error,
gathers evidence from the configuration and the plan, and produces a
:class:`Diagnosis` with the actual root cause, the source span of the
offending attribute, and concrete fix suggestions.
"""

from __future__ import annotations

import dataclasses
import ipaddress
from typing import Any, Dict, List, Optional

from ..cloud.resources import Catalog, simulated_catalog
from ..deploy.executor import ApplyResult
from ..graph.builder import ResourceNode
from ..graph.plan import Plan
from ..lang.diagnostics import SourceSpan
from ..lang.values import is_unknown


@dataclasses.dataclass
class FixSuggestion:
    """A concrete, machine-applicable repair."""

    address: str
    attr: str
    new_value: Any
    description: str


@dataclasses.dataclass
class Diagnosis:
    """Root-caused explanation of one failed change."""

    change_id: str
    error_code: str
    raw_message: str
    root_cause: str
    culprit_address: str = ""
    culprit_attr: str = ""
    span: Optional[SourceSpan] = None
    fixes: List[FixSuggestion] = dataclasses.field(default_factory=list)
    confidence: float = 0.3

    def render(self) -> str:
        lines = [
            f"error at {self.change_id}: {self.error_code}",
            f"  cloud said : {self.raw_message}",
            f"  root cause : {self.root_cause}",
        ]
        if self.span is not None:
            lines.append(f"  location   : {self.span}")
        for fix in self.fixes:
            lines.append(f"  suggestion : {fix.description}")
        return "\n".join(lines)


class IaCDebugger:
    """Correlates apply-time cloud errors back to the program."""

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog or simulated_catalog()

    # -- entry points ---------------------------------------------------------

    def diagnose_apply(self, plan: Plan, result: ApplyResult) -> List[Diagnosis]:
        """Diagnose every change that failed in an apply run."""
        out: List[Diagnosis] = []
        for change_id, message in sorted(result.failed.items()):
            records = result.errors_for(change_id)
            code = records[-1].error_code if records else ""
            out.append(self.diagnose(plan, change_id, code, message))
        return out

    def diagnose(
        self, plan: Plan, change_id: str, error_code: str, message: str
    ) -> Diagnosis:
        change = plan.changes.get(change_id)
        node = change.node if change is not None else None
        handler = {
            "NetworkInterfaceNotFound": self._nic_not_found,
            "InvalidParameter": self._invalid_parameter,
            "MissingParameter": self._missing_parameter,
            "InvalidParameterValue": self._invalid_value,
            "InvalidSubnet.Range": self._subnet_range,
            "NetcfgInvalidSubnet": self._subnet_range,
            "InvalidSubnet.Conflict": self._subnet_overlap,
            "NetcfgSubnetRangesOverlap": self._subnet_overlap,
            "QuotaExceeded": self._quota,
            "Conflict": self._name_conflict,
            "UnresolvedValue": self._unresolved,
        }.get(error_code)
        if handler is None and ".NotFound" in error_code:
            handler = self._reference_not_found
        if handler is None and error_code == "ResourceNotFound":
            handler = self._reference_not_found
        if handler is not None and node is not None:
            diagnosis = handler(plan, change_id, node, error_code, message)
            if diagnosis is not None:
                return diagnosis
        return Diagnosis(
            change_id=change_id,
            error_code=error_code,
            raw_message=message,
            root_cause="unrecognized provider error; inspect the resource block",
            culprit_address=change_id,
            span=node.decl.span if node is not None else None,
            confidence=0.3,
        )

    # -- helpers -----------------------------------------------------------------

    def _attr_span(self, node: ResourceNode, attr: str) -> Optional[SourceSpan]:
        a = node.decl.body.attributes.get(attr)
        return a.span if a is not None else node.decl.span

    def _referenced(self, plan: Plan, node: ResourceNode, attr: str) -> List[
        ResourceNode
    ]:
        from ..lang.references import extract_references

        a = node.decl.body.attributes.get(attr)
        if a is None:
            return []
        out = []
        for ref in sorted(extract_references(a.expr)):
            if ref.kind not in ("resource", "data"):
                continue
            mode = "managed" if ref.kind == "resource" else "data"
            key = (node.address.module_path, mode, ref.type, ref.name)
            for nid in plan.graph.decl_instances.get(key, []):
                out.append(plan.graph.nodes[nid])
        return out

    def _safe_attrs(self, node: ResourceNode) -> Dict[str, Any]:
        try:
            return node.evaluate_attrs()
        except Exception:
            return {}

    # -- specific root causes ----------------------------------------------------

    def _nic_not_found(self, plan, change_id, node, code, message):
        """The paper's running example, solved."""
        attrs = self._safe_attrs(node)
        vm_location = attrs.get("location")
        for nic in self._referenced(plan, node, "nic_ids"):
            nic_attrs = self._safe_attrs(nic)
            nic_location = nic_attrs.get("location")
            if (
                isinstance(vm_location, str)
                and isinstance(nic_location, str)
                and vm_location != nic_location
            ):
                return Diagnosis(
                    change_id=change_id,
                    error_code=code,
                    raw_message=message,
                    root_cause=(
                        f"the NIC exists, but in a different region: the VM "
                        f"is in {vm_location!r} while {nic.id} is in "
                        f"{nic_location!r}; Azure requires a VM and its NICs "
                        f"to share a location"
                    ),
                    culprit_address=node.id,
                    culprit_attr="location",
                    span=self._attr_span(node, "location"),
                    fixes=[
                        FixSuggestion(
                            address=node.id,
                            attr="location",
                            new_value=nic_location,
                            description=(
                                f"set {node.id}.location = "
                                f"{nic_location!r} to match {nic.id}"
                            ),
                        )
                    ],
                    confidence=0.95,
                )
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause="a referenced network interface could not be resolved",
            culprit_address=node.id,
            culprit_attr="nic_ids",
            span=self._attr_span(node, "nic_ids"),
            confidence=0.5,
        )

    def _reference_not_found(self, plan, change_id, node, code, message):
        spec = self.catalog.try_spec(node.address.type)
        ref_attrs = [a.name for a in spec.reference_attrs()] if spec else []
        for attr_name in ref_attrs:
            for target in self._referenced(plan, node, attr_name):
                expected = None
                aspec = spec.attr(attr_name) if spec else None
                if aspec is not None:
                    expected = aspec.ref_target
                if (
                    expected
                    and target.address.mode == "managed"
                    and target.address.type != expected
                ):
                    return Diagnosis(
                        change_id=change_id,
                        error_code=code,
                        raw_message=message,
                        root_cause=(
                            f"{attr_name} references {target.id}, which is a "
                            f"{target.address.type}; the cloud expects the id "
                            f"of a {expected}"
                        ),
                        culprit_address=node.id,
                        culprit_attr=attr_name,
                        span=self._attr_span(node, attr_name),
                        fixes=[
                            FixSuggestion(
                                address=node.id,
                                attr=attr_name,
                                new_value=None,
                                description=(
                                    f"reference a {expected} resource in "
                                    f"{attr_name} instead of {target.id}"
                                ),
                            )
                        ],
                        confidence=0.9,
                    )
                if str(target.id) in getattr(plan, "_failed_ids", set()):
                    break
        # maybe an upstream dependency failed to create
        upstream = sorted(plan.graph.dag.predecessors(node.id))
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=(
                "a referenced resource does not exist in the cloud; either "
                "its creation failed earlier in this run or the reference "
                "points at the wrong resource"
                + (f" (dependencies: {', '.join(upstream)})" if upstream else "")
            ),
            culprit_address=node.id,
            span=node.decl.span,
            confidence=0.5,
        )

    def _invalid_parameter(self, plan, change_id, node, code, message):
        if "adminPassword" in message or "disablePassword" in message:
            attrs = self._safe_attrs(node)
            has_password = attrs.get("admin_password") not in (None, "")
            fix_attr = "disable_password_auth"
            fix_value: Any = False if has_password else True
            return Diagnosis(
                change_id=change_id,
                error_code=code,
                raw_message=message,
                root_cause=(
                    "admin_password and disable_password_auth disagree: a "
                    "password may only be set when password authentication "
                    "is enabled (disable_password_auth = false)"
                ),
                culprit_address=node.id,
                culprit_attr="disable_password_auth",
                span=self._attr_span(node, "admin_password"),
                fixes=[
                    FixSuggestion(
                        address=node.id,
                        attr=fix_attr,
                        new_value=fix_value,
                        description=f"set {fix_attr} = {str(fix_value).lower()}",
                    )
                ],
                confidence=0.95,
            )
        return None

    def _missing_parameter(self, plan, change_id, node, code, message):
        attr = _quoted_token(message)
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=f"required attribute {attr!r} is missing from the block",
            culprit_address=node.id,
            culprit_attr=attr or "",
            span=node.decl.span,
            fixes=[
                FixSuggestion(
                    address=node.id,
                    attr=attr or "",
                    new_value=None,
                    description=f"add the {attr!r} attribute",
                )
            ],
            confidence=0.85,
        )

    def _invalid_value(self, plan, change_id, node, code, message):
        attr = _quoted_token(message, skip=1) or _quoted_token(message)
        spec = self.catalog.try_spec(node.address.type)
        fixes: List[FixSuggestion] = []
        if spec is not None and attr:
            aspec = spec.attr(attr)
            enum = aspec.enum_values if aspec else None
            if enum:
                fixes.append(
                    FixSuggestion(
                        address=node.id,
                        attr=attr,
                        new_value=enum[0],
                        description=(
                            f"use one of: {', '.join(enum)} (e.g. {enum[0]!r})"
                        ),
                    )
                )
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=f"the value of {attr!r} is outside what the cloud accepts",
            culprit_address=node.id,
            culprit_attr=attr or "",
            span=self._attr_span(node, attr) if attr else node.decl.span,
            fixes=fixes,
            confidence=0.8 if fixes else 0.6,
        )

    def _subnet_range(self, plan, change_id, node, code, message):
        attr = "cidr_block" if "cidr_block" in node.decl.body.attributes else (
            "address_prefix"
        )
        parent_attr = "vpc_id" if attr == "cidr_block" else "vnet_id"
        suggestion = None
        for parent in self._referenced(plan, node, parent_attr):
            parent_attrs = self._safe_attrs(parent)
            parent_cidr = parent_attrs.get("cidr_block")
            spaces = parent_attrs.get("address_spaces")
            base = parent_cidr or (spaces[0] if isinstance(spaces, list) and spaces else None)
            if isinstance(base, str):
                try:
                    net = ipaddress.ip_network(base)
                    suggestion = str(list(net.subnets(new_prefix=min(net.prefixlen + 8, 28)))[0])
                except ValueError:
                    pass
            return Diagnosis(
                change_id=change_id,
                error_code=code,
                raw_message=message,
                root_cause=(
                    f"{attr} is not inside the parent network's range "
                    f"({base!r})"
                ),
                culprit_address=node.id,
                culprit_attr=attr,
                span=self._attr_span(node, attr),
                fixes=(
                    [
                        FixSuggestion(
                            address=node.id,
                            attr=attr,
                            new_value=suggestion,
                            description=(
                                f"use a prefix inside {base}, e.g. "
                                f"{suggestion!r}"
                            ),
                        )
                    ]
                    if suggestion
                    else []
                ),
                confidence=0.9,
            )
        return None

    def _subnet_overlap(self, plan, change_id, node, code, message):
        attr = "cidr_block" if "cidr_block" in node.decl.body.attributes else (
            "address_prefix"
        )
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=(
                f"{attr} overlaps a sibling subnet's range in the same "
                f"network"
            ),
            culprit_address=node.id,
            culprit_attr=attr,
            span=self._attr_span(node, attr),
            fixes=[
                FixSuggestion(
                    address=node.id,
                    attr=attr,
                    new_value=None,
                    description="choose a non-overlapping prefix "
                    "(cidrsubnet() with a fresh netnum)",
                )
            ],
            confidence=0.85,
        )

    def _quota(self, plan, change_id, node, code, message):
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=(
                f"the regional quota for {node.address.type} is exhausted"
            ),
            culprit_address=node.id,
            span=node.decl.span,
            fixes=[
                FixSuggestion(
                    address=node.id,
                    attr="location",
                    new_value=None,
                    description="deploy to a different region or request a "
                    "quota increase",
                )
            ],
            confidence=0.9,
        )

    def _name_conflict(self, plan, change_id, node, code, message):
        attrs = self._safe_attrs(node)
        name = attrs.get("name")
        new_name = f"{name}-2" if isinstance(name, str) else None
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=f"a resource named {name!r} already exists in the region",
            culprit_address=node.id,
            culprit_attr="name",
            span=self._attr_span(node, "name"),
            fixes=(
                [
                    FixSuggestion(
                        address=node.id,
                        attr="name",
                        new_value=new_name,
                        description=f"rename to {new_name!r}",
                    )
                ]
                if new_name
                else []
            ),
            confidence=0.9,
        )

    def _unresolved(self, plan, change_id, node, code, message):
        attrs = self._safe_attrs(node)
        unknown = sorted(k for k, v in attrs.items() if is_unknown(v))
        return Diagnosis(
            change_id=change_id,
            error_code=code,
            raw_message=message,
            root_cause=(
                "attribute values depend on resources that were never "
                "created (an upstream failure cascaded): "
                + ", ".join(unknown)
            ),
            culprit_address=node.id,
            culprit_attr=unknown[0] if unknown else "",
            span=node.decl.span,
            confidence=0.7,
        )


def _quoted_token(message: str, skip: int = 0) -> Optional[str]:
    """Extract the (skip+1)-th 'quoted' token from a provider message."""
    import re

    tokens = re.findall(r"'([^']+)'", message)
    if len(tokens) > skip:
        return tokens[skip]
    return None
