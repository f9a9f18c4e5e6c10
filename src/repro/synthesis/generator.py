"""Noisy IaC generation: the unguided-LLM stand-in (3.1).

The paper reports that existing LLM-based tools "frequently generate
invalid IaC code, even for small-scale templates... hallucinate basic
syntax... liable to introduce security vulnerabilities". This generator
reproduces those failure modes deterministically: it builds a plausible
program (reusing the type-guided builder, as an LLM reuses training
priors) and then corrupts it with calibrated error rates --
hallucinated attribute names, missing required attributes, wrong-type
references, invalid enum values, region typos, cross-region wiring, and
insecure settings.

With ``retrieval=True`` the error rates shrink (grounding in the
user's corpus suppresses hallucination), matching the paper's proposed
mitigation; the E8 benchmark sweeps both arms.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Tuple

from ..cloud.resources import Catalog, simulated_catalog
from ..porting.emitter import EmittedBlock, RawExpr, emit_config
from .synthesizer import RetrievalCorpus, _Builder
from .tasks import SynthesisTask


@dataclasses.dataclass
class ErrorRates:
    """Per-block corruption probabilities."""

    hallucinate_attr: float = 0.12
    drop_required: float = 0.10
    wrong_ref: float = 0.10
    bad_enum: float = 0.08
    bad_region: float = 0.06
    region_mismatch: float = 0.06
    insecure: float = 0.08

    def scaled(self, factor: float) -> "ErrorRates":
        return ErrorRates(
            **{
                field.name: getattr(self, field.name) * factor
                for field in dataclasses.fields(self)
            }
        )


#: how far grounding in the user's corpus scales every error rate
RETRIEVAL_FACTOR = 0.35

#: plausible-but-wrong attribute names an ungrounded model produces
_HALLUCINATED_NAMES = {
    "nic_ids": "network_interfaces",
    "subnet_id": "subnet",
    "vpc_id": "vpc",
    "cidr_block": "cidr",
    "address_prefix": "address_prefixes",
    "address_spaces": "address_space",
    "location": "region",
    "size": "instance_type",
    "engine": "database_engine",
    "storage_gb": "allocated_storage",
    "gateway_id": "vpn_gateway_id",
}


class NoisyGenerator:
    """Generates mostly-right, sometimes-wrong IaC programs."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        rates: Optional[ErrorRates] = None,
        retrieval: Optional[RetrievalCorpus] = None,
        seed: int = 0,
    ):
        self.catalog = catalog or simulated_catalog()
        base = rates or ErrorRates()
        self.retrieval = retrieval
        self.rates = base.scaled(RETRIEVAL_FACTOR) if retrieval else base
        self.rng = random.Random(seed)

    def generate(self, task: SynthesisTask):
        from .synthesizer import SynthesisResult

        builder = _Builder(self.catalog, task, self.retrieval)
        for request in task.requests:
            for _ in range(request.count):
                builder.create(request.rtype, pinned=request.pinned, dedicated=True)
        blocks = builder.finish()
        injected: List[str] = []
        for block in blocks:
            self._corrupt(block, injected)
        return SynthesisResult(
            task=task,
            sources={"main.clc": emit_config(blocks)},
            block_count=len(blocks),
            conventions_applied=builder.conventions_applied,
            injected_errors=injected,
        )

    # -- corruption passes ------------------------------------------------------

    def _corrupt(self, block: EmittedBlock, injected: List[str]) -> None:
        if block.kind != "resource":
            return
        rtype = block.labels[0]
        spec = self.catalog.try_spec(rtype)
        label = f"{rtype}.{block.labels[1]}"
        rates = self.rates

        if self.rng.random() < rates.hallucinate_attr:
            for i, (key, value) in enumerate(block.attrs):
                if key in _HALLUCINATED_NAMES:
                    block.attrs[i] = (_HALLUCINATED_NAMES[key], value)
                    injected.append(f"{label}: hallucinated attr {key!r}")
                    break

        if self.rng.random() < rates.drop_required and spec is not None:
            required = [
                a.name
                for a in spec.required_attrs()
                if not a.computed and a.name != "name"
            ]
            present = [k for k, _ in block.attrs]
            droppable = [a for a in required if a in present]
            if droppable:
                victim = self.rng.choice(droppable)
                block.attrs = [(k, v) for k, v in block.attrs if k != victim]
                injected.append(f"{label}: dropped required attr {victim!r}")

        if self.rng.random() < rates.wrong_ref:
            for i, (key, value) in enumerate(block.attrs):
                if isinstance(value, RawExpr) and value.text.endswith(".id"):
                    block.attrs[i] = (
                        key,
                        RawExpr(self._wrong_ref(value.text)),
                    )
                    injected.append(f"{label}: wrong-type reference in {key!r}")
                    break
                if (
                    isinstance(value, list)
                    and value
                    and isinstance(value[0], RawExpr)
                ):
                    block.attrs[i] = (
                        key,
                        [RawExpr(self._wrong_ref(value[0].text))] + value[1:],
                    )
                    injected.append(f"{label}: wrong-type reference in {key!r}")
                    break

        if self.rng.random() < rates.bad_enum and spec is not None:
            for i, (key, value) in enumerate(block.attrs):
                aspec = spec.attr(key)
                if aspec is not None and aspec.enum_values and isinstance(value, str):
                    block.attrs[i] = (key, value + "-v2")
                    injected.append(f"{label}: invalid enum for {key!r}")
                    break

        if self.rng.random() < rates.bad_region:
            for i, (key, value) in enumerate(block.attrs):
                aspec = spec.attr(key) if spec else None
                if aspec is not None and aspec.semantic == "region":
                    block.attrs[i] = (key, str(value).replace("-", ""))
                    injected.append(f"{label}: region typo in {key!r}")
                    break

        if self.rng.random() < rates.region_mismatch:
            regions = self.catalog.regions_of(self.catalog.provider_of(rtype))
            for i, (key, value) in enumerate(block.attrs):
                aspec = spec.attr(key) if spec else None
                if (
                    aspec is not None
                    and aspec.semantic == "region"
                    and isinstance(value, str)
                    and len(regions) > 1
                ):
                    others = [r for r in regions if r != value]
                    block.attrs[i] = (key, self.rng.choice(others))
                    injected.append(f"{label}: cross-region wiring via {key!r}")
                    break

        if self.rng.random() < rates.insecure and rtype == "azure_virtual_machine":
            block.attrs = [
                (k, v) for k, v in block.attrs if k != "admin_password"
            ] + [("admin_password", "Password123!")]
            injected.append(f"{label}: insecure hard-coded password")

    def _wrong_ref(self, expr: str) -> str:
        # point the reference at a different (wrong) resource type that
        # plausibly exists in the same program
        head = expr.split(".", 1)[0]
        provider = head.split("_", 1)[0]
        decoys = {
            "aws": ["aws_vpc.vpc", "aws_subnet.subnet", "aws_s3_bucket.bucket"],
            "azure": [
                "azure_virtual_network.virtual_network",
                "azure_subnet.subnet",
                "azure_resource_group.resource_group",
            ],
        }.get(provider, ["aws_vpc.vpc"])
        choice = self.rng.choice(decoys)
        return f"{choice}.id"
