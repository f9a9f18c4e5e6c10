"""Porting existing cloud estates to IaC (3.1).

Two importers model the paper's contrast:

* :class:`NaiveExporter` -- Aztfy/Terraformer-style: one block per
  resource, every attribute dumped verbatim, references left as
  hard-coded cloud ids. Correct but unmaintainable.
* :class:`StructuredImporter` -- the cloudless program optimizer:
  resolves ids into references, prunes attributes the cloud filled with
  defaults, compacts repeated resources into ``count``/``for_each``,
  and extracts repeated infrastructure stacks into modules.

Both return a :class:`PortedProject`: config sources plus a matching
state document, so the import is immediately adoptable (a follow-up
plan is a no-op).
"""

from __future__ import annotations

import dataclasses
import re
from collections import defaultdict
from typing import Any, Dict, List, Optional, Set, Tuple

from ..addressing import ResourceAddress
from ..cloud.base import ResourceRecord
from ..cloud.gateway import CloudGateway
from ..cloud.resilience import ResilientGateway, RetryPolicy
from ..state.document import ResourceState, StateDocument
from ..types.schema import SchemaRegistry
from .emitter import (
    EmittedBlock,
    RawExpr,
    emit_config,
    module_block,
    resource_block,
    variable_block,
)

_NAME_INDEX_RE = re.compile(r"^(?P<prefix>.*?)[-_](?P<index>\d+)$")


def enumerate_estate(
    gateway: CloudGateway, retry: Optional[RetryPolicy] = None
) -> List[ResourceRecord]:
    """Enumerate the live estate through the paginated list API.

    Unlike ``gateway.all_records()`` -- an in-memory shortcut that costs
    no API calls and cannot fail -- this walks every provider's list
    endpoint page by page through the resilience layer, so an import
    run on a flaky control plane retries the faulted page (same token)
    and still sees the whole estate. Records are rebuilt from the list
    snapshots; ``created_at``/``updated_at`` are not part of the list
    response and read as the scan time.
    """
    resilient = ResilientGateway.wrap(gateway, retry=retry)
    records: List[ResourceRecord] = []
    for provider, plane in sorted(resilient.planes.items()):
        token: Any = 0
        while token is not None:
            page = resilient.execute_on(plane, "list", attrs={"page_token": token})
            regions = page.get("regions") or [""] * len(page["items"])
            for item, rtype, region in zip(page["items"], page["types"], regions):
                attrs = {k: v for k, v in item.items() if k != "id"}
                records.append(
                    ResourceRecord(
                        id=item["id"],
                        type=rtype,
                        region=region,
                        attrs=attrs,
                        created_at=resilient.clock.now,
                        updated_at=resilient.clock.now,
                    )
                )
            token = page["next_token"]
    return sorted(records, key=lambda r: r.id)


@dataclasses.dataclass
class PortedProject:
    """An imported estate: sources + adoptable state."""

    sources: Dict[str, str]
    module_sources: Dict[str, Dict[str, str]]  # module source -> files
    state: StateDocument

    @property
    def main_source(self) -> str:
        return self.sources.get("main.clc", "")

    def loader(self):
        from ..lang.module_loader import DictModuleLoader

        return DictModuleLoader(dict(self.module_sources))


def _adopt_dependencies(project: PortedProject) -> None:
    """Record on each adopted entry the managed instances the emitted
    program's graph makes it wait for -- what an apply of the program
    would record -- so a destroy of the adopted estate deletes
    dependents first."""
    from ..graph.builder import build_graph
    from ..lang.config import Configuration

    graph = build_graph(
        Configuration.parse(project.sources), loader=project.loader()
    )
    for entry in project.state.resources():
        project.state.set(
            entry.replace(
                dependencies=graph.managed_dependencies(str(entry.address))
            )
        )


def _sanitize(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not out or out[0].isdigit():
        out = "r_" + out
    return out


class _RecordView:
    """One cloud record with pruned attrs and resolved reference info."""

    def __init__(self, record: ResourceRecord, registry: SchemaRegistry):
        self.record = record
        self.registry = registry
        spec = registry.spec_for(record.type)
        self.spec = spec
        self.pruned: Dict[str, Any] = {}
        self.ref_attrs: Dict[str, List[str]] = {}  # attr -> target ids
        for key, value in sorted(record.attrs.items()):
            if value is None:
                continue
            aspec = spec.attr(key) if spec else None
            if aspec is not None and aspec.computed:
                continue
            if aspec is not None and aspec.default is not None and value == aspec.default:
                continue  # the cloud filled this in; drop it (3.1)
            if aspec is not None and aspec.ref_target:
                targets = value if isinstance(value, list) else [value]
                self.ref_attrs[key] = [str(t) for t in targets]
            self.pruned[key] = value

    @property
    def id(self) -> str:
        return self.record.id

    @property
    def type(self) -> str:
        return self.record.type


class NaiveExporter:
    """Baseline: dump every resource as its own fully-literal block."""

    def __init__(self, registry: Optional[SchemaRegistry] = None):
        self.registry = registry or SchemaRegistry.default()

    def export(self, gateway: CloudGateway) -> PortedProject:
        records = sorted(gateway.all_records(), key=lambda r: r.id)
        blocks: List[EmittedBlock] = []
        state = StateDocument()
        used: Set[str] = set()
        for i, record in enumerate(records):
            spec = self.registry.spec_for(record.type)
            name = f"{record.type}_{i}"
            attrs = []
            for key, value in sorted(record.attrs.items()):
                aspec = spec.attr(key) if spec else None
                if aspec is not None and aspec.computed:
                    continue
                if value is None:
                    continue
                attrs.append((key, value))
            blocks.append(resource_block(record.type, name, attrs))
            address = ResourceAddress(type=record.type, name=name)
            state.set(
                ResourceState(
                    address=address,
                    resource_id=record.id,
                    provider=self.registry.provider_of(record.type),
                    attrs=record.snapshot(),
                    region=record.region,
                )
            )
        return PortedProject(
            sources={"main.clc": emit_config(blocks) if blocks else ""},
            module_sources={},
            state=state,
        )


class StructuredImporter:
    """The cloudless porting optimizer."""

    def __init__(
        self,
        registry: Optional[SchemaRegistry] = None,
        enable_grouping: bool = True,
        enable_modules: bool = True,
        min_group: int = 2,
        min_module_size: int = 3,
    ):
        self.registry = registry or SchemaRegistry.default()
        self.enable_grouping = enable_grouping
        self.enable_modules = enable_modules
        self.min_group = min_group
        self.min_module_size = min_module_size

    # -- entry point -----------------------------------------------------------

    def import_estate(
        self,
        gateway: CloudGateway,
        only_ids: Optional[Set[str]] = None,
        via_api: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> PortedProject:
        """Port the live estate (optionally restricted to ``only_ids``).

        The restriction powers 3.5's program *regeneration*: after
        drift is adopted, the managed estate's live cloud values are
        re-emitted as a fresh program + state pair.

        With ``via_api=True`` the estate is enumerated through the
        paginated list API behind the resilience layer (retrying
        transient faults page by page) instead of the zero-cost
        in-memory ``all_records()`` shortcut.
        """
        if via_api:
            records = enumerate_estate(gateway, retry=retry)
        else:
            records = sorted(gateway.all_records(), key=lambda r: r.id)
        if only_ids is not None:
            records = [r for r in records if r.id in only_ids]
        views = [_RecordView(r, self.registry) for r in records]
        by_id = {v.id: v for v in views}

        names = self._assign_names(views)
        module_plan: Dict[str, Tuple[str, str]] = {}  # record id -> (call, src)
        module_sources: Dict[str, Dict[str, str]] = {}
        blocks: List[EmittedBlock] = []
        state = StateDocument()

        remaining = list(views)
        if self.enable_modules:
            extracted, remaining, module_sources, module_state = (
                self._extract_modules(views, by_id, names)
            )
            blocks.extend(extracted)
            for entry in module_state:
                state.set(entry)

        groups: List[Tuple[str, List[_RecordView]]] = (
            self._detect_groups(remaining, by_id, names)
            if self.enable_grouping
            else [("single", [v]) for v in remaining]
        )
        # decide final expression text for every remaining record id
        expr_of: Dict[str, str] = {}
        group_names: Dict[int, str] = {}
        membership: Dict[str, Tuple[int, int]] = {}  # id -> (group idx, pos)
        for gi, (kind, group) in enumerate(groups):
            if kind == "single":
                view = group[0]
                expr_of[view.id] = f"{view.type}.{names[view.id]}"
                continue
            gname = self._group_name(group, names)
            group_names[gi] = gname
            for pos, view in enumerate(group):
                membership[view.id] = (gi, pos)
                if kind == "count":
                    expr_of[view.id] = f"{view.type}.{gname}[{pos}]"
                else:
                    key = view.record.name
                    expr_of[view.id] = f'{view.type}.{gname}["{key}"]'

        for gi, (kind, group) in enumerate(groups):
            if kind == "single":
                view = group[0]
                blocks.append(
                    self._single_block(view, names[view.id], expr_of, membership)
                )
                self._record_state(state, view, ResourceAddress(
                    type=view.type, name=names[view.id]
                ))
            elif kind == "count":
                gname = group_names[gi]
                blocks.append(
                    self._group_block(group, gname, expr_of, membership)
                )
                for pos, view in enumerate(group):
                    self._record_state(
                        state,
                        view,
                        ResourceAddress(
                            type=view.type, name=gname, instance_key=pos
                        ),
                    )
            else:  # for_each keyed by name
                gname = group_names[gi]
                blocks.append(
                    self._for_each_block(group, gname, expr_of, membership)
                )
                for view in group:
                    self._record_state(
                        state,
                        view,
                        ResourceAddress(
                            type=view.type,
                            name=gname,
                            instance_key=view.record.name,
                        ),
                    )

        blocks.sort(key=lambda b: (b.kind != "module", b.labels))
        project = PortedProject(
            sources={"main.clc": emit_config(blocks) if blocks else ""},
            module_sources=module_sources,
            state=state,
        )
        _adopt_dependencies(project)
        return project

    # -- naming ----------------------------------------------------------------

    def _assign_names(self, views: List[_RecordView]) -> Dict[str, str]:
        names: Dict[str, str] = {}
        used: Set[Tuple[str, str]] = set()
        for view in views:
            base = _sanitize(str(view.record.attrs.get("name", view.id)))
            candidate = base
            n = 2
            while (view.type, candidate) in used:
                candidate = f"{base}_{n}"
                n += 1
            used.add((view.type, candidate))
            names[view.id] = candidate
        return names

    # -- attribute rendering -------------------------------------------------------

    def _render_attrs(
        self,
        view: _RecordView,
        expr_of: Dict[str, str],
        membership: Dict[str, Tuple[int, int]],
        override: Optional[Dict[str, Any]] = None,
    ) -> List[Tuple[str, Any]]:
        out: List[Tuple[str, Any]] = []
        for key in sorted(view.pruned):
            if override and key in override:
                out.append((key, override[key]))
                continue
            value = view.pruned[key]
            if key in view.ref_attrs:
                exprs = [
                    RawExpr(f"{expr_of.get(t, repr(t))}.id")
                    if t in expr_of
                    else t
                    for t in view.ref_attrs[key]
                ]
                out.append((key, exprs if isinstance(value, list) else exprs[0]))
            else:
                out.append((key, value))
        return out

    def _single_block(
        self,
        view: _RecordView,
        name: str,
        expr_of: Dict[str, str],
        membership: Dict[str, Tuple[int, int]],
    ) -> EmittedBlock:
        return resource_block(
            view.type, name, self._render_attrs(view, expr_of, membership)
        )

    # -- count/for_each compaction -----------------------------------------------

    def _detect_groups(
        self,
        views: List[_RecordView],
        by_id: Dict[str, "_RecordView"],
        names: Dict[str, str],
    ) -> List[Tuple[str, List[_RecordView]]]:
        """Group records into count/for_each blocks, to a fixpoint.

        A bucket of same-shaped records becomes a **count** block when
        names follow ``prefix-<0..n-1>`` and every varying attribute is
        a plain scalar (``element([...], count.index)`` / detected
        ``cidrsubnet`` ladder) or a reference whose member-i target is
        member i of an already-grouped count bucket -- hence the
        fixpoint loop: subnets group first, then the NICs pointing at
        them, then the VMs.

        Buckets that cannot count-group but share a shape with distinct
        names, constant references, and scalar-only variation become a
        **for_each** block keyed by name. Everything else stays single.
        """
        buckets: Dict[Tuple, List[_RecordView]] = defaultdict(list)
        for view in views:
            buckets[(view.type, tuple(sorted(view.pruned)))].append(view)

        candidates: Dict[Tuple, List[_RecordView]] = {}
        leftovers: List[List[_RecordView]] = []  # for_each candidates
        singles: List[_RecordView] = []
        bucket_of: Dict[str, Tuple] = {}
        for signature, members in buckets.items():
            ordered = self._ordered_by_name_index(members)
            if len(members) < self.min_group:
                singles.extend(members)
                continue
            if ordered is None:
                leftovers.append(members)
                continue
            candidates[signature] = ordered
            for view in ordered:
                bucket_of[view.id] = signature

        decided: Dict[Tuple, List[_RecordView]] = {}
        membership: Dict[str, Tuple[Tuple, int]] = {}
        pending = dict(candidates)
        while pending:
            progress = False
            for signature in sorted(pending, key=str):
                verdict = self._try_group(
                    pending[signature], by_id, bucket_of, membership, pending
                )
                if verdict == "defer":
                    continue
                ordered = pending.pop(signature)
                progress = True
                if verdict == "ok":
                    decided[signature] = ordered
                    for pos, view in enumerate(ordered):
                        membership[view.id] = (signature, pos)
                else:
                    leftovers.append(ordered)
                break
            if not progress:
                for signature in sorted(pending, key=str):
                    leftovers.append(pending[signature])
                break

        groups: List[Tuple[str, List[_RecordView]]] = []
        for members in leftovers:
            if self._for_each_eligible(members):
                groups.append(
                    ("for_each", sorted(members, key=lambda v: v.record.name))
                )
            else:
                singles.extend(members)
        groups.extend(("single", [v]) for v in singles)
        groups.extend(("count", decided[s]) for s in sorted(decided, key=str))
        groups.sort(key=lambda g: g[1][0].id)
        return groups

    def _for_each_eligible(self, members: List[_RecordView]) -> bool:
        """Same shape, distinct string names, constant refs, scalar
        variation only -- expressible as for_each keyed by name."""
        if len(members) < self.min_group:
            return False
        head = members[0]
        names_seen = set()
        for view in members:
            name = view.record.attrs.get("name")
            if not isinstance(name, str) or name in names_seen:
                return False
            names_seen.add(name)
        for key in sorted(head.pruned):
            if key == "name":
                continue
            values = [v.pruned.get(key) for v in members]
            if all(values[0] == v for v in values):
                continue
            if key in head.ref_attrs:
                return False  # varying refs cannot key-align by name
            if not all(isinstance(v, (str, int, float, bool)) for v in values):
                return False
        return True

    def _ordered_by_name_index(
        self, members: List[_RecordView]
    ) -> Optional[List[_RecordView]]:
        """Members sorted by name index, if names are prefix-0..n-1."""
        indexed: List[Tuple[int, _RecordView]] = []
        prefixes = set()
        for view in members:
            name = str(view.record.attrs.get("name", ""))
            match = _NAME_INDEX_RE.match(name)
            if not match:
                return None
            indexed.append((int(match.group("index")), view))
            prefixes.add(match.group("prefix"))
        if len(prefixes) != 1:
            return None
        indexed.sort(key=lambda pair: pair[0])
        if [i for i, _ in indexed] != list(range(len(indexed))):
            return None
        return [v for _, v in indexed]

    def _try_group(
        self,
        ordered: List[_RecordView],
        by_id: Dict[str, "_RecordView"],
        bucket_of: Dict[str, Tuple],
        membership: Dict[str, Tuple[Tuple, int]],
        pending: Dict[Tuple, List[_RecordView]],
    ) -> str:
        """'ok' | 'fail' | 'defer' (a target bucket is still undecided)."""
        head = ordered[0]
        for key in sorted(head.pruned):
            if key == "name":
                continue
            values = [v.pruned.get(key) for v in ordered]
            if all(values[0] == v for v in values):
                continue
            if key not in head.ref_attrs:
                if all(isinstance(v, (str, int, float, bool)) for v in values):
                    continue  # element([...], count.index)
                return "fail"
            verdict = self._check_aligned_refs(
                ordered, key, by_id, bucket_of, membership, pending
            )
            if verdict != "ok":
                return verdict
        return "ok"

    def _check_aligned_refs(
        self,
        ordered: List[_RecordView],
        key: str,
        by_id: Dict[str, "_RecordView"],
        bucket_of: Dict[str, Tuple],
        membership: Dict[str, Tuple[Tuple, int]],
        pending: Dict[Tuple, List[_RecordView]],
    ) -> str:
        target_bucket: Optional[Tuple] = None
        for i, view in enumerate(ordered):
            targets = view.ref_attrs.get(key, [])
            if len(targets) != 1:
                return "fail"
            target_id = targets[0]
            if target_id in membership:
                bucket, pos = membership[target_id]
                if pos != i:
                    return "fail"
                if target_bucket is None:
                    target_bucket = bucket
                elif target_bucket != bucket:
                    return "fail"
                continue
            if bucket_of.get(target_id) in pending:
                return "defer"
            return "fail"
        return "ok"

    def _group_name(
        self, group: List[_RecordView], names: Dict[str, str]
    ) -> str:
        name = str(group[0].record.attrs.get("name", group[0].id))
        match = _NAME_INDEX_RE.match(name)
        if match:
            return _sanitize(match.group("prefix"))
        # for_each groups: longest common name prefix, else the type
        import os

        common = os.path.commonprefix(
            [str(v.record.attrs.get("name", "")) for v in group]
        ).strip("-_")
        if len(common) >= 3:
            return _sanitize(common)
        return _sanitize(group[0].type.split("_", 1)[-1])

    def _group_block(
        self,
        group: List[_RecordView],
        gname: str,
        expr_of: Dict[str, str],
        membership: Dict[str, Tuple[int, int]],
    ) -> EmittedBlock:
        head = group[0]
        name = str(head.record.attrs.get("name", ""))
        match = _NAME_INDEX_RE.match(name)
        assert match is not None
        prefix = match.group("prefix")
        sep = name[len(prefix)] if len(name) > len(prefix) else "-"
        override: Dict[str, Any] = {
            "name": RawExpr(f'"{prefix}{sep}${{count.index}}"')
        }
        for key in sorted(head.pruned):
            if key == "name":
                continue
            values = [v.pruned.get(key) for v in group]
            if all(values[0] == v for v in values):
                continue
            if key in head.ref_attrs:
                # index-aligned reference: rewrite through count.index
                target_id = head.ref_attrs[key][0]
                target_expr = expr_of.get(target_id, "")
                base = re.sub(r"\[\d+\]$", "", target_expr)
                ref = RawExpr(f"{base}[count.index].id")
                override[key] = (
                    [ref] if isinstance(head.pruned[key], list) else ref
                )
                continue
            override[key] = self._varying_scalar_expr(values)
        attrs = self._render_attrs(head, expr_of, membership, override)
        return resource_block(
            head.type, gname, attrs, count=len(group)
        )

    def _varying_scalar_expr(self, values: List[Any]) -> RawExpr:
        """Render an index-varying scalar: cidrsubnet if the values form
        a contiguous subnet ladder, element([...]) otherwise."""
        pattern = self._cidr_ladder(values)
        if pattern is not None:
            base, newbits = pattern
            return RawExpr(f'cidrsubnet("{base}", {newbits}, count.index)')
        from .emitter import render_value

        rendered = ", ".join(render_value(v) for v in values)
        return RawExpr(f"element([{rendered}], count.index)")

    def _cidr_ladder(self, values: List[Any]) -> Optional[Tuple[str, int]]:
        """Detect values == cidrsubnet(base, nb, i) for i = 0..n-1."""
        import ipaddress

        try:
            nets = [ipaddress.ip_network(str(v), strict=True) for v in values]
        except ValueError:
            return None
        prefixlen = nets[0].prefixlen
        if any(n.prefixlen != prefixlen for n in nets):
            return None
        step = 2 ** (nets[0].max_prefixlen - prefixlen)
        first = int(nets[0].network_address)
        for i, net in enumerate(nets):
            if int(net.network_address) != first + i * step:
                return None
        min_bits = max(1, (len(values) - 1).bit_length())
        for newbits in (8, min_bits):
            base_prefix = prefixlen - newbits
            if base_prefix < 0:
                continue
            base = ipaddress.ip_network((first, base_prefix), strict=False)
            if int(base.network_address) == first and 2**newbits >= len(values):
                return str(base), newbits
        return None

    def _for_each_block(
        self,
        group: List[_RecordView],
        gname: str,
        expr_of: Dict[str, str],
        membership: Dict[str, Tuple[int, int]],
    ) -> EmittedBlock:
        head = group[0]
        varying = [
            key
            for key in sorted(head.pruned)
            if key != "name"
            and any(v.pruned.get(key) != head.pruned.get(key) for v in group)
        ]
        override: Dict[str, Any] = {"name": RawExpr("each.key")}
        if varying:
            for_each_value: Any = {
                v.record.name: {key: v.pruned.get(key) for key in varying}
                for v in group
            }
            for key in varying:
                override[key] = RawExpr(f"each.value.{key}")
        else:
            for_each_value = [v.record.name for v in group]
        attrs = self._render_attrs(head, expr_of, membership, override)
        return resource_block(
            head.type, gname, attrs, for_each=for_each_value
        )

    # -- module extraction -----------------------------------------------------------

    def _extract_modules(
        self,
        views: List[_RecordView],
        by_id: Dict[str, "_RecordView"],
        names: Dict[str, str],
    ):
        components = self._components(views, by_id)
        signatures: Dict[Tuple, List[List[_RecordView]]] = defaultdict(list)
        for component in components:
            signature = self._component_signature(component, by_id)
            if signature is not None:
                signatures[signature].append(component)
        module_blocks: List[EmittedBlock] = []
        module_sources: Dict[str, Dict[str, str]] = {}
        module_state: List[ResourceState] = []
        consumed: Set[str] = set()
        module_index = 0
        for signature, comps in sorted(signatures.items(), key=lambda kv: str(kv[0])):
            if len(comps) < 2 or len(comps[0]) < self.min_module_size:
                continue
            module_index += 1
            mname = f"stack_{module_index}"
            source = f"./modules/{mname}"
            blocks, calls, entries = self._emit_module(
                mname, source, comps, by_id
            )
            module_sources[source] = {"main.clc": blocks}
            module_blocks.extend(calls)
            module_state.extend(entries)
            for component in comps:
                consumed |= {v.id for v in component}
        remaining = [v for v in views if v.id not in consumed]
        return module_blocks, remaining, module_sources, module_state

    def _components(
        self, views: List[_RecordView], by_id: Dict[str, "_RecordView"]
    ) -> List[List[_RecordView]]:
        parent: Dict[str, str] = {v.id: v.id for v in views}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for view in views:
            for targets in view.ref_attrs.values():
                for target in targets:
                    if target in parent:
                        union(view.id, target)
        comps: Dict[str, List[_RecordView]] = defaultdict(list)
        for view in views:
            comps[find(view.id)].append(view)
        return [
            sorted(c, key=lambda v: (v.type, v.id))
            for c in sorted(comps.values(), key=lambda c: c[0].id)
        ]

    def _component_signature(
        self, component: List[_RecordView], by_id: Dict[str, "_RecordView"]
    ) -> Optional[Tuple]:
        """Canonical shape; None if types repeat (mapping ambiguous)."""
        types = [v.type for v in component]
        if len(set(types)) != len(types):
            return None
        type_of = {v.id: v.type for v in component}
        shape = []
        for view in component:
            edges = []
            for attr, targets in sorted(view.ref_attrs.items()):
                for target in targets:
                    if target in type_of:
                        edges.append((attr, type_of[target]))
                    else:
                        edges.append((attr, "<external>"))
            shape.append((view.type, tuple(sorted(view.pruned)), tuple(sorted(edges))))
        return tuple(sorted(shape))

    def _emit_module(
        self,
        mname: str,
        source: str,
        comps: List[List[_RecordView]],
        by_id: Dict[str, "_RecordView"],
    ):
        """Render the module definition, its calls, and state entries."""
        template = comps[0]
        local_name = {v.type: _sanitize(v.type.split("_", 1)[-1]) for v in template}
        by_type = [
            {v.type: v for v in comp} for comp in comps
        ]
        # which (type, attr) vary across component instances?
        variables: List[Tuple[str, str]] = []  # (type, attr)
        for view in template:
            for key in sorted(view.pruned):
                if key in view.ref_attrs:
                    internal = all(
                        t in {x.id for x in template}
                        for t in view.ref_attrs[key]
                    )
                    if internal:
                        continue
                    variables.append((view.type, key))
                    continue
                values = [
                    by_type[i][view.type].pruned.get(key)
                    for i in range(len(comps))
                ]
                if any(values[0] != v for v in values):
                    variables.append((view.type, key))
        var_name = {
            (rtype, attr): f"{local_name[rtype]}_{attr}" for rtype, attr in variables
        }

        # module body
        body_blocks: List[EmittedBlock] = []
        for rtype, attr in variables:
            body_blocks.append(variable_block(var_name[(rtype, attr)]))
        template_ids = {v.id for v in template}
        for view in template:
            attrs: List[Tuple[str, Any]] = []
            for key in sorted(view.pruned):
                if (view.type, key) in var_name:
                    attrs.append((key, RawExpr(f"var.{var_name[(view.type, key)]}")))
                elif key in view.ref_attrs:
                    exprs = []
                    for target in view.ref_attrs[key]:
                        tview = by_id[target]
                        exprs.append(
                            RawExpr(
                                f"{tview.type}.{local_name[tview.type]}.id"
                            )
                        )
                    attrs.append(
                        (key, exprs if isinstance(view.pruned[key], list) else exprs[0])
                    )
                else:
                    attrs.append((key, view.pruned[key]))
            body_blocks.append(
                resource_block(view.type, local_name[view.type], attrs)
            )
        module_text = emit_config(body_blocks)

        # calls + state
        calls: List[EmittedBlock] = []
        entries: List[ResourceState] = []
        for i, comp in enumerate(comps):
            call_name = f"{mname}_{i}"
            args: List[Tuple[str, Any]] = []
            for rtype, attr in variables:
                view = by_type[i][rtype]
                value = view.pruned.get(attr)
                if attr in view.ref_attrs:
                    # external reference: pass the raw id (cannot resolve
                    # outside knowledge here); kept literal
                    args.append((var_name[(rtype, attr)], value))
                else:
                    args.append((var_name[(rtype, attr)], value))
            calls.append(module_block(call_name, source, args))
            for view in comp:
                entries.append(
                    ResourceState(
                        address=ResourceAddress(
                            type=view.type,
                            name=local_name[view.type],
                            module_path=(call_name,),
                        ),
                        resource_id=view.id,
                        provider=self.registry.provider_of(view.type),
                        attrs=view.record.snapshot(),
                        region=view.record.region,
                    )
                )
        return module_text, calls, entries

    # -- state helper -----------------------------------------------------------------

    def _record_state(
        self, state: StateDocument, view: _RecordView, address: ResourceAddress
    ) -> None:
        state.set(
            ResourceState(
                address=address,
                resource_id=view.id,
                provider=self.registry.provider_of(view.type),
                attrs=view.record.snapshot(),
                region=view.record.region,
            )
        )
