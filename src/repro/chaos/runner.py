"""The campaign runner: scenario x trial matrices with twin engines.

Every trial runs the same seeded lifecycle **twice**:

* the **baseline arm** -- no injections; the uninterrupted run that
  defines what the estate is supposed to look like, and
* the **chaos arm** -- the scenario's injections armed, then the same
  phases, then a **drain**: advance past every injection's recovery
  horizon, release what must be released (squatters, quotas,
  re-clocked planes), resume until the journal retires, and reconcile
  until a scan comes back clean.

Identity-keyed id minting (PR 8) makes the two arms comparable down to
:meth:`~repro.state.document.StateDocument.content_hash`: same seed,
same identities, same ids -- chaos only changes *when* things landed,
never *what*. The trial passes when every convergence invariant in
:mod:`repro.chaos.invariants` holds and the chaos arm's WAL retired
clean.

The runner never asserts; it reports. Violations are strings on the
:class:`TrialResult`, so one campaign run surfaces every broken
invariant across the whole matrix -- the test sweeps and the CI job
then assert on the report.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Any, Dict, List, Tuple

from ..cloud.base import CloudAPIError
from ..cloud.resilience import RetryPolicy
from ..core.engine import CloudlessEngine
from ..deploy import SimulatedCrash
from ..drift import FullScanDetector
from .dsl import CampaignSpec, ScenarioSpec
from .invariants import convergence_violations
from .seeds import derive_seed

#: the patient schedule high-blanket-fault scenarios need (p_fail ~
#: rate^6 per resource); mirrors the historical chaos sweep
PATIENT_RETRY = RetryPolicy(max_attempts=6, base_backoff_s=2.0)

#: simulated seconds past an injection horizon the drain advances --
#: covers breaker probe windows and residual retry backoff
DRAIN_MARGIN_S = 4000.0

#: resumes the drain tries before it gives up, and reconcile <-> resume
#: passes the repair fixpoint makes
DRAIN_ATTEMPTS = 6

#: detect + reconcile rounds the drain allows before a scan is clean
RECONCILE_ROUNDS = 8

#: rollback passes a ``rollback`` phase makes before it reports errors
ROLLBACK_ATTEMPTS = 5


@dataclasses.dataclass
class PhaseRecord:
    """What one lifecycle phase did in one arm."""

    op: str
    ok: bool
    partial: bool = False
    succeeded: int = 0
    failed: int = 0
    quarantined: List[str] = dataclasses.field(default_factory=list)
    crashed: bool = False
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class TrialResult:
    """One seeded run of one scenario, both arms compared."""

    scenario: str
    trial: int
    seed: int
    violations: List[str]
    phases: List[PhaseRecord]
    phases_baseline: List[PhaseRecord]
    api_calls_chaos: int = 0
    api_calls_baseline: int = 0
    makespan_chaos_s: float = 0.0
    makespan_baseline_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def api_overhead(self) -> float:
        """Recovery overhead: chaos-arm API calls over baseline's."""
        if self.api_calls_baseline <= 0:
            return 0.0
        return self.api_calls_chaos / self.api_calls_baseline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "trial": self.trial,
            "seed": self.seed,
            "passed": self.passed,
            "violations": list(self.violations),
            "api_calls_chaos": self.api_calls_chaos,
            "api_calls_baseline": self.api_calls_baseline,
            "api_overhead": round(self.api_overhead, 4),
            "makespan_chaos_s": round(self.makespan_chaos_s, 1),
            "makespan_baseline_s": round(self.makespan_baseline_s, 1),
            "phases": [p.to_dict() for p in self.phases],
        }


@dataclasses.dataclass
class ScenarioResult:
    name: str
    defect_classes: List[str]
    trials: List[TrialResult]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.trials)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "defect_classes": list(self.defect_classes),
            "trials": [t.to_dict() for t in self.trials],
        }


@dataclasses.dataclass
class CampaignReport:
    """Everything one campaign run produced, JSON-serializable."""

    campaign: str
    results: List[ScenarioResult]

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    @property
    def pass_rate(self) -> float:
        trials = [t for r in self.results for t in r.trials]
        if not trials:
            return 0.0
        return sum(1 for t in trials if t.passed) / len(trials)

    @property
    def mean_api_overhead(self) -> float:
        """Mean recovery overhead across trials (chaos/baseline calls)."""
        ratios = [
            t.api_overhead
            for r in self.results
            for t in r.trials
            if t.api_calls_baseline > 0
        ]
        if not ratios:
            return 0.0
        return sum(ratios) / len(ratios)

    def coverage(self) -> Dict[str, List[str]]:
        """Defect class -> the scenarios that exercise it."""
        out: Dict[str, List[str]] = {}
        for result in self.results:
            for klass in result.defect_classes:
                out.setdefault(klass, []).append(result.name)
        return {k: sorted(v) for k, v in sorted(out.items())}

    def violations(self) -> List[str]:
        return [
            f"{r.name}[trial {t.trial}]: {v}"
            for r in self.results
            for t in r.trials
            for v in t.violations
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "passed": self.passed,
            "pass_rate": round(self.pass_rate, 4),
            "mean_api_overhead": round(self.mean_api_overhead, 4),
            "coverage": self.coverage(),
            "scenarios": [r.to_dict() for r in self.results],
        }


class CampaignRunner:
    """Executes a :class:`CampaignSpec` and reports convergence."""

    def __init__(self, campaign: CampaignSpec, workdir: str):
        self.campaign = campaign
        #: where trials write their journals and tenant roots; the
        #: caller owns it and removes it
        self.workdir = workdir

    # -- entry points --------------------------------------------------------

    def run(self) -> CampaignReport:
        return CampaignReport(
            campaign=self.campaign.name,
            results=[
                self.run_scenario(scenario)
                for scenario in self.campaign.scenarios
            ],
        )

    def run_scenario(self, scenario: ScenarioSpec) -> ScenarioResult:
        return ScenarioResult(
            name=scenario.name,
            defect_classes=scenario.defect_classes(),
            trials=[
                self.run_trial(scenario, trial)
                for trial in range(scenario.trials)
            ],
        )

    def run_trial(self, scenario: ScenarioSpec, trial: int) -> TrialResult:
        seed = derive_seed(self.campaign.name, scenario.name, trial)
        tag = f"{scenario.name}-{trial}"

        # baseline arm first: the uninterrupted run also measures each
        # crash_apply phase's event-boundary count, which the chaos arm
        # needs to map kill fractions onto concrete boundaries
        baseline = self._engine(scenario, seed, f"{tag}-base")
        base_ctx: Dict[str, Any] = {"externals": [], "boundaries": {}}
        base_records = [
            self._run_phase(baseline, scenario, seed, i, phase, base_ctx,
                            injected=False)
            for i, phase in enumerate(scenario.phases)
        ]
        base_drain_ok = self._drain(baseline, [], base_ctx)

        chaos = self._engine(scenario, seed, f"{tag}-chaos")
        chaos_ctx: Dict[str, Any] = {
            "externals": [],
            "boundaries": base_ctx["boundaries"],
            # per-tenant canonical baselines a tenant_storm phase's
            # baseline arm computed; the chaos arm converges against them
            "tenant_baselines": base_ctx.get("tenant_baselines", {}),
        }
        injections = scenario.injections
        for injection in injections:
            injection.arm(chaos)
        chaos_records = [
            self._run_phase(chaos, scenario, seed, i, phase, chaos_ctx,
                            injected=True)
            for i, phase in enumerate(scenario.phases)
        ]
        drain_ok = self._drain(chaos, injections, chaos_ctx)

        violations: List[str] = list(chaos_ctx.get("violations", []))
        if not base_drain_ok:
            violations.append(
                "baseline arm failed to converge (runner invariant)"
            )
        if not drain_ok:
            violations.append(
                "chaos arm failed to drain to a converged estate"
            )
        violations.extend(
            convergence_violations(
                chaos, baseline, strict_hash=scenario.strict_hash
            )
        )
        wal = chaos.wal_path
        if wal and os.path.exists(wal) and os.path.getsize(wal) != 0:
            violations.append("intent journal was not retired clean")

        return TrialResult(
            scenario=scenario.name,
            trial=trial,
            seed=seed,
            violations=violations,
            phases=chaos_records,
            phases_baseline=base_records,
            api_calls_chaos=chaos.gateway.total_api_calls(),
            api_calls_baseline=baseline.gateway.total_api_calls(),
            makespan_chaos_s=chaos.clock.now,
            makespan_baseline_s=baseline.clock.now,
        )

    # -- plumbing ------------------------------------------------------------

    def _engine(
        self, scenario: ScenarioSpec, seed: int, tag: str
    ) -> CloudlessEngine:
        return CloudlessEngine(
            seed=seed,
            retry=PATIENT_RETRY if scenario.patient_retry else None,
            wal_path=os.path.join(self.workdir, f"{tag}.wal"),
        )

    def _run_phase(
        self,
        engine: CloudlessEngine,
        scenario: ScenarioSpec,
        seed: int,
        index: int,
        phase: Dict[str, Any],
        ctx: Dict[str, Any],
        injected: bool,
    ) -> PhaseRecord:
        op = phase["op"]
        handler = getattr(self, f"_phase_{op}")
        return handler(engine, scenario, seed, index, phase, ctx, injected)

    @staticmethod
    def _apply_record(op: str, result, **details: Any) -> PhaseRecord:
        apply_result = result.apply
        if apply_result is None:
            return PhaseRecord(op=op, ok=False, details=details)
        return PhaseRecord(
            op=op,
            ok=result.ok,
            partial=result.partial,
            succeeded=len(apply_result.succeeded),
            failed=len(apply_result.failed),
            quarantined=apply_result.quarantined_partitions(),
            details=details,
        )

    def _phase_apply(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        sources = scenario.sources(phase.get("workload_args"))
        result = engine.apply(sources)
        return self._apply_record("apply", result)

    def _phase_crash_apply(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        sources = scenario.sources(phase.get("workload_args"))
        if not injected:
            # the baseline arm runs uninterrupted, counting boundaries
            # so the chaos arm can target one
            boundaries: List[int] = []
            result = engine.apply(sources, crash_hook=boundaries.append)
            ctx["boundaries"][index] = len(boundaries)
            return self._apply_record(
                "crash_apply", result, boundaries=len(boundaries)
            )

        total = ctx["boundaries"].get(index, 0)
        if "kill_point" in phase:
            kill = phase["kill_point"]
        else:
            kill = int(round(phase.get("kill_frac", 0.5) * total))
        kill = max(0, min(total - 1, kill)) if total else 0

        def hook(i, _k=kill):
            if i == _k:
                raise SimulatedCrash(f"campaign kill at boundary {_k}")

        crashed = False
        try:
            engine.apply(sources, crash_hook=hook)
        except SimulatedCrash:
            crashed = True
        # the cloud outlives the dead client: accepted in-flight
        # operations still land before recovery probes
        engine.gateway.settle_inflight()
        outcome = engine.resume(sources)
        record = self._apply_record(
            "crash_apply",
            outcome.result,
            kill_point=kill,
            boundaries=total,
            recovered=outcome.recovery is not None
            and bool(outcome.recovery.actions),
        )
        record.crashed = crashed
        return record

    def _phase_churn(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        """Seeded external mutation burst (ClickOps storm).

        Both arms derive the same RNG, so -- as long as both arms hold
        live records for the chosen addresses -- they mutate the same
        targets and converge to the same repaired estate. Scenarios
        that churn *while* an injection hides part of the estate should
        set ``strict_hash=False``: the arms may then pick different
        victims, which reconciliation heals canonically but not
        id-identically.
        """
        rng = random.Random(seed * 1000003 + index)
        plane_of = lambda e: engine.gateway.planes[  # noqa: E731
            engine.gateway.provider_of(e.address.type)
        ]
        live = [
            e
            for e in sorted(
                engine.state.resources(), key=lambda e: str(e.address)
            )
            if e.resource_id
            and engine.gateway.find_record(e.resource_id) is not None
        ]
        vms = [e for e in live if e.address.type.endswith("virtual_machine")]
        firewalls = [
            e for e in live if e.address.type.endswith("security_group")
        ]
        counts = {"updates": 0, "deletes": 0, "creates": 0, "security": 0}

        for _ in range(phase.get("updates", 0)):
            if not vms:
                break
            entry = vms.pop(rng.randrange(len(vms)))
            plane_of(entry).external_update(
                entry.resource_id, {"size": "xlarge"}
            )
            counts["updates"] += 1
        for _ in range(phase.get("security", 0)):
            if not firewalls:
                break
            entry = firewalls.pop(rng.randrange(len(firewalls)))
            plane_of(entry).external_update(
                entry.resource_id,
                {"ingress_rules": [{"port": 22, "cidr": "0.0.0.0/0"}]},
            )
            counts["security"] += 1
        for _ in range(phase.get("deletes", 0)):
            if not vms:
                break
            entry = vms.pop(rng.randrange(len(vms)))
            plane_of(entry).external_delete(entry.resource_id)
            counts["deletes"] += 1
        plane = engine.gateway.planes["aws"]
        for i in range(phase.get("creates", 0)):
            rid = plane.external_create(
                "aws_s3_bucket",
                {"name": f"rogue-{index}-{i}"},
                plane.regions[0],
                actor="shadow-it",
            )
            ctx["externals"].append(("aws", rid))
            counts["creates"] += 1
        return PhaseRecord(op="churn", ok=True, details=counts)

    def _phase_reconcile(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        rounds = phase.get("rounds", 6)
        clean, repaired = self._repair_fixpoint(engine, rounds)
        return PhaseRecord(
            op="reconcile",
            ok=clean,
            details={"repaired": repaired, "rounds": rounds},
        )

    def _phase_watch(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        cycles = engine.watch_continuously(
            cycles=phase.get("cycles", 3),
            interval_s=phase.get("interval_s", 60.0),
            max_lag_s=phase.get("max_lag_s", 900.0),
            auto_reconcile=True,
        )
        return PhaseRecord(
            op="watch",
            ok=not any(c.hard_failed for c in cycles),
            details={
                "findings": sum(len(c.findings) for c in cycles),
                "deferred": len(cycles[-1].deferred) if cycles else 0,
                "stale": sorted(
                    {p for c in cycles for p in c.stale}
                ),
                "defects": _merge_counts(
                    c.defect_counts() for c in cycles
                ),
            },
        )

    def _phase_snapshot(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        snap = engine.history.checkpoint(
            engine.state,
            engine.last_sources,
            timestamp=engine.clock.now,
            description=f"campaign snapshot (phase {index})",
        )
        ctx["snapshot"] = snap.version
        return PhaseRecord(
            op="snapshot", ok=True, details={"version": snap.version}
        )

    def _phase_rollback(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        version = ctx.get("snapshot")
        if version is None:
            return PhaseRecord(
                op="rollback",
                ok=False,
                details={"error": "no snapshot phase preceded rollback"},
            )
        # a faulted rollback pass leaves a remainder; re-planning from
        # current state resumes it (mirrors the historical sweep)
        attempts = 0
        result = None
        for attempts in range(1, ROLLBACK_ATTEMPTS + 1):
            result = engine.rollback(version)
            if not result.errors:
                break
        return PhaseRecord(
            op="rollback",
            ok=not result.errors,
            details={
                "version": version,
                "attempts": attempts,
                "errors": len(result.errors),
                "redeployments": result.plan.redeployments,
            },
        )

    def _phase_tenant_storm(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        """Kill-and-preempt a multi-tenant service mid-storm.

        The baseline arm builds each tenant's estate on a private
        single-tenant engine (seeded exactly like the service seeds its
        sessions) and records the canonical states. The chaos arm runs
        the same applies through a :class:`ControlPlaneService`,
        crashing the first ``kill_frac`` of the tenants mid-apply, then
        SIGKILLs the whole instance, restarts a successor that preempts
        the dead instance's session leases, resumes the orphans, and
        requires every tenant -- killed or bystander -- to converge to
        its baseline with an all-noop final apply. Cross-tenant bleed
        (a bystander whose estate changed because a neighbor died) is a
        violation. Runs with ``service.*`` perf probes enabled and
        reports their snapshot in the phase details (the counter
        contract the campaign report asserts on).
        """
        import asyncio

        from ..perf import PERF
        from .invariants import canonical_state

        tenants = [f"t{i:02d}" for i in range(phase.get("tenants", 4))]
        sources = scenario.sources(phase.get("workload_args"))
        kill_count = max(
            1, int(round(phase.get("kill_frac", 0.5) * len(tenants)))
        )
        killed = tenants[:kill_count]

        if not injected:
            from ..service.core import _tenant_seed

            baselines: Dict[str, Any] = {}
            for tenant in tenants:
                single = CloudlessEngine(seed=_tenant_seed(tenant))
                result = single.apply(sources)
                if not result.ok:
                    return PhaseRecord(
                        op="tenant_storm",
                        ok=False,
                        details={"error": f"baseline apply failed: {tenant}"},
                    )
                baselines[tenant] = canonical_state(single)
            ctx["tenant_baselines"] = baselines
            return PhaseRecord(
                op="tenant_storm",
                ok=True,
                succeeded=len(tenants),
                details={"tenants": len(tenants), "killed": 0},
            )

        baselines = ctx.get("tenant_baselines", {})
        violations: List[str] = ctx.setdefault("violations", [])
        root = os.path.join(self.workdir, f"storm-{seed}-{index}")
        was_enabled = PERF.enabled
        PERF.enable()
        try:
            details = asyncio.run(
                _run_tenant_storm(
                    root, tenants, killed, sources,
                    phase.get("drift_reads", 1), baselines, violations,
                )
            )
        finally:
            if not was_enabled:
                PERF.disable()
        return PhaseRecord(
            op="tenant_storm",
            ok=not violations,
            succeeded=details.pop("converged"),
            failed=len(violations),
            crashed=True,
            details=details,
        )

    def _phase_advance(
        self, engine, scenario, seed, index, phase, ctx, injected
    ) -> PhaseRecord:
        if "to_s" in phase:
            engine.clock.advance_to(
                max(engine.clock.now, float(phase["to_s"]))
            )
        else:
            engine.clock.advance_by(float(phase.get("by_s", 0.0)))
        return PhaseRecord(
            op="advance", ok=True, details={"now": engine.clock.now}
        )

    # -- drain ---------------------------------------------------------------

    def _drain(self, engine, injections, ctx) -> bool:
        """Advance past every horizon, release, converge, reconcile."""
        horizon = max(
            [inj.horizon() for inj in injections] + [0.0]
        )
        if horizon > 0.0:
            engine.clock.advance_to(
                max(engine.clock.now, horizon + DRAIN_MARGIN_S)
            )
        for injection in injections:
            injection.release(engine)
        for provider, rid in ctx["externals"]:
            try:
                engine.gateway.planes[provider].external_delete(
                    rid, actor="shadow-it"
                )
            except CloudAPIError:
                pass
        ctx["externals"] = []

        converged = False
        for _ in range(DRAIN_ATTEMPTS):
            outcome = engine.resume()
            if outcome.ok:
                converged = True
                break
            # still dark somewhere? advance past the freshest horizon;
            # otherwise give residual backoff/breaker windows room
            dark = engine.gateway.dark_partitions()
            if dark:
                engine.clock.advance_to(
                    max(dark.values()) + DRAIN_MARGIN_S
                )
            else:
                engine.clock.advance_by(DRAIN_MARGIN_S)
        if not converged:
            return False
        clean, _ = self._repair_fixpoint(engine, RECONCILE_ROUNDS)
        return clean

    def _repair_fixpoint(
        self, engine, rounds: int
    ) -> Tuple[bool, int]:
        """Reconcile <-> resume until a fixpoint: a repair can mint new
        ids (enforce-recreate), and only a fresh apply pass propagates
        them into config-derived references (lb target lists, computed
        endpoints) and refreshed dependency edges. Without it, a later
        snapshot captures -- and a rollback tries to restore -- a
        reference to a dead id."""
        total = 0
        for _ in range(DRAIN_ATTEMPTS):
            clean, repaired = self._reconcile_until_clean(engine, rounds)
            total += repaired
            if not clean:
                return False, total
            if repaired == 0:
                return True, total
            if not engine.resume().ok:
                return False, total
        return False, total

    def _reconcile_until_clean(
        self, engine, rounds: int
    ) -> Tuple[bool, int]:
        """Detect + reconcile until a scan comes back clean; runner
        rogues are unmanaged (notify-only) and never block cleanliness."""
        repaired = 0
        for _ in range(rounds):
            run = FullScanDetector(engine.resilient).scan(engine.state)
            findings = [f for f in run.findings if f.kind != "unmanaged"]
            if not findings:
                return True, repaired
            engine.reconcile(findings)
            repaired += len(findings)
        run = FullScanDetector(engine.resilient).scan(engine.state)
        return (
            not [f for f in run.findings if f.kind != "unmanaged"],
            repaired,
        )


class _KillAtBoundary:
    """Crash hook: dies at the Nth event boundary (SIGKILL stand-in)."""

    def __init__(self, boundary: int):
        self.boundary = boundary
        self.seen = 0

    def __call__(self, *args: Any, **kwargs: Any) -> None:
        self.seen += 1
        if self.seen >= self.boundary:
            raise SimulatedCrash(f"tenant-storm kill at boundary {self.boundary}")


async def _run_tenant_storm(
    root: str,
    tenants: List[str],
    killed: List[str],
    sources: str,
    drift_reads: int,
    baselines: Dict[str, Any],
    violations: List[str],
) -> Dict[str, Any]:
    """Drive the service through storm -> kill -> preempt -> converge."""
    import asyncio

    from ..perf import PERF
    from ..service import ControlPlaneService, ServicePolicy, TenantQuota
    from .invariants import canonical_state

    # generous quotas: the storm tests crash recovery and isolation, so
    # admission shedding would only add noise here
    policy = ServicePolicy(
        apply_pool=4,
        max_queue_depth=max(64, 8 * len(tenants)),
        default_deadline_s=600.0,
        default_quota=TenantQuota(
            rate_rps=1e6, burst=1e6, max_pending=1 + drift_reads + 8
        ),
    )
    service = ControlPlaneService(root, instance="storm-A", policy=policy)
    await service.start()
    applies = {}
    for tenant in tenants:
        payload: Dict[str, Any] = {"sources": sources}
        if tenant in killed:
            payload["crash_hook"] = _KillAtBoundary(2)
        applies[tenant] = await service.submit(tenant, "apply", payload=payload)
    reads = []
    for tenant in tenants:
        for _ in range(drift_reads):
            reads.append(await service.submit(tenant, "drift"))
    responses = {tenant: await fut for tenant, fut in applies.items()}
    read_responses = list(await asyncio.gather(*reads))

    for tenant, response in sorted(responses.items()):
        if tenant in killed:
            if response.reason != "crashed":
                violations.append(
                    f"tenant_storm: kill of {tenant} answered "
                    f"{response.status}/{response.reason}, expected a "
                    f"typed crash"
                )
        elif response.status != 200:
            violations.append(
                f"tenant_storm: bystander {tenant} apply failed with "
                f"{response.status}/{response.reason}"
            )
    untyped = sum(
        1 for r in read_responses if r.status != 200 and not r.reason
    )
    if untyped:
        violations.append(
            f"tenant_storm: {untyped} read(s) came back untyped"
        )
    await service.kill()

    successor = ControlPlaneService(root, instance="storm-B", policy=policy)
    await successor.start()
    adopted = 0
    for tenant in killed:
        resumed = await successor.request(
            tenant, "resume", payload={"sources": sources}
        )
        if resumed.status != 200:
            violations.append(
                f"tenant_storm: resume of {tenant} failed with "
                f"{resumed.status}/{resumed.reason}"
            )
        else:
            adopted += int((resumed.body or {}).get("adopted", 0))
    converged = 0
    for tenant in tenants:
        final = await successor.request(
            tenant, "apply", payload={"sources": sources}
        )
        if final.status != 200:
            violations.append(
                f"tenant_storm: final apply for {tenant} failed with "
                f"{final.status}/{final.reason}"
            )
            continue
        summary = (final.body or {}).get("summary", {})
        mutations = sum(
            count
            for verb, count in summary.items()
            if verb not in ("noop", "read")
        )
        if mutations:
            violations.append(
                f"tenant_storm: final apply for {tenant} was not a "
                f"noop ({summary})"
            )
            continue
        state = canonical_state(successor.sessions[tenant].engine)
        if baselines and state != baselines.get(tenant):
            violations.append(
                f"tenant_storm: {tenant} diverged from its "
                f"single-tenant baseline estate"
            )
            continue
        converged += 1
    stats = successor.stats()  # also publishes the service.* gauges
    snapshot = PERF.snapshot()
    await successor.stop()
    return {
        "tenants": len(tenants),
        "killed": len(killed),
        "adopted": adopted,
        "converged": converged,
        "reads": len(read_responses),
        "shed": stats["shed"],
        "perf_counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("service.")
        },
        "perf_gauges": {
            name: value
            for name, value in snapshot["gauges"].items()
            if name.startswith("service.")
        },
        "perf_timers": {
            name: timer["count"]
            for name, timer in snapshot["timers"].items()
            if name.startswith("service.")
        },
    }


def _merge_counts(dicts) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out
