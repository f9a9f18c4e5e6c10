"""Sharded apply: partitioning, equivalence, fencing.

The sharding layer must be *invisible* in every observable except wall
time: the sharded executor runs the single executor's own dispatch loop
(same op stream, same sim makespan, same final state, with or without
faults, a WAL, or a crash), the partitioner covers the plan exactly
(every change in one shard, every edge intra-shard or declared
cross-shard).
"""

import hashlib
import json
import os
import re

import pytest

import repro.deploy
from repro import perf
from repro.cloud import CloudGateway, HealthMonitor, BreakerPolicy, RetryPolicy
from repro.cloud.faults import FaultSpec, OutageSpec
from repro.core.engine import CloudlessEngine
from repro.deploy import (
    BestEffortExecutor,
    CompletionLedger,
    CriticalPathExecutor,
    FencingError,
    IntentJournal,
    PlanExecutor,
    SequentialExecutor,
    ShardedExecutor,
    SimulatedCrash,
)
from repro.deploy.incremental import read_data_sources
from repro.graph import Planner, build_graph, partition_plan
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import (
    microservices,
    multi_cloud,
    scale_estate_sharded,
    two_region_estate,
    web_tier,
)

STRATEGIES = {
    "sequential": SequentialExecutor,
    "best-effort": BestEffortExecutor,
    "critical-path": CriticalPathExecutor,
}


def make_plan(source, seed=0, synthetic=0, state=None, gateway=None):
    clear_analysis_cache()
    if gateway is None:
        gateway = CloudGateway.simulated(seed=seed, synthetic=synthetic)
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = state if state is not None else StateDocument()
    data = read_data_sources(gateway, graph, state)
    return gateway, planner.plan(graph, state, data_values=data)


def ops_fingerprint(result):
    ops = [
        [
            op.change_id,
            op.operation,
            round(op.t_submit, 6),
            round(op.t_complete, 6),
            op.ok,
            op.error_code,
            op.attempt,
        ]
        for op in result.operations
    ]
    payload = {
        "succeeded": result.succeeded,
        "skipped": sorted(result.skipped),
        "failed": sorted(result.failed),
        "makespan_s": round(result.makespan_s, 6),
        "ops": ops,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scrubbed_estate(gateway, state):
    """Provider records keyed by (type, name) with minted ids masked --
    the id-permutation-tolerant wiring fingerprint pool mode must hold."""
    identity = (
        "id", "arn", "private_ip", "public_ip", "ip_address",
        "fqdn", "endpoint", "dns_name", "resource_uri",
    )

    def scrub(value):
        if isinstance(value, str):
            return re.sub(r"\b[a-z0-9]+-[a-z]+-[0-9a-f]{8}\b|\b[a-z]+-[0-9a-f]{8}\b", "<id>", value)
        if isinstance(value, list):
            return [scrub(v) for v in value]
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        return value

    cloud = {}
    for record in gateway.all_records():
        attrs = {k: scrub(v) for k, v in record.attrs.items() if k not in identity}
        cloud[(record.type, record.name)] = (record.region, attrs)
    return cloud, sorted(str(a) for a in state.addresses())


# -- partitioner invariants ---------------------------------------------------


class TestPartitioner:
    @pytest.fixture(params=["multi_cloud", "two_region", "synthetic"])
    def planned(self, request):
        if request.param == "multi_cloud":
            gateway, plan = make_plan(multi_cloud(), seed=3)
        elif request.param == "two_region":
            gateway, plan = make_plan(two_region_estate(40), seed=3)
        else:
            gateway, plan = make_plan(
                scale_estate_sharded(
                    140, providers=2, cross_link_every=3
                ),
                seed=3,
                synthetic=2,
            )
        return gateway, plan

    def test_exact_cover(self, planned):
        gateway, plan = planned
        partition = partition_plan(plan, gateway)
        dag = plan.execution_dag()
        seen = set()
        for shard in partition.shards.values():
            for cid in shard.change_ids:
                assert cid not in seen, f"{cid} in two shards"
                seen.add(cid)
        assert seen == set(dag.nodes)
        assert set(partition.shard_of) == seen

    def test_every_edge_intra_shard_or_cross(self, planned):
        gateway, plan = planned
        partition = partition_plan(plan, gateway)
        dag = plan.execution_dag()
        cross = set(partition.cross_edges)
        for src in dag.nodes:
            for dst in dag.successors(src):
                if partition.shard_of[src] == partition.shard_of[dst]:
                    assert (src, dst) not in cross
                else:
                    assert (src, dst) in cross, f"undeclared cross edge {src}->{dst}"
        assert partition.cross_edge_count() == len(cross)

    def test_deterministic(self, planned):
        gateway, plan = planned
        first = partition_plan(plan, gateway)
        second = partition_plan(plan, gateway)
        assert sorted(first.shards) == sorted(second.shards)
        for sid in first.shards:
            assert first.shards[sid].change_ids == second.shards[sid].change_ids
        assert first.shard_of == second.shard_of

    def test_shard_partition_key_is_provider_region(self, planned):
        gateway, plan = planned
        partition = partition_plan(plan, gateway)
        for shard in partition.shards.values():
            assert shard.provider in gateway.planes
            found = partition.shards_for_partition(shard.provider, shard.region)
            assert shard.id in found

    def test_max_shards_caps_count(self, planned):
        gateway, plan = planned
        unbounded = partition_plan(plan, gateway, split_components=True)
        capped = partition_plan(
            plan, gateway, split_components=True, max_shards=2
        )
        assert len(capped.shards) <= 2
        assert len(capped.shards) <= len(unbounded.shards)
        # cover is preserved under the cap
        covered = set()
        for shard in capped.shards.values():
            covered |= set(shard.change_ids)
        assert covered == set(plan.execution_dag().nodes)


# -- interleaved equivalence --------------------------------------------------


#: a 0.15 fault rate must not exhaust an apply (p_fail ~ 0.15^6)
PATIENT = RetryPolicy(max_attempts=6, base_backoff_s=2.0)

ESTATES = {
    "web": web_tier,
    "micro": microservices,
    "multi": multi_cloud,
    "two_region": lambda: two_region_estate(40),
}


def run_arm(workload, make_executor, wal_path):
    """One arm of the equivalence matrix: apply ``workload`` with the
    executor ``make_executor(gateway, **kwargs)`` builds and return the
    result to compare, plus the WAL bytes where one is attached."""
    if workload in ESTATES:
        gateway, plan = make_plan(ESTATES[workload](), seed=11)
        return make_executor(gateway).apply(plan), None
    if workload == "day2":
        # converge, then edit: one plan with every mutating action
        gateway, plan = make_plan(multi_cloud(3), seed=11)
        assert CriticalPathExecutor(gateway).apply(plan).ok
        edited = (
            multi_cloud(2)
            .replace('engine     = "postgres"', 'engine     = "mysql"')
            .replace('size    = "medium"', 'size    = "large"')
        )
        _, plan = make_plan(edited, gateway=gateway, state=plan.state)
        actions = {c.action.name for c in plan.actionable()}
        assert {"UPDATE", "REPLACE", "DELETE"} <= actions
        return make_executor(gateway).apply(plan), None
    if workload == "faults":
        gateway, plan = make_plan(multi_cloud(), seed=11)
        for plane in gateway.planes.values():
            plane.faults.set_transient_rate(0.15)
        result = make_executor(gateway, retry=PATIENT).apply(plan)
        assert any(op.attempt > 1 for op in result.operations)
        return result, None
    if workload == "wal":
        gateway, plan = make_plan(multi_cloud(), seed=11)
        journal = IntentJournal(wal_path)
        journal.begin_run("equivalence")
        result = make_executor(gateway).apply(plan, wal=journal)
        journal.close()
        with open(wal_path, "rb") as handle:
            return result, handle.read()
    assert workload == "crash_resume"
    engine = CloudlessEngine(seed=11, wal_path=wal_path)
    engine._executor = lambda: make_executor(
        engine.gateway, health=engine.health
    )

    def die_at_boundary_five(index):
        if index == 5:
            raise SimulatedCrash("boundary 5")

    with pytest.raises(SimulatedCrash):
        engine.apply(multi_cloud(), crash_hook=die_at_boundary_five)
    resumed = engine.resume(multi_cloud())
    assert resumed.recovery is not None and resumed.recovery.adopted
    return resumed.result.apply, None


class TestShardedEquivalence:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "workload",
        [*ESTATES, "day2", "faults", "wal", "crash_resume"],
    )
    def test_byte_identical_to_single_executor(
        self, strategy, workload, tmp_path
    ):
        single, single_wal = run_arm(
            workload,
            lambda gw, **kw: STRATEGIES[strategy](gw, **kw),
            str(tmp_path / "single.wal"),
        )
        sharded, sharded_wal = run_arm(
            workload,
            lambda gw, **kw: ShardedExecutor(gw, strategy=strategy, **kw),
            str(tmp_path / "sharded.wal"),
        )
        assert single.ok and sharded.ok
        assert sharded.makespan_s == single.makespan_s
        assert ops_fingerprint(sharded) == ops_fingerprint(single)
        assert sharded.state.to_json() == single.state.to_json()
        assert sharded.state.content_hash() == single.state.content_hash()
        assert sharded_wal == single_wal

    def test_every_mode_runs_the_one_dispatch_loop(
        self, monkeypatch, tmp_path, capsys
    ):
        """A sharded apply goes through ``PlanExecutor.apply`` once, over
        the whole plan; there is no other mode, in the library or the CLI."""
        calls = []
        real_apply = PlanExecutor.apply

        def counting_apply(self, plan, *args, **kwargs):
            calls.append(sorted(kwargs))
            return real_apply(self, plan, *args, **kwargs)

        monkeypatch.setattr(PlanExecutor, "apply", counting_apply)
        gateway, plan = make_plan(multi_cloud(), seed=7)
        assert ShardedExecutor(gateway).apply(plan).ok
        assert calls == [["dag"]]

        deploy_dir = os.path.dirname(repro.deploy.__file__)
        for name in sorted(os.listdir(deploy_dir)):
            if name.endswith(".py"):
                with open(os.path.join(deploy_dir, name)) as handle:
                    text = handle.read()
                assert "os.fork" not in text and "pickle" not in text, name

        from repro.cli import main

        (tmp_path / "main.clc").write_text(web_tier(web_vms=1, app_vms=0))
        chdir = ["--chdir", str(tmp_path)]
        assert main([*chdir, "init"]) == 0
        with pytest.raises(SystemExit) as usage:
            main([*chdir, "apply", "--shard-workers", "2"])
        assert usage.value.code == 2
        assert "--shard-workers" in capsys.readouterr().err
        calls.clear()
        assert main([*chdir, "apply", "--shards", "0"]) == 0
        assert calls == [["dag"]]

    def test_synthetic_estate_equivalence(self):
        source = scale_estate_sharded(210, providers=3, cross_link_every=4)
        gateway1, plan1 = make_plan(source, seed=5, synthetic=3)
        single = CriticalPathExecutor(gateway1).apply(plan1)
        gateway2, plan2 = make_plan(source, seed=5, synthetic=3)
        executor = ShardedExecutor(gateway2)
        sharded = executor.apply(plan2)
        assert single.ok and sharded.ok
        assert sharded.makespan_s == single.makespan_s
        assert sharded.state.to_json() == single.state.to_json()
        assert sharded.shard_count >= 3
        # the ledger holds exactly the completions another shard waited
        # on, published under this run's grants
        ledger, partition = executor.ledger, executor.partition
        awaited = {before for before, _ in partition.cross_edges}
        assert awaited and len(ledger) == len(awaited)
        assert all(ledger.completed(cid) for cid in awaited)
        assert sharded.barrier_waits == len(partition.cross_edges)
        sid = partition.shard_of[min(awaited)]
        with pytest.raises(FencingError):
            ledger.publish(sid, ledger.current_token(sid) - 1, "zombie")

    def test_failure_in_one_shard_skips_its_dependents_in_another(self):
        """What hangs off another shard's failed change is skipped, as in
        the single run, and the shard books agree: per-shard counts add
        up and only cross edges whose source succeeded are released."""
        source = scale_estate_sharded(210, providers=3, cross_link_every=4)

        def run(factory):
            gateway, plan = make_plan(source, seed=9, synthetic=3)
            gateway.planes["syn0"].faults.add_rule(
                FaultSpec(
                    error_code="InsufficientCapacity",
                    message="no capacity",
                    match_type="syn0_load_balancer",
                    transient=False,
                    max_strikes=99,
                )
            )
            executor = factory(gateway)
            return executor, executor.apply(plan)

        _, single = run(CriticalPathExecutor)
        executor, sharded = run(ShardedExecutor)
        assert sharded.failed and set(sharded.failed) == set(single.failed)
        assert sorted(sharded.skipped) == sorted(single.skipped)
        assert sharded.state.content_hash() == single.state.content_hash()

        partition = executor.partition
        shard_of = partition.shard_of
        failing = {shard_of[cid] for cid in sharded.failed}
        assert all(sid.startswith("syn0/") for sid in failing)
        skipped = set(sharded.skipped)
        assert any(cid.startswith("syn1_") for cid in skipped)
        for sid, summary in sharded.shard_summaries.items():
            members = partition.shards[sid].change_ids
            assert summary.failed == sum(c in sharded.failed for c in members)
            assert summary.succeeded == (
                summary.changes
                - summary.failed
                - sum(c in skipped for c in members)
            )
        done = set(sharded.succeeded)
        released = [e for e in partition.cross_edges if e[0] in done]
        assert 0 < len(released) < len(partition.cross_edges)
        assert sharded.barrier_waits == len(released)
        assert len(executor.ledger) == len({before for before, _ in released})

    def test_shard_summaries_account_for_everything(self):
        gateway, plan = make_plan(multi_cloud(), seed=7)
        result = ShardedExecutor(gateway).apply(plan)
        assert result.ok
        total = sum(s.succeeded for s in result.shard_summaries.values())
        assert total == len(result.succeeded)
        assert sum(
            s.changes for s in result.shard_summaries.values()
        ) == len(plan.execution_dag().nodes)


# -- completion ledger fencing ------------------------------------------------


class TestCompletionLedger:
    def test_grant_publish_roundtrip(self):
        ledger = CompletionLedger()
        token = ledger.grant("aws/us-east-1")
        ledger.publish("aws/us-east-1", token, "aws_vpc.a")
        assert ledger.completed("aws_vpc.a")
        assert ledger.published_by("aws/us-east-1") == 1
        assert len(ledger) == 1

    def test_stale_token_fenced(self):
        ledger = CompletionLedger()
        stale = ledger.grant("s")
        fresh = ledger.grant("s")
        with pytest.raises(FencingError):
            ledger.publish("s", stale, "aws_vpc.zombie")
        assert ledger.rejected == 1
        assert not ledger.completed("aws_vpc.zombie")
        ledger.publish("s", fresh, "aws_vpc.live")
        assert ledger.completed("aws_vpc.live")

    def test_duplicate_publish_idempotent(self):
        ledger = CompletionLedger()
        token = ledger.grant("s")
        ledger.publish("s", token, "aws_vpc.a")
        ledger.publish("s", token, "aws_vpc.a")
        assert ledger.published_by("s") == 1

    def test_never_granted_is_fenced(self):
        ledger = CompletionLedger()
        with pytest.raises(FencingError):
            ledger.publish("ghost", 1, "aws_vpc.a")


# -- quarantine composition (PR 5) -------------------------------------------


class TestDarkShard:
    def test_dark_region_stalls_only_its_shard(self):
        outage = OutageSpec(start_s=0.0, end_s=50000.0, region="westus2")
        source = two_region_estate(42)

        def degraded(factory):
            gateway, plan = make_plan(source, seed=13)
            gateway.inject_outage("azure", outage)
            health = HealthMonitor(policy=BreakerPolicy())
            return factory(gateway, health).apply(plan)

        sharded = degraded(
            lambda gw, h: ShardedExecutor(gw, health=h)
        )
        single = degraded(
            lambda gw, h: CriticalPathExecutor(gw, health=h)
        )
        assert sharded.partial and not sharded.ok
        assert set(sharded.quarantined) == set(single.quarantined)
        for quarantine in sharded.quarantined.values():
            assert quarantine.partition == "azure/westus2"
        assert sorted(sharded.succeeded) == sorted(single.succeeded)
        # the dark shard's summary carries the parked work
        parked = {
            sid: s.quarantined
            for sid, s in sharded.shard_summaries.items()
            if s.quarantined
        }
        assert parked and all("azure" in sid for sid in parked)


# -- perf counters ------------------------------------------------------------


class TestShardCounters:
    def test_sharded_apply_emits_counters(self):
        perf.PERF.enable()
        perf.PERF.reset()
        try:
            gateway, plan = make_plan(multi_cloud(), seed=17)
            result = ShardedExecutor(gateway).apply(plan)
            assert result.ok
            snap = perf.PERF.snapshot()
            counters = snap["counters"]
            assert counters["shard.shards"] >= 2
            assert counters["shard.dispatches"] == len(result.succeeded)
            assert "shard.cross_edges" in counters
            assert "shard.merge_ms" in snap["timers"]
        finally:
            perf.PERF.reset()
            perf.PERF.disable()


# -- engine / CLI surface -----------------------------------------------------


class TestEngineSharded:
    def test_engine_sharded_executor_equivalent(self):
        source = multi_cloud()
        base = CloudlessEngine(seed=19)
        base_result = base.apply(source)
        assert base_result.ok
        sharded = CloudlessEngine(seed=19, executor="sharded")
        sharded_result = sharded.apply(source)
        assert sharded_result.ok
        assert (
            sharded_result.apply.makespan_s == base_result.apply.makespan_s
        )
        assert sharded.state.to_json() == base.state.to_json()

    def test_cli_parser_accepts_shard_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["apply", "--shards", "4"])
        assert args.shards == 4
