"""Sharded apply: partitioning, equivalence, fencing, incremental replan.

The sharding layer must be *invisible* in every observable except wall
time: the interleaved sharded executor runs the single executor's own
dispatch loop (same op stream, same sim makespan, same final state,
with or without faults, a WAL, or a crash), the partitioner covers the
plan exactly
(every change in one shard, every edge intra-shard or declared
cross-shard), pool mode is deterministic and wiring-equivalent, and
incremental re-planning yields the same plan the full pipeline would.
"""

import hashlib
import json
import os
import re
import time

import pytest

from repro import perf
from repro.cloud import CloudGateway, HealthMonitor, BreakerPolicy, RetryPolicy
from repro.cloud.faults import FaultSpec, OutageSpec
from repro.core.engine import CloudlessEngine
from repro.deploy import (
    BestEffortExecutor,
    CompletionLedger,
    CriticalPathExecutor,
    FencingError,
    IncrementalSession,
    IntentJournal,
    PlanExecutor,
    SequentialExecutor,
    ShardedExecutor,
    SimulatedCrash,
    sharded as sharded_module,
)
from repro.deploy.incremental import read_data_sources
from repro.graph import Planner, build_graph, partition_plan
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import (
    microservices,
    multi_cloud,
    scale_estate,
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

    def test_pool_waves_topological(self, planned):
        gateway, plan = planned
        partition = partition_plan(plan, gateway)
        waves = partition.pool_waves()
        wave_of = {}
        for i, wave in enumerate(waves):
            for group in wave:
                for sid in group:
                    wave_of[sid] = i
        assert set(wave_of) == set(partition.shards)
        for src, dst in partition.cross_edges:
            assert (
                wave_of[partition.shard_of[src]]
                <= wave_of[partition.shard_of[dst]]
            )


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
        assert sharded.mode == "interleaved"
        assert single.ok and sharded.ok
        assert sharded.makespan_s == single.makespan_s
        assert ops_fingerprint(sharded) == ops_fingerprint(single)
        assert sharded.state.to_json() == single.state.to_json()
        assert sharded.state.content_hash() == single.state.content_hash()
        assert sharded_wal == single_wal
        if workload != "day2":
            return
        # pool declines WAL and crash hooks by design; the day-2 plan
        # is the input whose deletes and replaces it must still merge
        for overlap in (True, False):
            pool, _ = run_arm(
                workload,
                lambda gw, **kw: ShardedExecutor(
                    gw, strategy=strategy, workers=4, overlap=overlap, **kw
                ),
                "",
            )
            assert pool.mode == "pool" and pool.overlapped == overlap
            assert pool.ok
            assert pool.state.content_hash() == single.state.content_hash()

    def test_every_mode_runs_the_one_dispatch_loop(self, monkeypatch):
        """Interleaved applies and pool workers both go through
        ``PlanExecutor.apply``; nothing else in ``sharded`` dispatches."""
        calls = []
        real_apply = PlanExecutor.apply

        def counting_apply(self, plan, *args, **kwargs):
            calls.append(kwargs.get("only"))
            return real_apply(self, plan, *args, **kwargs)

        monkeypatch.setattr(PlanExecutor, "apply", counting_apply)
        gateway, plan = make_plan(multi_cloud(), seed=7)
        assert ShardedExecutor(gateway).apply(plan).ok
        assert calls == [None]

        # without fork the barrier pool runs its workers in-process,
        # where the patched method can see them
        calls.clear()
        monkeypatch.delattr(os, "fork")
        gateway, plan = make_plan(multi_cloud(), seed=7)
        result = ShardedExecutor(gateway, workers=2, overlap=False).apply(plan)
        assert result.mode == "pool" and result.ok
        # one subset run per plane group, together covering the plan
        assert len(calls) == 2 and None not in calls
        assert set().union(*calls) == set(plan.execution_dag().nodes)

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


# -- pool mode ----------------------------------------------------------------


class TestPoolMode:
    SOURCE = None

    @classmethod
    def source(cls):
        if cls.SOURCE is None:
            cls.SOURCE = scale_estate_sharded(140, providers=2)
        return cls.SOURCE

    def run_pool(self):
        gateway, plan = make_plan(self.source(), seed=9, synthetic=2)
        executor = ShardedExecutor(gateway, workers=4)
        return gateway, executor.apply(plan)

    def test_pool_mode_selected_and_ok(self):
        _, result = self.run_pool()
        assert result.mode == "pool"
        assert result.ok
        assert result.waves >= 1

    def test_pool_deterministic_run_to_run(self):
        gateway1, result1 = self.run_pool()
        gateway2, result2 = self.run_pool()
        assert result1.state.to_json() == result2.state.to_json()
        assert ops_fingerprint(result1) == ops_fingerprint(result2)

    def test_pool_wiring_equivalent_to_single(self):
        gateway1, plan1 = make_plan(self.source(), seed=9, synthetic=2)
        single = CriticalPathExecutor(gateway1).apply(plan1)
        gateway2, result = self.run_pool()
        assert single.ok and result.ok
        assert scrubbed_estate(gateway2, result.state) == scrubbed_estate(
            gateway1, single.state
        )

    def test_pool_falls_back_when_health_gated(self):
        gateway, plan = make_plan(self.source(), seed=9, synthetic=2)
        executor = ShardedExecutor(
            gateway, workers=4, health=HealthMonitor(policy=BreakerPolicy())
        )
        result = executor.apply(plan)
        assert result.mode == "interleaved"
        assert result.ok

    def test_pool_content_hash_matches_interleaved(self):
        """BENCH_shard pool regression: identity-keyed id minting makes
        the canonical state hash schedule-independent, so pool workers
        and the interleaved scheduler converge to the same estate."""
        gateway1, plan1 = make_plan(self.source(), seed=9, synthetic=2)
        interleaved = ShardedExecutor(gateway1, workers=1).apply(plan1)
        _, pool = self.run_pool()
        assert interleaved.ok and pool.ok
        assert (
            pool.state.content_hash() == interleaved.state.content_hash()
        )


# -- overlapped pool scheduling ----------------------------------------------


class TestOverlappedPool:
    """Ready-frontier dispatch vs barrier waves: same final estate,
    never a worse simulated makespan, strictly better on a staggered
    provider DAG (a fast unit's successor must not wait on the slow
    units sharing its wave)."""

    @staticmethod
    def staggered_source():
        # syn1 depends on the small syn0; syn2/syn3 are independent and
        # big -- a barrier holds syn1 hostage to syn2/syn3's wave
        return scale_estate_sharded(
            420,
            providers=4,
            cross_link_every=10,
            provider_weights=[1, 3, 3, 3],
            cross_links=[(1, 0)],
        )

    @classmethod
    def run_mode(cls, workers, overlap):
        gateway, plan = make_plan(cls.staggered_source(), seed=9, synthetic=4)
        executor = ShardedExecutor(gateway, workers=workers, overlap=overlap)
        return executor.apply(plan)

    def test_overlapped_flag_and_equivalence(self):
        interleaved = self.run_mode(1, True)
        barrier = self.run_mode(4, False)
        overlapped = self.run_mode(4, True)
        assert interleaved.ok and barrier.ok and overlapped.ok
        assert not barrier.overlapped
        assert overlapped.overlapped and overlapped.mode == "pool"
        hashes = {
            r.state.content_hash()
            for r in (interleaved, barrier, overlapped)
        }
        assert len(hashes) == 1

    def test_overlapped_beats_barrier_makespan_when_staggered(self):
        barrier = self.run_mode(4, False)
        overlapped = self.run_mode(4, True)
        assert overlapped.makespan_s < barrier.makespan_s

    def test_overlapped_deterministic_run_to_run(self):
        r1 = self.run_mode(4, True)
        r2 = self.run_mode(4, True)
        assert r1.state.to_json() == r2.state.to_json()
        assert ops_fingerprint(r1) == ops_fingerprint(r2)

    def test_chain_workload_no_worse_than_barrier(self):
        source = scale_estate_sharded(300, providers=3, cross_link_every=10)

        def run(overlap):
            gateway, plan = make_plan(source, seed=9, synthetic=3)
            return ShardedExecutor(
                gateway, workers=3, overlap=overlap
            ).apply(plan)

        barrier, overlapped = run(False), run(True)
        assert barrier.ok and overlapped.ok
        assert overlapped.makespan_s <= barrier.makespan_s
        assert (
            overlapped.state.content_hash() == barrier.state.content_hash()
        )


    def test_failure_in_one_plane_skips_its_dependents_in_another(self):
        """A worker's subset inherits earlier outcomes: what hangs off
        another plane's failed change is skipped, as in the single run."""

        def run(factory):
            gateway, plan = make_plan(
                self.staggered_source(), seed=9, synthetic=4
            )
            gateway.planes["syn0"].faults.add_rule(
                FaultSpec(
                    error_code="InsufficientCapacity",
                    message="no capacity",
                    match_type="syn0_load_balancer",
                    transient=False,
                    max_strikes=99,
                )
            )
            return factory(gateway).apply(plan)

        single = run(CriticalPathExecutor)
        assert any(cid.startswith("syn1_") for cid in single.skipped)
        for overlap in (True, False):
            pool = run(
                lambda gw: ShardedExecutor(gw, workers=4, overlap=overlap)
            )
            assert pool.mode == "pool"
            assert set(pool.failed) == set(single.failed)
            assert sorted(pool.skipped) == sorted(single.skipped)
            assert pool.state.content_hash() == single.state.content_hash()

    def test_dead_worker_is_an_error_with_nothing_left_behind(
        self, monkeypatch
    ):
        def job(inner, plan, dag, partition, group, members, dead):
            if any(sid.startswith("syn0/") for sid in group):
                os._exit(7)
            time.sleep(30)  # siblings are mid-run when the death is seen

        monkeypatch.setattr(sharded_module, "_pool_job", job)
        gateway, plan = make_plan(self.staggered_source(), seed=9, synthetic=4)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="died"):
            ShardedExecutor(gateway, workers=4).apply(plan)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == open_fds


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


# -- incremental re-planning --------------------------------------------------


def _decl_block(source, rtype, name):
    """Extract one resource block from generated source text."""
    pattern = re.compile(
        r'resource "%s" "%s" \{.*?\n\}' % (re.escape(rtype), re.escape(name)),
        re.S,
    )
    match = pattern.search(source)
    assert match, f"{rtype}.{name} not in source"
    return match.group(0)


class TestIncrementalSession:
    def converge(self, source, seed=21):
        gateway, plan = make_plan(source, seed=seed)
        result = CriticalPathExecutor(gateway).apply(plan)
        assert result.ok
        return gateway, result.state

    def test_noop_patch_plans_nothing(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = _decl_block(source, "aws_vpc", "scale_g0")
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        assert result.dirty == []
        assert result.scope == set()
        assert not result.plan.actionable()

    def test_attr_edit_replans_impact_scope_only(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
        patch = block.replace('service = "scale-3"', 'service = "scale-3b"')
        assert patch != block
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        assert result.dirty == [("managed", "aws_virtual_machine", "scale_3_vm")]
        assert result.scope is not None
        assert 0 < result.scope_size < len(session.graph.dag.nodes)
        actions = {
            c.id: c.action.name
            for c in result.plan.actionable()
        }
        assert actions and all(
            "scale_3" in cid or "scale-3" in cid for cid in actions
        )

    def test_incremental_plan_matches_full_pipeline(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
        edited_block = block.replace(
            'service = "scale-3"', 'service = "scale-3b"'
        )
        session = IncrementalSession(gateway, source=source)
        inc = session.replan(edited_block, state)

        full_source = source.replace(block, edited_block)
        graph = build_graph(Configuration.parse(full_source))
        planner = session.planner
        data = read_data_sources(gateway, graph, state)
        full = planner.plan(graph, state.copy(), data_values=data)

        def plan_signature(plan):
            return sorted(
                (c.id, c.action.name, sorted(d.name for d in c.diffs))
                for c in plan.actionable()
            )

        assert plan_signature(inc.plan) == plan_signature(full)

    def test_add_and_remove_decls(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = """
resource "aws_dns_record" "extra" {
  name  = "extra"
  zone  = "scale.example.com"
  value = aws_load_balancer.scale_2_lb.dns_name
  ttl   = 60
}
"""
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        creates = [
            c for c in result.plan.actionable()
            if c.action.name == "CREATE"
        ]
        assert [c.id for c in creates] == ["aws_dns_record.extra"]

        removal = session.replan(
            "",
            state,
            remove=(
                "aws_dns_record.scale_4_dns",
                "aws_load_balancer.scale_4_lb",
            ),
        )
        assert removal.mode == "incremental"
        deletes = sorted(
            c.id
            for c in removal.plan.actionable()
            if c.action.name == "DELETE"
        )
        assert deletes == [
            "aws_dns_record.scale_4_dns",
            "aws_load_balancer.scale_4_lb",
        ]

    def test_unsupported_patch_falls_back_to_rebuild(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = """
locals {
  extra_tag = "x"
}
"""
        result = session.replan(patch, state)
        assert result.mode == "rebuild"
        assert session.rebuilds == 1
        # the session still plans correctly after the rebuild
        follow_up = session.replan(
            _decl_block(source, "aws_vpc", "scale_g0"), state
        )
        assert follow_up.mode == "incremental"


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

    def test_incremental_replan_counts_dirty_nodes(self):
        perf.PERF.enable()
        perf.PERF.reset()
        try:
            source = scale_estate(70)
            clear_analysis_cache()
            gateway = CloudGateway.simulated(seed=21)
            session = IncrementalSession(gateway, source=source)
            state = StateDocument()
            block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
            patch = block.replace(
                'service = "scale-3"', 'service = "scale-3b"'
            )
            result = session.replan(patch, state)
            counters = perf.PERF.snapshot()["counters"]
            assert (
                counters["shard.dirty_nodes_replanned"]
                == result.scope_size
            )
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

        args = build_parser().parse_args(
            ["apply", "--shards", "4", "--shard-workers", "2"]
        )
        assert args.shards == 4
        assert args.shard_workers == 2
