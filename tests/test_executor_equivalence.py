"""Cross-executor equivalence: scheduling must never change semantics.

Two layers of guarantees:

* *Cross-strategy*: whatever order an executor dispatches operations
  in, the final cloud estate and state document must be identical --
  only the makespan may differ. Checked over a family of generated
  workloads.
* *Cross-implementation*: the optimized heap-based dispatch loop must
  make byte-identical scheduling decisions to the frozen
  pre-optimization loop in ``repro.deploy.reference`` -- same operation
  sequence, same timings, same makespan, same failure/skip sets.
  Checked live on small workloads and against checked-in golden
  fingerprints on a seeded 1k-node random DAG (``tests/golden/``,
  regenerate with ``python tests/golden/generate_golden.py``).
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudGateway, RetryPolicy
from repro.cloud.faults import FaultSpec
from repro.core.engine import CloudlessEngine
from repro.deploy import (
    BestEffortExecutor,
    CriticalPathExecutor,
    SequentialExecutor,
    SimulatedCrash,
)
from repro.deploy.executor import EXECUTORS
from repro.deploy.incremental import read_data_sources
from repro.deploy.reference import REFERENCE_FOR
from repro.graph import Planner, build_graph
from repro.graph.plan import ValueResolver
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import (
    hub_spoke,
    microservices,
    ml_training,
    multi_cloud,
    web_tier,
)
from repro.workloads.topologies import random_dag_estate

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def make_plan(source, seed=0, gateway=None, state=None):
    """Plan ``source`` against ``state`` (default: empty) on ``gateway``
    (default: a fresh simulated estate from ``seed``)."""
    clear_analysis_cache()
    if gateway is None:
        gateway = CloudGateway.simulated(seed=seed)
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = state if state is not None else StateDocument()
    data = read_data_sources(gateway, graph, state)
    return gateway, planner.plan(graph, state, data_values=data)


def run_apply(executor_factory, source, seed, faults=None):
    """Plan + apply ``source`` on a fresh simulated estate.

    Returns (gateway, ApplyResult) without asserting success, so
    failure-path comparisons can use it too.
    """
    gateway = CloudGateway.simulated(seed=seed)
    if faults:
        for provider, fault in faults:
            gateway.planes[provider].faults.add_rule(fault)
    _, plan = make_plan(source, gateway=gateway)
    result = executor_factory(gateway).apply(plan)
    return gateway, result


def apply_with(executor_factory, source, seed):
    gateway, result = run_apply(executor_factory, source, seed)
    assert result.ok, result.failed
    return gateway, result.state


def result_fingerprint(result):
    """Everything scheduling-relevant about one apply, hashed.

    ``skipped`` is sorted: the pre-optimization loop emitted it in set
    iteration order (hash-seed dependent), so only the *set* is part of
    the contract.
    """
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
        "api_calls": result.api_calls,
        "ops": ops,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def estate_fingerprint(gateway, state):
    """Provider records keyed by name (ids depend on creation order)."""
    cloud = {}
    for record in gateway.all_records():
        attrs = {
            k: v
            for k, v in record.attrs.items()
            if not _is_identity(k, v)
        }
        cloud[(record.type, record.name)] = (record.region, _scrub(attrs))
    addresses = sorted(str(a) for a in state.addresses())
    return cloud, addresses


def _is_identity(key, value):
    return key in ("id", "arn", "private_ip", "public_ip", "ip_address", "fqdn", "endpoint", "dns_name", "resource_uri")


def _scrub(value):
    """Mask resource ids (creation-order dependent) inside attr values,
    including ids embedded in derived strings like dns names."""
    import re

    if isinstance(value, str):
        return re.sub(r"\b[a-z]+-[0-9a-f]{8}\b", "<id>", value)
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    return value


WORKLOADS = {
    "web": web_tier(web_vms=3, app_vms=2),
    "micro": microservices(services=3, vms_per_service=2),
    "hub": hub_spoke(spokes=2, vms_per_spoke=1),
    "ml": ml_training(workers=3),
}


class TestExecutorEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_all_executors_converge_to_one_estate(self, name):
        source = WORKLOADS[name]
        fingerprints = []
        for factory in (
            lambda gw: SequentialExecutor(gw),
            lambda gw: BestEffortExecutor(gw, concurrency=7),
            lambda gw: CriticalPathExecutor(gw, concurrency=7),
            lambda gw: CriticalPathExecutor(gw, concurrency=2),
        ):
            gateway, state = apply_with(factory, source, seed=555)
            fingerprints.append(estate_fingerprint(gateway, state))
        first = fingerprints[0]
        for other in fingerprints[1:]:
            assert other[0] == first[0], "cloud estates diverged"
            assert other[1] == first[1], "state addresses diverged"

    @given(
        web=st.integers(1, 4),
        app=st.integers(0, 3),
        concurrency=st.integers(1, 8),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_cp_equals_sequential(self, web, app, concurrency):
        source = web_tier(web_vms=web, app_vms=app, with_lb=web > 1)
        _, seq_state = apply_with(
            lambda gw: SequentialExecutor(gw), source, seed=777
        )
        _, cp_state = apply_with(
            lambda gw: CriticalPathExecutor(gw, concurrency=concurrency),
            source,
            seed=777,
        )
        assert sorted(str(a) for a in seq_state.addresses()) == sorted(
            str(a) for a in cp_state.addresses()
        )


# (display name, optimized class, constructor kwargs). The reference
# twin comes from REFERENCE_FOR, always with the same kwargs.
EXECUTOR_CASES = [
    ("sequential", SequentialExecutor, {}),
    ("best-effort", BestEffortExecutor, {"concurrency": 6}),
    ("critical-path", CriticalPathExecutor, {"concurrency": 6}),
    (
        "critical-path-no-ra",
        CriticalPathExecutor,
        {"concurrency": 3, "rate_aware": False},
    ),
]

GOLDEN_CASES = [
    ("sequential", SequentialExecutor, {}),
    ("best-effort", BestEffortExecutor, {"concurrency": 8}),
    ("critical-path", CriticalPathExecutor, {"concurrency": 8}),
    (
        "critical-path-no-ra",
        CriticalPathExecutor,
        {"concurrency": 8, "rate_aware": False},
    ),
]

#: a 0.15 fault rate must not exhaust an apply (p_fail ~ 0.15^6)
PATIENT = RetryPolicy(max_attempts=6, base_backoff_s=2.0)

GOLDEN_NODES = 1000
GOLDEN_SEED = 42


def _subnet_fault():
    """One hard (non-transient) failure on the first subnet create --
    exercises the failure + descendant-skip propagation path."""
    return [
        (
            "aws",
            FaultSpec(
                error_code="InternalError",
                message="injected hard failure",
                match_type="aws_subnet",
                match_operation="create",
                transient=False,
                max_strikes=1,
            ),
        )
    ]


class TestReferenceEquivalence:
    """Optimized dispatch loop == frozen pre-optimization loop, bit for bit."""

    @pytest.mark.parametrize(
        "case", EXECUTOR_CASES, ids=[c[0] for c in EXECUTOR_CASES]
    )
    @pytest.mark.parametrize(
        "workload", ["web", "hub", "random_dag"], ids=str
    )
    def test_success_paths_identical(self, workload, case):
        _, cls, kwargs = case
        if workload == "random_dag":
            source = random_dag_estate(120, seed=3)
        else:
            source = WORKLOADS[workload]
        _, opt = run_apply(lambda gw: cls(gw, **kwargs), source, seed=99)
        _, ref = run_apply(
            lambda gw: REFERENCE_FOR[cls](gw, **kwargs), source, seed=99
        )
        assert opt.ok and ref.ok
        assert result_fingerprint(opt) == result_fingerprint(ref)

    @pytest.mark.parametrize(
        "case", EXECUTOR_CASES, ids=[c[0] for c in EXECUTOR_CASES]
    )
    def test_failure_skip_propagation_identical(self, case):
        _, cls, kwargs = case
        source = WORKLOADS["web"]
        _, opt = run_apply(
            lambda gw: cls(gw, **kwargs), source, seed=99,
            faults=_subnet_fault(),
        )
        _, ref = run_apply(
            lambda gw: REFERENCE_FOR[cls](gw, **kwargs), source, seed=99,
            faults=_subnet_fault(),
        )
        assert not opt.ok, "fault injection should have failed the apply"
        assert opt.failed and opt.skipped
        assert result_fingerprint(opt) == result_fingerprint(ref)

    @pytest.mark.parametrize(
        "case", EXECUTOR_CASES, ids=[c[0] for c in EXECUTOR_CASES]
    )
    def test_day2_identical(self, case):
        """Converge, then edit: one plan carrying every mutating action."""
        _, cls, kwargs = case
        edited = (
            multi_cloud(2)
            .replace('engine     = "postgres"', 'engine     = "mysql"')
            .replace('size    = "medium"', 'size    = "large"')
        )

        def day2(factory):
            gateway, plan = make_plan(multi_cloud(3), seed=11)
            assert CriticalPathExecutor(gateway).apply(plan).ok
            _, plan = make_plan(edited, gateway=gateway, state=plan.state)
            actions = {c.action.name for c in plan.actionable()}
            assert {"UPDATE", "REPLACE", "DELETE"} <= actions
            return factory(gateway, **kwargs).apply(plan)

        opt, ref = day2(cls), day2(REFERENCE_FOR[cls])
        assert opt.ok and ref.ok
        assert result_fingerprint(opt) == result_fingerprint(ref)
        assert opt.state.content_hash() == ref.state.content_hash()

    @pytest.mark.parametrize(
        "case", EXECUTOR_CASES, ids=[c[0] for c in EXECUTOR_CASES]
    )
    def test_retry_identical(self, case):
        _, cls, kwargs = case

        def faulty(factory):
            gateway, plan = make_plan(multi_cloud(), seed=11)
            for plane in gateway.planes.values():
                plane.faults.set_transient_rate(0.15)
            return factory(gateway, retry=PATIENT, **kwargs).apply(plan)

        opt, ref = faulty(cls), faulty(REFERENCE_FOR[cls])
        assert opt.ok and ref.ok
        assert any(op.attempt > 1 for op in opt.operations)
        assert result_fingerprint(opt) == result_fingerprint(ref)
        assert opt.state.content_hash() == ref.state.content_hash()


class TestJournalEquivalence:
    """A write-ahead journal records an apply; it never reschedules one."""

    @pytest.mark.parametrize("name", sorted(EXECUTORS))
    def test_wal_and_resume_change_nothing(self, name, tmp_path):
        def die_at_boundary_five(index):
            if index == 5:
                raise SimulatedCrash("boundary 5")

        plain = CloudlessEngine(seed=11, executor=name)
        expect = plain.apply(multi_cloud()).apply
        assert expect.ok

        journaled = CloudlessEngine(
            seed=11, executor=name, wal_path=str(tmp_path / "journaled.wal")
        )
        got = journaled.apply(multi_cloud()).apply
        assert result_fingerprint(got) == result_fingerprint(expect)
        assert got.state.content_hash() == expect.state.content_hash()

        crashed = CloudlessEngine(
            seed=11, executor=name, wal_path=str(tmp_path / "crashed.wal")
        )
        with pytest.raises(SimulatedCrash):
            crashed.apply(multi_cloud(), crash_hook=die_at_boundary_five)
        resumed = crashed.resume(multi_cloud())
        assert resumed.recovery is not None and resumed.recovery.adopted
        assert resumed.result.apply.ok
        assert crashed.state.content_hash() == expect.state.content_hash()


class TestGoldenRandomDag:
    """Seeded 1k-node random DAG vs fingerprints generated with the
    frozen reference executors (regenerate: python tests/golden/generate_golden.py)."""

    @pytest.fixture(scope="class")
    def golden(self):
        path = os.path.join(GOLDEN_DIR, "random_dag_1k.json")
        with open(path) as handle:
            return json.load(handle)

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
    )
    def test_matches_reference_golden(self, golden, case, monkeypatch):
        name, cls, kwargs = case
        assert golden["nodes"] == GOLDEN_NODES
        assert golden["seed"] == GOLDEN_SEED
        source = random_dag_estate(GOLDEN_NODES, seed=GOLDEN_SEED)
        # spy: did a resolve find its declaration already cached?
        cached = []
        resolve = ValueResolver.resolve

        def spying_resolve(self, module_path, mode, rtype, name, span=None):
            key = (tuple(module_path), mode, rtype, name)
            cached.append(key in (self._decl_cache or ()))
            return resolve(self, module_path, mode, rtype, name, span)

        monkeypatch.setattr(ValueResolver, "resolve", spying_resolve)
        _, result = run_apply(
            lambda gw: cls(gw, **kwargs), source, seed=GOLDEN_SEED
        )
        assert result.ok, result.failed
        # the ordinary executors resolve through the declaration cache
        # and still reproduce the reference's (uncached) fingerprints
        assert any(cached)
        expect = golden["executors"][name]
        assert len(result.succeeded) == expect["n_succeeded"]
        assert round(result.makespan_s, 6) == expect["makespan_s"]
        assert result_fingerprint(result) == expect["fingerprint"]
