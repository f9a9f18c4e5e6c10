"""The chaos DSL, seed derivation, and campaign runner themselves.

Covers the declarative layer (specs round-trip through JSON dicts,
validation errors name the offending field), the unified seed scheme,
the new cloud-layer fault primitives the injections build on (windowed
faults, op-class-scoped outages, token-bucket preemption, skewed
clocks), and the runner's twin-engine invariant checking on small
scenarios -- including that it *detects* a rigged divergence.
"""

import json

import pytest

from repro.chaos import (
    DEFECT_CLASSES,
    AsymmetricPartition,
    CampaignRunner,
    CampaignSpec,
    ClockSkew,
    CorrelatedOutage,
    FaultInjection,
    OutageInjection,
    QuotaStorm,
    RateLimitStorm,
    ScenarioSpec,
    SpecValidationError,
    TransientRate,
    VersionSkew,
    derive_seed,
    injection_from_dict,
    library,
    trial_count,
    validate_classes,
)
from repro.chaos.dsl import INJECTION_KINDS
from repro.cli import main
from repro.cloud import CloudGateway
from repro.cloud.clock import SimClock, SkewedClock
from repro.cloud.faults import FaultSpec, OutageSpec
from repro.cloud.faults import SpecValidationError as CloudSpecError


# -- seeds ---------------------------------------------------------------------


def test_seed_derivation_is_stable_and_distinct():
    a = derive_seed("camp", "scenario", 0)
    assert a == derive_seed("camp", "scenario", 0)
    assert a != derive_seed("camp", "scenario", 1)
    assert a != derive_seed("camp", "other", 0)
    assert a != derive_seed("other", "scenario", 0)
    assert 0 <= a < 2**63


def test_trial_count_reads_legacy_seed_lists(monkeypatch):
    monkeypatch.delenv("X_SEEDS", raising=False)
    assert trial_count("X_SEEDS", 4) == 4
    monkeypatch.setenv("X_SEEDS", "0")
    assert trial_count("X_SEEDS", 4) == 1
    monkeypatch.setenv("X_SEEDS", "7,9,13")
    assert trial_count("X_SEEDS", 4) == 3


# -- cloud-layer primitives ----------------------------------------------------


def test_fault_spec_round_trips_and_validates():
    spec = FaultSpec(
        error_code="Throttling",
        message="m",
        probability=0.5,
        transient=True,
        start_s=10.0,
        end_s=20.0,
    )
    clone = FaultSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    with pytest.raises(CloudSpecError) as err:
        FaultSpec.from_dict({"error_code": "E", "probabiliti": 1.0})
    assert "probabiliti" in str(err.value)  # names the offending field
    with pytest.raises(CloudSpecError) as err:
        FaultSpec.from_dict({})
    assert "error_code" in str(err.value)


def test_fault_spec_window_gates_activity():
    spec = FaultSpec(
        error_code="E", message="m", start_s=10.0, end_s=20.0
    )
    assert not spec.active_at(5.0)
    assert spec.active_at(15.0)
    assert not spec.active_at(25.0)


def test_outage_spec_round_trips_and_validates():
    spec = OutageSpec(
        start_s=0.0, end_s=100.0, op_class="write", region="r1"
    )
    clone = OutageSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    with pytest.raises(CloudSpecError) as err:
        OutageSpec.from_dict({"start_s": 0.0})
    assert "end_s" in str(err.value)
    with pytest.raises(CloudSpecError) as err:
        OutageSpec.from_dict({"start_s": 0.0, "end_s": 1.0, "mod": "x"})
    assert "mod" in str(err.value)


def test_write_scoped_outage_spares_reads():
    gateway = CloudGateway.simulated(seed=7)
    plane = gateway.planes["aws"]
    gateway.inject_outage(
        "aws", OutageSpec(start_s=0.0, end_s=10000.0, op_class="write")
    )
    from repro.cloud.base import CloudAPIError

    with pytest.raises(CloudAPIError) as err:
        plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
        )
    assert err.value.code == "ServiceUnavailable"
    # reads keep answering through the same window
    page = plane.execute("list", "aws_vpc")
    assert page is not None
    # a write-scoped outage is not a status-page outage: it must not
    # darken the partition for horizon planning
    assert gateway.dark_partitions() == {}


def test_token_bucket_preemption_starves_writes():
    clock = SimClock()
    gateway = CloudGateway.simulated(seed=7)
    plane = gateway.planes["aws"]
    horizon = plane.limiter.preempt("write", clock.now, 600.0)
    assert horizon > clock.now
    # the next write must wait out the noisy neighbor
    assert plane.limiter.available_at("write", clock.now) >= horizon


def test_skewed_clock_offsets_reads():
    base = SimClock()
    base.advance_to(100.0)
    skewed = SkewedClock(base, offset_s=60.0)
    assert skewed.now == pytest.approx(160.0)
    base.advance_to(200.0)
    assert skewed.now == pytest.approx(260.0)


# -- the DSL -------------------------------------------------------------------


def test_scenario_round_trips_through_json():
    for name, spec in library().items():
        data = json.loads(json.dumps(spec.to_dict()))
        clone = ScenarioSpec.from_dict(data)
        assert clone.to_dict() == spec.to_dict(), name
        assert clone.injections == spec.injections, name


#: one value per injection kind, with every field off its default
#: (ints where floats are declared: construction keeps them as given)
ONE_OF_EACH_KIND = [
    FaultInjection(
        fault=FaultSpec(error_code="Throttling", start_s=10, end_s=20.5),
        providers=["aws"],
    ),
    TransientRate(rate=0, providers=["aws", "azure"]),
    OutageInjection(
        provider="aws",
        outage=OutageSpec(start_s=0, end_s=100.0, mode="brownout"),
    ),
    CorrelatedOutage(
        zones=[["aws", "us-east-1"], ("azure", "eastus")],
        start_s=5.0,
        duration_s=100,
        stagger_s=10.0,
    ),
    AsymmetricPartition(provider="aws", region="r1", op_class="read"),
    QuotaStorm(provider="aws", rtype="aws_vpc", squatters=0, limit=2),
    RateLimitStorm(busy_s=0, op_class="read", providers=["azure"]),
    VersionSkew(providers=["aws"], match_type="aws_vpc", start_s=1, end_s=2),
    ClockSkew(provider="azure", offset_s=0),
]


def test_injection_round_trips_preserve_kind():
    assert sorted(i.kind for i in ONE_OF_EACH_KIND) == sorted(INJECTION_KINDS)
    for injection in ONE_OF_EACH_KIND:
        data = json.loads(json.dumps(injection.to_dict()))
        clone = injection_from_dict(data)
        assert type(clone) is type(injection), injection.kind
        assert clone == injection, injection.kind
        assert clone.to_dict() == injection.to_dict(), injection.kind
    # a value that would not load back does not construct either
    for build, field in [
        (lambda: VersionSkew(start_s=10, end_s=5), "VersionSkew window"),
        (lambda: QuotaStorm(provider="p", rtype="t", squatters=-1), "squatters"),
        (lambda: RateLimitStorm(busy_s=-3), "busy_s"),
        (lambda: AsymmetricPartition(provider="p", op_class="x"), "op_class"),
        (lambda: CorrelatedOutage(zones=[]), "zones"),
    ]:
        with pytest.raises(SpecValidationError) as err:
            build()
        assert field in str(err.value)


def test_validation_errors_name_the_field():
    with pytest.raises(SpecValidationError) as err:
        ScenarioSpec(name="x", workload="no_such_workload")
    assert "workload" in str(err.value)

    with pytest.raises(SpecValidationError) as err:
        ScenarioSpec(name="x", phases=[{"op": "apply"}, {"op": "warp"}])
    assert "phases[1]" in str(err.value)

    with pytest.raises(SpecValidationError) as err:
        ScenarioSpec(
            name="x", phases=[{"op": "churn", "updatez": 1}]
        )
    assert "updatez" in str(err.value)

    with pytest.raises(SpecValidationError) as err:
        TransientRate(rate=1.5)
    assert "rate" in str(err.value)

    with pytest.raises(SpecValidationError) as err:
        CorrelatedOutage(zones=[["aws"]])
    assert "zones" in str(err.value)

    with pytest.raises(SpecValidationError) as err:
        ClockSkew(provider="aws", offset_s=-5.0)
    assert "offset_s" in str(err.value)

    # JSON null is refused by name wherever the field is not Optional
    for load, payload, field in [
        (injection_from_dict, {"kind": "transient-rate", "rate": None}, "rate"),
        (ScenarioSpec.from_dict, {"name": "x", "trials": None}, "trials"),
        (
            injection_from_dict,
            {"kind": "ratelimit-storm", "busy_s": None},
            "busy_s",
        ),
        (
            FaultSpec.from_dict,
            {"error_code": "E", "probability": None},
            "probability",
        ),
        (
            injection_from_dict,
            {"kind": "clock-skew", "provider": "aws", "offset_s": None},
            "offset_s",
        ),
        (
            ScenarioSpec.from_dict,
            {"name": "x", "workload_args": None},
            "workload_args",
        ),
    ]:
        with pytest.raises(SpecValidationError) as err:
            load(payload)
        assert f".{field} must be" in str(err.value), payload


def test_cli_refuses_a_null_field_without_a_traceback(tmp_path, capsys):
    campaign = {
        "name": "c",
        "scenarios": [
            {
                "name": "s",
                "injections": [{"kind": "transient-rate", "rate": None}],
            }
        ],
    }
    (tmp_path / "f.json").write_text(json.dumps(campaign))
    code = main(["--chdir", str(tmp_path), "chaos", "--campaign", "f.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "invalid campaign" in captured.err
    assert "TransientRate.rate" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_campaign_from_dict_resolves_library_names():
    campaign = CampaignSpec.from_dict(
        {
            "name": "c",
            "scenarios": ["crash-midway", "quota-storm"],
            "trials": 2,
        },
        library=library(),
    )
    assert [s.name for s in campaign.scenarios] == [
        "crash-midway",
        "quota-storm",
    ]
    assert all(s.trials == 2 for s in campaign.scenarios)
    with pytest.raises(SpecValidationError) as err:
        CampaignSpec.from_dict(
            {"name": "c", "scenarios": ["no-such-scenario"]},
            library=library(),
        )
    assert "scenarios[0]" in str(err.value)


def test_duplicate_scenario_names_rejected():
    spec = ScenarioSpec(name="dup")
    with pytest.raises(SpecValidationError):
        CampaignSpec(name="c", scenarios=[spec, ScenarioSpec(name="dup")])


# -- taxonomy + library coverage ----------------------------------------------


def test_library_meets_coverage_floor():
    specs = library()
    assert len(specs) >= 12
    covered = set()
    for spec in specs.values():
        classes = spec.defect_classes()
        assert classes, f"{spec.name} exercises no defect class"
        assert validate_classes(classes) == [], spec.name
        covered.update(classes)
    assert len(covered) >= 6
    # and the classes themselves are real taxonomy entries
    assert covered <= set(DEFECT_CLASSES)


def test_unknown_defect_classes_are_rejected():
    assert validate_classes(["availability/service-outage"]) == []
    assert validate_classes(["no/such-class"]) == ["no/such-class"]
    with pytest.raises(SpecValidationError) as err:
        ScenarioSpec(name="x", extra_classes=["no/such-class"])
    assert "no/such-class" in str(err.value)


# -- the runner ----------------------------------------------------------------


def test_runner_reports_structured_trials(tmp_path):
    campaign = CampaignSpec(
        name="unit",
        scenarios=[
            ScenarioSpec(
                name="tiny-storm",
                workload="web_tier",
                workload_args={"web_vms": 1, "app_vms": 1},
                injections=[TransientRate(rate=0.05)],
                patient_retry=True,
            )
        ],
        trials=2,
    )
    report = CampaignRunner(campaign, workdir=str(tmp_path)).run()
    assert report.passed
    assert report.pass_rate == 1.0
    trials = report.results[0].trials
    assert [t.seed for t in trials] == [
        derive_seed("unit", "tiny-storm", 0),
        derive_seed("unit", "tiny-storm", 1),
    ]
    # report round-trips through JSON
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["passed"] is True
    assert doc["scenarios"][0]["trials"][0]["violations"] == []
    assert "reliability/transient-error" in doc["coverage"]


def test_runner_detects_rigged_divergence(tmp_path):
    """The invariants must have teeth: a rogue resource planted only in
    the chaos arm (and never released) must fail the trial."""

    class Saboteur(TransientRate):
        def arm(self, engine):
            engine.gateway.planes["aws"].external_create(
                "aws_s3_bucket",
                {"name": "planted-evidence"},
                engine.gateway.planes["aws"].regions[0],
                actor="saboteur",
            )

        def release(self, engine):
            pass

    campaign = CampaignSpec(
        name="rigged",
        scenarios=[
            ScenarioSpec(
                name="sabotage",
                workload="web_tier",
                workload_args={"web_vms": 1, "app_vms": 1},
                injections=[Saboteur(rate=0.0)],
            )
        ],
    )
    report = CampaignRunner(campaign, workdir=str(tmp_path)).run()
    assert not report.passed
    joined = " ".join(report.violations())
    assert "estate shape" in joined or "tracked by no state entry" in joined


def test_quota_storm_releases_cleanly(tmp_path):
    """Squatters and the tightened quota are both gone after drain, so
    the chaos arm converges to baseline despite terminal 429s."""
    campaign = CampaignSpec(
        name="quota-unit",
        scenarios=[
            ScenarioSpec(
                name="squeeze",
                workload="web_tier",
                workload_args={"web_vms": 2, "app_vms": 1},
                injections=[
                    QuotaStorm(
                        provider="aws",
                        rtype="aws_virtual_machine",
                        squatters=2,
                    )
                ],
            )
        ],
    )
    report = CampaignRunner(campaign, workdir=str(tmp_path)).run()
    assert report.passed, report.violations()
    trial = report.results[0].trials[0]
    # the storm was real: the chaos arm worked harder than baseline
    assert trial.api_calls_chaos > trial.api_calls_baseline


def test_tenant_storm_reports_service_perf_probes(tmp_path):
    """The tenant-storm phase drives the multi-tenant service tier and
    must surface its service.* perf probes in the campaign report, so a
    campaign JSON is enough to audit admission behavior post-hoc."""
    scenario = library()["tenant-storm"]
    campaign = CampaignSpec(
        name="storm-unit", scenarios=[scenario], trials=1
    )
    report = CampaignRunner(campaign, workdir=str(tmp_path)).run()
    assert report.passed, report.violations()

    doc = json.loads(json.dumps(report.to_dict()))
    phases = doc["scenarios"][0]["trials"][0]["phases"]
    storm = next(p for p in phases if p["op"] == "tenant_storm")
    details = storm["details"]
    # the kill is real: tenants crashed mid-apply and the successor
    # instance adopted their orphaned resources on resume
    assert details["killed"] >= 1
    assert details["adopted"] > 0
    # counters: admissions flowed through the service tier
    counters = details["perf_counters"]
    assert counters.get("service.admitted", 0) > 0
    # gauges: fairness + tenancy published by stats()
    gauges = details["perf_gauges"]
    assert gauges.get("service.active_tenants", 0) >= details["tenants"]
    assert "service.fairness_ratio" in gauges
    # timers: queue-wait observations were recorded
    assert details["perf_timers"].get("service.queued_ms", 0) > 0
