"""Synthesis: type-guided vs noisy generation, retrieval grounding (E8)."""

import pytest

from repro.core import CloudlessEngine
from repro.lang import Configuration
from repro.synthesis import (
    ErrorRates,
    NoisyGenerator,
    RetrievalCorpus,
    STANDARD_TASKS,
    SynthesisTask,
    TypeGuidedSynthesizer,
    random_task,
)
from repro.synthesis.tasks import ResourceRequest
from repro.validate import LEVEL_RULES, validate
from repro.workloads import web_tier


class TestTypeGuidedSynthesis:
    @pytest.mark.parametrize("task", STANDARD_TASKS, ids=lambda t: t.name)
    def test_every_standard_task_validates(self, task):
        result = TypeGuidedSynthesizer().synthesize(task)
        report = validate(result.sources, level=LEVEL_RULES)
        assert report.ok, f"{task.name}: {report.first_error()}"

    @pytest.mark.parametrize("task", STANDARD_TASKS[:4], ids=lambda t: t.name)
    def test_synthesized_configs_deploy(self, task):
        result = TypeGuidedSynthesizer().synthesize(task)
        engine = CloudlessEngine(seed=80)
        outcome = engine.apply(result.sources["main.clc"])
        assert outcome.ok, outcome.apply.failed if outcome.apply else outcome

    def test_dependency_closure_materialized(self):
        task = SynthesisTask(
            name="t",
            provider="aws",
            requests=[ResourceRequest("aws_virtual_machine")],
        )
        result = TypeGuidedSynthesizer().synthesize(task)
        config = Configuration.parse(result.sources)
        types = config.resource_types()
        # a VM pulls in NIC -> subnet -> VPC
        assert {"aws_virtual_machine", "aws_network_interface", "aws_subnet", "aws_vpc"} <= types

    def test_dedicated_nics_per_vm(self):
        task = SynthesisTask(
            name="t",
            provider="aws",
            requests=[ResourceRequest("aws_virtual_machine", count=3)],
        )
        result = TypeGuidedSynthesizer().synthesize(task)
        config = Configuration.parse(result.sources)
        nics = [d for d in config.managed_resources() if d.type == "aws_network_interface"]
        assert len(nics) == 3

    def test_shared_substrate_reused(self):
        task = SynthesisTask(
            name="t",
            provider="aws",
            requests=[ResourceRequest("aws_virtual_machine", count=3)],
        )
        result = TypeGuidedSynthesizer().synthesize(task)
        config = Configuration.parse(result.sources)
        vpcs = [d for d in config.managed_resources() if d.type == "aws_vpc"]
        assert len(vpcs) == 1

    def test_pinned_attributes_respected(self):
        task = SynthesisTask(
            name="t",
            provider="aws",
            requests=[
                ResourceRequest("aws_database_instance", pinned={"engine": "mysql"})
            ],
        )
        result = TypeGuidedSynthesizer().synthesize(task)
        assert 'engine' in result.main_source and 'mysql' in result.main_source

    def test_region_pinning(self):
        task = SynthesisTask(
            name="t",
            provider="azure",
            requests=[ResourceRequest("azure_storage_account")],
            region="westeurope",
        )
        result = TypeGuidedSynthesizer().synthesize(task)
        assert '"westeurope"' in result.main_source


class TestNoisyGenerator:
    def validity_rate(self, generator, tasks):
        ok = 0
        for task in tasks:
            result = generator.generate(task)
            if validate(result.sources, level=LEVEL_RULES).ok:
                ok += 1
        return ok / len(tasks)

    def sweep_tasks(self, n=30):
        import random

        rng = random.Random(99)
        return [random_task(rng, i) for i in range(n)]

    def test_injected_errors_are_recorded(self):
        generator = NoisyGenerator(
            rates=ErrorRates(hallucinate_attr=1.0), seed=1
        )
        result = generator.generate(STANDARD_TASKS[0])
        assert result.injected_errors

    def test_noisy_output_frequently_invalid(self):
        generator = NoisyGenerator(seed=2)
        rate = self.validity_rate(generator, self.sweep_tasks())
        assert rate < 0.8  # "frequently generate invalid IaC code"

    def test_retrieval_improves_validity(self):
        tasks = self.sweep_tasks()
        base = self.validity_rate(NoisyGenerator(seed=3), tasks)
        corpus = RetrievalCorpus().fit(
            [Configuration.parse(web_tier(name=f"w{i}")) for i in range(3)]
        )
        grounded = self.validity_rate(
            NoisyGenerator(seed=3, retrieval=corpus), tasks
        )
        assert grounded > base

    def test_type_guided_beats_noisy(self):
        tasks = self.sweep_tasks()
        noisy = self.validity_rate(NoisyGenerator(seed=4), tasks)
        guided = 0
        synthesizer = TypeGuidedSynthesizer()
        for task in tasks:
            if validate(synthesizer.synthesize(task).sources, level=LEVEL_RULES).ok:
                guided += 1
        assert guided / len(tasks) == 1.0
        assert noisy < 1.0

    def test_zero_rates_is_always_valid(self):
        generator = NoisyGenerator(rates=ErrorRates(0, 0, 0, 0, 0, 0, 0), seed=5)
        for task in STANDARD_TASKS:
            assert validate(generator.generate(task).sources, level=LEVEL_RULES).ok


class TestRetrievalCorpus:
    def test_learns_dominant_conventions(self):
        sources = [
            web_tier(name=f"w{i}").replace('size    = "small"', 'size    = "medium"')
            for i in range(3)
        ]
        corpus = RetrievalCorpus().fit([Configuration.parse(s) for s in sources])
        conventions = corpus.conventions_for("aws_virtual_machine")
        assert conventions.get("size") == "medium"

    def test_synthesizer_applies_conventions(self):
        sources = [
            web_tier(name=f"w{i}").replace('size    = "small"', 'size    = "medium"')
            for i in range(3)
        ]
        corpus = RetrievalCorpus().fit([Configuration.parse(s) for s in sources])
        task = SynthesisTask(
            name="t",
            provider="aws",
            requests=[ResourceRequest("aws_virtual_machine")],
        )
        result = TypeGuidedSynthesizer(corpus=corpus).synthesize(task)
        assert any("size" in c for c in result.conventions_applied)
        report = validate(result.sources, level=LEVEL_RULES)
        assert report.ok

    def test_minority_values_not_promoted(self):
        sources = [
            web_tier(name="w0"),
            web_tier(name="w1").replace('size    = "small"', 'size    = "large"'),
        ]
        corpus = RetrievalCorpus().fit([Configuration.parse(s) for s in sources])
        # web VMs are small, app VMs medium, and we flipped one corpus's
        # web VMs: small, medium and large hold 3, 4 and 3 of 10 uses,
        # none of them MIN_DOMINANCE (unflipped, small holds 6 of 10)
        assert "size" not in corpus.conventions_for("aws_virtual_machine")
