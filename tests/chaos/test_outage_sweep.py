"""Outage chaos: overlapping region/provider windows, then recovery.

The degraded-mode contract, run as library scenarios through the
campaign runner: an apply that runs into overlapping outage windows (a
hard regional outage plus a provider-wide brownout, or a staggered
provider-wide blackout) must

* converge every reachable resource,
* park every unreachable one as ``Quarantined`` -- zero terminal
  failures, and
* after the windows close, drain the parked work to the *same
  canonical estate* an uninterrupted run produces (the runner's
  convergence invariants).

Sweep size is env-tunable for CI smoke tiers; the historical
``OUTAGE_SEEDS`` list now sizes the trial matrix while the seeds
themselves derive from the campaign::

    OUTAGE_SEEDS=0,1 python -m pytest tests/chaos/test_outage_sweep.py -q
"""

import pytest

from repro.chaos import CampaignRunner, CampaignSpec, scenario, trial_count

TRIALS = trial_count("OUTAGE_SEEDS", 3)


@pytest.fixture(scope="module")
def outage_report(tmp_path_factory):
    campaign = CampaignSpec(
        name="outage-sweep",
        scenarios=[
            scenario("region-outage-brownout"),
            scenario("provider-blackout"),
        ],
        trials=TRIALS,
    )
    return CampaignRunner(campaign, str(tmp_path_factory.mktemp("outage"))).run()


def result_of(report, name):
    return next(r for r in report.results if r.name == name)


def test_outage_campaign_converges(outage_report):
    assert outage_report.passed, outage_report.violations()


def test_region_outage_with_overlapping_brownout(outage_report):
    """Reachable resources converge; the dark region parks, never
    fails terminally."""
    for trial in result_of(outage_report, "region-outage-brownout").trials:
        apply = trial.phases[0]
        assert apply.partial
        assert apply.failed == 0  # parked, never terminally failed
        assert apply.quarantined == ["azure/westus2"]
        # the brownout slowed eastus but never darkened it
        assert apply.succeeded == 21


def test_provider_blackout_overlapping_region_outage(outage_report):
    """Everything is dark at t=0: the apply parks the entire estate,
    and recovery still converges."""
    for trial in result_of(outage_report, "provider-blackout").trials:
        apply = trial.phases[0]
        assert apply.partial
        assert apply.failed == 0
        assert apply.succeeded == 0  # nothing was reachable
        assert apply.quarantined  # the whole estate parked


def test_outage_recovery_costs_extra_calls(outage_report):
    """Draining parked work is never free: the chaos arm re-plans and
    re-applies, so it spends at least as many API calls as baseline."""
    for result in outage_report.results:
        for trial in result.trials:
            assert trial.api_calls_chaos >= trial.api_calls_baseline
