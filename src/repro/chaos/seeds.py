"""Unified seed derivation for chaos campaigns.

Every trial's RNG seed is a pure function of (campaign id, scenario
name, trial index)::

    seed = derive_seed("ci-smoke", "region-outage-brownout", 0)

so a campaign file names its entire randomness: re-running any trial
anywhere reproduces it bit-for-bit, and no test needs to carry its own
ad-hoc seed list. The historical ``CHAOS_SEEDS``-style environment
variables survive as *smoke-tier sizers* -- they choose how many trials
run, while the seeds themselves always derive from the campaign.
"""

from __future__ import annotations

import hashlib
import os


def derive_seed(campaign_id: str, scenario: str, trial: int) -> int:
    """A stable 63-bit seed for one (campaign, scenario, trial)."""
    digest = hashlib.sha256(
        f"{campaign_id}|{scenario}|{trial}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def trial_count(env_var: str, default: int) -> int:
    """Smoke-tier sizing: how many trials should a sweep run?

    Reads the historical comma-separated seed-list variables
    (``CHAOS_SEEDS``, ``CRASH_SEEDS``, ``OUTAGE_SEEDS``): the *length*
    of the list sizes the sweep (``CHAOS_SEEDS=0`` -> 1 trial, exactly
    the CI smoke tiers' intent), while the values themselves are
    superseded by :func:`derive_seed`.
    """
    raw = os.environ.get(env_var, "")
    entries = [s for s in raw.split(",") if s.strip()]
    if not entries:
        return default
    return len(entries)
