"""Lightweight wall-clock instrumentation for the hot paths.

The deploy/DAG layers report counters and timings here so benchmarks
(``benchmarks/bench_p1_scale.py``) can attribute wall-clock cost to
individual mechanisms (dispatch selection, topological sorts, skip
propagation) without a profiler run.

Instrumentation is off by default and costs one attribute check per
probe site when disabled. Enable explicitly with :func:`enable` or by
setting the ``REPRO_PERF`` environment variable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator


#: canonical probe names subsystems register here, so benchmarks and
#: campaign reports can assert on stable spellings instead of grepping
#: call sites. The service tier's ``service.*`` family is the contract
#: the tenant-storm chaos scenario checks in its ``CampaignReport``.
KNOWN_PROBES: Dict[str, str] = {
    # -- compile: what a verb's sources cost to turn into a Configuration --
    "lang.chunks_parsed": "count: top-level chunks lexed and parsed by a "
    "streaming parse",
    "lang.chunks_reused": "count: chunks a streaming parse took from the "
    "previous parse's chunk-AST table instead",
    "compile.resident_exact": "count: compiles answered by the engine's last "
    "compile whole (same texts: no chunking, no parse)",
    "compile.resident_partial": "count: compiles that re-parsed against the "
    "engine's last compile (edited texts: changed chunks only)",
    "graph.builds": "count: configurations expanded into a resource graph, by "
    "the engine for a verb or by a validation nobody handed one (a verb "
    "builds one; an exact artifact hit none)",
    # -- plan: how much of the graph a verb diffed --------------------------
    "plan.scoped": "count: plans that diffed only what the engine's plan basis "
    "could not vouch for (changed declarations and their dependents, state "
    "entries that are not the ones its last plan -- this process's, or the one "
    "the world file records -- found no-op)",
    "plan.scope_nodes": "count: addresses those plans diffed, summed",
    "plan.full": "count: plans that diffed every node; plan.full.<why> says "
    "why -- first (no basis: an engine's first plan, or a Configuration it did "
    "not parse), modules (the program calls modules, whose text the engine "
    "cannot diff), data (a data source read differently)",
    "plan.full.first": "count: see plan.full",
    "plan.full.modules": "count: see plan.full",
    "plan.full.data": "count: see plan.full",
    "plan.basis.woken": "count: first compiles of an engine that woke a plan "
    "basis from the world file's record of the last process's plan (the compile "
    "cache's artifact is the one the record names); plan.basis.<why> counts the "
    "ones that did not -- none (the world records no proof), void (a commit "
    "moved the state without carrying the record), no_artifact (no cache, or "
    "nothing under this key: other variables, another catalog, a deleted "
    "cache), other_sources (the artifact was written from other texts than the "
    "record names) -- and data, a woken basis a plan could not use because a "
    "data source read differently (also a plan.full.data)",
    "plan.basis.none": "count: see plan.basis.woken",
    "plan.basis.void": "count: see plan.basis.woken",
    "plan.basis.no_artifact": "count: see plan.basis.woken",
    "plan.basis.other_sources": "count: see plan.basis.woken",
    "plan.basis.data": "count: see plan.basis.woken",
    "validate.runs": "count: validations the engine ran (at most one per verb)",
    "validate.scoped": "count: validations that started from what the engine's "
    "validation basis had computed for the declarations still made of the same "
    "parsed parts (type verdicts, validate-time attribute values); every rule "
    "still runs over every instance",
    "validate.full.first": "count: validations that started from nothing: no "
    "basis yet (an engine keeps one from its second compile on, so a one-shot "
    "process never does); validate.full.<why> for the others -- foreign (a "
    "Configuration the engine did not parse, or a graph already planned on), "
    "modules (the program calls modules), pipeline (another level, rule set or "
    "registry), variables (a variable given or declared otherwise), locals (a "
    "local declared otherwise), declarations (other names declared)",
    "validate.full.foreign": "count: see validate.full.first",
    "validate.full.modules": "count: see validate.full.first",
    "validate.full.pipeline": "count: see validate.full.first",
    "validate.full.variables": "count: see validate.full.first",
    "validate.full.locals": "count: see validate.full.first",
    "validate.full.declarations": "count: see validate.full.first",
    "validate.decls_checked": "count: declarations type-checked afresh, summed "
    "over validations",
    "validate.attrs_evaluated": "count: instances whose attributes a validation "
    "evaluated afresh, summed",
    "validate.replayed": "count: verdicts an engine replayed from an exact "
    "artifact hit instead of validating",
    "compilecache.verdict_mismatch": "count: exact hits whose recorded verdict "
    "could not be replayed, so validation ran on the replayed graph; "
    "compilecache.verdict_mismatch.<level|rules|registry|unreadable> says why",
    # -- persistence: the world file and the journal store -----------------
    "persist.bytes_appended": "count: bytes of delta commits appended to a world file",
    "persist.keyframe_writes": "count: whole-world keyframes written (first save, "
    "compaction, or a baseline that no longer matched the file)",
    "persist.compactions": "count: foldings of deltas (world file) or journal "
    "lines (journal store) into a fresh keyframe",
    "persist.journal_appends": "count: delta appends to a journal store",
    "persist.torn_tail_recoveries": "count: torn tails dropped at load "
    "(world file) or truncated away (journal store)",
    "persist.keyframe_fallbacks": "count: keyframe reads served by .bak",
    "persist.planes_deferred": "count: cloud planes a world load checked and "
    "left encoded, to be replayed when first read",
    "persist.planes_replayed": "count: deferred cloud planes replayed because "
    "something read them (a plan reads none; a keyframe save reads all)",
    # -- multi-tenant service tier (PR 10) --------------------------------
    "service.admitted": "count: requests accepted past the admission tier",
    "service.shed": "count: requests rejected with a typed shed",
    "service.queued_ms": (
        "timer: milliseconds a dispatched request waited in the "
        "admission queue (observe() takes ms here, not seconds)"
    ),
    "service.active_tenants": "gauge: tenants with an open session",
    "service.fairness_ratio": (
        "gauge: max/min per-tenant goodput among tenants that "
        "completed at least one request"
    ),
}


class PerfRegistry:
    """Counters, accumulated timers, gauges, and per-event maxima.

    Four probe kinds:

    * ``count(name)`` -- how many times something happened.
    * ``observe(name, seconds)`` -- accumulate a duration; tracks the
      sum, the event count, and the maximum single observation (the
      "peak dispatch cost" the scale benchmark reports).
    * ``timed(name)`` -- context manager sugar over ``observe``.
    * ``gauge(name, value)`` -- a last-value-wins level (queue depth,
      active tenants, a fairness ratio).
    """

    __slots__ = (
        "enabled",
        "counters",
        "timer_total",
        "timer_count",
        "timer_max",
        "gauges",
    )

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.timer_total: Dict[str, float] = {}
        self.timer_count: Dict[str, int] = {}
        self.timer_max: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- switches ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.timer_total.clear()
        self.timer_count.clear()
        self.timer_max.clear()
        self.gauges.clear()

    # -- probes ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.timer_total[name] = self.timer_total.get(name, 0.0) + seconds
        self.timer_count[name] = self.timer_count.get(name, 0) + 1
        if seconds > self.timer_max.get(name, 0.0):
            self.timer_max[name] = seconds

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dump of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {
                    "total_s": self.timer_total[name],
                    "count": self.timer_count.get(name, 0),
                    "max_s": self.timer_max.get(name, 0.0),
                }
                for name in self.timer_total
            },
            "gauges": dict(self.gauges),
        }


#: process-wide default registry; hot-path probe sites use this.
PERF = PerfRegistry(enabled=bool(os.environ.get("REPRO_PERF")))


def enable() -> None:
    PERF.enable()


def disable() -> None:
    PERF.disable()


def reset() -> None:
    PERF.reset()


def snapshot() -> Dict[str, Any]:
    return PERF.snapshot()
