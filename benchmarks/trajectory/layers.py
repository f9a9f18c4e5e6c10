"""Per-layer metrics of a traced run, from its spans and samples.

Unless a row says otherwise a value is the mean per traced op -- a CLI
verb process or a service request -- so runs of different length
compare. ``*_s`` rows are inclusive seconds inside the seam,
``*_self_s`` rows exclude the seams nested in it, sizes are per call.
Wall seconds and simulated seconds never share a row.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from measure import Outcome, Sample, median, percentile
from tracing import Span, SpanTotals, Tracer, resolve_ops, self_times, totals_by_name

SHED_REASONS = (
    "tenant-quota",
    "rate-limited",
    "queue-full",
    "brownout-shed",
    "read-only",
    "deadline-exceeded",
)

#: (name, unit, better) -- BENCHMARK.json's ``per_layer`` must list
#: exactly these (a self-test compares them)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cli.startup_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.watch_p50_s", "s", "lower"),
    ("persist.load_s", "s", "lower"),
    ("persist.save_s", "s", "lower"),
    ("persist.world_bytes_first", "B", "lower"),
    ("persist.world_bytes_last", "B", "lower"),
    ("lang.parse_s", "s", "lower"),
    ("lang.chunks_seen", "count", "lower"),
    ("lang.chunks_parsed", "count", "lower"),
    ("lang.reuse_ratio", "ratio", "higher"),
    ("lang.parse_us_per_resource", "us", "lower"),
    ("validate.validate_s", "s", "lower"),
    ("validate.diagnostics", "count", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.build_calls", "count", "lower"),
    ("graph.plan_s", "s", "lower"),
    ("graph.plan_changes", "count", "lower"),
    ("graph.data_read_s", "s", "lower"),
    ("policy.admit_s", "s", "lower"),
    ("deploy.execute_self_s", "s", "lower"),
    ("deploy.ops", "count", "lower"),
    ("deploy.retries", "count", "lower"),
    ("deploy.wal_s", "s", "lower"),
    ("deploy.wal_bytes", "B", "lower"),
    ("cloud.submit_s", "s", "lower"),
    ("cloud.api_calls", "count", "lower"),
    ("cloud.throttled", "count", "lower"),
    ("cloud.sim_makespan_s", "sim-s", "lower"),
    ("state.to_json_s", "s", "lower"),
    ("state.to_json_calls", "count", "lower"),
    ("state.copy_s", "s", "lower"),
    ("state.checkpoint_s", "s", "lower"),
    ("state.snapshot_deltas", "count", "lower"),
    ("state.store_write_s", "s", "lower"),
    ("state.journal_bytes", "B", "lower"),
    ("compilecache.load_s", "s", "lower"),
    ("compilecache.materialize_s", "s", "lower"),
    ("compilecache.store_s", "s", "lower"),
    ("compilecache.exact_hits", "count", "higher"),
    ("compilecache.partial_hits", "count", "higher"),
    ("compilecache.misses", "count", "lower"),
    ("compilecache.artifact_bytes", "B", "lower"),
    ("core.apply_self_s", "s", "lower"),
    ("core.plan_self_s", "s", "lower"),
    ("drift.poll_s", "s", "lower"),
    ("drift.cycle_self_s", "s", "lower"),
    ("drift.reconcile_s", "s", "lower"),
    ("drift.findings", "count", "lower"),
    ("drift.events_read", "count", "lower"),
    ("drift.external_events", "count", "lower"),
    ("drift.api_calls", "count", "lower"),
    ("service.queued_p50_s", "s", "lower"),
    ("service.queued_p90_s", "s", "lower"),
    ("service.engine_p50_s", "s", "lower"),
    ("service.execute_self_s", "s", "lower"),
    ("service.persist_s", "s", "lower"),
    ("service.session_open_s", "s", "lower"),
    ("service.admit_s", "s", "lower"),
    ("service.apply_p90_s", "s", "lower"),
    ("service.plan_p50_s", "s", "lower"),
    ("service.drift_p50_s", "s", "lower"),
    ("service.stats_p50_s", "s", "lower"),
    ("service.lo_p50_s", "s", "lower"),
    ("service.lo_p90_s", "s", "lower"),
    ("service.lo_shed_share", "ratio", "lower"),
    ("service.hi_steady_fairness", "ratio", "lower"),
    ("service.shed_share", "ratio", "lower"),
    *((f"service.shed.{reason}", "ratio", "lower") for reason in SHED_REASONS),
    ("service.mode_transitions", "count", "lower"),
    ("service.generator_late_max_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: layers that must record at least one span on a workload: a refactor
#: that renames its way around a seam fails here instead of reading 0
EXPECTED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli_cold": (
        "cli", "persist", "lang", "validate", "graph", "policy", "deploy",
        "cloud", "state", "compilecache", "core", "drift",
    ),
    "cli_day2": (
        "cli", "persist", "lang", "validate", "graph", "policy", "deploy",
        "cloud", "state", "compilecache", "core", "drift",
    ),
    "svc_closed": (
        "persist", "lang", "validate", "graph", "policy", "deploy", "cloud",
        "state", "core", "drift", "service",
    ),
    "svc_open": (
        "persist", "lang", "validate", "graph", "policy", "deploy", "cloud",
        "state", "core", "drift", "service",
    ),
}


def link_service_roots(spans: Sequence[Span], ops: Dict[int, int]) -> List[Span]:
    """Hang each pool-thread ``service.execute`` root under its op's
    ``service.request`` span, so the request's self time is what is
    left: queueing and loop hand-offs, not the engine work again."""
    request_of = {ops[s[0]]: s[0] for s in spans if s[2] == "service.request"}
    linked = []
    for span in spans:
        sid, parent, name = span[0], span[1], span[2]
        if name == "service.execute" and not parent and ops[sid] in request_of:
            span = (sid, request_of[ops[sid]], *span[2:])
        linked.append(span)
    return linked


def silent_layers(workload: str, spans: Iterable[Span]) -> List[str]:
    fired = {span[2].split(".", 1)[0] for span in spans}
    return [layer for layer in EXPECTED_LAYERS[workload] if layer not in fired]


def overhead_share(samples: Iterable[Sample], phase) -> float:
    """Traced over untraced median busy time, minus one, summed over
    the op kinds that have samples on both sides. Busy time, not
    latency: queueing depends on the arrivals, which differ between
    the traced and untraced stretches of an open loop."""
    samples = [s for s in samples if s.ok and (phase is None or s.phase == phase)]
    traced = untraced = 0.0
    for kind in sorted({s.kind for s in samples}):
        on = [s.at_reference("engine_s") for s in samples if s.kind == kind and s.traced]
        off = [
            s.at_reference("engine_s") for s in samples if s.kind == kind and not s.traced
        ]
        if on and off:
            traced += median(on)
            untraced += median(off)
    return traced / untraced - 1.0 if untraced else 0.0


def span_weights(outcome: Outcome, ops: Dict[int, int]) -> Dict[int, float]:
    """Span id -> what turns its wall into reference-speed seconds: one
    over the machine speed measured while its op ran."""
    per_op = {s.op: 1.0 / s.speed for s in outcome.samples if s.traced}
    return {sid: per_op[op] for sid, op in ops.items() if op in per_op}


def layer_metrics(
    outcome: Outcome, spans: Sequence[Span], weights: Dict[int, float]
) -> Dict[str, float]:
    """Every PER_LAYER row for one traced run."""
    totals = totals_by_name(spans, weights)
    traced = [s for s in outcome.samples if s.traced]
    ops = max(1, len(traced))
    # latency rows read samples, and only of the kind of workload they name
    cli_ops = traced if "cli.process" in totals else []
    svc_ops = traced if "service.request" in totals else []
    none = SpanTotals()

    def of(name: str) -> SpanTotals:
        return totals.get(name, none)

    def per_op(value: float) -> float:
        return value / ops

    def incl(name: str) -> float:
        return per_op(of(name).inclusive_s)

    def own(name: str) -> float:
        return per_op(of(name).self_s)

    def calls(name: str) -> float:
        return per_op(of(name).count)

    def attr(name: str, key: str) -> float:
        return per_op(of(name).attrs.get(key, 0))

    def per_call(name: str, key: str) -> float:
        span = of(name)
        return span.attrs.get(key, 0.0) / span.count if span.count else 0.0

    def perf(name: str) -> float:
        return per_op(outcome.perf.get(name, 0))

    def lat(samples, kind, q: float, phase=None, field: str = "latency_s") -> float:
        return percentile(
            [
                s.at_reference(field)
                for s in samples
                if s.ok and kind in (None, s.kind) and phase in (None, s.phase)
            ],
            q,
        )

    parse = of("lang.parse")
    seen, parsed = of("lang.chunk").count, of("lang.parse_file").count
    load = of("compilecache.load")
    shed = [s for s in svc_ops if s.outcome == "shed"]
    lo_ops = [s for s in svc_ops if s.phase == "lo"]
    extra = outcome.extra
    quoted = outcome.latency_phase
    return {
        "cli.startup_s": incl("cli.process") - incl("cli.main"),
        "cli.main_self_s": own("cli.main"),
        "cli.watch_p50_s": lat(cli_ops, "drift", 0.5),
        "persist.load_s": incl("persist.load"),
        "persist.save_s": incl("persist.save"),
        "persist.world_bytes_first": extra.get("world_bytes_first", 0.0),
        "persist.world_bytes_last": extra.get("world_bytes_last", 0.0),
        "lang.parse_s": incl("lang.parse"),
        "lang.chunks_seen": per_op(seen),
        "lang.chunks_parsed": per_op(parsed),
        "lang.reuse_ratio": 1.0 - parsed / seen if seen else 0.0,
        "lang.parse_us_per_resource": (
            parse.inclusive_s * 1e6 / (parse.count * extra["resources_per_parse"])
            if parse.count
            else 0.0
        ),
        "validate.validate_s": incl("validate.validate"),
        "validate.diagnostics": attr("validate.validate", "diagnostics"),
        "graph.build_s": incl("graph.build"),
        "graph.build_calls": calls("graph.build"),
        "graph.plan_s": incl("graph.plan"),
        "graph.plan_changes": attr("graph.plan", "changes"),
        "graph.data_read_s": incl("graph.data_read"),
        "policy.admit_s": incl("policy.admit"),
        "deploy.execute_self_s": own("deploy.execute"),
        "deploy.ops": attr("deploy.execute", "ops"),
        "deploy.retries": perf("resilience.retries"),
        "deploy.wal_s": incl("deploy.wal"),
        # sized once per executor run, as the journal is marked clean
        "deploy.wal_bytes": (
            of("deploy.wal").attrs.get("bytes", 0.0) / of("deploy.execute").count
            if of("deploy.execute").count
            else 0.0
        ),
        "cloud.submit_s": incl("cloud.submit"),
        "cloud.api_calls": calls("cloud.submit"),
        "cloud.throttled": attr("cloud.submit", "throttled"),
        # simulated seconds per executor run: its own row, its own unit
        "cloud.sim_makespan_s": per_call("deploy.execute", "sim_makespan_s"),
        "state.to_json_s": incl("state.to_json"),
        "state.to_json_calls": calls("state.to_json"),
        "state.copy_s": incl("state.copy"),
        "state.checkpoint_s": incl("state.checkpoint"),
        "state.snapshot_deltas": perf("snapshot.deltas"),
        "state.store_write_s": incl("state.store_write"),
        "state.journal_bytes": per_call("state.store_write", "bytes"),
        "compilecache.load_s": incl("compilecache.load"),
        "compilecache.materialize_s": incl("compilecache.materialize"),
        "compilecache.store_s": incl("compilecache.store"),
        "compilecache.exact_hits": per_op(load.outcomes.get("outcome=exact", 0)),
        "compilecache.partial_hits": per_op(load.outcomes.get("outcome=partial", 0)),
        "compilecache.misses": per_op(load.outcomes.get("outcome=miss", 0)),
        "compilecache.artifact_bytes": per_call("compilecache.store", "bytes"),
        "core.apply_self_s": own("core.apply"),
        "core.plan_self_s": own("core.plan"),
        "drift.poll_s": incl("drift.tail") + own("drift.poll"),
        "drift.cycle_self_s": own("drift.cycle"),
        "drift.reconcile_s": incl("drift.reconcile"),
        "drift.findings": attr("drift.cycle", "findings") + attr("drift.poll", "findings"),
        "drift.events_read": attr("drift.tail", "events"),
        "drift.external_events": perf("drift.external_events"),
        "drift.api_calls": attr("drift.cycle", "api_calls") + attr("drift.poll", "api_calls"),
        "service.queued_p50_s": lat(svc_ops, None, 0.5, field="queued_s"),
        "service.queued_p90_s": lat(svc_ops, None, 0.9, field="queued_s"),
        "service.engine_p50_s": lat(svc_ops, None, 0.5, field="engine_s"),
        "service.execute_self_s": own("service.execute"),
        "service.persist_s": incl("service.persist"),
        "service.session_open_s": incl("service.session_open"),
        "service.admit_s": incl("service.admit"),
        "service.apply_p90_s": lat(svc_ops, "apply", 0.9, phase=quoted),
        "service.plan_p50_s": lat(svc_ops, "plan", 0.5, phase=quoted),
        "service.drift_p50_s": lat(svc_ops, "drift", 0.5, phase=quoted),
        "service.stats_p50_s": lat(svc_ops, "stats", 0.5, phase=quoted),
        "service.lo_p50_s": lat(svc_ops, None, 0.5, phase="lo"),
        "service.lo_p90_s": lat(svc_ops, None, 0.9, phase="lo"),
        # 0 unless the box is too slow for the fixed rate to sit below the knee
        "service.lo_shed_share": (
            sum(1 for s in lo_ops if s.outcome == "shed") / len(lo_ops) if lo_ops else 0.0
        ),
        "service.hi_steady_fairness": extra.get("steady_fairness", 0.0),
        "service.shed_share": per_op(len(shed)),
        **{
            f"service.shed.{reason}": per_op(sum(1 for s in shed if s.reason == reason))
            for reason in SHED_REASONS
        },
        "service.mode_transitions": extra.get("mode_transitions", 0.0),
        "service.generator_late_max_s": extra.get("generator_late_max_s", 0.0),
        "trace.spans_per_op": per_op(len(spans)),
        "trace.overhead_share": overhead_share(outcome.samples, quoted),
    }


def verb_breakdown(
    spans: Sequence[Span], ops: Dict[int, int], weights: Dict[int, float]
) -> Dict[str, Dict[str, float]]:
    """Per verb or op kind: mean traced wall, and where it went.

    Each root (``cli.process`` or ``service.request``) names its verb;
    every span of the same op adds its self time to its layer. The
    layers sum to the wall, which ``run.py`` checks to within 5 %.
    """
    own = self_times(spans)
    verb_of_op: Dict[int, str] = {}
    walls: Dict[str, List[float]] = {}
    for sid, _parent, name, started, ended, attrs in spans:
        if name in ("cli.process", "service.request"):
            verb = (attrs or {}).get("verb") or (attrs or {}).get("kind", "?")
            verb_of_op[ops[sid]] = verb
            walls.setdefault(verb, []).append((ended - started) * weights.get(sid, 1.0))
    out: Dict[str, Dict[str, float]] = {
        verb: {"wall_s": sum(w) / len(w), "n": float(len(w))} for verb, w in walls.items()
    }
    for sid, _parent, name, _started, _ended, _attrs in spans:
        verb = verb_of_op.get(ops[sid])
        if verb is None:
            continue  # a root no client op owns (fair-queue pops)
        layer = name.split(".", 1)[0]
        row = out[verb]
        row[layer] = row.get(layer, 0.0) + own[sid] * weights.get(sid, 1.0) / row["n"]
    return out


def finalize(tracer: Tracer) -> Tuple[List[Span], Dict[int, int]]:
    """Spans with service roots linked, and each span's op id."""
    ops = resolve_ops(tracer.spans, tracer.op_of_span, tracer.op_of_future)
    return link_service_roots(tracer.spans, ops), ops
