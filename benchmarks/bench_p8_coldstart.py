"""P8 `coldstart` -- streaming parse and the compiled-artifact cache.

Two claims, each gated:

* **Warm re-run skips parse and build**: the warm tier runs what
  ``clc plan`` runs -- one compile, validate, plan -- on an unchanged
  estate through the persistent compiled-artifact cache
  (``repro.compilecache``). It must be an exact hit that parses zero
  chunks and never calls the engine's ``build_graph``, render
  byte-identical to the cold plan (compared by sha256 across
  processes), and cost at most ``--max-warm-frac`` of the cold
  parse+validate+build+plan wall at every size >=
  ``--warm-gate-min-size``.
  What is left is the artifact unpickle, validation and the plan
  itself, all O(estate): the default gate (0.80) is the measured 10k
  fraction (0.55; 0.68 at 100k, where the unpickle grows faster than
  the parse) with headroom for this box's noise, not a claim that the
  warm run is O(changed).
* **Cold start is bounded**: every cold tier runs in a subprocess and
  records its peak RSS (``ru_maxrss``); the streaming parse keeps the
  largest tier (``--rss-size``, default 1M resources) within
  ``--max-rss-gb`` when that gate is armed.

CI runs the smoke tier::

    python benchmarks/bench_p8_coldstart.py --sizes 1000 \
        --rss-size 0 --out /tmp/BENCH_coldstart.json

The checked-in ``BENCH_coldstart.json`` is the run at the default
sizes (``--sizes 10000,100000``); its ``rss_tier`` is carried over from
the run that introduced it (PR 8) and says so in ``measured_at`` -- the
cold path has changed since (PR 20's lexer), so it is a record of that
commit, not a current number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro.core.engine as engine_module
import repro.lang.config as lang_config
from repro.cloud import CloudGateway
from repro.core.engine import CloudlessEngine
from repro.compilecache import (
    CompileCache,
    schema_fingerprint,
    variables_fingerprint,
)
from repro.graph import Planner, build_graph, read_data_sources
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.types.schema import SchemaRegistry
from repro.workloads import scale_estate_sharded


def plan_sha(plan) -> str:
    return hashlib.sha256(plan.render().encode()).hexdigest()


def make_engine(
    seed: int, providers: int, cache_dir: Optional[str] = None
) -> CloudlessEngine:
    gateway = CloudGateway.simulated(seed=seed, synthetic=providers)
    # validation needs the synthetic planes' catalogs, not just the
    # aws/azure defaults
    registry = SchemaRegistry(
        spec for plane in gateway.planes.values() for spec in plane.specs.values()
    )
    for name, plane in gateway.planes.items():
        registry.set_regions(name, plane.regions)
    return CloudlessEngine(
        gateway=gateway, registry=registry, cache_dir=cache_dir
    )


# -- cold tier (runs in a subprocess for honest peak-RSS accounting) ----------


def cold_child(args: argparse.Namespace) -> int:
    """Cold parse+build+plan of one tier; stores the artifact and
    emits phase timings, plan sha, and peak RSS as JSON on stdout."""
    clear_analysis_cache()
    source = scale_estate_sharded(
        args.size, providers=args.providers, cross_link_every=5
    )
    texts = {"main.clc": source}
    gateway = CloudGateway.simulated(seed=args.seed, synthetic=args.providers)

    t0 = time.perf_counter()
    config = Configuration.parse_streaming(texts)
    parse_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = build_graph(config)
    build_s = time.perf_counter() - t0

    # store before planning, as the engine does: the planner binds a
    # ValueResolver into the graph's resolver slot, and an artifact
    # pickled after that names a class the cache's loader refuses
    store_s = 0.0
    if args.cache_dir:
        cache = CompileCache(args.cache_dir)
        t0 = time.perf_counter()
        ok = cache.store(
            texts,
            variables_fingerprint(None),
            schema_fingerprint(gateway),
            config,
            graph,
        )
        store_s = time.perf_counter() - t0
        assert ok, "artifact store failed"

    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    t0 = time.perf_counter()
    data = read_data_sources(gateway, graph, state)
    plan = planner.plan(graph, state, data_values=data)
    plan_s = time.perf_counter() - t0

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # the verb validates before it plans. Timed last, after the RSS
    # sample and only on cached tiers, so parse/build/plan and the peak
    # stay the measurements they always were.
    validate_s = 0.0
    if args.cache_dir:
        engine = make_engine(args.seed, args.providers)
        t0 = time.perf_counter()
        report = engine.validate(config)
        validate_s = time.perf_counter() - t0
        assert report.ok, str(report)

    print(
        json.dumps(
            {
                "parse_s": round(parse_s, 4),
                "build_s": round(build_s, 4),
                "plan_s": round(plan_s, 4),
                "cold_total_s": round(parse_s + build_s + plan_s, 4),
                "validate_s": round(validate_s, 4),
                "store_s": round(store_s, 4),
                "n_changes": len(plan.changes),
                "plan_sha": plan_sha(plan),
                "peak_rss_kb": peak_rss_kb,
            }
        )
    )
    return 0


def run_cold_tier(
    size: int, providers: int, seed: int, cache_dir: Optional[str]
) -> Dict[str, Any]:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--size",
        str(size),
        "--providers",
        str(providers),
        "--seed",
        str(seed),
    ]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# -- warm tier (in-process: the steps of `clc plan`) --------------------------


def _counting(module: Any, name: str, calls: Dict[str, int]):
    """Swap ``module.name`` for a call-counting wrapper; returns the
    undo."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    setattr(module, name, wrapper)
    return lambda: setattr(module, name, real)


def run_warm_tier(
    size: int, providers: int, seed: int, cache_dir: str
) -> Dict[str, Any]:
    clear_analysis_cache()
    source = scale_estate_sharded(
        size, providers=providers, cross_link_every=5
    )
    engine = make_engine(seed, providers, cache_dir)
    calls: Dict[str, int] = {}
    undo = [
        _counting(lang_config, "parse_file", calls),
        _counting(engine_module, "build_graph", calls),
    ]
    try:
        t0 = time.perf_counter()
        compiled = engine.compile(source)
        t1 = time.perf_counter()
        report = engine.validate(compiled)
        t2 = time.perf_counter()
        plan = engine.plan(compiled)
        t3 = time.perf_counter()
    finally:
        for restore in undo:
            restore()
    assert report.ok, str(report)
    cache = engine.compile_cache
    return {
        "warm_s": round(t3 - t0, 4),
        "warm_compile_s": round(t1 - t0, 4),
        "warm_validate_s": round(t2 - t1, 4),
        "warm_plan_s": round(t3 - t2, 4),
        "plan_sha": plan_sha(plan),
        "exact_hits": cache.exact_hits,
        "partial_hits": cache.partial_hits,
        "misses": cache.misses,
        "stores": cache.stores,
        "chunks_parsed": calls.get("parse_file", 0),
        "build_graph_calls": calls.get("build_graph", 0),
    }


# -- driver ------------------------------------------------------------------


def bench(args: argparse.Namespace) -> Dict[str, Any]:
    tiers: List[Dict[str, Any]] = []
    failures: List[str] = []
    cpus = os.cpu_count() or 1

    for size in args.sizes:
        with tempfile.TemporaryDirectory(prefix="clc-cache-") as cache_dir:
            cold = run_cold_tier(size, args.providers, args.seed, cache_dir)
            warm = run_warm_tier(size, args.providers, args.seed, cache_dir)
        tier = {"size": size, **cold, **warm}
        # like for like: both sides are the steps of `clc plan`
        tier["cold_verb_s"] = round(
            cold["cold_total_s"] + cold["validate_s"], 4
        )
        tier["warm_frac"] = round(
            warm["warm_s"] / max(tier["cold_verb_s"], 1e-9), 4
        )
        tiers.append(tier)
        if warm["plan_sha"] != cold["plan_sha"]:
            failures.append(f"{size}: warm plan not byte-identical to cold")
        if warm["exact_hits"] != 1:
            failures.append(
                f"{size}: warm plan missed the cache "
                f"(exact={warm['exact_hits']} misses={warm['misses']})"
            )
        if warm["chunks_parsed"] or warm["build_graph_calls"] or warm["stores"]:
            failures.append(
                f"{size}: warm plan redid compile work "
                f"(chunks_parsed={warm['chunks_parsed']} "
                f"build_graph={warm['build_graph_calls']} "
                f"stores={warm['stores']})"
            )
        if (
            size >= args.warm_gate_min_size
            and tier["warm_frac"] > args.max_warm_frac
        ):
            failures.append(
                f"{size}: warm plan {tier['warm_frac']:.1%} of cold "
                f"> gate {args.max_warm_frac:.0%}"
            )
        print(
            f"size={size}: cold={tier['cold_verb_s']:.2f}s "
            f"(parse={cold['parse_s']:.2f} validate={cold['validate_s']:.2f} "
            f"build={cold['build_s']:.2f} plan={cold['plan_s']:.2f}) "
            f"warm={warm['warm_s']:.3f}s "
            f"(compile={warm['warm_compile_s']:.2f} "
            f"validate={warm['warm_validate_s']:.2f} "
            f"plan={warm['warm_plan_s']:.2f}; {tier['warm_frac']:.1%}) "
            f"rss={cold['peak_rss_kb'] // 1024}MB",
            file=sys.stderr,
        )

    rss_tier: Optional[Dict[str, Any]] = None
    if args.rss_size:
        cold = run_cold_tier(args.rss_size, args.providers, args.seed, None)
        rss_tier = {"size": args.rss_size, **cold}
        rss_gb = cold["peak_rss_kb"] / (1024 * 1024)
        rss_tier["peak_rss_gb"] = round(rss_gb, 2)
        if args.max_rss_gb and rss_gb > args.max_rss_gb:
            failures.append(
                f"{args.rss_size}: peak RSS {rss_gb:.2f}GB "
                f"> gate {args.max_rss_gb}GB"
            )
        print(
            f"rss tier size={args.rss_size}: "
            f"cold={cold['cold_total_s']:.2f}s peak_rss={rss_gb:.2f}GB",
            file=sys.stderr,
        )

    return {
        "benchmark": "p8_coldstart",
        "workload": "scale_estate_sharded",
        "seed": args.seed,
        "providers": args.providers,
        "cpus": cpus,
        "sizes": args.sizes,
        "tiers": tiers,
        "rss_tier": rss_tier,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000")
    parser.add_argument("--providers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--max-warm-frac",
        type=float,
        default=0.80,
        help="warm validate+plan must cost at most this fraction of cold",
    )
    parser.add_argument(
        "--warm-gate-min-size",
        type=int,
        default=10000,
        help="arm the warm-fraction gate at and above this size",
    )
    parser.add_argument(
        "--rss-size",
        type=int,
        default=1000000,
        help="cold tier sized for the peak-RSS record (0 disables)",
    )
    parser.add_argument(
        "--max-rss-gb",
        type=float,
        default=0.0,
        help="peak-RSS gate for the --rss-size tier (0 records only)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BENCH_coldstart.json"
        ),
    )
    # hidden: subprocess mode for cold tiers
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return cold_child(args)
    args.sizes = [int(s) for s in str(args.sizes).split(",") if s]

    report = bench(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if report["failures"]:
        for line in report["failures"]:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
