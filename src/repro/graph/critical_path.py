"""Critical-path analysis over execution plans (3.3).

Computes per-change priorities (longest remaining path, weighted by
estimated provisioning latency), the critical path itself, and the
theoretical lower bound on makespan -- the numbers the cloudless
scheduler uses and the E1 benchmark reports.

Scale notes: :func:`analyze` runs exactly one topological sort and
reuses it for the priorities, the critical path, and the width profile
(previously each recomputed its own sort). Results are additionally
memoized content-addressed -- keyed by the DAG's edge set and the
estimated durations -- so re-running an executor over the same plan, or
replanning an unchanged subgraph, hits the cache instead of recomputing
(see ``docs/performance.md``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..perf import PERF
from .dag import Dag
from .plan import Action, Plan, PlannedChange


@dataclasses.dataclass
class CriticalPathAnalysis:
    """Result bundle for one plan.

    Instances may be shared through the analysis cache -- treat every
    field as read-only.
    """

    priorities: Dict[str, float]  # change id -> longest path to sink
    critical_path: List[str]
    critical_length_s: float
    total_work_s: float
    max_width: int

    @property
    def parallelism_bound(self) -> float:
        """Best possible speedup over sequential (work / span)."""
        if self.critical_length_s <= 0:
            return 1.0
        return self.total_work_s / self.critical_length_s


def estimate_change_duration(
    change: PlannedChange, mean_latency: Callable[[str, str], float]
) -> float:
    """Expected execution time of one planned change."""
    rtype = change.rtype
    if change.action is Action.CREATE:
        return mean_latency(rtype, "create")
    if change.action is Action.UPDATE:
        return mean_latency(rtype, "update")
    if change.action is Action.DELETE:
        return mean_latency(rtype, "delete")
    if change.action is Action.REPLACE:
        return mean_latency(rtype, "delete") + mean_latency(rtype, "create")
    if change.action is Action.READ:
        return mean_latency(rtype, "read")
    return 0.0


#: cache key: (edge set, per-change durations) -- fully content-addressed,
#: so no invalidation hooks are needed anywhere.
_CacheKey = Tuple[FrozenSet[Tuple[str, str]], FrozenSet[Tuple[str, float]]]

#: process-wide LRU over recent analyses (replans of unchanged subgraphs
#: across *different* Plan objects still hit).
_ANALYSIS_CACHE: "OrderedDict[_CacheKey, CriticalPathAnalysis]" = OrderedDict()
_ANALYSIS_CACHE_MAX = 8


def clear_analysis_cache() -> None:
    _ANALYSIS_CACHE.clear()


def analyze(
    plan: Plan,
    mean_latency: Callable[[str, str], float],
    execution_dag: Optional[Dag] = None,
) -> CriticalPathAnalysis:
    """Critical-path analysis of a plan's execution DAG."""
    dag = execution_dag if execution_dag is not None else plan.execution_dag()
    if not dag.nodes:
        return CriticalPathAnalysis({}, [], 0.0, 0.0, 0)
    durations = {
        cid: estimate_change_duration(plan.changes[cid], mean_latency)
        for cid in dag.nodes
    }

    key = (frozenset(dag.iter_edges()), frozenset(durations.items()))
    cached = _ANALYSIS_CACHE.get(key)
    if cached is not None:
        PERF.count("analyze.cache_hits")
        _ANALYSIS_CACHE.move_to_end(key)
        return cached
    PERF.count("analyze.cache_misses")

    order = dag.topological_order()
    weight = durations.__getitem__
    priorities = dag.longest_path_to_sink(weight, order=order)
    length, path = dag.critical_path(weight, dist=priorities)
    analysis = CriticalPathAnalysis(
        priorities=priorities,
        critical_path=path,
        critical_length_s=length,
        total_work_s=sum(durations.values()),
        max_width=dag.max_width(order=order),
    )
    _ANALYSIS_CACHE[key] = analysis
    while len(_ANALYSIS_CACHE) > _ANALYSIS_CACHE_MAX:
        _ANALYSIS_CACHE.popitem(last=False)
    return analysis
