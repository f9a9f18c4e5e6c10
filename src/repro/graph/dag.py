"""Generic directed acyclic graph.

The workhorse behind resource dependency graphs, execution plans,
critical-path scheduling (3.3), and impact-scope analysis (3.3). Nodes
are hashable identifiers; payloads live in the caller.

Edge direction convention: an edge ``u -> v`` means *u must complete
before v* (v depends on u).

Performance notes (the deploy hot path runs through here at
10k-resource scale, see ``docs/performance.md``):

* ``nodes``, ``successors`` and ``predecessors`` are O(1) zero-copy
  views over internal storage -- callers must not mutate them.
* ``topological_order`` is heap-based Kahn's algorithm,
  O((V + E) log V), with deterministic key-based tie-breaking.
* ``copy`` is single-pass over the adjacency maps instead of
  materializing an edge list.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ..perf import PERF

N = TypeVar("N", bound=Hashable)

#: shared immutable empty adjacency view for nodes not in the graph
_EMPTY: frozenset = frozenset()


class CycleError(ValueError):
    """Raised when a DAG operation finds a dependency cycle."""

    def __init__(self, cycle: List):
        pretty = " -> ".join(str(n) for n in cycle)
        super().__init__(f"dependency cycle: {pretty}")
        self.cycle = cycle


class Dag(Generic[N]):
    """Adjacency-set DAG with the analyses the planner needs."""

    def __init__(self) -> None:
        self._succ: Dict[N, Set[N]] = {}
        self._pred: Dict[N, Set[N]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: N) -> None:
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def add_edge(self, before: N, after: N) -> None:
        """Record that ``before`` must complete before ``after``."""
        if before == after:
            raise CycleError([before, after])
        self.add_node(before)
        self.add_node(after)
        self._succ[before].add(after)
        self._pred[after].add(before)

    def remove_node(self, node: N) -> None:
        for succ in self._succ.pop(node, set()):
            self._pred[succ].discard(node)
        for pred in self._pred.pop(node, set()):
            self._succ[pred].discard(node)

    # -- basic queries ------------------------------------------------------

    @property
    def nodes(self) -> KeysView[N]:
        """O(1) view of the node set (iterate / ``in`` / ``len``; no copy)."""
        return self._succ.keys()

    def __contains__(self, node: N) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def edges(self) -> List[Tuple[N, N]]:
        return [(u, v) for u, succs in self._succ.items() for v in succs]

    def iter_edges(self) -> Iterator[Tuple[N, N]]:
        """Lazy edge iteration (no list materialized)."""
        for u, succs in self._succ.items():
            for v in succs:
                yield (u, v)

    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def successors(self, node: N) -> AbstractSet[N]:
        """Zero-copy view of ``node``'s direct successors.

        The returned set is live internal storage -- treat it as
        read-only and do not hold it across graph mutations.
        """
        return self._succ.get(node, _EMPTY)

    def predecessors(self, node: N) -> AbstractSet[N]:
        """Zero-copy view of ``node``'s direct predecessors (read-only)."""
        return self._pred.get(node, _EMPTY)

    def in_degree(self, node: N) -> int:
        return len(self._pred.get(node, _EMPTY))

    def in_degrees(self) -> Dict[N, int]:
        """``{node: in-degree}`` for every node, in one pass."""
        return {n: len(preds) for n, preds in self._pred.items()}

    def roots(self) -> List[N]:
        return [n for n in self._succ if not self._pred[n]]

    def leaves(self) -> List[N]:
        return [n for n in self._succ if not self._succ[n]]

    # -- traversal ------------------------------------------------------------

    def topological_order(self, key: Optional[Callable[[N], object]] = None) -> List[N]:
        """Heap-based Kahn's algorithm, O((V + E) log V).

        ``key`` breaks ties deterministically (default: ``str``). Nodes
        whose keys compare equal are emitted in the order they became
        ready (insertion order among the initial roots), so the result
        is stable for a given construction sequence -- identical to the
        ordering the previous sort-based implementation produced.
        """
        PERF.count("dag.topo_sorts")
        sort_key = key or str
        heap: List[Tuple[object, int, N]] = []
        seq = 0
        indeg: Dict[N, int] = {}
        for node, preds in self._pred.items():
            d = len(preds)
            indeg[node] = d
            if d == 0:
                heap.append((sort_key(node), seq, node))
                seq += 1
        heapq.heapify(heap)
        out: List[N] = []
        succ = self._succ
        while heap:
            _, _, node = heapq.heappop(heap)
            out.append(node)
            for s in succ[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, (sort_key(s), seq, s))
                    seq += 1
        if len(out) != len(succ):
            raise CycleError(self.find_cycle() or [])
        return out

    def find_cycle(self) -> Optional[List[N]]:
        """Some cycle in the graph, or None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[N, int] = {n: WHITE for n in self._succ}
        parent: Dict[N, Optional[N]] = {}

        for start in self._succ:
            if color[start] != WHITE:
                continue
            stack: List[Tuple[N, Iterable[N]]] = [(start, iter(sorted(self._succ[start], key=str)))]
            color[start] = GRAY
            parent[start] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if color[succ] == WHITE:
                        color[succ] = GRAY
                        parent[succ] = node
                        stack.append((succ, iter(sorted(self._succ[succ], key=str))))
                        advanced = True
                        break
                    if color[succ] == GRAY:
                        cycle = [succ, node]
                        cur = parent[node]
                        while cur is not None and cur != succ:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.append(succ)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def validate_acyclic(self) -> None:
        cycle = self.find_cycle()
        if cycle:
            raise CycleError(cycle)

    def ancestors(self, node: N) -> Set[N]:
        """Every node that must complete before ``node``."""
        return self._reach(node, self._pred)

    def descendants(self, node: N) -> Set[N]:
        """Every node that depends (transitively) on ``node``."""
        return self._reach(node, self._succ)

    def _reach(self, node: N, adj: Dict[N, Set[N]]) -> Set[N]:
        seen: Set[N] = set()
        frontier = deque(adj.get(node, _EMPTY))
        while frontier:
            cur = frontier.popleft()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(adj.get(cur, _EMPTY))
        return seen

    def copy(self) -> "Dag[N]":
        """Independent structural copy; single pass, O(V + E)."""
        out: Dag[N] = Dag()
        out._succ = {n: set(succs) for n, succs in self._succ.items()}
        out._pred = {n: set(preds) for n, preds in self._pred.items()}
        return out

    # -- weighted analyses ------------------------------------------------------

    def longest_path_to_sink(
        self,
        weight: Callable[[N], float],
        order: Optional[List[N]] = None,
    ) -> Dict[N, float]:
        """For each node: weight of the heaviest path from it to any sink,
        *including its own weight*. This is the critical-path priority
        used by the cloudless scheduler (3.3).

        ``order`` lets callers reuse a precomputed topological order
        instead of paying for another sort.
        """
        if order is None:
            order = self.topological_order()
        dist: Dict[N, float] = {}
        for node in reversed(order):
            succ_best = max(
                (dist[s] for s in self._succ[node]), default=0.0
            )
            dist[node] = weight(node) + succ_best
        return dist

    def critical_path(
        self,
        weight: Callable[[N], float],
        dist: Optional[Dict[N, float]] = None,
    ) -> Tuple[float, List[N]]:
        """The heaviest root-to-sink path (length, nodes).

        ``dist`` lets callers reuse a precomputed
        :meth:`longest_path_to_sink` result.
        """
        if not self._succ:
            return 0.0, []
        if dist is None:
            dist = self.longest_path_to_sink(weight)
        path: List[N] = []
        node = max(self.roots(), key=lambda n: (dist[n], str(n)))
        while True:
            path.append(node)
            succs = self._succ[node]
            if not succs:
                break
            node = max(succs, key=lambda n: (dist[n], str(n)))
        return dist[path[0]], path

    def width_profile(self, order: Optional[List[N]] = None) -> List[int]:
        """Number of nodes per dependency level (parallelism profile)."""
        if order is None:
            order = self.topological_order()
        level: Dict[N, int] = {}
        for node in order:
            preds = self._pred[node]
            level[node] = 1 + max((level[p] for p in preds), default=-1)
        if not level:
            return []
        depth = max(level.values()) + 1
        profile = [0] * depth
        for lv in level.values():
            profile[lv] += 1
        return profile

    def max_width(self, order: Optional[List[N]] = None) -> int:
        profile = self.width_profile(order)
        return max(profile) if profile else 0

    # -- export -----------------------------------------------------------

    def to_dot(
        self,
        name: str = "resources",
        label: Optional[Callable[[N], str]] = None,
        color: Optional[Callable[[N], str]] = None,
    ) -> str:
        """Graphviz DOT rendering (the `cloudless graph` command)."""
        label = label or str
        lines = [f"digraph \"{name}\" {{", "  rankdir = LR;"]
        for node in sorted(self._succ, key=str):
            attrs = [f'label="{label(node)}"']
            if color is not None:
                attrs.append(f'color="{color(node)}"')
            lines.append(f'  "{node}" [{", ".join(attrs)}];')
        for u, v in sorted(self.edges(), key=lambda e: (str(e[0]), str(e[1]))):
            lines.append(f'  "{u}" -> "{v}";')
        lines.append("}")
        return "\n".join(lines)
