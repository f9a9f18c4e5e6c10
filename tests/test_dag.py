"""Generic DAG tests."""

import random

import pytest

from repro.graph.dag import CycleError, Dag


def chain(*nodes):
    dag = Dag()
    for a, b in zip(nodes, nodes[1:]):
        dag.add_edge(a, b)
    return dag


class TestStructure:
    def test_add_and_query(self):
        dag = Dag()
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        assert dag.successors("a") == {"b", "c"}
        assert dag.predecessors("b") == {"a"}
        assert set(dag.roots()) == {"a"}
        assert set(dag.leaves()) == {"b", "c"}

    def test_self_edge_rejected(self):
        with pytest.raises(CycleError):
            Dag().add_edge("a", "a")

    def test_remove_node(self):
        dag = chain("a", "b", "c")
        dag.remove_node("b")
        assert "b" not in dag
        assert dag.successors("a") == set()
        assert dag.predecessors("c") == set()

    def test_nodes_is_a_live_view(self):
        dag = chain("a", "b")
        view = dag.nodes
        assert "a" in view and len(view) == 2
        dag.add_node("c")
        assert "c" in view  # no copy: reflects later mutations
        assert sorted(view) == ["a", "b", "c"]

    def test_adjacency_views_are_not_copies(self):
        dag = chain("a", "b")
        succ = dag.successors("a")
        dag.add_edge("a", "c")
        assert succ == {"b", "c"}

    def test_missing_node_views_are_empty_and_shared(self):
        dag = Dag()
        assert dag.successors("ghost") == frozenset()
        assert dag.predecessors("ghost") == frozenset()
        assert len(dag.successors("ghost")) == 0

    def test_iter_edges_and_count(self):
        dag = chain("a", "b", "c")
        assert sorted(dag.iter_edges()) == [("a", "b"), ("b", "c")]
        assert dag.edge_count() == 2

    def test_in_degrees(self):
        dag = Dag()
        dag.add_edge("a", "c")
        dag.add_edge("b", "c")
        assert dag.in_degrees() == {"a": 0, "b": 0, "c": 2}

    def test_copies_are_independent(self):
        dag = chain("a", "b")
        cp = dag.copy()
        cp.add_edge("b", "c")
        assert "c" not in dag
        assert dag.successors("b") == set()


class TestTopologicalOrder:
    def test_respects_edges(self):
        dag = Dag()
        dag.add_edge("a", "c")
        dag.add_edge("b", "c")
        dag.add_edge("c", "d")
        order = dag.topological_order()
        assert order.index("a") < order.index("c") < order.index("d")
        assert order.index("b") < order.index("c")

    def test_deterministic_tie_break(self):
        dag = Dag()
        for n in ["z", "m", "a"]:
            dag.add_node(n)
        assert dag.topological_order() == ["a", "m", "z"]

    def test_cycle_raises(self):
        dag = Dag()
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        dag.add_edge("c", "a")
        with pytest.raises(CycleError):
            dag.topological_order()

    def test_find_cycle_returns_loop(self):
        dag = Dag()
        dag.add_edge("a", "b")
        dag.add_edge("b", "a")
        cycle = dag.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]

    def test_acyclic_has_no_cycle(self):
        assert chain("a", "b", "c").find_cycle() is None

    def test_heap_order_matches_sorted_kahn_reference(self):
        """The heap-based sort must reproduce the classic sorted-ready
        Kahn's ordering exactly on arbitrary DAGs."""

        def reference_topo(dag):
            indeg = {n: dag.in_degree(n) for n in dag.nodes}
            ready = sorted(n for n, d in indeg.items() if d == 0)
            out = []
            while ready:
                node = ready.pop(0)
                out.append(node)
                for s in sorted(dag.successors(node)):
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        ready.append(s)
                ready.sort()
            return out

        rng = random.Random(20240806)
        for trial in range(25):
            n = rng.randint(2, 60)
            dag = Dag()
            for i in range(n):
                dag.add_node(f"n{i:02d}")
            for j in range(1, n):
                for dep in rng.sample(range(j), min(j, rng.randint(0, 3))):
                    dag.add_edge(f"n{dep:02d}", f"n{j:02d}")
            assert dag.topological_order() == reference_topo(dag)

    def test_topo_custom_key_breaks_ties(self):
        dag = Dag()
        for n in ["a1", "b2", "c0"]:
            dag.add_node(n)
        order = dag.topological_order(key=lambda n: n[::-1])
        assert order == ["c0", "a1", "b2"]

    def test_topo_stable_across_runs(self):
        dag = Dag()
        dag.add_edge("root", "m")
        dag.add_edge("root", "a")
        dag.add_edge("a", "z")
        dag.add_edge("m", "z")
        assert dag.topological_order() == dag.topological_order()
        assert dag.topological_order() == ["root", "a", "m", "z"]


class TestReachability:
    def test_ancestors_descendants(self):
        dag = Dag()
        dag.add_edge("vpc", "subnet")
        dag.add_edge("subnet", "nic")
        dag.add_edge("nic", "vm")
        dag.add_edge("sg", "nic")
        assert dag.ancestors("vm") == {"vpc", "subnet", "nic", "sg"}
        assert dag.descendants("vpc") == {"subnet", "nic", "vm"}
        assert dag.descendants("vm") == set()


class TestWeightedAnalyses:
    def make_weighted(self):
        # a(1) -> b(10) -> d(1);  a -> c(2) -> d
        dag = Dag()
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        dag.add_edge("b", "d")
        dag.add_edge("c", "d")
        weights = {"a": 1.0, "b": 10.0, "c": 2.0, "d": 1.0}
        return dag, weights

    def test_longest_path_to_sink(self):
        dag, w = self.make_weighted()
        dist = dag.longest_path_to_sink(lambda n: w[n])
        assert dist["d"] == 1.0
        assert dist["b"] == 11.0
        assert dist["c"] == 3.0
        assert dist["a"] == 12.0

    def test_critical_path(self):
        dag, w = self.make_weighted()
        length, path = dag.critical_path(lambda n: w[n])
        assert length == 12.0
        assert path == ["a", "b", "d"]

    def test_empty_graph(self):
        assert Dag().critical_path(lambda n: 1.0) == (0.0, [])

    def test_width_profile(self):
        dag = Dag()
        dag.add_edge("root", "x1")
        dag.add_edge("root", "x2")
        dag.add_edge("root", "x3")
        dag.add_edge("x1", "sink")
        assert dag.width_profile() == [1, 3, 1]
        assert dag.max_width() == 3
