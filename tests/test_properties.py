"""Property-based tests (hypothesis) on core invariants."""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addressing import ResourceAddress
from repro.graph.dag import Dag
from repro.lang.functions import call_function
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_expression_source
from repro.lang.values import values_equal
from repro.porting.emitter import render_value
from repro.state import ResourceState, StateDocument
from repro.cloud.ratelimit import TokenBucket

# -- strategies ---------------------------------------------------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)

scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\x00"
        ),
        max_size=30,
    ),
)

json_values = st.recursive(
    scalar_values,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(identifiers, children, max_size=4),
    ),
    max_leaves=12,
)


class TestEmitterRoundTrip:
    @given(json_values)
    @settings(max_examples=200)
    def test_render_value_parses_back_to_equal_value(self, value):
        """Every JSON-ish value survives emit -> lex -> parse -> eval."""
        from repro.lang.evaluator import Evaluator, Scope

        text = render_value(value)
        expr = parse_expression_source(text)
        result = Evaluator(Scope(bindings={})).evaluate(expr)
        assert values_equal(result, value)

    @given(st.text(max_size=60))
    @example("a${b")
    @example("x${1+1}y")
    @example("$${")
    @settings(max_examples=200)
    def test_string_render_is_lossless(self, text):
        if "\x00" in text:
            return
        rendered = render_value(text)
        expr = parse_expression_source(rendered)
        from repro.lang.evaluator import Evaluator, Scope

        assert Evaluator(Scope(bindings={})).evaluate(expr) == text


class TestLexerProperties:
    @given(
        st.text(
            alphabet=" \t\r\nabcefuxEOT0123456789+-*/%=<>!&|?:(){}[],.\"'#\\$_",
            max_size=120,
        )
    )
    @example("x = 1e5e3")  # float() refuses a second exponent: was ValueError
    @example('x = "\\u12')  # four blind steps off the end: was IndexError
    @example('x = "\\u12"\ny = 2\n')  # ...or over the closing quote
    @example("x = " + "1" * 5000)  # more digits than int() reads
    @settings(max_examples=600)
    def test_lexer_never_crashes_unexpectedly(self, source):
        """Any input either tokenizes or raises the typed syntax error."""
        from repro.lang.diagnostics import CLCSyntaxError

        try:
            tokens = tokenize(source)
            assert tokens[-1].type.name == "EOF"
        except CLCSyntaxError:
            pass  # rejection is fine; crashes are not


class TestAddressProperties:
    keys = st.one_of(st.none(), st.integers(0, 999), identifiers)

    @given(identifiers, identifiers, keys, st.lists(identifiers, max_size=2))
    @settings(max_examples=200)
    def test_address_round_trip(self, rtype, name, key, modules):
        addr = ResourceAddress(
            type=rtype,
            name=name,
            module_path=tuple(modules),
            instance_key=key,
        )
        assert ResourceAddress.parse(str(addr)) == addr

    @given(identifiers, identifiers, st.lists(st.integers(0, 50), min_size=2, max_size=8, unique=True))
    def test_numeric_ordering(self, rtype, name, keys):
        addrs = [
            ResourceAddress(type=rtype, name=name, instance_key=k) for k in keys
        ]
        ordered = sorted(addrs)
        assert [a.instance_key for a in ordered] == sorted(keys)


class TestStateProperties:
    @given(
        st.lists(
            st.tuples(identifiers, identifiers, json_values),
            max_size=6,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    @settings(max_examples=100)
    def test_state_json_round_trip(self, entries):
        doc = StateDocument(serial=3)
        for i, (rtype, name, value) in enumerate(entries):
            doc.set(
                ResourceState(
                    address=ResourceAddress(type=rtype, name=name),
                    resource_id=f"r-{i}",
                    provider="aws",
                    attrs={"payload": _jsonable(value)},
                    region="us-east-1",
                )
            )
        restored = StateDocument.from_json(doc.to_json())
        assert len(restored) == len(doc)
        for entry in doc.resources():
            twin = restored.get(entry.address)
            assert twin is not None
            assert twin.attrs == entry.attrs


class TestDagProperties:
    edge_lists = st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        max_size=40,
    )

    @given(edge_lists)
    @settings(max_examples=200)
    def test_topological_order_respects_every_edge(self, edges):
        from repro.graph.dag import CycleError

        dag = Dag()
        try:
            for a, b in edges:
                dag.add_edge(f"n{a}", f"n{b}")
        except CycleError:
            return
        try:
            order = dag.topological_order()
        except CycleError:
            assert dag.find_cycle() is not None
            return
        position = {n: i for i, n in enumerate(order)}
        for a, b in edges:
            assert position[f"n{a}"] < position[f"n{b}"]

    @given(edge_lists)
    @settings(max_examples=100)
    def test_descendants_closed_under_successors(self, edges):
        from repro.graph.dag import CycleError

        dag = Dag()
        try:
            for a, b in edges:
                dag.add_edge(f"n{a}", f"n{b}")
        except CycleError:
            return
        for node in dag.nodes:
            descendants = dag.descendants(node)
            for d in descendants:
                assert dag.successors(d) <= descendants


class TestCidrProperties:
    @given(st.integers(0, 255), st.integers(1, 8), st.integers(0, 200))
    @settings(max_examples=200)
    def test_cidrsubnet_is_contained_and_disjoint(self, octet, newbits, netnum):
        import ipaddress

        base = f"10.{octet}.0.0/16"
        if netnum >= 2**newbits:
            return
        subnet = call_function("cidrsubnet", [base, newbits, netnum])
        assert ipaddress.ip_network(subnet).subnet_of(ipaddress.ip_network(base))
        if netnum > 0:
            other = call_function("cidrsubnet", [base, newbits, netnum - 1])
            assert not ipaddress.ip_network(subnet).overlaps(
                ipaddress.ip_network(other)
            )


class TestTokenBucketProperties:
    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(1, 20),
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40),
    )
    @settings(max_examples=150)
    def test_start_times_monotone_and_never_early(self, rate, burst, arrivals):
        bucket = TokenBucket(rate=rate, burst=burst)
        arrivals = sorted(arrivals)
        starts = [bucket.consume(t) for t in arrivals]
        for arrival, start in zip(arrivals, starts):
            assert start >= arrival - 1e-9
        for earlier, later in zip(starts, starts[1:]):
            assert later >= earlier - 1e-9

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(1, 20),
        st.integers(1, 60),
    )
    @settings(max_examples=100)
    def test_long_run_rate_is_bounded(self, rate, burst, n):
        bucket = TokenBucket(rate=rate, burst=burst)
        starts = [bucket.consume(0.0) for _ in range(n)]
        window = max(starts) - min(starts)
        if window > 0:
            observed_rate = (n - burst) / window if n > burst else 0.0
            assert observed_rate <= rate * 1.01 + 1e-6


def _jsonable(value):
    """Clamp hypothesis floats to json round-trippable values."""
    return json.loads(json.dumps(value))
