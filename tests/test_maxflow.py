from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import random

from aemflow.errors import Infeasible, ValidationError
from aemflow.graph import FlowAssignment, Graph
from aemflow.maxflow import DeficiencyReport, Network, bounded_max_flow_int, deficiency_int
from intflow import bounded_flow, deficiency, ref_bounded_flow, ref_deficiency, scaled


def build(n_nodes, edge_list, s=0, t=1):
    g = Graph()
    for _ in range(n_nodes):
        g.add_node()
    for u, v in edge_list:
        g.add_edge(u, v)
    g.source, g.sink = s, t
    return g


def max_flow(n, arcs):
    """Max flow from node 0 to node 1 over arcs (tail, head, upper)."""
    return bounded_flow(n, [(u, v, 0, c) for u, v, c in arcs])


def graph_arcs(g, lowers, uppers):
    return [(e.tail, e.head, lowers[e.id], uppers[e.id]) for e in g.edges]


def cut_capacity(arcs, side):
    """Uppers crossing forward minus lowers crossing backward."""
    cap = Q(0)
    for u, v, low, up in arcs:
        if u in side and v not in side:
            cap += up
        elif v in side and u not in side:
            cap -= low
    return cap


class TestGraph:
    def test_self_loop_rejected(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(ValidationError):
            g.add_edge("a", "a")

    def test_parallel_edges_allowed(self):
        g = build(2, [(0, 1), (0, 1)])
        assert g.m == 2
        assert g.out_edges(0) == [0, 1]

    def test_duplicate_node_name_rejected(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(ValidationError):
            g.add_node("a")

    def test_unset_source_rejected(self):
        g = build(2, [(0, 1)])
        g.source = None
        with pytest.raises(ValidationError):
            g.validate()

    def test_names_resolve(self):
        g = Graph()
        s = g.add_node("s")
        t = g.add_node("t")
        e = g.add_edge("s", "t")
        assert (s, t, e) == (0, 1, 0)
        assert g.node_id("t") == 1
        assert g.node_name(0) == "s"


class TestCapacityBounds:
    """The core accepts only bounds with 0 <= lower <= upper."""

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValidationError):
            bounded_flow(2, [(0, 1, Q(7), Q(5))])

    def test_negative_lower_rejected(self):
        with pytest.raises(ValidationError):
            bounded_flow(2, [(0, 1, Q(-1), Q(5))])


class TestMaxFlow:
    def test_single_edge(self):
        value, flows, cut = max_flow(2, [(0, 1, Q(10))])
        assert value == 10
        assert flows == (10,)
        assert cut == {0}

    def test_two_paths_bottleneck(self):
        # s -> a -> t and s -> b -> t, with a -> b crossover unused
        arcs = [
            (0, 2, Q(3)),
            (0, 3, Q(2)),
            (2, 1, Q(2)),
            (3, 1, Q(4)),
            (2, 3, Q(5)),
        ]
        value, flows, cut = max_flow(4, arcs)
        assert value == 5
        assert flows[0] == 3 and flows[4] == 1

    def test_rational_capacities_exact(self):
        arcs = [(0, 2, Q(1, 3)), (2, 1, Q(1, 2))]
        value, flows, _ = max_flow(3, arcs)
        assert value == Q(1, 3)
        assert flows == (Q(1, 3), Q(1, 3))

    def test_disconnected_is_zero(self):
        value, flows, cut = max_flow(3, [(0, 2, Q(5))])
        assert value == 0
        assert cut == {0, 2}

    def test_x3c_single_triple_all_free(self):
        # s=0, t=1, S1=2, a1..a3 = 3,4,5; lower bounds all zero
        arcs = [
            (0, 2, Q(5)),
            (2, 1, Q(2)),
            (2, 3, Q(1)),
            (2, 4, Q(1)),
            (2, 5, Q(1)),
            (3, 1, Q(1)),
            (4, 1, Q(1)),
            (5, 1, Q(1)),
        ]
        value, _, cut = max_flow(6, arcs)
        assert value == 5
        assert cut == {0}


class TestBoundedMaxFlow:
    def test_lower_bounds_satisfiable(self):
        # s -> v (lower 7) -> t; plenty of room
        arcs = [(0, 2, Q(7), Q(10)), (2, 1, Q(0), Q(10))]
        value, flows, _ = bounded_flow(3, arcs)
        assert value == 10

    def test_lower_bound_forces_detour(self):
        # s->a lower 2, a->t cap 1, a->b->t mops up the forced excess
        arcs = [
            (0, 2, Q(2), Q(2)),
            (2, 1, Q(0), Q(1)),
            (2, 3, Q(0), Q(5)),
            (3, 1, Q(0), Q(5)),
        ]
        value, flows, _ = bounded_flow(4, arcs)
        assert value == 2
        assert flows[0] == 2

    def test_infeasible_bottleneck(self):
        arcs = [(0, 2, Q(7), Q(10)), (2, 1, Q(0), Q(5))]
        with pytest.raises(Infeasible):
            bounded_flow(3, arcs)

    def test_infeasible_reports_deficiency(self):
        arcs = [(0, 2, Q(7), Q(10)), (2, 1, Q(0), Q(5))]
        rep = deficiency(3, arcs)
        assert rep.deficiency == 2

    def test_feasible_has_zero_deficiency(self):
        arcs = [(0, 2, Q(7), Q(10)), (2, 1, Q(0), Q(10))]
        rep = deficiency(3, arcs)
        assert rep.deficiency == 0

    def test_backward_lower_bound_cut_value(self):
        # A lower bound on a backward edge reduces the cut capacity.
        # s->t cap 5 and t->s lower 1: optimum 5 (return arc refunds through s)
        g = build(2, [(0, 1), (1, 0)])
        arcs = graph_arcs(g, (Q(0), Q(1)), (Q(5), Q(3)))
        value, flows, side = bounded_flow(g.n, arcs)
        FlowAssignment(flows, value).validate(g, (Q(5), Q(3)))
        assert flows[1] >= 1
        assert value == cut_capacity(arcs, side)


class TestMaxFlowBounded:
    def test_returns_matching_certificate(self):
        g = build(4, [(0, 2), (0, 3), (2, 1), (3, 1), (2, 3)])
        caps = [Q(c) for c in (3, 2, 2, 4, 5)]
        arcs = graph_arcs(g, [0] * g.m, caps)
        value, flows, side = bounded_flow(g.n, arcs)
        FlowAssignment(flows, value).validate(g, caps)
        assert value == 5
        assert 0 in side and 1 not in side
        assert cut_capacity(arcs, side) == 5

    def test_flow_value_is_net_source_outflow(self):
        g = build(2, [(0, 1), (1, 0)])
        value, flows, _ = bounded_flow(g.n, graph_arcs(g, [0, 0], [4, 9]))
        assert value == g.net_outflow(flows, g.source) == 4

    def test_validate_catches_bad_conservation(self):
        g = build(3, [(0, 2), (2, 1)])
        bad = FlowAssignment((Q(3), Q(2)), Q(3))
        with pytest.raises(ValidationError):
            bad.validate(g, (Q(5), Q(5)))

    def test_validate_catches_bad_value(self):
        g = build(2, [(0, 1)])
        with pytest.raises(ValidationError):
            FlowAssignment((Q(3),), Q(4)).validate(g, (Q(5),))


caps = st.fractions(min_value=0, max_value=8, max_denominator=4)


@st.composite
def random_network(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=10))
    arcs = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            v = (v + 1) % n
        arcs.append((u, v, draw(caps)))
    return n, arcs


class TestFlowProperties:
    @given(random_network())
    @settings(max_examples=60, deadline=None)
    def test_value_equals_cut_capacity(self, net):
        n, arcs = net
        value, flows, cut = max_flow(n, arcs)
        cap = sum(
            (c for u, v, c in arcs if u in cut and v not in cut), Q(0)
        )
        assert value == cap
        assert 0 in cut and 1 not in cut

    @given(random_network())
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_bounds(self, net):
        n, arcs = net
        value, flows, _ = max_flow(n, arcs)
        for f, (_, _, c) in zip(flows, arcs):
            assert 0 <= f <= c
        for v in range(n):
            if v in (0, 1):
                continue
            net_v = sum(f for f, a in zip(flows, arcs) if a[0] == v) - sum(
                f for f, a in zip(flows, arcs) if a[1] == v
            )
            assert net_v == 0

    @given(random_network())
    @settings(max_examples=40, deadline=None)
    def test_integral_caps_give_integral_flow(self, net):
        n, arcs = net
        arcs = [(u, v, Q(int(c))) for u, v, c in arcs]
        value, flows, _ = max_flow(n, arcs)
        assert value.denominator == 1
        assert all(f.denominator == 1 for f in flows)

    @given(random_network(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_violations_match_the_check_on_fractions(self, net, data):
        # `violations` sums net outflows on integers; the same check on
        # Fractions must report the same lines.
        n, arcs = net
        g = build(n, [(u, v) for u, v, _ in arcs])
        caps = [c for _, _, c in arcs]
        values = tuple(
            data.draw(st.sampled_from([c, c + Q(1, 6), c - Q(1, 3), -c, Q(1, 2)]))
            for c in caps
        )
        want = []
        for e, f in enumerate(values):
            if f < 0:
                want.append(f"violation capacity edge {e} flow {f} below 0")
            elif f > caps[e]:
                want.append(f"violation capacity edge {e} flow {f} above {caps[e]}")
        for v in range(2, n):
            net_v = g.net_outflow(values, v)
            if net_v != 0:
                want.append(f"violation conservation node {v} net {net_v}")
        assert list(FlowAssignment(values, Q(0)).violations(g, caps)) == want

    @given(random_network())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, net):
        n, arcs = net
        assert max_flow(n, arcs) == max_flow(n, arcs)


def _compiled(net, arcs):
    """Flow or Infeasible, and deficiency, of rational arcs on a compiled net."""
    _, d, lowers, uppers = scaled(arcs)
    rep = deficiency_int(net, lowers, uppers, d)
    try:
        value, flows, side = bounded_max_flow_int(net, lowers, uppers, d)
    except Infeasible as exc:
        return exc.context, rep
    return (Q(value, d), tuple(Q(f, d) for f in flows), side), rep


def _reference(n, arcs, s, t):
    rep = ref_deficiency(n, arcs, s, t)
    try:
        return ref_bounded_flow(n, arcs, s, t), rep
    except Infeasible:
        return rep, rep


@st.composite
def bound_draws(draw):
    """An arc list with parallel arcs, then several bound vectors for it."""
    n = draw(st.integers(min_value=2, max_value=6))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    m = draw(st.integers(min_value=1, max_value=10))
    pairs = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        pairs.append((u, v if u != v else (v + 1) % n))
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        arcs = []
        for u, v in pairs:
            up = draw(st.fractions(min_value=0, max_value=6, max_denominator=3))
            lo = draw(st.sampled_from([Q(0), up, up / 2, min(up, Q(1))]))
            arcs.append((u, v, lo, up))
        rounds.append(arcs)
    return n, s, t, pairs, rounds


class TestCompiledNetwork:
    """One `Network` per arc list, reused across bounds, against a network
    built per call (`intflow.ref_bounded_flow`, `intflow.ref_deficiency`):
    equal value, flows, cut side, deficiency, aux side and crosses_return,
    and the same Infeasible."""

    @given(bound_draws())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_call_build(self, draw):
        n, s, t, pairs, rounds = draw
        net = Network(n, pairs, s, t)
        for arcs in rounds:
            assert _compiled(net, arcs) == _reference(n, arcs, s, t)

    def test_matches_on_seeded_draws(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 7)
            s, t = rng.sample(range(n), 2)
            pairs = []
            for _ in range(rng.randint(1, 12)):
                u, v = rng.sample(range(n), 2)
                pairs.append((u, v))
            net = Network(n, pairs, s, t)
            for _ in range(3):
                arcs = []
                for u, v in pairs:
                    up = Q(rng.choice([0, 0, 1, 2, 3, 5]), rng.choice([1, 1, 2]))
                    lo = rng.choice([Q(0), Q(0), up, up / 3])
                    arcs.append((u, v, lo, up))
                got = _compiled(net, arcs)
                assert got == _reference(n, arcs, s, t)
                seen.add(("infeasible", isinstance(got[0], DeficiencyReport)))
                seen.add(("lowers", any(a[2] for a in arcs)))
                seen.add(("zero capacity", any(a[3] == 0 for a in arcs)))
            seen.add(("parallel", len(set(pairs)) < len(pairs)))
        assert seen == {(key, flag) for key, _ in seen for flag in (True, False)}

    @pytest.mark.parametrize(
        "arcs",
        [
            [(0, 2, Q(7), Q(5)), (2, 1, Q(-1), Q(5))],
            [(0, 2, Q(-1), Q(5)), (2, 1, Q(7), Q(5))],
            [(0, 2, Q(0), Q(5)), (2, 1, Q(-2), Q(-3))],
        ],
    )
    def test_bad_bounds_raise_the_same_error(self, arcs):
        net = Network(3, [(u, v) for u, v, _, _ in arcs], 0, 1)
        with pytest.raises(ValidationError) as want:
            ref_bounded_flow(3, arcs)
        with pytest.raises(ValidationError) as got:
            _compiled(net, arcs)
        assert str(got.value) == str(want.value)
