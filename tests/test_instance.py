import itertools
import random
import warnings
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from aemflow.errors import Infeasible, InternalError, ValidationError
from aemflow.graph import FlowAssignment, Graph
from aemflow.instance import (
    FEvaluator,
    Instance,
    make_instance,
)
from aemflow.maxflow import Network
from aemflow.oracles import _int_value
from aemflow.parametric import Slice
from aemflow.values import DeviationFn
from intflow import bounded_flow, deficiency, scaled

shift = DeviationFn.constant_shift


def two_parallel(c=1):
    """s -> t twice, caps 4 and 10, both homologous with shift c."""
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [4, 10], [([0, 1], shift(c))])


def bottleneck():
    """s -> v cap 3 plain, v -> t twice cap 10 homologous, shift 0."""
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.add_edge("s", "v")
    g.add_edge("v", "t")
    g.add_edge("v", "t")
    g.source, g.sink = 0, 2
    return make_instance(g, [3, 10, 10], [([1, 2], shift(0))])


def padded_cover_gadget():
    """Three copies of one triple over elements a1..a3 plus the element set.

    Sets 0..2 are the per-triple sets (elements plus a cap-2 side edge to t),
    set 3 ties the element-to-sink edges together.
    """
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    for i in (1, 2, 3):
        g.add_node(f"S{i}")
    for j in (1, 2, 3):
        g.add_node(f"a{j}")
    g.source, g.sink = 0, 1
    caps = []
    triple_sets = []
    for i in (1, 2, 3):
        g.add_edge("s", f"S{i}")
        caps.append(5)
    for i in (1, 2, 3):
        members = [g.add_edge(f"S{i}", "t")]
        caps.append(2)
        for j in (1, 2, 3):
            members.append(g.add_edge(f"S{i}", f"a{j}"))
            caps.append(1)
        triple_sets.append(members)
    element_edges = []
    for j in (1, 2, 3):
        element_edges.append(g.add_edge(f"a{j}", "t"))
        caps.append(1)
    sets = [(members, shift(1)) for members in triple_sets]
    sets.append((element_edges, shift(1)))
    return make_instance(g, caps, sets)


class TestInstanceValidation:
    def test_k_and_u_R(self):
        inst = two_parallel()
        assert inst.k == 1
        assert inst.u_R(0) == 4

    def test_empty_set_rejected(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        with pytest.raises(ValidationError):
            make_instance(g, [5], [([], shift(0))])

    def test_unknown_edge_rejected(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        with pytest.raises(ValidationError):
            make_instance(g, [5], [([3], shift(0))])

    def test_decreasing_deviation_rejected(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        # monotone up to 10 but falling before the set bound 20
        bad = DeviationFn.polynomial((0, 2, Q(-1, 10)))
        with pytest.raises(ValidationError):
            make_instance(g, [20], [([0], bad)])


class TestSubdivision:
    def test_shared_edge_is_split(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        with pytest.warns(UserWarning):
            inst = make_instance(g, [10], [([0], shift(0)), ([0], shift(0))])
        assert inst.k == 2
        assert inst.m == 2
        assert inst.sets[0].edges != inst.sets[1].edges
        # the chain forces equal flow; both sets constrain the same value
        assert FEvaluator(inst).sample((Q(3), Q(3))).value == 3

    def test_three_way_share(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        devs = [shift(0), shift(1), shift(2)]
        with pytest.warns(UserWarning):
            inst = make_instance(g, [10], [([0], d) for d in devs])
        assert inst.m == 3
        all_edges = sorted(e for hs in inst.sets for e in hs.edges)
        assert all_edges == [0, 1, 2]
        assert FEvaluator(inst).sample((Q(2), Q(2), Q(2))).value == 2

    def test_disjoint_sets_untouched(self):
        inst = two_parallel()
        assert inst.m == 2


def bounds(inst, lam):
    """Rational (lowers, uppers) at lam, from the compiled template."""
    d, lowers, uppers, _ = inst.template.scaled_bounds(inst.check_lambda(lam))
    return [Q(x, d) for x in lowers], [Q(x, d) for x in uppers]


class TestBuildGLambda:
    def test_zero_lambda_identity_deviation_pins_to_zero(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [4, 10], [([0], shift(0))])
        lo, up = bounds(inst, (Q(0),))
        assert (lo[0], up[0]) == (0, 0)
        assert (lo[1], up[1]) == (0, 10)

    def test_two_parallel_at_four(self):
        lo, up = bounds(two_parallel(), (Q(4),))
        assert (lo[0], up[0]) == (4, 4)
        assert (lo[1], up[1]) == (4, 5)

    def test_upper_clamp_at_u_R(self):
        inst = two_parallel(c=2)
        lo, up = bounds(inst, (inst.u_R(0),))
        assert (lo[0], up[0]) == (4, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            bounds(two_parallel(), (Q(5),))
        with pytest.raises(ValidationError):
            bounds(two_parallel(), (Q(-1),))


class TestEvaluateF:
    def test_single_forced_edge(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [10], [([0], shift(0))])
        s = FEvaluator(inst).sample((Q(4),))
        assert s.value == 4
        assert s.report.capacity_at((Q(4),)) == 4

    def test_two_parallel_peak(self):
        assert FEvaluator(two_parallel()).sample((Q(4),)).value == 9

    def test_bottleneck_infeasible_lambda(self):
        ev = FEvaluator(bottleneck())
        assert ev.sample((Q(1),)).value == 2
        assert not ev.sample((Q(2),)).feasible

    def test_padded_gadget_value(self):
        inst = padded_cover_gadget()
        s = FEvaluator(inst).sample((Q(1), Q(0), Q(0), Q(1)))
        assert s.value == 7
        assert s.report.capacity_at((Q(1), Q(0), Q(0), Q(1))) == 7

    def test_certificate_tracks_direct_computation_on_grid(self):
        ev = FEvaluator(two_parallel())
        for lam in (Q(0), Q(1), Q(3, 2), Q(2), Q(3), Q(7, 2), Q(4)):
            s = ev.sample((lam,))
            assert s.report.capacity_at((lam,)) == s.value


class TestFEvaluator:
    def test_caches_and_flags_infeasible(self):
        ev = FEvaluator(bottleneck())
        a = ev.sample((Q(1),))
        b = ev.sample((Q(1),))
        assert a is b
        assert a.feasible and a.value == 2
        bad = ev.sample((Q(2),))
        assert not bad.feasible and bad.value is None
        assert ev.evaluations == 2

    def test_flows_satisfy_instance(self):
        inst = two_parallel()
        ev = FEvaluator(inst)
        s = ev.sample((Q(4),))
        assert all(isinstance(f, int) for f in s.flows)
        flow = FlowAssignment(tuple(Q(f, s.scale) for f in s.flows), s.value)
        inst.check_flow(flow)

    def test_result_at_a_feasible_point(self):
        inst = bottleneck()
        res = FEvaluator(inst).result((Q(1),))
        assert res.lambda_star == (1,)
        assert res.opt_value == res.flow.flow_value == 2
        res.verify(inst)

    def test_result_at_an_infeasible_point_is_internal(self):
        # Two homologous edges each forced to carry 2 behind a cap-3 edge.
        with pytest.raises(InternalError, match="infeasible"):
            FEvaluator(bottleneck()).result((Q(2),))


class TestCheckFlow:
    def test_homologous_violation_named(self):
        inst = two_parallel(c=1)
        # spread 4 vs 9 exceeds shift 1
        bad = FlowAssignment((Q(4), Q(9)), Q(13))
        with pytest.raises(ValidationError, match="homologous set 0"):
            inst.check_flow(bad)

    def test_good_flow_accepted(self):
        inst = two_parallel(c=1)
        inst.check_flow(FlowAssignment((Q(4), Q(5)), Q(9)))

    def test_violations_in_order(self):
        inst = bottleneck()
        # Edge 0 carries 4 over its cap 3, node v sends out 1 more than it
        # takes in, and the set spread 1 vs 4 exceeds shift 0.
        flow = FlowAssignment((Q(4), Q(1), Q(4)), Q(4))
        first = "violation capacity edge 0 flow 4 above 3"
        assert list(inst.violations(flow)) == [
            first,
            "violation conservation node 1 net 1",
            "violation homologous set 0 edge 2 flow 4 above 1 "
            "allowed by the set minimum 1",
        ]
        with pytest.raises(ValidationError) as exc:
            inst.check_flow(flow)
        assert str(exc.value) == first

    def test_negative_flow_is_below_zero(self):
        flow = FlowAssignment((Q(-1, 2), Q(0), Q(0)), Q(-1, 2))
        assert list(bottleneck().violations(flow)) == [
            "violation capacity edge 0 flow -1/2 below 0",
            "violation conservation node 1 net 1/2",
        ]

    @pytest.mark.parametrize("values", [(Q(1), Q(1)), (Q(1),) * 4])
    def test_wrong_edge_count_raises(self, values):
        # Missing edges must not count as zero flow, nor extra ones be dropped.
        flow = FlowAssignment(values, Q(1))
        with pytest.raises(ValidationError, match="flow has wrong number of edges"):
            list(bottleneck().violations(flow))
        with pytest.raises(ValidationError, match="flow has wrong number of edges"):
            bottleneck().check_flow(flow)


def _mixed_instance(seed):
    """Fractional capacities, sets sharing edges, one deviation of each kind.

    Returns the instance and whether `make_instance` had to subdivide an
    edge shared between sets.  The quadratic deviation stays monotone and
    above the identity on [0, 12].
    """
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    g = Graph()
    for _ in range(n):
        g.add_node()
    g.source, g.sink = 0, n - 1
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    while g.m < rng.randint(n + 1, 10):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    caps = [Q(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(g.m)]
    deviations = [
        shift(Q(rng.randint(0, 4), 2)),
        DeviationFn.affine(Q(rng.randint(3, 6), 3), Q(rng.randint(0, 2), 5)),
        DeviationFn.polynomial((Q(1, 2), 2, Q(-1, 48))),
    ]
    sets = [
        (rng.sample(range(g.m), rng.randint(1, 3)), dev)
        for dev in deviations[: rng.randint(1, 3)]
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inst = make_instance(g, caps, sets)
    return inst, bool(caught)


def _rational_arcs(inst, lam):
    """(tail, head, lower, upper) at lam, straight from the instance data."""
    lower = [Q(0)] * inst.m
    upper = list(inst.capacities)
    for x, hs in zip(lam, inst.sets):
        top = hs.deviation(x)
        for e in hs.edges:
            lower[e] = x
            upper[e] = min(upper[e], top)
    return [(e.tail, e.head, lower[e.id], upper[e.id]) for e in inst.graph.edges]


def _grid(inst):
    """Parameter vectors over the box: 0, u_R and fractions in between."""
    axes = [
        sorted({Q(0), u, u / 2, u / 3, 2 * u / 3, u * Q(5, 7)})
        for u in (inst.u_R(i) for i in range(inst.k))
    ]
    return list(itertools.product(*axes))


class TestCompiledEvaluator:
    """The integer F-evaluator against bounds built from the instance data,
    lcm-scaled into the integer core and into `oracles._int_value`."""

    def test_sample_and_deficiency_match_the_rational_route(self):
        feasible, subdivided, kinds = set(), set(), set()
        for seed in range(25):
            inst, split = _mixed_instance(seed)
            subdivided.add(split)
            kinds |= {hs.deviation.kind for hs in inst.sets}
            # Prices cuts from its own, separate cache.
            twin = Instance(inst.graph, inst.capacities, inst.sets)
            g = inst.graph
            free = seed % inst.k
            for lam in _grid(inst):
                arcs = _rational_arcs(inst, lam)
                assert bounds(inst, lam) == ([a[2] for a in arcs], [a[3] for a in arcs])
                rdef = deficiency(g.n, arcs, g.source, g.sink)
                try:
                    ref = bounded_flow(g.n, arcs, g.source, g.sink)
                except Infeasible:
                    ref = None
                pairs, d, lowers, uppers = scaled(arcs)
                net = Network(g.n, pairs, g.source, g.sink)
                iv, iside = _int_value(net, lowers, uppers)
                s = FEvaluator(inst).sample(lam)
                assert s.feasible == (ref is not None) == (rdef.deficiency == 0)
                assert s.feasible == (iv is not None)
                feasible.add(s.feasible)
                if ref is not None:
                    value, flows, side = ref
                    assert s.value == value == Q(iv, d)
                    assert iside == side
                    assert tuple(Q(f, s.scale) for f in s.flows) == flows
                    assert s.report.s_side == side
                    assert s.report == twin.cut_report(side)
                else:
                    assert iside == rdef.aux_s_side
                    assert s.deficiency == rdef
                fixed = {i: x for i, x in enumerate(lam) if i != free}
                rep = Slice(inst, free, fixed)._deficiency(lam[free])[0]
                assert rep == rdef
        assert feasible == {True, False}
        assert subdivided == {True, False}
        assert kinds == {"shift", "affine", "poly"}

    def test_no_capacity_state_leaks_between_samples(self):
        # The instance compiles one flow network; every sample fills its
        # own capacities.  Sampling x, then y, then x again on one evaluator
        # (memo cleared) must give the first x sample back, whatever y was.
        feasible = set()
        for seed in range(10):
            inst, _ = _mixed_instance(seed)
            grid = _grid(inst)
            x = grid[len(grid) // 2]
            for y in (y for y in grid if y != x):
                ev = FEvaluator(inst)
                first = ev.sample(x)
                feasible.add(ev.sample(y).feasible)
                ev._cache.clear()
                assert ev.sample(x) == first
                assert ev.evaluations == 3
        assert feasible == {True, False}

    def test_tampered_cut_is_caught_on_the_next_sample(self):
        inst = bottleneck()
        lam = (Q(1),)
        report = FEvaluator(inst).sample(lam).report
        inst.template.cuts[report.s_side] = replace(
            report, capacity_const=report.capacity_const + 1
        )
        with pytest.raises(InternalError, match="cut certificate"):
            FEvaluator(inst).sample(lam)
        with pytest.raises(InternalError, match="cut certificate"):
            FEvaluator(inst).sample((Q(1, 2),))

    def test_u_R_is_the_smallest_member_capacity(self):
        inst, _ = _mixed_instance(3)
        for i, hs in enumerate(inst.sets):
            assert inst.u_R(i) == min(inst.capacities[e] for e in hs.edges)
