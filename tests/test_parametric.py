from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aemflow.errors import (
    Infeasible,
    InternalError,
    UnsupportedDeviation,
    ValidationError,
)
from aemflow.graph import Graph
from aemflow import parametric
from aemflow.instance import FEvaluator, make_instance
from aemflow.ksets import solve_k_constant
from aemflow.parametric import Slice, slice_bounds, symbolic_max_flow
from aemflow.profile import breakpoint_profile
from aemflow.randgen import DEVIATION_KINDS, generate_random
from aemflow.values import DeviationFn, Order
from intflow import deficiency

shift = DeviationFn.constant_shift


def two_parallel(c=1):
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [4, 10], [([0, 1], shift(c))])


def bottleneck():
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.add_edge("s", "v")
    g.add_edge("v", "t")
    g.add_edge("v", "t")
    g.source, g.sink = 0, 2
    return make_instance(g, [3, 10, 10], [([1, 2], shift(0))])


def plateau():
    """F rises with slope 2 to lambda 1, then stays flat to 2."""
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [2, 2], [([0, 1], shift(1))])


def reverse_drain():
    """A homologous return edge makes F strictly decreasing."""
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("t", "s")
    g.source, g.sink = 0, 1
    return make_instance(g, [5, 3], [([1], shift(1))])


def chain_singleton():
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.add_edge("s", "v")
    g.add_edge("v", "t")
    g.source, g.sink = 0, 2
    return make_instance(g, [4, 6], [([0], shift(2))])


def staircase():
    """Six parallel members with distinct fractional capacities and one
    backward member: F = sum min(u, lam + 5) - lam falls in slope by one
    at each u - 5, through seven pieces from slope 5 to -1."""
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    for _ in range(6):
        g.add_edge("s", "t")
    g.add_edge("t", "s")
    g.source, g.sink = 0, 1
    caps = [Q(11, 2), Q(20, 3), Q(15, 2), Q(33, 4), Q(46, 5), Q(31, 3), 12]
    return make_instance(g, caps, [(range(7), shift(5))])


def two_stage():
    """Two sets in series; pinning the first narrows the second's slice."""
    g = Graph()
    for name in ("s", "v1", "v2", "t"):
        g.add_node(name)
    g.source, g.sink = 0, 3
    e0 = g.add_edge("s", "v1")
    e1 = g.add_edge("s", "v2")
    e2 = g.add_edge("v1", "t")
    e3 = g.add_edge("v2", "t")
    return make_instance(
        g, [3, 3, 3, 5], [([e0, e1], shift(0)), ([e2, e3], shift(1))]
    )


def reference_deficiency(inst, lam):
    """The circulation shortfall at `lam`, from bounds built here."""
    arcs = []
    for e, u in zip(inst.graph.edges, inst.capacities):
        i = inst.set_of_edge(e.id)
        if i is None:
            arcs.append((e.tail, e.head, 0, u))
        else:
            x = lam[i]
            arcs.append((e.tail, e.head, x, min(u, inst.sets[i].deviation(x))))
    g = inst.graph
    return deficiency(g.n, arcs, g.source, g.sink)


def resolve(inst, x, free=0, fixed=None):
    return Slice(inst, free, fixed or {}).resolve(x)


class TestResolve:
    def test_two_parallel_spec_points(self):
        inst = two_parallel()
        assert resolve(inst, 4) is Order.EQUAL
        assert resolve(inst, 2) is Order.GREATER
        assert resolve(inst, Q(7, 2)) is Order.GREATER
        assert resolve(inst, 5) is Order.LESS

    def test_plateau_reports_left_edge(self):
        inst = plateau()
        assert resolve(inst, 1) is Order.EQUAL
        assert resolve(inst, Q(3, 2)) is Order.LESS
        assert resolve(inst, Q(1, 2)) is Order.GREATER

    def test_fractional_optimum(self):
        inst = bottleneck()
        assert resolve(inst, Q(3, 2)) is Order.EQUAL
        assert resolve(inst, 1) is Order.GREATER
        assert resolve(inst, 2) is Order.LESS

    def test_decreasing_pins_domain_start(self):
        inst = reverse_drain()
        assert resolve(inst, 1) is Order.LESS
        assert resolve(inst, 0) is Order.EQUAL

    def test_requires_fixed_values_for_extra_sets(self):
        inst = two_stage()
        with pytest.raises(ValidationError):
            resolve(inst, 1)
        assert resolve(inst, 1, free=1, fixed={0: Q(2)}) is Order.EQUAL

    def test_bad_set_index(self):
        with pytest.raises(ValidationError):
            resolve(two_parallel(), 1, free=3)


class TestFeasibleInterval:
    def test_plain_instances_span_the_box(self):
        assert Slice(two_parallel(), 0, {}).feasible_interval() == (0, 4)
        assert Slice(bottleneck(), 0, {}).feasible_interval() == (0, Q(3, 2))

    def test_pinned_first_set_shifts_both_edges(self):
        sl = Slice(two_stage(), 1, {0: Q(2)})
        assert sl.feasible_interval() == (1, 2)

    def test_empty_slice_raises(self):
        g = Graph()
        for name in "svt":
            g.add_node(name)
        g.add_edge("s", "v")
        g.add_edge("v", "t")
        g.source, g.sink = 0, 2
        inst = make_instance(g, [3, 2], [([0], shift(0)), ([1], shift(1))])
        with pytest.raises(Infeasible):
            Slice(inst, 1, {0: Q(3)}).feasible_interval()

    def test_tampered_support_line_is_caught(self):
        inst = two_stage()
        rep = reference_deficiency(inst, (Q(2), Q(0)))
        assert rep.deficiency == 2 and rep.aux_s_side == {1, 2}
        cut = inst.cut_report(rep.aux_s_side)
        inst.template.cuts[cut.s_side] = replace(
            cut, capacity_const=cut.capacity_const + 1
        )
        with pytest.raises(InternalError, match="support line misses"):
            Slice(inst, 1, {0: Q(2)}).feasible_interval()

    @staticmethod
    def curved_chain(x0):
        """s -> a pinned at x0, a -> t bounded by 2x - x^2/8 (cap 8)."""
        g = Graph()
        for name in "sat":
            g.add_node(name)
        g.add_edge("s", "a")
        g.add_edge("a", "t")
        g.source, g.sink = 0, 2
        bend = DeviationFn.polynomial([0, 2, Q(-1, 8)])
        inst = make_instance(g, [10, 8], [([0], shift(0)), ([1], bend)])
        return Slice(inst, 1, {0: Q(x0)})

    def test_curved_left_end_is_an_exact_step(self):
        # a -> t must carry x0 = 6 <= 2x - x^2/8, so x >= 4, and x <= 6.
        assert self.curved_chain(6).feasible_interval() == (4, 6)

    def test_irrational_left_end_is_refused(self):
        # 2x - x^2/8 = 3/2 at x = 8 - sqrt(52).
        with pytest.raises(UnsupportedDeviation):
            self.curved_chain(Q(3, 2)).feasible_interval()

    def test_single_point_slice(self):
        sl = Slice(two_stage(), 1, {0: Q(0)})
        assert sl.feasible_interval() == (0, 0)
        opt = sl.solve()
        assert (opt.x, opt.value) == (0, 0)


class TestFeasibleIntervalAgainstReference:
    """The interval ends are exactly where the reference deficiency
    reaches zero, on shift and affine slices with the other sets pinned."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from(["const", "affine"]),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_ends_are_the_zeros_of_the_deficiency(self, seed, kind, k, data):
        inst = generate_random(
            4 + seed % 4, 10, k, cap_max=6, deviation_kind=kind, seed=seed
        )
        free = data.draw(st.integers(0, k - 1))
        share = st.fractions(0, 1, max_denominator=7)
        fixed = {i: inst.u_R(i) * data.draw(share) for i in range(k) if i != free}
        sl = Slice(inst, free, fixed)
        u = sl.u_free

        def short(x):
            return reference_deficiency(inst, sl.full_lambda(x)).deficiency

        try:
            af, bf = sl.feasible_interval()
        except Infeasible:
            assert all(short(u * j / 12) > 0 for j in range(13))
            return
        assert short(af) == 0 and short(bf) == 0
        if af > 0:
            assert short(af - af / 64) > 0
        if bf < u:
            assert short(bf + (u - bf) / 64) > 0


class TestSolve:
    @pytest.mark.parametrize(
        "build,star,value",
        [
            (two_parallel, Q(4), Q(9)),
            (bottleneck, Q(3, 2), Q(3)),
            (plateau, Q(1), Q(4)),
            (reverse_drain, Q(0), Q(5)),
            (chain_singleton, Q(2), Q(4)),
        ],
    )
    def test_known_optima(self, build, star, value):
        inst = build()
        res, prof = solve_k_constant(inst), breakpoint_profile(inst)
        assert res.lambda_star == (star,)
        assert res.opt_value == value
        res.verify(inst)
        assert prof.argmax == star
        assert prof.opt_value == value

    def test_huge_shift_behaves_like_plain_max_flow(self):
        inst = two_parallel(c=10)
        res = solve_k_constant(inst)
        assert res.lambda_star == (0,)
        assert res.opt_value == 14

    def test_affine_deviation_through_slice(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [4, 10], [([0, 1], DeviationFn.affine(2, 0))])
        opt = Slice(inst, 0, {}).solve()
        assert (opt.x, opt.value) == (4, 12)

    def test_quadratic_deviation_rejected(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        dev = DeviationFn.polynomial([1, 1, Q(-1, 8)])
        inst = make_instance(g, [2, 2], [([0, 1], dev)])
        with pytest.raises(UnsupportedDeviation):
            Slice(inst, 0, {}).solve()

    def test_simple_entry_requires_constant_shift(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [4], [([0], DeviationFn.affine(2, 1))])
        with pytest.raises(UnsupportedDeviation):
            solve_k_constant(inst)
        with pytest.raises(UnsupportedDeviation):
            breakpoint_profile(inst)

    def test_simple_entry_requires_single_set(self):
        with pytest.raises(ValidationError):
            breakpoint_profile(two_stage())

    def test_pinned_slice_optimum(self):
        opt = Slice(two_stage(), 1, {0: Q(2)}).solve()
        assert (opt.x, opt.value) == (1, 4)

    def test_deterministic_across_fresh_solves(self):
        a = solve_k_constant(two_parallel())
        b = solve_k_constant(two_parallel())
        assert a.lambda_star == b.lambda_star
        assert a.opt_value == b.opt_value
        assert a.flow.values == b.flow.values


class TestProfile:
    def test_two_parallel_pieces(self):
        prof = breakpoint_profile(two_parallel())
        assert prof.breakpoints == (0, 3, 4)
        assert prof.values == (2, 8, 9)
        assert prof.segment_slopes == (2, 1)
        assert prof.argmax == 4
        assert prof.opt_value == 9
        assert prof.segments == 2

    def test_plateau_pieces(self):
        prof = breakpoint_profile(plateau())
        assert prof.breakpoints == (0, 1, 2)
        assert prof.segment_slopes == (2, 0)
        assert prof.argmax == 1

    def test_short_feasible_interval(self):
        prof = breakpoint_profile(bottleneck())
        assert prof.breakpoints == (0, Q(3, 2))
        assert prof.segment_slopes == (2,)
        assert prof.argmax == Q(3, 2)

    def test_decreasing_single_piece(self):
        prof = breakpoint_profile(reverse_drain())
        assert prof.breakpoints == (0, 3)
        assert prof.segment_slopes == (-1,)
        assert prof.argmax == 0
        assert prof.opt_value == 5

    def test_rise_then_clamp(self):
        prof = breakpoint_profile(chain_singleton())
        assert prof.breakpoints == (0, 2, 4)
        assert prof.segment_slopes == (1, 0)
        assert prof.argmax == 2

    def test_rejects_multiple_sets(self):
        with pytest.raises(ValidationError):
            breakpoint_profile(two_stage())

    def test_many_pieces(self, monkeypatch):
        made = []

        class Recording(FEvaluator):
            def __init__(self, inst):
                super().__init__(inst)
                made.append(self)

        monkeypatch.setattr(parametric, "FEvaluator", Recording)
        prof = breakpoint_profile(staircase())
        assert prof.breakpoints == (
            0, Q(1, 2), Q(5, 3), Q(5, 2), Q(13, 4), Q(21, 5), Q(16, 3), Q(11, 2)
        )
        assert prof.values == (
            30, Q(65, 2), Q(223, 6), Q(119, 3), Q(247, 6), Q(2527, 60),
            Q(2527, 60), Q(839, 20),
        )
        assert prof.segment_slopes == (5, 4, 3, 2, 1, 0, -1)
        assert prof.argmax == Q(21, 5)
        assert prof.opt_value == Q(2527, 60)
        # Eight breakpoints and five line crossings that split an interval.
        assert [ev.evaluations for ev in made] == [13]


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    edges = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        if b >= a:
            b += 1
        edges.append((a, b))
    caps = [draw(st.integers(1, 4)) for _ in range(m)]
    r1 = draw(st.integers(0, m - 1))
    r2 = draw(st.integers(0, m - 2))
    if r2 >= r1:
        r2 += 1
    c = draw(st.integers(0, 2))
    g = Graph()
    for i in range(n):
        g.add_node(f"n{i}")
    for a, b in edges:
        g.add_edge(a, b)
    g.source, g.sink = 0, 1
    return make_instance(g, caps, [(sorted([r1, r2]), shift(c))])


def assert_profile_is_f(ev, prof, points):
    """`prof` describes F exactly: its interpolation equals F at every
    point, breakpoint and piece midpoint, F is infeasible outside it, its
    slopes strictly fall, and F kinks at every interior breakpoint."""
    bps, vals, slopes = prof.breakpoints, prof.values, prof.segment_slopes
    assert len(vals) == len(bps) == len(slopes) + 1
    assert all(a < b for a, b in zip(bps, bps[1:]))
    assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def value(x):
        s = ev.sample((x,))
        return s.value if s.feasible else None

    def interpolated(x):
        if not bps[0] <= x <= bps[-1]:
            return None
        i = max(j for j in range(len(bps)) if bps[j] <= x)
        if i == len(slopes):
            return vals[i]
        return vals[i] + slopes[i] * (x - bps[i])

    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    for x in sorted({*points, *bps, *mids}):
        assert value(x) == interpolated(x), x
    # A concave F that meets a chord strictly inside it is linear there,
    # so F above the chord between neighbouring midpoints is a real kink.
    for bp, m1, m2 in zip(bps[1:-1], mids, mids[1:]):
        chord = value(m1) + (value(m2) - value(m1)) * (bp - m1) / (m2 - m1)
        assert value(bp) > chord, bp


class TestAgainstDenseGrid:
    @given(small_instances())
    @settings(max_examples=20, deadline=None)
    def test_optimum_dominates_grid(self, inst):
        res, prof = solve_k_constant(inst), breakpoint_profile(inst)
        star = res.lambda_star[0]
        res.verify(inst)
        assert prof.argmax == star
        assert prof.opt_value == res.opt_value
        assert len(prof.breakpoints) <= 2 * inst.m + 2
        ev = FEvaluator(inst)
        u = int(inst.u_R(0))
        points = {
            Q(j, q) for q in range(1, 2 * inst.m + 1) for j in range(q * u + 1)
        }
        for x in sorted(points):
            s = ev.sample((x,))
            if not s.feasible:
                continue
            assert s.value <= res.opt_value
            if x < star:
                assert s.value < res.opt_value
            if x == star:
                assert s.value == res.opt_value
        assert_profile_is_f(ev, prof, points)


class TestEnginesAgree:
    """The symbolic circulation, run with every sign read at one point x,
    gives the integer core's value at x."""

    def test_symbolic_flow_at_a_point_matches_the_sample(self):
        kinds, wide = set(), 0
        for seed in range(60):
            kind = DEVIATION_KINDS[seed % 3]
            inst = generate_random(
                5 + seed % 4, 10, 1, cap_max=6, deviation_kind=kind, seed=seed
            )
            sl = Slice(inst, 0, {})
            af, bf = sl.feasible_interval()
            wide += af < bf
            for x in {af, bf, (af + bf) / 2, af + (bf - af) / 3}:

                def sign_at_x(d, x=x):
                    v = d.eval(x)
                    return Order((v > 0) - (v < 0))

                dev = inst.sets[0].deviation
                lower, upper = slice_bounds(inst, 0, {}, lambda u: dev(x) > u)
                total = symbolic_max_flow(inst, lower, upper, sign_at_x, [x, x])
                assert total.eval(x) == FEvaluator(inst).sample((x,)).value
            kinds.add(kind)
        assert kinds == set(DEVIATION_KINDS)
        assert wide >= 30
