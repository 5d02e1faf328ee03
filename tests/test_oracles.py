from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aemflow.errors import BudgetExceeded, ValidationError
from aemflow.graph import Graph
from aemflow.instance import FEvaluator, make_instance
from aemflow.ksets import solve_integer_constant, solve_k_constant
from aemflow.oracles import (
    oracle_concave_single,
    oracle_fractional,
    oracle_integer,
)
from aemflow.values import DeviationFn

shift = DeviationFn.constant_shift


def single_edge():
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [6], [])


def two_parallel():
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [4, 10], [([0, 1], shift(1))])


def bottleneck():
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.add_edge("s", "v")
    g.add_edge("v", "t")
    g.add_edge("v", "t")
    g.source, g.sink = 0, 2
    return make_instance(g, [3, 10, 10], [([1, 2], shift(0))])


class TestFractional:
    def test_plain_max_flow(self):
        assert oracle_fractional(single_edge()) == 6

    def test_two_parallel(self):
        assert oracle_fractional(two_parallel()) == 9

    def test_bottleneck(self):
        assert oracle_fractional(bottleneck()) == 3

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            oracle_fractional(two_parallel(), budget=3)

    def test_deterministic(self):
        inst = bottleneck()
        assert oracle_fractional(inst) == oracle_fractional(inst)


class TestInteger:
    def test_bottleneck_rounds_down(self):
        assert oracle_integer(bottleneck()) == 2

    def test_two_parallel(self):
        assert oracle_integer(two_parallel()) == 9

    def test_floors_fractional_caps(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [Q(7, 2), Q(9, 2)], [([0, 1], shift(Q(1, 2)))])
        # Floored: caps 3 and 4, shift 0, so both arcs carry lam <= 3.
        assert oracle_integer(inst) == 6
        assert solve_integer_constant(inst).opt_value == 6

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            oracle_integer(two_parallel(), budget=2)


class TestConcave:
    def test_doubling_deviation(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [1, 10], [([0, 1], DeviationFn.affine(2, 0))])
        lam, value = oracle_concave_single(inst)
        assert lam == 1
        assert value == 3

    def test_requires_single_set(self):
        with pytest.raises(ValidationError):
            oracle_concave_single(single_edge())

    def test_shift_instance_matches_exact_solver(self):
        from aemflow.ksets import solve_k_constant

        inst = two_parallel()
        res = solve_k_constant(inst)
        lam, value = oracle_concave_single(inst)
        assert value <= res.opt_value
        assert res.opt_value - value <= Q(1, 2**20)
        assert abs(lam - res.lambda_star[0]) <= Q(4, 2**30) + Q(1, 2**20)


@st.composite
def small_instances(draw, min_k=0, max_k=2, shift_den=1, cap_den=1):
    n = draw(st.integers(3, 5))
    m = draw(st.integers(4, 7))
    k = draw(st.integers(min_k, max_k))
    edges = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        if b >= a:
            b += 1
        edges.append((a, b))
    caps = [Q(draw(st.integers(cap_den, 3 * cap_den)), cap_den) for _ in range(m)]
    g = Graph()
    for i in range(n):
        g.add_node(f"n{i}")
    for a, b in edges:
        g.add_edge(a, b)
    g.source, g.sink = 0, 1
    picks = draw(st.permutations(list(range(m))))
    sets = []
    for i in range(k):
        members = sorted(picks[2 * i : 2 * i + 2])
        c = Q(draw(st.integers(0, 2 * shift_den)), shift_den)
        sets.append((members, shift(c)))
    return make_instance(g, caps, sets)


class TestAgainstSolvers:
    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_fractional_oracle_matches_solver(self, inst):
        assert oracle_fractional(inst) == solve_k_constant(inst).opt_value

    @given(small_instances())
    @settings(max_examples=25, deadline=None)
    def test_integer_oracle_matches_rounding(self, inst):
        assert oracle_integer(inst) == solve_integer_constant(inst).opt_value

    @given(small_instances(min_k=1, max_k=1, shift_den=2, cap_den=2))
    @settings(max_examples=50, deadline=None)
    def test_integer_solver_floors_half_shifts(self, inst):
        # One set only: there rounding the fractional optimum is exact.
        res = solve_integer_constant(inst)
        res.verify(inst)
        assert all(f.denominator == 1 for f in res.flow.values)
        assert res.opt_value == oracle_integer(inst)

    @given(small_instances())
    @settings(max_examples=15, deadline=None)
    def test_integer_below_fractional(self, inst):
        assert oracle_integer(inst) <= oracle_fractional(inst)

    @given(small_instances(max_k=1))
    @settings(max_examples=10, deadline=None)
    def test_integer_oracle_certifies_some_flow(self, inst):
        v = oracle_integer(inst)
        ev = FEvaluator(inst)
        best = max(
            (
                s.value
                for lam_all in _integer_grid(inst)
                if (s := ev.sample(lam_all)).feasible
            ),
            default=None,
        )
        assert best == v


def _integer_grid(inst):
    from itertools import product
    from math import floor

    axes = [range(floor(inst.u_R(i)) + 1) for i in range(inst.k)]
    return [tuple(map(Q, idx)) for idx in product(*axes)]
