from fractions import Fraction as Q
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aemflow import oracles
from aemflow.errors import BudgetExceeded, Infeasible, InternalError, ValidationError
from aemflow.graph import Graph
from aemflow.instance import FEvaluator, make_instance
from aemflow.ksets import solve_integer_constant, solve_k_constant
from aemflow.oracles import (
    oracle_concave_single,
    oracle_fractional,
    oracle_integer,
)
from aemflow.randgen import DEVIATION_KINDS, generate_random
from aemflow.values import DeviationFn, PolyValue
from intflow import bounded_flow
from test_acceptance import mixed_family

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
    axes = [range(floor(inst.u_R(i)) + 1) for i in range(inst.k)]
    return [tuple(map(Q, idx)) for idx in product(*axes)]


def _plain_lattice(top, m):
    return {Q(num, d) for d in range(1, m + 1) for num in range(floor(top * d) + 1)}


def _exhaustive(inst, integer):
    """The oracles' optimum, one rational max flow for every candidate.

    The same lattice as the oracles: N/D in [0, u_R] with D <= m, or the
    integers with capacities and deviations floored.
    """
    g = inst.graph
    caps = list(inst.capacities)
    if integer:
        caps = [Q(floor(c)) for c in caps]
        axes = [range(floor(inst.u_R(i)) + 1) for i in range(inst.k)]
    else:
        axes = [_plain_lattice(inst.u_R(i), inst.m) for i in range(inst.k)]
    best = None
    for lam in product(*axes):
        lower, upper = [Q(0)] * inst.m, caps[:]
        for x, hs in zip(lam, inst.sets):
            top = hs.deviation(Q(x))
            if integer:
                top = floor(top)
            for e in hs.edges:
                lower[e], upper[e] = Q(x), min(upper[e], top)
        if any(lo > up for lo, up in zip(lower, upper)):
            continue
        arcs = [(e.tail, e.head, lower[e.id], upper[e.id]) for e in g.edges]
        try:
            value = bounded_flow(g.n, arcs, g.source, g.sink)[0]
        except Infeasible:
            continue
        best = value if best is None else max(best, value)
    return best


def _lattice_values(top, m, limit=None):
    return [Q(num, den) for num, den in oracles._lattice(top, m, limit)]


@pytest.mark.parametrize("top", [Q(0), Q(1), Q(7, 3), Q(5), Q(19, 4)])
@pytest.mark.parametrize("m", [1, 2, 7, 12])
def test_lattice_is_the_sorted_candidate_set(top, m):
    assert _lattice_values(top, m) == sorted(_plain_lattice(top, m))
    # The scale is taken from these denominators, so they must be reduced.
    assert all(gcd(num, den) == 1 for num, den in oracles._lattice(top, m))


@pytest.mark.parametrize("limit", [0, 1, 5, 40])
def test_lattice_limit_stops_one_term_past(limit):
    full = _lattice_values(Q(19, 4), 7)
    got = _lattice_values(Q(19, 4), 7, limit)
    assert got == full[: limit + 1]
    assert len(oracles._lattice(Q(10**12), 7, limit)) == limit + 1


class TestPruning:
    """Skipping candidates that a stored cut settles leaves every value as
    a plain enumeration finds it."""

    @pytest.mark.parametrize("kind", DEVIATION_KINDS)
    @given(
        n=st.integers(3, 5),
        m=st.integers(3, 6),
        k=st.integers(1, 2),
        seed=st.integers(0, 10**6),
        cap_den=st.sampled_from([1, 2, 3]),
        half=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_enumeration(self, kind, n, m, k, seed, cap_den, half):
        # Capacities divided by 2 or 3, and deviations raised by 1/2, put
        # the candidates and their bounds on a grid finer than the integers.
        inst = generate_random(n, m, k, cap_max=3, deviation_kind=kind, seed=seed)
        raise_by = PolyValue.constant(Q(1, 2) if half else 0)
        inst = make_instance(
            inst.graph,
            [c / cap_den for c in inst.capacities],
            [
                (hs.edges, DeviationFn(hs.deviation.poly + raise_by, hs.deviation.kind))
                for hs in inst.sets
            ],
        )
        assert oracle_fractional(inst) == _exhaustive(inst, integer=False)
        assert oracle_integer(inst) == _exhaustive(inst, integer=True)

    @staticmethod
    def _count_flows(monkeypatch, oracle):
        calls = 0
        real = oracles._int_value

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(oracles, "_int_value", counted)
        insts = [inst for i in range(200) if (inst := mixed_family(i)).k == 2]
        for inst in insts:
            oracle(inst)
        assert len(insts) == 66
        return calls

    def test_two_set_flow_count(self, monkeypatch):
        # Regression gate on the k = 2 instances of acceptance test c04:
        # without pruning they take 313796 max flows.
        assert self._count_flows(monkeypatch, oracle_fractional) == 2265

    def test_two_set_integer_flow_count(self, monkeypatch):
        assert self._count_flows(monkeypatch, oracle_integer) == 239

    def test_wrong_cut_is_caught(self, monkeypatch):
        real = oracles._int_value
        monkeypatch.setattr(
            oracles, "_int_value", lambda *args: (real(*args)[0], frozenset())
        )
        with pytest.raises(InternalError, match="differs from its cut"):
            oracle_fractional(two_parallel())


@pytest.mark.parametrize("m", [16, 20])
def test_beyond_the_plain_enumeration_reach(m):
    # A plain enumeration needed seconds for one m = 16 instance.
    for seed in range(10):
        inst = generate_random(8, m, 2, cap_max=5, seed=seed)
        assert oracle_fractional(inst) == solve_k_constant(inst).opt_value, seed
