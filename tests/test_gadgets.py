"""Gadget generators: structure, closed forms, oracle-confirmed values.

Oracle expectations for undersized inputs (fewer triples than elements)
follow the source-cut bound q + p + q/3, not the calibrated formula 7q/3;
a one-triple gadget at q=3 tops out at 5 because its only source edge has
capacity 5.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aemflow.errors import UnsupportedDeviation, ValidationError
from aemflow.gadgets import (
    GadgetMeta,
    X3CInstance,
    generate_approx_gadget,
    generate_convex_gadget,
    generate_x3c_gadget,
    has_exact_cover,
    x3c_no_instance,
    x3c_yes_instance,
)
from aemflow.concave import solve_concave_single
from aemflow.ksets import solve_integer_constant
from aemflow.oracles import oracle_fractional, oracle_integer
from aemflow.randgen import generate_random


class TestX3CInstance:
    def test_rejects_bad_universe(self):
        with pytest.raises(ValidationError):
            X3CInstance(4, ())
        with pytest.raises(ValidationError):
            X3CInstance(0, ())

    @pytest.mark.parametrize("q", [0, 1, 2, 4, -3])
    def test_canonical_inputs_reject_bad_universe(self, q):
        for build in (x3c_yes_instance, x3c_no_instance):
            with pytest.raises(ValidationError, match="positive multiple of 3"):
                build(q)

    def test_rejects_bad_triples(self):
        with pytest.raises(ValidationError):
            X3CInstance(3, ((0, 1, 1),))
        with pytest.raises(ValidationError):
            X3CInstance(3, ((0, 1, 3),))

    def test_normalizes_order(self):
        x = X3CInstance(6, ((5, 3, 4), (2, 0, 1)))
        assert x.triples == ((3, 4, 5), (0, 1, 2))
        assert x.p == 2

    def test_cover_detection(self):
        assert has_exact_cover(x3c_yes_instance(3))
        assert has_exact_cover(x3c_yes_instance(6))
        assert not has_exact_cover(x3c_no_instance(3))
        assert not has_exact_cover(x3c_no_instance(6))
        assert has_exact_cover(X3CInstance(6, ((0, 1, 2), (3, 4, 5))))
        assert not has_exact_cover(X3CInstance(6, ((0, 1, 2), (2, 3, 4))))


class TestBasicGadget:
    def test_one_triple_structure(self):
        inst, meta = generate_x3c_gadget(X3CInstance(3, ((0, 1, 2),)))
        assert inst.n == 6
        assert inst.m == 8
        assert inst.k == 2
        assert meta.kind == "X3CBasic"
        assert meta.expected_yes_value == Q(7)
        assert meta.expected_no_bound == Q(6)
        # source edge 5, member edges 1, bonus 2, element edges 1
        assert inst.capacities[0] == 5
        assert [inst.capacities[e] for e in meta.bonus_edges] == [2]
        b = meta.bonus_edges[0]
        edge = inst.graph.edges[b]
        assert inst.graph.node_name(edge.tail) == "S1"
        assert inst.graph.node_name(edge.head) == "t"
        # bonus edge sits in its triple's homologous set
        assert b in inst.sets[0].edges

    def test_meta_formula_tracks_q(self):
        _, meta = generate_x3c_gadget(x3c_yes_instance(6))
        assert meta.expected_yes_value == Q(14)
        assert meta.expected_no_bound == Q(13)

    def test_undersized_inputs_fall_short_of_formula(self):
        inst, _ = generate_x3c_gadget(X3CInstance(3, ((0, 1, 2),)))
        assert oracle_integer(inst) == 5
        assert oracle_fractional(inst) == 5
        inst, _ = generate_x3c_gadget(X3CInstance(3, ((0, 1, 2), (0, 1, 2))))
        assert oracle_integer(inst) == 6
        inst, _ = generate_x3c_gadget(X3CInstance(6, ((0, 1, 2), (3, 4, 5))))
        assert oracle_integer(inst) == 10

    def test_calibrated_yes_hits_formula(self):
        for q in (3, 6):
            inst, meta = generate_x3c_gadget(x3c_yes_instance(q))
            assert oracle_integer(inst) == meta.expected_yes_value

    def test_calibrated_no_stays_below(self):
        inst, meta = generate_x3c_gadget(x3c_no_instance(6))
        assert oracle_integer(inst) == 13 <= meta.expected_no_bound
        inst, meta = generate_x3c_gadget(x3c_no_instance(3))
        assert oracle_integer(inst) == 0 < meta.expected_yes_value

    def test_solver_agrees_on_small_yes(self):
        inst, meta = generate_x3c_gadget(x3c_yes_instance(3))
        res = solve_integer_constant(inst)
        assert res.opt_value == meta.expected_yes_value == 7


class TestApproxGadget:
    def test_structure(self):
        base = x3c_yes_instance(3)
        inst, meta = generate_approx_gadget(base, 1)
        # base 8 nodes plus relay and new sink
        assert inst.n == 10
        # base 18 edges, relay feed, 7 chain edges, 7 extras
        assert inst.m == 18 + 1 + 7 + 7
        assert inst.k == 5
        assert meta.k == 1
        assert len(meta.bonus_edges) == 7
        assert inst.graph.node_name(inst.graph.sink) == "t''"
        assert all(inst.capacities[e] == 2 for e in meta.bonus_edges)
        # chain plus extras form the last homologous set
        assert len(inst.sets[-1].edges) == 7 + 7

    def test_shift_yes_values(self):
        for k, want in ((1, 21), (2, 35)):
            inst, meta = generate_approx_gadget(x3c_yes_instance(3), k)
            assert meta.expected_yes_value == want
            assert oracle_integer(inst) == want

    def test_shift_no_values_and_ratio(self):
        for k in (1, 2):
            yes_inst, meta = generate_approx_gadget(x3c_yes_instance(3), k)
            no_inst, no_meta = generate_approx_gadget(x3c_no_instance(3), k)
            vy = oracle_integer(yes_inst)
            vn = oracle_integer(no_inst)
            assert vn == 7 * k <= no_meta.expected_no_bound
            assert Q(vy, vn) >= 2 - Q(1, k + 1)

    def test_affine_values(self):
        inst, meta = generate_approx_gadget(x3c_yes_instance(3), 1, "affine")
        assert meta.expected_yes_value == 14
        assert oracle_integer(inst) == 14
        inst, meta = generate_approx_gadget(x3c_yes_instance(3), 2, "affine")
        assert meta.expected_yes_value == 35
        assert oracle_integer(inst) == 35
        inst, meta = generate_approx_gadget(x3c_no_instance(3), 2, "affine")
        assert meta.expected_no_bound == 0
        assert oracle_integer(inst) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            generate_approx_gadget(x3c_yes_instance(3), 0)
        with pytest.raises(ValidationError):
            generate_approx_gadget(x3c_yes_instance(3), 1, "convex")


class TestConvexGadget:
    def test_structure_and_meta(self):
        inst, meta = generate_convex_gadget(X3CInstance(3, ((0, 1, 2),)))
        assert meta.kind == "ConvexX3C"
        assert meta.expected_yes_value == Q(8)
        assert inst.capacities[0] == 6
        assert [inst.capacities[e] for e in meta.bonus_edges] == [3]
        for hs in inst.sets:
            assert hs.deviation.degree == 2
            assert hs.deviation(Q(1)) == 3

    def test_calibrated_values(self):
        for q, want in ((3, 8), (6, 16)):
            inst, meta = generate_convex_gadget(x3c_yes_instance(q))
            assert meta.expected_yes_value == want
            assert oracle_integer(inst) == want
        inst, meta = generate_convex_gadget(x3c_no_instance(6))
        assert oracle_integer(inst) == 14 <= meta.expected_no_bound

    def test_solver_refuses_convex(self):
        inst, _ = generate_convex_gadget(x3c_yes_instance(3))
        with pytest.raises(UnsupportedDeviation):
            solve_concave_single(inst)


class TestGenerateRandom:
    def test_deterministic(self):
        a = generate_random(8, 12, 2, cap_max=5, deviation_kind="const", seed=42)
        b = generate_random(8, 12, 2, cap_max=5, deviation_kind="const", seed=42)
        assert a.graph.edges == b.graph.edges
        assert a.capacities == b.capacities
        assert [hs.edges for hs in a.sets] == [hs.edges for hs in b.sets]
        assert [hs.deviation for hs in a.sets] == [hs.deviation for hs in b.sets]

    def test_golden_seed42(self):
        # regression pin: fractional and integer optima of the fixed instance
        inst = generate_random(8, 12, 2, cap_max=5, deviation_kind="const", seed=42)
        assert oracle_fractional(inst) == 3
        assert oracle_integer(inst) == 3

    def test_degenerate_no_sets(self):
        inst = generate_random(4, 5, 0, seed=3)
        assert inst.k == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_random(1, 3, 0)
        with pytest.raises(ValidationError):
            generate_random(3, 0, 0)
        with pytest.raises(ValidationError):
            generate_random(3, 2, 5)
        with pytest.raises(ValidationError):
            generate_random(3, 2, 1, cap_max=0)
        with pytest.raises(ValidationError):
            generate_random(3, 2, 1, deviation_kind="cubic")

    def test_sink_reachable(self):
        for seed in range(20):
            inst = generate_random(6, 8, 2, seed=seed)
            g = inst.graph
            seen = {g.source}
            frontier = [g.source]
            while frontier:
                v = frontier.pop()
                for e in g.out_edges(v):
                    h = g.edges[e].head
                    if h not in seen:
                        seen.add(h)
                        frontier.append(h)
            assert g.sink in seen

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 7),
        m=st.integers(1, 10),
        k=st.integers(0, 3),
        cap_max=st.integers(1, 6),
        kind=st.sampled_from(["const", "affine", "quadratic"]),
        seed=st.integers(0, 10_000),
    )
    def test_always_valid(self, n, m, k, cap_max, kind, seed):
        if k > m:
            k = m
        inst = generate_random(n, m, k, cap_max=cap_max, deviation_kind=kind, seed=seed)
        assert inst.n == n
        assert inst.m == m
        assert inst.k == k
        assert all(1 <= c <= cap_max for c in inst.capacities)
        owned = [e for hs in inst.sets for e in hs.edges]
        assert len(owned) == len(set(owned))
