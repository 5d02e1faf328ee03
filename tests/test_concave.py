from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import refconcave
from aemflow import concave, values
from aemflow.concave import solve_concave_single
from aemflow.errors import UnsupportedDeviation, ValidationError
from aemflow.fileformat import parse_instance
from aemflow.graph import Graph
from aemflow.instance import FEvaluator, make_instance
from aemflow.ksets import solve_k_constant
from aemflow.lp import solve_lp_constant
from aemflow.oracles import oracle_concave_single
from aemflow.parametric import Slice
from aemflow.randgen import generate_random
from aemflow.values import DeviationFn


def parallel(caps, dev, in_set=None):
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    for _ in caps:
        g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    members = list(range(len(caps))) if in_set is None else in_set
    return make_instance(g, caps, [(members, dev)])


def circulation(caps, dev):
    g = Graph()
    for name in "sta":
        g.add_node(name)
    e1 = g.add_edge("s", "t")
    e2 = g.add_edge("t", "a")
    g.add_edge("a", "s")
    g.source, g.sink = 0, 1
    return make_instance(g, caps, [([e1, e2], dev)])


class TestKnownOptima:
    def test_doubling_two_parallel(self):
        inst = parallel([1, 10], DeviationFn.affine(2, 0))
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(1),)
        assert res.opt_value == 3
        res.verify(inst)

    def test_identity_forces_equal_flows(self):
        inst = parallel([4, 10], DeviationFn.affine(1, 0))
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(4),)
        assert res.opt_value == 8
        assert set(res.flow.values) == {Q(4)}

    def test_interior_peak(self):
        inst = circulation([6, 6, 6], DeviationFn.affine(2, 0))
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(3),)
        assert res.opt_value == 3
        res.verify(inst)

    def test_quadratic_smooth_peak(self):
        inst = circulation([6, 6, 6], DeviationFn.polynomial([0, 2, Q(-1, 8)]))
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(4),)
        assert res.opt_value == 2
        res.verify(inst)

    def test_irrational_branch_point_rational_optimum(self):
        inst = parallel([2, 10], DeviationFn.polynomial([1, 1, Q(-1, 8)]))
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(2),)
        assert res.opt_value == Q(9, 2)
        res.verify(inst)

    def test_feasibility_edge_optimum(self):
        g = Graph()
        for name in "svt":
            g.add_node(name)
        g.add_edge("s", "v")
        g.add_edge("v", "t")
        g.add_edge("v", "t")
        g.source, g.sink = 0, 2
        inst = make_instance(
            g, [3, 10, 10], [([1, 2], DeviationFn.constant_shift(0))]
        )
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(3, 2),)
        assert res.opt_value == 3


class TestRefusals:
    def test_convex_rejected(self):
        inst = parallel([4], DeviationFn.polynomial([1, 0, 2]))
        with pytest.raises(UnsupportedDeviation):
            solve_concave_single(inst)

    def test_needs_one_set(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [5], [])
        with pytest.raises(ValidationError):
            solve_concave_single(inst)


def _deviations(draw):
    kind = draw(st.sampled_from(["shift", "affine", "quad"]))
    if kind == "shift":
        return DeviationFn.constant_shift(draw(st.integers(0, 2)))
    if kind == "affine":
        return DeviationFn.affine(
            draw(st.integers(1, 3)), draw(st.integers(0, 2))
        )
    c0 = draw(st.integers(0, 2))
    c1 = draw(st.integers(1, 3))
    c2 = Q(-1, draw(st.integers(4, 16)))
    return DeviationFn.polynomial([c0, c1, c2])


@st.composite
def concave_instances(draw):
    dev = _deviations(draw)
    shape = draw(st.sampled_from(["parallel", "bottleneck", "loop"]))
    try:
        if shape == "parallel":
            caps = [draw(st.integers(1, 5)) for _ in range(3)]
            return parallel(caps, dev, in_set=[0, 1])
        if shape == "loop":
            caps = [draw(st.integers(2, 6)) for _ in range(3)]
            return circulation(caps, dev)
        g = Graph()
        for name in "svt":
            g.add_node(name)
        g.add_edge("s", "v")
        g.add_edge("v", "t")
        g.add_edge("v", "t")
        g.source, g.sink = 0, 2
        caps = [draw(st.integers(1, 5)) for _ in range(3)]
        return make_instance(g, caps, [([1, 2], dev)])
    except (ValueError, ValidationError):
        assume(False)


class TestAgainstOracle:
    @given(concave_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_refined_grid(self, inst):
        res = solve_concave_single(inst)
        res.verify(inst)
        _, ov = oracle_concave_single(inst)
        assert ov <= res.opt_value
        assert res.opt_value - ov <= Q(1, 2**20)

    @given(concave_instances())
    @settings(max_examples=15, deadline=None)
    def test_shift_equals_parametric(self, inst):
        assume(inst.sets[0].deviation.is_constant_shift)
        res = solve_concave_single(inst)
        simple = solve_k_constant(inst)
        assert res.lambda_star == simple.lambda_star
        assert res.opt_value == simple.opt_value

    @given(concave_instances())
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, inst):
        a = solve_concave_single(inst)
        b = solve_concave_single(inst)
        assert a.lambda_star == b.lambda_star
        assert a.opt_value == b.opt_value


class TestAffineRandom:
    """n=10, m=30 affine instances, where an equal F value to the right of
    a query point used to be read as "the optimum lies left of it"."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle(self, seed):
        inst = generate_random(10, 30, 1, deviation_kind="affine", seed=seed)
        res = solve_concave_single(inst)
        res.verify(inst)
        _, ov = oracle_concave_single(inst)
        assert ov <= res.opt_value
        assert res.opt_value - ov <= Q(1, 1 << 30) * max(inst.u_R(0), 1)

    def test_equal_value_right_of_query_decides_nothing(self):
        inst = generate_random(
            10, 30, 1, deviation_kind="affine", seed=10000100044
        )
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(3, 4),)
        assert res.opt_value == Q(41, 4)


def c08_instances():
    """The affine and quadratic instances of acceptance check c08."""
    for i in range(30):
        yield generate_random(
            2 + (i % 5),
            1 + (i * 5) % 10,
            1,
            cap_max=5,
            deviation_kind="quadratic" if i % 2 else "affine",
            seed=1300 + i,
        )


def solve_recording(monkeypatch, insts):
    """Solve every instance; return the solves' FEvaluators and, per
    solve, the arguments of each root bisection."""
    made, bisected = [], []

    class Recording(FEvaluator):
        def __init__(self, inst):
            super().__init__(inst)
            made.append(self)

    real = values._bisect_root

    def recording(*args):
        bisected[-1].append(args)
        return real(*args)

    monkeypatch.setattr(concave, "FEvaluator", Recording)
    monkeypatch.setattr(values, "_bisect_root", recording)
    for inst in insts:
        bisected.append([])
        solve_concave_single(inst)
    return made, bisected


class TestBracketMemo:
    def test_no_root_query_repeats_within_a_solve(self, monkeypatch):
        _, bisected = solve_recording(monkeypatch, c08_instances())
        for calls in bisected:
            assert len(calls) == len(set(calls))
        assert any(bisected)


class TestWorkCounts:
    def test_pinned_counts(self, monkeypatch):
        made, bisected = solve_recording(monkeypatch, c08_instances())
        assert sum(ev.evaluations for ev in made) == 79
        assert sum(map(len, bisected)) == 6

    def test_quadratic_solves_within_the_shape_cap(self, monkeypatch):
        # (|S|+1)(|S|+2)/2 support shapes: the first sample adds one, each
        # round that does not end the walk adds one with at most two
        # samples, and the last round takes at most three.
        insts = list(item11_draws("quadratic"))
        made, _ = solve_recording(monkeypatch, insts)
        for inst, ev in zip(insts, made, strict=True):
            members = len(inst.sets[0].edges)
            shapes = (members + 1) * (members + 2) // 2
            assert ev.evaluations <= 2 + 2 * (shapes - 1) + 3


class TestExactOnAffine:
    """Affine optima are rational, so the walk must hit the simplex's
    smallest maximizer exactly, with no oracle slack."""

    def test_equals_the_simplex(self):
        insts = [
            *item11_draws("affine"),
            *(
                generate_random(10, 30, 1, deviation_kind="affine", seed=s)
                for s in range(40)
            ),
        ]
        for inst in insts:
            res = solve_concave_single(inst)
            want = solve_lp_constant(inst)
            assert res.lambda_star == want.lambda_star
            assert res.opt_value == want.opt_value


def item11_draws(kind):
    """ROADMAP item 11's draws: quadratic or affine, small shapes, cap 5."""
    for i in range(300):
        yield generate_random(
            2 + i % 5,
            1 + (i * 5) % 10,
            1,
            cap_max=5,
            deviation_kind=kind,
            seed=5000 + i,
        )


class TestFeasibleEdge:
    def test_walk_matches_the_bisection_reference(self):
        walked = 0
        for kind in ("quadratic", "affine"):
            for inst in item11_draws(kind):
                ev = FEvaluator(inst)

                def val(x):
                    s = ev.sample((x,))
                    return s.value if s.feasible else None

                top = inst.u_R(0)
                if val(top) is not None:
                    continue
                tol = Q(top, 1 << 64)
                want = refconcave.feasible_edge(val, top, tol)
                assert Slice(inst, 0, {}, ev).feasible_interval() == (0, want)
                walked += 1
        assert walked == 114

    # File 316 of the concave-single benchmark stream at any seed, and a
    # draw of the same shape: the deficiency's tangent lines approach
    # their edge at 0 without reaching it, so a plain tangent walk runs
    # out of steps.
    FILE_316 = """p aemfp 3 6 1
n 2 s
n 1 t
a 0 2 1 3
a 1 2 0 4
a 2 1 2 3
a 3 2 0 2
a 4 2 0 4
a 5 1 2 1
h 0 poly 2 0 2 -1/60 0 2 5
"""

    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda: parse_instance(TestFeasibleEdge.FILE_316), 0),
            (
                lambda: generate_random(
                    3, 6, 1, cap_max=5, deviation_kind="quadratic", seed=5101
                ),
                4,
            ),
        ],
        ids=["file316", "seed5101"],
    )
    def test_curved_edge_at_zero(self, make, value):
        inst = make()
        assert inst.u_R(0) > 0
        assert Slice(inst, 0, {}).feasible_interval() == (0, 0)
        res = solve_concave_single(inst)
        assert res.lambda_star == (Q(0),)
        assert res.opt_value == value
        res.verify(inst)
