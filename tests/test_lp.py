import hashlib
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflp
from aemflow import lp
from aemflow.errors import InternalError, UnsupportedDeviation
from aemflow.gadgets import generate_x3c_gadget, x3c_yes_instance
from aemflow.graph import Graph
from aemflow.instance import make_instance
from aemflow.ksets import solve_k_constant
from aemflow.lp import solve_lp_constant
from aemflow.randgen import generate_random
from aemflow.values import DeviationFn

shift = DeviationFn.constant_shift


def plain():
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return make_instance(g, [7], [])


def bottleneck():
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.add_edge("s", "v")
    g.add_edge("v", "t")
    g.add_edge("v", "t")
    g.source, g.sink = 0, 2
    return make_instance(g, [3, 10, 10], [([1, 2], shift(0))])


def two_stage():
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


def shared_bottleneck():
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.source, g.sink = 0, 2
    g.add_edge("s", "v")
    e1 = g.add_edge("v", "t")
    e2 = g.add_edge("v", "t")
    return make_instance(g, [3, 10, 10], [([e1], shift(0)), ([e2], shift(0))])


class TestAgainstParametric:
    @pytest.mark.parametrize(
        "build", [plain, bottleneck, two_stage, shared_bottleneck]
    )
    def test_same_canonical_answer(self, build):
        inst = build()
        a = solve_lp_constant(inst)
        b = solve_k_constant(build())
        assert a.lambda_star == b.lambda_star
        assert a.opt_value == b.opt_value
        a.verify(inst)


class TestAffine:
    def test_growing_window(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [4, 10], [([0, 1], DeviationFn.affine(2, 1))])
        res = solve_lp_constant(inst)
        assert res.lambda_star == (Q(4),)
        assert res.opt_value == 13
        res.verify(inst)

    def test_rejects_quadratic(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(
            g, [4], [([0], DeviationFn.polynomial([1, 1, Q(1, 8)]))]
        )
        with pytest.raises(UnsupportedDeviation):
            solve_lp_constant(inst)


@st.composite
def paired_instances(draw):
    n = draw(st.integers(3, 5))
    m = draw(st.integers(4, 7))
    edges = []
    for _ in range(m):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        if b >= a:
            b += 1
        edges.append((a, b))
    caps = [draw(st.integers(1, 3)) for _ in range(m)]
    picks = draw(st.permutations(list(range(m))))
    s1, s2 = sorted(picks[:2]), sorted(picks[2:4])
    c1 = draw(st.integers(0, 2))
    c2 = draw(st.integers(0, 2))
    g = Graph()
    for i in range(n):
        g.add_node(f"n{i}")
    for a, b in edges:
        g.add_edge(a, b)
    g.source, g.sink = 0, 1
    return make_instance(g, caps, [(s1, shift(c1)), (s2, shift(c2))])


class TestCrossSolver:
    @given(paired_instances())
    @settings(max_examples=20, deadline=None)
    def test_lp_and_nested_search_agree(self, inst):
        a = solve_lp_constant(inst)
        b = solve_k_constant(inst)
        assert a.opt_value == b.opt_value
        assert a.lambda_star == b.lambda_star
        a.verify(inst)
        b.verify(inst)

    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_beyond_oracle_reach(self, monkeypatch, n):
        insts = [generate_random(n, 2 * n, 2, cap_max=12, seed=s) for s in range(20)]
        expected = [solve_lp_constant(inst) for inst in insts]
        assert any(any(a.lambda_star) for a in expected)

        def no_simplex(*args):
            raise AssertionError("nested search ran the simplex")

        monkeypatch.setattr(lp, "_simplex_min", no_simplex)
        for inst, a in zip(insts, expected):
            b = solve_k_constant(inst, "parametric")
            assert (b.lambda_star, b.opt_value) == (a.lambda_star, a.opt_value)


@pytest.fixture
def pivots(monkeypatch):
    """Count lp._pivot calls; every pivot of the simplex goes through it."""
    calls = []
    inner = lp._pivot

    def counting(tab, basis, prow, pcol):
        calls.append((prow, pcol))
        inner(tab, basis, prow, pcol)

    monkeypatch.setattr(lp, "_pivot", counting)
    return calls


class TestPivotPath:
    """The simplex takes a fixed pivot sequence on the X3C yes gadgets.

    The counts and the sequences are pinned, so a change to Bland's rule,
    the ratio-test tie-break or the row encoding shows up here, not only as
    a change in speed.
    """

    # SHA-256 of each pivot sequence, written "row,col;row,col;...".
    digests = {
        3: "780b9234d2c6200a5271ac6ce4418efb0ffd6a2ddce49c10f7699e0343fa42b7",
        6: "f6e176026d34f3b86d7b299ea9302a8f6d0c0cfa1e49b1db3f94e77b150af0c5",
    }

    @pytest.mark.parametrize("q, count, value", [(3, 167, 7), (6, 530, 14)])
    def test_gadget_pivot_count(self, pivots, q, count, value):
        inst, meta = generate_x3c_gadget(x3c_yes_instance(q))
        res = solve_k_constant(inst)
        assert len(pivots) == count
        sequence = ";".join(f"{r},{c}" for r, c in pivots)
        assert hashlib.sha256(sequence.encode()).hexdigest() == self.digests[q]
        assert res.opt_value == value == meta.expected_yes_value
        res.verify(inst)

    def test_two_phase_optimum(self):
        # Maximize x0 + 2 x1 subject to x0 + x1 <= 4, x1 <= 3, -x0 <= -1:
        # phase one leaves the artificial, phase two prices from there.
        neg = [Q(-1), Q(-2)]
        A = [[Q(1), Q(1)], [Q(0), Q(1)], [Q(-1), Q(0)]]
        b = [Q(4), Q(3), Q(-1)]
        xs = lp._simplex_min(neg, A, b)
        assert xs == [Q(1), Q(3)]
        assert all(type(x) is Q for x in xs)

    def test_fractional_vertex_stays_exact(self):
        # Maximize x0 + x1 subject to 3 x0 + x1 <= 2, x0 + 3 x1 <= 2: the
        # pivots divide by 3 and 8/3, and the vertex is (1/2, 1/2).
        neg = [Q(-1), Q(-1)]
        A = [[Q(3), Q(1)], [Q(1), Q(3)]]
        xs = lp._simplex_min(neg, A, [Q(2), Q(2)])
        assert xs == [Q(1, 2), Q(1, 2)]
        assert all(type(x) is Q for x in xs)


def run_kernel(module, c, A, b):
    """``module._simplex_min(c, A, b)`` and its (row, column) pivots.

    An unbounded program reports the kernel's InternalError text instead
    of a vertex.
    """
    seq = []
    inner = module._pivot

    def recording(tab, basis, prow, pcol):
        seq.append((prow, pcol))
        inner(tab, basis, prow, pcol)

    module._pivot = recording
    try:
        out = module._simplex_min(c, A, b)
    except InternalError as exc:
        out = str(exc)
    finally:
        module._pivot = inner
    return out, seq


coefficients = st.one_of(
    st.integers(-3, 3), st.builds(Q, st.integers(-7, 7), st.integers(1, 4))
)


@st.composite
def small_programs(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    c = draw(st.lists(coefficients, min_size=n, max_size=n))
    row = st.lists(coefficients, min_size=n, max_size=n)
    A = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(coefficients, min_size=m, max_size=m))
    return c, A, b


class TestKernelAgainstReference:
    """The int-first kernel takes the reference kernel's pivots exactly."""

    @given(small_programs())
    @settings(max_examples=300, deadline=None)
    # Phase one ends with an artificial basic at zero, so the clean-up
    # pivot runs before phase two.
    @example(([Q(-1), Q(0)], [[1, 1], [-1, -1], [1, 0]], [2, -2, Q(1, 2)]))
    # Infeasible: x0 + x1 <= -1 with x >= 0.
    @example(([1, 1], [[1, 1], [Q(1, 2), 0]], [-1, 3]))
    # Unbounded below along x0.
    @example(([-1, Q(1, 3)], [[-1, 1], [0, 1]], [1, 2]))
    def test_same_vertex_and_pivots(self, program):
        c, A, b = program
        got, got_seq = run_kernel(lp, c, A, b)
        want, want_seq = run_kernel(reflp, c, A, b)
        assert got == want
        assert got_seq == want_seq
        if isinstance(got, list):
            assert all(type(x) is Q for x in got)

    def test_examples_reach_every_branch(self):
        cleanup = ([Q(-1), Q(0)], [[1, 1], [-1, -1], [1, 0]], [2, -2, Q(1, 2)])
        out, seq = run_kernel(lp, *cleanup)
        assert out == [Q(1, 2), Q(3, 2)]
        # Phase one pivots twice and stops with row 1's artificial basic at
        # zero; the clean-up pivot swaps in the slack of row 0 (column 2).
        assert seq == [(2, 0), (0, 1), (1, 2)]
        assert run_kernel(lp, [1, 1], [[1, 1], [Q(1, 2), 0]], [-1, 3])[0] is None
        out, _ = run_kernel(lp, [-1, Q(1, 3)], [[-1, 1], [0, 1]], [1, 2])
        assert out == "flow programs are bounded by their capacities"

    @pytest.mark.parametrize("seed", range(12))
    def test_lp_optimum_on_fractional_k3(self, monkeypatch, seed):
        base = generate_random(7, 14, 3, cap_max=6, seed=seed)
        caps = [
            Q(2 * c - 1, 2) if e % 3 else Q(4 * c, 3)
            for e, c in enumerate(base.capacities)
        ]
        devs = [
            shift(Q(1, 2)),
            DeviationFn.affine(Q(3, 2), Q(1, 2)),
            DeviationFn.affine(2),
        ]
        inst = make_instance(
            base.graph, caps, [(hs.edges, d) for hs, d in zip(base.sets, devs)]
        )
        got = lp._lp_optimum(inst)
        monkeypatch.setattr(lp, "_simplex_min", reflp._simplex_min)
        assert got == lp._lp_optimum(inst)
