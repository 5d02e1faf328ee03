from fractions import Fraction as Q
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refint
from aemflow import instance, ksets, lp, maxflow
from aemflow.errors import UnsupportedDeviation, ValidationError
from aemflow.fileformat import parse_instance, write_instance, write_result
from aemflow.gadgets import (
    generate_approx_gadget,
    generate_x3c_gadget,
    x3c_no_instance,
    x3c_yes_instance,
)
from aemflow.graph import Graph
from aemflow.instance import FEvaluator, make_instance
from aemflow.ksets import solve_integer_constant, solve_k_constant
from aemflow.oracles import oracle_integer
from aemflow.randgen import generate_random
from aemflow.values import DeviationFn
from test_acceptance import mixed_family

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
    """Sets in series: the first pins the second into a narrow slice."""
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
    """Two singleton sets drain one capacity-3 edge; F is flat at 3."""
    g = Graph()
    for name in "svt":
        g.add_node(name)
    g.source, g.sink = 0, 2
    e0 = g.add_edge("s", "v")
    e1 = g.add_edge("v", "t")
    e2 = g.add_edge("v", "t")
    return make_instance(g, [3, 10, 10], [([e1], shift(0)), ([e2], shift(0))])


def twin_gadgets(copies=2):
    """Independent bottleneck gadgets, one homologous pair each."""
    g = Graph()
    g.add_node("s")
    g.add_node("t")
    g.source, g.sink = 0, 1
    sets = []
    caps = []
    for i in range(copies):
        v = g.add_node(f"v{i}")
        caps.append(Q(3))
        g.add_edge(0, v)
        e1 = g.add_edge(v, 1)
        e2 = g.add_edge(v, 1)
        caps += [Q(10), Q(10)]
        sets.append(([e1, e2], shift(0)))
    return make_instance(g, caps, sets)


class TestSolveK:
    def test_no_sets_is_plain_max_flow(self):
        res = solve_k_constant(plain())
        assert res.lambda_star == ()
        assert res.opt_value == 7
        res.verify(plain())

    def test_single_set_delegates_to_slice(self):
        res = solve_k_constant(bottleneck())
        assert res.lambda_star == (Q(3, 2),)
        assert res.opt_value == 3
        res.verify(bottleneck())

    def test_series_sets(self):
        inst = two_stage()
        res = solve_k_constant(inst)
        assert res.lambda_star == (Q(3), Q(2))
        assert res.opt_value == 6
        res.verify(inst)

    def test_flat_top_takes_lexicographic_minimum(self):
        inst = shared_bottleneck()
        res = solve_k_constant(inst)
        assert res.lambda_star == (Q(0), Q(3))
        assert res.opt_value == 3
        res.verify(inst)

    def test_independent_gadgets_round_to_halves(self):
        inst = twin_gadgets()
        res = solve_k_constant(inst)
        assert res.lambda_star == (Q(3, 2), Q(3, 2))
        assert res.opt_value == 6
        res.verify(inst)

    def test_three_sets_parametric_recursion(self, monkeypatch):
        inst = twin_gadgets(3)
        res = solve_k_constant(inst)
        assert res.lambda_star == (Q(3, 2), Q(3, 2), Q(3, 2))
        assert res.opt_value == 9
        res.verify(inst)

        def no_sample(*args):
            raise AssertionError("nested search sampled F at k = 3")

        both = (twin_gadgets(3), generate_random(5, 9, 3, cap_max=12, seed=831))
        for inst in both:
            res = solve_integer_constant(inst)
            res.verify(inst)
            assert res.opt_value == oracle_integer(inst)

        monkeypatch.setattr(instance, "_max_flow_at", no_sample)
        for inst in both:
            with pytest.raises(UnsupportedDeviation, match="at most two"):
                solve_k_constant(inst, "parametric")

    def test_rejects_affine_deviation(self):
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [4, 10], [([0, 1], DeviationFn.affine(2, 1))])
        with pytest.raises(UnsupportedDeviation):
            solve_k_constant(inst)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            solve_k_constant(bottleneck(), method="fast")

    def test_deterministic(self):
        a = solve_k_constant(twin_gadgets())
        b = solve_k_constant(twin_gadgets())
        assert a.lambda_star == b.lambda_star
        assert a.opt_value == b.opt_value


class TestSolveInteger:
    def test_rounds_down_when_ceiling_infeasible(self):
        res = solve_integer_constant(bottleneck())
        assert res.lambda_star == (Q(1),)
        assert res.opt_value == 2

    def test_integral_optimum_kept(self):
        res = solve_integer_constant(two_stage())
        assert res.lambda_star == (Q(3), Q(2))
        assert res.opt_value == 6

    def test_corner_search(self):
        res = solve_integer_constant(twin_gadgets())
        assert res.lambda_star == (Q(1), Q(1))
        assert res.opt_value == 4

    def test_fractional_data_is_floored(self):
        # Integral flows meet caps 9/2, 11/2 and shift 3/2 exactly when they
        # meet 4, 5 and 1, so lam = 4 with flows 4 and 5 is the optimum.
        g = Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("s", "t")
        g.source, g.sink = 0, 1
        inst = make_instance(g, [Q(9, 2), Q(11, 2)], [([0, 1], shift(Q(3, 2)))])
        res = solve_integer_constant(inst)
        assert res.lambda_star == (Q(4),)
        assert res.opt_value == 9
        assert res.flow == (Q(4), Q(5))
        res.verify(inst)

    def test_no_sets(self):
        res = solve_integer_constant(plain())
        assert res.lambda_star == ()
        assert res.opt_value == 7

    def test_values_are_integers(self):
        for inst in (bottleneck(), two_stage(), twin_gadgets()):
            res = solve_integer_constant(inst)
            assert all(x.denominator == 1 for x in res.lambda_star)
            res.verify(inst)

    # generate_random(n, m, k, cap_max=c, seed=s, deviation_kind="const"):
    # the integer optimum lies outside the floor/ceiling box around the
    # fractional one, or ties with a smaller vector outside it.  Each
    # expected point is the lexicographically smallest argmax of the full
    # integer grid.
    @pytest.mark.parametrize(
        "shape, lam, value",
        [
            ((6, 9, 2, 6, 4658), (1, 2), 2),
            ((3, 8, 2, 6, 714), (0, 1), 9),
            ((5, 9, 3, 12, 831), (1, 1, 0), 1),
            ((6, 8, 4, 9, 1376), (1, 1, 0, 0), 1),
            ((5, 10, 4, 9, 2764), (0, 5, 2, 2), 9),
            ((6, 11, 4, 6, 3752), (1, 2, 3, 0), 5),
            ((4, 6, 3, 9, 4959), (2, 2, 1), 2),
        ],
    )
    def test_optimum_outside_the_rounding_box(self, shape, lam, value):
        n, m, k, c, seed = shape
        inst = generate_random(n, m, k, cap_max=c, seed=seed, deviation_kind="const")
        res = solve_integer_constant(inst)
        assert res.lambda_star == tuple(Q(x) for x in lam)
        assert res.opt_value == value
        res.verify(inst)

    @pytest.mark.parametrize("method", ["auto", "parametric"])
    def test_both_corners_below_the_integer_optimum(self, method):
        # The fractional optimum, by either fractional method, is (0, 1/2)
        # at value 1.  Its corner (0, 0) gives 0 and (0, 1) is infeasible;
        # the integer optimum (1, 0) lies outside.
        text = "\n".join([
            "p aemfp 4 6 2", "n 0 s", "n 1 t",
            "a 0 0 1 1", "a 1 1 2 1", "a 2 3 2 1", "a 3 0 2 1",
            "a 4 2 1 1", "a 5 0 3 1",
            "h 0 const 0 0 1", "h 1 const 0 2 3",
        ])
        inst = parse_instance(text + "\n")
        frac = solve_k_constant(inst, method)
        assert frac.lambda_star == (Q(0), Q(1, 2))
        assert frac.opt_value == 1
        ev = FEvaluator(inst)
        assert ev.sample((Q(0), Q(0))).value == 0
        assert not ev.sample((Q(0), Q(1))).feasible
        res = solve_integer_constant(inst)
        res.verify(inst)
        assert res.lambda_star == (Q(1), Q(0))
        assert res.opt_value == 1


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
    ids = list(range(m))
    picks = draw(st.permutations(ids))
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


class TestAgainstGrid:
    @given(paired_instances())
    @settings(max_examples=15, deadline=None)
    def test_two_set_optimum_dominates_grid(self, inst):
        res = solve_k_constant(inst)
        res.verify(inst)
        ev = FEvaluator(inst)
        grids = []
        for i in range(2):
            u = inst.u_R(i)
            pts = {
                Q(j, q)
                for q in range(1, 4)
                for j in range(int(u * q) + 1)
            }
            grids.append(sorted(pts))
        for x in grids[0]:
            for y in grids[1]:
                s = ev.sample((x, y))
                if not s.feasible:
                    continue
                assert s.value <= res.opt_value
                if s.value == res.opt_value:
                    assert (x, y) >= res.lambda_star

    @given(paired_instances())
    @settings(max_examples=10, deadline=None)
    def test_integer_optimum_dominates_integer_grid(self, inst):
        res = solve_integer_constant(inst)
        res.verify(inst)
        ev = FEvaluator(inst)
        u0, u1 = int(inst.u_R(0)), int(inst.u_R(1))
        for x in range(u0 + 1):
            for y in range(u1 + 1):
                s = ev.sample((Q(x), Q(y)))
                if not s.feasible:
                    continue
                assert s.value <= res.opt_value
                if s.value == res.opt_value:
                    assert (Q(x), Q(y)) >= res.lambda_star

    @given(
        n=st.integers(5, 8),
        m=st.integers(8, 12),
        k=st.integers(1, 4),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_optimum_equals_integer_oracle(self, n, m, k, seed):
        # Up to four sets with capacities to 12: beyond the integer grids
        # above, and within the pruned enumeration's reach.
        inst = generate_random(n, m, k, cap_max=12, seed=seed)
        assert solve_integer_constant(inst).opt_value == oracle_integer(inst)


class TestSharedEvaluator:
    """Integer branch-and-bound samples F at most once per point."""

    @staticmethod
    def _evaluated(monkeypatch, inst):
        seen = []
        real = instance._max_flow_at

        def counting(inst, lam):
            seen.append(tuple(Q(x) for x in lam))
            return real(inst, lam)

        monkeypatch.setattr(instance, "_max_flow_at", counting)
        solve_integer_constant(inst).verify(inst)
        monkeypatch.undo()
        return seen

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        for s in range(30):
            inst = generate_random(6, 9, 2, seed=s)
            seen = self._evaluated(monkeypatch, inst)
            assert len(seen) == len(set(seen)), s

    def test_lp_optimum_is_evaluated_once(self, monkeypatch):
        inst = generate_random(5, 9, 3, seed=1)
        seen = self._evaluated(monkeypatch, inst)
        assert seen
        assert len(seen) == len(set(seen))


def _gadget(kind, q, variant):
    x3c = x3c_yes_instance(q) if variant == "yes" else x3c_no_instance(q)
    if kind == "x3c":
        return generate_x3c_gadget(x3c)
    return generate_approx_gadget(x3c, int(kind[-1]))


class TestFlooredCopy:
    """Integer mode floors a copy of the instance only when a capacity or
    shift is fractional; either way it answers like Land–Doig (`refint`)."""

    @staticmethod
    def _variants():
        base = generate_random(8, 14, 2, cap_max=12, seed=3)
        caps = list(base.capacities)
        sets = [(hs.edges, hs.deviation) for hs in base.sets]
        frac_cap = [c + Q(2, 3) for c in caps]
        frac_shift = [(e, shift(dev.shift_amount() + Q(1, 2))) for e, dev in sets]
        return {
            "integral": (base, 1),
            "capacity": (make_instance(base.graph, frac_cap, sets), 2),
            "shift": (make_instance(base.graph, caps, frac_shift), 2),
        }

    @pytest.mark.parametrize("label", ["integral", "capacity", "shift"])
    def test_instances_built(self, monkeypatch, label):
        inst, want = self._variants()[label]
        text = write_instance(inst)
        built = []
        init = instance.Instance.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(instance.Instance, "__init__", counting)
        parsed = parse_instance(text)
        res = solve_integer_constant(parsed)
        monkeypatch.undo()
        assert len(built) == want
        res.verify(parsed)
        assert write_result(res) == write_result(refint.solve_integer(parsed))


class TestAgainstLandDoig:
    """Branch-and-bound on the master against Land–Doig on the flow program
    (`refint`), byte for byte, at sizes `oracle_integer` cannot reach."""

    @pytest.mark.parametrize("n", [40, 80])
    def test_random(self, n):
        for k in (2, 3, 4):
            for c in (12, 10**6):
                for seed in (0, 1):
                    inst = generate_random(n, 2 * n, k, cap_max=c, seed=seed)
                    want = write_result(refint.solve_integer(inst))
                    assert write_result(solve_integer_constant(inst)) == want, (k, c, seed)

    # The reference takes about 3 s on the approximation-chain yes gadgets
    # at q = 6; their closed-form values are checked below instead.
    @pytest.mark.parametrize(
        "kind, q, variant",
        [
            (kind, q, variant)
            for kind in ("x3c", "approx1", "approx2")
            for q in (3, 6)
            for variant in ("yes", "no")
            if (kind, q, variant) not in {("approx1", 6, "yes"), ("approx2", 6, "yes")}
        ],
    )
    def test_gadget(self, kind, q, variant):
        inst, _ = _gadget(kind, q, variant)
        want = write_result(refint.solve_integer(inst))
        assert write_result(solve_integer_constant(inst)) == want

    @pytest.mark.parametrize("kind", ["approx1", "approx2"])
    def test_approx_yes_at_q6_hits_the_closed_form(self, kind):
        inst, meta = _gadget(kind, 6, "yes")
        res = solve_integer_constant(inst)
        res.verify(inst)
        assert res.opt_value == meta.expected_yes_value


class TestEngineWork:
    """The integer search's work on the gadgets, in F samples and master LP
    solves.  Both are machine-independent, so a change to the rows, the
    branching or the search order shows up here, not only as a change in
    speed.  The master LP solves of the search without the corner-bound
    prune (`refint.master_int_optimum`) are pinned beside them."""

    @staticmethod
    def _work(monkeypatch, inst):
        """The result, F samples and master LP solves of one integer solve,
        and the master LP solves of the unpruned reference search."""
        evaluators, calls = [], []

        class Recording(FEvaluator):
            def __init__(self, inst):
                super().__init__(inst)
                evaluators.append(self)

        inner = lp._simplex_min

        def counting(c, A, b):
            calls.append(len(A))
            return inner(c, A, b)

        monkeypatch.setattr(ksets, "FEvaluator", Recording)
        monkeypatch.setattr(lp, "_simplex_min", counting)
        res = solve_integer_constant(inst)
        monkeypatch.undo()
        res.verify(inst)
        ev = FEvaluator(inst)
        _, _, boxes = refint.master_int_optimum(ev)
        assert [ev.evaluations] == [e.evaluations for e in evaluators]
        return res, [e.evaluations for e in evaluators], len(calls), len(boxes)

    # kind, q, variant, F samples, master LP solves without and with the
    # corner-bound prune; the test ids keep the first five.
    WORK = [
        ("x3c", 3, "yes", 5, 6, 5),
        ("x3c", 3, "no", 1, 2, 1),
        ("approx1", 3, "no", 2, 4, 2),
        ("approx2", 3, "no", 2, 4, 2),
        ("x3c", 6, "yes", 7, 9, 8),
        ("x3c", 6, "no", 9, 13, 9),
        ("approx1", 6, "no", 13, 22, 17),
        ("approx2", 6, "no", 13, 22, 17),
    ]

    @pytest.mark.parametrize(
        "kind, q, variant, samples, unpruned, solves",
        [pytest.param(*w, id="-".join(map(str, w[:5]))) for w in WORK],
    )
    def test_gadget_work(self, monkeypatch, kind, q, variant, samples, unpruned, solves):
        inst, meta = _gadget(kind, q, variant)
        res, evaluations, lps, ref_lps = self._work(monkeypatch, inst)
        assert (evaluations, lps, ref_lps) == ([samples], solves, unpruned)
        if variant == "yes":
            assert res.opt_value == meta.expected_yes_value
        else:
            assert res.opt_value <= meta.expected_no_bound

    def test_ridge_takes_a_few_samples(self, monkeypatch):
        # The fractional optimum (154584, 0, 0, 309167/2) sits on a ridge
        # whose down branches keep bounds above the all-zero incumbent.
        # Depth-first order without the nearest-point box walked it one
        # unit per node: about 460,000 F samples and three minutes.
        inst = generate_random(9, 15, 4, cap_max=10**6, seed=9283)
        res, evaluations, lps, ref_lps = self._work(monkeypatch, inst)
        assert res.lambda_star == (Q(154584), Q(0), Q(0), Q(154584))
        assert res.opt_value == solve_k_constant(inst).opt_value == 154584
        assert (evaluations, lps, ref_lps) == ([6], 9, 11)


class TestMasterWork:
    """The fractional master's work, `solve_k_constant(inst, "master")`,
    which `aemflow solve` runs: F samples, master LP solves, integer max
    flows (`_Net.max_flow`) and simplex pivots, all machine-independent.
    The library default `solve_k_constant(inst)` makes 67/433/9457 max
    flows at k = 0/1/2 on the same corpus and 167/530 pivots on the x3c
    gadgets; the benchmark self-check pins those."""

    @pytest.fixture
    def work(self, monkeypatch):
        """A reader of the work done since it was last read."""
        evaluators, counts = [], {"lps": 0, "flows": 0, "pivots": 0}

        class Recording(FEvaluator):
            def __init__(self, inst):
                super().__init__(inst)
                evaluators.append(self)

        def counting(name, inner):
            def call(*args):
                counts[name] += 1
                return inner(*args)

            return call

        monkeypatch.setattr(ksets, "FEvaluator", Recording)
        monkeypatch.setattr(lp, "_simplex_min", counting("lps", lp._simplex_min))
        monkeypatch.setattr(lp, "_pivot", counting("pivots", lp._pivot))
        monkeypatch.setattr(maxflow._Net, "max_flow", counting("flows", maxflow._Net.max_flow))

        def read():
            out = (sum(e.evaluations for e in evaluators), *counts.values())
            evaluators.clear()
            counts.update(dict.fromkeys(counts, 0))
            return out

        return read

    def test_mixed_family(self, work):
        # k: instances, F samples, master LP solves, max flows, pivots
        got = {}
        for i in range(200):
            inst = mixed_family(i)
            solve_k_constant(inst, "master").verify(inst)
            row = got.setdefault(inst.k, [0] * 5)
            for j, c in enumerate((1, *work())):
                row[j] += c
        assert got == {
            0: [67, 67, 0, 67, 0],
            1: [67, 103, 155, 128, 314],
            2: [66, 151, 246, 212, 698],
        }

    @pytest.mark.parametrize(
        "q, samples, lps, flows, pivots, value", [(3, 5, 6, 8, 25, 7), (6, 7, 9, 12, 62, 14)]
    )
    def test_x3c_gadget(self, work, q, samples, lps, flows, pivots, value):
        inst, meta = generate_x3c_gadget(x3c_yes_instance(q))
        res = solve_k_constant(inst, "master")
        assert work() == (samples, lps, flows, pivots)
        res.verify(inst)
        assert res.opt_value == value == meta.expected_yes_value


class TestCornerPrune:
    """Dropping a box whose corner bound cannot beat the incumbent, before
    its master LP, changes nothing but the LP count: the pruned search and
    the unpruned reference (`refint.master_int_optimum`) give the same
    lam, value and sequence of F-sample points, and every box the pruned
    search drops is one the reference's LP pruned."""

    class Recording(FEvaluator):
        """An evaluator that lists every point it is asked for, in order."""

        def __init__(self, inst):
            super().__init__(inst)
            self.points = []

        def sample(self, lam):
            self.points.append(tuple(lam))
            return super().sample(lam)

    def _compare(self, monkeypatch, inst):
        """Run both searches; returns how many boxes the pruned one drops."""
        calls = []
        inner = lp._simplex_min

        def counting(c, A, b):
            calls.append(None)
            return inner(c, A, b)

        ev, ref_ev = self.Recording(inst), self.Recording(inst)
        with monkeypatch.context() as m:
            m.setattr(lp, "_simplex_min", counting)
            got = lp._int_optimum(ev)
        lam, value, boxes = refint.master_int_optimum(ref_ev)
        assert got == (lam, value)
        assert ev.points == ref_ev.points
        # Whether the reference's LP pruned each box its corner bound drops.
        dropped = []
        for goal, lo, hi, best, pruned in boxes:
            if goal[inst.k]:
                continue
            corner = -sum(c * (lo[i] if c > 0 else hi[i]) for i, c in enumerate(goal) if c)
            if floor(corner) <= best:
                dropped.append(pruned)
        assert all(dropped)
        assert len(calls) == len(boxes) - len(dropped)
        return len(dropped)

    @pytest.mark.parametrize("kind", ["x3c", "approx1", "approx2"])
    def test_gadgets(self, monkeypatch, kind):
        for q in (3, 6):
            for variant in ("yes", "no"):
                inst, _ = _gadget(kind, q, variant)
                self._compare(monkeypatch, inst)

    def test_ridge(self, monkeypatch):
        inst = generate_random(9, 15, 4, cap_max=10**6, seed=9283)
        assert self._compare(monkeypatch, inst) == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random(self, monkeypatch, k):
        dropped = 0
        for c in (12, 10**6):
            for seed in range(12):
                n = 4 + seed % 7
                inst = generate_random(n, 2 * n + seed % 5, k, cap_max=c, seed=seed)
                dropped += self._compare(monkeypatch, inst)
        assert dropped > 0
