"""`SolveResult.verify` and `aemflow verify` as checkers independent of the solvers.

Results come from every solver path.  Moving any one edge's flow, or the
reported value, by 1/d must be caught, d being the lcm of the flow's
denominators; and the unmoved results must verify with every solver
entry point patched to raise.
"""

from dataclasses import replace
from fractions import Fraction as Q
from functools import cache
from math import lcm

import pytest

import aemflow as af
from aemflow import instance, lp, maxflow
from aemflow.cli import main
from aemflow.errors import ValidationError
from aemflow.instance import HomologousSet, Instance
from aemflow.values import DeviationFn


def _halved(inst):
    """`inst` with halved capacities and every shift raised by 1/2."""
    caps = tuple(c / 2 for c in inst.capacities)
    sets = tuple(
        HomologousSet(
            hs.edges, DeviationFn.constant_shift(hs.deviation.shift_amount() + Q(1, 2))
        )
        for hs in inst.sets
    )
    return Instance(inst.graph, caps, sets)


def _random(n, m, k, seed):
    return _halved(af.generate_random(n, m, k, cap_max=8, seed=seed))


# name -> (instance, solver); each draw below lands on a fractional flow.
PATHS = {
    "k0": (lambda: _random(6, 10, 0, 3), af.solve_k_constant),
    "slice-k1": (lambda: _random(6, 10, 1, 3), af.solve_k_constant),
    "nested-k2": (lambda: _random(6, 12, 2, 2), af.solve_k_constant),
    "simplex-k3": (lambda: _random(7, 14, 3, 2), af.solve_k_constant),
    "concave-affine": (
        lambda: af.generate_random(5, 8, 1, cap_max=6, deviation_kind="affine", seed=0),
        af.solve_concave_single,
    ),
    "concave-quadratic": (
        lambda: af.generate_random(
            5, 8, 1, cap_max=6, deviation_kind="quadratic", seed=0
        ),
        af.solve_concave_single,
    ),
    "integer-floored": (lambda: _random(6, 12, 2, 2), af.solve_integer_constant),
}


@cache
def solved(name):
    build, solve = PATHS[name]
    inst = build()
    res = solve(inst)
    return inst, res, lcm(*(f.denominator for f in res.flow))


def cli_verify(capsys, tmp_path, inst, flow):
    path = tmp_path / "i.aemfp"
    path.write_text(af.write_instance(inst))
    flow_path = tmp_path / "f.flow"
    flow_path.write_text("".join(f"flow {e} {f}\n" for e, f in enumerate(flow)))
    rc = main(["verify", str(path), str(flow_path)])
    out = capsys.readouterr()
    assert out.err == ""
    return rc, out.out


def test_fractional_paths_have_fractional_flows():
    # The draws are picked so that 1/d is a fraction on the paths that
    # allow one; integer mode must still give integral flows.
    for name in PATHS:
        _, _, d = solved(name)
        assert (d == 1) == (name == "integer-floored"), name


class TestCertifiesLambda:
    def test_moved_lambda_is_rejected(self):
        # Priced at lam* + 1/2 the certificate still reads the optimum,
        # but member flows 3 and 2 do not both fit in [5/2, 7/2].
        inst = af.generate_random(4, 6, 1, cap_max=8, seed=0)
        res = af.solve_k_constant(inst)
        assert res.lambda_star == (2,) and res.opt_value == 5
        res.verify(inst)
        moved = replace(res, lambda_star=(Q(5, 2),))
        with pytest.raises(ValidationError, match=r"set 0 edge 4 flow 2 outside"):
            moved.verify(inst)

    def test_certificate_must_separate_s_from_t(self):
        # With s -> t and t -> s both of capacity 3, the t side {t} has
        # capacity 3 too, but it is not an s-t cut.
        g = af.Graph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t")
        g.add_edge("t", "s")
        g.source, g.sink = 0, 1
        inst = af.make_instance(g, [3, 3], [])
        res = af.solve_k_constant(inst)
        res.verify(inst)
        bad = replace(res, certificate=inst.cut_report(frozenset({1})))
        assert bad.certificate.capacity_at(()) == res.opt_value == 3
        with pytest.raises(ValidationError, match="not an s-t cut"):
            bad.verify(inst)


@pytest.mark.parametrize("name", list(PATHS))
class TestMutations:
    def test_moved_edge_flow_is_caught(self, capsys, tmp_path, name):
        inst, res, d = solved(name)
        g = inst.graph
        for e in g.edges:
            for delta in (Q(1, d), Q(-1, d)):
                flow = list(res.flow)
                flow[e.id] += delta
                with pytest.raises(ValidationError):
                    replace(res, flow=tuple(flow)).verify(inst)
                rc, out = cli_verify(capsys, tmp_path, inst, flow)
                if {e.tail, e.head} == {g.source, g.sink}:
                    # `aemflow verify` takes no claimed value: a flow moved
                    # on an s-t edge may be feasible, at the moved value.
                    assert rc == 1 or out == f"ok value {res.opt_value + delta}\n"
                else:
                    assert rc == 1, (e, delta)

    def test_moved_value_is_caught(self, name):
        inst, res, d = solved(name)
        for delta in (Q(1, d), Q(-1, d)):
            with pytest.raises(ValidationError):
                replace(res, opt_value=res.opt_value + delta).verify(inst)

    def test_checker_calls_no_solver(self, capsys, tmp_path, monkeypatch, name):
        inst, res, _ = solved(name)

        def boom(*args, **kwargs):
            raise AssertionError("the checker called a solver")

        monkeypatch.setattr(instance, "_max_flow_at", boom)
        monkeypatch.setattr(maxflow._Net, "max_flow", boom)
        monkeypatch.setattr(lp, "_simplex_min", boom)
        res.verify(inst)
        assert cli_verify(capsys, tmp_path, inst, res.flow) == (
            0,
            f"ok value {res.opt_value}\n",
        )
