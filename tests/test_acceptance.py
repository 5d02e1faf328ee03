"""Acceptance suite: ten end-to-end criteria, one test each.

Run with -v to get one pass/fail line per criterion.  Every expected
value here was computed by an independent oracle or a closed-form count;
nothing is copied from solver output.
"""

from fractions import Fraction as Q

import pytest

import aemflow as af
from aemflow.cli import main
from aemflow.values import DeviationFn


def mixed_family(i, kind="const"):
    """Deterministic spread over n <= 8, m <= 12, k <= 2, caps <= 5."""
    n = 2 + (i % 7)
    m = 1 + (i * 7) % 12
    k = min(i % 3, m)
    return af.generate_random(n, m, k, cap_max=5, deviation_kind=kind, seed=i)


def single_set_family(i, kind="const", seed_base=500):
    n = 2 + (i % 7)
    m = 1 + (i * 5) % 12
    return af.generate_random(
        n, m, min(1, m), cap_max=5, deviation_kind=kind, seed=seed_base + i
    )


def cli_value(capsys, *argv) -> Q:
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0, out
    for line in out.splitlines():
        if line.startswith("value "):
            return Q(line.split()[1])
    raise AssertionError(f"no value line in {out!r}")


def gadget_file(tmp_path, name, inst):
    p = tmp_path / name
    p.write_text(af.write_instance(inst))
    return str(p)


def test_c01_integral_gadget_optimum_is_7q_thirds(tmp_path, capsys):
    for q in (3, 6):
        inst, meta = af.generate_x3c_gadget(af.x3c_yes_instance(q))
        assert meta.expected_yes_value == Q(7 * q, 3)
        path = gadget_file(tmp_path, f"yes{q}.aemfp", inst)
        solved = cli_value(capsys, "solve", path, "--integer")
        oracled = cli_value(capsys, "oracle", path, "--integer")
        assert solved == Q(7 * q, 3)
        assert oracled == Q(7 * q, 3)


def test_c02_no_instance_gadgets_stay_below_7q_thirds():
    for q in (3, 6):
        inst, _ = af.generate_x3c_gadget(af.x3c_no_instance(q))
        assert af.oracle_integer(inst) < Q(7 * q, 3)


def test_c03_approximation_gap_grows_with_k():
    q = 3
    for k in (1, 2, 4):
        yes, _ = af.generate_approx_gadget(af.x3c_yes_instance(q), k)
        no, _ = af.generate_approx_gadget(af.x3c_no_instance(q), k)
        yes_v = af.oracle_integer(yes)
        no_v = af.oracle_integer(no)
        assert yes_v == Q(7 * q, 3) + 2 * k * Q(7 * q, 3)
        assert Q(yes_v, no_v) >= 2 - Q(1, k + 1)


def test_c04_fractional_solver_matches_oracle_on_200_instances():
    for i in range(200):
        inst = mixed_family(i)
        res = af.solve_k_constant(inst)
        assert res.opt_value == af.oracle_fractional(inst), i


def test_c05_integer_solver_matches_oracle_on_200_instances():
    for i in range(200):
        inst = mixed_family(i)
        res = af.solve_integer_constant(inst)
        assert res.opt_value == af.oracle_integer(inst), i


def test_c06_value_function_profile_properties():
    for i in range(100):
        inst = single_set_family(i)
        prof = af.breakpoint_profile(inst)
        m = inst.m
        assert len(prof.breakpoints) - 2 <= 2 * m, i
        slopes = prof.segment_slopes
        assert all(a > b for a, b in zip(slopes, slopes[1:])), i
        assert all(
            b - a >= Q(1, m * m)
            for a, b in zip(prof.breakpoints, prof.breakpoints[1:])
        ), i
        assert prof.argmax in prof.breakpoints, i


def test_c07_deviation_degeneration():
    for i in range(100):
        base = single_set_family(i, seed_base=900)
        edges = base.sets[0].edges
        g, caps = base.graph, base.capacities
        wide = af.Instance(
            g, caps, (af.HomologousSet(edges, DeviationFn.constant_shift(5)),)
        )
        plain = af.FEvaluator(af.Instance(g, caps, ())).sample(()).value
        assert af.solve_k_constant(wide).opt_value == plain, i
        tight = af.Instance(
            g, caps, (af.HomologousSet(edges, DeviationFn.constant_shift(0)),)
        )
        rz = af.solve_k_constant(tight)
        vals = [rz.flow[e] for e in edges]
        assert max(vals) - min(vals) == 0, i


def test_c08_concave_solver_against_refined_oracle():
    for i in range(30):
        kind = "quadratic" if i % 2 else "affine"
        inst = af.generate_random(
            2 + (i % 5),
            1 + (i * 5) % 10,
            1,
            cap_max=5,
            deviation_kind=kind,
            seed=1300 + i,
        )
        res = af.solve_concave_single(inst)
        _, v_o = af.oracle_concave_single(inst)
        assert v_o <= res.opt_value, i
        assert res.opt_value - v_o <= Q(1, 1 << 30) * max(inst.u_R(0), 1), i
    for i in range(15):
        inst = af.generate_random(
            4, 6, 1, cap_max=5, deviation_kind="const", seed=1600 + i
        )
        rc = af.solve_concave_single(inst)
        rs = af.solve_k_constant(inst)
        assert rc.opt_value == rs.opt_value, i
        assert rc.lambda_star == rs.lambda_star, i


def test_c09_cut_certificates_are_exact_on_every_solve():
    solves = []
    for i in range(40):
        inst = mixed_family(i)
        solves.append((inst, af.solve_k_constant(inst)))
        solves.append((inst, af.solve_integer_constant(inst)))
    for i in range(10):
        inst = single_set_family(i, kind="quadratic", seed_base=2000)
        solves.append((inst, af.solve_concave_single(inst)))
    gadget, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
    solves.append((gadget, af.solve_integer_constant(gadget)))
    for inst, res in solves:
        assert res.certificate.capacity_at(res.lambda_star) == res.opt_value
        res.verify(inst)


def test_c10_round_trip_and_cli_determinism(tmp_path, capsys):
    for i in range(25):
        inst = mixed_family(
            i, kind=("const", "affine", "quadratic")[i % 3]
        )
        text = af.write_instance(inst)
        assert af.parse_instance(text) == inst
        assert af.write_instance(af.parse_instance(text)) == text
    gadget, _ = af.generate_approx_gadget(af.x3c_yes_instance(3), 2)
    assert af.parse_instance(af.write_instance(gadget)) == gadget

    path = gadget_file(tmp_path, "d.aemfp", mixed_family(7))
    outs = set()
    for _ in range(2):
        assert main(["solve", path]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    for run in range(2):
        out = str(tmp_path / f"gen{run}.aemfp")
        assert main(
            ["generate", "random", "--n", "6", "--m", "9", "--k", "2",
             "--seed", "3", "-o", out]
        ) == 0
        capsys.readouterr()
    assert (tmp_path / "gen0.aemfp").read_bytes() == (
        tmp_path / "gen1.aemfp"
    ).read_bytes()
