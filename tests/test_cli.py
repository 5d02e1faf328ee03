"""End-to-end checks of the command line front end.

Everything runs in process through cli.main so exit codes and the exact
bytes on stdout/stderr are observable without subprocesses.
"""

import hashlib
import time
from fractions import Fraction as Q

import pytest

import aemflow as af
from aemflow import cli, lp
from aemflow.cli import main

PARALLEL = "p aemfp 2 2 1\nn 0 s\nn 1 t\na 0 0 1 4\na 1 0 1 5\nh 0 const 1 0 1\n"
SINGLE = "p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\nh 0 const 0 0\n"
AFFINE = "p aemfp 2 2 1\nn 0 s\nn 1 t\na 0 0 1 4\na 1 0 1 5\nh 0 affine 2 0 0 1\n"
CONVEX = "p aemfp 2 2 1\nn 0 s\nn 1 t\na 0 0 1 4\na 1 0 1 5\nh 0 poly 2 1 0 2 0 1\n"
HUGE = (
    "p aemfp 2 3 1\nn 0 s\nn 1 t\na 0 0 1 999999999999\na 1 0 1 3\na 2 0 1 2\n"
    "h 0 const 1 0\n"
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write, tmp_path


class TestSolve:
    def test_parallel_fixture(self, capsys, files):
        write, _ = files
        rc, out, _ = run(capsys, "solve", write("p.aemfp", PARALLEL))
        assert rc == 0
        lines = out.splitlines()
        assert "lambda 0 4" in lines
        assert "value 9" in lines
        assert "cutvalue 9" in lines

    def test_integer_on_gadget(self, capsys, files):
        write, _ = files
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
        path = write("g.aemfp", af.write_instance(inst))
        rc, out, _ = run(capsys, "solve", path, "--integer")
        assert rc == 0
        assert "value 7" in out.splitlines()

    def test_integer_floors_a_fractional_shift(self, capsys, files):
        write, _ = files
        path = write("h.aemfp", PARALLEL.replace("const 1 ", "const 1/2 "))
        rc, out, _ = run(capsys, "solve", path, "--integer")
        assert rc == 0
        lines = out.splitlines()
        assert "value 8" in lines
        flows = [Q(line.split()[2]) for line in lines if line.startswith("flow ")]
        assert flows == [4, 4]
        rc, out, _ = run(capsys, "oracle", path, "--integer")
        assert (rc, out) == (0, "value 8\n")

    def test_plain_maxflow_no_sets(self, capsys, files):
        write, _ = files
        rc, out, _ = run(
            capsys, "solve", write("m.aemfp", "p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 3\n")
        )
        assert rc == 0
        assert out.splitlines()[0] == "value 3"

    def test_methods_agree(self, capsys, files):
        write, _ = files
        path = write("p.aemfp", PARALLEL)
        outs = []
        for method in ("auto", "parametric", "concave"):
            rc, out, _ = run(capsys, "solve", path, "--method", method)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_concave_deviation_dispatches(self, capsys, files):
        write, _ = files
        rc, out, _ = run(capsys, "solve", write("a.aemfp", AFFINE))
        assert rc == 0
        assert "value 9" in out.splitlines()

    def test_integer_parametric_skips_the_simplex(self, capsys, files, monkeypatch):
        write, _ = files
        inst = af.generate_random(3, 3, 3, seed=2)
        path = write("r.aemfp", af.write_instance(inst))

        def no_simplex(inst):
            raise AssertionError("the parametric method ran the simplex")

        monkeypatch.setattr(lp, "_lp_optimum", no_simplex)
        rc, out, err = run(capsys, "solve", path, "--integer", "--method", "parametric")
        assert (rc, out) == (4, "")
        assert err == "error UnsupportedDeviation: integer solving takes no --method\n"
        rc, out, err = run(capsys, "solve", path, "--integer")
        assert (rc, err) == (0, "")
        assert out == af.write_result(af.solve_integer_constant(inst))

    def test_deterministic_bytes(self, capsys, files):
        write, _ = files
        path = write("p.aemfp", PARALLEL)
        _, first, _ = run(capsys, "solve", path)
        _, second, _ = run(capsys, "solve", path)
        assert first == second


_HEAD = "p aemfp 2 1 0\nn 0 s\nn 1 t\n"
_HEAD1 = "p aemfp 2 1 1\nn 0 s\nn 1 t\n"

# Malformed files and the one stderr line each exits 2 with, recorded
# before the parser and the validation checks were trimmed.
MALFORMED = [
    ("self-loop", _HEAD + "a 0 1 1 3\n",
     "ValidationError: self-loop at node 'v1' rejected"),
    ("endpoint-range", _HEAD + "a 0 0 9 3\n",
     "ParseError: line 4: arc endpoint out of range"),
    ("duplicate-arc", _HEAD.replace("1 0", "2 0", 1) + "a 0 0 1 3\na 0 0 1 4\n",
     "ParseError: line 5: duplicate arc id 0"),
    ("underscore-id", _HEAD + "a 1_000 0 1 3\n",
     "ParseError: line 4: arc id '1_000' is not a nonnegative integer"),
    ("superscript-id", _HEAD.replace("n 0", "n \u00b2") + "a 0 0 1 3\n",
     "ParseError: line 2: node id '\u00b2' is not a nonnegative integer"),
    ("minus-zero-id", _HEAD + "a 0 -0 1 3\n",
     "ParseError: line 4: tail '-0' is not a nonnegative integer"),
    ("negative-capacity", _HEAD + "a 0 0 1 -3\n",
     "ValidationError: edge 0: negative capacity -3"),
    ("poly1-decreasing", _HEAD1 + "a 0 0 1 4\nh 0 poly 1 5 -1 0\n",
     "ValidationError: homologous set 0: deviation not monotone at x=0"),
    ("poly1-half-slope", _HEAD1 + "a 0 0 1 4\nh 0 poly 1 0 1/2 0\n",
     "ValidationError: homologous set 0: deviation below identity at x=4"),
    ("poly0-constant", _HEAD1 + "a 0 0 1 4\nh 0 poly 0 3 0\n",
     "ValidationError: homologous set 0: deviation below identity at x=4"),
    ("poly1-below-at-0", _HEAD1 + "a 0 0 1 4\nh 0 poly 1 -1 1 0\n",
     "ValidationError: homologous set 0: deviation below identity at x=0"),
    ("poly1-decreasing-and-below", _HEAD1 + "a 0 0 1 4\nh 0 poly 1 -1 -1 0\n",
     "ValidationError: homologous set 0: deviation not monotone at x=0"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "text, line", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
    )
    def test_malformed_file_message(self, capsys, files, text, line):
        write, _ = files
        assert run(capsys, "solve", write("m.aemfp", text)) == (2, "", f"error {line}\n")

    @pytest.mark.parametrize(
        "text",
        ["c\tnote\n" + _HEAD + "a 0 0 1 3\n", _HEAD + "c\tnote\na 0 0 1 3\n"],
        ids=["before-header", "after-header"],
    )
    def test_tab_after_c_is_a_comment(self, capsys, files, text):
        write, _ = files
        want = run(capsys, "solve", write("plain.aemfp", _HEAD + "a 0 0 1 3\n"))
        assert want == (0, "value 3\nflow 0 3\ncut 0\ncutvalue 3\n", "")
        assert run(capsys, "solve", write("c.aemfp", text)) == want

    def test_parse_error_is_2(self, capsys, files):
        write, _ = files
        rc, _, err = run(capsys, "solve", write("b.aemfp", "p aemfp 1\n"))
        assert rc == 2
        assert err.startswith("error ParseError: line 1")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("p aemfp \u00b2 1 0\nn 0 s\nn 1 t\na 0 0 1 3\n", 1),
            ("p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 \u0661\u0662\n", 4),
        ],
    )
    def test_non_ascii_digit_is_2(self, capsys, files, text, line):
        write, _ = files
        rc, out, err = run(capsys, "solve", write("u.aemfp", text))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error ParseError: line {line}: ")

    def test_missing_file_is_2(self, capsys):
        rc, _, err = run(capsys, "solve", "/nonexistent/path.aemfp")
        assert rc == 2
        assert err.startswith("error ")

    def test_usage_error_is_2(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 2
        assert err.startswith("error Usage:")

    def test_convex_solve_is_4(self, capsys, files):
        write, _ = files
        rc, _, err = run(capsys, "solve", write("c.aemfp", CONVEX))
        assert rc == 4
        assert err.startswith("error UnsupportedDeviation")

    def test_integer_on_affine_is_4(self, capsys, files):
        write, _ = files
        rc, _, err = run(capsys, "solve", write("a.aemfp", AFFINE), "--integer")
        assert rc == 4
        assert "constant-shift" in err

    def test_integer_concave_is_4(self, capsys, files):
        write, _ = files
        rc, _, err = run(
            capsys, "solve", write("p.aemfp", PARALLEL), "--integer", "--method", "concave"
        )
        assert rc == 4
        assert err.startswith("error UnsupportedDeviation")

    def test_oracle_budget_is_4(self, capsys, files):
        write, _ = files
        rc, _, err = run(
            capsys, "oracle", write("p.aemfp", PARALLEL), "--budget", "2"
        )
        assert rc == 4
        assert err.startswith("error BudgetExceeded")

    @pytest.mark.parametrize("flags", [(), ("--integer",)])
    def test_oracle_budget_stops_before_enumerating(self, capsys, files, flags):
        # u_R near 10^12: building the candidate grid alone would not end.
        write, _ = files
        path = write("huge.aemfp", HUGE)
        start = time.perf_counter()
        rc, out, err = run(capsys, "oracle", path, "--budget", "10", *flags)
        assert time.perf_counter() - start < 2
        assert (rc, out) == (4, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error BudgetExceeded: ")

    def test_internal_error_is_5(self, capsys, files, monkeypatch):
        write, _ = files
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
        path = write("g.aemfp", af.write_instance(inst))
        monkeypatch.setattr(lp, "_simplex_min", lambda c, A, b: None)
        rc, out, err = run(capsys, "solve", path)
        assert rc == 5
        assert out == ""
        assert err == "error InternalError: the all-zero vector is always feasible\n"


class TestVerify:
    def test_accepts_solver_output(self, capsys, files):
        write, _ = files
        path = write("p.aemfp", PARALLEL)
        _, out, _ = run(capsys, "solve", path)
        flow = write("flow.txt", out)
        rc, out, _ = run(capsys, "verify", path, flow)
        assert rc == 0
        assert out == "ok value 9\n"

    def test_names_homologous_violation(self, capsys, files):
        write, _ = files
        path = write("p.aemfp", PARALLEL)
        flow = write("flow.txt", "flow 0 1\nflow 1 5\n")
        rc, out, _ = run(capsys, "verify", path, flow)
        assert rc == 1
        assert "violation homologous set 0 edge 1" in out

    def test_names_capacity_and_conservation(self, capsys, files):
        write, _ = files
        path = write(
            "chain.aemfp",
            "p aemfp 3 2 0\nn 0 s\nn 2 t\na 0 0 1 2\na 1 1 2 2\n",
        )
        flow = write("flow.txt", "flow 0 3\nflow 1 1\n")
        rc, out, _ = run(capsys, "verify", path, flow)
        assert rc == 1
        assert "violation capacity edge 0" in out
        assert "violation conservation node 1 net -2" in out


class TestBreakpoints:
    def test_single_edge_single_segment(self, capsys, files):
        write, tmp = files
        path = write("s.aemfp", SINGLE)
        csv = str(tmp / "out.csv")
        rc, out, _ = run(capsys, "breakpoints", path, "-o", csv)
        assert rc == 0
        assert (tmp / "out.csv").read_text() == "lambda,F,slope\n0,0,1\n3,3,1\n"
        assert "argmax 3" in out and "value 3" in out

    def test_parallel_profile(self, capsys, files):
        write, tmp = files
        path = write("p.aemfp", PARALLEL)
        csv = str(tmp / "out.csv")
        rc, _, _ = run(capsys, "breakpoints", path, "-o", csv)
        assert rc == 0
        rows = (tmp / "out.csv").read_text().splitlines()
        assert rows[0] == "lambda,F,slope"
        assert rows[1:] == ["0,2,2", "3,8,1", "4,9,1"]

    def test_csvs_pinned_on_random_draws(self, capsys, files):
        # 60 one-set shift draws at three capacity ranges, with zero to
        # three pieces each.  The digest covers every CSV and every argmax
        # and value line, so the output must stay byte-identical.
        write, tmp = files
        csv = str(tmp / "out.csv")
        digest = hashlib.sha256()
        for cap in (6, 12, 10**6):
            for s in range(20):
                n = 3 + s % 10
                inst = af.generate_random(n, 3 * n + s % 7, 1, cap_max=cap, seed=s)
                path = write("r.aemfp", af.write_instance(inst))
                rc, out, _ = run(capsys, "breakpoints", path, "-o", csv)
                assert rc == 0
                digest.update((tmp / "out.csv").read_bytes())
                digest.update(out.split("\n", 1)[1].encode())
        assert digest.hexdigest() == (
            "ebbc60713a8b41232b9d27cebdbcca3f81c9968af230a93cc57e94b73e93eb18"
        )

    def test_affine_rejected_with_4(self, capsys, files):
        write, tmp = files
        rc, _, err = run(
            capsys,
            "breakpoints",
            write("a.aemfp", AFFINE),
            "-o",
            str(tmp / "x.csv"),
        )
        assert rc == 4
        assert err.startswith("error UnsupportedDeviation")


class TestParserReuse:
    def test_one_parser_serves_consecutive_calls(self, capsys, files, monkeypatch):
        builds = []

        def counting():
            builds.append(None)
            return build()

        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", counting)
        monkeypatch.setattr(cli, "_parser", None)
        write, _ = files
        path = write("h.aemfp", PARALLEL.replace("const 1 ", "const 1/2 "))
        head = "lambda 0 4\n"
        assert run(capsys, "solve", "--integer", path) == (
            0, head + "value 8\nflow 0 4\nflow 1 4\ncut 0\ncutvalue 8\n", ""
        )
        # The --integer of the call before must not stick.
        assert run(capsys, "solve", path) == (
            0, head + "value 17/2\nflow 0 4\nflow 1 9/2\ncut 0\ncutvalue 17/2\n", ""
        )
        assert run(capsys, "solve", path, "--bogus") == (
            2, "", "error Usage: unrecognized arguments: --bogus\n"
        )
        assert run(capsys, "oracle", path) == (0, "value 17/2\n", "")
        assert len(builds) == 1


class TestOracle:
    def test_integer_floors_a_fractional_capacity(self, capsys, files):
        write, _ = files
        text = PARALLEL.replace("const 1 ", "const 1/2 ").replace(" 5\n", " 7/2\n")
        path = write("c.aemfp", text)
        rc, out, _ = run(capsys, "solve", path, "--integer")
        assert rc == 0
        assert "value 6" in out.splitlines()
        assert run(capsys, "oracle", path, "--integer") == (0, "value 6\n", "")

    def test_fractional_matches_solver(self, capsys, files):
        write, _ = files
        rc, out, _ = run(capsys, "oracle", write("p.aemfp", PARALLEL))
        assert rc == 0
        assert out == "value 9\n"

    def test_integer_gadget(self, capsys, files):
        write, _ = files
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
        path = write("g.aemfp", af.write_instance(inst))
        rc, out, _ = run(capsys, "oracle", path, "--integer")
        assert rc == 0
        assert out == "value 7\n"


class TestGenerate:
    @pytest.mark.parametrize(
        "argv,kind",
        [
            (("generate", "x3c", "--q", "3"), "X3CBasic"),
            (("generate", "approx", "--q", "3", "--k", "1"), "ApproxChain"),
            (("generate", "convex", "--q", "3"), "ConvexX3C"),
            (("generate", "random", "--n", "5", "--m", "7", "--k", "2"), "Random"),
        ],
    )
    def test_kinds_produce_parseable_files(self, capsys, files, argv, kind):
        write, tmp = files
        out_path = str(tmp / "g.aemfp")
        rc, out, _ = run(capsys, *argv, "-o", out_path)
        assert rc == 0
        assert out.splitlines()[0] == f"wrote {out_path}"
        assert f"meta kind {kind}" in out
        inst = af.parse_instance((tmp / "g.aemfp").read_text())
        assert inst.m >= 1

    def test_no_variant_value_differs(self, capsys, files):
        write, tmp = files
        ours = str(tmp / "no.aemfp")
        rc, out, _ = run(
            capsys, "generate", "x3c", "--q", "6", "--variant", "no", "-o", ours
        )
        assert rc == 0
        inst = af.parse_instance((tmp / "no.aemfp").read_text())
        assert af.oracle_integer(inst) == 13

    def test_seeded_random_is_byte_stable(self, capsys, files):
        write, tmp = files
        a, b = str(tmp / "a.aemfp"), str(tmp / "b.aemfp")
        args = ("generate", "random", "--n", "6", "--m", "8", "--k", "1", "--seed", "9")
        assert run(capsys, *args, "-o", a)[0] == 0
        assert run(capsys, *args, "-o", b)[0] == 0
        assert (tmp / "a.aemfp").read_bytes() == (tmp / "b.aemfp").read_bytes()

    def test_bad_q_is_2(self, capsys, files):
        write, tmp = files
        rc, _, err = run(
            capsys, "generate", "x3c", "--q", "4", "-o", str(tmp / "x.aemfp")
        )
        assert rc == 2
        assert err.startswith("error ValidationError")

    @pytest.mark.parametrize(
        "argv",
        [
            (kind, "--q", q, *extra)
            for kind, extra in (("x3c", ()), ("approx", ("--k", "1")), ("convex", ()))
            for q in ("0", "1", "2", "-3")
        ]
        + [("x3c", "--q", "1", "--variant", "no")],
    )
    def test_q_below_a_multiple_of_3_is_2(self, capsys, files, argv):
        write, tmp = files
        rc, _, err = run(capsys, "generate", *argv, "-o", str(tmp / "x.aemfp"))
        assert rc == 2
        assert err == (
            "error ValidationError: universe size must be a positive multiple of 3\n"
        )
