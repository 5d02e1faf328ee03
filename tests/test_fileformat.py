from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aemflow as af
from aemflow.errors import ParseError, ValidationError
from aemflow.fileformat import (
    _rational,
    parse_flow,
    parse_instance,
    write_instance,
    write_result,
)

DATA = Path(__file__).parent / "data"

MINIMAL = "p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 3\n"


def two_parallel(c=1):
    g = af.Graph()
    g.add_node("s")
    g.add_node("t")
    g.add_edge("s", "t")
    g.add_edge("s", "t")
    g.source, g.sink = 0, 1
    return af.make_instance(
        g, [4, 5], [([0, 1], af.DeviationFn.constant_shift(c))]
    )


class TestParseBasics:
    def test_minimal_plain_maxflow(self):
        inst = parse_instance(MINIMAL)
        assert (inst.n, inst.m, inst.k) == (2, 1, 0)
        assert inst.capacities == (Q(3),)
        assert inst.graph.source == 0 and inst.graph.sink == 1

    def test_comments_blanks_and_order_are_free(self):
        text = (
            "c a comment\n\n"
            "p aemfp 2 2 1\n"
            "a 1 0 1 5\n"
            "c\n"
            "n 1 t\n"
            "a 0 0 1 7/2\n"
            "n 0 s\n"
            "h 0 const 1/3 0 1\n"
        )
        inst = parse_instance(text)
        assert inst.capacities == (Q(7, 2), Q(5))
        assert inst.sets[0].deviation(Q(0)) == Q(1, 3)

    def test_all_deviation_kinds(self):
        text = (
            "p aemfp 2 3 3\n"
            "n 0 s\nn 1 t\n"
            "a 0 0 1 4\na 1 0 1 4\na 2 0 1 4\n"
            "h 0 const 2 0\n"
            "h 1 affine 3/2 1 1\n"
            "h 2 poly 2 1 2 -1/8 2\n"
        )
        inst = parse_instance(text)
        kinds = [hs.deviation.kind for hs in inst.sets]
        assert kinds == ["shift", "affine", "poly"]
        assert inst.sets[2].deviation(Q(2)) == 1 + 4 - Q(1, 2)

    def test_shared_edge_subdivided_with_warning(self):
        text = (
            "p aemfp 2 1 2\n"
            "n 0 s\nn 1 t\n"
            "a 0 0 1 4\n"
            "h 0 const 1 0\n"
            "h 1 const 2 0\n"
        )
        with pytest.warns(UserWarning, match="subdividing"):
            inst = parse_instance(text)
        assert inst.k == 2
        assert inst.m == 2
        assert inst.sets[0].edges != inst.sets[1].edges


BAD_FILES = [
    ("", "missing"),
    ("a 0 0 1 3\n", "before the"),
    ("p aemfp 2 1\n", "header must be"),
    ("p aemfp 2 1 0\np aemfp 2 1 0\n", "duplicate header"),
    (MINIMAL + "x 1 2\n", "unknown record"),
    ("p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 2.5\n", "not an integer"),
    ("p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 1/0\n", "not an integer"),
    ("p aemfp 2 1 0\nn 0 s\nn 1 t\na 1 0 1 3\n", "out of range"),
    ("p aemfp 2 1 0\nn 0 s\na 0 0 1 3\n", "sink designation"),
    ("p aemfp 2 2 0\nn 0 s\nn 1 t\na 0 0 1 3\na 0 1 0 3\n", "duplicate arc"),
    ("p aemfp 2 2 0\nn 0 s\nn 1 t\na 0 0 1 3\n", "expected 2 arcs"),
    ("p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\n", "expected 1 sets"),
    (MINIMAL + "h 0 const 1 0\n", "out of range"),
    ("p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\nh 0 const 1\n", "no edges"),
    ("p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\nh 0 poly 2 1 1\n", "coefficients"),
    ("p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\nh 0 affine 1/2 0 0\n", "slope"),
    ("p aemfp 2 1 1\nn 0 s\nn 1 t\na 0 0 1 3\nh 0 spline 1 0\n", "deviation kind"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,needle", BAD_FILES)
    def test_rejects(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_instance(text)

    def test_line_numbers_reported(self):
        text = "p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 9 3\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("p aemfp \u00b2 1 0\nn 0 s\nn 1 t\na 0 0 1 3\n", "line 1: node count"),
            ("p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 0 1 \u0661\u0662\n", "line 4: capacity"),
        ],
    )
    def test_only_ascii_digits(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_instance(text)

    def test_self_loop_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_instance("p aemfp 2 1 0\nn 0 s\nn 1 t\na 0 1 1 3\n")


class TestRationalTokens:
    """Plain ASCII digit tokens skip the regex; every token still reads, or
    fails, as the grammar says."""

    @pytest.mark.parametrize(
        "tok, want",
        [
            ("0", 0),
            ("007", 7),
            ("-0", 0),
            ("-5", -5),
            ("3/6", Q(1, 2)),
            ("12345678901234567890", 12345678901234567890),
        ],
    )
    def test_accepted(self, tok, want):
        got = _rational(tok, 4, "capacity")
        assert type(got) is Q and got == want

    @pytest.mark.parametrize(
        "tok", ["+5", "1_000", "\u00b2", "\u0661", "5/05", "5/0", "5.0", "0x5", ""]
    )
    def test_rejected(self, tok):
        with pytest.raises(ParseError) as exc:
            _rational(tok, 4, "capacity")
        assert str(exc.value) == f"line 4: capacity {tok!r} is not an integer or p/q"


class TestRoundTrip:
    def test_golden_bytes_stable(self):
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
        assert write_instance(inst) == (DATA / "x3c_q3.aemfp").read_text()

    def test_x3c_gadget(self):
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(3))
        text = write_instance(inst)
        assert parse_instance(text) == inst
        assert write_instance(parse_instance(text)) == text

    def test_polynomial_gadget(self):
        inst, _ = af.generate_convex_gadget(af.x3c_yes_instance(3))
        assert parse_instance(write_instance(inst)) == inst

    def test_affine_chain_gadget(self):
        inst, _ = af.generate_approx_gadget(
            af.x3c_yes_instance(3), 2, deviation_kind="affine"
        )
        assert parse_instance(write_instance(inst)) == inst

    def test_comments_do_not_leak(self):
        inst = two_parallel()
        with_c = write_instance(inst, comments=["meta q 3", ""])
        assert with_c.startswith("c meta q 3\nc\n")
        assert parse_instance(with_c) == inst

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["const", "affine", "quadratic"]),
        k=st.integers(0, 2),
    )
    def test_random_instances(self, seed, kind, k):
        inst = af.generate_random(6, 9, k, deviation_kind=kind, seed=seed)
        text = write_instance(inst)
        back = parse_instance(text)
        assert back == inst
        assert write_instance(back) == text


class TestFlowRecords:
    def test_reads_solver_output(self):
        inst = two_parallel()
        res = af.solve_k_constant(inst)
        values = parse_flow(write_result(res), inst.m)
        assert values == res.flow

    def test_plain_f_records(self):
        assert parse_flow("f 0 1/2\nf 1 3\n", 2) == (Q(1, 2), Q(3))

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("f 0 1\n", "no flow record"),
            ("f 0 1\nf 0 1\nf 1 0\n", "duplicate"),
            ("f 0 1\nf 5 1\n", "out of range"),
            ("f 0\nf 1 0\n", "must be"),
        ],
    )
    def test_rejects(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_flow(text, 2)


class TestResultText:
    def test_records_complete_and_ordered(self):
        inst = two_parallel()
        res = af.solve_k_constant(inst)
        lines = write_result(res).splitlines()
        assert lines[0] == "lambda 0 4"
        assert lines[1] == "value 9"
        assert lines[2:4] == ["flow 0 4", "flow 1 5"]
        assert lines[4].startswith("cut ")
        assert lines[5] == "cutvalue 9"
