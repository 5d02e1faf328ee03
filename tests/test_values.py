import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import refroots
from aemflow.errors import InternalError
from aemflow.parametric import _SymNet, _threshold_sign
from aemflow.values import (
    DeviationFn,
    Order,
    PolyValue,
    Root,
    _bisect_root,
    _simplest,
    poly_roots,
    simplest_rational_in,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)

# Degree <= 1 polynomials: the values a constant-shift slice run carries.
linear = st.builds(lambda c0, c1: PolyValue((c0, c1)), rationals, rationals)


class TestAffineValue:
    """Affine values are degree <= 1 PolyValues; their arithmetic is exact."""

    @given(linear, linear, rationals)
    def test_add_sub_evaluate_pointwise(self, a, b, x):
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)
        assert (a - b).eval(x) == a.eval(x) - b.eval(x)
        assert (a + b).degree <= 1 and (a - b).degree <= 1

    @given(linear, rationals, rationals)
    def test_scale_evaluates_pointwise(self, a, f, x):
        assert a.scale(f).eval(x) == f * a.eval(x)
        assert a.scale(f).degree <= 1


class TestAffineCompare:
    """The slice's sign path: a degree-one difference placed by its root."""

    @staticmethod
    def net_at(x):
        def locate(threshold):
            if x < threshold:
                return Order.LESS
            if x > threshold:
                return Order.GREATER
            return Order.EQUAL

        return _SymNet(2, lambda d: _threshold_sign(d, locate))

    @given(linear, linear, rationals)
    def test_matches_numeric_comparison(self, a, b, x):
        got = self.net_at(x).sign(a - b)
        va, vb = a.eval(x), b.eval(x)
        want = Order.LESS if va < vb else Order.GREATER if va > vb else Order.EQUAL
        assert got is want

    def test_constant_comparison_skips_resolver(self):
        def boom(threshold):
            raise AssertionError("resolver must not be called")

        net = _SymNet(2, lambda d: _threshold_sign(d, boom))
        assert net.sign(PolyValue.constant(2) - PolyValue.constant(3)) is Order.LESS
        parallel = PolyValue((Q(5), Q(2))) - PolyValue((Q(1), Q(2)))
        assert net.sign(parallel) is Order.GREATER
        assert net.sign(PolyValue((Q(1), Q(2))) - PolyValue((Q(1), Q(2)))) is Order.EQUAL


class TestPolyValue:
    def test_normalisation_drops_trailing_zeros(self):
        assert PolyValue((Q(1), Q(2), Q(0))).coeffs == (Q(1), Q(2))
        assert PolyValue((Q(0),)).coeffs == ()
        assert PolyValue((Q(0),)).is_zero()

    @given(
        st.lists(rationals, max_size=4),
        st.lists(rationals, max_size=4),
        rationals,
    )
    def test_ring_ops_evaluate_pointwise(self, a, b, x):
        pa, pb = PolyValue(tuple(a)), PolyValue(tuple(b))
        assert (pa + pb).eval(x) == pa.eval(x) + pb.eval(x)
        assert (pa - pb).eval(x) == pa.eval(x) - pb.eval(x)
        assert pa.scale(Q(3, 7)).eval(x) == Q(3, 7) * pa.eval(x)

    def test_derivative(self):
        p = PolyValue((Q(5), Q(3), Q(2)))  # 5 + 3x + 2x^2
        assert p.derivative().coeffs == (Q(3), Q(4))

    def test_int_fraction_and_str_coefficients_agree(self):
        forms = [
            PolyValue((3, -1, 2)),
            PolyValue((Q(3), Q(-1), Q(2), Q(0))),
            PolyValue(("3", "-2/2", "4/2", "0", 0)),
            PolyValue([Q(6, 2), -1, "2"]),
        ]
        for p in forms:
            assert p == forms[0] and hash(p) == hash(forms[0])
            assert all(type(c) is Q for c in p.coeffs)
        assert PolyValue((0, "0", Q(0))) == PolyValue(()) and PolyValue(()).degree == -1

    @given(
        st.lists(rationals, max_size=4),
        st.lists(rationals, max_size=4),
    )
    def test_ring_ops_keep_the_normal_form(self, a, b):
        pa, pb = PolyValue(tuple(a)), PolyValue(tuple(b))
        for p in (pa + pb, pa - pb, -pa, pa.scale(0), pa.derivative()):
            assert p == PolyValue(p.coeffs) and hash(p) == hash(PolyValue(p.coeffs))
            assert not p.coeffs or p.coeffs[-1] != 0
            assert all(type(c) is Q for c in p.coeffs)
        assert (pa - pa).is_zero()


class TestPolyRoots:
    def test_linear(self):
        p = PolyValue((Q(-3), Q(2)))  # 2x - 3
        (r,) = poly_roots(p, Q(0), Q(10))
        assert r.is_exact and r.value == Q(3, 2)

    def test_linear_outside_interval(self):
        p = PolyValue((Q(-30), Q(2)))
        assert poly_roots(p, Q(0), Q(10)) == []

    def test_rational_quadratic_pair(self):
        # (2x - 1)(x - 3) = 2x^2 - 7x + 3
        p = PolyValue((Q(3), Q(-7), Q(2)))
        roots = poly_roots(p, Q(0), Q(10))
        assert [r.value for r in roots] == [Q(1, 2), Q(3)]

    def test_double_root(self):
        # (x - 2)^2
        p = PolyValue((Q(4), Q(-4), Q(1)))
        (r,) = poly_roots(p, Q(0), Q(10))
        assert r.is_exact and r.value == 2

    def test_negative_discriminant(self):
        p = PolyValue((Q(1), Q(0), Q(1)))
        assert poly_roots(p, Q(-10), Q(10)) == []

    def test_irrational_quadratic_bracketed(self):
        # x^2 - 2: roots at +-sqrt(2)
        p = PolyValue((Q(-2), Q(0), Q(1)))
        roots = poly_roots(p, Q(0), Q(10))
        assert len(roots) == 1
        r = roots[0]
        assert not r.is_exact
        assert r.lo < r.hi
        assert (p.eval(r.lo) < 0) != (p.eval(r.hi) < 0)
        assert r.hi - r.lo <= Q(10) / (1 << 64)
        assert r.lo ** 2 < 2 < r.hi ** 2

    def test_bracket_past_lo_around_a_root_below_lo_is_dropped(self):
        # sqrt(2)'s bracket [41/29, 58/41] reaches past lo; the root does not.
        p = PolyValue((Q(-2), Q(0), Q(1)))
        assert poly_roots(p, Q(16819, 11890), Q(2), width=Q(1, 1000)) == []

    def test_bracket_past_hi_around_a_root_above_hi_is_dropped(self):
        p = PolyValue((Q(-2), Q(0), Q(1)))
        assert poly_roots(p, Q(0), Q(1414, 1000), width=Q(1, 1000)) == []

    def test_clipped_bracket_keeps_a_root_inside(self):
        p = PolyValue((Q(-2), Q(0), Q(1)))
        whole = poly_roots(p, Q(0), Q(2), width=Q(1, 1000))
        assert whole == [Root(Q(41, 29), Q(58, 41))]
        clipped = poly_roots(p, Q(707, 500), Q(2), width=Q(1, 1000))
        assert clipped == [Root(Q(707, 500), Q(58, 41))]

    def test_clipped_end_at_the_root_is_exact(self):
        # (7x - 2)(x^2 - 3): at width 1/4 the root 2/7 comes back as the
        # bracket [1/4, 1/3], which lo = 2/7 clips at the root itself.
        p = PolyValue((Q(6), Q(-21), Q(-2), Q(7)))
        assert poly_roots(p, Q(2, 7), Q(1), width=Q(1, 4)) == [Root.exact(Q(2, 7))]

    @given(
        st.fractions(Q(14, 10), Q(143, 100), max_denominator=10**5),
        st.fractions(Q(14, 10), Q(143, 100), max_denominator=10**5),
    )
    def test_clipped_brackets_hold_a_root(self, lo, hi):
        p = PolyValue((Q(-2), Q(0), Q(1)))
        lo, hi = min(lo, hi), max(lo, hi)
        roots = poly_roots(p, lo, hi, width=Q(1, 1000))
        assert len(roots) == (lo * lo < 2 < hi * hi)
        for r in roots:
            assert lo <= r.lo < r.hi <= hi
            assert (p.eval(r.lo) < 0) != (p.eval(r.hi) < 0)

    @given(rationals, rationals)
    def test_quadratic_from_rational_roots(self, r1, r2):
        # (x - r1)(x - r2) expanded; both roots must be recovered exactly.
        p = PolyValue((r1 * r2, -(r1 + r2), Q(1)))
        lo, hi = min(r1, r2) - 1, max(r1, r2) + 1
        got = sorted(r.value for r in poly_roots(p, lo, hi))
        assert got == sorted({r1, r2})

    def test_cubic_via_isolation(self):
        # (x - 1)(x - 2)(x - 3)
        p = PolyValue((Q(-6), Q(11), Q(-6), Q(1)))
        roots = poly_roots(p, Q(0), Q(5))
        vals = [r.value if r.is_exact else r.midpoint() for r in roots]
        assert len(vals) == 3
        for want, got in zip((1, 2, 3), vals):
            assert abs(got - want) < Q(1, 1000)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(PolyValue(()), Q(0), Q(1))


NEAR_2_70 = st.integers((1 << 70) - (1 << 20), (1 << 70) + (1 << 20))
signed = st.sampled_from([1, -1])


class TestSimplestRational:
    @pytest.mark.parametrize(
        "lo,hi,want",
        [
            (Q(2, 7), Q(1, 3), Q(1, 3)),
            (Q(3, 2), Q(3, 2), Q(3, 2)),
            (Q(22, 10), Q(57, 10), Q(3)),
            (Q(0), Q(0), Q(0)),
            (Q(1, 3), Q(1, 2), Q(1, 2)),
            (Q(140, 100), Q(160, 100), Q(3, 2)),
            (Q(0), Q(5), Q(0)),
        ],
    )
    def test_known(self, lo, hi, want):
        assert simplest_rational_in(lo, hi) == want

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            simplest_rational_in(Q(1, 2), Q(1, 3))

    @given(
        st.fractions(min_value=0, max_value=8, max_denominator=40),
        st.fractions(min_value=0, max_value=8, max_denominator=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_minimal_denominator(self, a, b):
        lo, hi = min(a, b), max(a, b)
        r = simplest_rational_in(lo, hi)
        assert lo <= r <= hi
        for d in range(1, r.denominator):
            # No rational with a smaller denominator fits the interval.
            assert math.ceil(lo * d) > math.floor(hi * d)

    @given(
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
    )
    @settings(max_examples=300)
    def test_matches_the_fraction_recursion(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert simplest_rational_in(lo, hi) == refroots.simplest_rational_in(lo, hi)

    @given(st.fractions(min_value=-60, max_value=60, max_denominator=10**9))
    def test_point_interval_is_its_point(self, x):
        assert simplest_rational_in(x, x) == refroots.simplest_rational_in(x, x) == x

    @given(st.integers(-(10**9), 10**9), st.integers(0, 10**9))
    def test_integer_endpoints(self, a, w):
        got = simplest_rational_in(a, a + w)
        assert got == refroots.simplest_rational_in(a, a + w) == a

    @given(
        st.integers(-(10**6), 10**6),
        st.fractions(Q(1, 10**9), 1 - Q(1, 10**9), max_denominator=10**9),
    )
    def test_one_integer_endpoint(self, a, w):
        for lo, hi in ((Q(a) - w, Q(a)), (Q(a), Q(a) + w)):
            got = simplest_rational_in(lo, hi)
            assert got == refroots.simplest_rational_in(lo, hi) == a

    @given(NEAR_2_70, NEAR_2_70, NEAR_2_70, NEAR_2_70, signed, signed)
    @settings(max_examples=300)
    def test_terms_near_2_70(self, an, ad, bn, bd, sa, sb):
        lo, hi = sorted((Q(sa * an, ad), Q(sb * bn, bd)))
        assert simplest_rational_in(lo, hi) == refroots.simplest_rational_in(lo, hi)
        # Narrow intervals with huge terms: a long continued fraction.
        lo, hi = Q(sa * an, bd), Q(sa * an + 1, bd)
        lo, hi = min(lo, hi), max(lo, hi)
        assert simplest_rational_in(lo, hi) == refroots.simplest_rational_in(lo, hi)

    @given(
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
        st.fractions(min_value=-60, max_value=60, max_denominator=10**6),
        st.integers(1, 1 << 40),
        st.integers(1, 1 << 40),
    )
    def test_unreduced_terms_give_the_reduced_answer(self, a, b, j, k):
        lo, hi = min(a, b), max(a, b)
        p, q = _simplest(
            lo.numerator * j, lo.denominator * j, hi.numerator * k, hi.denominator * k
        )
        assert q > 0 and math.gcd(p, q) == 1
        assert Q(p, q) == refroots.simplest_rational_in(lo, hi)


@st.composite
def irrational_quadratics(draw):
    """a * ((x - v)**2 - D) with D > 0 not a rational square, and B**2 > D."""
    a = draw(st.fractions(-20, 20, max_denominator=50).filter(bool))
    v = draw(st.fractions(-100, 100, max_denominator=10**4))
    n, m = draw(st.integers(1, 10**6)), draw(st.integers(1, 1000))
    assume(math.isqrt(n * m) ** 2 != n * m)
    d = Q(n, m)
    poly = PolyValue((a * (v * v - d), -2 * a * v, a))
    return poly, v, Q(math.isqrt(math.ceil(d)) + 1)


class TestBisectRoot:
    @given(irrational_quadratics(), st.integers(1, 10**6), st.integers(0, 64))
    @settings(max_examples=150, deadline=None)
    def test_brackets_match_the_fraction_loop(self, quad, u_r, k):
        poly, v, b = quad
        width = Q(u_r, 1 << k)
        for lo, hi in ((v - b, v), (v, v + b)):
            got = _bisect_root(poly, lo, hi, width)
            assert got == refroots.bisect_root(poly, lo, hi, width)
            assert not got.is_exact and got.hi - got.lo <= width
            assert (poly.eval(got.lo) < 0) != (poly.eval(got.hi) < 0)

    @given(irrational_quadratics())
    @settings(max_examples=50, deadline=None)
    def test_poly_roots_keeps_its_brackets(self, quad):
        poly, v, b = quad
        c0, c1, c2 = poly.coeffs
        # The closed form's brackets: the vertex, plus or minus a bound on
        # the half-width sqrt(disc) / (2|c2|).
        disc = c1 * c1 - 4 * c2 * c0
        p, q = disc.numerator, disc.denominator
        half = Q(math.isqrt(p * q) + 1, q) / (2 * abs(c2))
        width = (2 * b) / (1 << 64)
        want = [
            refroots.bisect_root(poly, v - half, v, width),
            refroots.bisect_root(poly, v, v + half, width),
        ]
        assert poly_roots(poly, v - b, v + b, width) == want

    @given(
        irrational_quadratics(),
        st.lists(st.fractions(-200, 200), min_size=2, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_memo_keeps_every_answer(self, quad, ends):
        poly, _, _ = quad
        width = Q(1, 1 << 40)
        memo = {}
        for lo, hi in zip(ends, ends[1:]):
            lo, hi = min(lo, hi), max(lo, hi)
            want = poly_roots(poly, lo, hi, width)
            assert poly_roots(poly, lo, hi, width, memo) == want
        # The closed form, and one bracket per side at most, whatever the
        # boxes asked.
        assert set(memo) <= {(poly, width), (poly, width, 0), (poly, width, 1)}

    def test_probe_on_a_rational_root_is_exact(self):
        # (3x - 2)(x^2 + 1): the first probe 1/2 moves lo, the second is 2/3.
        p = PolyValue((Q(-2), Q(3), Q(-2), Q(3)))
        got = _bisect_root(p, Q(0), Q(1), Q(1, 1 << 64))
        assert got == Root.exact(Q(2, 3))
        assert got == refroots.bisect_root(p, Q(0), Q(1), Q(1, 1 << 64))

    def test_bracket_without_a_sign_change_rejected(self):
        p = PolyValue((Q(-2), Q(0), Q(1)))
        with pytest.raises(InternalError):
            _bisect_root(p, Q(2), Q(3), Q(1, 1000))
        with pytest.raises(InternalError):
            # An end on the root is no strict sign change either.
            _bisect_root(PolyValue((Q(-4), Q(0), Q(1))), Q(0), Q(2), Q(1, 1000))


class TestDeviationFn:
    def test_constant_shift(self):
        d = DeviationFn.constant_shift(3)
        assert d(Q(5)) == 8
        assert d.is_constant_shift
        assert d.shift_amount() == 3
        assert d.is_concave
        assert d.derivative_at(Q(7)) == 1

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            DeviationFn.constant_shift(-1)

    def test_affine(self):
        d = DeviationFn.affine(2, 1)
        assert d(Q(3)) == 7
        assert not d.is_constant_shift
        assert d.derivative_at(Q(0)) == 2

    def test_affine_slope_below_one_rejected(self):
        with pytest.raises(ValueError):
            DeviationFn.affine(Q(1, 2), 5)

    def test_convex_polynomial_not_concave(self):
        d = DeviationFn.polynomial((1, 0, 2))  # 2x^2 + 1
        assert not d.is_concave
        assert d(Q(2)) == 9
        d.validate_on(Q(0), Q(10))

    def test_concave_polynomial(self):
        # x + x*(10 - x)/10 is monotone and >= x on [0, 5]
        d = DeviationFn.polynomial((0, 2, Q(-1, 10)))
        assert d.is_concave
        d.validate_on(Q(0), Q(5))

    def test_validate_rejects_decreasing(self):
        d = DeviationFn.polynomial((0, 2, Q(-1, 10)))
        # derivative 2 - x/5 turns negative past x=10
        with pytest.raises(ValueError):
            d.validate_on(Q(0), Q(20))

    def test_validate_rejects_below_identity(self):
        d = DeviationFn.polynomial((Q(1), Q(1, 2)))  # x/2 + 1 < x past x=2
        with pytest.raises(ValueError):
            d.validate_on(Q(0), Q(10))

    @pytest.mark.parametrize(
        "coeffs, error",
        [
            ((Q(0), 1), None),
            ((Q(5, 3), 1), None),
            ((Q(-1, 2), 1), "deviation below identity at x=0"),
            ((Q(-1, 2), 1, 0), "deviation below identity at x=0"),
        ],
    )
    def test_validate_shifts(self, coeffs, error):
        # Shifts x + c with c >= 0 pass; a negative c fails at the left end.
        d = DeviationFn.polynomial(coeffs)
        assert d.is_constant_shift
        if error is None:
            d.validate_on(Q(0), Q(10))
        else:
            with pytest.raises(ValueError, match=error):
                d.validate_on(Q(0), Q(10))
        with pytest.raises(ValueError, match="empty domain"):
            d.validate_on(Q(2), Q(1))

    @given(st.fractions(min_value=0, max_value=20, max_denominator=8))
    def test_shift_dominates_identity(self, x):
        d = DeviationFn.constant_shift(Q(5, 3))
        assert d(x) == x + Q(5, 3)

    @given(
        st.sampled_from(["shift", "affine", "quadratic"]),
        st.fractions(min_value=0, max_value=9, max_denominator=12),
        st.fractions(min_value=1, max_value=4, max_denominator=6),
        st.fractions(min_value=-1, max_value=0, max_denominator=16),
        st.fractions(min_value=-20, max_value=20, max_denominator=30),
    )
    def test_fast_paths_match_the_polynomial(self, shape, c, slope, curve, x):
        if shape == "shift":
            d = DeviationFn.constant_shift(c)
        elif shape == "affine":
            d = DeviationFn.affine(slope, c)
        else:
            d = DeviationFn.polynomial((c, slope, curve))
            assert d.is_concave
        assert d(x) == d.poly.eval(x)
        assert d.derivative_at(x) == d.poly.derivative().eval(x)
        assert type(d(x)) is Q and type(d.derivative_at(x)) is Q
        assert d(int(c)) == d.poly.eval(Q(int(c)))

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-2, max_value=3, max_denominator=4),
        st.fractions(min_value=0, max_value=6, max_denominator=3),
        st.fractions(min_value=0, max_value=6, max_denominator=3),
    )
    def test_line_validation_matches_the_general_check(self, c0, c1, a, b):
        # Degree <= 1 shapes are checked on their endpoints through the
        # (slope, intercept) pair; the general check tests the derivative
        # and Delta(x) - x at the endpoints and interior extreme points.
        assume((c0, c1) != (0, 0))
        d = DeviationFn.polynomial((c0, c1))
        lo, hi = min(a, b), max(a, b)
        deriv = d.poly.derivative()
        gap = d.poly - PolyValue((Q(0), Q(1)))
        want = None
        for what, where, f in (
            ("not monotone", deriv, deriv),
            ("below identity", gap.derivative(), gap),
        ):
            bad = [x for x in DeviationFn._extreme_points(where, lo, hi) if f.eval(x) < 0]
            if bad:
                want = f"deviation {what} at x={bad[0]}"
                break
        try:
            d.validate_on(lo, hi)
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None

    def test_equality_and_hash(self):
        a = DeviationFn.constant_shift(1)
        b = DeviationFn.constant_shift(1)
        c = DeviationFn.affine(1, 1)
        assert a == b and hash(a) == hash(b)
        assert a != c  # same polynomial, different declared shape


def test_root_midpoint_and_exact():
    r = Root.exact(Q(5, 2))
    assert r.is_exact and r.value == Q(5, 2) and r.midpoint() == Q(5, 2)
    b = Root(Q(1), Q(2))
    assert not b.is_exact
    with pytest.raises(ValueError):
        _ = b.value
