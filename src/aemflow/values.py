"""Symbolic values carried through parameter-dependent computations.

`Slice.solve` simulates a flow algorithm on a network whose bounds
depend on one unknown parameter, the optimum, and only affine deviations
reach it.  Flow amounts and residual capacities are then degree-one
polynomials in that parameter, :class:`PolyValue`, with exact rational
coefficients.  Flow updates only ever add, subtract and scale, so the
domain is closed under everything the simulation does.  Deviations, and
the clamp-frozen cut supports that the concave solver and the deficiency
walk take roots of, are PolyValues of the deviation's degree.

Every branch of such a simulation asks for the sign of a polynomial at
the unknown optimum, and every answer is an :class:`Order`.  The same
type says where the optimum lies relative to a query point: LESS when
it is below the point, EQUAL when it is the point, GREATER when above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import require

__all__ = [
    "Order",
    "PolyValue",
    "Root",
    "DeviationFn",
    "poly_roots",
    "simplest_rational_in",
]

_ZERO = Fraction(0)


class Order(enum.Enum):
    """Outcome of an exact comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True)
class PolyValue:
    """A univariate polynomial with rational coefficients, low degree.

    ``coeffs[i]`` multiplies ``x**i``.  Trailing zero coefficients are
    normalised away so equal polynomials compare equal.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [_as_fraction(c) for c in self.coeffs]
        object.__setattr__(self, "coeffs", _trimmed(cs))

    @staticmethod
    def constant(value) -> "PolyValue":
        return PolyValue((_as_fraction(value),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "PolyValue") -> "PolyValue":
        cs = list(self.coeffs) + [_ZERO] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return _poly(cs)

    def __sub__(self, other: "PolyValue") -> "PolyValue":
        cs = list(self.coeffs) + [_ZERO] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            cs[i] -= c
        return _poly(cs)

    def __neg__(self) -> "PolyValue":
        return _poly([-c for c in self.coeffs])

    def scale(self, factor) -> "PolyValue":
        f = _as_fraction(factor)
        return _poly([c * f for c in self.coeffs])

    def eval(self, x: Fraction) -> Fraction:
        cs = self.coeffs
        if not cs:
            return _ZERO
        total = cs[-1]
        for c in cs[-2::-1]:
            total = total * x + c
        return total

    def derivative(self) -> "PolyValue":
        return _poly([i * c for i, c in enumerate(self.coeffs) if i])

    def is_zero(self) -> bool:
        return not self.coeffs


def _trimmed(cs: list[Fraction]) -> tuple[Fraction, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _poly(cs: list[Fraction]) -> PolyValue:
    """A PolyValue from coefficients that are Fractions already."""
    out = object.__new__(PolyValue)
    object.__setattr__(out, "coeffs", _trimmed(cs))
    return out


@dataclass(frozen=True)
class Root:
    """A real root location: exact rational, or an isolating bracket.

    For a bracketed root the polynomial has strictly opposite signs at
    ``lo`` and ``hi`` and exactly one root in between.
    """

    lo: Fraction
    hi: Fraction

    @staticmethod
    def exact(value: Fraction) -> "Root":
        return Root(value, value)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("root is not exact")
        return self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _simplest(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(p, q) of the simplest rational in [an/ad, bn/bd]; ad, bd > 0, nonempty.

    The continued fraction of the answer, built on integers: while no
    integer fits, peel off f = floor(a) and map the interval through
    t -> 1/(t - f), which flips it, extending the convergents p/q by f.
    """
    p0, p1, q0, q1 = 0, 1, 1, 0
    while True:
        c = -(-an // ad)
        if c * bd <= bn:
            return c * p1 + p0, c * q1 + q0
        f = c - 1  # floor(a): a is not an integer, or c would fit
        p0, p1, q0, q1 = p1, f * p1 + p0, q1, f * q1 + q0
        an, ad, bn, bd = bd, bn - f * bd, ad, an - f * ad


def simplest_rational_in(lo, hi) -> Fraction:
    """The smallest-denominator rational in [lo, hi], smallest value on ties.

    Computed on integers by :func:`_simplest`: the smallest integer in the
    interval if there is one, else floor(lo) plus the reciprocal of the
    simplest rational in the flipped interval [1/(hi - f), 1/(lo - f)].
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    p, q = _simplest(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return Fraction(p, q)


def _sqrt_exact(x: Fraction) -> Fraction | None:
    """Rational square root of `x`, or None when irrational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def _bisect_root(poly: PolyValue, lo: Fraction, hi: Fraction, width: Fraction) -> Root:
    """Shrink a strict sign-change bracket below `width`.

    Probes at the simplest rational in the middle third, not the exact
    midpoint: endpoint denominators then stay near 1/width instead of
    doubling every step, which matters when callers evaluate the bracket
    ends many times afterwards.

    The loop runs on integers.  Bracket ends are (num, den) pairs, the
    width test cross-multiplies, the probe is :func:`_simplest` of the
    middle third over the common denominator 3*ld*hd, and its sign is read
    from the polynomial with denominators cleared, evaluated homogeneously
    as sum c_i * p**i * q**(deg - i), which has the sign of poly(p/q)
    because q > 0.
    """
    flo, fhi = poly.eval(lo), poly.eval(hi)
    require(
        flo != 0 and fhi != 0 and (flo < 0) != (fhi < 0),
        "root bracket has no strict sign change",
    )
    neg_left = flo < 0
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    cs = [c.numerator * (den // c.denominator) for c in poly.coeffs]
    top, rest = cs[-1], cs[-2::-1]
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    wn, wd = width.numerator, width.denominator
    while (hn * ld - ln * hd) * wd > wn * ld * hd:
        d3 = 3 * ld * hd
        p, q = _simplest(2 * ln * hd + hn * ld, d3, ln * hd + 2 * hn * ld, d3)
        s, qk = top, 1
        for c in rest:
            qk *= q
            s = s * p + c * qk
        if s == 0:
            return Root.exact(Fraction(p, q))
        if (s < 0) == neg_left:
            ln, ld = p, q
        else:
            hn, hd = p, q
    return Root(Fraction(ln, ld), Fraction(hn, hd))


def _quadratic_form(
    poly: PolyValue,
) -> tuple[list[Root], list[tuple[Fraction, Fraction]]]:
    """A quadratic's roots in closed form: (exact roots, irrational brackets).

    One list is empty.  An irrational pair lies symmetric about the vertex,
    so an upper bound on the half-width sqrt(disc)/(2|c2|) gives a strict
    sign-change bracket on each side, left one first.
    """
    c0 = poly.coeffs[0] if len(poly.coeffs) > 0 else _ZERO
    c1 = poly.coeffs[1] if len(poly.coeffs) > 1 else _ZERO
    c2 = poly.coeffs[2]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return [], []
    vertex = -c1 / (2 * c2)
    if disc == 0:
        return [Root.exact(vertex)], []
    s = _sqrt_exact(disc)
    if s is not None:
        r1 = (-c1 - s) / (2 * c2)
        r2 = (-c1 + s) / (2 * c2)
        return sorted([Root.exact(r1), Root.exact(r2)], key=lambda r: r.lo), []
    p, q = disc.numerator, disc.denominator
    s_hi = Fraction(math.isqrt(p * q) + 1, q)
    half = s_hi / (2 * abs(c2))
    return [], [(vertex - half, vertex), (vertex, vertex + half)]


def _quadratic_roots(
    poly: PolyValue, width: Fraction, lo: Fraction, hi: Fraction, memo: dict
) -> list[Root]:
    # The closed form does not depend on [lo, hi]: it is kept in the memo
    # under (poly, width), and each bisected bracket under (poly, width,
    # side).  Bisection only shrinks a bracket, so one that misses [lo, hi]
    # is dropped unrefined.
    key = (poly, width)
    if key not in memo:
        memo[key] = _quadratic_form(poly)
    exact, brackets = memo[key]
    out = list(exact)
    for side, (a, b) in enumerate(brackets):
        if b < lo or a > hi:
            continue
        at = (poly, width, side)
        if at not in memo:
            memo[at] = _bisect_root(poly, a, b, width)
        out.append(memo[at])
    return out


def _highdeg_roots(poly: PolyValue, width: Fraction) -> list[Root]:
    # Degrees above two fall back to exact isolation from sympy; the rest of
    # the library only needs brackets with rational endpoints.
    from sympy import Poly, Rational, Symbol

    x = Symbol("x")
    coeffs = [Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    sp = Poly(coeffs, x)
    out: list[Root] = []
    for (a, b), _mult in sp.intervals(eps=Rational(width.numerator, width.denominator)):
        lo = Fraction(a.p, a.q)
        hi = Fraction(b.p, b.q)
        if lo == hi:
            out.append(Root.exact(lo))
        else:
            # sympy brackets may touch a root at an endpoint; nudge to a
            # strict sign change so downstream bisection stays valid.
            if poly.eval(lo) == 0:
                out.append(Root.exact(lo))
            elif poly.eval(hi) == 0:
                out.append(Root.exact(hi))
            else:
                out.append(Root(lo, hi))
    out.sort(key=lambda r: r.lo)
    return out


def poly_roots(
    poly: PolyValue,
    lo: Fraction,
    hi: Fraction,
    width: Fraction | None = None,
    memo: dict | None = None,
) -> list[Root]:
    """All real roots of `poly` inside ``[lo, hi]``, sorted, deduplicated.

    Roots of degree <= 2 polynomials are produced in closed form and are
    exact whenever they are rational.  Irrational roots come back as
    brackets no wider than `width`, by default ``2**-64 * (hi - lo)``.
    Callers that re-query the same polynomial on ever smaller intervals
    should pass an absolute `width`, or the interval-relative default
    makes each answer finer than the last for no gain.

    A quadratic's closed form and its irrational brackets do not depend on
    the interval, so a caller may pass a `memo` dict.  It keeps the closed
    form under (poly, width) and each bisected bracket under (poly, width,
    side), so both are derived once for all the intervals asked.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if poly.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    deg = poly.degree
    if width is None:
        width = (hi - lo) / (1 << 64)
    if width <= 0:
        width = Fraction(1, 1 << 64)
    if deg == 0:
        return []
    if deg == 1:
        r = -poly.coeffs[0] / poly.coeffs[1]
        roots = [Root.exact(r)]
    elif deg == 2:
        roots = _quadratic_roots(poly, width, lo, hi, {} if memo is None else memo)
    else:
        roots = _highdeg_roots(poly, width)
    picked: list[Root] = []
    for r in roots:
        if r.hi < lo or r.lo > hi:
            continue
        if r.is_exact or lo <= r.lo and r.hi <= hi:
            picked.append(r)
            continue
        # A bracket protruding past the interval holds its one root inside
        # only if the sign still changes across the clipped part, or if a
        # clipped end is the root itself.
        a, b = max(r.lo, lo), min(r.hi, hi)
        fa, fb = poly.eval(a), poly.eval(b)
        if fa == 0 or fb == 0:
            picked.append(Root.exact(a if fa == 0 else b))
        elif (fa < 0) != (fb < 0):
            picked.append(Root(a, b))
    return picked


class DeviationFn:
    """A monotone deviation bound Delta applied to a homologous edge set.

    The set's minimum flow value f_min constrains every member flow to lie
    within ``[f_min, Delta(f_min)]``.  Three shapes are supported:

    * ``constant_shift(c)``:   Delta(x) = x + c
    * ``affine(slope, intercept)``:  Delta(x) = slope*x + intercept
    * ``polynomial(coeffs)``:  rational-coefficient polynomial, low degree

    Construction checks only shape-local conditions (slope >= 1, c >= 0).
    Domain conditions, Delta monotone and Delta(x) >= x on [0, u_R], depend
    on the instance and are checked via :meth:`validate_on`.
    """

    __slots__ = ("poly", "kind", "_line", "_deriv")

    KIND_SHIFT = "shift"
    KIND_AFFINE = "affine"
    KIND_POLY = "poly"

    def __init__(self, poly: PolyValue, kind: str):
        self.poly = poly
        self.kind = kind
        self._deriv = poly.derivative()
        # (slope, intercept) of a degree <= 1 shape, evaluated without
        # Horner; the slope is None for a plain shift x + c.
        self._line = None
        if poly.degree <= 1:
            c0, c1 = (*poly.coeffs, _ZERO, _ZERO)[:2]
            self._line = (None if c1 == 1 else c1, c0)

    @staticmethod
    def constant_shift(c) -> "DeviationFn":
        c = _as_fraction(c)
        if c < 0:
            raise ValueError("constant shift must be nonnegative")
        return DeviationFn(PolyValue((c, Fraction(1))), DeviationFn.KIND_SHIFT)

    @staticmethod
    def affine(slope, intercept=0) -> "DeviationFn":
        slope = _as_fraction(slope)
        intercept = _as_fraction(intercept)
        if slope < 1:
            raise ValueError("affine deviation needs slope >= 1")
        if intercept < 0:
            raise ValueError("affine deviation needs intercept >= 0")
        return DeviationFn(PolyValue((intercept, slope)), DeviationFn.KIND_AFFINE)

    @staticmethod
    def polynomial(coeffs) -> "DeviationFn":
        poly = PolyValue(tuple(coeffs))
        if poly.degree < 0:
            raise ValueError("empty polynomial")
        return DeviationFn(poly, DeviationFn.KIND_POLY)

    def __call__(self, x: Fraction) -> Fraction:
        if self._line is None:
            return self.poly.eval(x)
        slope, intercept = self._line
        return (x if slope is None else slope * x) + intercept

    def derivative_at(self, x: Fraction) -> Fraction:
        return self._deriv.eval(x)

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def is_constant_shift(self) -> bool:
        return self.poly.degree == 1 and self.poly.coeffs[1] == 1

    @property
    def is_concave(self) -> bool:
        """True when the shape is concave (certificate: no positive curvature)."""
        if self.poly.degree <= 1:
            return True
        if self.poly.degree == 2:
            return self.poly.coeffs[2] <= 0
        # Higher degrees: concave on the half-line only if curvature never
        # turns positive; checked conservatively on the second derivative's
        # coefficients (sufficient for the shapes generators emit).
        second = self._deriv.derivative()
        return all(c <= 0 for c in second.coeffs)

    def shift_amount(self) -> Fraction:
        if not self.is_constant_shift:
            raise ValueError("not a constant shift")
        return self.poly.coeffs[0]

    def validate_on(self, lo: Fraction, hi: Fraction) -> None:
        """Check Delta monotone nondecreasing and Delta(x) >= x on [lo, hi].

        Raises ValueError when either fails.  A degree <= 1 shape is a line,
        so its slope and its values at lo and hi settle both checks; they
        are read from the (slope, intercept) pair that ``__call__`` uses.
        Higher degrees are checked at the endpoints and at every interior
        root of the relevant derivative, which for degree 2 is the vertex.
        """
        lo = _as_fraction(lo)
        hi = _as_fraction(hi)
        if hi < lo:
            raise ValueError("empty domain")
        if self._line is not None:
            slope = self._line[0]
            if slope is not None and slope < 0:
                raise ValueError(f"deviation not monotone at x={lo}")
            for x in (lo, hi):
                if self(x) < x:
                    raise ValueError(f"deviation below identity at x={x}")
            return
        deriv = self._deriv
        for x in self._extreme_points(deriv, lo, hi):
            if deriv.eval(x) < 0:
                raise ValueError(f"deviation not monotone at x={x}")
        gap = self.poly - PolyValue((Fraction(0), Fraction(1)))
        for x in self._extreme_points(gap.derivative(), lo, hi):
            if gap.eval(x) < 0:
                raise ValueError(f"deviation below identity at x={x}")

    @staticmethod
    def _extreme_points(deriv: PolyValue, lo: Fraction, hi: Fraction) -> list[Fraction]:
        pts = [lo, hi]
        if deriv.degree >= 1:
            for root in poly_roots(deriv, lo, hi):
                pts.append(root.midpoint())
        return pts

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DeviationFn)
            and self.kind == other.kind
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.poly))

    def __repr__(self) -> str:
        return f"DeviationFn({self.kind}, {list(self.poly.coeffs)})"
