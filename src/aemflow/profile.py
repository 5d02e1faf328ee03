"""Exact breakpoint structure of the one-parameter value function.

For a single homologous set with a constant-shift deviation, the value
function F is concave and piecewise linear on its feasible interval, with
integer segment slopes.  This module walks the pieces left to right and
returns every breakpoint, value and slope exactly.

The walk needs two exact subroutines.  The slope of the piece starting at
a point comes from a certified right probe: a chord to a nearby sample
whose cut reproduces the chord slope as its own one-sided slope, which
proves F linear across the window.  The end of the piece comes from a
shrinking iteration: extend the piece's line L, test a candidate y, and
while F(y) sits strictly below L(y) replace y with the intersection of L
and the tangent line of y's min cut.  The tangent lies above F everywhere,
so candidates never undershoot the true breakpoint and the iteration lands
on it exactly after finitely many cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, UnsupportedDeviation, ValidationError, require
from .instance import Instance
from .parametric import Slice

__all__ = ["BreakpointProfile", "breakpoint_profile"]


@dataclass(frozen=True)
class BreakpointProfile:
    """Piecewise-linear description of F over the feasible interval.

    ``breakpoints`` lists the interval endpoints and every kink between
    them in increasing order; ``values`` holds F there; ``segment_slopes``
    has one entry per consecutive pair.  ``argmax`` is the smallest
    maximizer of F.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    segment_slopes: tuple[Fraction, ...]
    argmax: Fraction
    opt_value: Fraction

    @property
    def segments(self) -> int:
        return len(self.segment_slopes)


def _certified_right_slope(sl: Slice, x: Fraction, bf: Fraction) -> Fraction:
    fx = sl.sample(x)
    for eps in sl.probe_widths(x, bf - x):
        _, chord, certified = sl.probe(x, fx, x + eps)
        if certified:
            return chord


def _piece_end(sl: Slice, x: Fraction, sigma: Fraction, bf: Fraction) -> Fraction:
    fx = sl.sample(x).value
    y = bf
    for _ in range(200):
        sy = sl.sample(y)
        if sy.value == fx + sigma * (y - x):
            return y
        m = sy.report.left_slope(sl.free, y)
        # Tangent of the cut at y stays above F, the piece line stays
        # above F too, so their crossing brackets the breakpoint from the
        # right and strictly improves y.
        require(m < sigma, "cut tangent does not fall below the piece slope")
        y_new = (sy.value - m * y - fx + sigma * x) / (sigma - m)
        require(x < y_new < y, "breakpoint candidate left its bracket")
        y = y_new
    raise InternalError("piece end search failed to converge")


def breakpoint_profile(inst: Instance) -> BreakpointProfile:
    """All breakpoints of F for a one-set, constant-shift instance."""
    if inst.k != 1:
        raise ValidationError("breakpoint profile expects exactly one homologous set")
    if not inst.sets[0].deviation.is_constant_shift:
        raise UnsupportedDeviation(
            "breakpoint profile needs a constant-shift deviation"
        )
    sl = Slice(inst, 0, {})
    af, bf = sl.feasible_interval()
    require(af == 0, "zero is always routable with a single set")
    pts = [Fraction(0)]
    vals = [sl.sample(Fraction(0)).value]
    slopes: list[Fraction] = []
    x = Fraction(0)
    limit = 2 * inst.m + 4
    while x < bf:
        require(len(slopes) <= limit, "more pieces than cuts can produce")
        sigma = _certified_right_slope(sl, x, bf)
        end = _piece_end(sl, x, sigma, bf)
        slopes.append(sigma)
        pts.append(end)
        vals.append(sl.sample(end).value)
        x = end
    require(all(a > b for a, b in zip(slopes, slopes[1:])), "slopes must fall")
    argmax = pts[-1]
    for i, sgm in enumerate(slopes):
        if sgm <= 0:
            argmax = pts[i]
            break
    opt = vals[pts.index(argmax)]
    return BreakpointProfile(tuple(pts), tuple(vals), tuple(slopes), argmax, opt)
