"""Exact breakpoint structure of the one-parameter value function.

For a single homologous set with a constant-shift deviation, the value
function F is concave and piecewise linear on its feasible interval, with
integer segment slopes.  This module returns every breakpoint, value and
slope exactly.

Each F sample's min cut prices two lines through the sample: its capacity
g_S with the one-sided slopes of the report.  g_S is concave and at least
F, so both lines lie above F everywhere.  The pieces come from the
Eisner–Severance recursion (JACM 1976) on those lines.  On [a, b], cross
a's right line A with b's left line B at c.  Equal slopes make F's chord
from a to b one of the lines, so F is linear on [a, b].  F(c) on both
lines proves F = A on [a, c] and F = B on [c, b], since a concave F that
meets an upper line at two points follows it between them.  Otherwise
recurse on [a, c] and [c, b]; adjacent pieces of equal slope are merged
at the end.

The recursion depth is derived from the slopes.  A cut's one-sided slope
live - back is an integer in [-|S|, |S|], so the gap between the slopes
of A and B is at most 2|S|.  On a split, F(c) lies below both lines.
c's left line meets F at c, below B, and stays above F(b) = B(b), so it
rises faster than B; c's right line falls below A by the same argument
at a.  Each child's gap is therefore strictly smaller, and a gap of zero
ends the recursion, so it is at most 2|S| deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedDeviation, ValidationError, require
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
    # The widest slope gap, 2|S|, caps the depth; slopes take gap + 1 values.
    gap = 2 * len(inst.sets[0].edges)

    # Pieces as (right end, slope), found left to right: the stack holds
    # the intervals still to split, leftmost on top.
    pieces: list[tuple[Fraction, Fraction]] = []
    todo = [(af, bf, 0)] if af < bf else []
    while todo:
        a, b, depth = todo.pop()
        require(depth <= gap, "profile recursion passed its slope-gap depth")
        sa, sb = sl.sample(a), sl.sample(b)
        fa, ra = sa.value, sa.report.right_slope(0, a)
        fb, lb = sb.value, sb.report.left_slope(0, b)
        if ra == lb:
            pieces.append((b, ra))
            continue
        require(ra > lb, "cut lines are not concave across the interval")
        c = (fb - lb * b - fa + ra * a) / (ra - lb)
        if sl.sample(c).value == fa + ra * (c - a):
            if a < c:
                pieces.append((c, ra))
            if c < b:
                pieces.append((b, lb))
            continue
        todo += [(c, b, depth + 1), (a, c, depth + 1)]
    pts, slopes = [af], []
    for end, sgm in pieces:
        if slopes and slopes[-1] == sgm:
            pts[-1] = end
        else:
            pts.append(end)
            slopes.append(sgm)
    require(all(a > b for a, b in zip(slopes, slopes[1:])), "slopes must fall")
    require(len(slopes) <= gap + 1, "more pieces than distinct cut slopes")
    vals = [sl.sample(x).value for x in pts]
    argmax = next((x for x, sgm in zip(pts, slopes) if sgm <= 0), pts[-1])
    opt = vals[pts.index(argmax)]
    return BreakpointProfile(tuple(pts), tuple(vals), tuple(slopes), argmax, opt)
