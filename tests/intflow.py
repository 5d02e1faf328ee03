"""Rational bounds in and out of the integer max-flow core, for tests.

Arcs are (tail, head, lower, upper) with rational bounds.  They are scaled
by the lcm d of every bound denominator, the core runs in units of 1/d,
and its value and flows come back as `Fraction`s.
"""

from fractions import Fraction
from math import lcm

from aemflow.maxflow import bounded_max_flow_int, deficiency_int


def scaled(arcs):
    """Pairs, d, and the lower and upper bounds times d."""
    bounds = [(Fraction(a[2]), Fraction(a[3])) for a in arcs]
    d = lcm(*(x.denominator for b in bounds for x in b))
    lowers = [int(lo * d) for lo, _ in bounds]
    uppers = [int(up * d) for _, up in bounds]
    return [(a[0], a[1]) for a in arcs], d, lowers, uppers


def bounded_flow(n, arcs, s=0, t=1):
    """(value, flows, s side of a min cut); raises Infeasible like the core."""
    pairs, d, lowers, uppers = scaled(arcs)
    value, flows, side = bounded_max_flow_int(n, pairs, s, t, lowers, uppers, d)
    return Fraction(value, d), tuple(Fraction(f, d) for f in flows), side


def deficiency(n, arcs, s=0, t=1):
    pairs, d, lowers, uppers = scaled(arcs)
    return deficiency_int(n, pairs, s, t, lowers, uppers, d)
