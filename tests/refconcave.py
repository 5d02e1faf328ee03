"""Bisection reference for the concave solver's feasible edge, for tests.

`feasible_edge` is how `aemflow.concave` found the right end of the
feasible interval before it took that end from the slice's deficiency
walk: a bisection by thirds down to width `tol`, snapped to the simplest
rational in the last bracket when that is feasible.  Where the end is
rational the walk must return exactly the same value.
"""

from fractions import Fraction

from aemflow.errors import require
from aemflow.values import simplest_rational_in

_ZERO = Fraction(0)


def feasible_edge(val, top: Fraction, tol: Fraction) -> Fraction:
    """Largest known-feasible parameter in [0, top], to width tol."""
    if val(top) is not None:
        return top
    lo, hi = _ZERO, top
    require(val(lo) is not None, "the zero parameter must be feasible")
    while hi - lo > tol:
        w = hi - lo
        mid = simplest_rational_in(lo + w / 3, hi - w / 3)
        if val(mid) is None:
            hi = mid
        else:
            lo = mid
    snap = simplest_rational_in(lo, hi)
    if snap != lo and val(snap) is not None:
        lo = snap
    return lo
