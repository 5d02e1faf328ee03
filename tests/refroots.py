"""Fraction references for the integer root isolation in `aemflow.values`, for tests.

`simplest_rational_in` recurses on the continued fraction in `Fraction`
arithmetic, and `bisect_root` shrinks a sign-change bracket with
`Fraction` probes.  `aemflow.values` computes both on integers and must
return exactly the same values and brackets.
"""

import math
from fractions import Fraction

from aemflow.values import Root


def simplest_rational_in(lo, hi) -> Fraction:
    """The smallest-denominator rational in [lo, hi], smallest value on ties."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if math.ceil(lo) <= math.floor(hi):
        return Fraction(math.ceil(lo))
    a = math.floor(lo)
    return a + 1 / simplest_rational_in(1 / (hi - a), 1 / (lo - a))


def bisect_root(poly, lo: Fraction, hi: Fraction, width: Fraction) -> Root:
    """Shrink a strict sign-change bracket below `width`, probing at the
    simplest rational in the middle third."""
    flo, fhi = poly.eval(lo), poly.eval(hi)
    if flo == 0 or fhi == 0 or (flo < 0) == (fhi < 0):
        raise ValueError("root bracket has no strict sign change")
    neg_left = flo < 0
    while hi - lo > width:
        w = hi - lo
        mid = simplest_rational_in(lo + w / 3, hi - w / 3)
        fm = poly.eval(mid)
        if fm == 0:
            return Root.exact(mid)
        if (fm < 0) == neg_left:
            lo = mid
        else:
            hi = mid
    return Root(lo, hi)
