"""Exact maximization over constant-shift sets.

One set is the exact one-parameter slice solver.  Two sets use nested
search: F is jointly concave over the convex feasible region, so
maximizing out the second parameter leaves a concave univariate function
h of the first, whose smallest maximizer is the first coordinate of the
lexicographically smallest optimum.

* Each probe x of h is the slice solver on the second set with the first
  pinned to x.  An empty slice counts as minus infinity; the feasible
  projection is an interval that starts at zero, because the all-zero
  point is always feasible.
* A probe-pair search on h narrows a bracket that always contains the
  smallest maximizer.  Equal probe values are disambiguated with one
  midpoint sample: a strictly larger midpoint means the peak is inside,
  an equal one means the bracket sits on the flat top and the maximizer
  is at or left of the first probe.

The bracket never needs to shrink to a point.  Every candidate optimum is
a rational whose denominator is bounded by the instance data (it solves a
small integer-slope linear system), so once the bracket is shorter than
the minimal spacing to the simplest rational inside it, that rational is
the optimum exactly.  A final pair of verification probes checks the
one-sided optimality conditions.

Under ``solve_k_constant``'s default method three or more sets go to
the exact simplex in ``lp``; nested search refuses them.  The
``master`` method, which ``aemflow solve`` runs, finds the optimum at
every k on the cutting-plane master in ``lp`` instead.

Integer optima take no fractional solve: branch-and-bound on the same
master finds them at every k.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm

from .errors import Infeasible, UnsupportedDeviation, ValidationError, require
from .instance import FEvaluator, HomologousSet, Instance, SolveResult
from .parametric import Slice, SliceOpt
from .values import DeviationFn, simplest_rational_in

__all__ = [
    "solve_k_constant",
    "solve_integer_constant",
]


def _lattice_bound(inst: Instance) -> int:
    """Denominator bound for optimum coordinates of a two-set instance.

    Candidates solve 2x2 linear systems whose rows are cut or deficiency
    slopes, bounded per set by twice the member count, with data scaled by
    the common denominator.  Hadamard-style overcounting is fine here: the
    bound only steers how far brackets shrink.
    """
    coeffs = [c for hs in inst.sets for c in hs.deviation.poly.coeffs]
    d = lcm(inst.template.den, *(c.denominator for c in coeffs))
    b = 2 * d * d
    for hs in inst.sets:
        b *= 2 * max(1, len(hs.edges))
    return b


def _pin_solve(inst: Instance, ev: FEvaluator) -> tuple[tuple[Fraction, ...], Fraction]:
    """Lexicographically smallest optimum of a two-set instance, and its value.

    Searches the first coordinate x; each probe solves the second set's
    slice with the first pinned to x.
    """
    bound = _lattice_bound(inst)
    cache: dict[Fraction, SliceOpt | None] = {}

    def hval(x: Fraction) -> SliceOpt | None:
        if x not in cache:
            try:
                cache[x] = Slice(inst, 1, {0: x}, ev).solve()
            except Infeasible:
                cache[x] = None
        return cache[x]

    p, q = Fraction(0), inst.u_R(0)
    while True:
        r = simplest_rational_in(p, q)
        if q - p < Fraction(1, bound * r.denominator):
            break
        w = (q - p) / 3
        # Snapping probes to simple rationals keeps the pinned value's
        # denominator, and so the slice arithmetic, small.  Any strictly
        # interior probe pair works for the narrowing arguments.
        x1 = simplest_rational_in(p + 2 * w / 3, p + 4 * w / 3)
        x2 = simplest_rational_in(q - 4 * w / 3, q - 2 * w / 3)
        require(p < x1 < x2 < q, "probes must sit strictly inside the bracket")
        r1, r2 = hval(x1), hval(x2)
        if r1 is None:
            # The feasible projection starts at zero, so it ends before x1.
            require(r2 is None, "feasible projection must start at zero")
            q = x1
            continue
        if r2 is None:
            q = x2
            continue
        v1, v2 = r1.value, r2.value
        if v1 < v2:
            p = x1
        elif v1 > v2:
            q = x2
        else:
            gap = x2 - x1
            rm = hval(simplest_rational_in(x1 + gap / 3, x2 - gap / 3))
            require(rm is not None, "midpoint between feasible probes is infeasible")
            vm = rm.value
            require(vm >= v1, "midpoint below equal probes on a concave curve")
            if vm > v1:
                p, q = x1, x2
            else:
                # Flat across both probes: the top of a concave function,
                # so the smallest maximizer is at or before the left probe.
                q = x1
        require(p <= q, "bracket endpoints out of order")

    out = hval(r)
    require(out is not None, "lattice rounding left the feasible region")
    delta = Fraction(1, 2 * bound * r.denominator)
    if r > 0:
        left = hval(r - delta)
        require(left is None or left.value < out.value, "smaller maximizer exists")
    if r + delta <= inst.u_R(0):
        right = hval(r + delta)
        require(right is None or right.value <= out.value, "larger value to the right")
    return (r, out.x), out.value


def solve_k_constant(inst: Instance, method: str = "auto") -> SolveResult:
    """Lexicographically smallest optimum over all constant-shift sets.

    ``master`` runs the cutting-plane master in ``lp`` at every k; it is
    what ``aemflow solve`` runs by default.  Up to two sets ``auto`` and
    ``parametric`` run the slice solver or nested search.  Beyond two,
    ``auto`` runs exact linear programming and ``parametric`` raises
    `UnsupportedDeviation`.  The library default stays ``auto`` while the
    benchmark self-check (``perfbench/selfcheck.py``) pins that path's
    max-flow and pivot counts; once they are re-pinned on the master,
    ``master`` becomes the default and the nested search goes.
    """
    if method not in ("auto", "parametric", "master"):
        raise ValidationError(f"unknown method {method!r}")
    _require_shifts(inst)
    if method == "parametric" and inst.k >= 3:
        raise UnsupportedDeviation(
            "nested search handles at most two homologous sets; "
            "--method auto uses the master"
        )
    ev = FEvaluator(inst)
    if inst.k == 0:
        return ev.result(())
    if method == "master":
        from .lp import _frac_optimum

        lam, value = _frac_optimum(ev)
    elif inst.k == 1:
        return ev.result((Slice(inst, 0, {}, ev).solve().x,))
    elif inst.k == 2:
        lam, value = _pin_solve(inst, ev)
    else:
        from .lp import _lp_optimum

        lam, value = _lp_optimum(inst)
    out = ev.result(lam)
    require(out.opt_value == value, "the optimum's flow disagrees with its value")
    return out


def _require_shifts(inst: Instance) -> None:
    for i, hs in enumerate(inst.sets):
        if not hs.deviation.is_constant_shift:
            raise UnsupportedDeviation(f"set {i}: constant-shift deviation required here")


def solve_integer_constant(inst: Instance) -> SolveResult:
    """Best all-integer parameter vector for a constant-shift instance.

    An integral flow meets a capacity c, or a shift c over an integral set
    minimum, exactly when it meets floor(c), so the solve runs with both
    floored and its flows stay valid for `inst`.  With integral data the
    floored instance is `inst` itself.
    """
    _require_shifts(inst)
    shifts = [hs.deviation.shift_amount() for hs in inst.sets]
    if any(c.denominator != 1 for c in (*inst.capacities, *shifts)):
        caps = tuple(Fraction(floor(c)) for c in inst.capacities)
        sets = tuple(
            HomologousSet(hs.edges, DeviationFn.constant_shift(floor(c)))
            for hs, c in zip(inst.sets, shifts)
        )
        inst = Instance(inst.graph, caps, sets)
    from .lp import _int_optimum

    ev = FEvaluator(inst)
    lam, value = _int_optimum(ev)
    out = ev.result(lam)
    require(out.opt_value == value, "the optimum's flow disagrees with its value")
    return out
