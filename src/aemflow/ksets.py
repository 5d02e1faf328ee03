"""Exact maximization over several constant-shift sets.

The value function F is jointly concave over the convex feasible region,
so maximizing out all but the first parameter leaves a concave univariate
function h whose smallest maximizer is the first coordinate of the
lexicographically smallest optimum.  Each level of the search handles one
coordinate:

* the innermost level is the exact one-parameter slice solver;
* every outer level runs a probe-pair search on h, narrowing a bracket
  that always contains the smallest maximizer.  Probes that fall outside
  the (convex, hence interval) feasible projection count as minus
  infinity.  Equal probe values are disambiguated with one midpoint
  sample: a strictly larger midpoint means the peak is inside, an equal
  one means the bracket sits on the flat top and the maximizer is at or
  left of the first probe.

The bracket never needs to shrink to a point.  Every candidate optimum is
a rational whose denominator is bounded by the instance data (it solves a
small integer-slope linear system), so once the bracket is shorter than
the minimal spacing to the simplest rational inside it, that rational is
the optimum exactly.  A final pair of verification probes checks the
one-sided optimality conditions.

Integer optima reuse the fractional solution: for each coordinate take
floor and ceiling, evaluate every corner that stays feasible plus the
all-zero point, and keep the lexicographically smallest argmax.  They are
solved on the instance with capacities and shifts floored, which has the
same integral flows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor, lcm

from .errors import Infeasible, UnsupportedDeviation, ValidationError, require
from .instance import FEvaluator, HomologousSet, Instance, SolveResult
from .parametric import Slice
from .values import DeviationFn, simplest_rational_in

__all__ = [
    "solve_k_constant",
    "solve_integer_constant",
]


def _lattice_bound(inst: Instance) -> int:
    """Denominator bound for optimum coordinates of a constant-shift instance.

    Candidates solve linear systems whose rows are cut or deficiency
    slopes, bounded per set by twice the member count, with data scaled by
    the common denominator.  Hadamard-style overcounting is fine here: the
    bound only steers how far brackets shrink.
    """
    coeffs = [c for hs in inst.sets for c in hs.deviation.poly.coeffs]
    d = lcm(inst.template.den, *(c.denominator for c in coeffs))
    b = factorial(inst.k)
    for hs in inst.sets:
        b *= 2 * max(1, len(hs.edges))
    return b * d ** max(2, inst.k)


def _pin_solve(
    inst: Instance,
    ev: FEvaluator,
    pinned: dict[int, Fraction],
    anchored: bool,
):
    """Lexicographic optimum over the coordinates not pinned yet.

    Returns (assignment dict, optimum value) or None when no remaining
    choice is feasible.  ``anchored`` marks the outermost call, where the
    all-zero point guarantees the feasible projection starts at zero.
    """
    free = [i for i in range(inst.k) if i not in pinned]
    require(free, "no free coordinate left to solve")
    if len(free) == 1:
        try:
            opt = Slice(inst, free[0], pinned, ev).solve()
        except Infeasible:
            return None
        return {free[0]: opt.x}, opt.value

    i = free[0]
    scale = 1
    for v in pinned.values():
        scale *= v.denominator
    bound = _lattice_bound(inst) * scale
    cache: dict[Fraction, tuple | None] = {}

    def hval(x: Fraction):
        if x not in cache:
            cache[x] = _pin_solve(inst, ev, {**pinned, i: x}, False)
        return cache[x]

    p, q = Fraction(0), inst.u_R(i)
    while True:
        r = simplest_rational_in(p, q)
        if q - p < Fraction(1, bound * r.denominator):
            break
        w = (q - p) / 3
        # Snapping probes to simple rationals keeps the denominators of
        # pinned values (and so the deeper lattice bounds) small.  Any
        # strictly interior probe pair works for the narrowing arguments.
        x1 = simplest_rational_in(p + 2 * w / 3, p + 4 * w / 3)
        x2 = simplest_rational_in(q - 4 * w / 3, q - 2 * w / 3)
        require(p < x1 < x2 < q, "probes must sit strictly inside the bracket")
        r1, r2 = hval(x1), hval(x2)
        gap = x2 - x1
        xm = simplest_rational_in(x1 + gap / 3, x2 - gap / 3)
        if r1 is None and r2 is None:
            if anchored:
                q = x1
                continue
            # The feasible projection is an interval that misses both
            # probes, so it sits wholly in one of the three gaps.  Try the
            # middle, the bracket endpoints, then geometric descents
            # toward each endpoint; refuse rather than guess if the
            # region hides between probes on both sides.
            if hval(xm) is not None:
                p, q = x1, x2
                continue
            fp, fq = hval(p) is not None, hval(q) is not None
            require(not (fp and fq), "interval region cannot skip a probe")
            if fp:
                q = x1
                continue
            if fq:
                p = x2
                continue
            lw, rw = x1 - p, q - x2
            floor_w = Fraction(1, bound * bound)
            shrunk = False
            for j in range(1, 64):
                if lw / 3**j < floor_w and rw / 3**j < floor_w:
                    break
                if hval(p + lw / 3**j) is not None:
                    q = x1
                    shrunk = True
                    break
                if hval(q - rw / 3**j) is not None:
                    p = x2
                    shrunk = True
                    break
            if shrunk:
                continue
            # Probing cannot tell an empty projection from one hiding
            # between probes; an exact feasibility witness settles it.
            from .lp import feasible_completion

            witness = feasible_completion(inst, pinned)
            if witness is None:
                return None
            w = witness[i]
            require(w != x1 and w != x2, "feasibility witness lands on a probe")
            if w < x1:
                q = x1
            elif w > x2:
                p = x2
            else:
                p, q = x1, x2
        if r1 is None:
            require(not anchored, "feasible projection must start at zero")
            p = x1
            continue
        if r2 is None:
            q = x2
            continue
        v1, v2 = r1[1], r2[1]
        if v1 < v2:
            p = x1
        elif v1 > v2:
            q = x2
        else:
            rm = hval(xm)
            require(rm is not None, "midpoint between feasible probes is infeasible")
            vm = rm[1]
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
        require(left is None or left[1] < out[1], "smaller maximizer exists")
    if r + delta <= inst.u_R(i):
        right = hval(r + delta)
        require(right is None or right[1] <= out[1], "larger value to the right")
    assign, value = out
    return {**assign, i: r}, value


def _solve_on(ev: FEvaluator, method: str) -> SolveResult:
    """`solve_k_constant` with every F sample through `ev`."""
    inst = ev.inst
    if method not in ("auto", "parametric"):
        raise ValidationError(f"unknown method {method!r}")
    for i, hs in enumerate(inst.sets):
        if not hs.deviation.is_constant_shift:
            raise UnsupportedDeviation(f"set {i}: constant-shift deviation required here")
    if inst.k == 0:
        return ev.result(())
    if inst.k == 1:
        return ev.result((Slice(inst, 0, {}, ev).solve().x,))
    if method == "auto" and inst.k >= 3:
        from .lp import _lp_optimum

        lam, value = _lp_optimum(inst)
    else:
        assign, value = _pin_solve(inst, ev, {}, True)
        lam = tuple(assign[i] for i in range(inst.k))
    out = ev.result(lam)
    require(out.opt_value == value, "the optimum's flow disagrees with its value")
    return out


def solve_k_constant(inst: Instance, method: str = "auto") -> SolveResult:
    """Lexicographically smallest optimum over all constant-shift sets.

    ``method`` is ``auto`` (nested search up to two sets, exact linear
    programming beyond) or ``parametric`` (nested search at any depth).
    """
    return _solve_on(FEvaluator(inst), method)


def _floor_shift(dev: DeviationFn) -> DeviationFn:
    """A constant shift rounded down; other shapes are rejected later."""
    if not dev.is_constant_shift:
        return dev
    return DeviationFn.constant_shift(floor(dev.shift_amount()))


def solve_integer_constant(inst: Instance, method: str = "auto") -> SolveResult:
    """Best all-integer parameter vector for a constant-shift instance.

    An integral flow meets a capacity c, or a shift c over an integral set
    minimum, exactly when it meets floor(c), so the solve runs with both
    floored and its flows stay valid for `inst`.  Rounds the fractional
    optimum coordinate-wise, evaluates every floor/ceiling corner that
    stays feasible together with the all-zero vector, and keeps the
    lexicographically smallest argmax.  The corners reuse the fractional
    solve's evaluator and so its samples.
    """
    inst = Instance(
        inst.graph,
        tuple(Fraction(floor(c)) for c in inst.capacities),
        tuple(HomologousSet(hs.edges, _floor_shift(hs.deviation)) for hs in inst.sets),
    )
    ev = FEvaluator(inst)
    base = _solve_on(ev, method)
    choices = []
    for i, x in enumerate(base.lambda_star):
        top = floor(inst.u_R(i))
        vals = {min(floor(x), top), min(ceil(x), top)}
        choices.append(sorted(Fraction(v) for v in vals))
    candidates = {tuple(c) for c in product(*choices)}
    candidates.add(tuple(Fraction(0) for _ in range(inst.k)))
    best = None
    best_val = None
    for cand in sorted(candidates):
        s = ev.sample(cand)
        if not s.feasible:
            continue
        if best is None or s.value > best_val:
            best, best_val = cand, s.value
    require(best is not None, "the all-zero vector is always feasible")
    return ev.result(best)
