"""Brute-force ground truth for small instances.

Nothing here shares logic with the solvers: the optimum is found by
exhaustive evaluation of F over explicit parameter candidates, each
candidate checked with a plain lower/upper-bounded max flow.  These
enumerators exist so the parametric machinery has something independent
to be tested against.

oracle_fractional evaluates F on the lattice of rationals N/D with
denominator D up to the edge count.  That lattice is known to hold an
optimum only for constant shifts with integral capacities and shifts
(breakpoint denominators then divide the sizes of the cuts that create
them); on other data the result is the best lattice value, a lower bound
that can miss the optimum.  oracle_integer enumerates integer parameter
vectors, which is exact for the integral problem whenever the deviations
are nondecreasing: guessing the realized set minimum can only relax the
upper bounds, and an integral-bound max flow has an integral optimum.
oracle_concave_single brackets the 1-D maximizer of a concave value
function by a grid pass plus interval shrinking, with no claim of
exactness, only a width guarantee on the final bracket.

The enumeration is exhaustive over the candidate cross product, and the
budget counts candidates, not max flows.  A candidate's max flow is
skipped only when a cut from an earlier flow settles it by weak duality
at the candidate's own bounds: a Hoffman violator proves it infeasible,
or a min cut bounds its value by the best found so far.  Neither assumes
anything about the shape of the deviations.  For each choice of the
other sets' candidates, the least slack over the stored cuts is kept per
candidate of the last set, as two running minima, so each candidate is
settled in constant time.  The candidates and their bounds are built as
integers on one grid of step 1/scale, with no Fraction per candidate, so
the inner loop runs the integer flow core directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, gcd, lcm, prod

from .errors import BudgetExceeded, ValidationError, require
from .instance import FEvaluator, Instance
from .maxflow import Network, _max_flow
from .values import DeviationFn, simplest_rational_in

__all__ = [
    "oracle_fractional",
    "oracle_integer",
    "oracle_concave_single",
]

DEFAULT_BUDGET = 10**6


def _int_value(net, lowers, uppers):
    """(max s-t flow value, s side of a min cut) for integer bounds.

    When the bounds are infeasible the value is None and the side is the
    super-source side of the circulation's min cut, a set whose in-arcs'
    lower bounds exceed its out-arcs' upper bounds.
    """
    res, value, _ = _max_flow(net, lowers, uppers)
    if value is None:
        return None, res.reachable(net.n) & net.nodes
    return value, res.reachable(net.s) & net.nodes


def _over_budget(budget: int, count: int | None = None) -> BudgetExceeded:
    what = "the" if count is None else str(count)
    return BudgetExceeded(
        f"{what} oracle candidates exceed the budget of {budget}",
        candidates=count,
        budget=budget,
    )


def _best_over(
    inst: Instance, scale: int, lows: list[list[int]], tops: list[list[int]]
) -> int:
    """Max flow value over the candidate cross product, times scale.

    Every number is an integer on the grid of step 1/scale: capacities
    count as floor(c * scale), ``lows[i][j]`` is candidate j of set i
    times scale, and ``tops[i][j]`` the upper bound it puts on the members
    of set i, times scale.  Every candidate is accounted for, but its flow
    is skipped when a cut from an earlier flow already settles it.  For a
    node set S, the slack of a candidate is the sum of the upper bounds on
    the arcs leaving S minus the lower bounds on the arcs entering S.  A
    circulation with a t->s return arc needs slack >= 0 on every S the
    return arc does not leave (Hoffman), and every flow is at most the
    slack of any S holding s but not t (max-flow/min-cut).  The slack is a
    sum of per-set terms, so each cut is stored pre-summed: a constant
    plus one row per set, indexed by the candidate.  For each choice of
    the other sets' candidates, two running minima over the last set's
    candidates hold the least slack of the Hoffman cuts and of the value
    cuts; a cut found on the way is folded in at once.  A candidate is
    skipped iff its Hoffman minimum is negative or its value minimum is at
    most the best value so far.  No candidate beats the ceiling, the max
    flow with every lower bound dropped and every set at its largest upper
    bound, so reaching it ends the search.
    """
    caps = [c.numerator * scale // c.denominator for c in inst.capacities]
    g = inst.graph
    pairs = [(e.tail, e.head) for e in g.edges]
    s, t = g.source, g.sink
    net = Network(g.n, pairs, s, t)
    members = [hs.edges for hs in inst.sets]
    owner = [-1] * inst.m
    for i, edges in enumerate(members):
        for e in edges:
            owner[e] = i
    # ups[i][j][e]: the upper bound of member e of set i under candidate j.
    ups = [
        [{e: min(caps[e], top) for e in edges} for top in col]
        for edges, col in zip(members, tops)
    ]
    usable = [
        [j for j, (lo, up) in enumerate(zip(low, col)) if lo <= min(up.values())]
        for low, col in zip(lows, ups)
    ]

    def bounds(idx):
        lowers = [0] * inst.m
        uppers = caps[:]
        for i, j in enumerate(idx):
            for e, u in ups[i][j].items():
                lowers[e] = lows[i][j]
                uppers[e] = u
        return lowers, uppers

    def presum(side, lowers, uppers):
        """The cut's slack rows, and its slack at the given bounds."""
        const, rows = 0, [[0] * len(low) for low in lows]
        slack = 0
        for e, (u, v) in enumerate(pairs):
            i = owner[e]
            if u in side and v not in side:
                slack += uppers[e]
                if i < 0:
                    const += caps[e]
                else:
                    rows[i] = [r + up[e] for r, up in zip(rows[i], ups[i])]
            elif v in side and u not in side:
                slack -= lowers[e]
                if i >= 0:
                    rows[i] = [r - lo for r, lo in zip(rows[i], lows[i])]
        return (const, rows), slack

    ceiling_uppers = [
        c if i < 0 else min(c, max(tops[i])) for c, i in zip(caps, owner)
    ]
    ceiling, _ = _int_value(net, [0] * inst.m, ceiling_uppers)
    if not members:
        return ceiling  # the one candidate, with no bounds to drop

    def slacks(cut, prefix):
        """The cut's slack at each last-set candidate after a prefix."""
        const, rows = cut
        b = const + sum(r[j] for r, j in zip(rows, prefix))
        return [b + r for r in rows[-1]]

    unbounded = [float("inf")] * len(lows[-1])

    def least(cuts, prefix):
        """The least slack over the cuts, per last-set candidate."""
        if not cuts:
            return unbounded
        rows = [slacks(c, prefix) for c in cuts]
        return rows[0] if len(rows) == 1 else list(map(min, *rows))

    hoffman, value_cuts = [], []
    seen: set[tuple[bool, frozenset[int]]] = set()
    best = -1  # below every flow value: nothing found yet
    *outer, last = usable
    for prefix in product(*outer):
        hlow, vlow = least(hoffman, prefix), least(value_cuts, prefix)
        for j in last:
            if hlow[j] < 0 or vlow[j] <= best:
                continue
            lowers, uppers = bounds((*prefix, j))
            v, side = _int_value(net, lowers, uppers)
            if (v is None, side) not in seen:
                seen.add((v is None, side))
                cut, slack = presum(side, lowers, uppers)
                row = slacks(cut, prefix)
                require(row[j] == slack, "pre-summed cut slack")
                if v is None:
                    require(
                        slack < 0 and (s in side or t not in side),
                        "infeasible candidate without a Hoffman violator",
                    )
                    hoffman.append(cut)
                    hlow = list(map(min, hlow, row))
                else:
                    require(
                        slack == v and s in side and t not in side,
                        "max flow value differs from its cut",
                    )
                    value_cuts.append(cut)
                    vlow = list(map(min, vlow, row))
            if v is not None and v > best:
                best = v
                if best == ceiling:
                    return best
    require(best >= 0, "the all-zero parameter vector is feasible")
    return best


def _lattice(top: Fraction, m: int, limit: int | None = None) -> list[tuple[int, int]]:
    """Every N/D in [0, top] with 1 <= D <= m, ascending, as (N, D) in lowest terms.

    Walks the Farey sequence of order m: a/b < c/d are neighbours, and the
    next term is (kc - a)/(kd - b) with k = (m + b) // d.  Given a limit,
    the walk stops once it holds more than limit terms, so a huge top
    costs no more than the limit.
    """
    out = []
    tn, td = top.numerator, top.denominator
    a, b, c, d = 0, 1, 1, m
    while a * td <= tn * b:
        if limit is not None and len(out) > limit:
            break
        out.append((a, b))
        k = (m + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return out


def _deviation_at(
    dev: DeviationFn, points: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """dev(N/D) as an integer pair (numerator, denominator) for each (N, D).

    With L the lcm of the coefficients' denominators and c'_k = L * c_k,
    dev(N/D) = sum c'_k N^k D^(deg-k) / (L * D^deg); the sum is taken by
    Horner's rule on integers.  The pair is not reduced.
    """
    cs = dev.poly.coeffs
    den = lcm(*(c.denominator for c in cs))
    lead, *rest = [c.numerator * (den // c.denominator) for c in reversed(cs)]
    out = []
    for x, d in points:
        total, dk = lead, 1
        for c in rest:
            dk *= d
            total = total * x + c * dk
        out.append((total, den * dk))
    return out


def oracle_fractional(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact optimum by exhaustion of the rational candidate lattice.

    Candidates per set are all N/D in [0, u_R] with D from 1 to the edge
    count.  Raises BudgetExceeded when the cross product is larger than
    budget, before any grid grows past what the budget leaves it.  The
    scale is the lcm of the reduced denominators of the capacities, the
    candidates and their upper bounds.
    """
    grids, count = [], 1
    for i in range(inst.k):
        if count > budget:
            break
        grids.append(_lattice(inst.u_R(i), inst.m, budget // count))
        count *= len(grids[-1])
    if count > budget:
        raise _over_budget(budget)
    dens = {c.denominator for c in inst.capacities}
    tops = []
    for hs, grid in zip(inst.sets, grids):
        col = []
        for num, den in _deviation_at(hs.deviation, grid):
            g = gcd(num, den)
            col.append((num // g, den // g))
        dens.update(d for _, d in grid)
        dens.update(d for _, d in col)
        tops.append(col)
    scale = lcm(*dens)
    lows = [[x * (scale // d) for x, d in grid] for grid in grids]
    tops = [[x * (scale // d) for x, d in col] for col in tops]
    return Fraction(_best_over(inst, scale, lows, tops), scale)


def oracle_integer(inst: Instance, budget: int = DEFAULT_BUDGET) -> int:
    """Exact integral optimum by enumeration of integer parameter vectors.

    Sound for deviations nondecreasing on [0, u_R].  Capacities and upper
    bounds are floored, which is lossless for integral flows.
    """
    sizes = [floor(inst.u_R(i)) + 1 for i in range(inst.k)]
    if prod(sizes) > budget:
        raise _over_budget(budget, prod(sizes))
    lows = [list(range(size)) for size in sizes]
    tops = [
        [num // den for num, den in _deviation_at(hs.deviation, [(x, 1) for x in low])]
        for hs, low in zip(inst.sets, lows)
    ]
    return _best_over(inst, 1, lows, tops)


def oracle_concave_single(
    inst: Instance, tol: Fraction | None = None
) -> tuple[Fraction, Fraction]:
    """Best (lambda, value) found by grid scan plus bracket shrinking.

    Assumes a single homologous set whose value function is concave over
    the feasible interval.  The returned lambda is within tol of some
    maximizer; the returned value is a true F evaluation, hence a lower
    bound on the optimum that concavity puts within slope*tol of it.
    """
    if inst.k != 1:
        raise ValidationError("concave oracle handles exactly one set")
    top = inst.u_R(0)
    if tol is None:
        tol = Fraction(top, 2**30) if top else Fraction(1, 2**30)
    ev = FEvaluator(inst)
    memo: dict[Fraction, Fraction | None] = {}

    def val(x: Fraction) -> Fraction | None:
        if x not in memo:
            s = ev.sample((x,))
            memo[x] = s.value if s.feasible else None
        return memo[x]

    if top == 0:
        v = val(Fraction(0))
        require(v is not None, "the zero parameter is feasible")
        return Fraction(0), v
    # Grid pass: locate the feasibility edge between consecutive points.
    steps = 16
    edge_lo, edge_hi = Fraction(0), None
    for j in range(steps + 1):
        x = Fraction(j * top, steps)
        if val(x) is None:
            edge_hi = x
            break
        edge_lo = x
    if edge_hi is not None:
        while edge_hi - edge_lo > tol:
            mid = simplest_rational_in(
                edge_lo + (edge_hi - edge_lo) / 4,
                edge_hi - (edge_hi - edge_lo) / 4,
            )
            if val(mid) is None:
                edge_hi = mid
            else:
                edge_lo = mid
    # Bracket shrinking on the feasible prefix; probes snapped to simple
    # rationals so denominators stay small.
    p, q = Fraction(0), edge_lo
    while q - p > tol:
        w = (q - p) / 3
        x1 = simplest_rational_in(p + 2 * w / 3, p + 4 * w / 3)
        x2 = simplest_rational_in(q - 4 * w / 3, q - 2 * w / 3)
        v1, v2 = val(x1), val(x2)
        require(v1 is not None and v2 is not None, "probe left the feasible prefix")
        if v1 < v2:
            p = x1
        else:
            q = x2
    best_x = min(
        (x for x, v in memo.items() if v is not None),
        key=lambda x: (-memo[x], x),
    )
    return best_x, memo[best_x]
