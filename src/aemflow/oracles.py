"""Brute-force ground truth for small instances.

Nothing here shares logic with the solvers: the optimum is found by
exhaustive evaluation of F over explicit parameter candidates, each
candidate checked with a plain lower/upper-bounded max flow.  These
enumerators exist so the parametric machinery has something independent
to be tested against.

oracle_fractional evaluates F on the lattice of rationals N/D with
denominator D up to the edge count; the optimal parameters of instances
at oracle scale lie on that lattice (breakpoint denominators divide the
sizes of the cuts that create them).  oracle_integer enumerates integer
parameter vectors, which is exact for the integral problem whenever the
deviations are nondecreasing: guessing the realized set minimum can only
relax the upper bounds, and an integral-bound max flow has an integral
optimum.  oracle_concave_single brackets the 1-D maximizer of a concave
value function by a grid pass plus interval shrinking, with no claim of
exactness, only a width guarantee on the final bracket.

All candidates are pre-scaled to a single integer grid so the inner loop
runs the integer flow core directly instead of re-deriving a common
denominator per sample.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, lcm

from .errors import BudgetExceeded, ValidationError, require
from .instance import FEvaluator, Instance
from .maxflow import _aux_net, _Net
from .values import simplest_rational_in

__all__ = [
    "oracle_fractional",
    "oracle_integer",
    "oracle_concave_single",
]

DEFAULT_BUDGET = 10**6


def _int_value(n, pairs, s, t, lowers, uppers):
    """Max s-t flow value for integer bounds, or None when infeasible."""
    if not any(lowers):
        net = _Net(n)
        for (u, v), c in zip(pairs, uppers):
            net.add(u, v, c)
        return net.max_flow(s, t)
    net, _, helpers, ts, required, sigma, tau = _aux_net(
        n, pairs, s, t, lowers, uppers
    )
    if net.max_flow(sigma, tau) < required:
        return None
    carried = net.cap[ts ^ 1]
    for a in helpers:
        net.disable(a)
    return carried + net.max_flow(s, t)


def _best_over(
    inst: Instance,
    grids: list[list[Fraction]],
    tops: list[list[Fraction]],
    budget: int,
):
    """Max scaled flow value over the candidate cross product, with scale.

    ``tops[i][j]`` is the upper bound that candidate ``grids[i][j]`` puts
    on the members of set i.
    """
    count = 1
    for g in grids:
        count *= len(g)
    if count > budget:
        raise BudgetExceeded(
            f"{count} oracle candidates exceed the budget of {budget}"
        )
    dens = [c.denominator for c in inst.capacities]
    dens += [x.denominator for g in grids for x in g]
    dens += [d.denominator for col in tops for d in col]
    scale = lcm(*dens) if dens else 1
    caps = [int(c * scale) for c in inst.capacities]
    lows = [[int(x * scale) for x in g] for g in grids]
    tops = [[int(d * scale) for d in col] for col in tops]
    g = inst.graph
    pairs = [(e.tail, e.head) for e in g.edges]
    n, s, t = g.n, g.source, g.sink
    members = [hs.edges for hs in inst.sets]
    best = None
    for idx in product(*(range(len(g)) for g in grids)):
        lowers = [0] * inst.m
        uppers = caps[:]
        ok = True
        for i, j in enumerate(idx):
            lo, top = lows[i][j], tops[i][j]
            for e in members[i]:
                lowers[e] = lo
                if top < uppers[e]:
                    uppers[e] = top
                if lo > uppers[e]:
                    ok = False
        if not ok:
            continue
        v = _int_value(n, pairs, s, t, lowers, uppers)
        if v is not None and (best is None or v > best):
            best = v
    require(best is not None, "the all-zero parameter vector is feasible")
    return best, scale


def oracle_fractional(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact optimum by exhaustion of the rational candidate lattice.

    Candidates per set are all N/D in [0, u_R] with D from 1 to the edge
    count.  Raises BudgetExceeded when the cross product is larger than
    budget.
    """
    grids = []
    for i in range(inst.k):
        top = inst.u_R(i)
        cands = set()
        for d in range(1, inst.m + 1):
            for num in range(floor(top * d) + 1):
                cands.add(Fraction(num, d))
        grids.append(sorted(cands))
    tops = [[hs.deviation(x) for x in g] for hs, g in zip(inst.sets, grids)]
    best, scale = _best_over(inst, grids, tops, budget)
    return Fraction(best, scale)


def oracle_integer(inst: Instance, budget: int = DEFAULT_BUDGET) -> int:
    """Exact integral optimum by enumeration of integer parameter vectors.

    Sound for deviations nondecreasing on [0, u_R].  Capacities and upper
    bounds are floored, which is lossless for integral flows.
    """
    inst = Instance(
        inst.graph, tuple(Fraction(floor(c)) for c in inst.capacities), inst.sets
    )
    grids = [
        [Fraction(v) for v in range(floor(inst.u_R(i)) + 1)]
        for i in range(inst.k)
    ]
    tops = [
        [Fraction(floor(hs.deviation(x))) for x in grid]
        for hs, grid in zip(inst.sets, grids)
    ]
    best, _ = _best_over(inst, grids, tops, budget)
    return best


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
