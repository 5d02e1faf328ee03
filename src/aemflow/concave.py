"""Single-set solver for concave deviation bounds.

With one homologous set S and a concave bound Delta, F(lam), the max-flow
value of the network whose member edges carry bounds
[lam, min(u, Delta(lam))], is concave on the feasible interval [0, edge]:
it is the minimum of the cut capacities g_C, each concave.  The edge comes
from the deficiency walk of :meth:`~aemflow.parametric.Slice.feasible_interval`,
a few circulation max flows and no F sample.  It is u_R when that is
feasible, exact wherever it is rational, and within u_R * 2**-64 below it
where it is irrational.

The solver is a cutting-plane walk (Kelley 1960) on support polynomials.
At a sample x, freeze each forward member of the min cut to u or Delta by
its clamp state just right (or just left) of x.  With `live` the members
that follow Delta there and `back` the members crossing the cut backward,

    P(y) = F(x) + live * (Delta(y) - Delta(x)) - back * (y - x)

is concave, at least g_C (min(u, Delta) is at most either term), hence at
least F on all of [0, edge], and tight at x.  The model M, the minimum of
the supports collected, is concave and at least F.  Each round samples
M's smallest maximizer y.  F(y) = M(y) ends the walk with y exact: every
point left of y has F <= M < M(y), and none beats M(y) = F(y).

M's smallest maximizer is 0, edge, a support's stationary point or a
root of two supports' difference, and these are the anchors.  M's right
slope, read from the supports active at an anchor, falls from anchor to
anchor, so a bisection finds the first anchor y where it is not
positive.  Between y and the anchor a before it, one support is the
minimum and it rises, so y is M's smallest maximizer, unless [a, y] lies
inside a bracket.  Stationary points are rational at degree two.
Crossings of supports with different live counts may be irrational; they
come as brackets of width tol = u_R * 2**-64 whose two ends are anchors,
and then M's maximizer lies somewhere in (a, y].  Both ends are sampled,
and once both are tight F's smallest maximizer lies in [a, y] too
(F < F(a) left of a, F <= F(y) right of y).  The stretch's simplest
rational is sampled last, and the answer is the smallest sample with the
largest value: exact whenever the optimum is a rational of moderate
denominator, a stand-in within tol of it otherwise.

A support is fixed up to a constant by its shape (live, back).  A sample
y with F(y) < M(y) cannot repeat a shape held at x: its support would lie
below the held one at y, since it equals F(y) < M(y) there, yet at or
above it at x, where the held one equals F(x).  So every round that does
not end the walk adds a shape.  live + back <= |S| leaves (|S|+1)(|S|+2)/2
shapes, the count `Slice._def_root` derives its cap from; the walk is
capped two rounds above it, and a repeated shape below the model raises
InternalError.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .errors import InternalError, UnsupportedDeviation, ValidationError, require
from .instance import FEvaluator, Instance, SolveResult
from .parametric import Slice
from .values import PolyValue, simplest_rational_in

__all__ = ["solve_concave_single"]

_ZERO = Fraction(0)


def solve_concave_single(inst: Instance) -> SolveResult:
    """Smallest maximizer of F for one homologous set, concave bound."""
    for hs in inst.sets:
        if not hs.deviation.is_concave:
            raise UnsupportedDeviation("deviation bound is not concave")
    if inst.k != 1:
        raise ValidationError(
            "concave solve handles exactly one homologous set, "
            f"got {inst.k}"
        )
    ev = FEvaluator(inst)
    sl = Slice(inst, 0, {}, ev)
    edge = sl.feasible_interval()[1]
    vals: dict[Fraction, Fraction] = {}
    # (live, back) -> the support and its derivative; anchors and the
    # irrational brackets among them grow with the supports.
    supports: dict[tuple[int, int], tuple[PolyValue, PolyValue]] = {}
    anchors = {_ZERO, edge}
    brackets: list[tuple[Fraction, Fraction]] = []

    def add_support(key: tuple[int, int], poly: PolyValue) -> None:
        der = poly.derivative()
        for d in (der, *(poly - p for p, _ in supports.values())):
            if d.degree < 1:
                continue
            for r in sl.roots(d, _ZERO, edge):
                anchors.update((r.lo, r.hi))
                if not r.is_exact:
                    brackets.append((r.lo, r.hi))
        supports[key] = (poly, der)

    def sample(x: Fraction) -> bool:
        """Sample F at x and collect its supports; True when M(x) = F(x)."""
        s = ev.sample((x,))
        require(s.feasible, "feasible interval sampled infeasible")
        fx = vals[x] = s.value
        tight = bool(supports) and min(p.eval(x) for p, _ in supports.values()) == fx
        sc = s.report.sets[0]
        for live in {sc.live(x, False), sc.live(x, True)}:
            if (live, sc.backward_count) in supports:
                require(tight, "a sample below the model repeats a support shape")
                continue
            add_support((live, sc.backward_count), sc.support(x, fx, live))
        return tight

    def rising(y: Fraction) -> bool:
        """Whether M's right slope at y is positive."""
        at = [(p.eval(y), d) for p, d in supports.values()]
        low = min(v for v, _ in at)
        return min(d.eval(y) for v, d in at if v == low) > 0

    sample(_ZERO)
    if edge == 0:
        return ev.result((_ZERO,))
    sample(edge)
    members = len(inst.sets[0].edges)
    for _ in range((members + 1) * (members + 2) // 2 + 2):
        pts = sorted(anchors)
        # M's right slope falls along the anchors; edge ends the scan.
        i = bisect_left(pts, True, 0, len(pts) - 1, key=lambda y: not rising(y))
        y = pts[i]
        a = pts[i - 1] if i else None
        if a is None or not any(b0 <= a and y <= b1 for b0, b1 in brackets):
            if sample(y):
                break
            continue
        tight_a = sample(a)
        if sample(y) and tight_a:
            sample(simplest_rational_in(a, y))
            break
    else:
        raise InternalError("support walk exceeded its shape count")
    best_v = max(vals.values())
    best_x = min(x for x, v in vals.items() if v == best_v)
    return ev.result((best_x,))
