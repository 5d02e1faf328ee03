"""Single-set solver for concave deviation bounds.

With one homologous set and a concave bound, F(lam), the max-flow value
of the network whose member edges carry bounds [lam, min(u, Delta(lam))],
is concave on the feasible interval: lower bounds move linearly, upper
bounds are minima of concave functions, and the flow LP value inherits
their shape.  The domain is cut where Delta crosses a member capacity so
that each piece fixes which side of the min is active; on a piece, every
quantity the augmenting-path engine touches is a polynomial in lam of the
deviation's degree, and every branch the engine takes is the sign of such
a polynomial at the unknown maximizer.

The domain itself is [0, edge], the feasible interval.  It comes from
the deficiency walk of :meth:`~aemflow.parametric.Slice.feasible_interval`,
a few circulation max flows and no F sample.  The edge is u_R when that
is feasible, exact wherever it is rational, and within u_R * 2**-64 below
it where it is irrational.

The symbolic run is :func:`~aemflow.parametric.symbolic_max_flow`, the
one the slice solver uses.  Signs resolve by isolating the
polynomial's roots and locating the smallest maximizer relative to them
through concrete F evaluations.  Two evaluations with different values
place every maximizer strictly on the higher one's side (falling chords
of a concave curve); an evaluation at y < x that equals F(x) puts the
smallest maximizer below x, while an equal value to the right of x says
nothing about x.  When neither applies the run forks at the blocking root
and both presumptions are explored depth first, so a wrong presumption
costs a redundant run but never an incorrect answer: a completed run's
value polynomial is trusted only on its final interval, and every
reported candidate is re-evaluated concretely.

Rational comparison thresholds keep the search exact.  Irrational ones
(possible from degree two up) are isolated to width u_R * 2**-64 and
candidates snap to the simplest rational inside the bracket, so answers
are exact whenever the optimum is a rational of moderate denominator and
off by at most the bracket width otherwise.  Forks and the shrinking
sign box ask for the same polynomial's roots on many boxes, and a
quadratic's closed form and brackets do not depend on the box, so the
solve's slice keeps the closed form under (polynomial, width) and each
bisected bracket under (polynomial, width, side), and ``poly_roots``
bisects only a root whose coarse bracket meets the box asked about.  The
memo dies with the solve.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, UnsupportedDeviation, ValidationError, require
from .instance import FEvaluator, Instance, SolveResult
from .parametric import Slice, _PinnedAt, slice_bounds, symbolic_max_flow
from .values import Order, PolyValue, simplest_rational_in

__all__ = ["solve_concave_single"]

_ZERO = Fraction(0)


class _Fork(Exception):
    """A sign was needed at a root no evaluation pair can place yet."""

    def __init__(self, at: Fraction):
        super().__init__(f"fork at {at}")
        self.at = at


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
    dev = inst.sets[0].deviation
    ev = FEvaluator(inst)
    sl = Slice(inst, 0, {}, ev)
    tol = sl.tol
    edge = sl.feasible_interval()[1]
    evid = [_ZERO, edge]
    vals: dict[Fraction, Fraction] = {}

    def fval(x: Fraction) -> Fraction:
        s = ev.sample((x,))
        require(s.feasible, "feasible interval sampled infeasible")
        vals[x] = s.value
        return s.value

    def place(x: Fraction) -> Order | None:
        """Locate the smallest maximizer against x from known values."""
        fx = fval(x)
        for y, fy in vals.items():
            if fy > fx:
                return Order.LESS if y < x else Order.GREATER
            if fy == fx and y < x:
                return Order.LESS
        return None

    def resolve_point(x: Fraction, lo: Fraction, hi: Fraction) -> Order | None:
        out = place(x)
        if out is not None:
            return out
        step = hi - lo
        for _ in range(80):
            step /= 16
            probed = False
            wl, wh = x - step, x - step / 2
            if wl > lo:
                p = simplest_rational_in(wl, wh)
                if p not in vals:
                    fval(p)
                    probed = True
            wl, wh = x + step / 2, x + step
            if wh < hi:
                p = simplest_rational_in(wl, wh)
                if p not in vals:
                    fval(p)
                    probed = True
            out = place(x)
            if out is not None:
                return out
            if step <= tol or not probed:
                return None
        return None

    def make_sign(box: list[Fraction]):
        def sign_of(d: PolyValue) -> Order:
            # poly_roots' brackets do not depend on the box; clipping only
            # makes ends that lie on it.  Each pass moves a box end onto an
            # interior bracket end, so at most 2 * degree passes find one
            # and the next has none left.
            for _ in range(2 * d.degree + 1):
                if box[0] == box[1]:
                    raise _PinnedAt(box[0])
                reps = []
                for r in sl.roots(d, box[0], box[1]):
                    pts = (r.lo,) if r.is_exact else (r.lo, r.hi)
                    for x in pts:
                        if box[0] < x < box[1]:
                            reps.append(x)
                if not reps:
                    mid = (box[0] + box[1]) / 2
                    v = d.eval(mid)
                    require(v != 0, "midpoint hit an unreported root")
                    return Order.GREATER if v > 0 else Order.LESS
                x = min(reps)
                where = resolve_point(x, box[0], box[1])
                if where is None:
                    raise _Fork(x)
                # x lies strictly inside the box, and the box inside the
                # evidence interval, so both shrink to x.
                if where is Order.LESS:
                    box[1] = evid[1] = x
                else:
                    box[0] = evid[0] = x
            raise InternalError("sign resolution failed to converge")

        return sign_of

    fval(_ZERO)
    if edge == 0:
        return ev.result((_ZERO,))

    splits = {_ZERO, edge}
    for c in sorted({inst.capacities[e] for e in inst.sets[0].edges}):
        r = dev.crossing(c, _ZERO, edge, sl.brackets)
        if r is not None:
            for x in (r.lo, r.hi):
                if 0 < x < edge:
                    splits.add(x)
    pts = sorted(splits)
    for a, b in zip(pts, pts[1:]):
        fval(a)
        fval(b)
        mid = (a + b) / 2
        lower, upper = slice_bounds(inst, 0, {}, lambda u: dev(mid) > u)
        pending = [(a, b)]
        rounds = 0
        while pending:
            rounds += 1
            require(rounds < 500, "interval exploration failed to converge")
            p, q = pending.pop()
            if evid[1] <= p:
                fval(p)
                continue
            if evid[0] >= q:
                fval(q)
                continue
            box = [max(p, evid[0]), min(q, evid[1])]
            try:
                total = symbolic_max_flow(inst, lower, upper, make_sign(box), box)
            except _Fork as f:
                lo, hi = max(p, evid[0]), min(q, evid[1])
                pending.append((lo, f.at))
                pending.append((f.at, hi))
                continue
            except _PinnedAt as pin:
                fval(pin.value)
                continue
            cands = {box[0], box[1]}
            der = total.derivative()
            if der.degree >= 1:
                for r in sl.roots(der, box[0], box[1]):
                    cands.add(
                        r.value
                        if r.is_exact
                        else simplest_rational_in(r.lo, r.hi)
                    )
            for x in sorted(cands):
                fval(x)
            if box[0] < box[1]:
                w = (box[0] + box[1]) / 2
                require(
                    fval(w) == total.eval(w),
                    "value polynomial disagrees inside its interval",
                )
    best_v = max(vals.values())
    best_x = min(x for x, v in vals.items() if v == best_v)
    return ev.result((best_x,))

