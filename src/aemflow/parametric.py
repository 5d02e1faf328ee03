"""Single-parameter search: probe resolution and parametric simulation.

Everything here views the instance through a one-dimensional slice: one
homologous set's parameter is free, every other set is pinned to a fixed
rational value.  Along such a slice the value function F is concave and
piecewise linear (for affine deviations), the feasible parameter values
form a closed interval, and the optimum is the smallest maximizer.

Three exact primitives are built on that picture:

* ``Slice.feasible_interval`` finds the interval endpoints by Newton steps
  on the circulation deficiency, a convex function, piecewise linear for
  affine deviations.  At each point it equals -g_T for the auxiliary min
  cut T, so the cut's ``CutReport`` gives the support function, value and
  one-sided slope alike.  Each step lands on the root of -g_T with every
  member's clamp state frozen, which is the tangent line on affine sets
  and a polynomial of the deviation's degree on curved ones.  Each such
  shape is tight at most once, so finitely many max-flow calls give the
  exact endpoints wherever they are rational.  An irrational right end
  is isolated to width ``tol`` = u_R * 2**-64 and answered from the
  bracket's feasible side, by the simplest rational in it if feasible.
* ``Slice.resolve`` places the optimum relative to a query point, as an
  ``Order``, using two nearby probes.  A chord with nonpositive slope on
  the left, or positive slope on the right, decides the direction
  outright.  Declaring the query point itself optimal additionally
  requires the probe cut's one-sided slope to match the chord exactly;
  that match certifies F is linear across the probe window, which pins
  the one-sided derivatives at the query point.  When the certificate
  fails the window shrinks and the probes repeat, and since F has
  finitely many kinks this terminates.  The probe window serves
  ``resolve`` alone: the breakpoint profile reads the same cut lines
  without one.
* ``Slice.solve`` runs the flow computation once with bounds that are
  degree-one polynomials in the free parameter, answering every
  comparison through ``resolve`` while narrowing the interval that must
  contain the optimum.  The run either gets pinned to an exact optimum
  mid-way or returns the value function's affine form on the final
  interval, whose better endpoint is the optimum.

The symbolic run itself, :func:`symbolic_max_flow`, routes the lower
bounds by a circulation over :class:`_SymNet`, then augments from source
to sink, and every branch it takes is the sign of a polynomial at the
unknown optimum, answered by the caller's sign oracle.

All rationals are exact.  The one tolerance in this module is ``tol``,
the width of the brackets around irrational roots on curved pieces.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from .errors import (
    Infeasible,
    InternalError,
    UnsupportedDeviation,
    ValidationError,
    require,
)
from .cuts import CutReport
from .instance import FEvaluator, FSample, Instance
from .maxflow import deficiency_int
from .values import Order, PolyValue, Root, poly_roots, simplest_rational_in

__all__ = [
    "Slice",
    "SliceOpt",
    "slice_bounds",
]

_ZERO = Fraction(0)
_NIL = PolyValue(())

# Answers the sign of a polynomial at the unknown optimum.
SignOracle = Callable[[PolyValue], Order]


class SliceOpt(NamedTuple):
    x: Fraction
    value: Fraction


class _PinnedAt(Exception):
    """Internal: a comparison identified the optimum exactly; finish concretely."""

    def __init__(self, value: Fraction):
        self.value = value


class Slice:
    """The instance restricted to one free parameter.

    Shares one memoized evaluator across all probes, so repeated resolves
    at nearby points reuse earlier max-flow runs, and one root-bracket
    memo across all `roots` queries.
    """

    def __init__(
        self,
        inst: Instance,
        free: int,
        fixed: dict[int, Fraction],
        evaluator: FEvaluator | None = None,
    ):
        if not 0 <= free < inst.k:
            raise ValidationError(f"set index {free} out of range")
        if set(fixed) != set(range(inst.k)) - {free}:
            raise ValidationError("fixed values must cover exactly the other sets")
        self.inst = inst
        self.free = free
        self.fixed = {i: Fraction(v) for i, v in fixed.items()}
        for i, v in self.fixed.items():
            if not 0 <= v <= inst.u_R(i):
                raise ValidationError(f"fixed value for set {i} outside [0, u_R]")
        self.ev = evaluator if evaluator is not None else FEvaluator(inst)
        self.u_free = inst.u_R(free)
        self._interval: tuple[Fraction, Fraction] | None = None
        self._resolutions: dict[Fraction, Order] = {}
        self._def_cache: dict[Fraction, tuple] = {}
        # Irrational roots on curved pieces are isolated to width tol.
        self.tol = self.u_free / (1 << 64) if self.u_free else Fraction(1, 1 << 64)
        self.brackets: dict = {}  # poly_roots' memo, for this slice's life
        coeffs = inst.sets[free].deviation.poly.coeffs
        dens = [v.denominator for v in [*self.fixed.values(), *coeffs]]
        d = lcm(inst.template.den, *dens)
        n = max([abs(c.numerator) for c in coeffs] + [1])
        # Denominator bound on kink positions; only the starting probe width
        # depends on it, correctness never does.
        self._eps_scale = 4 * inst.m * inst.m * d * d * n

    def full_lambda(self, x: Fraction) -> tuple[Fraction, ...]:
        return tuple(
            x if i == self.free else self.fixed[i] for i in range(self.inst.k)
        )

    def sample(self, x: Fraction) -> FSample:
        return self.ev.sample(self.full_lambda(x))

    # -- feasibility interval ------------------------------------------------

    def _deficiency(self, x: Fraction):
        """(report, d, levels): the deficiency at x and its set levels times d."""
        hit = self._def_cache.get(x)
        if hit is None:
            inst, t = self.inst, self.inst.template
            d, lowers, uppers, levels = t.scaled_bounds(inst.check_lambda(self.full_lambda(x)))
            rep = deficiency_int(t.net, lowers, uppers, d)
            hit = self._def_cache[x] = (rep, d, levels)
        return hit

    def _def_cut(self, x: Fraction) -> CutReport:
        # The deficiency is -g_T for the auxiliary min cut T (Hoffman), so
        # the cut's CutReport, which certifies F, prices it too.
        rep, d, levels = self._deficiency(x)
        require(not rep.crosses_return, "return arc in a minimum auxiliary cut")
        cut = self.inst.cut_report(rep.aux_s_side)
        require(
            -cut.scaled_capacity(d, levels) == rep.deficiency * d,
            "support line misses the deficiency value",
        )
        return cut

    def _def_root(self, x: Fraction, end: Fraction) -> Fraction:
        """The deficiency's first zero walking from x toward `end`.

        Each step lands on the nearest root of -P, where P is the tight
        auxiliary cut's g_T with each forward member's term fixed to u or
        Delta by its clamp state just past x in the walk's direction.  -P
        equals the deficiency at x, is convex, and never exceeds the
        deficiency (min(u, Delta) is at most either term), so its root
        never passes a zero.  On affine sets -P is the tangent line.

        A rational root is an exact step.  An irrational one (degree two
        and up) is bracketed to width `tol`.  Walking left, the walk steps
        to the bracket's lower end; where that is feasible the zero lies
        in the bracket, and the answer is the bracket's simplest rational
        if feasible, else the lower end.  Walking right, neither end is
        safe (the lower one is tight on the same cut again, the upper one
        may pass the whole interval), so UnsupportedDeviation is raised.
        That needs an infeasible zero parameter, which one set never has.
        """
        forward = end >= x
        members = len(self.inst.sets[self.free].edges)
        dev = self.inst.sets[self.free].deviation
        # -P is fixed up to a constant by its (live forward, backward)
        # member counts, at most (|S|+1)(|S|+2)/2 shapes for the free set S.
        # Two steps with one shape, the later at y where -P_j(y) > 0, would
        # need -P_i(y) <= 0, since y lies between the zero and the root of
        # -P_i; and -P_j <= deficiency = -P_i at the earlier point.  The two
        # differ by a constant, so both cannot hold: every shape is tight
        # at most once, and one more pass sees the zero.
        for _ in range((members + 1) * (members + 2) // 2 + 1):
            short = self._deficiency(x)[0].deficiency
            if short == 0:
                return x
            sc = self._def_cut(x).sets[self.free]
            live, back = sc.live(x, right=forward), sc.backward_count
            lo, hi = min(x, end), max(x, end)
            if live and dev.degree > 1:
                # -P(y) = short - live * (Delta(y) - Delta(x)) + back * (y - x)
                roots = self.roots(-sc.support(x, -short, live), lo, hi)
            else:
                # -P is the line short + slope * (y - x): its root is exact.
                slope = back - live * dev.derivative_at(x)
                r = x - short / slope if slope else None
                roots = [Root.exact(r)] if slope and lo <= r <= hi else []
            if forward:
                if not roots:
                    raise Infeasible(
                        "no feasible value for the free parameter on this slice",
                        context={"free": self.free, "fixed": dict(self.fixed)},
                    )
                if not roots[0].is_exact:
                    raise UnsupportedDeviation(
                        "irrational lower end of the feasible interval"
                    )
                x = roots[0].lo
                continue
            require(bool(roots), "leftward root search lost its zero")
            r = roots[-1]
            x = r.lo
            if r.is_exact or self._deficiency(x)[0].deficiency:
                continue
            snap = simplest_rational_in(r.lo, r.hi)
            if snap != x and self._deficiency(snap)[0].deficiency == 0:
                return snap
            return x
        raise InternalError("deficiency root search failed to converge")

    def roots(self, poly: PolyValue, lo: Fraction, hi: Fraction) -> list[Root]:
        """``poly_roots`` on [lo, hi] to width `tol`, each root bracket
        bisected once in the slice's life."""
        return poly_roots(poly, lo, hi, self.tol, self.brackets)

    def feasible_interval(self) -> tuple[Fraction, Fraction]:
        """Endpoints of the feasible parameter interval, exact where rational.

        An irrational right end, possible on curved pieces, is answered
        within `tol` below it (see `_def_root`); an irrational left end
        raises UnsupportedDeviation.  Raises Infeasible when no value of
        the free parameter admits a flow at the given fixed values.
        """
        if self._interval is None:
            af = self._def_root(_ZERO, self.u_free)
            bf = self._def_root(self.u_free, af)
            require(af <= bf, "feasible interval endpoints out of order")
            self._interval = (af, bf)
        return self._interval

    # -- probe resolution ----------------------------------------------------

    def resolve(self, x) -> Order:
        """Place the slice optimum relative to x.  Exact, no tolerance.

        LESS: the optimum lies below x; EQUAL: x is the optimum; GREATER:
        the optimum lies above x.
        """
        if not isinstance(x, Fraction):
            x = Fraction(x)
        hit = self._resolutions.get(x)
        if hit is not None:
            return hit
        out = self._resolve(x)
        self._resolutions[x] = out
        return out

    def _resolve(self, x: Fraction) -> Order:
        af, bf = self.feasible_interval()
        if x < af:
            return Order.GREATER
        if x > bf:
            return Order.LESS
        if af == bf:
            return Order.EQUAL
        fx = self.sample(x)
        require(fx.feasible, "query point inside the feasible interval is infeasible")
        # Each window is a sixteenth of the last.  A chord is certified
        # when the one-sided slope of its probe's cut, facing x, equals
        # it: that proves F linear between x and the probe.
        eps = min(Fraction(1, 2 * self._eps_scale * x.denominator), bf - af)
        for _ in range(80):
            cl = cr = None
            cert_l = cert_r = False
            if x > af:
                t1 = x - min(eps, x - af)
                s1 = self.sample(t1)
                require(s1.feasible, "probe is infeasible")
                cl = (fx.value - s1.value) / (x - t1)
                cert_l = s1.report.right_slope(self.free, t1) == cl
            if x < bf:
                t2 = x + min(eps, bf - x)
                s2 = self.sample(t2)
                require(s2.feasible, "probe is infeasible")
                cr = (s2.value - fx.value) / (t2 - x)
                cert_r = s2.report.left_slope(self.free, t2) == cr
            # Chord verdicts need no certificate: concavity alone makes a
            # flat-or-falling left chord push the smallest maximizer left,
            # and a rising right chord push it right.
            if cl is not None and cl <= 0:
                return Order.LESS
            if cr is not None and cr > 0:
                return Order.GREATER
            if cl is None:
                if cert_r:
                    return Order.EQUAL
            elif cr is None:
                if cert_l:
                    return Order.EQUAL
            elif cert_l and cert_r:
                cross = ((s2.value - cr * t2) - (s1.value - cl * t1)) / (cl - cr)
                require(cross == x, "certified probe lines miss the query point")
                return Order.EQUAL
            eps /= 16
        raise InternalError("probe window failed to certify a verdict")

    # -- parametric solve ----------------------------------------------------

    def solve(self) -> SliceOpt:
        """Smallest maximizer of F along the slice, and its value.

        Needs an affine deviation on the free set; nonlinear shapes go
        through the dedicated concave solver.
        """
        dev = self.inst.sets[self.free].deviation
        if dev.degree > 1:
            raise UnsupportedDeviation(
                "parametric slice solve handles affine deviations only"
            )
        af, bf = self.feasible_interval()
        if af == bf:
            return self._finish(af)
        box = [af, bf]

        def locate(tau: Fraction) -> Order:
            if tau < box[0]:
                return Order.GREATER
            if tau > box[1]:
                return Order.LESS
            where = self.resolve(tau)
            if where is Order.EQUAL:
                raise _PinnedAt(tau)
            box[1 if where is Order.LESS else 0] = tau
            return where

        def sign_of(d: PolyValue) -> Order:
            return _threshold_sign(d, locate)

        def clamped(u: Fraction) -> bool:
            return _sign(dev.poly - PolyValue.constant(u), sign_of) is Order.GREATER

        try:
            lower, upper = slice_bounds(self.inst, self.free, self.fixed, clamped)
            total = symbolic_max_flow(self.inst, lower, upper, sign_of, box)
        except _PinnedAt as p:
            return self._finish(p.value)
        slope = total.coeffs[1] if total.degree >= 1 else _ZERO
        star = box[1] if slope > 0 else box[0]
        out = self._finish(star)
        require(out.value == total.eval(star), "affine value disagrees at the optimum")
        return out

    def _finish(self, x: Fraction) -> SliceOpt:
        s = self.sample(x)
        require(s.feasible, "slice optimum is infeasible")
        return SliceOpt(x, s.value)


def slice_bounds(
    inst: Instance,
    free: int,
    fixed: dict[int, Fraction],
    clamped: Callable[[Fraction], bool],
) -> tuple[list[PolyValue], list[PolyValue]]:
    """Per-edge bounds as polynomials in the free set's parameter.

    Pinned sets get constant bounds.  `clamped(u)` says whether a free
    member of capacity u is capped at u rather than at the deviation.
    """
    dev = inst.sets[free].deviation
    lam = PolyValue((_ZERO, Fraction(1)))
    lower: list[PolyValue] = []
    upper: list[PolyValue] = []
    for e, u in enumerate(inst.capacities):
        i = inst.set_of_edge(e)
        if i is None:
            lower.append(_NIL)
            upper.append(PolyValue.constant(u))
        elif i != free:
            fx = fixed[i]
            lower.append(PolyValue.constant(fx))
            upper.append(PolyValue.constant(min(u, inst.sets[i].deviation(fx))))
        else:
            lower.append(lam)
            upper.append(PolyValue.constant(u) if clamped(u) else dev.poly)
    return lower, upper


def _threshold_sign(d: PolyValue, locate: Callable[[Fraction], Order]) -> Order:
    """Sign at the optimum of a degree-one `d`, by placing its root.

    ``d(x) = c1 * (x - t)`` with ``t = -c0 / c1``: `locate` says on which
    side of t the optimum lies, and the slope's sign turns that side into
    the sign of d.
    """
    require(d.degree == 1, "slice comparison is not affine in the parameter")
    c0, c1 = d.coeffs
    where = locate(-c0 / c1)
    return where if c1 > 0 else Order(-where.value)


def _sign(d: PolyValue, sign_of: SignOracle) -> Order:
    """Sign of `d` at the optimum; a constant needs no oracle."""
    if d.degree > 0:
        return sign_of(d)
    if d.is_zero():
        return Order.EQUAL
    return Order.GREATER if d.coeffs[0] > 0 else Order.LESS


class _SymNet:
    """Residual network whose capacities are polynomials in one parameter.

    Mirrors the integer engine arc for arc; every branch taken is the sign
    of a capacity or a capacity difference at the unknown optimum, asked
    of `sign_of`, so consistent answers make the run replay the concrete
    algorithm at the optimum.
    """

    __slots__ = ("n", "to", "cap", "adj", "sign_of")

    def __init__(self, n: int, sign_of: SignOracle):
        self.n = n
        self.to: list[int] = []
        self.cap: list[PolyValue] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.sign_of = sign_of

    def add(self, u: int, v: int, c: PolyValue) -> int:
        a = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.adj[u].append(a)
        self.to.append(u)
        self.cap.append(_NIL)
        self.adj[v].append(a + 1)
        return a

    def disable(self, a: int) -> None:
        self.cap[a] = _NIL
        self.cap[a ^ 1] = _NIL

    def sign(self, d: PolyValue) -> Order:
        return _sign(d, self.sign_of)

    def _bfs(self, s: int, t: int) -> list[int] | None:
        parent = [-1] * self.n
        parent[s] = -2
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                if self.sign(self.cap[a]) is Order.GREATER:
                    v = self.to[a]
                    if parent[v] == -1:
                        parent[v] = a
                        if v == t:
                            return parent
                        q.append(v)
        return None

    def max_flow(self, s: int, t: int) -> PolyValue:
        total = _NIL
        # Edmonds-Karp bound: every augmentation saturates an arc of a
        # shortest path, and an arc saturates again only after its tail's
        # distance from s has grown by two, so each of the len(to) residual
        # arcs saturates at most n/2 times.  Consistent sign answers make
        # this the concrete run at one parameter value, so the bound holds.
        for _ in range(len(self.to) * self.n // 2 + 1):
            parent = self._bfs(s, t)
            if parent is None:
                return total
            push = None
            v = t
            while v != s:
                a = parent[v]
                c = self.cap[a]
                if push is None or self.sign(c - push) is Order.LESS:
                    push = c
                v = self.to[a ^ 1]
            v = t
            while v != s:
                a = parent[v]
                self.cap[a] = self.cap[a] - push
                self.cap[a ^ 1] = self.cap[a ^ 1] + push
                v = self.to[a ^ 1]
            total = total + push
        raise InternalError("symbolic augmentation exceeded the Edmonds-Karp bound")


def symbolic_max_flow(
    inst: Instance,
    lower: list[PolyValue],
    upper: list[PolyValue],
    sign_of: SignOracle,
    box: list[Fraction],
) -> PolyValue:
    """Max-flow value under per-edge polynomial bounds, as a polynomial.

    The lower bounds are routed first: a circulation through a sink-to-
    source return arc covers every node's lower-bound imbalance from a
    super source to a super sink.  The helper arcs are then dropped, the
    return arc's flow is kept as the starting value, and augmentation
    continues from source to sink.  Every comparison goes to `sign_of`,
    which may shrink `box`; the result is the value function on the final
    box, on all of which the lower bounds must be covered.
    """
    g = inst.graph
    n = inst.n
    sigma, tau_node = n, n + 1
    net = _SymNet(n + 2, sign_of)
    for e in g.edges:
        net.add(e.tail, e.head, upper[e.id] - lower[e.id])
    excess = [_NIL] * n
    for e in g.edges:
        excess[e.head] = excess[e.head] + lower[e.id]
        excess[e.tail] = excess[e.tail] - lower[e.id]
    ts = net.add(g.sink, g.source, PolyValue.constant(sum(inst.capacities) + 1))
    helpers = [ts]
    required = _NIL
    for v in range(n):
        sign = net.sign(excess[v])
        if sign is Order.GREATER:
            helpers.append(net.add(sigma, v, excess[v]))
            required = required + excess[v]
        elif sign is Order.LESS:
            helpers.append(net.add(v, tau_node, -excess[v]))
    short = required - net.max_flow(sigma, tau_node)
    # The whole box is feasible, so the circulation covers every lower
    # bound across it, not just at one point.
    require(
        short.eval(box[0]) == 0 and short.eval(box[1]) == 0,
        "lower bounds uncovered inside the feasible interval",
    )
    carried = net.cap[ts ^ 1]
    for a in helpers:
        net.disable(a)
    return carried + net.max_flow(g.source, g.sink)

