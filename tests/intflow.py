"""Rational bounds in and out of the integer max-flow core, for tests.

Arcs are (tail, head, lower, upper) with rational bounds.  They are scaled
by the lcm d of every bound denominator, the core runs in units of 1/d,
and its value and flows come back as `Fraction`s.

`ref_bounded_flow` and `ref_deficiency` are the reference for the compiled
`maxflow.Network`: they build the residual network per call, arc by arc,
with only the circulation helpers the bounds need, as the core did before
it compiled each network once.  They share only `maxflow._Net`'s
Edmonds-Karp loop with the core.
"""

from fractions import Fraction
from math import lcm

from aemflow.errors import Infeasible, ValidationError
from aemflow.maxflow import (
    DeficiencyReport,
    Network,
    _Net,
    bounded_max_flow_int,
    deficiency_int,
)


def scaled(arcs):
    """Pairs, d, and the lower and upper bounds times d."""
    bounds = [(Fraction(a[2]), Fraction(a[3])) for a in arcs]
    d = lcm(*(x.denominator for b in bounds for x in b))
    lowers = [int(lo * d) for lo, _ in bounds]
    uppers = [int(up * d) for _, up in bounds]
    return [(a[0], a[1]) for a in arcs], d, lowers, uppers


def _as_fractions(value, flows, side, d):
    return Fraction(value, d), tuple(Fraction(f, d) for f in flows), side


def bounded_flow(n, arcs, s=0, t=1):
    """(value, flows, s side of a min cut); raises Infeasible like the core."""
    pairs, d, lowers, uppers = scaled(arcs)
    net = Network(n, pairs, s, t)
    return _as_fractions(*bounded_max_flow_int(net, lowers, uppers, d), d)


def deficiency(n, arcs, s=0, t=1):
    pairs, d, lowers, uppers = scaled(arcs)
    return deficiency_int(Network(n, pairs, s, t), lowers, uppers, d)


def _ref_aux_net(n, pairs, s, t, lowers, uppers):
    """Circulation network: base arcs at u-l, imbalance arcs, t->s return arc."""
    sigma, tau = n, n + 1
    net = _Net(n + 2)
    base = []
    excess = [0] * n
    for (u, v), l, c in zip(pairs, lowers, uppers):
        if l > c:
            raise ValidationError(f"arc ({u},{v}): lower bound exceeds upper")
        if l < 0:
            raise ValidationError(f"arc ({u},{v}): negative lower bound")
        base.append(net.add(u, v, c - l))
        excess[v] += l
        excess[u] -= l
    big = sum(uppers) + 1
    ts = net.add(t, s, big)
    helpers = [ts]
    required = 0
    for v in range(n):
        if excess[v] > 0:
            helpers.append(net.add(sigma, v, excess[v]))
            required += excess[v]
        elif excess[v] < 0:
            helpers.append(net.add(v, tau, -excess[v]))
    return net, base, helpers, ts, required, sigma, tau


def ref_bounded_flow(n, arcs, s=0, t=1):
    """`bounded_flow` on a network built for this call alone."""
    pairs, d, lowers, uppers = scaled(arcs)
    if not any(lowers):
        net = _Net(n)
        ids = [net.add(u, v, c) for (u, v), c in zip(pairs, uppers)]
        value = net.max_flow(s, t)
        return _as_fractions(value, [net.cap[a ^ 1] for a in ids], net.reachable(s), d)
    net, base, helpers, ts, required, sigma, tau = _ref_aux_net(
        n, pairs, s, t, lowers, uppers
    )
    got = net.max_flow(sigma, tau)
    if got < required:
        raise Infeasible("lower bounds unsatisfiable", context=Fraction(required - got, d))
    carried = net.cap[ts ^ 1]
    for a in helpers:
        net.cap[a] = net.cap[a ^ 1] = 0
    value = carried + net.max_flow(s, t)
    flows = [l + net.cap[a ^ 1] for l, a in zip(lowers, base)]
    return _as_fractions(value, flows, net.reachable(s) & frozenset(range(n)), d)


def ref_deficiency(n, arcs, s=0, t=1):
    """`deficiency` on a network built for this call alone."""
    pairs, d, lowers, uppers = scaled(arcs)
    net, _, _, ts, required, sigma, tau = _ref_aux_net(n, pairs, s, t, lowers, uppers)
    got = net.max_flow(sigma, tau)
    raw_side = net.reachable(sigma)
    return DeficiencyReport(
        Fraction(required - got, d),
        raw_side & frozenset(range(n)),
        t in raw_side and s not in raw_side,
    )
