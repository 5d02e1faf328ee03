"""Maximum flow with lower and upper bounds, exact and deterministic.

The engine is Edmonds-Karp on integers.  Augmenting paths are shortest by
edge count; the BFS scans arcs in ascending id order (insertion order),
which fixes the path choice and makes every result, including the
extracted min cut, a pure function of the input.

The whole API is `Network`, `bounded_max_flow_int` and `deficiency_int`,
on integer bounds in units of 1/d.  Path choice depends only on which
residuals are positive, so any common scale of the bounds gives the same
flows and cuts.  Rationals stay at the edges: `instance.ArcTemplate`
scales each F sample by what moves, and only `FEvaluator.result` turns
flows back into `Fraction`s.

Lower bounds go through the usual circulation transformation: saturate
every lower bound, route the resulting node imbalances through a
super-source and super-sink, and close the s-t pair with a high-capacity
return arc.  The instance is feasible exactly when the super-source's arcs
saturate; the shortfall (deficiency) and the super-source side of the
auxiliary min cut are exposed separately because parametric callers use
them to reason about how infeasibility varies with the parameter.

A `Network` holds the arcs of that transformation for every possible
imbalance, compiled once per graph: the base arcs, the return arc, and a
super-source arc into and a super-sink arc out of every node.  A max flow
fills only a fresh list of residual capacities over them.  An arc of zero
capacity is never on a path, so the helpers that a set of bounds leaves
at zero change no path, flow or cut: each result is the one a network
built with just the arcs in use would give.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import Infeasible, ValidationError

__all__ = ["DeficiencyReport", "Network", "bounded_max_flow_int", "deficiency_int"]


class DeficiencyReport(NamedTuple):
    deficiency: Fraction
    aux_s_side: frozenset[int]
    crosses_return: bool


class _Net:
    """Residual network over ints; arc 2i+1 is the reverse of arc 2i."""

    __slots__ = ("n", "to", "cap", "adj")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> int:
        a = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.adj[u].append(a)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(a + 1)
        return a

    def residual(self, cap: list[int]) -> _Net:
        """A network over these arcs with its own residual capacities."""
        net = _Net.__new__(_Net)
        net.n, net.to, net.adj, net.cap = self.n, self.to, self.adj, cap
        return net

    def _bfs(self, s: int, t: int) -> list[int] | None:
        parent = [-1] * self.n
        parent[s] = -2
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                if self.cap[a] > 0:
                    v = self.to[a]
                    if parent[v] == -1:
                        parent[v] = a
                        if v == t:
                            return parent
                        q.append(v)
        return None

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            parent = self._bfs(s, t)
            if parent is None:
                return total
            push = None
            v = t
            while v != s:
                a = parent[v]
                push = self.cap[a] if push is None else min(push, self.cap[a])
                v = self.to[a ^ 1]
            v = t
            while v != s:
                a = parent[v]
                self.cap[a] -= push
                self.cap[a ^ 1] += push
                v = self.to[a ^ 1]
            total += push

    def reachable(self, s: int) -> frozenset[int]:
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                if self.cap[a] > 0 and not seen[self.to[a]]:
                    seen[self.to[a]] = True
                    q.append(self.to[a])
        return frozenset(i for i, f in enumerate(seen) if f)


class Network:
    """An s-t network's circulation arcs, compiled once.

    Arc 2e is edge e, arc 2m the t->s return arc, and node v's helpers are
    sigma->v at 2m + 2 + 4v and v->tau at 2m + 4 + 4v, with sigma = n and
    tau = n + 1; every odd arc is the reverse of the one before it.  This
    is the order in which a network built per call adds the arcs it uses,
    so each node scans its positive arcs in the same order.
    """

    __slots__ = ("n", "s", "t", "pairs", "nodes", "arcs")

    def __init__(self, n: int, pairs: Sequence[tuple[int, int]], s: int, t: int):
        self.n, self.s, self.t = n, s, t
        self.pairs = list(pairs)
        self.nodes = frozenset(range(n))
        arcs = self.arcs = _Net(n + 2)
        for u, v in self.pairs:
            arcs.add(u, v, 0)
        arcs.add(t, s, 0)
        for v in range(n):
            arcs.add(n, v, 0)
            arcs.add(v, n + 1, 0)


def _aux_net(net: Network, lowers: list[int], uppers: list[int]) -> tuple[_Net, int]:
    """Circulation network: base arcs at u-l, imbalance arcs, t->s return
    arc; and the total lower bound the super-source must send."""
    cap = [0] * len(net.arcs.to)
    excess = [0] * net.n
    for a, ((u, v), l, c) in enumerate(zip(net.pairs, lowers, uppers)):
        if l > c:
            raise ValidationError(f"arc ({u},{v}): lower bound exceeds upper")
        if l < 0:
            raise ValidationError(f"arc ({u},{v}): negative lower bound")
        cap[2 * a] = c - l
        excess[v] += l
        excess[u] -= l
    m2 = 2 * len(net.pairs)
    cap[m2] = sum(uppers) + 1
    required, h = 0, m2 + 2
    for x in excess:
        if x > 0:
            cap[h] = x
            required += x
        elif x < 0:
            cap[h + 2] = -x
        h += 4
    return net.arcs.residual(cap), required


def _circulate(net: Network, lowers: list[int], uppers: list[int]) -> tuple[_Net, int]:
    """The circulation phase's residual network and its shortfall."""
    res, required = _aux_net(net, lowers, uppers)
    return res, required - res.max_flow(net.n, net.n + 1)


def _max_flow(
    net: Network, lowers: list[int], uppers: list[int]
) -> tuple[_Net, int | None, int]:
    """(residual network, max s-t flow value, shortfall of the lower bounds).

    When the shortfall is positive the value is None and the residual
    network is the circulation phase's.
    """
    if not any(lowers):
        cap = [0] * len(net.arcs.to)
        cap[0 : 2 * len(uppers) : 2] = uppers
        res = net.arcs.residual(cap)
        return res, res.max_flow(net.s, net.t), 0
    res, short = _circulate(net, lowers, uppers)
    if short:
        return res, None, short
    m2, cap = 2 * len(uppers), res.cap
    carried = cap[m2 + 1]
    cap[m2:] = [0] * (len(cap) - m2)
    return res, carried + res.max_flow(net.s, net.t), 0


def _report(net: Network, res: _Net, short: int, d: int) -> DeficiencyReport:
    """The circulation phase's shortfall over d and its min cut's sigma side."""
    side = res.reachable(net.n)
    return DeficiencyReport(
        Fraction(short, d), side & net.nodes, net.t in side and net.s not in side
    )


def bounded_max_flow_int(
    net: Network, lowers: list[int], uppers: list[int], d: int
) -> tuple[int, list[int], frozenset[int]]:
    """Max s-t flow, edge flows (both in units of 1/d) and a min cut's s side.

    Raises Infeasible when the lower bounds admit no flow at all; its
    context is the failed circulation's `DeficiencyReport`.
    """
    res, value, short = _max_flow(net, lowers, uppers)
    if short:
        rep = _report(net, res, short, d)
        raise Infeasible(
            f"lower bounds unsatisfiable: circulation short by {rep.deficiency}",
            context=rep,
        )
    flows = [l + f for l, f in zip(lowers, res.cap[1 : 2 * len(lowers) : 2])]
    return value, flows, res.reachable(net.s) & net.nodes


def deficiency_int(
    net: Network, lowers: list[int], uppers: list[int], d: int
) -> DeficiencyReport:
    """Shortfall of the circulation phase and its certifying cut, as rationals.

    The deficiency is the total lower bound the circulation cannot cover;
    zero means the bounds are satisfiable.  The reported node set is the
    super-source side of a min cut in the auxiliary network, restricted to
    the original nodes (the super-source itself is dropped).
    """
    res, short = _circulate(net, lowers, uppers)
    return _report(net, res, short, d)
