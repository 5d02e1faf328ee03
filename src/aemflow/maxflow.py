"""Maximum flow with lower and upper bounds, exact and deterministic.

The engine is Edmonds-Karp on integers.  Augmenting paths are shortest by
edge count; the BFS scans arcs in ascending id order (insertion order),
which fixes the path choice and makes every result, including the
extracted min cut, a pure function of the input.

The whole API is `bounded_max_flow_int` and `deficiency_int`, on integer
bounds in units of 1/d.  Path choice depends only on which residuals are
positive, so any common scale of the bounds gives the same flows and
cuts.  Rationals stay at the edges: `instance.ArcTemplate` scales each F
sample by what moves, and only `FEvaluator.result` turns flows back into
`Fraction`s.

Lower bounds go through the usual circulation transformation: saturate
every lower bound, route the resulting node imbalances through a
super-source and super-sink, and close the s-t pair with a high-capacity
return arc.  The instance is feasible exactly when the super-source's arcs
saturate; the shortfall (deficiency) and the super-source side of the
auxiliary min cut are exposed separately because parametric callers use
them to reason about how infeasibility varies with the parameter.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import Infeasible, ValidationError

__all__ = ["DeficiencyReport", "bounded_max_flow_int", "deficiency_int"]


Pairs = Sequence[tuple[int, int]]


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

    def disable(self, a: int) -> None:
        self.cap[a] = 0
        self.cap[a ^ 1] = 0

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


def _aux_net(n: int, pairs: Pairs, s: int, t: int, lowers: list[int], uppers: list[int]):
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


def bounded_max_flow_int(
    n: int, pairs: Pairs, s: int, t: int, lowers: list[int], uppers: list[int], d: int
) -> tuple[int, list[int], frozenset[int]]:
    """Max s-t flow, edge flows (both in units of 1/d) and a min cut's s side.

    Raises Infeasible, with the shortfall over d, when the lower bounds
    admit no flow at all.
    """
    if not any(lowers):
        net = _Net(n)
        ids = [net.add(u, v, c) for (u, v), c in zip(pairs, uppers)]
        value = net.max_flow(s, t)
        return value, [net.cap[a ^ 1] for a in ids], net.reachable(s)
    net, base, helpers, ts, required, sigma, tau = _aux_net(
        n, pairs, s, t, lowers, uppers
    )
    got = net.max_flow(sigma, tau)
    if got < required:
        short = Fraction(required - got, d)
        raise Infeasible(
            f"lower bounds unsatisfiable: circulation short by {short}",
            context={"deficiency": short},
        )
    carried = net.cap[ts ^ 1]
    for a in helpers:
        net.disable(a)
    value = carried + net.max_flow(s, t)
    flows = [l + net.cap[a ^ 1] for l, a in zip(lowers, base)]
    return value, flows, net.reachable(s) & frozenset(range(n))


def deficiency_int(
    n: int, pairs: Pairs, s: int, t: int, lowers: list[int], uppers: list[int], d: int
) -> DeficiencyReport:
    """Shortfall of the circulation phase and its certifying cut, as rationals.

    The deficiency is the total lower bound the circulation cannot cover;
    zero means the bounds are satisfiable.  The reported node set is the
    super-source side of a min cut in the auxiliary network, restricted to
    the original nodes (the super-source itself is dropped).
    """
    net, _, _, ts, required, sigma, tau = _aux_net(n, pairs, s, t, lowers, uppers)
    got = net.max_flow(sigma, tau)
    raw_side = net.reachable(sigma)
    return DeficiencyReport(
        Fraction(required - got, d),
        raw_side & frozenset(range(n)),
        t in raw_side and s not in raw_side,
    )
