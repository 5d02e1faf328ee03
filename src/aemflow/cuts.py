"""Cut certificates and their parameter-dependent capacity.

A cut report freezes everything needed to re-evaluate the cut's capacity as
a function of the homologous parameters: the plain-edge capacity crossing
forward, and per homologous set the forward member upper bounds, the
backward crossing count and the set's deviation function.  The capacity is

    g_S(lam) = const + sum_i [ sum_{r fwd} min(u_r, Delta_i(lam_i)) - bwd_i * lam_i ]

which is concave in each lam_i whenever Delta_i is concave.  One-sided
slopes at a point follow from which forward members are clamped at their
upper bound there; they are exactly the one-sided derivatives of g_S and,
since g_S supports the instance's value function from above, they bound the
value function's growth on the corresponding side.

The same price serves infeasibility.  For any node set T, lower bounds
entering T minus upper bounds leaving it is -g_T(lam).  By Hoffman's
circulation theorem (1960) the deficiency is the largest such value over
the sets T that do not hold t without s, and the auxiliary min cut's T
attains it.  So F's certificates and the support functions of the
deficiency that `Slice.feasible_interval` follows, straight or curved,
are both priced here, by one clamp rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .values import DeviationFn, PolyValue

__all__ = ["SetCrossing", "CutReport"]


@dataclass(frozen=True)
class SetCrossing:
    """How one homologous set crosses a cut."""

    forward_uppers: tuple[Fraction, ...]
    backward_count: int
    deviation: DeviationFn

    @property
    def d_R(self) -> int:
        return len(self.forward_uppers) - self.backward_count

    def live(self, lam: Fraction, right: bool) -> int:
        """Forward members below their upper bound just above (right) or
        just below lam: those whose term min(u, Delta) follows Delta there."""
        dx = self.deviation(lam)
        if right:
            return sum(1 for u in self.forward_uppers if dx < u)
        return sum(1 for u in self.forward_uppers if dx <= u)

    def support(self, x: Fraction, value: Fraction, live: int) -> PolyValue:
        """The set's terms with every member frozen at its clamp state, as
        a polynomial equal to `value` at x:

            P(y) = value + live * (Delta(y) - Delta(x)) - back * (y - x)

        where `live` counts the forward members that follow Delta on the
        side of x in question (see `live`).
        """
        back = self.backward_count
        return (
            PolyValue.constant(value - live * self.deviation(x) + back * x)
            + self.deviation.poly.scale(live)
            - PolyValue((0, back))
        )


@dataclass(frozen=True)
class CutReport:
    """An s-side node set with the data to evaluate g_S at any parameter."""

    s_side: frozenset[int]
    capacity_const: Fraction
    sets: tuple[SetCrossing, ...] = ()

    def d_R(self, i: int) -> int:
        return self.sets[i].d_R

    def capacity_at(self, lam: Sequence[Fraction]) -> Fraction:
        if len(lam) != len(self.sets):
            raise ValueError("parameter count does not match set count")
        total = self.capacity_const
        for x, sc in zip(lam, self.sets):
            dx = sc.deviation(x)
            for u in sc.forward_uppers:
                total += min(u, dx)
            total -= sc.backward_count * x
        return total

    def scaled_capacity(self, d: int, levels: Sequence[tuple[int, int]]) -> int:
        """d * g_S(lam), from each set's (lam_i, Delta_i(lam_i)) times d.

        d must clear the denominators of the cut's capacities.
        """
        c = self.capacity_const
        total = c.numerator * (d // c.denominator)
        for (lo, hi), sc in zip(levels, self.sets):
            for u in sc.forward_uppers:
                u = u.numerator * (d // u.denominator)
                total += u if u < hi else hi
            total -= sc.backward_count * lo
        return total

    def right_slope(self, i: int, lam_i: Fraction) -> Fraction:
        """Derivative of g_S in lam_i just above lam_i (clamped members frozen)."""
        sc = self.sets[i]
        rate = sc.deviation.derivative_at(lam_i)
        return sc.live(lam_i, True) * rate - sc.backward_count

    def left_slope(self, i: int, lam_i: Fraction) -> Fraction:
        """Derivative of g_S in lam_i just below lam_i."""
        sc = self.sets[i]
        rate = sc.deviation.derivative_at(lam_i)
        return sc.live(lam_i, False) * rate - sc.backward_count
