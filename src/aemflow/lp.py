"""Exact linear programming over flows and parameters jointly.

With affine nondecreasing deviations the member bounds are linear in the
parameters, so flows f and parameters lam share one program: conservation
equalities, capacity bounds, and per member f >= lam_i together with
f <= Delta_i(lam_i).  Leaving lam_i free rather than pinning it to the
set minimum loses nothing: raising lam_i to min f never breaks an upper
bound when Delta_i is nondecreasing, so the relaxation has the same
optimal value and the same set of achievable parameter vectors.

The reported vector is canonicalized to the lexicographically smallest
optimum: after the value solve, each parameter in turn is minimized with
the value pinned and the earlier parameters fixed.  The flow and the cut
certificate are then recomputed exactly at that vector by the flow
machinery, which re-checks value against certificate.

The backend is a two-phase tableau simplex on exact rationals with
Bland's rule, deterministic and cycle-free.  The tableau is mostly zeros
(a few percent nonzero on the gadget and random programs), so a pivot
divides only the nonzero entries of the pivot row and eliminates only in
rows whose pivot-column entry is nonzero, touching just those columns.
Each phase prices its reduced-cost row once and carries it below the
basic rows, where every pivot updates it like any other row, instead of
re-pricing it from the basis on every iteration.  Rows stay dense Python
lists, so the ratio test reads a column in place.  Integral entries, the
great majority on these flow programs, are held as ints and the rest as
Fractions; every division goes through Fraction, so no float arises.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedDeviation, require
from .instance import FEvaluator, Instance, SolveResult

__all__ = ["solve_lp_constant"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _exact(v):
    """``v`` as an int when it is integral; int arithmetic is far cheaper."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


def _pivot(tab, basis, prow, pcol):
    """Pivot on (prow, pcol), touching only the pivot row's nonzero columns.

    Every row of ``tab`` is eliminated, including the reduced-cost row
    that ``_optimize`` keeps below the basic rows.
    """
    row = tab[prow]
    piv = row[pcol]
    nz = [j for j, v in enumerate(row) if v]
    if piv != 1:
        for j in nz:
            row[j] = _exact(Fraction(row[j]) / piv)
    for i, r in enumerate(tab):
        f = r[pcol]
        if f and i != prow:
            for j in nz:
                r[j] = _exact(r[j] - f * row[j])
    basis[prow] = pcol


def _optimize(tab, basis, cost, ncols):
    """Run Bland-rule pivots to optimality; False means unbounded.

    The reduced-cost row is priced once and appended to ``tab`` for the
    duration, so each pivot updates it instead of a full re-pricing.
    """
    red = [_exact(v) for v in cost] + [0]
    for row, bi in zip(tab, basis):
        cb = cost[bi]
        if cb:
            for j, v in enumerate(row):
                if v:
                    red[j] = _exact(red[j] - cb * v)
    rows = len(basis)
    tab.append(red)
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), -1)
        if enter == -1:
            break
        leave, best = -1, None
        for i in range(rows):
            row = tab[i]
            a = row[enter]
            if a > 0:
                ratio = Fraction(row[-1]) / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave == -1:
            break
        _pivot(tab, basis, leave, enter)
    tab.pop()
    return enter == -1


def _simplex_min(c, A, b):
    """Minimize c.x over A x <= b, x >= 0; None when infeasible."""
    m, n = len(A), len(c)
    nart = sum(1 for v in b if v < 0)
    base = n + m
    tab, basis, art = [], [], 0
    for i in range(m):
        row = [_exact(v) for v in A[i]] + [0] * (m + nart) + [_exact(b[i])]
        row[n + i] = 1
        if b[i] < 0:
            row = [-v for v in row]
            col = base + art
            row[col] = 1
            art += 1
            basis.append(col)
        else:
            basis.append(n + i)
        tab.append(row)

    if nart:
        cost1 = [0] * base + [1] * nart
        ok = _optimize(tab, basis, cost1, base + nart)
        require(ok, "phase one is bounded below by zero")
        if sum(tab[i][-1] for i, bi in enumerate(basis) if bi >= base):
            return None
        for i, bi in enumerate(basis):
            if bi >= base:
                piv = next((j for j in range(base) if tab[i][j]), None)
                if piv is not None:
                    _pivot(tab, basis, i, piv)
        keep = [i for i, bi in enumerate(basis) if bi < base]
        tab = [tab[i][:base] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost2 = list(c) + [_ZERO] * m
    ok = _optimize(tab, basis, cost2, base)
    require(ok, "flow programs are bounded by their capacities")
    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][-1])
    return x


def _check_affine(inst: Instance) -> None:
    for i, hs in enumerate(inst.sets):
        poly = hs.deviation.poly
        if poly.degree > 1:
            raise UnsupportedDeviation(
                f"set {i}: linear programming needs affine deviations"
            )
        if poly.degree == 1 and poly.coeffs[1] < 0:
            raise UnsupportedDeviation(
                f"set {i}: decreasing deviations are outside the exact "
                "relaxation"
            )


class _Program:
    """Shared constraint rows; objectives and pins vary per solve."""

    def __init__(self, inst: Instance):
        self.inst = inst
        m, k = inst.m, inst.k
        self.nvar = m + k
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []

        def add(pairs, limit):
            row = [_ZERO] * self.nvar
            for j, coeff in pairs:
                row[j] = Fraction(coeff)
            self.rows.append(row)
            self.rhs.append(Fraction(limit))

        for v in range(inst.n):
            if v in (inst.graph.source, inst.graph.sink):
                continue
            pairs = {}
            for e in inst.graph.edges:
                if e.head == v:
                    pairs[e.id] = pairs.get(e.id, _ZERO) + 1
                if e.tail == v:
                    pairs[e.id] = pairs.get(e.id, _ZERO) - 1
            add(pairs.items(), 0)
            add([(j, -c) for j, c in pairs.items()], 0)

        for i, hs in enumerate(inst.sets):
            poly = hs.deviation.poly
            a0 = poly.coeffs[0] if poly.coeffs else _ZERO
            a1 = poly.coeffs[1] if poly.degree >= 1 else _ZERO
            for e in hs.edges:
                add([(e, -_ONE), (m + i, _ONE)], 0)
                add([(e, _ONE), (m + i, -a1)], a0)

        for e, u in enumerate(inst.capacities):
            add([(e, _ONE)], u)
        for i in range(k):
            add([(m + i, _ONE)], inst.u_R(i))

        self.value_row = [_ZERO] * self.nvar
        for e in inst.graph.edges:
            if e.tail == inst.graph.source:
                self.value_row[e.id] += 1
            if e.head == inst.graph.source:
                self.value_row[e.id] -= 1

    def solve(self, objective, extra=(), pins=()):
        """Minimize objective; exact variable values, or None if infeasible."""
        rows = list(self.rows)
        rhs = list(self.rhs)
        for row, limit in extra:
            rows.append(row)
            rhs.append(limit)
        for var, val in pins:
            row = [_ZERO] * self.nvar
            row[var] = _ONE
            rows.append(row)
            rhs.append(Fraction(val))
            rows.append([-v for v in row])
            rhs.append(-Fraction(val))
        return _simplex_min(objective, rows, rhs)


def _lp_optimum(inst: Instance) -> tuple[tuple[Fraction, ...], Fraction]:
    """Lexicographically smallest optimal parameter vector and its value."""
    _check_affine(inst)
    prog = _Program(inst)
    m, k = inst.m, inst.k

    goal = [-c for c in prog.value_row]
    xs = prog.solve(goal)
    require(xs is not None, "the all-zero vector is always feasible")
    value = sum(c * x for c, x in zip(prog.value_row, xs))
    value_pin = ((goal, -value),)

    pins: list[tuple[int, Fraction]] = []
    for i in range(k):
        obj = [_ZERO] * prog.nvar
        obj[m + i] = _ONE
        xs = prog.solve(obj, extra=value_pin, pins=pins)
        require(xs is not None, "value pin cannot cut off the optimum")
        pins.append((m + i, xs[m + i]))
    return tuple(val for _, val in pins), value


def solve_lp_constant(inst: Instance) -> SolveResult:
    """Lexicographically smallest optimum via exact simplex."""
    lam, value = _lp_optimum(inst)
    out = FEvaluator(inst).result(lam)
    require(out.opt_value == value, "flow recomputation must match the program")
    return out

