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
lists, so the ratio test reads a column in place.

Entries are ints wherever they are integral and Fractions only where
they are not: the constraint rows are built that way once per program,
and a pivot turns every integral result back into an int on the spot.
On the flow programs almost every cell is an int and almost every pivot
element is 1, so nearly all of the work is int arithmetic.  The ratio
test compares b_i/a_i with b_j/a_j as b_i*a_j against b_j*a_i (both a
positive), so on int cells it stays in ints.  Every division goes through
Fraction, so no float arises, and every value, hence every choice of
Bland's rule, is exactly what an all-Fraction tableau would hold.

Integral parameter vectors are found by LP branch-and-bound on the
parameters alone (Land and Doig, Econometrica 1960): with integral data,
fixing integral parameters leaves a flow program with integral bounds,
whose optimum over flows is integral, so no flow variable needs a branch.
A node whose parameters come out fractional splits on the first such
lam_i into lam_i <= floor and lam_i >= ceil; a node is dropped when the
floor of its bound cannot beat the incumbent.  The value is maximized
first, then each parameter in turn is minimized with the value and the
earlier parameters pinned, which gives the lexicographically smallest
integral optimum.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .errors import UnsupportedDeviation, require
from .instance import FEvaluator, Instance, SolveResult

__all__ = ["solve_lp_constant"]

_ZERO = Fraction(0)


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
    if piv != 1:
        for j, v in enumerate(row):
            if v:
                x = Fraction(v) / piv
                row[j] = x if x.denominator != 1 else x.numerator
    nz = [(j, v) for j, v in enumerate(row) if v]
    for i, r in enumerate(tab):
        f = r[pcol]
        if f and i != prow:
            for j, v in nz:
                x = r[j] - f * v
                r[j] = x if type(x) is int or x.denominator != 1 else x.numerator
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
                    x = red[j] - cb * v
                    red[j] = x if type(x) is int or x.denominator != 1 else x.numerator
    rows = len(basis)
    tab.append(red)
    while True:
        enter = -1
        for j in range(ncols):
            if red[j] < 0:
                enter = j
                break
        if enter == -1:
            break
        # Smallest ratio b/a over a > 0, compared cross-multiplied; ties
        # go to the smallest basic variable.
        leave = -1
        for i in range(rows):
            row = tab[i]
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave == -1:
                    leave, lb, la = i, b, a
                    continue
                lhs, rhs = b * la, lb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
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
        row = [v if type(v) is int else _exact(v) for v in A[i]]
        row += [0] * (m + nart)
        row.append(_exact(b[i]))
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

    cost2 = list(c) + [0] * m
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
    """Shared constraint rows; objectives and pins vary per solve.

    The row order numbers the slack columns, which Bland's rule reads: per
    inner node its conservation row and the negation, per set member its
    lower and upper bound rows, then the capacities, then the u_R caps.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        g = inst.graph
        m, k = inst.m, inst.k
        self.nvar = m + k
        self.rows: list[list] = []
        self.rhs: list = []

        def add(pairs, limit):
            row = [0] * self.nvar
            for j, coeff in pairs:
                row[j] = _exact(coeff)
            self.rows.append(row)
            self.rhs.append(_exact(limit))

        # Conservation at every inner node, filled in one pass over the arcs.
        ends = (g.source, g.sink)
        inner = {v: [0] * self.nvar for v in range(inst.n) if v not in ends}
        for e in g.edges:
            if e.head in inner:
                inner[e.head][e.id] += 1
            if e.tail in inner:
                inner[e.tail][e.id] -= 1
        for row in inner.values():
            self.rows += (row, [-v for v in row])
            self.rhs += (0, 0)

        for i, hs in enumerate(inst.sets):
            poly = hs.deviation.poly
            a0 = poly.coeffs[0] if poly.coeffs else 0
            a1 = poly.coeffs[1] if poly.degree >= 1 else 0
            for e in hs.edges:
                add([(e, -1), (m + i, 1)], 0)
                add([(e, 1), (m + i, -a1)], a0)

        for e, u in enumerate(inst.capacities):
            add([(e, 1)], u)
        for i in range(k):
            add([(m + i, 1)], inst.u_R(i))

        self.value_row = [0] * self.nvar
        for e in g.edges:
            if e.tail == g.source:
                self.value_row[e.id] += 1
            if e.head == g.source:
                self.value_row[e.id] -= 1

    def solve(self, objective, extra=(), pins=()):
        """Minimize objective; exact variable values, or None if infeasible."""
        rows = list(self.rows)
        rhs = list(self.rhs)
        for row, limit in extra:
            rows.append(row)
            rhs.append(limit)
        for var, val in pins:
            row = [0] * self.nvar
            row[var] = 1
            rows.append(row)
            rhs.append(val)
            rows.append([-v for v in row])
            rhs.append(-val)
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
        obj = [0] * prog.nvar
        obj[m + i] = 1
        xs = prog.solve(obj, extra=value_pin, pins=pins)
        require(xs is not None, "value pin cannot cut off the optimum")
        pins.append((m + i, xs[m + i]))
    return tuple(val for _, val in pins), value


def _branch(prog, goal, extra, lo, hi, best, lam):
    """Maximize -goal.x over integral parameters in the box [lo, hi].

    ``hi[i]`` of None leaves lam_i capped by the program's own u_R row.
    ``best`` is the objective at the integral incumbent ``lam``; only a
    strictly better point replaces it.  The objective must be integral at
    every integral parameter vector.  Returns the final (best, lam).
    """
    m, k = prog.inst.m, prog.inst.k
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        box = []
        for i in range(k):
            row = [0] * prog.nvar
            if lo[i]:
                row[m + i] = -1
                box.append((row, -lo[i]))
            if hi[i] is not None:
                row = [0] * prog.nvar
                row[m + i] = 1
                box.append((row, hi[i]))
        xs = prog.solve(goal, extra=(*extra, *box))
        if xs is None:
            continue
        bound = -sum(c * x for c, x in zip(goal, xs))
        if floor(bound) <= best:
            continue
        split = next((i for i in range(k) if xs[m + i].denominator != 1), None)
        if split is None:
            require(bound.denominator == 1, "integral parameters give an integral bound")
            best, lam = bound, tuple(xs[m:])
            continue
        x = xs[m + split]
        up, down = list(lo), list(hi)
        up[split], down[split] = ceil(x), floor(x)
        stack.append((up, hi))
        stack.append((lo, down))
    return best, lam


def _lp_int_optimum(
    inst: Instance, lam: tuple[Fraction, ...], value: Fraction
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Lexicographically smallest integral optimum and its value.

    ``inst`` must have integral capacities and shifts; ``lam`` is any
    integral parameter vector with flow value ``value``, which seeds the
    search as its incumbent.
    """
    _check_affine(inst)
    prog = _Program(inst)
    m, k = inst.m, inst.k
    goal = [-c for c in prog.value_row]
    value, lam = _branch(prog, goal, (), [0] * k, [None] * k, value, lam)
    value_pin = ((goal, -value),)
    lo, hi = [0] * k, [None] * k
    for i in range(k):
        obj = [0] * prog.nvar
        obj[m + i] = 1
        _, lam = _branch(prog, obj, value_pin, lo, hi, -lam[i], lam)
        lo[i] = hi[i] = int(lam[i])
    return lam, value


def solve_lp_constant(inst: Instance) -> SolveResult:
    """Lexicographically smallest optimum via exact simplex."""
    lam, value = _lp_optimum(inst)
    out = FEvaluator(inst).result(lam)
    require(out.opt_value == value, "flow recomputation must match the program")
    return out

