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

Integral parameter vectors come from branch-and-bound over boxes on lam,
on a master program in (lam, z) whose rows come from F samples, starting
at lam = 0, which is always feasible.  A feasible sample x with min cut C
gives the value row z <= g_C(x) + sum_i s_i (lam_i - x_i), with s_i the
cut's right slope in lam_i at x; it bounds the concave F from above.  At
an infeasible x the auxiliary min cut T has g_T(x) < 0, and g_T >= 0
wherever lam is feasible (Hoffman 1960), so the Hoffman row
0 <= g_T(x) + sum_i s_i (lam_i - x_i) cuts x off.  A node's master point
is sampled until F meets it (Kelley 1960), then branched on as in Land
and Doig (1960): first for the value, then for each lam_i in turn with
z >= value and the earlier ones pinned.  Those later passes have no z
term, so the box alone bounds their objective at its best corner; a box
whose corner bound, floored, does not beat the incumbent is dropped
before its master LP.  The LP's optimum over the box is at most the
corner bound, so the LP would have pruned that box too (or found it
empty), and the LP samples nothing: the F samples, the search order and
the answer are the same, with fewer LP solves.  No iteration cap is
needed: a sample below the master point adds a row that the point
violates, so a new one; rows are fixed by a cut and its members' clamp
states, so they are finitely many, and a repeated one raises
`InternalError`.
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
    b = [_exact(v) for v in b]
    nart = sum(1 for v in b if v < 0)
    base = n + m
    tab, basis, art = [], [], 0
    for i in range(m):
        row = [v if type(v) is int else _exact(v) for v in A[i]]
        row += [0] * (m + nart)
        row.append(b[i])
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


class _Master:
    """The value and Hoffman rows on (lam, z) that F samples gave so far."""

    def __init__(self, ev: FEvaluator):
        self.ev, self.k = ev, ev.inst.k
        self.rows: list[tuple[tuple, Fraction]] = []
        zero = (_ZERO,) * self.k
        self.add(zero, ev.sample(zero))

    def solve(self, goal, extra, lo, hi):
        """Minimize goal over the rows, ``extra`` and the box [lo, hi]."""
        k = self.k
        box = []
        for i in range(k):
            unit = (0,) * i + (1,) + (0,) * (k - i)
            box += ((unit, hi[i]), (tuple(-c for c in unit), -lo[i]))
        rows = [*self.rows, *extra, *box]
        return _simplex_min(goal, [row for row, _ in rows], [b for _, b in rows])

    def reaches(self, x, need) -> bool:
        """Whether F(x) >= need; if not, add the row that x's sample gives,
        which every master point (x, z) with z >= need violates."""
        s = self.ev.sample(x)
        if s.feasible and s.value >= need:
            return True
        self.add(x, s)
        return False

    def add(self, x, s) -> None:
        inst = self.ev.inst
        if s.feasible:
            cut, top, zc = s.report, s.value, 1
        else:
            rep = s.deficiency
            require(not rep.crosses_return, "return arc in a minimum auxiliary cut")
            cut, zc = inst.cut_report(rep.aux_s_side), 0
            top = cut.capacity_at(x)
            require(top == -rep.deficiency, "Hoffman row misses the deficiency")
        slopes = [cut.right_slope(i, xi) for i, xi in enumerate(x)]
        row = (*(-c for c in slopes), zc)
        rhs = top - sum(c * xi for c, xi in zip(slopes, x))
        require((row, rhs) not in self.rows, "a master row came back")
        self.rows.append((row, rhs))


def _branch(master, goal, extra, lo, hi, best, lam):
    """Maximize -goal.(lam, z) over integral lam in the box [lo, hi].

    A master point (x, z) is settled once F(x) >= z.  A settled fractional
    point splits, and the box of its nearest integral point goes first,
    which finds good incumbents early.  ``best`` is the objective at the
    integral incumbent ``lam``; only a strictly better point replaces it.
    The objective must be integral at every integral parameter vector.
    A goal with no z term is bounded by the box alone, at the corner that
    takes lo_i where goal_i > 0 and hi_i where goal_i < 0; a box whose
    floored corner bound is at most ``best`` is dropped without an LP,
    which could only have confirmed the prune.
    """
    k = master.k
    boxed = not goal[k]
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        if boxed:
            corner = -sum(c * (lo[i] if c > 0 else hi[i]) for i, c in enumerate(goal) if c)
            if floor(corner) <= best:
                continue
        xs = master.solve(goal, extra, lo, hi)
        if xs is None:
            continue
        bound = -sum(c * x for c, x in zip(goal, xs) if c)
        if floor(bound) <= best:
            continue
        if not master.reaches(xs[:k], xs[k]):
            stack.append((lo, hi))
            continue
        split = next((i for i in range(k) if xs[i].denominator != 1), None)
        if split is None:
            require(bound.denominator == 1, "integral parameters give an integral bound")
            best, lam = bound, tuple(xs[:k])
            continue
        x = xs[split]
        up, down = list(lo), list(hi)
        up[split], down[split] = ceil(x), floor(x)
        stack.append((up, hi))
        stack.append((lo, down))
        y = [(2 * x + 1) // 2 for x in xs[:k]]
        stack.append((y, y))
    return best, lam


def _int_optimum(ev: FEvaluator) -> tuple[tuple[Fraction, ...], Fraction]:
    """Lexicographically smallest integral optimum and its value, on an
    instance with integral data; the all-zero vector is the first incumbent."""
    k = ev.inst.k
    master = _Master(ev)
    lam = (_ZERO,) * k
    lo, hi = [0] * k, [ev.inst.u_R(i) for i in range(k)]
    goal = (0,) * k + (-1,)
    value, lam = _branch(master, goal, (), lo, hi, ev.sample(lam).value, lam)
    value_pin = ((goal, -value),)
    for i in range(k):
        obj = (0,) * i + (1,) + (0,) * (k - i)
        _, lam = _branch(master, obj, value_pin, lo, hi, -lam[i], lam)
        lo[i] = hi[i] = lam[i]
    return lam, value


def solve_lp_constant(inst: Instance) -> SolveResult:
    """Lexicographically smallest optimum via exact simplex."""
    lam, value = _lp_optimum(inst)
    out = FEvaluator(inst).result(lam)
    require(out.opt_value == value, "flow recomputation must match the program")
    return out

