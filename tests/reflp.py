"""Fraction reference for the simplex kernel in `aemflow.lp`, for tests.

`_pivot`, `_optimize` and `_simplex_min` as they stood before the kernel
moved to int-first rows: every division and every ratio goes through
`Fraction`, and each entry is turned back into an int by a function call.
`aemflow.lp` must take exactly the same Bland pivots and return exactly
the same vertex.  Each pivot goes through this module's `_pivot`, so a
test can count them here as it does in `aemflow.lp`.
"""

from fractions import Fraction

from aemflow.errors import require

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
