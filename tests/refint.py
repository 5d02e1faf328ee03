"""Land–Doig reference for integer mode in `aemflow.ksets`, for tests.

The integer search as it stood before branch-and-bound moved to the
cutting-plane master: LP branch-and-bound on the parameters alone (Land
and Doig, Econometrica 1960) over the whole flow program `lp._Program`,
m + k columns, re-solved at every node.  With integral data, fixing
integral parameters leaves a flow program with integral bounds, whose
optimum over flows is integral, so no flow variable needs a branch.  The
value is maximized first, then each parameter in turn is minimized with
the value and the earlier parameters pinned, from the all-zero vector as
the first incumbent.  It shares only `lp._Program`, the simplex kernel and
the F evaluator with the solver it checks.

`master_int_optimum` is the search on the cutting-plane master as it
stood before boxes were pruned by their corner bound: every box gets its
master LP.  It logs each box it solves, so tests can check that the
pruned search drops only boxes this LP would have pruned.
"""

from fractions import Fraction
from math import ceil, floor

from aemflow.errors import require
from aemflow.instance import FEvaluator, HomologousSet, Instance, SolveResult
from aemflow.lp import _Master, _Program
from aemflow.values import DeviationFn


def _branch(prog, goal, extra, lo, hi, best, lam):
    """Maximize -goal.x over integral parameters in the box [lo, hi].

    ``hi[i]`` of None leaves lam_i capped by the program's own u_R row.
    ``best`` is the objective at the integral incumbent ``lam``; only a
    strictly better point replaces it.  Returns the final (best, lam).
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


def _lp_int_optimum(inst, lam, value):
    """Lexicographically smallest integral optimum of an instance with
    integral data, and its value, from the incumbent ``lam`` at ``value``."""
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


def solve_integer(inst: Instance) -> SolveResult:
    """`ksets.solve_integer_constant` by Land–Doig on the flow program."""
    floored = Instance(
        inst.graph,
        tuple(Fraction(floor(c)) for c in inst.capacities),
        tuple(
            HomologousSet(hs.edges, DeviationFn.constant_shift(floor(hs.deviation.shift_amount())))
            for hs in inst.sets
        ),
    )
    ev = FEvaluator(floored)
    zero = (Fraction(0),) * inst.k
    lam, value = _lp_int_optimum(floored, zero, ev.sample(zero).value)
    out = ev.result(lam)
    require(out.opt_value == value, "the optimum's flow disagrees with its value")
    return out


def _master_branch(master, goal, extra, lo, hi, best, lam, boxes):
    """`lp._branch` without the corner-bound prune.

    Appends ``(goal, lo, hi, best, pruned)`` to ``boxes`` for every master
    LP it solves; ``pruned`` says the LP found the box empty or its bound
    did not beat ``best``.
    """
    k = master.k
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        xs = master.solve(goal, extra, lo, hi)
        bound = None if xs is None else -sum(c * x for c, x in zip(goal, xs) if c)
        pruned = xs is None or floor(bound) <= best
        boxes.append((goal, tuple(lo), tuple(hi), best, pruned))
        if pruned:
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


def master_int_optimum(ev):
    """`lp._int_optimum` without the corner-bound prune, on an instance
    with integral data: (lam, value, boxes), ``boxes`` as `_master_branch`
    logs them, one per master LP."""
    k = ev.inst.k
    master = _Master(ev)
    boxes = []
    lam = (Fraction(0),) * k
    lo, hi = [0] * k, [ev.inst.u_R(i) for i in range(k)]
    goal = (0,) * k + (-1,)
    value, lam = _master_branch(master, goal, (), lo, hi, ev.sample(lam).value, lam, boxes)
    value_pin = ((goal, -value),)
    for i in range(k):
        obj = (0,) * i + (1,) + (0,) * (k - i)
        _, lam = _master_branch(master, obj, value_pin, lo, hi, -lam[i], lam, boxes)
        lo[i] = hi[i] = lam[i]
    return lam, value, boxes
