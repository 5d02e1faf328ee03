"""Oracle-free checks of `aemflow solve`'s default path.

Each relation below ties the answers on two instances exactly, in
rationals, so it checks the solver at sizes the enumeration oracles cannot
reach, without trusting a second solver:

* scaling every capacity and shift by c > 0 scales lam* and the value by c;
* relabelling nodes and edges keeps lam* and the value.  Relabelling the
  sets as well keeps the value, and each answer is lexicographically at
  most the other's image, since that image is an optimum too; the two are
  equal whenever the optimum is unique;
* subdividing an edge outside every set, or adding an arc of capacity 0,
  keeps lam* and the value;
* raising the capacity of an edge outside every set never lowers the value.

Every solve runs `aemflow solve` on a written file, and a failed relation
prints both files.  The fixed seeds at n = 20-120 have nonzero optima; the
Hypothesis test draws its own, with its example budget taken from the
profile (`tests/conftest.py`).
"""

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aemflow.cli import main
from aemflow.fileformat import write_instance
from aemflow.graph import Graph
from aemflow.instance import make_instance
from aemflow.lp import solve_lp_constant
from aemflow.randgen import generate_random
from aemflow.values import DeviationFn


def solve(inst):
    """lam* and the value that `aemflow solve` prints for inst's file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "inst.aemfp"
        path.write_text(write_instance(inst))
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["solve", str(path)])
    assert rc == 0, err.getvalue() + write_instance(inst)
    lam, value = {}, None
    for line in out.getvalue().splitlines():
        rec = line.split()
        if rec[0] == "lambda":
            lam[int(rec[1])] = Q(rec[2])
        elif rec[0] == "value":
            value = Q(rec[1])
    return tuple(lam[i] for i in range(inst.k)), value


def parts(inst):
    g = inst.graph
    arcs = [(e.tail, e.head) for e in g.edges]
    sets = [(list(hs.edges), hs.deviation) for hs in inst.sets]
    return g.n, g.source, g.sink, arcs, list(inst.capacities), sets


def build(n, source, sink, arcs, caps, sets):
    g = Graph()
    for _ in range(n):
        g.add_node()
    g.source, g.sink = source, sink
    for u, v in arcs:
        g.add_edge(u, v)
    return make_instance(g, caps, sets)


def scaled(inst, c):
    n, s, t, arcs, caps, sets = parts(inst)
    sets = [(es, DeviationFn.constant_shift(c * d.shift_amount())) for es, d in sets]
    return build(n, s, t, arcs, [c * u for u in caps], sets)


def relabelled(inst, rng, move_sets):
    """An isomorphic copy, and perm: its set j is inst's set perm[j]."""
    n, s, t, arcs, caps, sets = parts(inst)
    node = list(range(n))
    rng.shuffle(node)
    order = list(range(len(arcs)))  # new edge id -> old edge id
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    perm = list(range(len(sets)))
    if move_sets:
        rng.shuffle(perm)
    out = build(
        n,
        node[s],
        node[t],
        [(node[arcs[o][0]], node[arcs[o][1]]) for o in order],
        [caps[o] for o in order],
        [([new_id[e] for e in sets[p][0]], sets[p][1]) for p in perm],
    )
    return out, perm


def free_edge(inst, rng):
    """An edge in no homologous set."""
    members = {e for hs in inst.sets for e in hs.edges}
    return rng.choice([e for e in range(inst.m) if e not in members])


def subdivided(inst, e):
    n, s, t, arcs, caps, sets = parts(inst)
    u, v = arcs[e]
    arcs[e] = (u, n)
    return build(n + 1, s, t, [*arcs, (n, v)], [*caps, caps[e]], sets)


def with_zero_arc(inst, rng):
    n, s, t, arcs, caps, sets = parts(inst)
    u, v = rng.sample(range(n), 2)
    return build(n, s, t, [*arcs, (u, v)], [*caps, 0], sets)


def raised(inst, e, by):
    n, s, t, arcs, caps, sets = parts(inst)
    caps[e] += by
    return build(n, s, t, arcs, caps, sets)


def check(a, b, ok, relation):
    assert ok, (
        f"{relation}\n--- first instance\n{write_instance(a)}"
        f"--- second instance\n{write_instance(b)}"
    )


def check_relations(inst, rng, c):
    lam, value = solve(inst)

    other = scaled(inst, c)
    got = solve(other)
    check(inst, other, got == (tuple(c * x for x in lam), c * value), f"scaling by {c}")

    other, _ = relabelled(inst, rng, move_sets=False)
    check(inst, other, solve(other) == (lam, value), "node and edge relabelling")

    other, perm = relabelled(inst, rng, move_sets=True)
    lam2, value2 = solve(other)
    image = tuple(lam[p] for p in perm)
    back = [None] * inst.k
    for j, p in enumerate(perm):
        back[p] = lam2[j]
    check(
        inst,
        other,
        value2 == value and lam2 <= image and lam <= tuple(back),
        f"relabelling with set order {perm}",
    )

    e = free_edge(inst, rng)
    other = subdivided(inst, e)
    check(inst, other, solve(other) == (lam, value), f"subdividing edge {e}")

    other = with_zero_arc(inst, rng)
    check(inst, other, solve(other) == (lam, value), "adding an arc of capacity 0")

    e = free_edge(inst, rng)
    other = raised(inst, e, rng.randint(1, 5))
    check(inst, other, solve(other)[1] >= value, f"raising edge {e}")
    return lam


# (n, m, k, seed): random draws at cap_max 12 whose optimum is not all zero.
FIXED = [
    (20, 40, 3, 1),
    (20, 80, 2, 2),
    (40, 80, 2, 8),
    (80, 160, 3, 19),
    (80, 240, 3, 11),
    (120, 240, 3, 2),
    (120, 360, 2, 19),
]


class TestMetamorphic:
    @pytest.mark.parametrize("n, m, k, seed", FIXED)
    def test_fixed_seeds(self, n, m, k, seed):
        inst = generate_random(n, m, k, cap_max=12, seed=seed)
        lam = check_relations(inst, random.Random(seed), Q(7, 3))
        assert any(lam)

    @given(
        n=st.integers(5, 30),
        density=st.integers(2, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 10**6),
        c=st.builds(Q, st.integers(1, 9), st.integers(1, 4)),
    )
    @settings(deadline=None)
    def test_drawn(self, n, density, k, seed, c):
        # At most 3k <= 9 < 2n edges are set members, so free edges exist.
        inst = generate_random(n, density * n, k, cap_max=12, seed=seed)
        check_relations(inst, random.Random(seed), c)

    # (n, m, k, seed) at n = 160, beyond the sizes the relations above use.
    @pytest.mark.parametrize("n, m, k, seed", [(160, 320, 2, 22), (160, 480, 3, 13)])
    def test_against_simplex(self, n, m, k, seed):
        inst = generate_random(n, m, k, cap_max=12, seed=seed)
        want = solve_lp_constant(inst)
        got = solve(inst)
        assert got == (want.lambda_star, want.opt_value), (
            f"simplex {want.lambda_star} {want.opt_value}\n{write_instance(inst)}"
        )
        assert any(got[0])
