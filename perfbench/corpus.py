"""Seeded instance streams and independent references, one per workload.

Instance `j` of a workload is a pure function of (seed, j).  Its shape
(n, m, k, deviation kind) comes from a fixed per-slot table and its base
draw from `randgen` seeds derived from j alone; at seed 0 the instance is
that base draw, so the `const-nested` stream is exactly the acceptance
suite's `mixed_family(0..)`, the corpus behind the ROADMAP baseline counts.
Any other seed relabels the base draw: nodes, edges and homologous sets in
an order drawn from (seed, j).  Every seed thus solves different files of
the same isomorphism classes, and a run's cost does not swing with which
easy or hard graphs its seed happened to draw (fresh draws per seed moved
the `lp-ksets` and `concave-single` medians by more than a quarter between
seeds; relabelling moves a solve's time by a few tens of percent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import random

import aemflow as af

STREAM = 10**6


@dataclass(frozen=True)
class Item:
    index: int
    label: str
    inst: af.Instance
    meta: af.GadgetMeta | None = None


def mixed_shape(j: int) -> tuple[int, int, int]:
    """The acceptance suite's mixed_family shape: n <= 8, m <= 12, k <= 2."""
    n = 2 + (j % 7)
    m = 1 + (j * 7) % 12
    return n, m, min(j % 3, m)


def natural(draw, j: int, tries: int = 1):
    """The first acceptable draw of instance j's sub-stream.

    `draw(rseed)` builds the slot's instance from a randgen seed, or returns
    None for a draw the workload does not accept.
    """
    for a in range(tries):
        inst = draw(j * tries + a)
        if inst is not None:
            return inst
    raise RuntimeError(f"no acceptable draw for instance {j}")


def relabel(inst: af.Instance, rseed: int) -> af.Instance:
    """An isomorphic copy of inst: nodes, edges and sets in a seeded order."""
    rng = random.Random(rseed)
    g = inst.graph
    node = list(range(g.n))
    rng.shuffle(node)
    order = list(range(g.m))  # new edge id -> old edge id
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    out = af.Graph()
    for _ in range(g.n):
        out.add_node()
    out.source, out.sink = node[g.source], node[g.sink]
    for old in order:
        e = g.edges[old]
        out.add_edge(node[e.tail], node[e.head])
    caps = [inst.capacities[old] for old in order]
    sets = [([new_id[e] for e in hs.edges], hs.deviation) for hs in inst.sets]
    rng.shuffle(sets)
    return af.make_instance(out, caps, sets)


def value_line(out: str) -> Fraction | None:
    """The `value <p/q>` record of `aemflow solve` or `aemflow oracle`."""
    for line in out.splitlines():
        if line.startswith("value "):
            return Fraction(line.split()[1])
    return None


class Workload:
    """One traffic mix: how to draw instance j, run it and check it.

    The end-to-end metrics are taken over the first `sample` calls of a
    run (all of them if None), a count the run reaches even when the
    machine is in its slow state (see run.py), so that every run measures
    the same instances whatever the machine's speed; calls beyond it are
    made and checked but not measured.  A stream of many cheap instances
    that repeats its shapes every few dozen calls needs no cap.  `tail_pct` is the fixed latency percentile reported as
    the tail, chosen so that it leaves at least ten of the `sample` calls
    beyond it.  A call's time is scaled by (reference / probe) raised to
    `speed_exponent`: how strongly the workload follows the speed probe
    when the machine changes state (see run.py).  `rate_cap` (instances per second) sizes the corpus
    written at set-up, with headroom for a faster program.  `trace_rate`
    sizes the traced run.  `digest_calls` is how many leading outputs go
    into the stdout digest.  `period` is the length of the stream's cycle
    of instance shapes; the traced run alternates whole periods between
    untraced and traced calls so both halves see the same shapes.
    """

    name = ""
    command = "solve"
    flags: tuple[str, ...] = ()
    tail_pct = 90
    rate_cap = 100.0
    sample: int | None = None
    speed_exponent = 1.0
    trace_rate = 10.0
    digest_calls = 10
    period = 1

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]

    def item(self, seed: int, j: int) -> Item:
        base = self.base(j)
        if seed == 0:
            return base
        return replace(base, inst=relabel(base.inst, seed * STREAM + j))

    def base(self, j: int) -> Item:
        """Instance j at seed 0."""
        raise NotImplementedError

    def reference(self, item: Item):
        raise NotImplementedError

    def judge(self, item: Item, value: Fraction, ref) -> str | None:
        raise NotImplementedError


class ConstNested(Workload):
    name = "const-nested"
    tail_pct = 95
    rate_cap = 110.0
    trace_rate = 30.0
    digest_calls = 200
    period = 84

    def base(self, j):
        n, m, k = mixed_shape(j)
        inst = natural(lambda r: af.generate_random(n, m, k, cap_max=5, seed=r), j)
        return Item(j, f"k{k}", inst)

    def reference(self, item):
        return af.oracle_fractional(item.inst)

    def judge(self, item, value, ref):
        return None if value == ref else f"value {value} != oracle {ref}"


# Gadgets are fixed at q=3 (every X3C triple over three elements is the
# whole universe, so only the relabelling varies them).  The approximation-chain
# yes gadgets take 4-6 s per solve and are left to the self-check.
_LP_GADGETS = (
    ("x3c-yes", lambda: af.generate_x3c_gadget(af.x3c_yes_instance(3))),
    ("x3c-no", lambda: af.generate_x3c_gadget(af.x3c_no_instance(3))),
    ("approx1-no", lambda: af.generate_approx_gadget(af.x3c_no_instance(3), 1)),
    ("approx2-no", lambda: af.generate_approx_gadget(af.x3c_no_instance(3), 2)),
)


class LpKsets(Workload):
    name = "lp-ksets"
    flags = ("--integer",)
    tail_pct = 65
    rate_cap = 8.0
    sample = 34
    trace_rate = 1.5
    digest_calls = 10
    period = 6

    def base(self, j):
        # Gadgets sit at the front of the stream, one every third slot,
        # so every run solves all of them early on.
        if j % 3 == 0 and j // 3 < len(_LP_GADGETS):
            label, make = _LP_GADGETS[j // 3]
            inst, meta = make()
            return Item(j, label, inst, meta)
        # One shape, so the latency median falls inside one cost class
        # rather than between a k=3 and a k=4 cluster; the x3c gadget
        # brings k=4.
        return Item(j, "k3", af.generate_random(10, 30, 3, cap_max=5, seed=j))

    def reference(self, item):
        return af.oracle_integer(item.inst)

    def judge(self, item, value, ref):
        if value != ref:
            return f"value {value} != oracle {ref}"
        meta = item.meta
        if meta is None:
            return None
        if item.label.endswith("-yes") and value != meta.expected_yes_value:
            return f"yes gadget value {value} != {meta.expected_yes_value}"
        if item.label.endswith("-no") and value > meta.expected_no_bound:
            return f"no gadget value {value} > {meta.expected_no_bound}"
        return None


class ConcaveSingle(Workload):
    name = "concave-single"
    flags = ("--method", "concave")
    tail_pct = 80
    rate_cap = 30.0
    sample = 80
    trace_rate = 3.0
    digest_calls = 60
    period = 3

    def base(self, j):
        # The c08 acceptance shapes, one affine (one edge) to two concave
        # quadratic (six edges) per period.  The larger n=10, m=30 shape is
        # left out: its affine instances meet a known defect (see
        # README.md) and its quadratic ones, from 10 ms to over 2 s each,
        # made a run's figures swing with a few expensive draws.
        t, slot = divmod(j, 3)
        i = 4 * t if slot == 0 else 2 * (2 * t + slot - 1) + 1
        kind = "quadratic" if i % 2 else "affine"
        n, m = 2 + i % 5, 1 + (i * 5) % 10

        def draw(r):
            # Affine draws with slope 1 are constant shifts: not accepted.
            inst = af.generate_random(n, m, 1, cap_max=5, deviation_kind=kind, seed=r)
            if kind == "affine" and inst.sets[0].deviation.poly.coeffs[1] < 2:
                return None
            return inst

        inst = natural(draw, j, tries=64)
        return Item(j, f"{kind}-m{m}", inst)

    def reference(self, item):
        return af.oracle_concave_single(item.inst)[1]

    def judge(self, item, value, ref):
        # The oracle's value is a true F evaluation within 2^-30 * u_R of
        # the optimum (acceptance criterion c08).
        slack = Fraction(1, 1 << 30) * max(item.inst.u_R(0), 1)
        if ref <= value <= ref + slack:
            return None
        return f"value {value} outside [{ref}, {ref} + {slack}]"


class OracleEnum(Workload):
    name = "oracle-enum"
    command = "oracle"
    tail_pct = 80
    rate_cap = 30.0
    sample = 170
    # Its integer max flows slow down about 1.6x when the probe (and the
    # Fraction-heavy workloads) slow down 1.9x; with the full scaling its
    # figures read about 15% better in the slow state than in the fast.
    speed_exponent = 0.7
    trace_rate = 6.0
    digest_calls = 30
    period = 21

    def base(self, j):
        # The k=2 members of the const-nested stream, in order, except those
        # with m=12 (every fourth).  Their oracle calls take up to 0.6 s, so
        # a run would hold only a few dozen of them and its throughput and
        # tail would swing with the draw.  The stream's m cycles through
        # 3, 9 and 6; the integer core does the same work at every size.
        t = 4 * (j // 3) + (0, 2, 3)[j % 3]
        idx = 3 * t + 2
        n, m, k = mixed_shape(idx)
        inst = natural(lambda r: af.generate_random(n, m, k, cap_max=5, seed=r), idx)
        return Item(j, f"m{m}", inst)

    def reference(self, item):
        return af.solve_k_constant(item.inst).opt_value

    def judge(self, item, value, ref):
        return None if value == ref else f"oracle {value} != solver {ref}"


WORKLOADS = {w.name: w for w in (ConstNested(), LpKsets(), ConcaveSingle(), OracleEnum())}
