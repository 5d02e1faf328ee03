"""Hardness-family instance generators built on Exact-3-Cover.

The reductions encode a cover question into an almost-equal flow instance:
each candidate triple gets a set node whose extra sink edge (the "bonus"
edge) can carry more flow exactly when the triple's three element edges are
saturated, and the almost-equal constraint ties those together.  The chain
variant stretches the yes/no value gap by a width factor; the convex
variant swaps in a curved deviation bound.

Closed-form expected values attached to the generated instances assume the
calibrated shape with as many triples as elements (see GadgetMeta);
``x3c_yes_instance`` and ``x3c_no_instance`` build canonical inputs of that
shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .graph import Graph
from .instance import Instance, make_instance
from .values import DeviationFn

__all__ = [
    "X3CInstance",
    "GadgetMeta",
    "has_exact_cover",
    "x3c_yes_instance",
    "x3c_no_instance",
    "generate_x3c_gadget",
    "generate_approx_gadget",
    "generate_convex_gadget",
]


@dataclass(frozen=True)
class X3CInstance:
    """Exact-3-Cover input: universe {0..q-1} plus a list of triples.

    q must be a positive multiple of 3; every triple must name three
    distinct universe elements.  Triples may repeat.
    """

    q: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        _check_universe(self.q)
        norm = []
        for t in self.triples:
            ids = tuple(sorted(int(e) for e in t))
            if len(ids) != 3 or len(set(ids)) != 3:
                raise ValidationError(f"triple {t!r} needs 3 distinct elements")
            if ids[0] < 0 or ids[-1] >= self.q:
                raise ValidationError(f"triple {t!r} leaves the universe")
            norm.append(ids)
        object.__setattr__(self, "triples", tuple(norm))

    @property
    def p(self) -> int:
        """Number of triples."""
        return len(self.triples)


@dataclass(frozen=True)
class GadgetMeta:
    """Expected values for a generated gadget.

    expected_yes_value is the closed form for the calibrated shape (as many
    triples as elements, exact cover present); expected_no_bound bounds the
    integer optimum of that shape when no exact cover exists.  Instances
    with fewer triples than elements cannot reach the yes value (shrunken
    source cut), so the field is the formula, not a promise about arbitrary
    inputs.  bonus_edges lists the edge ids whose headroom encodes the
    cover choice.  k is the chain width and is set only for ApproxChain.
    """

    kind: str
    expected_yes_value: Fraction
    expected_no_bound: Fraction
    bonus_edges: tuple[int, ...]
    k: int | None = None


def has_exact_cover(x3c: X3CInstance) -> bool:
    """Brute-force exact-cover check; fine at gadget scale."""
    want = set(range(x3c.q))
    need = x3c.q // 3
    for combo in itertools.combinations(sorted(set(x3c.triples)), need):
        picked = {e for t in combo for e in t}
        if len(picked) == x3c.q and picked == want:
            return True
    return False


def _check_universe(q: int) -> None:
    if q <= 0 or q % 3:
        raise ValidationError("universe size must be a positive multiple of 3")


def x3c_yes_instance(q: int) -> X3CInstance:
    """Canonical yes input: the partition {3l,3l+1,3l+2} padded to q triples."""
    _check_universe(q)
    cover = [(3 * l, 3 * l + 1, 3 * l + 2) for l in range(q // 3)]
    pad = [cover[0]] * (q - len(cover))
    return X3CInstance(q, tuple(cover + pad))


def x3c_no_instance(q: int) -> X3CInstance:
    """Canonical no input with q triples all meeting element 0.

    Pairwise intersecting triples admit no exact cover once q >= 6 (a cover
    would need two disjoint ones).  At q = 3 every triple equals the whole
    universe, so the only coverless input is the empty collection.
    """
    _check_universe(q)
    if q == 3:
        return X3CInstance(3, ())
    rest = list(range(1, q))
    triples = []
    for i in range(q):
        x = rest[i % len(rest)]
        y = rest[(i + 1) % len(rest)]
        if x == y:
            y = rest[(i + 2) % len(rest)]
        triples.append((0, x, y))
    return X3CInstance(q, tuple(triples))


def _base_graph(x3c: X3CInstance, src_cap: int, bonus_cap: int):
    """Shared gadget skeleton; returns graph, caps, per-triple sets, R0, bonus ids."""
    g = Graph()
    s = g.add_node("s")
    t = g.add_node("t")
    set_nodes = [g.add_node(f"S{i + 1}") for i in range(x3c.p)]
    elem_nodes = [g.add_node(f"a{j + 1}") for j in range(x3c.q)]
    g.source, g.sink = s, t
    caps: list[int] = []
    bonus: list[int] = []
    triple_sets: list[list[int]] = []
    for i, triple in enumerate(x3c.triples):
        g.add_edge(s, set_nodes[i])
        caps.append(src_cap)
        members = []
        for j in triple:
            members.append(g.add_edge(set_nodes[i], elem_nodes[j]))
            caps.append(1)
        b = g.add_edge(set_nodes[i], t)
        caps.append(bonus_cap)
        bonus.append(b)
        triple_sets.append(members + [b])
    r0 = []
    for j in range(x3c.q):
        r0.append(g.add_edge(elem_nodes[j], t))
        caps.append(1)
    return g, caps, triple_sets, r0, bonus


def generate_x3c_gadget(x3c: X3CInstance) -> tuple[Instance, GadgetMeta]:
    """Cover question as an integer almost-equal flow threshold at 7q/3.

    Per triple: a source edge of capacity 5, three unit edges to its
    elements and a bonus edge of capacity 2 to the sink; the four non-source
    edges form one homologous set with bound x+1.  The unit element-to-sink
    edges form one more set.  A bonus edge reaches 2 only when its triple is
    saturated, so value 7q/3 forces an exact cover when the input has q
    triples.
    """
    g, caps, triple_sets, r0, bonus = _base_graph(x3c, 5, 2)
    dev = DeviationFn.constant_shift(1)
    sets = [(ids, dev) for ids in triple_sets]
    sets.append((r0, dev))
    inst = make_instance(g, caps, sets)
    yes = Fraction(7 * x3c.q, 3)
    meta = GadgetMeta("X3CBasic", yes, yes - 1, tuple(bonus))
    return inst, meta


def generate_approx_gadget(
    x3c: X3CInstance, k: int, deviation_kind: str = "shift"
) -> tuple[Instance, GadgetMeta]:
    """Chain extension that widens the yes/no gap by width k.

    The old sink feeds a relay node through a capacity-7q/3 edge, the relay
    feeds the new sink through 7q/3 unit edges, and k*(7q/3) extra source
    edges of capacity 2 run straight to the new sink.  All relay and extra
    edges share one homologous set, so the extras carry 2 each only when
    every relay edge is saturated, which needs the full yes value upstream.

    deviation_kind picks that set's bound: "shift" is x+1; "affine" is
    k*x, which zeroes the extras entirely in the no case.
    """
    if k < 1:
        raise ValidationError("chain width must be positive")
    width = 7 * x3c.q // 3
    g, caps, triple_sets, r0, _ = _base_graph(x3c, 5, 2)
    relay = g.add_node("t'")
    sink = g.add_node("t''")
    g.add_edge("t", relay)
    caps.append(width)
    chain = []
    for _ in range(width):
        chain.append(g.add_edge(relay, sink))
        caps.append(1)
    extras = []
    for _ in range(k * width):
        extras.append(g.add_edge("s", sink))
        caps.append(2)
    g.sink = sink
    if deviation_kind == "shift":
        dev_b = DeviationFn.constant_shift(1)
        yes = Fraction(width + 2 * k * width)
        no = Fraction(width - 1 + k * width)
    elif deviation_kind == "affine":
        dev_b = DeviationFn.affine(k, 0)
        yes = Fraction(width + min(2, k) * k * width)
        no = Fraction(0)
    else:
        raise ValidationError(f"unknown deviation kind {deviation_kind!r}")
    dev = DeviationFn.constant_shift(1)
    sets = [(ids, dev) for ids in triple_sets]
    sets.append((r0, dev))
    sets.append((chain + extras, dev_b))
    inst = make_instance(g, caps, sets)
    meta = GadgetMeta("ApproxChain", yes, no, tuple(extras), k=k)
    return inst, meta


def generate_convex_gadget(x3c: X3CInstance) -> tuple[Instance, GadgetMeta]:
    """Cover threshold with the convex bound 2x^2+1 on every set.

    Same layout as the basic gadget with capacities rescaled to 6 on source
    edges and 3 on bonus edges: a saturated triple has minimum 1 and bound
    2*1^2+1 = 3, so its bonus edge carries 3 instead of 2 and the yes value
    moves to 8q/3.  Convex bounds put the instance outside what the solvers
    accept; it is meant for the enumeration oracles.
    """
    g, caps, triple_sets, r0, bonus = _base_graph(x3c, 6, 3)
    dev = DeviationFn.polynomial((1, 0, 2))
    sets = [(ids, dev) for ids in triple_sets]
    sets.append((r0, dev))
    inst = make_instance(g, caps, sets)
    yes = Fraction(8 * x3c.q, 3)
    meta = GadgetMeta("ConvexX3C", yes, yes - 1, tuple(bonus))
    return inst, meta
