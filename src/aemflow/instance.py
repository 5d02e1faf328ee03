"""Problem instances: a capacitated graph plus homologous edge sets.

A homologous set R with deviation function Delta ties its member flows
together: writing lam for the minimum flow over R, every member must carry
between lam and Delta(lam).  Guessing lam turns the instance into an
ordinary max-flow problem on the reparameterized network where R-edges get
bounds [lam, min(u, Delta(lam))]; the instance's value function F maps the
guess vector to that max-flow value (or to "infeasible" when the lower
bounds cannot be met).

Sets must be pairwise disjoint.  Input sets that share edges are accepted
and normalised by subdividing each shared edge into a chain of segments,
one per owning set; conservation forces equal flow along the chain, so the
constraints are preserved verbatim.

An Instance is immutable after construction.  It is compiled once, on
first use, into an `ArcTemplate`, so a sample of F scales only by the
denominators of lam and Delta(lam) and runs the integer max-flow core.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .cuts import CutReport, SetCrossing
from .errors import Infeasible, ValidationError, require
from .graph import Graph
from .maxflow import DeficiencyReport, Network, bounded_max_flow_int
from .values import DeviationFn

__all__ = [
    "HomologousSet",
    "Instance",
    "SolveResult",
    "FSample",
    "FEvaluator",
    "make_instance",
]


@dataclass(frozen=True)
class HomologousSet:
    edges: tuple[int, ...]
    deviation: DeviationFn


class Instance:
    """Validated, normalised problem instance (sets disjoint, bounds sane)."""

    def __init__(
        self,
        graph: Graph,
        capacities: tuple[Fraction, ...],
        sets: tuple[HomologousSet, ...],
    ):
        self.graph = graph
        self.capacities = capacities
        self.sets = sets
        self._set_of_edge: dict[int, int] = {}
        for i, hs in enumerate(sets):
            for e in hs.edges:
                self._set_of_edge[e] = i
        self.validate()

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def template(self) -> ArcTemplate:
        return ArcTemplate(self)

    def u_R(self, i: int) -> Fraction:
        return self.template.u_R[i]

    def set_of_edge(self, e: int) -> int | None:
        return self._set_of_edge.get(e)

    def validate(self) -> None:
        self.graph.validate()
        if len(self.capacities) != self.m:
            raise ValidationError("capacity list does not match edge count")
        # The sign of a Fraction is its numerator's; reading it directly
        # skips Fraction's comparison, a measurable part of a parse.
        for e, u in enumerate(self.capacities):
            if u.numerator < 0:
                raise ValidationError(f"edge {e}: negative capacity {u}")
        seen: set[int] = set()
        for i, hs in enumerate(self.sets):
            if not hs.edges:
                raise ValidationError(f"homologous set {i} is empty")
            for e in hs.edges:
                if not 0 <= e < self.m:
                    raise ValidationError(f"homologous set {i}: unknown edge {e}")
                if e in seen:
                    raise ValidationError(
                        f"edge {e} appears in more than one homologous set"
                    )
                seen.add(e)
            top = min(self.capacities[e] for e in hs.edges)
            try:
                hs.deviation.validate_on(Fraction(0), top)
            except ValueError as exc:
                raise ValidationError(f"homologous set {i}: {exc}") from exc

    def check_lambda(self, lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(lam) != self.k:
            raise ValidationError(
                f"expected {self.k} parameter values, got {len(lam)}"
            )
        out = []
        for x, top in zip(lam, self.template.u_R):
            if not isinstance(x, Fraction):
                x = Fraction(x)
            if not 0 <= x <= top:
                raise ValidationError(
                    f"parameter {len(out)} = {x} outside [0, {top}]"
                )
            out.append(x)
        return tuple(out)

    def cut_report(self, s_side: frozenset[int]) -> CutReport:
        """The cut priced as a function of lam, memoised in the template."""
        hit = self.template.cuts.get(s_side)
        if hit is not None:
            return hit
        const = Fraction(0)
        fwd_by_set: list[list[Fraction]] = [[] for _ in self.sets]
        bwd_by_set = [0] * self.k
        for e in self.graph.edges:
            tin, hin = e.tail in s_side, e.head in s_side
            if tin == hin:
                continue
            i = self._set_of_edge.get(e.id)
            if tin:
                if i is None:
                    const += self.capacities[e.id]
                else:
                    fwd_by_set[i].append(self.capacities[e.id])
            elif i is not None:
                bwd_by_set[i] += 1
        crossings = tuple(
            SetCrossing(tuple(fwd_by_set[i]), bwd_by_set[i], self.sets[i].deviation)
            for i in range(self.k)
        )
        out = self.template.cuts[s_side] = CutReport(s_side, const, crossings)
        return out

    def check_flow(self, values: Sequence[Fraction]) -> tuple[Fraction, list[str]]:
        """The source's net outflow under per-edge `values`, and every violation.

        Violations come for capacity by edge, then for conservation by node,
        then for the set rule by set, with Delta evaluated once per set at
        the set minimum.  The check makes one pass on integers: every flow
        and capacity times the lcm of their denominators.  Raises
        ValidationError when there is not one value per edge.
        """
        g = self.graph
        if len(values) != g.m:
            raise ValidationError("flow has wrong number of edges")
        t = self.template
        d = lcm(t.den, *(f.denominator for f in values))
        per_cap = d // t.den
        flows = [f.numerator * (d // f.denominator) for f in values]
        net = [0] * g.n
        problems = []
        for e, x, c in zip(g.edges, flows, t.caps):
            if x < 0:
                problems.append(
                    f"violation capacity edge {e.id} flow {values[e.id]} below 0"
                )
            elif x > c * per_cap:
                problems.append(
                    f"violation capacity edge {e.id} flow {values[e.id]} "
                    f"above {self.capacities[e.id]}"
                )
            net[e.tail] += x
            net[e.head] -= x
        for v, out in enumerate(net):
            if out and v != g.source and v != g.sink:
                problems.append(
                    f"violation conservation node {v} net {Fraction(out, d)}"
                )
        for i, (edges, dev) in enumerate(t.sets):
            fmin = Fraction(min(flows[e] for e in edges), d)
            cap = dev(fmin)
            # flow / d > cap, cleared of both denominators
            top = cap.numerator * d
            for e in edges:
                if flows[e] * cap.denominator > top:
                    problems.append(
                        f"violation homologous set {i} edge {e} flow {values[e]} "
                        f"above {cap} allowed by the set minimum {fmin}"
                    )
        return Fraction(net[g.source], d), problems

    def __eq__(self, other) -> bool:
        # Structural equality; node names are display labels and the file
        # format does not carry them, so they do not participate.
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.graph.n == other.graph.n
            and [(e.tail, e.head) for e in self.graph.edges]
            == [(e.tail, e.head) for e in other.graph.edges]
            and self.graph.source == other.graph.source
            and self.graph.sink == other.graph.sink
            and self.capacities == other.capacities
            and self.sets == other.sets
        )

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m}, k={self.k})"


class ArcTemplate:
    """What F needs of an instance that lam does not move, on integers.

    `net` is the compiled flow network.  `caps` are the capacities times
    their lcm denominator `den`.  `cuts` memoises priced cuts by s side:
    plain edges never have a lower bound.
    """

    __slots__ = ("net", "den", "caps", "sets", "u_R", "cuts")

    def __init__(self, inst: Instance):
        g = inst.graph
        self.net = Network(g.n, [(e.tail, e.head) for e in g.edges], g.source, g.sink)
        self.den = lcm(*(c.denominator for c in inst.capacities))
        self.caps = [c.numerator * (self.den // c.denominator) for c in inst.capacities]
        self.sets = [(hs.edges, hs.deviation) for hs in inst.sets]
        self.u_R = tuple(min(inst.capacities[e] for e in hs.edges) for hs in inst.sets)
        self.cuts: dict[frozenset[int], CutReport] = {}

    def scaled_bounds(
        self, lam: Sequence[Fraction]
    ) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
        """(d, lowers, uppers, levels) at a checked `lam`, all times d.

        d is the smallest common denominator of the capacities, lam and
        Delta(lam); ``levels[i]`` is set i's (lam_i, Delta_i(lam_i)).
        """
        tops = [dev(x) for (_, dev), x in zip(self.sets, lam)]
        d = lcm(self.den, *(x.denominator for x in lam), *(y.denominator for y in tops))
        uppers = [c * (d // self.den) for c in self.caps]
        lowers = [0] * len(uppers)
        levels = []
        for (edges, _), x, y in zip(self.sets, lam, tops):
            lo, hi = (v.numerator * (d // v.denominator) for v in (x, y))
            levels.append((lo, hi))
            for e in edges:
                lowers[e] = lo
                if hi < uppers[e]:
                    uppers[e] = hi
        return d, lowers, uppers, levels


def make_instance(
    graph: Graph,
    capacities: Iterable,
    sets: Sequence[tuple[Iterable[int], DeviationFn]],
) -> Instance:
    """Build an Instance, subdividing edges shared between sets.

    An edge owned by j > 1 sets becomes a chain of j segments of the same
    capacity, the i-th segment replacing the edge in the i-th owning set.
    Conservation forces all segments to carry equal flow, so the original
    constraints survive unchanged.  Unshared edges keep their identity.
    """
    caps = [c if type(c) is Fraction else Fraction(c) for c in capacities]
    if len(caps) != graph.m:
        raise ValidationError("capacity list does not match edge count")
    owners: dict[int, list[int]] = {}
    norm_sets: list[tuple[list[int], DeviationFn]] = []
    for i, (edge_ids, dev) in enumerate(sets):
        ids = sorted(set(int(e) for e in edge_ids))
        norm_sets.append((ids, dev))
        for e in ids:
            if not 0 <= e < graph.m:
                raise ValidationError(f"homologous set {i}: unknown edge {e}")
            owners.setdefault(e, []).append(i)
    shared = {e: owns for e, owns in owners.items() if len(owns) > 1}
    if shared:
        warnings.warn(
            f"subdividing {len(shared)} edge(s) shared between homologous sets",
            stacklevel=2,
        )
    for e, owns in sorted(shared.items()):
        segment_ids = graph.subdivide_edge(e, len(owns))
        caps.extend(caps[e] for _ in segment_ids[1:])
        for seg_id, owner in zip(segment_ids, owns):
            ids, _ = norm_sets[owner]
            if seg_id != e:
                ids.remove(e)
                ids.append(seg_id)
    final_sets = tuple(
        HomologousSet(tuple(sorted(ids)), dev) for ids, dev in norm_sets
    )
    return Instance(graph, tuple(caps), final_sets)


def _max_flow_at(
    inst: Instance, lam: Sequence[Fraction]
) -> tuple[Fraction, tuple[int, ...], int, CutReport]:
    """Value, edge flows in units of 1/d, d and min-cut certificate at `lam`.

    `lam` must be checked.  Raises Infeasible, with the failed circulation's
    `DeficiencyReport` as context, when the implied lower bounds admit no
    flow.  The certificate is re-priced through the cut formula,
    on the integers at scale d, and must reproduce the flow value exactly;
    a mismatch would mean corrupted bookkeeping, so it is checked here
    rather than left to callers.
    """
    t = inst.template
    d, lowers, uppers, levels = t.scaled_bounds(lam)
    value, flows, s_side = bounded_max_flow_int(t.net, lowers, uppers, d)
    report = inst.cut_report(s_side)
    require(report.scaled_capacity(d, levels) == value, "cut certificate mismatch")
    return Fraction(value, d), tuple(flows), d, report


class FSample(NamedTuple):
    """One F evaluation; `flows` are the core's edge flows in units of 1/scale.

    An infeasible sample keeps its failed circulation's `deficiency`.
    """

    feasible: bool
    value: Fraction | None
    report: CutReport | None
    flows: tuple[int, ...] | None
    scale: int | None
    deficiency: DeficiencyReport | None = None


class FEvaluator:
    """Memoized F samples that report infeasibility as data, not control flow."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._cache: dict[tuple[Fraction, ...], FSample] = {}
        self.evaluations = 0

    def sample(self, lam: Sequence[Fraction]) -> FSample:
        # Equal rationals hash equal whatever their type, so the memo is
        # keyed by `lam` as given; only a miss converts and checks it.
        key = tuple(lam)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        key = self.inst.check_lambda(key)
        self.evaluations += 1
        try:
            value, flows, d, report = _max_flow_at(self.inst, key)
        except Infeasible as exc:
            out = FSample(False, None, None, None, None, exc.context)
        else:
            out = FSample(True, value, report, flows, d)
        self._cache[key] = out
        return out

    def result(self, lam: Sequence[Fraction]) -> SolveResult:
        """The solve result at `lam`, which a solver found optimal."""
        lam = self.inst.check_lambda(lam)
        s = self.sample(lam)
        require(s.feasible, "the solver's optimum is infeasible")
        flows = tuple(Fraction(f, s.scale) for f in s.flows)
        return SolveResult(lam, s.value, flows, s.report)


@dataclass(frozen=True)
class SolveResult:
    """An optimum: parameter vector, its per-edge flow, and the matching cut."""

    lambda_star: tuple[Fraction, ...]
    opt_value: Fraction
    flow: tuple[Fraction, ...]
    certificate: CutReport

    def verify(self, inst: Instance) -> None:
        """Raise ValidationError unless the result certifies `opt_value`.

        The flow must pass `Instance.check_flow` with value `opt_value`, and
        every member of set i must carry between lam*_i and
        Delta_i(lam*_i) (capacity is already checked).  The certificate's
        s side must hold s and not t, and its capacity at lam* must be
        `opt_value`.  An integer result's certificate prices the floored
        instance it was solved on.  No solver is called.
        """
        value, problems = inst.check_flow(self.flow)
        if problems:
            raise ValidationError(problems[0])
        if value != self.opt_value:
            raise ValidationError("flow value disagrees with reported optimum")
        lam = inst.check_lambda(self.lambda_star)
        for i, (hs, x) in enumerate(zip(inst.sets, lam)):
            top = hs.deviation(x)
            for e in hs.edges:
                if not x <= self.flow[e] <= top:
                    raise ValidationError(
                        f"homologous set {i} edge {e} flow {self.flow[e]} "
                        f"outside [lambda*, Delta(lambda*)] = [{x}, {top}]"
                    )
        side = self.certificate.s_side
        g = inst.graph
        if g.source not in side or g.sink in side:
            raise ValidationError("certificate is not an s-t cut")
        if self.certificate.capacity_at(lam) != self.opt_value:
            raise ValidationError("certificate capacity disagrees with optimum")
