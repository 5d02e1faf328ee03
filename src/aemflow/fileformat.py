"""Plain-text instance files, one record per line.

Grammar (DIMACS style; blank lines and lines whose first token is `c` are
ignored):

    p aemfp <n> <m> <k>
    n <id> s
    n <id> t
    a <id> <tail> <head> <cap>
    h <setid> const <c> <edge ids...>
    h <setid> affine <slope> <intercept> <edge ids...>
    h <setid> poly <deg> <c0> ... <cdeg> <edge ids...>

Node ids run 0..n-1, arc ids 0..m-1, set ids 0..k-1; every arc and set id
must appear exactly once.  Rationals are written `p/q` or as plain
integers, never as decimals, so values survive files without rounding.
An edge listed by several sets is legal on input: building the instance
subdivides it into a chain of equal-capacity segments, one per owning
set, which preserves the constraints exactly (a warning is emitted).
Writing is canonical: arcs by id, sets by index, single spaces, so
``parse_instance(write_instance(inst)) == inst`` and equal instances
produce byte-identical files.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError
from .graph import Graph
from .instance import Instance, SolveResult, make_instance
from .values import DeviationFn

__all__ = [
    "parse_instance",
    "write_instance",
    "parse_flow",
    "write_result",
]

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


def _rational(tok: str, ln: int, what: str) -> Fraction:
    if tok.isascii() and tok.isdigit():
        return Fraction(int(tok))
    if not _RATIONAL.match(tok):
        raise ParseError(f"{what} {tok!r} is not an integer or p/q", line=ln)
    return Fraction(tok)


def _index(tok: str, ln: int, what: str) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"{what} {tok!r} is not a nonnegative integer", line=ln)
    return int(tok)


def _deviation(kind: str, args: Sequence[str], ln: int) -> tuple[DeviationFn, list[str]]:
    """Build the deviation for an `h` record; returns it plus the edge tokens."""
    try:
        if kind == "const":
            if not args:
                raise ParseError("const needs a shift value", line=ln)
            return (
                DeviationFn.constant_shift(_rational(args[0], ln, "shift")),
                list(args[1:]),
            )
        if kind == "affine":
            if len(args) < 2:
                raise ParseError("affine needs slope and intercept", line=ln)
            return (
                DeviationFn.affine(
                    _rational(args[0], ln, "slope"),
                    _rational(args[1], ln, "intercept"),
                ),
                list(args[2:]),
            )
        if kind == "poly":
            if not args:
                raise ParseError("poly needs a degree", line=ln)
            deg = _index(args[0], ln, "degree")
            coeffs = args[1 : deg + 2]
            if len(coeffs) != deg + 1:
                raise ParseError(
                    f"poly of degree {deg} needs {deg + 1} coefficients", line=ln
                )
            return (
                DeviationFn.polynomial(
                    [_rational(c, ln, "coefficient") for c in coeffs]
                ),
                list(args[deg + 2 :]),
            )
    except ValueError as exc:
        raise ParseError(str(exc), line=ln) from exc
    raise ParseError(f"unknown deviation kind {kind!r}", line=ln)


def parse_instance(text: str) -> Instance:
    """Parse instance text into a validated Instance.

    Raises ParseError (with a line number) on malformed records and lets
    ValidationError from instance construction pass through.
    """
    header: tuple[int, int, int] | None = None
    source: int | None = None
    sink: int | None = None
    arcs: dict[int, tuple[int, int, Fraction]] = {}
    sets: dict[int, tuple[DeviationFn, list[int]]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0] == "c":
            continue
        rec = toks[0]
        if rec == "p":
            if header is not None:
                raise ParseError("duplicate header", line=ln)
            if len(toks) != 5 or toks[1] != "aemfp":
                raise ParseError("header must be `p aemfp <n> <m> <k>`", line=ln)
            header = (
                _index(toks[2], ln, "node count"),
                _index(toks[3], ln, "arc count"),
                _index(toks[4], ln, "set count"),
            )
            continue
        if header is None:
            raise ParseError("record before the `p aemfp` header", line=ln)
        n, m, k = header
        if rec == "n":
            if len(toks) != 3 or toks[2] not in ("s", "t"):
                raise ParseError("node record must be `n <id> s|t`", line=ln)
            idx = _index(toks[1], ln, "node id")
            if idx >= n:
                raise ParseError(f"node id {idx} out of range 0..{n - 1}", line=ln)
            if toks[2] == "s":
                if source is not None:
                    raise ParseError("duplicate source designation", line=ln)
                source = idx
            else:
                if sink is not None:
                    raise ParseError("duplicate sink designation", line=ln)
                sink = idx
        elif rec == "a":
            if len(toks) != 5:
                raise ParseError(
                    "arc record must be `a <id> <tail> <head> <cap>`", line=ln
                )
            eid = _index(toks[1], ln, "arc id")
            if eid >= m:
                raise ParseError(f"arc id {eid} out of range 0..{m - 1}", line=ln)
            if eid in arcs:
                raise ParseError(f"duplicate arc id {eid}", line=ln)
            tail = _index(toks[2], ln, "tail")
            head = _index(toks[3], ln, "head")
            if tail >= n or head >= n:
                raise ParseError("arc endpoint out of range", line=ln)
            arcs[eid] = (tail, head, _rational(toks[4], ln, "capacity"))
        elif rec == "h":
            if len(toks) < 3:
                raise ParseError("set record too short", line=ln)
            sid = _index(toks[1], ln, "set id")
            if sid >= k:
                raise ParseError(f"set id {sid} out of range 0..{k - 1}", line=ln)
            if sid in sets:
                raise ParseError(f"duplicate set id {sid}", line=ln)
            dev, edge_toks = _deviation(toks[2], toks[3:], ln)
            if not edge_toks:
                raise ParseError("set record lists no edges", line=ln)
            sets[sid] = (dev, [_index(t, ln, "edge id") for t in edge_toks])
        else:
            raise ParseError(f"unknown record type {rec!r}", line=ln)
    if header is None:
        raise ParseError("missing `p aemfp` header", line=len(text.splitlines()) or 1)
    n, m, k = header
    if source is None or sink is None:
        raise ParseError("source or sink designation missing", line=1)
    if len(arcs) != m:
        raise ParseError(f"expected {m} arcs, found {len(arcs)}", line=1)
    if len(sets) != k:
        raise ParseError(f"expected {k} sets, found {len(sets)}", line=1)
    g = Graph()
    for _ in range(n):
        g.add_node()
    g.source, g.sink = source, sink
    caps = []
    for eid in range(m):
        tail, head, cap = arcs[eid]
        g._link(tail, head)  # both ends range-checked with their record
        caps.append(cap)
    return make_instance(
        g, caps, [(sets[i][1], sets[i][0]) for i in range(k)]
    )


def _dev_record(sid: int, hs_edges: tuple[int, ...], dev: DeviationFn) -> str:
    ids = " ".join(str(e) for e in hs_edges)
    co = dev.poly.coeffs
    if dev.kind == DeviationFn.KIND_SHIFT:
        return f"h {sid} const {co[0]} {ids}"
    if dev.kind == DeviationFn.KIND_AFFINE:
        return f"h {sid} affine {co[1]} {co[0]} {ids}"
    deg = len(co) - 1
    cs = " ".join(str(c) for c in co)
    return f"h {sid} poly {deg} {cs} {ids}"


def write_instance(inst: Instance, comments: Iterable[str] = ()) -> str:
    """Canonical text for an instance; `comments` become leading `c` lines."""
    g = inst.graph
    lines = [f"c {c}" if c else "c" for c in comments]
    lines.append(f"p aemfp {g.n} {g.m} {inst.k}")
    lines.append(f"n {g.source} s")
    lines.append(f"n {g.sink} t")
    for e in g.edges:
        lines.append(f"a {e.id} {e.tail} {e.head} {inst.capacities[e.id]}")
    for sid, hs in enumerate(inst.sets):
        lines.append(_dev_record(sid, hs.edges, hs.deviation))
    return "\n".join(lines) + "\n"


def parse_flow(text: str, m: int) -> tuple[Fraction, ...]:
    """Per-edge flow values from `flow <id> <value>` (or `f ...`) records.

    Solver output is accepted directly: unrelated record types are
    skipped.  Every edge 0..m-1 must be covered exactly once.
    """
    values: dict[int, Fraction] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0] not in ("f", "flow"):
            continue
        if len(toks) != 3:
            raise ParseError("flow record must be `flow <edge> <value>`", line=ln)
        eid = _index(toks[1], ln, "edge id")
        if eid >= m:
            raise ParseError(f"edge id {eid} out of range 0..{m - 1}", line=ln)
        if eid in values:
            raise ParseError(f"duplicate flow record for edge {eid}", line=ln)
        values[eid] = _rational(toks[2], ln, "flow value")
    missing = [e for e in range(m) if e not in values]
    if missing:
        raise ParseError(f"no flow record for edge(s) {missing}", line=1)
    return tuple(values[e] for e in range(m))


def write_result(res: SolveResult) -> str:
    """Canonical text for a solve result.

    `flow` records make the output directly usable as a flow file; the
    `cut` record lists the source-side node ids of the certificate.
    """
    lines = []
    for i, x in enumerate(res.lambda_star):
        lines.append(f"lambda {i} {x}")
    lines.append(f"value {res.opt_value}")
    for e, f in enumerate(res.flow):
        lines.append(f"flow {e} {f}")
    side = " ".join(str(v) for v in sorted(res.certificate.s_side))
    lines.append(f"cut {side}")
    lines.append(f"cutvalue {res.certificate.capacity_at(res.lambda_star)}")
    return "\n".join(lines) + "\n"
