"""Directed multigraph model: nodes, edges, source and sink.

Nodes are dense integer ids with optional string names; edges are dense ids
in insertion order.  Parallel edges are allowed (some constructions need
them), self-loops are rejected because they can never carry s-t flow and
would corrupt cut bookkeeping.  The graph holds no flows: a flow is a
per-edge tuple of values, checked by `Instance.check_flow`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError

__all__ = ["Edge", "Graph"]


class Edge(NamedTuple):
    id: int
    tail: int
    head: int


class Graph:
    """Mutable builder for a directed multigraph with distinguished s and t."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._by_name: dict[str, int] = {}
        self.edges: list[Edge] = []
        self._out: list[list[int]] = []
        self._in: list[list[int]] = []
        self.source: int | None = None
        self.sink: int | None = None

    @property
    def n(self) -> int:
        return len(self._names)

    @property
    def m(self) -> int:
        return len(self.edges)

    def add_node(self, name: str | None = None) -> int:
        idx = len(self._names)
        if name is None:
            name = f"v{idx}"
        if name in self._by_name:
            raise ValidationError(f"duplicate node name {name!r}")
        self._names.append(name)
        self._by_name[name] = idx
        self._out.append([])
        self._in.append([])
        return idx

    def node_id(self, ref: int | str) -> int:
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise ValidationError(f"unknown node {ref!r}") from None
        if not 0 <= ref < self.n:
            raise ValidationError(f"node id {ref} out of range")
        return ref

    def node_name(self, idx: int) -> str:
        return self._names[idx]

    def add_edge(self, tail: int | str, head: int | str) -> int:
        return self._link(self.node_id(tail), self.node_id(head))

    def _link(self, u: int, v: int) -> int:
        """Add the edge u -> v between node ids already known to be in range."""
        if u == v:
            raise ValidationError(f"self-loop at node {self._names[u]!r} rejected")
        eid = len(self.edges)
        self.edges.append(Edge(eid, u, v))
        self._out[u].append(eid)
        self._in[v].append(eid)
        return eid

    def out_edges(self, v: int) -> list[int]:
        return self._out[v]

    def subdivide_edge(self, eid: int, count: int, name_hint: str = "split") -> list[int]:
        """Replace edge `eid` by a chain of `count` segments.

        The original id becomes the first segment; the rest are fresh edges
        through fresh intermediate nodes.  Returns all segment ids in chain
        order.
        """
        if count < 1:
            raise ValidationError("segment count must be positive")
        edge = self.edges[eid]
        segments = [eid]
        prev_head = edge.head
        for j in range(1, count):
            base = f"{name_hint}{eid}_{j}"
            name = base
            bump = 0
            while name in self._by_name:
                bump += 1
                name = f"{base}.{bump}"
            mid = self.add_node(name)
            if j == 1:
                # reroute the original edge into the first midpoint
                self.edges[eid] = edge._replace(head=mid)
                self._in[edge.head].remove(eid)
                self._in[mid].append(eid)
            else:
                last = segments[-1]
                seg = self.edges[last]
                self.edges[last] = seg._replace(head=mid)
                self._in[seg.head].remove(last)
                self._in[mid].append(last)
            segments.append(self.add_edge(mid, prev_head))
        return segments

    def validate(self) -> None:
        if self.source is None or self.sink is None:
            raise ValidationError("source and sink must both be set")
        if self.source == self.sink:
            raise ValidationError("source and sink must differ")
        for idx in (self.source, self.sink):
            if not 0 <= idx < self.n:
                raise ValidationError("source/sink id out of range")

