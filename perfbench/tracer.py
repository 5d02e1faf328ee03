"""Layer tracing from outside the package, by wrapping boundary functions.

Each boundary is a function or method of one `aemflow` module.  Installing
the tracer replaces the object in every namespace that holds it, because
the package imports functions by name (`bounded_max_flow_arcs` lives in
both `maxflow` and `instance`, `simplest_rational_in` in four modules) and
some modules import lazily inside a function body, which reads the
attribute of the defining module at call time.

A *span* boundary records calls, total time and self time (its duration
minus the time covered by the spans it caused), aggregated per parent
span name, so the trace keeps the call structure without storing millions
of individual spans.  A *count* boundary only counts calls; it is used for
hot inner functions (`_Net._bfs` runs millions of times on the oracle
workload), whose time stays in the self time of the span around them.

A boundary that no longer exists is reported as absent, and the run goes
on without it.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# (module, attribute path, kind).  Names below are what the package defines
# today; a later refactor may delete the private ones.
BOUNDARIES = [
    ("cli", "main", "span"),
    ("fileformat", "parse_instance", "span"),
    ("fileformat", "write_result", "span"),
    ("instance", "SolveResult.verify", "span"),
    ("instance", "FEvaluator.sample", "sample"),
    ("instance", "Instance.bounds_at", "span"),
    ("instance", "Instance.cut_report", "span"),
    ("maxflow", "max_flow_arcs", "span"),
    ("maxflow", "bounded_max_flow_arcs", "span"),
    ("maxflow", "deficiency_arcs", "span"),
    ("maxflow", "_aux_net", "span"),
    ("maxflow", "_Net.max_flow", "span"),
    ("maxflow", "_Net._bfs", "count"),
    ("parametric", "solve_simple_constant", "span"),
    ("parametric", "Slice.solve", "span"),
    ("parametric", "Slice.resolve", "span"),
    ("parametric", "Slice._resolve", "count"),
    ("parametric", "Slice.feasible_interval", "span"),
    ("parametric", "_SymNet.max_flow", "span"),
    ("values", "affine_compare", "count"),
    ("values", "poly_roots", "span"),
    ("values", "simplest_rational_in", "count"),
    ("ksets", "solve_k_constant", "span"),
    ("ksets", "solve_integer_constant", "span"),
    ("ksets", "_pin_solve", "span"),
    ("profile", "breakpoint_profile", "span"),
    ("lp", "solve_lp_constant", "span"),
    ("lp", "_simplex_min", "span"),
    ("lp", "_optimize", "span"),
    ("lp", "_pivot", "span"),
    ("concave", "solve_concave_single", "span"),
    ("concave", "_run", "span"),
    ("oracles", "oracle_fractional", "span"),
    ("oracles", "oracle_integer", "span"),
    ("oracles", "oracle_concave_single", "span"),
    ("oracles", "_int_value", "span"),
]

ROOT = "<root>"


class Tracer:
    """Aggregated span tree over the boundaries of one package."""

    def __init__(self, package: str = "aemflow"):
        self.package = package
        # (parent name, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack = [[ROOT, 0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._resolve_targets()

    # -- installation ------------------------------------------------------

    def _resolve_targets(self) -> None:
        # Import every submodule first: some are only imported lazily
        # inside function bodies, and their boundaries must exist now.
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("__"):  # __main__ runs the CLI
                importlib.import_module(f"{self.package}.{info.name}")
        self._targets = []
        for module, path, kind in BOUNDARIES:
            name = f"{module}.{path}"
            mod = sys.modules.get(f"{self.package}.{module}")
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.absent.append(name)
                continue
            original = owner.__dict__[attr]
            self._targets.append((name, kind, owner, attr, original))
            self._wrappers[name] = self._wrap(name, kind, original)

    def install(self) -> None:
        """Swap every boundary for its wrapper, in every holding namespace."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for name, _kind, owner, attr, original in self._targets:
            wrapper = self._wrappers[name]
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def remove(self) -> None:
        while self._patches:
            holder, key, value = self._patches.pop()
            setattr(holder, key, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        spanned = self._span(name, fn)
        if kind == "sample":
            return self._sample_counts(name, spanned)
        return spanned

    def _span(self, name: str, fn):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                parent[1] += took
                rec = edges[(parent[0], name)]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]

        return spanned

    def _sample_counts(self, name: str, spanned):
        """F-evaluator samples: a miss runs a max flow, a hit reads the memo."""
        counts = self.counts

        def sample(ev, lam):
            before = getattr(ev, "evaluations", None)
            out = spanned(ev, lam)
            if before is None:
                counts[name + ".unobserved"] += 1
            elif ev.evaluations != before:
                counts[name + ".misses"] += 1
                if not out.feasible:
                    counts[name + ".infeasible"] += 1
            return out

        return sample

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per boundary name: [calls, total seconds, self seconds]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, own) in self.edges.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out

    def tree(self) -> list[dict]:
        """Aggregated parent -> child edges, largest self time first."""
        rows = [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
