"""Counter self-check: baseline counts and repeatability of traced counts.

Reproduces the ROADMAP baseline, measured by wrapping `_Net.max_flow` and
`lp._pivot`:

* `solve_k_constant` over the acceptance `mixed_family(0..199)` corpus
  (the `const-nested` stream at seed 0) runs 67, 433 and 9457 integer
  max flows for its k=0, k=1 and k=2 instances (67, 67 and 66 of them);
* the canonical X3C yes gadgets take 167 (q=3) and 530 (q=6) pivots.

It also solves the approximation-chain yes gadgets (q=3, k=1 and 2),
which are too slow for the timed corpus, against their closed forms, runs
a short traced pass of every workload twice on seed 0, requiring
identical counts, and checks that BENCHMARK.json declares exactly the
metrics a run reports.
"""

from __future__ import annotations

import json
import shutil

import aemflow as af
from corpus import WORKLOADS
from run import END_TO_END, OVERHEAD, PER_LAYER, ROOT, WORK, layer_counts, traced_pass
from tracer import Tracer

MAXFLOW_BY_K = {0: (67, 67), 1: (67, 433), 2: (66, 9457)}
PIVOTS = {3: 167, 6: 530}
REPEAT_PAIRS = 3


def _traced(fn, *args):
    tracer = Tracer()
    tracer.install()
    try:
        out = fn(*args)
    finally:
        tracer.remove()
    return tracer, out


def _calls(tracer, name):
    return tracer.totals().get(name, [0])[0]


def baseline() -> list[dict]:
    checks = []
    workload = WORKLOADS["const-nested"]
    got = {k: [0, 0] for k in MAXFLOW_BY_K}
    for j in range(200):
        inst = workload.item(0, j).inst
        tracer, _ = _traced(af.solve_k_constant, inst)
        got[inst.k][0] += 1
        got[inst.k][1] += _calls(tracer, "maxflow._Net.max_flow")
    for k, want in MAXFLOW_BY_K.items():
        checks.append({
            "check": f"c04 k={k}: instances, _Net.max_flow calls",
            "want": list(want), "got": got[k], "ok": tuple(got[k]) == want,
        })
    for q, want in PIVOTS.items():
        inst, _ = af.generate_x3c_gadget(af.x3c_yes_instance(q))
        tracer, _ = _traced(af.solve_k_constant, inst)
        pivots = _calls(tracer, "lp._pivot")
        checks.append({
            "check": f"x3c q={q} yes: lp._pivot calls",
            "want": want, "got": pivots, "ok": pivots == want,
        })
    for k in (1, 2):
        inst, meta = af.generate_approx_gadget(af.x3c_yes_instance(3), k)
        res = af.solve_integer_constant(inst)
        ok = res.opt_value == meta.expected_yes_value == af.oracle_integer(inst)
        checks.append({
            "check": f"approx q=3 k={k} yes: integer optimum",
            "want": str(meta.expected_yes_value), "got": str(res.opt_value), "ok": ok,
        })
    return checks


def repeatability() -> list[dict]:
    checks = []
    for name, workload in WORKLOADS.items():
        seen = []
        for rep in range(2):
            directory = WORK / f"selfcheck-{name}-{rep}"
            try:
                tracer, _ = traced_pass(workload, 0, REPEAT_PAIRS, directory)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            seen.append(layer_counts(tracer))
        diff = sorted(k for k in set(seen[0]) | set(seen[1])
                      if seen[0].get(k) != seen[1].get(k))
        checks.append({
            "check": f"{name}: traced counts repeat on seed 0",
            "counts": len(seen[0]), "differ": diff, "ok": not diff,
        })
    return checks


def declared() -> list[dict]:
    """BENCHMARK.json lists the metrics the runs report, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def listed(key):
        return {m["name"]: (m["unit"], m["better"]) for m in spec[key]}

    per_layer = {name: (unit, better) for name, unit, better, _ in PER_LAYER}
    per_layer.update({name: (unit, better) for name, unit, better in OVERHEAD})
    end_to_end = {name: (unit, better) for name, unit, better in END_TO_END}
    return [
        {"check": "BENCHMARK.json per_layer matches the traced run",
         "ok": listed("per_layer") == per_layer},
        {"check": "BENCHMARK.json end_to_end matches the timed run",
         "ok": listed("end_to_end") == end_to_end},
    ]


def selfcheck() -> int:
    checks = declared() + baseline() + repeatability()
    for c in checks:
        print(json.dumps(c))
    ok = all(c["ok"] for c in checks)
    print(json.dumps({"selfcheck": "pass" if ok else "FAIL"}))
    return 0 if ok else 1
