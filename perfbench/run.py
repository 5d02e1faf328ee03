"""Benchmark of `aemflow solve` and `aemflow oracle`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload const-nested --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --selfcheck

One process drives the program with one closed-loop client: it calls
`aemflow.cli.main` in-process on `.aemfp` files it generated from the seed,
one call after the other, for `--seconds` seconds.  No instance is solved
twice in a process.  The metrics cover the workload's first `sample` calls
(see corpus.py).  After the timed loop every answer is checked against an
independent reference, computed in worker processes (`--references`), and
every printed flow is fed to `aemflow verify`.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` the run solves a fixed, seed-determined corpus, alternating an
untraced call with a traced one, and reports per-layer counts and self
times of the traced calls (see tracer.py) plus the tracing overhead.  The
line before the result is a `context` object: seed, tail percentile and
sample count, fail ratio, stdout digest, source line counts, Python version
and CPU count.

`--selfcheck` reproduces the ROADMAP baseline counts and checks that two
traced passes on one seed count the same work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5


class Call(NamedTuple):
    index: int
    seconds: float
    rc: int | None
    out: str
    err: str
    exc: str | None


def call_cli(cli, index: int, argv: list[str]) -> Call:
    """One in-process `aemflow` invocation with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    exc = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as e:  # a raised exception is a failed call, not a crash
        rc, exc = None, f"{type(e).__name__}: {e}"
    finally:
        took = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return Call(index, took, rc, out.getvalue(), err.getvalue(), exc)


# -- machine speed ----------------------------------------------------------

# The shared machines this runs on switch between speed states, from a
# second to tens of seconds at a time (on the 2-vCPU machine it was tuned
# on, the probe below reads about 5 ms in one state and 9-10 ms in the
# other, rarely 15 ms).  Each call's time is therefore scaled by
# PROBE_REFERENCE_S over the probe time in force when it ran, raised to the
# workload's speed_exponent (1 for the Fraction-heavy workloads, which slow
# down as much as the probe), so throughput and latency read what they
# would on a machine where the probe takes PROBE_REFERENCE_S.  The probe runs no aemflow code, so a change to
# the program cannot move it.  Raw figures are reported in the context.
PROBE_REFERENCE_S = 0.005
PROBE_EVERY_S = 0.5
_PROBE_GRAPH = [[(7 * i + 3) % 97, (13 * i + 5) % 97, (i + 1) % 97] for i in range(97)]


def _probe_once() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for r in range(30):
        seen, queue = {0}, deque([0])
        while queue:
            for v in _PROBE_GRAPH[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        for i in range(1, 60):
            acc += Fraction(i, i + r + 1)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed pure-Python job like the solver's: BFS and Fractions.

    The fastest of two repetitions, so a single preemption does not count.
    """
    return min(_probe_once(), _probe_once())


# -- set-up -----------------------------------------------------------------


def corpus_path(directory: Path, j: int) -> Path:
    return directory / f"{j:06d}.aemfp"


def write_corpus(workload, seed: int, count: int, directory: Path) -> None:
    import aemflow as af

    directory.mkdir(parents=True, exist_ok=True)
    for j in range(count):
        item = workload.item(seed, j)
        corpus_path(directory, j).write_text(af.write_instance(item.inst))


def timed_setup(args, count: int, directory: Path) -> float:
    """One set-up in a fresh interpreter, timed.

    A set-up is interpreter start, import, instance generation and file
    writing.  Set-up times are not scaled by the speed probe: they do not
    follow it.
    """
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-only", str(directory),
        "--workload", args.workload, "--seed", str(args.seed), "--count", str(count),
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return took


def spare_setups(args, count: int, work: Path, runs: int) -> list[float]:
    """Further timed set-ups whose corpus is thrown away."""
    times = []
    for _ in range(runs):
        times.append(timed_setup(args, count, work / "spare"))
        shutil.rmtree(work / "spare")
    return times


# -- checking ---------------------------------------------------------------

REF_WORKERS = 2
REF_TIMEOUT_S = 150


def reference_worker(workload, seed: int, indices: list[int]) -> None:
    """Print the references of the given instances as one JSON object."""
    refs = {j: str(workload.reference(workload.item(seed, j))) for j in indices}
    print(json.dumps(refs))


def references(workload, seed: int, indices: list[int]) -> dict:
    """References for the given instances, computed in worker processes.

    They run after the timed region, so they do not disturb it; the oracles
    cost up to four times the solve they check, hence the workers.  Each
    worker is waited for on every path out, so none outlives the run.
    """
    workers = max(1, min(REF_WORKERS, os.cpu_count() or 1, len(indices)))
    procs = []
    try:
        for w in range(workers):
            share = ",".join(map(str, indices[w::workers]))
            argv = [
                sys.executable, str(HERE / "run.py"), "--references", share,
                "--workload", workload.name, "--seed", str(seed),
            ]
            procs.append(subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        deadline = time.monotonic() + REF_TIMEOUT_S
        out = {}
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError(f"reference worker failed: {stderr.strip()}")
            out.update({int(j): Fraction(v) for j, v in json.loads(stdout).items()})
        return out
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def check_calls(workload, seed: int, calls: list[Call], directory: Path, cli):
    """Failure reasons by call index, against independent references."""
    import aemflow as af
    from corpus import value_line

    refs = references(workload, seed, [c.index for c in calls])
    flow_file = directory / "verify.flow"
    failures = {}
    for c in calls:
        reason = None
        path = corpus_path(directory, c.index)
        if c.exc is not None:
            reason = c.exc
        elif c.rc != 0:
            reason = f"exit {c.rc}: {c.err.strip()}"
        elif (value := value_line(c.out)) is None:
            reason = "no value record in the output"
        else:
            item = workload.item(seed, c.index)
            if af.write_instance(item.inst) != path.read_text():
                reason = "corpus file differs from the regenerated instance"
            else:
                reason = workload.judge(item, value, refs[c.index])
            if reason is None and workload.command == "solve":
                flow_file.write_text(c.out)
                v = call_cli(cli, c.index, ["verify", str(path), str(flow_file)])
                if v.rc != 0 or v.out.strip() != f"ok value {value}":
                    reason = f"verify rejected the flow: {v.out.strip()[:200]}"
        if reason is not None:
            failures[c.index] = reason
    return failures


def digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(c.out.encode())
    return h.hexdigest()


# -- metrics ----------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def source_lines() -> dict[str, int]:
    out = {
        p.stem: len(p.read_text().splitlines())
        for p in sorted((SRC / "aemflow").glob("*.py"))
    }
    out["total"] = sum(out.values())
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calls(tot, name):
    return tot[name][0] if name in tot else 0


def _self(tot, name):
    return tot[name][2] if name in tot else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name, unit, better, and how to read it from a tracer.
# `t` is the tracer's per-name totals, `c` its plain counters.
PER_LAYER = [
    ("instance.FEvaluator.sample.calls", "count", "lower",
     lambda t, c: _calls(t, "instance.FEvaluator.sample")),
    ("instance.FEvaluator.sample.misses", "count", "lower",
     lambda t, c: c["instance.FEvaluator.sample.misses"]),
    ("instance.FEvaluator.sample.hit_ratio", "ratio", "higher",
     lambda t, c: _ratio(_calls(t, "instance.FEvaluator.sample")
                         - c["instance.FEvaluator.sample.misses"],
                         _calls(t, "instance.FEvaluator.sample"))),
    ("instance.FEvaluator.sample.infeasible_ratio", "ratio", "lower",
     lambda t, c: _ratio(c["instance.FEvaluator.sample.infeasible"],
                         c["instance.FEvaluator.sample.misses"])),
    ("instance.FEvaluator.sample.self_s", "s", "lower",
     lambda t, c: _self(t, "instance.FEvaluator.sample")),
    ("instance.Instance.bounds_at.self_s", "s", "lower",
     lambda t, c: _self(t, "instance.Instance.bounds_at")),
    ("instance.Instance.cut_report.self_s", "s", "lower",
     lambda t, c: _self(t, "instance.Instance.cut_report")),
    ("maxflow.bounded_max_flow_arcs.calls", "count", "lower",
     lambda t, c: _calls(t, "maxflow.bounded_max_flow_arcs")),
    ("maxflow.bounded_max_flow_arcs.self_s", "s", "lower",
     lambda t, c: _self(t, "maxflow.bounded_max_flow_arcs")),
    ("maxflow.deficiency_arcs.calls", "count", "lower",
     lambda t, c: _calls(t, "maxflow.deficiency_arcs")),
    ("maxflow.deficiency_arcs.self_s", "s", "lower",
     lambda t, c: _self(t, "maxflow.deficiency_arcs")),
    ("maxflow._aux_net.self_s", "s", "lower",
     lambda t, c: _self(t, "maxflow._aux_net")),
    ("maxflow._Net.max_flow.calls", "count", "lower",
     lambda t, c: _calls(t, "maxflow._Net.max_flow")),
    ("maxflow._Net.max_flow.self_s", "s", "lower",
     lambda t, c: _self(t, "maxflow._Net.max_flow")),
    ("maxflow.augmentations", "count", "lower",
     lambda t, c: c["maxflow._Net._bfs"] - _calls(t, "maxflow._Net.max_flow")),
    ("parametric.Slice.solve.calls", "count", "lower",
     lambda t, c: _calls(t, "parametric.Slice.solve")),
    ("parametric.Slice.solve.self_s", "s", "lower",
     lambda t, c: _self(t, "parametric.Slice.solve")),
    ("parametric.Slice.resolve.calls", "count", "lower",
     lambda t, c: _calls(t, "parametric.Slice.resolve")),
    ("parametric.Slice.resolve.self_s", "s", "lower",
     lambda t, c: _self(t, "parametric.Slice.resolve")),
    ("parametric.Slice.resolve.hit_ratio", "ratio", "higher",
     lambda t, c: _ratio(_calls(t, "parametric.Slice.resolve")
                         - c["parametric.Slice._resolve"],
                         _calls(t, "parametric.Slice.resolve"))),
    ("parametric.Slice.feasible_interval.calls", "count", "lower",
     lambda t, c: _calls(t, "parametric.Slice.feasible_interval")),
    ("parametric.Slice.feasible_interval.self_s", "s", "lower",
     lambda t, c: _self(t, "parametric.Slice.feasible_interval")),
    ("parametric._SymNet.max_flow.calls", "count", "lower",
     lambda t, c: _calls(t, "parametric._SymNet.max_flow")),
    ("parametric._SymNet.max_flow.self_s", "s", "lower",
     lambda t, c: _self(t, "parametric._SymNet.max_flow")),
    ("values.affine_compare.calls", "count", "lower",
     lambda t, c: c["values.affine_compare"]),
    ("ksets._pin_solve.calls", "count", "lower",
     lambda t, c: _calls(t, "ksets._pin_solve")),
    ("ksets._pin_solve.self_s", "s", "lower",
     lambda t, c: _self(t, "ksets._pin_solve")),
    ("profile.breakpoint_profile.calls", "count", "lower",
     lambda t, c: _calls(t, "profile.breakpoint_profile")),
    ("profile.breakpoint_profile.self_s", "s", "lower",
     lambda t, c: _self(t, "profile.breakpoint_profile")),
    ("lp._simplex_min.calls", "count", "lower",
     lambda t, c: _calls(t, "lp._simplex_min")),
    ("lp._pivot.calls", "count", "lower",
     lambda t, c: _calls(t, "lp._pivot")),
    ("lp._pivot.self_s", "s", "lower",
     lambda t, c: _self(t, "lp._pivot")),
    ("lp._optimize.self_s", "s", "lower",
     lambda t, c: _self(t, "lp._optimize")),
    ("concave._run.calls", "count", "lower",
     lambda t, c: _calls(t, "concave._run")),
    ("values.poly_roots.calls", "count", "lower",
     lambda t, c: _calls(t, "values.poly_roots")),
    ("values.poly_roots.self_s", "s", "lower",
     lambda t, c: _self(t, "values.poly_roots")),
    ("values.simplest_rational_in.calls", "count", "lower",
     lambda t, c: c["values.simplest_rational_in"]),
    ("oracles._int_value.calls", "count", "lower",
     lambda t, c: _calls(t, "oracles._int_value")),
    ("oracles.oracle_fractional.self_s", "s", "lower",
     lambda t, c: _self(t, "oracles.oracle_fractional")),
    ("fileformat.parse_instance.self_s", "s", "lower",
     lambda t, c: _self(t, "fileformat.parse_instance")),
    ("fileformat.write_result.self_s", "s", "lower",
     lambda t, c: _self(t, "fileformat.write_result")),
    ("instance.SolveResult.verify.self_s", "s", "lower",
     lambda t, c: _self(t, "instance.SolveResult.verify")),
    ("cli.main.calls", "count", "lower",
     lambda t, c: _calls(t, "cli.main")),
    ("cli.main.self_s", "s", "lower",
     lambda t, c: _self(t, "cli.main")),
]


# Tracing overhead, from the untraced and traced halves of a traced run.
OVERHEAD = [
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.untraced_per_s", "1/s", "higher"),
    ("trace.traced_per_s", "1/s", "higher"),
]

END_TO_END = [
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms.p50", "ms", "lower"),
    ("latency_ms.tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def layer_metrics(tracer) -> dict:
    tot, cnt = tracer.totals(), tracer.counts
    return {name: metric(fn(tot, cnt), unit) for name, unit, _, fn in PER_LAYER}


def layer_counts(tracer) -> dict:
    """Only the exact counts, for repeatability checks."""
    tot, cnt = tracer.totals(), tracer.counts
    out = {name: fn(tot, cnt) for name, unit, _, fn in PER_LAYER if unit == "count"}
    out.update({name: rec[0] for name, rec in tot.items()})
    out.update(cnt)
    return out


# -- runs -------------------------------------------------------------------


def context(args, workload, **extra) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "source_lines": source_lines(),
        **extra,
    }


def failure_context(workload, seed, failures: dict) -> dict:
    shown = [
        {"index": j, "label": workload.item(seed, j).label, "reason": r}
        for j, r in sorted(failures.items())[:5]
    ]
    return {"failures": shown}


def run_timed(args, workload, work: Path) -> tuple[dict, dict, dict]:
    count = max(64, math.ceil(workload.rate_cap * args.seconds))
    # SETUP_RUNS set-ups, two before the timed loop (the first writes the
    # corpus it measures) and the rest after the checking, so that the
    # median spans the run rather than one stretch of the machine's speed.
    directory = work / "corpus"
    setups = [timed_setup(args, count, directory)]
    setups += spare_setups(args, count, work, 1)

    import aemflow.cli as cli

    paths = [str(corpus_path(directory, j)) for j in range(count)]
    calls: list[Call] = []
    probes: list[float] = []  # the probe time in force for each call
    gc.collect()
    start = time.perf_counter()
    last_probe = start - PROBE_EVERY_S
    for j in range(count):
        now = time.perf_counter()
        if now - start >= args.seconds:
            break
        if now - last_probe >= PROBE_EVERY_S:
            current, last_probe = probe(), now
        calls.append(call_cli(cli, j, workload.argv(paths[j])))
        probes.append(current)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_calls(workload, args.seed, calls, directory, cli)
    setups += spare_setups(args, count, work, SETUP_RUNS - 2)
    measured = min(len(calls), workload.sample or len(calls))
    raw = [c.seconds for c in calls[:measured]]
    lat = [t * (PROBE_REFERENCE_S / p) ** workload.speed_exponent for t, p in zip(raw, probes)]
    tail, beyond = nearest_rank(sorted(lat), workload.tail_pct)
    values = {
        "throughput_per_s": measured / sum(lat),
        "latency_ms.p50": statistics.median(lat) * 1000,
        "latency_ms.tail": tail * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: metric(values[name], unit) for name, unit, _ in END_TO_END}
    head = calls[: workload.digest_calls]
    ctx = {
        "samples": measured,
        "calls": len(calls),
        "corpus": count,
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": len(failures) / len(calls),
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_median_s": statistics.median(probes[:measured]),
        "raw_throughput_per_s": measured / sum(raw),
        "raw_latency_ms.p50": statistics.median(raw) * 1000,
        "setup_runs_s": setups,
        "stdout_sha256": digest(head),
        "digest_calls": len(head),
        **failure_context(workload, args.seed, failures),
    }
    return metrics, ctx, {"attempted": len(calls), "failed": len(failures)}


def traced_pass(workload, seed: int, pairs: int, directory: Path):
    """Untraced and traced calls over 2 * pairs fixed instances.

    Whole shape periods alternate between the two, so both halves solve the
    same mix of shapes; `pairs` is rounded up to a whole number of periods.
    Returns the tracer and the calls, the traced ones flagged.
    """
    import aemflow.cli as cli
    from tracer import Tracer

    period = workload.period
    half = max(1, math.ceil(pairs / period)) * period
    write_corpus(workload, seed, 2 * half, directory)
    tracer = Tracer()
    calls: list[tuple[bool, Call]] = []
    gc.collect()
    for j in range(2 * half):
        argv = workload.argv(str(corpus_path(directory, j)))
        traced = (j // period) % 2 == 1
        if traced:
            tracer.install()
            try:
                calls.append((True, call_cli(cli, j, argv)))
            finally:
                tracer.remove()
        else:
            calls.append((False, call_cli(cli, j, argv)))
    return tracer, calls


def run_traced(args, workload, work: Path) -> tuple[dict, dict, dict]:
    import aemflow.cli as cli

    directory = work / "traced"
    pairs = math.ceil(workload.trace_rate * args.seconds)
    tracer, flagged = traced_pass(workload, args.seed, pairs, directory)
    calls = [c for _, c in flagged]
    half = len(calls) // 2
    untraced = sum(c.seconds for t, c in flagged if not t)
    traced = sum(c.seconds for t, c in flagged if t)
    failures = check_calls(workload, args.seed, calls, directory, cli)
    metrics = layer_metrics(tracer)
    values = {
        "trace.overhead_ratio": untraced / traced,
        "trace.untraced_per_s": half / untraced,
        "trace.traced_per_s": half / traced,
    }
    metrics.update({name: metric(values[name], unit) for name, unit, _ in OVERHEAD})
    ctx = {
        "traced_calls": half,
        "untraced_calls": half,
        "absent_boundaries": tracer.absent,
        "fail_ratio": len(failures) / len(calls),
        "stdout_sha256": digest(calls),
        "digest_calls": len(calls),
        "span_tree": tracer.tree()[:40],
        **failure_context(workload, args.seed, failures),
    }
    return metrics, ctx, {"attempted": len(calls), "failed": len(failures)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--setup-only", metavar="DIR")
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--references", metavar="INDICES")
    args = p.parse_args(argv)

    if not (SRC / "aemflow" / "cli.py").is_file():
        print(f"perfbench: no aemflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from corpus import WORKLOADS

    if args.selfcheck:
        from selfcheck import selfcheck

        return selfcheck()
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.references is not None:
        reference_worker(workload, args.seed, [int(j) for j in args.references.split(",") if j])
        return 0
    if args.setup_only:
        write_corpus(workload, args.seed, args.count, Path(args.setup_only))
        return 0

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_timed
        metrics, ctx, counts = run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"context": context(args, workload, **ctx)}))
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
