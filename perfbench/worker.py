"""One fresh benchmark process: set up a workload, run its operations as a
closed loop with one caller, check every output, and print one JSON line.

Started by run.py, never imported.  The isolation package is imported from
the ``src`` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import isolation  # noqa: E402

if Path(isolation.__file__).resolve().parent != ROOT / "src" / "isolation":
    sys.exit(f"error: imported isolation from {isolation.__file__}, not this checkout")

from hostspeed import reference_ms  # noqa: E402
from spans import TRACED, TraceError, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# Wrap points that must record calls on each workload; zero calls there
# means the tracer no longer sees the layer, which is an error, not a zero.
EXPECTED_CALLS = {
    "census": ("graph_core.canonical_form", "enumerate_verify.enumerate_connected"),
    "sweep": ("graph_core.decode_g6", "graph_core.encode_g6",
              "graph_core.induced_subgraph", "patterns.enumerate_copies",
              "solver.copy_closures", "solver.iota_exact",
              "enumerate_verify.verify_bound", "cli.main"),
    "solve_dense": ("solver.iota_exact", "graph_core.induced_subgraph",
                    "patterns.enumerate_copies", "solver.copy_closures"),
    "solve_sparse": ("solver.iota_exact", "graph_core.induced_subgraph",
                     "patterns.enumerate_copies", "solver.copy_closures"),
    "solve_ring": ("solver.iota_exact", "graph_core.induced_subgraph"),
    "construct": ("constructive.isolating_set_n5", "graph_core.induced_subgraph",
                  "patterns.contains_pattern", "solver.is_isolating",
                  "solver.iota_exact", "graph_core.canonical_form"),
}

# Reference-loop samples: a few right after set-up, then, in untraced runs,
# one from a timer signal every REF_EVERY_S of wall time, inside operations
# as well as between them (a cold census is one 10 to 20 s operation).
FIRST_REFS = 5
REF_EVERY_S = 0.1

RULES = ("cut:anchor", "cut:neighbor", "cut:fallback", "small-order-exact",
         "exceptional-component", "diamond-free")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="CLOCK_MONOTONIC time at which run.py started this process")
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of operations to run (at least one)")
    ap.add_argument("--ops", type=int, default=0,
                    help="run exactly this many operations instead of --budget")
    ap.add_argument("--trace", metavar="SPANS_PATH",
                    help="record spans and write them here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, SIZES["smoke" if args.smoke else "full"])
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.keep_results("solver.iota_exact")
        tracer.install()
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    refs, ref_at = [], []
    for _ in range(FIRST_REFS):
        ref_at.append(time.perf_counter())
        refs.append(reference_ms())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_ms": refs}))
        return 0

    limit = 1 if wl.one_op_per_process else args.ops
    deadline = time.perf_counter() + args.budget

    def more(i: int) -> bool:
        if limit:
            return i < limit
        return i == 0 or i % wl.round_ops or time.perf_counter() < deadline

    op_ms, op_at, errors, outs = [], [], [], []
    units = failed = 0
    ref_total = [0.0]  # ms spent in the timer's handler

    def sample(signum, frame):
        start = time.perf_counter()
        ref_at.append(start)
        refs.append(reference_ms())
        ref_total[0] += (time.perf_counter() - start) * 1e3

    if not tracer:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    i = 0
    while more(i):
        if tracer:
            tracer.op = i
        before = ref_total[0]
        start = time.perf_counter()
        try:
            out = wl.op(i)
            problem = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, problem = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        op_ms.append((end - start) * 1e3 - (ref_total[0] - before))
        op_at.append((start, end))
        if problem is None:
            units += wl.units(out)
            problem = wl.check(i, out)
        if problem:
            failed += 1
            errors.append(f"op {i}: {problem}")
        elif tracer:
            outs.append((i, out))
        i += 1
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_at.append(time.perf_counter())
    refs.append(reference_ms())

    record = {"setup_s": setup_s, "setup_ref_ms": refs[:FIRST_REFS], "ref_ms": refs,
              "ref_at": ref_at, "op_ms": op_ms, "op_at": op_at, "units": units,
              "attempted": len(op_ms), "failed": failed, "errors": errors[:5],
              "rss_mb": rss_mb}
    if tracer:
        tracer.write(args.trace)
        record["layers"], record["leader"] = layer_metrics(tracer, wl, outs)
    print(json.dumps(record))
    return 0


def layer_metrics(tracer: Tracer, wl, outs) -> tuple[dict, str]:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json, and
    the layer with the most self time."""
    own = tracer.self_times()
    m = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.self_s"] = own[name]
    missing = [n for n in EXPECTED_CALLS[wl.name] if not tracer.calls[n]]
    if missing:
        raise TraceError(f"{wl.name}: no calls recorded at {', '.join(missing)}")

    solves = tracer.results("solver.iota_exact")
    m["solver.copies"] = sum(r.copies_found for _, r in solves)
    m["solver.bb_nodes"] = sum(r.nodes_explored for _, r in solves)

    rules = Counter()
    tight = 0
    if wl.name == "construct":
        for i, (chosen, trace) in outs:
            rules.update(step.case for step in trace.steps)
            tight += chosen.bit_count() == wl.graph(i).n // 5
    for case in RULES:
        m[f"constructive.rule.{case.replace(':', '-')}"] = rules[case]
    m["constructive.tight_share"] = tight / len(outs) if rules else 0.0

    canon = tracer.calls["graph_core.canonical_form"]
    classes = sum(sum(out) for _, out in outs) if wl.name == "census" else 0
    m["enumerate_verify.census.accept_ratio"] = classes / canon if canon else 0.0
    return m, max(own, key=own.get)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as exc:
        sys.exit(f"error: {exc}")
