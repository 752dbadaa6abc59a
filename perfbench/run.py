"""Benchmark for the isolation library: six seeded workloads (census, sweep,
three solve strata, construct), each run in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the workload untraced for half the time, then the same
operations again with spans around every layer entry point, and reports the
per-layer metrics plus the tracing overhead.  ``--smoke`` shrinks every
input so the whole harness runs in seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every output check
passed, 1 when one failed, 2 when the benchmark could not run (no ``src``
tree next to it, or a worker process failed).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("census", "sweep", "solve_dense", "solve_sparse", "solve_ring", "construct")
SETUP_PROBES = 2  # extra set-up-only processes per run, for the median setup_s
DEADLINE_S = 170  # every run ends within this many seconds
# Decade steps, so the percentile chosen stays put while the number of
# samples in a run drifts with the machine's speed.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# Each operation is corrected by the reference samples taken within this
# many seconds of it: the machine's speed drifts within a run as well.
SPEED_WINDOW_S = 0.3


class HarnessError(RuntimeError):
    pass


def worker(argv: list[str], started: float) -> dict:
    """Run worker.py in a fresh process and return its JSON record."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise HarnessError("out of time before starting a worker")
    env = {k: v for k, v in os.environ.items() if k != "ISOLATION_WORKERS"}
    cmd = [sys.executable, str(HERE / "worker.py"), *argv,
           "--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded the {DEADLINE_S} s limit") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile of TAIL_LADDER with at
    least ten samples above it, by nearest rank; (100, max) when there are
    too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def speed(ref_ms: list[float]) -> float:
    """How much slower than nominal the machine ran, from reference-loop
    samples: 1.25 means the loop took 25 percent longer than NOMINAL_MS."""
    return statistics.fmean(ref_ms) / NOMINAL_MS


def corrected_ms(rec: dict) -> list[float]:
    """Each operation's time divided by the speed factor of the reference
    samples taken during it or within SPEED_WINDOW_S of it."""
    at, ref_ms = rec["ref_at"], rec["ref_ms"]
    out = []
    for (start, end), ms in zip(rec["op_at"], rec["op_ms"]):
        lo = bisect.bisect_left(at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(at, end + SPEED_WINDOW_S)
        out.append(ms / speed(ref_ms[lo:hi] or ref_ms))
    return out


def end_to_end(base: list[str], seconds: float, started: float):
    """End-to-end metrics, with every time corrected for the machine's
    speed at the moment it was taken (see hostspeed.py); the raw values go
    on the detail line."""
    probes = [worker(base + ["--setup-only"], started) for _ in range(SETUP_PROBES)]
    # one worker process; the census, which must start cold, runs exactly
    # one operation in it, however long that takes
    rec = worker(base + ["--budget", str(seconds)], started)
    setups = probes + [rec]

    def summary(setup_s, op_ms):
        pct, tail_ms = tail(op_ms)
        return pct, {
            "setup_s": statistics.median(setup_s),
            "graphs_per_s": rec["units"] / (sum(op_ms) / 1e3),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": rec["rss_mb"],
        }

    _, raw = summary([r["setup_s"] for r in setups], rec["op_ms"])
    # each set-up is corrected by its own process's samples
    pct, metrics = summary([r["setup_s"] / speed(r["setup_ref_ms"]) for r in setups],
                           corrected_ms(rec))
    detail = {"ops": len(rec["op_ms"]), "op_tail_percentile": pct,
              "setup_samples": len(setups), "speed_factor": speed(rec["ref_ms"]),
              "raw": raw}
    return [rec], metrics, detail


def per_layer(base: list[str], workload: str, seconds: float, started: float):
    untraced = worker(base + ["--budget", str(seconds / 2)], started)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}.tsv"
    traced = worker(base + ["--ops", str(untraced["attempted"]), "--trace", str(spans)],
                    started)
    metrics = dict(traced["layers"])
    # both sides raw: the traced process samples no reference loop
    wall_u = sum(untraced["op_ms"]) / 1e3
    wall_t = sum(traced["op_ms"]) / 1e3
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.overhead_share"] = (wall_t - wall_u) / wall_u
    detail = {"ops": traced["attempted"], "untraced_s": wall_u, "traced_s": wall_t,
              "leader": traced["leader"], "spans": str(spans.relative_to(ROOT))}
    return [untraced, traced], metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking that the harness works")
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "isolation" / "__init__.py").is_file():
        print(f"error: no isolation source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    try:
        if args.trace:
            records, values, detail = per_layer(base, args.workload, args.seconds, started)
        else:
            records, values, detail = end_to_end(base, args.seconds, started)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(wanted):
        print(f"error: metrics {sorted(set(values) ^ set(wanted))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fail_ratio": failed / attempted, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": wanted[k]} for k in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
