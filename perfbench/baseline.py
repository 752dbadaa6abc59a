"""Run every workload of BENCHMARK.json on several seeds and summarise each
end-to-end metric (median, quartiles, and the quartile spread as a share of
the median), plus one traced run per workload on the first seed.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Workloads run one after another, never in parallel, so they do not slow
each other down.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOT_MEASURED = ("the --workers pool path, the order-9 census, and in-program "
                "counters such as prune counts and pivot retries")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one run; raises if the run failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"),
                    help="seed range such as 0-9 (at least two seeds)")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"{platform.python_implementation()} {platform.python_version()}",
              "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "not_measured": NOT_MEASURED, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            _, result = bench(name, seed, spec["run_seconds"], 0)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        entry = {"untraced": {k: summarise(v) for k, v in values.items()}}
        for k, s in entry["untraced"].items():
            flag = "" if s["spread"] <= bounds[k] / 3 else "  (over a third of its bound)"
            print(f"{name:12s} {k:14s} median {s['median']:12.4f}  spread "
                  f"{s['spread']:.3f} / bound {bounds[k]}{flag}", flush=True)
        detail, result = bench(name, args.seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced_detail"] = detail
        print(f"{name:12s} traced: leader {detail['leader']}, overhead "
              f"{entry['traced']['trace.overhead_share']:.3f}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
