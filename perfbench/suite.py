"""Run every workload and print every metric with its unit and spread.

    python3 perfbench/suite.py                       # every workload, seed 1, + traced runs
    python3 perfbench/suite.py --workloads drop-light,drop-heavy,ep-decohere \
        --seeds 1-10 --no-trace --save out.json

Each run is a fresh ``run.py`` process, so ``peak_rss_mb`` is that of a
process that ran one workload only. With several seeds the suite prints,
per workload and end-to-end metric, the median, the quartiles and their
distance as a share of the median (``spread``), next to the metric's bound
from ``BENCHMARK.json``; a spread above a third of the bound is flagged.
The traced run adds the per-layer metrics, the layer shares and the
tracing overhead (traced minus untraced ``op_p50_s``). Exits nonzero when
any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; returns its result line plus the other output."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "returncode": proc.returncode,
                "wall_s": time.perf_counter() - start}
    result = json.loads(lines[-1])
    result.update(returncode=0, wall_s=time.perf_counter() - start,
                  notes=lines[:-1])
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run of each workload")
    parser.add_argument("--save", metavar="PATH",
                        help="write every run's result as JSON to PATH")
    args = parser.parse_args(argv)

    ok = True
    saved = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run(workload, seed, args.seconds, 0)
            result["seed"] = seed
            runs.append(result)
            ok &= result["correct"] is True
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result.get('attempted')} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
        saved["workloads"][workload] = {"runs": runs}
        done = [r for r in runs if "metrics" in r]
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in done]
            if not values:
                continue
            median = statistics.median(values)
            line = f"  {metric['name']:14s} {median:12.6g} {metric['unit']:6s}"
            if len(values) > 1:
                _, q1, q3, share = spread(values)
                flag = ("" if metric["name"] == "setup_s"
                        or share <= metric["bound"] / 3 else "  <-- spread")
                line += (f" q1 {q1:.6g} q3 {q3:.6g} spread {100 * share:6.2f} %"
                         f" (bound {100 * metric['bound']:.0f} %){flag}")
            print(line)
        if args.no_trace:
            continue
        traced = run(workload, seed_list(args.seeds)[0], args.seconds, 1)
        saved["workloads"][workload]["traced"] = traced
        ok &= traced["correct"] is True
        if "metrics" not in traced:
            continue
        for line in traced["notes"]:
            if line.startswith("share"):
                print(f"  {line}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:34s} {metric['value']:12.6g} {metric['unit']}")
        if done:
            untraced = statistics.median(
                r["metrics"]["op_p50_s"]["value"] for r in done)
            overhead = traced["metrics"]["trace.op_p50_s"]["value"] - untraced
            print(f"  tracing overhead {overhead:.6g} s per op "
                  f"({100 * overhead / untraced:.2f} % of op_p50_s)")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
