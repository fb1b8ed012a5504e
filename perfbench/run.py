"""Closed-loop benchmark of the qfall command line, one workload per run.

    python3 perfbench/run.py --workload drop-light --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. One client runs ops back to back: an op is one
in-process ``qfall.cli.main([...])`` call per subcommand of the workload,
on a config file generated from the seed, and the next op starts when the
previous one returns. A new op starts only while the window of
``--seconds`` has room for an op of the mean length so far, and at least
one op always runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers (see ``tracing.py``) and reports per-layer metrics instead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each op writes
into its own temporary directory under ``.bench_out/ops`` and the
directory is deleted after the op is checked; the op log and the spans
are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, check_report, config_stream, physics_record, read_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 7
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 10 * TAIL_BEYOND
MAX_REPORTED_FAILURES = 5

# Timed in a fresh interpreter: what every CLI invocation pays before work.
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qfall.cli as cli\n"
    "cli.parse_config_text(cli.DEFAULT_CONFIG_TEXT)\n"
    "print(repr(time.perf_counter() - start))\n"
)


def import_cli():
    """Import ``qfall.cli`` from this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import qfall.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qfall from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: imported qfall from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median import-plus-default-config time over fresh interpreters."""
    samples = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it. Below TAIL_MIN_SAMPLES samples that
    percentile would sit under p90 (under the median for a dozen ops), so
    the slowest op is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_op(cli, commands, config_text: str, work: Path, tracer, op: int):
    """Run one op in `work`; returns (seconds, problems, physics records)."""
    config_path = work / "config.ini"
    config_path.write_text(config_text)
    argvs = [[cmd, "--config", str(config_path), "--out", str(work / cmd)]
             for cmd in commands]
    stdout, stderr = io.StringIO(), io.StringIO()
    codes, problems, physics = [], [], []
    handle = tracer.begin_op(op) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            codes = [cli.main(argv) for argv in argvs]
    except Exception:
        problems.append(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_op(handle)
            tracer.count_op()
    for cmd, code in zip(commands, codes):
        if code != 0:
            problems.append(f"{cmd} exited {code}: {stderr.getvalue().strip()}")
            continue
        try:
            manifest, records = read_report(work / cmd)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{cmd}: unreadable report: {exc}")
            continue
        problems += [f"{cmd}: {p}" for p in check_report(cmd, manifest, records)]
        physics.append(physics_record(cmd, manifest, records))
    return seconds, problems, physics


def run_ops(cli, workload: str, seed: int, seconds: float, tracer=None):
    """The closed loop; returns (op seconds, op log, failed op count)."""
    _, commands = WORKLOADS[workload]
    stream = config_stream(workload, seed)
    ops_dir = OUT / "ops"
    ops_dir.mkdir(parents=True, exist_ok=True)
    times, log, failed = [], [], 0
    loop_start = time.perf_counter()
    while not times or (time.perf_counter() - loop_start
                        + sum(times) / len(times) <= seconds):
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ops_dir))
        try:
            elapsed, problems, physics = run_op(cli, commands, next(stream),
                                                work, tracer, len(times))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        times.append(elapsed)
        failed += bool(problems)
        if problems and failed <= MAX_REPORTED_FAILURES:
            print(f"op {len(times) - 1} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        # Kept as text so the log adds no objects for the collector to scan.
        log.append(json.dumps({"op": len(times) - 1, "seconds": elapsed,
                               "problems": problems, "reports": physics}))
    return times, log, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # One CLI invocation scans the import-time heap at most once; in this
    # long-lived loop every full collection would scan it again and show up
    # as op_tail_s, so the heap that exists before the first op is frozen.
    gc.collect()
    gc.freeze()
    try:
        times, log, failed = run_ops(cli, args.workload, args.seed,
                                     args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"ops_{tag}.jsonl", "w") as fh:
        for entry in log:
            fh.write(entry + "\n")

    attempted = len(times)
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.op_p50_s"] = (statistics.median(times), "s")
        tracer.write(OUT / f"trace_{args.workload}.jsonl")
        for layer, share in sorted(tracer.layer_shares().items(),
                                   key=lambda kv: -kv[1]):
            print(f"share {layer:12s} {100 * share:7.3f} %")
    else:
        tail_value, tail_pct, beyond = tail(times)
        print(f"op_tail_s is p{tail_pct:.2f} of {attempted} ops, "
              f"{beyond} beyond it")
        metrics = {
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_value, "s"),
            "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
            "setup_s": (measure_setup(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
