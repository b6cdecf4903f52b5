"""Benchmark runner for the clonectx CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` runs the workload as a closed loop with one client: each
request is one fresh-interpreter ``clonectx ... --json`` invocation, started
only after the previous one has exited, timed from spawn to exit and
reaped with ``os.wait4`` for its peak RSS.  After each block of commands
the loop also runs ``reference.py``, a fixed job that does not depend on the
program, and every time metric is scaled to the host speed at which that job
takes ``REFERENCE_S`` seconds; the report prints the raw times beside them.
Outputs are checked against independent closed forms after the timed loop.
``--trace 1`` runs the same seeded commands in-process with per-layer spans
(see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import child_env, cli_args, reference_args, spawn
from workloads import WORKLOADS, blocks, first_commands, fits_in_memory, full_argv

END_TO_END = {
    "wall_p50_ms": "ms",
    "wall_tail_ms": "ms",
    "cmd_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rss_p50_mb": "MB",
}
# Per-layer metrics emitted as JSON; every one is a count, or a time that is
# nonzero on every workload.  The traced run prints the full set as text.
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.import.clonectx_ms": "ms",
    "cli.handler_ms.total": "ms",
    "cli.self_ms": "ms",
    "bounds.self_ms": "ms",
    "bounds.us_per_call": "us",
    "bounds.calls": "count",
    "scan.advantage_gap.calls": "count",
    "scan.gap_evals_per_root": "1",
    "scan.warm_start_hit_ratio": "1",
    "scan.bytes_written": "bytes",
    "quantum.depolarize.calls": "count",
    "ontic.kernel_bytes": "bytes",
    "ontic.alloc_peak_mb": "MB",
    "trace.overhead_ms": "ms",
}
TAIL_BEYOND = 10
# The shared host's speed drifts by 20-45% within minutes, far more than any
# bound a run-to-run comparison could use, so times are reported at the speed
# at which the reference job takes this long (its raw median is printed).
REFERENCE_S = 1.0
OUT_DIR = ".perfbench_out"
_ELAPSED = re.compile(r"^elapsed: ([0-9.]+) s$", re.MULTILINE)


def _tail(values: list[float]) -> tuple[float, float, int]:
    """The highest sample with TAIL_BEYOND samples above it, its percentile, and the count above it."""
    xs = sorted(values)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - i - 1


def closed_loop(workload: str, seed: int, seconds: float, root: Path, scratch: Path):
    env = child_env(root)
    stream = blocks(workload, seed)
    runs, skipped = [], []  # (argv, sample, output directory or None)
    refs = []

    first = next(a for a in first_commands(workload, seed, 16) if fits_in_memory(a))
    spawn(cli_args(full_argv(first, scratch / "warm-up")), env, scratch)  # fills __pycache__
    _reference(env, scratch)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for argv in next(stream):
            if not fits_in_memory(argv):
                skipped.append(argv)
                continue
            out = scratch / f"out{len(runs)}" if argv[0] == "curves" else None
            runs.append((argv, spawn(cli_args(full_argv(argv, out)), env, scratch), out))
        refs.append(_reference(env, scratch))
    loop_s = time.perf_counter() - t0

    import checks  # numpy; kept out of the benchmark process until the children are done

    failures = []
    setups = []
    for argv, s, out in runs:
        problems = checks.check(argv, s.exit_code, s.stdout, out)
        m = _ELAPSED.search(s.stderr)
        if m:
            setups.append(s.wall_s - float(m[1]))
        else:
            problems.append("no elapsed: line on stderr")
        if problems:
            failures.append((argv, problems))

    samples = [s for _, s, _ in runs]
    walls = [s.wall_s * 1000.0 for s in samples]
    rss = [s.maxrss_mb for s in samples]
    tail, pct, beyond = _tail(walls)
    raw = {
        "wall_p50_ms": statistics.median(walls),
        "wall_tail_ms": tail,
        # Workload wall time is the time spent in the program's invocations.
        "cmd_per_s": len(samples) / (sum(walls) / 1000.0),
        # Without any elapsed: line the whole wall time is the only bound on set-up.
        "setup_s": statistics.median(setups) if setups else statistics.median(walls) / 1000.0,
    }
    ref_s = statistics.median(refs)
    scale = REFERENCE_S / ref_s
    metrics = {k: v / scale if k == "cmd_per_s" else v * scale for k, v in raw.items()}
    metrics["peak_rss_mb"] = max(rss)
    metrics["rss_p50_mb"] = statistics.median(rss)
    n = len(samples)
    lines = [
        f"closed loop, 1 client: {workload}, seed {seed}, {n} invocations and {len(refs)} reference "
        f"jobs in {loop_s:.2f} s (after 1 warm-up invocation and 1 warm-up reference job)",
        f"  reference job: median {ref_s:.4f} s, so times below are scaled by {scale:.4f} "
        f"(raw value in brackets)",
    ]
    for k, unit in END_TO_END.items():
        note = f"  (p{pct:.0f} of {n} samples, {beyond} beyond)" if k == "wall_tail_ms" else ""
        measured = f"  [{raw[k]:.6g}]" if k in raw else ""
        lines.append(f"  {k:14s} {metrics[k]:.6g} {unit}{measured}{note}")
    lines.append(f"  {'fail_ratio':14s} {len(failures)}/{n} = {len(failures) / n:.4g}")
    if skipped:
        lines.append(f"  skipped {len(skipped)} command(s) whose dense kernel would not fit in memory")
    return metrics, n, failures, lines


def _reference(env: dict[str, str], scratch: Path) -> float:
    """Wall time in seconds of one run of the reference job."""
    sample = spawn(reference_args(), env, scratch)
    if sample.exit_code != 0:
        raise SystemExit(f"error: the reference job exited with code {sample.exit_code}:\n{sample.stderr}")
    return sample.wall_s


def run_all(args) -> int:
    """Run every workload in turn, each in its own benchmark process, and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "clonectx" / "cli.py").is_file():
        print(f"error: {root} is not a clonectx checkout (no src/clonectx/cli.py)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    out_dir = root / OUT_DIR
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import tracing  # numpy and clonectx in-process

            values, n, failures, lines = tracing.traced_run(
                args.workload, args.seed, args.seconds, root, scratch, child_env(root), out_dir
            )
        else:
            values, n, failures, lines = closed_loop(args.workload, args.seed, args.seconds, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in lines:
        print(line)
    for argv, problems in failures:
        print(f"FAILED: clonectx {' '.join(argv)}")
        for p in problems:
            print(f"    {p}")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in (PER_LAYER if args.trace else END_TO_END).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
