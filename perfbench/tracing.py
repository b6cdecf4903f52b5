"""Traced run: per-layer spans, counters, import breakdown and memory.

The tracer replaces every public function of ``clonectx.bounds``,
``quantum``, ``ontic`` and ``scan`` by a wrapper defined here.  Calls inside
a module resolve their callees through module globals, so the wrappers see
those calls too.  Each call records a span (name, start, end, parent span,
request) in flat arrays kept in memory; layer self time is a span's
duration minus the durations of its direct children.

Time metrics are totals over the workload's first ``TRACE_COMMANDS``
seeded commands (run in-process through ``cli.run``), as the median over
however many repetitions fit in the run; counts are exact totals over the
same commands.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import os
import platform
import re
import statistics
import sys
import time
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
from child import cli_args, spawn
from workloads import POINT_SUBCOMMANDS, first_commands, fits_in_memory, full_argv, option

LAYERS = ("bounds", "quantum", "ontic", "scan")
TRACE_COMMANDS = {"point-queries": 16, "figure-data": 4, "ontic-grid": 8}
IMPORT_RUNS = 5
WRITERS = ("scan.write_series_csv", "scan.write_series_json", "scan.write_region_csv")
SPANNED = {
    "scan": ("noise_resistance_curve", "fidelity_curves", "violation_interval", "critical_noise"),
    "quantum": ("construct_optimal_clones", "noisy_ensemble", "simulate_confusabilities"),
    "ontic": ("build_saturating_model", "apply_map"),
}


class Tracer:
    """Span recorder installed as wrappers on module attributes."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self._saved: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.request = array("i"), array("i"), array("i")
        self.stack = [-1]
        self.current = [0]

    def install(self) -> None:
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                label = f"{layer}.{attr}"
                if label not in self.names:
                    self.names.append(label)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, self.names.index(label)))

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, nid: int):
        start, end, name, parent, request = self.start, self.end, self.name, self.parent, self.request
        stack, current, clock = self.stack, self.current, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            request.append(current[0])
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


# -- import breakdown ----------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds from ``-X importtime`` output.

    Lines are printed children first, indented two spaces per level; the
    tree is rebuilt so that "under scipy" counts the cumulative time of the
    outermost ``scipy`` imports only; numpy submodules that scipy pulls in
    count under scipy, so the parts never overlap.
    """
    roots: list[tuple[int, str, int, int, list]] = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, indent, mod = int(m[1]), int(m[2]), len(m[3]) // 2, m[4]
        children = []
        while roots and roots[-1][0] > indent:
            children.insert(0, roots.pop())
        roots.append((indent, mod, self_us, cum_us, children))

    totals = {"cli": 0, "scipy": 0, "numpy": 0, "clonectx": 0}

    def walk(node, inside: str | None) -> None:
        _, mod, self_us, cum_us, children = node
        top = mod.split(".")[0]
        if mod == "clonectx.cli":
            totals["cli"] += cum_us
        if top == "clonectx" and mod != "clonectx":
            totals["clonectx"] += self_us
        if top in ("scipy", "numpy") and inside is None:
            totals[top] += cum_us
            inside = top
        for child in children:
            walk(child, inside)

    for node in roots:
        walk(node, None)
    return {k: v / 1000.0 for k, v in totals.items()}


def import_breakdown(env: dict, scratch: Path) -> tuple[dict[str, float], float, float]:
    """Medians over fresh interpreters: import ms by part, import-run wall ms, bare-start wall ms."""
    parts, walls, bare = [], [], []
    for _ in range(IMPORT_RUNS):
        s = spawn(["-X", "importtime", "-c", "import clonectx.cli"], env, scratch)
        if s.exit_code != 0:
            raise RuntimeError(f"importing clonectx.cli failed:\n{s.stderr}")
        parts.append(parse_importtime(s.stderr))
        walls.append(s.wall_s * 1000.0)
        bare.append(spawn(["-c", "pass"], env, scratch).wall_s * 1000.0)
    med = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return med, statistics.median(walls), statistics.median(bare)


def machine() -> dict[str, str]:
    info = {
        "platform": platform.platform(),
        "cpus": str(os.cpu_count()),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = "absent"
    return info


# -- in-process invocations ----------------------------------------------------

def _invoke(cli, argv: list[str], out_dir: Path) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.run(full_argv(argv, out_dir))
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def _roots(argv: list[str], stdout: str) -> int:
    """Roots the command's root finders returned: interval ends, v_max, curve points."""
    if argv[0] == "region":
        o = json.loads(stdout)["outputs"]
        return sum(o[k] is not None for k in ("c_lo", "c_hi")) + len(o["anomalous_roots"])
    if argv[0] == "critical-noise":
        return 1
    if argv[0] == "curves":
        return 2 * max(int(option(argv, "--points")) - 2, 0)
    return 0


def _span_metrics(tracer: Tracer, handler_s: float) -> dict[str, float]:
    """Self and span times (ms) and counts from one traced pass."""
    a = tracer.arrays()
    names = np.array(tracer.names)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names])
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    span_layer = layer_of[a["name"]] if len(dur) else np.zeros(0, dtype=int)
    span_name = names[a["name"]] if len(dur) else np.zeros(0, dtype=str)
    calls = {n: int(c) for n, c in zip(tracer.names, np.bincount(a["name"], minlength=len(names)))}

    def incl(*labels: str) -> float:
        return float(dur[np.isin(span_name, labels)].sum()) * 1000.0

    m: dict[str, float] = {}
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_ms"] = float(own[span_layer == k].sum()) * 1000.0
    for layer, fns in SPANNED.items():
        for fn in fns:
            m[f"{layer}.{fn}_ms"] = incl(f"{layer}.{fn}")
    top = ~nested
    m["cli.self_ms"] = handler_s * 1000.0 - float(dur[top].sum()) * 1000.0
    m["ontic.checks_ms"] = float(
        dur[top & (span_layer == LAYERS.index("ontic")) & (span_name != "ontic.build_saturating_model")].sum()
    ) * 1000.0
    m["scan.write_ms"] = incl(*WRITERS)

    m["bounds.calls"] = sum(c for n, c in calls.items() if n.startswith("bounds."))
    m["bounds.us_per_call"] = m["bounds.self_ms"] * 1000.0 / m["bounds.calls"] if m["bounds.calls"] else 0.0
    m["scan.advantage_gap.calls"] = calls.get("scan.advantage_gap", 0)
    gap_ms = incl("scan.advantage_gap")
    m["scan.advantage_gap.us_per_call"] = gap_ms * 1000.0 / m["scan.advantage_gap.calls"] if m["scan.advantage_gap.calls"] else 0.0
    m["quantum.depolarize.calls"] = calls.get("quantum.depolarize", 0)
    crit = np.flatnonzero(span_name == "scan.critical_noise")
    parents = a["parent"][crit]
    m["scan.fallback_critical_noise_calls"] = int(
        np.sum((parents >= 0) & (span_name[np.maximum(parents, 0)] == "scan.noise_resistance_curve"))
    )
    return m


def _child_rss(cmds, env, scratch) -> list[float]:
    """Peak RSS (MB) of one fresh child per verify-ontic command.

    A spawned child inherits its parent's RSS high-water mark at exec, so
    this runs before any in-process work grows the benchmark's own memory.
    """
    return [spawn(cli_args(full_argv(a, scratch)), env, scratch).maxrss_mb for a in cmds if a[0] == "verify-ontic"]


def _memory_pass(cli, ontic, cmds, scratch, child_rss: list[float]) -> list[dict]:
    """Per verify-ontic command: computed kernel bytes, tracemalloc peak, child peak RSS."""
    rows = []
    original = ontic.build_saturating_model
    kernels: list[int] = []

    def capture(*args, **kwargs):
        model = original(*args, **kwargs)
        kernels.append(model.clone_map.kernel.nbytes)
        return model

    for argv, rss in zip((a for a in cmds if a[0] == "verify-ontic"), child_rss):
        ontic.build_saturating_model = capture
        tracemalloc.start()
        try:
            _invoke(cli, argv, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            ontic.build_saturating_model = original
        rows.append({
            "resolution": int(option(argv, "--resolution")),
            "kernel_bytes_computed": kernels[-1],
            "alloc_peak_mb": peak / 2**20,
            "child_peak_rss_mb": rss,
        })
    return rows


def traced_run(workload: str, seed: int, seconds: float, root: Path, scratch: Path, env: dict, out_dir: Path):
    """Run the traced pass; returns (all metrics, attempted, failures, report lines)."""
    t_start = time.perf_counter()
    imports, import_wall_ms, bare_ms = import_breakdown(env, scratch)
    cmds = [a for a in first_commands(workload, seed, TRACE_COMMANDS[workload]) if fits_in_memory(a)]
    if not cmds:
        raise SystemExit("error: no traced command fits in memory")
    child_rss = _child_rss(cmds, env, scratch)

    sys.path.insert(0, str(root / "src"))
    from clonectx import bounds, cli, ontic, quantum, scan

    dirs = [scratch / f"cmd{i}" for i in range(len(cmds))]
    tracer = Tracer([bounds, quantum, ontic, scan])
    failures: list[tuple[list[str], list[str]]] = []
    attempted = 0

    def checked(argv, code, stdout, d):
        nonlocal attempted
        attempted += 1
        problems = checks.check(argv, code, stdout, d)
        if problems:
            failures.append((argv, problems))

    _invoke(cli, cmds[0], dirs[0])  # warm-up: first-call costs are not per-command work
    per_rep: list[dict[str, float]] = []
    per_sub: dict[str, list[float]] = {}
    roots = bytes_written = 0
    while True:
        rep_t0 = time.perf_counter()
        untraced = 0.0
        roots = bytes_written = 0
        for argv, d in zip(cmds, dirs):
            dt, code, stdout = _invoke(cli, argv, d)
            untraced += dt
            per_sub.setdefault(argv[0], []).append(dt * 1000.0)
            checked(argv, code, stdout, d)
            if code == 0:
                roots += _roots(argv, stdout)
            if argv[0] == "curves":
                bytes_written += sum(f.stat().st_size for f in d.iterdir())
        tracer.reset()
        tracer.install()
        traced = 0.0
        try:
            for i, (argv, d) in enumerate(zip(cmds, dirs)):
                tracer.current[0] = i
                dt, code, stdout = _invoke(cli, argv, d)
                traced += dt
                checked(argv, code, stdout, d)
        finally:
            tracer.uninstall()
        m = _span_metrics(tracer, traced)
        m["cli.handler_ms.total"] = untraced * 1000.0
        m["trace.traced_handler_ms"] = traced * 1000.0
        m["trace.overhead_ms"] = (traced - untraced) * 1000.0
        per_rep.append(m)
        rep_s = time.perf_counter() - rep_t0
        if time.perf_counter() - t_start + rep_s > seconds:
            break

    memory = _memory_pass(cli, ontic, cmds, scratch, child_rss)

    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    for k in ("bounds.calls", "scan.advantage_gap.calls", "quantum.depolarize.calls", "scan.fallback_critical_noise_calls"):
        metrics[k] = per_rep[-1][k]
    metrics.update({
        "cli.import_ms": imports["cli"],
        "cli.import.scipy_ms": imports["scipy"],
        "cli.import.numpy_ms": imports["numpy"],
        "cli.import.clonectx_ms": imports["clonectx"],
        "scan.bytes_written": bytes_written,
        "scan.gap_evals_per_root": metrics["scan.advantage_gap.calls"] / roots if roots else 0.0,
        "ontic.kernel_bytes": max((r["kernel_bytes_computed"] for r in memory), default=0),
        "ontic.alloc_peak_mb": max((r["alloc_peak_mb"] for r in memory), default=0.0),
    })
    points = sum(2 * max(int(option(a, "--points")) - 2, 0) for a in cmds if a[0] == "curves")
    metrics["scan.warm_start_hit_ratio"] = 1.0 - metrics["scan.fallback_critical_noise_calls"] / points if points else 0.0
    for sub in POINT_SUBCOMMANDS:
        metrics[f"cli.handler_ms.{sub}"] = statistics.median(per_sub[sub]) if sub in per_sub else 0.0

    lines = _report(workload, cmds, per_rep, metrics, memory, import_wall_ms, bare_ms, roots, points)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = tracer.arrays()
    np.savez_compressed(out_dir / f"spans-{workload}.npz", names=np.array(tracer.names), **spans)
    with open(out_dir / f"trace-{workload}.json", "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "commands": cmds, "repetitions": len(per_rep),
            "machine": machine(), "metrics": metrics, "ontic_memory": memory,
            "import_run_wall_ms": import_wall_ms, "bare_interpreter_ms": bare_ms,
        }, fh, indent=1)
    return metrics, attempted, failures, lines


def _report(workload, cmds, per_rep, m, memory, import_wall_ms, bare_ms, roots, points) -> list[str]:
    info = machine()
    lines = [
        f"traced run: {workload}, {len(cmds)} seeded commands in-process via cli.run, "
        f"{len(per_rep)} repetition(s); times are totals over the commands (median over repetitions)",
        "machine: " + ", ".join(f"{k} {v}" for k, v in info.items()),
        f"import breakdown (median of {IMPORT_RUNS} fresh interpreters, -X importtime): "
        f"clonectx.cli {m['cli.import_ms']:.1f} ms = scipy {m['cli.import.scipy_ms']:.1f} + numpy "
        f"{m['cli.import.numpy_ms']:.1f} + clonectx self {m['cli.import.clonectx_ms']:.1f} + other; "
        f"import-run wall {import_wall_ms:.1f} ms, bare interpreter {bare_ms:.1f} ms",
        f"roots returned {roots}, noise-resistance points {points}",
    ]
    for k in sorted(m):
        lines.append(f"  {k:40s} {m[k]:.6g}")
    for r in memory:
        lines.append(
            f"  ontic n={r['resolution']}: kernel {r['kernel_bytes_computed'] / 2**20:.1f} MB (computed, kernel.nbytes), "
            f"tracemalloc peak {r['alloc_peak_mb']:.1f} MB, child peak RSS {r['child_peak_rss_mb']:.1f} MB"
        )
    # Expected profile on the unoptimised baseline, reported as measured.
    if workload == "point-queries":
        parts = {"scipy": m["cli.import.scipy_ms"], "numpy": m["cli.import.numpy_ms"],
                 "clonectx": m["cli.import.clonectx_ms"], "bare interpreter": bare_ms}
        parts["other"] = max(import_wall_ms - sum(parts.values()), 0.0)
        largest = max(parts, key=parts.get)
        lines.append(f"profile: largest share of start-up ({import_wall_ms:.0f} ms import run) is {largest} "
                     f"({parts[largest]:.0f} ms): {'as expected' if largest == 'scipy' else 'NOT as expected'}")
    if workload == "figure-data":
        share = (m["scan.self_ms"] + m["bounds.self_ms"]) / m["trace.traced_handler_ms"]
        lines.append(f"profile: scan + bounds self time is {share:.0%} of the traced curves handler time: "
                     f"{'as expected' if share > 0.5 else 'NOT as expected'}")
    if workload == "ontic-grid" and memory:
        big = max(memory, key=lambda r: r["resolution"])
        share = big["kernel_bytes_computed"] / 2**20 / big["child_peak_rss_mb"]
        lines.append(f"profile: at n={big['resolution']} the computed kernel is {share:.0%} of the child's peak RSS: "
                     f"{'as expected' if share > 0.5 else 'NOT as expected'}")
    return lines
