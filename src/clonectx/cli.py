"""Command-line front end, and the one module that lays out what clonectx writes: reports and figure files.

Subcommands expose the closed-form bounds, the clone optimizer, the noisy
quantum experiment, violation-region and critical-noise root finding,
figure-data emission, and the two verification suites (ontological model
and quantum simulation).  Reports go to standard output as plain text, or
as a single JSON document with ``--json``; elapsed wall time goes to
standard error so that identical invocations produce byte-identical
reports; a stderr that cannot be written loses that line alone, not the
exit status.  Every verdict is one residual judged at one tolerance by
:meth:`RunReport.check`.  Exit status: 0 when every verdict passes, 1 when
any fails, 2 for argument errors.  :func:`run` makes every report, its
inputs the parsed arguments in the order ``-h`` lists them; the
subcommand's handler only computes, and fills the report with outputs and
verdicts.  This module imports :mod:`clonectx.bounds` alone, which computes
on Python floats and holds the sweep modes the parser offers, so importing
it loads neither numpy, :mod:`inspect` nor :mod:`pathlib`.  Every other
module loads only for the subcommands that use it, by one rule:
``_COMMANDS`` names, beside each subcommand's help, handler and arguments,
the module its handler takes, and :func:`run` imports it before the clock
starts, so ``elapsed:`` times the computation alone.  Those modules are
:mod:`clonectx.scan` for ``region``, ``critical-noise`` and ``curves``,
:mod:`clonectx.cloner` for ``clones``, :mod:`clonectx.quantum` (which takes
the cloner's basis) for ``noise`` and ``verify-quantum``, and
:mod:`clonectx.ontic` for ``verify-ontic``; ``bounds`` needs none.  Each
computes on Python floats, so no subcommand loads numpy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import sys
import time
from collections.abc import Sequence
from functools import partial

from . import bounds

ACCEPT_EXACT = 1e-12
CLONE_TOL = 1e-7
OVERLAP_TOL = 1e-9
# verify-ontic --resolution n snaps c to round(c*m)/m, m = n/2, in floats.  Up
# to 2**53, m converts to a float exactly; beyond it the snap rounds, and
# past about 1e308 the product c*m overflows.
MAX_RESOLUTION = 2**53
# curves keeps the c grid, its four series' columns and the grid's text in memory;
# its measured peak RSS grows by about 350 bytes per point, 0.15 GB at 4e5 points.
MAX_POINTS = 1_000_000
BYTES_PER_CURVE_POINT = 350


class RunReport:
    """One subcommand's report: its inputs, and the outputs and verdicts its handler adds as it runs."""

    __slots__ = ("command", "inputs", "outputs", "verdicts")

    def __init__(self, command: str, inputs: dict) -> None:
        self.command, self.inputs = command, inputs
        self.outputs: dict = {}
        self.verdicts: list[dict] = []

    def check(self, name: str, what: str, residual: float, tol: float) -> None:
        """The verdict ``name``: pass exactly when ``residual <= tol`` (so NaN fails), the detail saying both."""
        self.verdicts.append({"name": name, "status": "pass" if residual <= tol else "fail",
                              "detail": f"{what} = {residual:.3e} <= {tol}"})

    @property
    def failed(self) -> bool:
        return any(v["status"] == "fail" for v in self.verdicts)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            lines += [f"  {k} = {v}" for k, v in self.inputs.items()]
        if self.outputs:
            lines.append("outputs:")
            lines += [f"  {k} = {v}" for k, v in self.outputs.items()]
        if self.verdicts:
            lines.append("verdicts:")
            lines += [f"  [{v['status'].upper()}] {v['name']}  ({v['detail']})" for v in self.verdicts]
            lines.append(f"result: {'FAIL' if self.failed else 'PASS'}")
        return "\n".join(lines)

    def render_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdicts": self.verdicts,
            "result": "fail" if self.failed else "pass",
        }
        return json.dumps(doc, indent=1)


# The file formats of the figure data: what curves --format offers and write_curves writes.
CURVE_FORMATS = ("csv", "json")
# Points per write: enough to amortise the call, few enough that no file's text is held whole.
_CHUNK = 4096


def _x_text(x: tuple, grid: tuple, grid_text: list[str]) -> list[str]:
    """Column ``x`` as text: the matching run of ``grid_text`` if ``x`` is a run of ``grid``, else formatted here."""
    if x and x[0] in grid:
        start = grid.index(x[0])
        if grid[start:start + len(x)] == x:
            return grid_text[start:start + len(x)]
    return list(map(float.__repr__, x))


def write_curves(curves: dict, out: str, ext: str) -> list[str]:
    """Write each :class:`~clonectx.scan.CurveSeries` to ``out/<name>.<ext>``, ``ext`` one of ``CURVE_FORMATS``.

    A CSV file holds an ``x,y`` header and one row per point, a JSON file the
    layout of ``json.dump({"label", "mode", "points"}, indent=1)``.  Every float
    is written as its repr, so a file reads back to the same doubles.  The
    longest x column is formatted once, and every series whose x column is a
    run of it takes that run's text; a file is written in chunks of joined lines.
    Any other ``ext`` raises a ``ValueError`` before a file is made.  Returns the paths, in order.

    A file is opened without ``O_TRUNC`` and cut to length after the last
    write, so a symlink or hard link sees the new data and the file keeps its
    mode; truncating at open stalls on ext4 for a file written just before.
    """
    if ext not in CURVE_FORMATS:
        raise ValueError(f"ext must be one of {CURVE_FORMATS}, got {ext!r}")
    grid = max((s.x for s in curves.values()), key=len, default=())
    grid_text = list(map(float.__repr__, grid))
    paths = [os.path.join(out, f"{name}.{ext}") for name in curves]
    for path, series in zip(paths, curves.values()):
        xs, ys = _x_text(series.x, grid, grid_text), series.y
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="" if ext == "csv" else None) as fh:
            if ext == "csv":
                fh.write("x,y\r\n")
                for i in range(0, len(xs), _CHUNK):
                    fh.write("".join([f"{x},{y!r}\r\n" for x, y in zip(xs[i:i + _CHUNK], ys[i:i + _CHUNK])]))
            else:
                label, mode = json.dumps(f"{series.y_label} vs {series.x_label}"), json.dumps(series.provenance)
                fh.write(f'{{\n "label": {label},\n "mode": {mode},\n "points": [')
                for i in range(0, len(xs), _CHUNK):
                    fh.write(("," if i else "") + ",".join([f"\n  [\n   {x},\n   {y!r}\n  ]"
                                                             for x, y in zip(xs[i:i + _CHUNK], ys[i:i + _CHUNK])]))
                fh.write("\n ]\n}\n" if xs else "]\n}\n")
            fh.truncate()
    return paths


def _probability(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"value {x} outside [0, 1]")
    return x + 0.0  # a typed -0.0 as +0.0; every other float unchanged


def _open_probability(text: str) -> float:
    x = _probability(text)
    if not 0.0 < x < 1.0:
        raise argparse.ArgumentTypeError(f"value {x} must lie strictly inside (0, 1)")
    return x


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _curve_points(text: str) -> int:
    x = _integer(text)
    if x < 2:
        raise argparse.ArgumentTypeError(f"value {x} must be at least 2")
    if x > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"value {x} must be at most {MAX_POINTS}: curves takes about "
                                         f"{BYTES_PER_CURVE_POINT} bytes per point, "
                                         f"{BYTES_PER_CURVE_POINT * x / 1e9:.2f} GB at {x} points")
    return x


def _directory(text: str) -> str:
    """``text`` spelled as ``str(pathlib.Path(text))`` spells it on POSIX: without empty or
    "." parts, a leading "//" kept (a leading "/" or "///" becomes "/"), and "." if nothing is left."""
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" if text[:1] == "/" else ""
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _resolution(text: str) -> int:
    x = _integer(text)
    if x < 4 or x % 2:
        raise argparse.ArgumentTypeError(f"value {x} must be an even number >= 4")
    if x > MAX_RESOLUTION:
        raise argparse.ArgumentTypeError(f"value {x} must be at most 2**53 = {MAX_RESOLUTION}, "
                                         "so that c snaps exactly to k/(n/2)")
    return x


def _cmd_bounds(report: RunReport, args: argparse.Namespace) -> None:
    c = args.c
    report.outputs["quantum_optimal_fidelity"] = bounds.quantum_optimal_fidelity(c)
    report.outputs["nc_bound_ideal"] = bounds.nc_bound_ideal(c, c * c)
    report.outputs["nc_discrimination_bound"] = bounds.nc_discrimination_bound(c)
    if args.v is not None:
        v = args.v
        eps, overlaps = bounds.depolarizing_epsilons(v), bounds.observed_overlaps(0.0, c)
        noisy = bounds.nc_bound_noisy(overlaps, eps)
        report.outputs.update({"eps_single_copy": eps["a"], "eps_two_copy": eps["aa"]} | bounds.err_terms(v))
        report.outputs.update(nc_bound_noisy=noisy, nc_bound_noisy_clamped=noisy > 1.0,
                              nc_bound_noisy_symmetric=bounds.nc_bound_noisy_symmetric(overlaps, eps),
                              quantum_noisy_fidelity=bounds.quantum_noisy_fidelity(v, c))


def _cmd_clones(report: RunReport, args: argparse.Namespace, cloner) -> None:
    c = args.c
    result = cloner.search_clones(c)
    formula = bounds.quantum_optimal_fidelity(c)
    delta = abs(result.fidelity - formula)
    report.outputs.update(
        {
            "optimizer_fidelity": result.fidelity,
            "closed_form_fidelity": formula,
            "delta": delta,
            "overlap_error": result.overlap_error,
            "grid_fidelity": result.grid_fidelity,
        }
    )
    report.check("optimizer-matches-closed-form", "|delta|", delta, CLONE_TOL)
    report.check("overlap-constraint", "residual", result.overlap_error, OVERLAP_TOL)


def _cmd_quantum(report: RunReport, args: argparse.Namespace, quantum, residuals: bool) -> None:
    """``noise`` and ``verify-quantum``: Born-rule outputs of the noisy experiment
    checked against the closed forms, with each equivalence residual if ``residuals``."""
    v, c = args.v, args.c
    ens = quantum.noisy_ensemble(v, c)
    p = ens.pass_probability
    overlaps, eps = bounds.measured_overlaps(p), bounds.measured_epsilons(p)
    f_g = bounds.global_fidelity(p)
    equivalences = ens.equivalence_residuals()
    o2_residual = bounds._worst(equivalences.values())
    report.outputs.update({f"{k}_observed": x for k, x in overlaps.items()} | {f"eps_{s}": x for s, x in eps.items()})
    report.outputs.update(f_global=f_g, o2_residual=o2_residual)
    if residuals:
        report.outputs.update({f"equivalence_residual[{pair}]": x for pair, x in equivalences.items()})

    for name, measured, closed in (("epsilons-match-closed-forms", eps, bounds.depolarizing_epsilons(v)),
                                   ("observed-confusabilities-match-closed-forms", overlaps,
                                    bounds.observed_overlaps(v, c))):
        report.check(name, "max |delta|", bounds._worst(abs(measured[k] - closed[k]) for k in measured), ACCEPT_EXACT)
    report.check("global-fidelity-matches-closed-form", "|delta|",
                 abs(f_g - bounds.quantum_noisy_fidelity(v, c)), ACCEPT_EXACT)
    report.check("mixing-equivalences", "max residual", o2_residual, ACCEPT_EXACT)


def _cmd_region(report: RunReport, args: argparse.Namespace, scan) -> None:
    region = scan.violation_interval(args.v, args.err_mode, args.c_mode)
    # The window is one interval, so no root lies outside it; perfbench's traced pass still reads the empty list.
    report.outputs.update({"empty": region.is_empty, "c_lo": region.c_lo, "c_hi": region.c_hi, "anomalous_roots": []})


def _cmd_critical_noise(report: RunReport, args: argparse.Namespace, scan) -> None:
    report.outputs["v_max"] = scan.critical_noise(args.c, args.err_mode, args.c_mode)


def _cmd_curves(report: RunReport, args: argparse.Namespace, scan) -> None:
    out = args.out
    # Made here, not while the arguments convert, so that a bad argument after --out leaves no directory.
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"argument --out: cannot create directory {out!r}: "
                                         f"{exc.strerror}") from exc
    n = args.points
    # The published error term is ambiguous, so both defensible
    # noise-resistance curves are emitted side by side.
    curves = scan.figure_curves([i / (n - 1) for i in range(n)], args.c_mode, ("thm2-direct", "err-prime"))
    try:
        # "" rather than ".": the files are then named bare, as pathlib.Path(".") / name spells them.
        report.outputs["files"] = write_curves(curves, "" if out == "." else out, args.format)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"argument --out: cannot write {str(exc.filename or out)!r}: "
                                         f"{exc.strerror}") from exc


def _cmd_verify_ontic(report: RunReport, args: argparse.Namespace, ontic) -> None:
    c = args.c
    if args.resolution is not None:
        m = args.resolution // 2
        k = round(args.c * m)
        c = k / m
        if abs(c - args.c) > 1e-12:
            report.outputs["warnings"] = [f"snapping overlap {args.c} to the nearest k/(n/2): {c} (= {k}/{m})"]
    report.outputs["c_snapped"] = c
    model = ontic.build_saturating_model(c)
    p = model.pass_probability
    tol = ontic.STRUCTURAL_TOL

    report.check("perfect-correlations", "max residual", bounds._worst(bounds.measured_epsilons(p).values()), tol)
    report.check("mixing-equivalences", "max residual", bounds._worst(model.equivalence_residuals().values()), tol)

    f_g = bounds.global_fidelity(p)
    target = bounds.nc_bound_ideal(c, c * c)
    report.outputs["f_global"] = f_g
    report.outputs["nc_bound_ideal"] = target
    report.check("fidelity-saturates-nc-bound", "|delta|", abs(f_g - target), tol)

    for pair, residual in ontic.sandwich_residuals(model, model.pairs + (("aa", "bb"),)).items():
        report.check(f"distance-confusability-identity[{pair}]", "residual", residual, tol)

    # The output cells are the input cells' row-major pairs: a pair's product mass is b's on one times b's on the other.
    b = model.states["b"].mass
    cells = zip(model.states["beta"].mass, itertools.product(b, b), strict=True)
    beta_resid = bounds._worst(abs(beta - x * y) for beta, (x, y) in cells)
    report.check("clone-of-b-is-product-density", "max residual", beta_resid, tol)

    c_model = p("a", "b")
    report.check("maximal-overlap-of-inputs", f"|{c_model:.6f} - {c}|", abs(c_model - c), tol)


# The argument specs several subcommands share.
_C = ("--c", {"type": _probability, "required": True})
_V = ("--v", {"type": _probability, "required": True})
_ERR_MODE = ("--err-mode", {"choices": bounds.ERR_MODES, "default": bounds.DEFAULT_ERR_MODE})
_C_MODE = ("--c-mode", {"choices": bounds.C_MODES, "default": bounds.DEFAULT_C_MODE})

# Each subcommand: its help, its handler, the module the handler takes beyond bounds (None: it needs
# none), and its arguments after --json as (flag, options), in the order -h and the report's inputs list them.
_COMMANDS = {
    "bounds": ("closed-form fidelity bounds at a given overlap", _cmd_bounds, None, [
        ("--c", {"type": _probability, "required": True, "help": "input confusability in [0, 1]"}),
        ("--v", {"type": _probability, "help": "depolarizing noise level in [0, 1]"})]),
    "clones": ("optimize the clone outputs and cross-check the closed form", _cmd_clones, "cloner", [_C]),
    "noise": ("simulate the depolarized experiment", partial(_cmd_quantum, residuals=False), "quantum", [_V, _C]),
    "region": ("confusability interval with a quantum advantage", _cmd_region, "scan", [_V, _ERR_MODE, _C_MODE]),
    "critical-noise": ("largest noise level keeping the advantage", _cmd_critical_noise, "scan", [
        ("--c", {"type": _open_probability, "required": True, "help": "input confusability in (0, 1)"}),
        _ERR_MODE, _C_MODE]),
    "curves": ("write figure data (fidelity tradeoff, noise resistance)", _cmd_curves, "scan", [
        ("--out", {"type": _directory, "required": True, "help": "output directory, made if it does not exist"}),
        ("--format", {"choices": CURVE_FORMATS, "default": "csv"}),
        ("--points", {"type": _curve_points, "default": 500,
                      "help": f"number of c grid points, 2 to {MAX_POINTS} "
                              f"(about {BYTES_PER_CURVE_POINT} bytes of memory per point)"}),
        _C_MODE]),
    "verify-ontic": ("build the saturating model and run every check", _cmd_verify_ontic, "ontic", [
        _C,
        ("--resolution", {"type": _resolution,
                          "help": "snap c first to the nearest k/(n/2); n is even, 4 to 2**53 "
                                  "(default: no snapping, the model is built at c)"})]),
    "verify-quantum": ("verify the noisy experiment against closed forms", partial(_cmd_quantum, residuals=True),
                       "quantum", [_V, _C]),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="clonectx",
        description="Cloning-fidelity bounds, noisy-experiment simulation and noncontextuality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser, sub.choices


def run(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        _, handler, module, _ = _COMMANDS[args.command]
        # The module loads before the clock starts: elapsed: is compute only.
        modules = (importlib.import_module(f"{__package__}.{module}"),) if module else ()
        # A report's inputs are its parsed arguments, in the order -h lists them.
        report = RunReport(args.command, {k: v for k, v in vars(args).items() if k not in ("command", "json")})
        start = time.perf_counter()
        try:
            handler(report, args, *modules)
        except argparse.ArgumentTypeError as exc:  # an argument found bad only when used, as curves --out
            commands[args.command].error(str(exc))
    except SystemExit as exc:  # argparse has written its usage or error message, and exits
        return int(exc.code or 0)
    elapsed = time.perf_counter() - start
    print(report.render_json() if args.json else report.render_text())
    try:  # as argparse writes its messages: a stderr closed (None) or broken loses this line alone
        sys.stderr.write(f"elapsed: {elapsed:.3f} s\n")
    except (AttributeError, OSError):
        pass
    return 1 if report.failed else 0


def main() -> None:
    """The console script: :func:`run` on ``sys.argv``, its code as the exit status.

    A stdout closed early (``clonectx ... | head``) exits 1 without a
    traceback; a stderr that cannot be written changes no exit status.
    Before exit every object alive is moved to the collector's permanent
    generation, so the interpreter's exit-time collections do not walk the
    cycles of every loaded module only to free memory the exit frees
    anyway; atexit handlers and the flush of stdout and stderr still run.
    """
    try:
        code = run()
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's flush at exit
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the exit flush writes what is left to devnull instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    try:  # a message that could not be written waits in stderr's buffer; the exit flush would fail on it again (120)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    except AttributeError:  # no fd 2 at start (2>&-): sys.stderr is None
        pass
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
