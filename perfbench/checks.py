"""Output checks that do not trust the code under test.

Every formula here is re-derived from the closed forms stated in the
analysis (optimal two-state cloning fidelity, noncontextual ceilings,
depolarizing error budgets), written with numpy so whole curves are checked
at once.  Nothing is imported from ``clonectx``.

``check(argv, exit_code, stdout, out_dir)`` returns a list of problems; an
empty list means the invocation's output is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from workloads import option

EXACT = 1e-12          # closed-form agreement
CLONE_TOL = 1e-7       # optimizer vs closed form, as the CLI documents
ROOT_TOL = 1e-5        # ten times the CLI's documented 1e-6 root tolerance
FINE_GRID = 100_001


# -- closed forms -------------------------------------------------------------

def f_opt(c):
    """Optimal quantum cloning fidelity for two pure states of confusability c."""
    c = np.asarray(c, dtype=float)
    rc = np.sqrt(c)
    b = np.sqrt((1.0 + c) * (1.0 + rc)) + np.sqrt((1.0 - c) * (1.0 - rc))
    return 0.25 * b * b


def _white(v):
    return 0.25 * v * (3.0 - 3.0 * v + v * v)


def q_noisy(v, c):
    return (1.0 - v) ** 3 * f_opt(c) + _white(v)


def nc_ideal(c_ab, c_aabb):
    return 1.0 - 0.5 * c_ab + 0.5 * c_aabb


def eps_single(v):
    return v - 0.5 * v * v


def eps_double(v):
    return 0.75 * v * (3.0 - 3.0 * v + v * v)


ERR = {
    "thm2-direct": lambda v: 0.125 * v * (31.0 - 29.0 * v + 9.0 * v * v),
    "appendix-err": lambda v: 0.5 * v * (31.0 - 29.0 * v + 9.0 * v * v),
    "err-prime": lambda v: 0.125 * v * (31.0 - 21.0 * v + 9.0 * v * v),
}


def observed(v, c):
    """Noise-degraded input and target confusabilities."""
    return (1.0 - v) ** 2 * c + v * (1.0 - v) + 0.5 * v * v, (1.0 - v) ** 3 * c * c + _white(v)


def gap(v, c, err_mode, c_mode):
    """Noisy quantum fidelity minus the noncontextual ceiling (broadcasts)."""
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    c_ab, c_aabb = observed(v, c) if c_mode == "observed-confusability" else (c, c * c)
    return q_noisy(v, c) - (nc_ideal(c_ab, c_aabb) + ERR[err_mode](v))


def _near_root(fn, x, lo, hi):
    """True where ``fn`` changes sign (or vanishes) within ROOT_TOL of each ``x``.

    ``fn`` receives an (len(x), 9) array of abscissae around the points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    stencil = np.clip(x[:, None] + np.linspace(-ROOT_TOL, ROOT_TOL, 9)[None, :], lo, hi)
    g = fn(stencil)
    return (g.min(axis=1) <= 0.0) & (g.max(axis=1) >= 0.0)


# -- per-command checks -------------------------------------------------------

def _close(problems, label, got, want, tol=EXACT):
    if got is None or not abs(float(got) - float(want)) <= tol:
        problems.append(f"{label} = {got!r}, closed form {float(want)!r} (tol {tol:g})")


def _check_inputs(problems, doc, argv, keys):
    for key in keys:
        want = float(option(argv, f"--{key}"))
        if doc["inputs"].get(key) != want:
            problems.append(f"input {key} echoed as {doc['inputs'].get(key)!r}, sent {want!r}")


def _bounds(doc, argv, problems):
    c, v = float(option(argv, "--c")), float(option(argv, "--v"))
    _check_inputs(problems, doc, argv, ("c", "v"))
    o = doc["outputs"]
    es, ed = eps_single(v), eps_double(v)
    err = 0.5 * (es + 3.0 * ed)
    want = {
        "quantum_optimal_fidelity": f_opt(c),
        "nc_bound_ideal": nc_ideal(c, c * c),
        "nc_discrimination_bound": 1.0 - 0.5 * c,
        "eps_single_copy": es,
        "eps_two_copy": ed,
        "err_thm2": ERR["thm2-direct"](v),
        "err_appendix": ERR["appendix-err"](v),
        "err_prime": ERR["err-prime"](v),
        "eps_effective": 0.5 * ERR["err-prime"](v),
        "nc_bound_noisy": nc_ideal(c, c * c) + err,
        "nc_bound_noisy_symmetric": 1.0 + 0.5 * (es - c) + 0.5 * (c * c + ed) + ed,
        "quantum_noisy_fidelity": q_noisy(v, c),
    }
    for key, value in want.items():
        _close(problems, key, o.get(key), value)
    if o.get("nc_bound_noisy_clamped") != bool(nc_ideal(c, c * c) + err > 1.0):
        problems.append(f"nc_bound_noisy_clamped = {o.get('nc_bound_noisy_clamped')!r}")


def _clones(doc, argv, problems):
    c = float(option(argv, "--c"))
    _check_inputs(problems, doc, argv, ("c",))
    _close(problems, "closed_form_fidelity", doc["outputs"].get("closed_form_fidelity"), f_opt(c))
    _close(problems, "optimizer_fidelity", doc["outputs"].get("optimizer_fidelity"), f_opt(c), CLONE_TOL)


def _quantum(doc, argv, problems):
    c, v = float(option(argv, "--c")), float(option(argv, "--v"))
    _check_inputs(problems, doc, argv, ("c", "v"))
    o = doc["outputs"]
    c_ab, c_aabb = observed(v, c)
    _close(problems, "f_global", o.get("f_global"), q_noisy(v, c))
    _close(problems, "c_ab_observed", o.get("c_ab_observed"), c_ab)
    _close(problems, "c_aabb_observed", o.get("c_aabb_observed"), c_aabb)
    for key in ("eps_a", "eps_b"):
        _close(problems, key, o.get(key), eps_single(v))
    for key in ("eps_alpha", "eps_beta", "eps_aa", "eps_bb"):
        _close(problems, key, o.get(key), eps_double(v))


def _verify_ontic(doc, argv, problems):
    c, n = float(option(argv, "--c")), int(option(argv, "--resolution"))
    _check_inputs(problems, doc, argv, ("c",))
    m = n // 2
    c_snap = round(c * m) / m
    o = doc["outputs"]
    _close(problems, "c_snapped", o.get("c_snapped"), c_snap)
    _close(problems, "nc_bound_ideal", o.get("nc_bound_ideal"), nc_ideal(c_snap, c_snap * c_snap))
    _close(problems, "f_global", o.get("f_global"), nc_ideal(c_snap, c_snap * c_snap), 4.0 * (2.0 / n))


def _region(doc, argv, problems):
    v = float(option(argv, "--v"))
    err_mode, c_mode = option(argv, "--err-mode"), option(argv, "--c-mode")
    _check_inputs(problems, doc, argv, ("v",))
    o = doc["outputs"]
    g = lambda c: gap(v, c, err_mode, c_mode)
    cs = np.linspace(0.0, 1.0, FINE_GRID)
    gs = g(cs)
    if o.get("empty"):
        peak = float(np.max(gs))
        for _ in range(2):  # zoom around the hump so a narrow window cannot hide
            i = int(np.argmax(gs))
            cs = np.linspace(max(0.0, cs[i] - (cs[1] - cs[0])), min(1.0, cs[i] + (cs[1] - cs[0])), 1001)
            gs = g(cs)
            peak = max(peak, float(np.max(gs)))
        if peak > EXACT:
            problems.append(f"region reported empty, but the gap reaches {peak:.3e} > 0")
        return
    lo, hi = o.get("c_lo"), o.get("c_hi")
    if lo is None or hi is None or not 0.0 <= lo <= hi <= 1.0:
        problems.append(f"invalid interval [{lo!r}, {hi!r}]")
        return
    for name, x, edge in (("c_lo", lo, 0.0), ("c_hi", hi, 1.0)):
        at_edge = x == edge and float(g(x)) >= -EXACT
        if not (at_edge or _near_root(g, x, 0.0, 1.0)[0]):
            problems.append(f"gap at {name}={x!r} is {float(g(x)):.3e}, not a root within {ROOT_TOL:g}")
    if not float(g(0.5 * (lo + hi))) > 0.0:
        problems.append(f"gap at the midpoint of [{lo!r}, {hi!r}] is not positive")
    outside = cs[(gs > EXACT) & ((cs < lo - ROOT_TOL) | (cs > hi + ROOT_TOL))]
    if outside.size:
        problems.append(f"gap positive outside the interval, at c={float(outside[0])!r}")


def _critical_noise_ok(c, v_max, err_mode, c_mode):
    """Vectorised: is each v_max a valid critical noise level at c?"""
    c = np.asarray(c, dtype=float)
    v_max = np.asarray(v_max, dtype=float)
    ok = _near_root(lambda vs: gap(vs, c[:, None], err_mode, c_mode), v_max, 0.0, 1.0)
    ok |= (v_max == 0.0) & (gap(0.0, c, err_mode, c_mode) <= EXACT)
    ok |= (v_max == 1.0) & (gap(1.0, c, err_mode, c_mode) >= -EXACT)
    return ok


def _critical_noise(doc, argv, problems):
    c = float(option(argv, "--c"))
    err_mode, c_mode = option(argv, "--err-mode"), option(argv, "--c-mode")
    _check_inputs(problems, doc, argv, ("c",))
    v_max = doc["outputs"].get("v_max")
    if not isinstance(v_max, float) or not 0.0 <= v_max <= 1.0:
        problems.append(f"v_max = {v_max!r} is not a noise level")
    elif not _critical_noise_ok([c], [v_max], err_mode, c_mode)[0]:
        problems.append(f"gap at v_max={v_max!r} is {float(gap(v_max, c, err_mode, c_mode)):.3e}, not a root")


def _read_series(path: Path, fmt: str) -> np.ndarray:
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x", "y"]:
            raise ValueError(f"bad header {rows[0]!r}")
        pts = [[float(x), float(y)] for x, y in rows[1:]]
    else:
        with open(path) as fh:
            pts = json.load(fh)["points"]
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def _curves(doc, argv, problems, out_dir):
    n, fmt = int(option(argv, "--points")), option(argv, "--format")
    c_mode = option(argv, "--c-mode")
    names = ["fidelity_quantum", "fidelity_noncontextual", "noise_resistance_thm2-direct", "noise_resistance_err-prime"]
    expected = [str(out_dir / f"{name}.{fmt}") for name in names]
    if doc["outputs"].get("files") != expected:
        problems.append(f"files listed as {doc['outputs'].get('files')!r}")
    series = {}
    for name in names:
        try:
            series[name] = _read_series(out_dir / f"{name}.{fmt}", fmt)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{name}.{fmt} does not parse: {exc}")
    for name, pts in series.items():
        want = n if name.startswith("fidelity") else max(n - 2, 0)
        if len(pts) != want:
            problems.append(f"{name}: {len(pts)} points, expected {want}")
        if np.any(np.diff(pts[:, 0]) <= 0.0):
            problems.append(f"{name}: x is not strictly increasing")
    if "fidelity_quantum" in series:
        x, y = series["fidelity_quantum"].T
        worst = float(np.max(np.abs(y - f_opt(x)), initial=0.0))
        if worst > EXACT:
            problems.append(f"fidelity_quantum deviates from the closed form by {worst:.3e}")
    if "fidelity_noncontextual" in series:
        x, y = series["fidelity_noncontextual"].T
        worst = float(np.max(np.abs(y - nc_ideal(x, x * x)), initial=0.0))
        if worst > EXACT:
            problems.append(f"fidelity_noncontextual deviates from the closed form by {worst:.3e}")
    for mode in ("thm2-direct", "err-prime"):
        pts = series.get(f"noise_resistance_{mode}")
        if pts is None or not len(pts):
            continue
        ok = _critical_noise_ok(pts[:, 0], pts[:, 1], mode, c_mode)
        if not ok.all():
            c, v = (float(x) for x in pts[int(np.argmin(ok))])
            problems.append(f"noise_resistance_{mode}: {int((~ok).sum())} points off the root, first at c={c!r}, v={v!r}")


_CHECKERS = {
    "bounds": _bounds,
    "clones": _clones,
    "noise": _quantum,
    "verify-quantum": _quantum,
    "verify-ontic": _verify_ontic,
    "region": _region,
    "critical-noise": _critical_noise,
}


def check(argv: list[str], exit_code: int, stdout: str, out_dir: Path | None) -> list[str]:
    """Problems with one invocation's exit code, report and files (empty when correct)."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    if doc.get("command") != argv[0]:
        problems.append(f"command echoed as {doc.get('command')!r}")
    if doc.get("result") != "pass":
        failed = [v["name"] for v in doc.get("verdicts", []) if v.get("status") == "fail"]
        problems.append(f"result {doc.get('result')!r}, failed verdicts {failed}")
    try:
        if argv[0] == "curves":
            _curves(doc, argv, problems, out_dir)
        else:
            _CHECKERS[argv[0]](doc, argv, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
