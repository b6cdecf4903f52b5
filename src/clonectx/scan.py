"""Parameter sweeps over confusability and noise level.

Reproduces the two headline figures of the analysis as plain data: the
quantum-versus-noncontextual fidelity tradeoff across confusabilities, and
the noise resistance of the quantum advantage (the largest depolarizing
level at which the quantum fidelity still beats the noncontextual ceiling,
per confusability).  Root finding is bisection-based with a dense pre-scan
for bracketing.

Because the published error term exists in mutually inconsistent variants,
every sweep takes an explicit ``err_mode``; likewise an explicit ``c_mode``
selects whether the noncontextual ceiling is fed the ideal overlap or the
noise-degraded observed confusabilities.  Nothing is reconciled silently:
reports carry the mode they were computed under.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from . import bounds, quantum
from .bounds import ERR_MODES, BoundValue, _check_unit

# Confusabilities (c_ab, c_aabb) fed to the ceiling under each ``c_mode``,
# as a function of the noise level v and the ideal overlap c.
C_MODES = {
    "ideal-overlap": lambda v, c: (c, c * c),
    "observed-confusability": lambda v, c: (
        quantum.observed_confusability(v, c),
        quantum.observed_target_confusability(v, c),
    ),
}
ROOT_XTOL = 1e-6
PRESCAN_POINTS = 1000


def _lookup(table: dict, kind: str, mode: str):
    """The entry of a mode table; the one place an unknown mode is rejected."""
    try:
        return table[mode]
    except (KeyError, TypeError):
        raise ValueError(f"{kind} must be one of {tuple(table)}, got {mode!r}") from None


@dataclass(frozen=True)
class SweepSpec:
    """Mode selectors for a sweep: the keys of ``ERR_MODES`` and ``C_MODES``."""

    err_mode: str = "thm2-direct"
    c_mode: str = "observed-confusability"

    def __post_init__(self) -> None:
        _lookup(ERR_MODES, "err_mode", self.err_mode)
        _lookup(C_MODES, "c_mode", self.c_mode)


@dataclass(frozen=True)
class CurveSeries:
    """One plottable series with axis labels and the formula/mode it came from."""

    x_label: str
    y_label: str
    points: tuple[tuple[float, float], ...]
    provenance: str

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in self.points):
            raise ValueError("curve contains non-finite values")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("curve abscissa must be strictly increasing")


@dataclass(frozen=True)
class ViolationRegion:
    """Confusability interval where the quantum fidelity beats the noncontextual ceiling.

    ``c_lo``/``c_hi`` are None when no violation exists at this noise level.
    ``anomalies`` lists every sign-change root if the pre-scan finds more
    than the expected two.
    """

    v: float
    c_lo: float | None
    c_hi: float | None
    err_mode: str
    c_mode: str
    anomalies: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if (self.c_lo is None) != (self.c_hi is None):
            raise ValueError("c_lo and c_hi must both be set or both be None")
        if self.c_lo is not None and not 0.0 <= self.c_lo <= self.c_hi <= 1.0:
            raise ValueError(f"invalid interval [{self.c_lo}, {self.c_hi}]")

    @property
    def is_empty(self) -> bool:
        return self.c_lo is None


def nc_bound_at(v: float, c: float, err_mode: str, c_mode: str) -> BoundValue:
    """Noncontextual ceiling at noise ``v`` and ideal overlap ``c`` under the given modes."""
    err = _lookup(ERR_MODES, "err_mode", err_mode)
    overlaps = _lookup(C_MODES, "c_mode", c_mode)
    v, c = _check_unit("v", v), _check_unit("c", c)
    return BoundValue.of(bounds.nc_bound(*overlaps(v, c), err(v)))


def advantage_gap(v: float, c: float, err_mode: str, c_mode: str) -> float:
    """Quantum noisy fidelity minus the (unclamped) noncontextual ceiling."""
    return bounds.quantum_noisy_fidelity(v, c) - nc_bound_at(v, c, err_mode, c_mode).value


def fidelity_curves(c_grid: Sequence[float]) -> tuple[CurveSeries, CurveSeries]:
    """Ideal fidelity/confusability tradeoff: quantum optimum vs noncontextual ceiling."""
    cs = [float(c) for c in c_grid]
    q_points = tuple((c, bounds.quantum_optimal_fidelity(c)) for c in cs)
    nc_points = tuple((c, bounds.nc_bound_ideal(c, c * c)) for c in cs)
    quantum_series = CurveSeries(
        x_label="c_ab",
        y_label="F_g",
        points=q_points,
        provenance="optimal quantum cloning fidelity",
    )
    nc_series = CurveSeries(
        x_label="c_ab",
        y_label="F_g",
        points=nc_points,
        provenance="noncontextual ceiling at c_aabb = c_ab^2",
    )
    return quantum_series, nc_series


def _bracketed_root(g, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    return float(brentq(g, lo, hi, xtol=ROOT_XTOL))


def violation_interval(v: float, spec: SweepSpec | None = None) -> ViolationRegion:
    """Confusability interval with a quantum advantage at noise level ``v``.

    A 1000-point pre-scan brackets the sign changes of the advantage gap;
    each bracket is polished by bisection to 1e-6.  No positive gap
    anywhere yields the empty region (a value, not an error); more than two
    sign changes are reported through ``anomalies``.
    """
    spec = spec or SweepSpec()
    g = lambda c: advantage_gap(v, c, spec.err_mode, spec.c_mode)
    cs = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    gs = np.array([g(c) for c in cs])

    pos = np.flatnonzero(gs > 0.0)
    if pos.size == 0:
        return ViolationRegion(v=v, c_lo=None, c_hi=None, err_mode=spec.err_mode, c_mode=spec.c_mode)

    i0, i1 = int(pos[0]), int(pos[-1])
    # A positive gap at a domain edge means the region touches that edge.
    c_lo = 0.0 if i0 == 0 else _bracketed_root(g, cs[i0 - 1], cs[i0], gs[i0 - 1], gs[i0])
    c_hi = 1.0 if i1 == len(cs) - 1 else _bracketed_root(g, cs[i1], cs[i1 + 1], gs[i1], gs[i1 + 1])

    sign_changes = [i for i in range(len(cs) - 1) if (gs[i] > 0.0) != (gs[i + 1] > 0.0)]
    anomalies: tuple[float, ...] = ()
    if len(sign_changes) > 2:
        anomalies = tuple(
            _bracketed_root(g, cs[i], cs[i + 1], gs[i], gs[i + 1]) for i in sign_changes
        )
    return ViolationRegion(
        v=v, c_lo=float(c_lo), c_hi=float(c_hi),
        err_mode=spec.err_mode, c_mode=spec.c_mode, anomalies=anomalies,
    )


def critical_noise(c_ab: float, spec: SweepSpec | None = None) -> float:
    """Largest depolarizing level at which the quantum advantage survives at ``c_ab``.

    The advantage gap is pre-scanned over v in [0, 1]; when it decreases
    monotonically (the generic case) the zero crossing is polished by
    bisection, otherwise the last sign change found by the grid scan wins.
    Returns 0.0 when there is no advantage even noiselessly.
    """
    spec = spec or SweepSpec()
    if not 0.0 < c_ab < 1.0:
        raise ValueError(f"c_ab must lie strictly inside (0, 1), got {c_ab!r}")
    g = lambda v: advantage_gap(v, c_ab, spec.err_mode, spec.c_mode)
    vs = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    gs = np.array([g(v) for v in vs])
    if gs[0] <= 0.0:
        return 0.0
    below = np.flatnonzero(gs <= 0.0)
    if below.size == 0:
        return 1.0
    monotone = bool(np.all(np.diff(gs) <= 1e-12))
    if monotone:
        i = below[0]
        return _bracketed_root(g, vs[i - 1], vs[i], gs[i - 1], gs[i])
    # Non-monotone gap: take the last positive-to-nonpositive crossing.
    crossings = [i for i in range(1, len(vs)) if gs[i - 1] > 0.0 >= gs[i]]
    i = crossings[-1]
    return _bracketed_root(g, vs[i - 1], vs[i], gs[i - 1], gs[i])


def noise_resistance_curve(c_grid: Sequence[float], spec: SweepSpec | None = None) -> CurveSeries:
    """Critical noise level as a function of confusability, under the spec's modes.

    The critical level varies continuously along the grid, so each point
    first tries a narrow bracket around its neighbour's root before falling
    back to the full pre-scan of :func:`critical_noise`.
    """
    spec = spec or SweepSpec()
    pts: list[tuple[float, float]] = []
    v_prev: float | None = None
    for c in (float(c) for c in c_grid):
        if not 0.0 < c < 1.0:
            continue
        v_star: float | None = None
        if v_prev is not None and v_prev > 0.0:
            g = lambda v: advantage_gap(v, c, spec.err_mode, spec.c_mode)
            lo, hi = max(0.0, v_prev - 0.02), min(1.0, v_prev + 0.02)
            g_lo, g_hi = g(lo), g(hi)
            if g_lo > 0.0 >= g_hi:
                v_star = _bracketed_root(g, lo, hi, g_lo, g_hi)
        if v_star is None:
            v_star = critical_noise(c, spec)
        pts.append((c, v_star))
        v_prev = v_star
    return CurveSeries(
        x_label="c_ab",
        y_label="v_max",
        points=tuple(pts),
        provenance=f"critical depolarizing level ({spec.err_mode}, {spec.c_mode})",
    )


def write_series_csv(series: CurveSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in series.points:
            writer.writerow([repr(x), repr(y)])


def write_series_json(series: CurveSeries, path: str | Path, mode: str = "") -> None:
    doc = {
        "label": f"{series.y_label} vs {series.x_label}",
        "mode": mode or series.provenance,
        "points": [[x, y] for x, y in series.points],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_region_csv(region: ViolationRegion, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "c_lo", "c_hi"])
        lo = "" if region.c_lo is None else repr(region.c_lo)
        hi = "" if region.c_hi is None else repr(region.c_hi)
        writer.writerow([repr(region.v), lo, hi])


def region_to_json(region: ViolationRegion) -> dict:
    return {
        "v": region.v,
        "c_lo": region.c_lo,
        "c_hi": region.c_hi,
        "err_mode": region.err_mode,
        "c_mode": region.c_mode,
        "anomalies": list(region.anomalies),
    }
