"""Parameter sweeps over confusability and noise level.

Reproduces the two headline figures of the analysis as plain data: the
quantum-versus-noncontextual fidelity tradeoff across confusabilities, and
the noise resistance of the quantum advantage (the largest depolarizing
level at which the quantum fidelity still beats the noncontextual ceiling,
per confusability).  Every root comes from one vectorised bisection that
halves all brackets together: the critical level per confusability on
[0, 1] in v, and the flanks of the violation window around the top of the
gap's hump in c.

Because the published error term exists in mutually inconsistent variants,
every sweep takes an explicit ``err_mode``; likewise an explicit ``c_mode``
selects whether the noncontextual ceiling is fed the ideal overlap or the
noise-degraded observed confusabilities.  Nothing is reconciled silently:
reports carry the mode they were computed under.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds
from .bounds import ERR_MODES, _check_unit

# Confusabilities (c_ab, c_aabb) fed to the ceiling under each ``c_mode``,
# as a function of the noise level v and the ideal overlap c.
C_MODES = {
    "ideal-overlap": lambda v, c: (c, c * c),
    "observed-confusability": lambda v, c: (
        bounds.observed_confusability(v, c),
        bounds.observed_target_confusability(v, c),
    ),
}
ROOT_XTOL = 1e-6
PRESCAN_POINTS = 1000
ZOOM_ROUNDS = 3
ZOOM_POINTS = 101


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


def _ceiling(v, c, err_mode: str, c_mode: str):
    err = _lookup(ERR_MODES, "err_mode", err_mode)
    overlaps = _lookup(C_MODES, "c_mode", c_mode)
    v, c = _check_unit("v", v), _check_unit("c", c)
    return bounds.nc_bound(*overlaps(v, c), err(v))


def advantage_gap(v, c, err_mode: str, c_mode: str):
    """Quantum noisy fidelity minus the (unclamped) noncontextual ceiling; elementwise on arrays."""
    return bounds.quantum_noisy_fidelity(v, c) - _ceiling(v, c, err_mode, c_mode)


def fidelity_curves(c_grid: Sequence[float]) -> tuple[CurveSeries, CurveSeries]:
    """Ideal fidelity/confusability tradeoff: quantum optimum vs noncontextual ceiling."""
    cs = np.asarray(c_grid, dtype=float)
    q_points = tuple(zip(cs.tolist(), bounds.quantum_optimal_fidelity(cs).tolist()))
    nc_points = tuple(zip(cs.tolist(), bounds.nc_bound_ideal(cs, cs * cs).tolist()))
    return (
        CurveSeries("c_ab", "F_g", q_points, provenance="optimal quantum cloning fidelity"),
        CurveSeries("c_ab", "F_g", nc_points, provenance="noncontextual ceiling at c_aabb = c_ab^2"),
    )


def _bisect(g, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Roots of ``g`` (elementwise, ``g(pos) > 0 >= g(neg)``) in every bracket to within ROOT_XTOL/2.

    All brackets are halved together until the widest is below ROOT_XTOL.
    """
    width = float(np.max(np.abs(pos - neg), initial=0.0))
    steps = math.ceil(math.log2(width / ROOT_XTOL)) if width > ROOT_XTOL else 0
    for _ in range(steps):
        mid = 0.5 * (pos + neg)
        above = g(mid) > 0.0
        pos, neg = np.where(above, mid, pos), np.where(above, neg, mid)
    return 0.5 * (pos + neg)


def violation_interval(v: float, spec: SweepSpec | None = None) -> ViolationRegion:
    """Confusability interval with a quantum advantage at noise level ``v``.

    The gap has one hump in c.  Its top, from a 1000-point pre-scan zoomed
    around the best point, decides emptiness, so a window narrower than the
    pre-scan step is not missed.  Each flank is then bisected to 1e-6; more
    than two sign changes along the scan are reported through ``anomalies``.
    """
    spec = spec or SweepSpec()
    g = lambda c: advantage_gap(v, c, spec.err_mode, spec.c_mode)
    cs = np.linspace(0.0, 1.0, PRESCAN_POINTS)
    gs = g(cs)
    zs, zg = cs, gs
    for _ in range(ZOOM_ROUNDS):
        i = int(np.argmax(zg))
        zs = np.linspace(zs[max(i - 1, 0)], zs[min(i + 1, zs.size - 1)], ZOOM_POINTS)
        zg = g(zs)
    i = int(np.argmax(zg))
    if zg[i] <= 0.0:
        return ViolationRegion(v=v, c_lo=None, c_hi=None, err_mode=spec.err_mode, c_mode=spec.c_mode)

    # The top joins the scan, so a window between two scan points shows its flanks.
    k = int(np.searchsorted(cs, zs[i]))
    cs, gs = np.insert(cs, k, zs[i]), np.insert(gs, k, zg[i])
    above = gs > 0.0
    flips = np.flatnonzero(above[:-1] != above[1:])
    pos = np.where(above[flips], cs[flips], cs[flips + 1])
    neg = np.where(above[flips], cs[flips + 1], cs[flips])
    roots = _bisect(g, pos, neg).tolist()
    # A positive gap at a domain edge means the region touches that edge.
    c_lo = 0.0 if above[0] else roots[0]
    c_hi = 1.0 if above[-1] else roots[-1]
    return ViolationRegion(
        v=v, c_lo=c_lo, c_hi=c_hi, err_mode=spec.err_mode, c_mode=spec.c_mode,
        anomalies=tuple(roots) if len(roots) > 2 else (),
    )


def _critical_levels(cs: np.ndarray, spec: SweepSpec) -> np.ndarray:
    """Critical noise level at each confusability in ``cs``, all bisected together.

    The gap is nonincreasing in v, so it changes sign at most once on [0, 1].
    """
    g = lambda v, c: advantage_gap(v, c, spec.err_mode, spec.c_mode)
    noiseless, saturated = g(0.0, cs) > 0.0, g(1.0, cs) > 0.0
    levels = np.where(noiseless & saturated, 1.0, 0.0)
    inside = noiseless & ~saturated
    c_in = cs[inside]
    levels[inside] = _bisect(lambda v: g(v, c_in), np.zeros(c_in.size), np.ones(c_in.size))
    return levels


def critical_noise(c_ab: float, spec: SweepSpec | None = None) -> float:
    """Largest depolarizing level at which the quantum advantage survives at ``c_ab``.

    The zero crossing of the gap over v in [0, 1] is bisected to 1e-6.
    Returns 0.0 when there is no advantage even noiselessly.
    """
    if not 0.0 < c_ab < 1.0:
        raise ValueError(f"c_ab must lie strictly inside (0, 1), got {c_ab!r}")
    return float(_critical_levels(np.array([c_ab], dtype=float), spec or SweepSpec())[0])


def noise_resistance_curve(c_grid: Sequence[float], spec: SweepSpec | None = None) -> CurveSeries:
    """Critical noise level as a function of confusability, under the spec's modes.

    Points outside (0, 1) are skipped; the rest share one bisection run.
    """
    spec = spec or SweepSpec()
    cs = np.asarray(c_grid, dtype=float)
    cs = cs[(cs > 0.0) & (cs < 1.0)]
    return CurveSeries(
        x_label="c_ab",
        y_label="v_max",
        points=tuple(zip(cs.tolist(), _critical_levels(cs, spec).tolist())),
        provenance=f"critical depolarizing level ({spec.err_mode}, {spec.c_mode})",
    )


def write_series_csv(series: CurveSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x,y\r\n")
        fh.writelines(f"{x!r},{y!r}\r\n" for x, y in series.points)


def write_series_json(series: CurveSeries, path: str | Path, mode: str = "") -> None:
    """The layout of ``json.dump(doc, indent=1)``, streamed point by point."""
    label = json.dumps(f"{series.y_label} vs {series.x_label}")
    mode = json.dumps(mode or series.provenance)
    with open(path, "w") as fh:
        fh.write(f'{{\n "label": {label},\n "mode": {mode},\n "points": [')
        fh.writelines(f"{',' if i else ''}\n  [\n   {x!r},\n   {y!r}\n  ]" for i, (x, y) in enumerate(series.points))
        fh.write("\n ]\n}\n" if series.points else "]\n}\n")
