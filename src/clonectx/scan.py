"""Parameter sweeps over confusability and noise level.

Reproduces the two headline figures of the analysis as plain data: the
quantum-versus-noncontextual fidelity tradeoff across confusabilities, and
the noise resistance of the quantum advantage (the largest depolarizing
level at which the quantum fidelity still beats the noncontextual ceiling,
per confusability).  Every root is taken from a polynomial fitted exactly
to the gap: a cubic in v for the critical levels, and one of degree 8 in
t = sqrt(c) + sqrt(1 + c) for the violation window.

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
    ``anomalies`` lists every real root of the gap in (0, 1) when there are
    more than the expected two.
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


def _t_and_c(x):
    """t = sqrt(c) + sqrt(1 + c) = 1 + (1 + x)/sqrt(2) for x in [-1, 1], and c = ((t*t - 1)/2t)**2."""
    t = 1.0 + (1.0 + x) / math.sqrt(2.0)
    return t, np.clip(((t * t - 1.0) / (2.0 * t)) ** 2, 0.0, 1.0)


def violation_interval(v: float, spec: SweepSpec | None = None) -> ViolationRegion:
    """Confusability interval with a quantum advantage at noise level ``v``.

    (2t)**4 times the gap is a polynomial of degree 8 in t = sqrt(c) + sqrt(1 + c),
    fitted exactly through 9 Chebyshev nodes.  The region is empty unless the
    gap is positive at the highest of the domain ends and critical points; it
    then runs to the nearest real root, or domain edge, on each side of that
    top.  More than two real roots in (0, 1) are all reported in ``anomalies``.
    """
    spec = spec or SweepSpec()
    gap = lambda x: advantage_gap(v, _t_and_c(x)[1], spec.err_mode, spec.c_mode)
    nodes = np.cos(np.pi * (np.arange(9) + 0.5) / 9.0)
    poly = np.linalg.solve(np.vander(nodes), gap(nodes) * (2.0 * _t_and_c(nodes)[0]) ** 4)
    # Complex critical points add their real parts, which can only bring the maximum closer to the top.
    tops = np.append(np.clip(np.roots(np.polyder(poly)).real, -1.0, 1.0), [-1.0, 1.0])
    top_gaps = gap(tops)
    if top_gaps.max() <= 0.0:
        return ViolationRegion(v=v, c_lo=None, c_hi=None, err_mode=spec.err_mode, c_mode=spec.c_mode)
    top = _t_and_c(tops[np.argmax(top_gaps)])[1]
    r = np.roots(poly)
    roots = _t_and_c(np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real) < 1.0)]))[1].tolist()
    c_lo = max((c for c in roots if c < top), default=0.0)
    c_hi = min((c for c in roots if c > top), default=1.0)
    return ViolationRegion(v=v, c_lo=c_lo, c_hi=c_hi, err_mode=spec.err_mode, c_mode=spec.c_mode,
                           anomalies=tuple(roots) if len(roots) > 2 else ())


def _cubic_root_nearest_half(a0, a1, a2, a3):
    """The real root of a0 + a1*v + a2*v**2 + a3*v**3 nearest 1/2, elementwise (a3 != 0)."""
    shift = a2 / (3.0 * a3)  # v = y - shift gives y**3 + p*y + q
    p = a1 / a3 - 3.0 * shift * shift
    q = a0 / a3 - shift * (p + shift * shift)
    disc = 0.25 * q * q + p * p * p / 27.0
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))  # Cardano, where nothing cancels
        r = np.sqrt(-p / 3.0)
        phi = np.arccos(np.clip(-0.5 * q / (r * r * r), -1.0, 1.0))
        three = 2.0 * r * np.cos((phi - 2.0 * np.pi * np.arange(3)[:, None]) / 3.0)
    roots = np.where(disc > 0.0, u - p / (3.0 * u), three) - shift
    return np.take_along_axis(roots, np.argmin(np.abs(roots - 0.5), axis=0)[None], axis=0)[0]


def _critical_levels(cs: np.ndarray, spec: SweepSpec) -> np.ndarray:
    """Critical noise level at each confusability in ``cs``, all solved together.

    At fixed c the gap is a cubic in v, nonincreasing on [0, 1]: its root there
    is its real root nearest 1/2, polished by two Newton steps on the gap itself.
    """
    g = lambda v, c: advantage_gap(v, c, spec.err_mode, spec.c_mode)
    gs = g(np.array([[0.0], [1.0 / 3.0], [2.0 / 3.0], [1.0]]), cs)
    levels = np.where(gs[3] > 0.0, 1.0, 0.0)
    inside = (gs[0] > 0.0) & (gs[3] <= 0.0)
    g0, g1, g2, g3 = gs[:, inside]
    # The cubic through the four values, elementwise so that one point and a curve round alike.
    a1 = g3 - 5.5 * g0 + 9.0 * g1 - 4.5 * g2
    a2 = 4.5 * (2.0 * g0 - 5.0 * g1 + 4.0 * g2 - g3)
    a3 = 4.5 * (g3 - g0 + 3.0 * (g1 - g2))
    v = np.clip(_cubic_root_nearest_half(g0, a1, a2, a3), 0.0, 1.0)
    for _ in range(2):
        v = np.clip(v - g(v, cs[inside]) / (a1 + v * (2.0 * a2 + 3.0 * a3 * v)), 0.0, 1.0)
    levels[inside] = v
    return levels


def critical_noise(c_ab: float, spec: SweepSpec | None = None) -> float:
    """Largest depolarizing level at which the quantum advantage survives at ``c_ab``.

    The gap's root in v on [0, 1], from its cubic in v polished by Newton steps.
    Returns 0.0 when there is no advantage even noiselessly.
    """
    if not 0.0 < c_ab < 1.0:
        raise ValueError(f"c_ab must lie strictly inside (0, 1), got {c_ab!r}")
    return float(_critical_levels(np.array([c_ab], dtype=float), spec or SweepSpec())[0])


def noise_resistance_curve(c_grid: Sequence[float], spec: SweepSpec | None = None) -> CurveSeries:
    """Critical noise level as a function of confusability, under the spec's modes.

    Points outside (0, 1) are skipped; the rest share one vectorised cubic solve.
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


def write_series_json(series: CurveSeries, path: str | Path) -> None:
    """The layout of ``json.dump(doc, indent=1)``, streamed point by point."""
    label = json.dumps(f"{series.y_label} vs {series.x_label}")
    mode = json.dumps(series.provenance)
    with open(path, "w") as fh:
        fh.write(f'{{\n "label": {label},\n "mode": {mode},\n "points": [')
        fh.writelines(f"{',' if i else ''}\n  [\n   {x!r},\n   {y!r}\n  ]" for i, (x, y) in enumerate(series.points))
        fh.write("\n ]\n}\n" if series.points else "]\n}\n")
