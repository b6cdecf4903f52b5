"""Parameter sweeps over confusability and noise level.

Reproduces the two headline figures of the analysis as plain data: the
quantum-versus-noncontextual fidelity tradeoff across confusabilities, and
the noise resistance of the quantum advantage (the largest depolarizing
level at which the quantum fidelity still beats the noncontextual ceiling,
per confusability).  Each critical level is the root of a cubic in v
fitted exactly to the gap, and each end of the violation window is a sign
change of the gap itself, bisected from the top of the noise-resistance
curve, which every window holds.  The critical levels,
of one point or of a whole curve, come from one flat loop over the
confusabilities that evaluates the gap at the cubic's four nodes in v for
every requested error-term mode at once and solves each cubic in place: its
one call per point is F(c), and the v-only factors and error terms are taken
once per pass.  Both figures come
from that pass (:func:`figure_curves`): the tradeoff is its node at v = 0,
without the error term.  Each series holds its x and y columns; this module
writes no file, :mod:`clonectx.cli` does.  Like :mod:`clonectx.bounds`, it
computes on Python floats with :mod:`math` alone, so the subcommands built
on it start without numpy.

Because the published error term exists in mutually inconsistent variants,
every sweep takes an ``err_mode``; likewise a ``c_mode`` selects whether the
noncontextual ceiling is fed the ideal overlap or the noise-degraded observed
confusabilities.  Both are plain strings, keys of the mode tables
``ERR_MODES`` and ``C_MODES``, which :mod:`clonectx.bounds` defines beside
the defaults ``DEFAULT_ERR_MODE`` and ``DEFAULT_C_MODE`` (this module
re-exports all four); a mode is checked only where :func:`_lookup` resolves
it.  Nothing is reconciled silently: reports carry the mode they were
computed under.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence

from . import bounds
from .bounds import C_MODES, DEFAULT_C_MODE, DEFAULT_ERR_MODE, ERR_MODES, _check_unit, _Checked


def _lookup(table: dict, kind: str, mode: str):
    """The entry of a mode table; the one place an unknown mode is rejected."""
    try:
        return table[mode]
    except (KeyError, TypeError):
        raise ValueError(f"{kind} must be one of {tuple(table)}, got {mode!r}") from None


class CurveSeries(_Checked, namedtuple("CurveSeries", "x_label y_label x y provenance")):
    """One plottable series: axis labels, its x and y columns with x rising, and the formula/mode it came from.

    Both columns are stored as tuples of floats, and an abscissa -0.0 as 0.0,
    so that equal abscissae print alike.
    """

    __slots__ = ()

    @staticmethod
    def _check(series: tuple) -> tuple:
        x, y = tuple(map(float, series.x)), tuple(map(float, series.y))
        if len(x) != len(y):
            raise ValueError(f"curve has {len(x)} abscissae but {len(y)} ordinates")
        if not (all(map(math.isfinite, x)) and all(map(math.isfinite, y))):
            raise ValueError("curve contains non-finite values")
        if not all(map(operator.lt, x, x[1:])):
            raise ValueError("curve abscissa must be strictly increasing")
        if 0.0 in x:
            i = x.index(0.0)
            x = (*x[:i], 0.0, *x[i + 1:])
        return series.x_label, series.y_label, x, y, series.provenance


class ViolationRegion(_Checked, namedtuple("ViolationRegion", "v c_lo c_hi err_mode c_mode")):
    """Confusability interval where the quantum fidelity beats the noncontextual ceiling.

    ``c_lo``/``c_hi`` are None when no violation exists at this noise level.
    """

    __slots__ = ()

    @staticmethod
    def _check(region: tuple) -> tuple:
        if (region.c_lo is None) != (region.c_hi is None):
            raise ValueError("c_lo and c_hi must both be set or both be None")
        if region.c_lo is not None and not 0.0 <= region.c_lo <= region.c_hi <= 1.0:
            raise ValueError(f"invalid interval [{region.c_lo}, {region.c_hi}]")
        return region

    @property
    def is_empty(self) -> bool:
        return self.c_lo is None


def _gap_in_c(v: float, err_mode: str, c_mode: str):
    """The gap at a checked noise level ``v`` as a function of a checked c alone; the v-only factors are taken once."""
    err = _lookup(ERR_MODES, "err_mode", err_mode)(v)
    factors = _lookup(C_MODES, "c_mode", c_mode)(v)
    k3, q = bounds._depolarizing_factors(v)[:2]
    fidelity, ceiling, overlaps = bounds._optimal_fidelity, bounds.nc_bound, bounds._observed_overlaps
    return lambda c: k3 * fidelity(c) + q - ceiling(*overlaps(c, factors), err)


def advantage_gap(v: float, c: float, err_mode: str, c_mode: str) -> float:
    """Quantum noisy fidelity minus the (unclamped) noncontextual ceiling.  No command calls it: it is the
    scalar reference route that the fused pass of :func:`_critical_levels` is checked against, bit for bit."""
    return _gap_in_c(_check_unit("v", v), err_mode, c_mode)(_check_unit("c", c))


def _t_and_c(x: float) -> tuple[float, float]:
    """t = sqrt(c) + sqrt(1 + c) = 1 + (1 + x)/sqrt(2) for x in [-1, 1], and c = ((t*t - 1)/2t)**2."""
    t = 1.0 + (1.0 + x) / math.sqrt(2.0)
    return t, min(((t * t - 1.0) / (2.0 * t)) ** 2, 1.0)


def _bisect(f, lo: float, hi: float, lo_positive: bool) -> float:
    """The sign change of ``f`` in [lo, hi], bisected down to adjacent floats: the end nearer zero."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo if abs(f(lo)) <= abs(f(hi)) else hi


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _peak(err_mode: str, c_mode: str) -> tuple[float, float]:
    """The top of the noise-resistance curve: the x of its c and its level :func:`critical_noise`.

    Golden-section search over x in (-1, 1), down to adjacent floats.  The
    curve rises to one top and then falls (an exact test in
    ``tests/test_scan.py`` proves it), so the top never lies beyond the
    lower of two probes, on the side away from the higher one.
    """
    level = lambda x: critical_noise(_t_and_c(x)[1], err_mode, c_mode)
    lo, hi = -1.0, 1.0
    a, b = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    level_a, level_b = level(a), level(b)
    while lo < a < b < hi:
        if level_a < level_b:
            lo, a, level_a = a, b, level_b
            b = lo + _GOLDEN * (hi - lo)
            level_b = level(b)
        else:
            hi, b, level_b = b, a, level_a
            a = hi - _GOLDEN * (hi - lo)
            level_a = level(a)
    return (a, level_a) if level_a >= level_b else (b, level_b)


def violation_interval(v: float, err_mode: str = DEFAULT_ERR_MODE, c_mode: str = DEFAULT_C_MODE) -> ViolationRegion:
    """Confusability interval with a quantum advantage at noise level ``v``.

    At every v the gap is positive on one open interval of c or nowhere, and
    it is positive at c exactly where v lies below :func:`critical_noise` at
    c; both are proven exactly in ``tests/test_scan.py``.  So every window
    holds the top c* of the noise-resistance curve (:func:`_peak`): the
    region is empty unless the gap is positive there, and each end is then
    the gap's one sign change between c* and that side's domain edge,
    bisected in x down to adjacent floats, or the edge itself.
    """
    v = _check_unit("v", v)
    gap_in_c = _gap_in_c(v, err_mode, c_mode)
    gap = lambda x: gap_in_c(_t_and_c(x)[1])
    top = _peak(err_mode, c_mode)[0]
    if gap(top) <= 0.0:
        return ViolationRegion(v=v, c_lo=None, c_hi=None, err_mode=err_mode, c_mode=c_mode)
    c_lo = 0.0 if gap(-1.0) > 0.0 else _t_and_c(_bisect(gap, -1.0, top, False))[1]
    c_hi = 1.0 if gap(1.0) > 0.0 else _t_and_c(_bisect(gap, top, 1.0, True))[1]
    return ViolationRegion(v=v, c_lo=c_lo, c_hi=c_hi, err_mode=err_mode, c_mode=c_mode)


_NODES = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)


def _critical_levels(cs: Sequence[float], c_mode: str, err_modes: Sequence[str]):
    """One pass over confusabilities ``cs`` in [0, 1]: F(c) and the ideal ceiling at
    each, the points inside (0, 1), and the critical noise level at each of those,
    one list per entry of ``err_modes``.

    The gap at v = 0, 1/3, 2/3 and 1 fixes a cubic in v.  Its level is 0 when
    there is no advantage at v = 0; otherwise it is the cubic's real root, from
    Cardano's formula, clamped at 0 and polished by one Newton step on the
    cubic.  At every c in (0, 1) and under every mode pair that root is the
    only one, and it lies in (0, 1/3), where the gap falls: Cardano's radicand
    q**2/4 + p**3/27 is at least 1/8, the cubic's leading coefficient at least
    1 in size, the gap negative at v = 1/3 and v = 1, and the slope negative
    on [0, 1/3], which an exact test in ``tests/test_scan.py`` proves.

    The depolarizing factors, the ``c_mode``'s factors and every error term
    are taken once per node; at each point F(c) is the one call, and the
    noisy fidelity and the ceiling without its error term are taken once per
    node for all modes, each mode's error term added last.  Every sum keeps
    the order of :func:`advantage_gap`, so each gap is the one it returns,
    bit for bit.  The factors at v = 0 are (1, 0, 1, 0, 0) in either
    ``c_mode``, so there the noisy fidelity is F(c) and the ceiling
    1 - c/2 + c*c/2: :func:`bounds.quantum_optimal_fidelity` and
    :func:`bounds.nc_bound_ideal` at c_aabb = c*c, bit for bit.  Nothing is
    kept per point but the returned lists.
    """
    c_factors = _lookup(C_MODES, "c_mode", c_mode)
    levels = [[] for _ in err_modes]
    # Each mode's list to append its levels to, and its error term at each node.
    modes = [(out.append, *map(_lookup(ERR_MODES, "err_mode", mode), _NODES)) for out, mode in zip(levels, err_modes)]
    (k1, q1, *_), (k2, q2, *_), (k3, q3, *_) = [bounds._depolarizing_factors(v) for v in _NODES[1:]]
    # The c_mode's factors (k3, q, k2, b, h) at each node, here (t, r, s, b, h): the ceiling
    # without its error term is 1 - c_ab/2 + c_aabb/2 at c_ab = s*c + b + h and c_aabb = t*c*c + r.
    (t1, r1, s1, b1, h1), (t2, r2, s2, b2, h2), (t3, r3, s3, b3, h3) = [c_factors(v) for v in _NODES[1:]]
    fidelity, sqrt, copysign = bounds._optimal_fidelity, math.sqrt, math.copysign
    fidelities, ceilings, inside = [], [], []
    keep_f, keep_m0, keep_c = fidelities.append, ceilings.append, inside.append
    for c in cs:
        f = fidelity(c)
        m0 = 1.0 - 0.5 * c + 0.5 * (c * c)
        keep_f(f)
        keep_m0(m0)
        if not 0.0 < c < 1.0:
            continue
        keep_c(c)
        # The noisy fidelity (1-v)**3 * F + v*(3 - 3v + v**2)/4 and the ceiling without its error term, at each node.
        n1, n2, n3 = k1 * f + q1, k2 * f + q2, k3 * f + q3
        m1 = 1.0 - 0.5 * (s1 * c + b1 + h1) + 0.5 * (t1 * c * c + r1)
        m2 = 1.0 - 0.5 * (s2 * c + b2 + h2) + 0.5 * (t2 * c * c + r2)
        m3 = 1.0 - 0.5 * (s3 * c + b3 + h3) + 0.5 * (t3 * c * c + r3)
        for keep, e0, e1, e2, e3 in modes:
            g0 = f - (m0 + e0)
            if g0 <= 0.0:
                keep(0.0)
                continue
            g1, g2, g3 = n1 - (m1 + e1), n2 - (m2 + e2), n3 - (m3 + e3)
            a1 = g3 - 5.5 * g0 + 9.0 * g1 - 4.5 * g2
            a2 = 4.5 * (2.0 * g0 - 5.0 * g1 + 4.0 * g2 - g3)
            a3 = 4.5 * (g3 - g0 + 3.0 * (g1 - g2))
            shift = a2 / (3.0 * a3)  # v = y - shift gives y**3 + p*y + q
            p = a1 / a3 - 3.0 * shift * shift
            q = g0 / a3 - shift * (p + shift * shift)
            # Cardano's radicand is at least 1/8 (the cubic's one real root), so x, where nothing cancels, is never 0.
            x = -0.5 * q - copysign(sqrt(0.25 * q * q + p * p * p / 27.0), q)
            u = x ** (1.0 / 3.0) if x > 0.0 else -((-x) ** (1.0 / 3.0))  # the real cube root
            v = u - p / (3.0 * u) - shift
            # Cardano can round the root to just below 0 (-1.1e-16 at c = 1 - 2**-53): clamped by comparisons.
            v = 0.0 if v < 0.0 else v
            v -= (g0 + v * (a1 + v * (a2 + v * a3))) / (a1 + v * (2.0 * a2 + 3.0 * a3 * v))
            keep(0.0 if v < 0.0 else v)
    return fidelities, ceilings, inside, levels


def critical_noise(c_ab: float, err_mode: str = DEFAULT_ERR_MODE, c_mode: str = DEFAULT_C_MODE) -> float:
    """Largest depolarizing level at which the quantum advantage survives at ``c_ab``.

    The root in v of the gap under ``err_mode`` and ``c_mode``, from its cubic in v
    polished by a Newton step; it lies in (0, 1/3).  Returns 0.0 when there is no
    advantage even noiselessly.
    """
    if not 0.0 < c_ab < 1.0:
        raise ValueError(f"c_ab must lie strictly inside (0, 1), got {c_ab!r}")
    *_, (levels,) = _critical_levels([float(c_ab)], c_mode, [err_mode])
    return levels[0]


def figure_curves(c_grid: Sequence[float], c_mode: str, err_modes: Sequence[str]) -> dict[str, CurveSeries]:
    """The figure data on a rising grid of confusabilities in [0, 1], from one pass over it.

    The fidelity tradeoff, ``fidelity_quantum`` and ``fidelity_noncontextual``,
    runs over the whole grid.  The noise resistance, ``noise_resistance_<mode>``
    for each entry of ``err_modes``, skips c = 0 and 1, and each of its points
    is the level :func:`critical_noise` returns there under the same modes,
    bit for bit.  The keys are in that order.
    """
    cs = [float(c) for c in c_grid]
    bad = next((c for c in cs if not 0.0 <= c <= 1.0), None)
    if bad is not None:
        raise ValueError(f"c must lie in [0, 1], got {bad!r}")
    fidelities, ceilings, inside, levels = _critical_levels(cs, c_mode, err_modes)
    curves = {
        "fidelity_quantum": CurveSeries("c_ab", "F_g", cs, fidelities, "optimal quantum cloning fidelity"),
        "fidelity_noncontextual": CurveSeries("c_ab", "F_g", cs, ceilings, "noncontextual ceiling at c_aabb = c_ab^2"),
    }
    for mode, ys in zip(err_modes, levels):
        curves[f"noise_resistance_{mode}"] = CurveSeries("c_ab", "v_max", inside, ys,
                                                         f"critical depolarizing level ({mode}, {c_mode})")
    return curves
