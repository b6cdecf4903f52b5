"""Parameter sweeps over confusability and noise level.

Reproduces the two headline figures of the analysis as plain data: the
quantum-versus-noncontextual fidelity tradeoff across confusabilities, and
the noise resistance of the quantum advantage (the largest depolarizing
level at which the quantum fidelity still beats the noncontextual ceiling,
per confusability).  Every root is taken from a polynomial fitted exactly
to the gap: a cubic in v for the critical levels, and one of degree 8 in
t = sqrt(c) + sqrt(1 + c) for the violation window.  The critical levels,
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


class ViolationRegion(_Checked, namedtuple("ViolationRegion", "v c_lo c_hi err_mode c_mode anomalies",
                                           defaults=((),))):
    """Confusability interval where the quantum fidelity beats the noncontextual ceiling.

    ``c_lo``/``c_hi`` are None when no violation exists at this noise level.
    ``anomalies`` lists every real root of the gap in (0, 1) when there are
    more than the expected two.
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
    """The gap at noise level ``v`` as a function of c alone; the error term is taken once."""
    err = _lookup(ERR_MODES, "err_mode", err_mode)(v)
    factors = _lookup(C_MODES, "c_mode", c_mode)(v)
    noisy, ceiling, overlaps = bounds.quantum_noisy_fidelity, bounds.nc_bound, bounds._observed_overlaps
    return lambda c: noisy(v, c) - ceiling(*overlaps(c, factors), err)


def advantage_gap(v: float, c: float, err_mode: str, c_mode: str) -> float:
    """Quantum noisy fidelity minus the (unclamped) noncontextual ceiling.  No command calls it: it is the
    scalar reference route that the fused pass of :func:`_critical_levels` is checked against, bit for bit."""
    return _gap_in_c(_check_unit("v", v), err_mode, c_mode)(_check_unit("c", c))


# Chebyshev nodes of x in [-1, 1] for the degree-8 fit of the violation window.
_CHEBYSHEV_9 = tuple(math.cos(math.pi * (k + 0.5) / 9.0) for k in range(9))


def _t_and_c(x: float) -> tuple[float, float]:
    """t = sqrt(c) + sqrt(1 + c) = 1 + (1 + x)/sqrt(2) for x in [-1, 1], and c = ((t*t - 1)/2t)**2."""
    t = 1.0 + (1.0 + x) / math.sqrt(2.0)
    return t, min(((t * t - 1.0) / (2.0 * t)) ** 2, 1.0)


def _interpolate(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Coefficients, lowest power first, of the polynomial through (xs, ys): Newton's divided differences, expanded."""
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = [dd[-1]]
    for a, d in zip(xs[-2::-1], dd[-2::-1]):  # poly * (x - a) + d
        poly = [d - a * poly[0], *(lo - a * hi for lo, hi in zip(poly, poly[1:])), poly[-1]]
    return poly


def _horner(poly: Sequence[float], x: float) -> float:
    y = 0.0
    for a in reversed(poly):
        y = y * x + a
    return y


def _bisect(f, lo: float, hi: float, lo_positive: bool) -> float:
    """The sign change of ``f`` in [lo, hi], bisected down to adjacent floats: the end nearer zero."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo if abs(f(lo)) <= abs(f(hi)) else hi


def _sign_changes(f, cuts: Sequence[float]) -> list[float]:
    """Where ``f`` changes sign on [-1, 1], ascending, given cuts that split it into monotone pieces."""
    ends = [-1.0, *cuts, 1.0]
    up = [f(x) > 0.0 for x in ends]
    return [_bisect(f, a, b, sa) for a, b, sa, sb in zip(ends, ends[1:], up, up[1:]) if sa != sb]


def _derivative(poly: Sequence[float]) -> list[float]:
    return [k * a for k, a in enumerate(poly)][1:]


def _real_roots(poly: Sequence[float]) -> list[float]:
    """Real roots in [-1, 1] at which the polynomial changes sign, ascending.

    The derivative cascade: the real roots of the derivative, found the same
    way, cut [-1, 1] into monotone pieces, and each piece holds at most one root.
    """
    if len(poly) < 2:
        return []
    return _sign_changes(lambda x: _horner(poly, x), _real_roots(_derivative(poly)))


def violation_interval(v: float, err_mode: str = DEFAULT_ERR_MODE, c_mode: str = DEFAULT_C_MODE) -> ViolationRegion:
    """Confusability interval with a quantum advantage at noise level ``v``.

    (2t)**4 times the gap is a polynomial of degree 8 in t = sqrt(c) + sqrt(1 + c),
    fitted exactly through 9 Chebyshev nodes; the real roots of its derivative
    are its critical points, and they cut the domain into pieces on which the
    gap is monotone.  The region is empty unless the gap is positive at the
    highest of the domain ends and critical points; it then runs to the
    nearest sign change of the gap, bisected down to adjacent floats, or to
    the domain edge, on each side of that top.  More than two sign changes in
    (0, 1) are all reported in ``anomalies``.
    """
    v = _check_unit("v", v)
    gap_in_c = _gap_in_c(v, err_mode, c_mode)
    gap = lambda x: gap_in_c(_t_and_c(x)[1])
    poly = _interpolate(_CHEBYSHEV_9, [gap_in_c(c) * (2.0 * t) ** 4 for t, c in map(_t_and_c, _CHEBYSHEV_9)])
    critical = _real_roots(_derivative(poly))
    tops = [*critical, -1.0, 1.0]
    top_gaps = [gap(x) for x in tops]
    best = max(range(len(tops)), key=top_gaps.__getitem__)
    if top_gaps[best] <= 0.0:
        return ViolationRegion(v=v, c_lo=None, c_hi=None, err_mode=err_mode, c_mode=c_mode)
    top = _t_and_c(tops[best])[1]
    roots = [_t_and_c(x)[1] for x in _sign_changes(gap, critical) if -1.0 < x < 1.0]
    c_lo = max((c for c in roots if c < top), default=0.0)
    c_hi = min((c for c in roots if c > top), default=1.0)
    return ViolationRegion(v=v, c_lo=c_lo, c_hi=c_hi, err_mode=err_mode, c_mode=c_mode,
                           anomalies=tuple(roots) if len(roots) > 2 else ())


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
