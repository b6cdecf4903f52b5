"""Independent numerical search for the optimal two-copy cloner, on Python floats.

The two-copy targets ``aa`` and ``bb`` and every clone output the search
visits are real vectors in the symmetric subspace of two qubits, so the
search needs no matrices: it works on 4-tuples with :mod:`math`, and
``clonectx clones`` runs without numpy.  :mod:`clonectx.quantum` builds its
states from :func:`input_pair` and :func:`plane_basis`.  :func:`search_clones`
is deliberately independent of the closed-form fidelity in
:mod:`clonectx.bounds`, which it cross-checks.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import _check_unit

GRID_POINTS = 100
CLONE_ZOOM_ROUNDS = 8
CLONE_ZOOM_POINTS = 21

Vector = tuple  # four real amplitudes in the two-qubit basis |00>, |01>, |10>, |11>


def _dot(x: Vector, y: Vector) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def _combine(*terms: tuple[float, Vector]) -> Vector:
    """The linear combination sum of weight * vector over ``terms``."""
    return tuple(sum(w * v[k] for w, v in terms) for k in range(4))


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced points from ``lo`` to ``hi``, both ends exact."""
    step = (hi - lo) / (n - 1)
    return [k * step + lo for k in range(n - 1)] + [hi]


def input_pair(c: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The real qubit inputs in their canonical gauge: |a> = (cos t, sin t) and
    |b> = (cos t, -sin t) with cos 2t = sqrt(c), so <a|b> = sqrt(c) >= 0."""
    theta = 0.5 * math.acos(math.sqrt(c))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (cos_t, sin_t), (cos_t, -sin_t)


def plane_basis(c: float) -> tuple[Vector, Vector, Vector, Vector, Vector]:
    """Two-copy targets plus an orthonormal real frame (e1, e2, e3) of the symmetric subspace.

    Returns (aa, bb, e1, e2, e3): aa and bb are two copies of the inputs of
    :func:`input_pair`, e1 lies along aa+bb and
    e2 = (|01> + |10>)/sqrt(2), which for c < 1 points exactly along aa-bb;
    span{e1, e2} is a plane for every c in [0, 1], the targets' coincidence
    at c = 1 included.  e3 is the third symmetric direction, orthogonal to both.
    """
    aa, bb = (tuple(x * y for x in ket for y in ket) for ket in input_pair(c))
    norm = math.sqrt(2.0 + 2.0 * c)
    e1 = tuple((x + y) / norm for x, y in zip(aa, bb))
    e2 = (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    e3 = (e1[3], 0.0, 0.0, -e1[0])
    return aa, bb, e1, e2, e3


class CloneSearch(namedtuple("CloneSearch", "alpha beta fidelity overlap_error grid_fidelity")):
    """Outcome of the search: the clone outputs as real 4-tuples and their scores."""

    __slots__ = ()


def search_clones(c_ab: float) -> CloneSearch:
    """Maximize the average two-copy pass probability over valid clone outputs.

    Searches pure output pairs (alpha, beta) in the real span of the two
    two-copy targets plus one orthogonal direction, subject to the
    unitarity constraint <alpha|beta> = <a|b> = sqrt(c_ab).  The constraint
    is eliminated analytically: with beta = sqrt(c) alpha + sqrt(1-c) w,
    w a unit vector orthogonal to alpha, the best |<bb|beta>| follows from
    <bb|alpha>.  That leaves alpha on a sphere: a GRID_POINTS x GRID_POINTS
    grid of its two angles (reported as ``grid_fidelity``), then
    CLONE_ZOOM_ROUNDS rounds that re-grid the cells around the best point,
    each ten times finer, in the tangent plane there, so the poles of the
    angle grid do not trap it.
    """
    c = _check_unit("c_ab", c_ab)
    aa, bb, e1, e2, e3 = plane_basis(c)
    if c <= 0.0 or c >= 1.0:
        # Endpoints clone perfectly: orthogonal inputs copy exactly, identical
        # inputs need no information gain.
        return CloneSearch(alpha=aa, beta=bb, fidelity=1.0, overlap_error=0.0, grid_fidelity=1.0)
    rc, rs = math.sqrt(c), math.sqrt(1.0 - c)

    def score(t_aa: float, t_bb: float) -> float:
        best_bb = rc * abs(t_bb) + rs * math.sqrt(max(1.0 - t_bb * t_bb, 0.0))
        return 0.5 * t_aa * t_aa + 0.5 * best_bb * best_bb

    # Every candidate is a combination of e1, e2, e3 (or of the tangent frame
    # below), so its overlaps with aa and bb are the same combination of the
    # frame's overlaps.
    a1, a2, a3 = _dot(e1, aa), _dot(e2, aa), _dot(e3, aa)
    b1, b2, b3 = _dot(e1, bb), _dot(e2, bb), _dot(e3, bb)

    # Grid round; the objective is even in the e3 component, so p covers [0, pi].
    angles = _linspace(0.0, math.pi, GRID_POINTS)
    trig = [(math.cos(x), math.sin(x)) for x in angles]
    grid_fidelity, i_best, j_best = -1.0, 0, 0
    for i, (ct, st) in enumerate(trig):
        ta, tb = ct * a1, ct * b1
        for j, (cp, sp) in enumerate(trig):
            x2, x3 = st * cp, st * sp
            f = score(ta + x2 * a2 + x3 * a3, tb + x2 * b2 + x3 * b3)
            if f > grid_fidelity:
                grid_fidelity, i_best, j_best = f, i, j

    # Zoom rounds in the tangent plane at the best grid point: u along t, w
    # along p, both unit and orthogonal to alpha0, so |alpha0 + x u + y w|^2 = 1 + x^2 + y^2.
    (ct, st), (cp, sp) = trig[i_best], trig[j_best]
    alpha0 = _combine((ct, e1), (st * cp, e2), (st * sp, e3))
    u = _combine((-st, e1), (ct * cp, e2), (ct * sp, e3))
    w = _combine((-sp, e2), (cp, e3))
    p_aa, u_aa, w_aa = _dot(alpha0, aa), _dot(u, aa), _dot(w, aa)
    p_bb, u_bb, w_bb = _dot(alpha0, bb), _dot(u, bb), _dot(w, bb)
    offsets = _linspace(-1.0, 1.0, CLONE_ZOOM_POINTS)
    x = y = 0.0
    half = angles[1] - angles[0]
    for _ in range(CLONE_ZOOM_ROUNDS):
        best = -1.0
        ys = [y + half * o for o in offsets]
        for xi in [x + half * o for o in offsets]:
            ta, tb, xx = p_aa + xi * u_aa, p_bb + xi * u_bb, 1.0 + xi * xi
            for yj in ys:
                s = math.sqrt(xx + yj * yj)
                f = score((ta + yj * w_aa) / s, (tb + yj * w_bb) / s)
                if f > best:
                    best, x_best, y_best = f, xi, yj
        x, y = x_best, y_best
        half *= 2.0 / (CLONE_ZOOM_POINTS - 1)

    alpha = _combine((1.0, alpha0), (x, u), (y, w))
    alpha = tuple(a / math.sqrt(_dot(alpha, alpha)) for a in alpha)
    t_bb = _dot(alpha, bb)
    r = math.sqrt(max(0.0, 1.0 - t_bb * t_bb))
    if r > 1e-12:
        sign = -1.0 if t_bb < 0.0 else 1.0
        perp = tuple(sign * (b - t_bb * a) / r for a, b in zip(alpha, bb))
    else:
        perp = e3  # alpha parallel to bb: any orthogonal completion ties
    beta = _combine((rc, alpha), (rs, perp))
    return CloneSearch(
        alpha=alpha,
        beta=beta,
        fidelity=0.5 * _dot(alpha, aa) ** 2 + 0.5 * _dot(beta, bb) ** 2,
        overlap_error=abs(_dot(alpha, beta) - rc),
        grid_fidelity=grid_fidelity,
    )
