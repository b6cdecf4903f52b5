"""Ontological models that are piecewise constant on a partition into cells.

States of knowledge (probability densities over a hidden-state domain),
two-outcome response functions and stochastic transition kernels are all
piecewise constant on a :class:`LambdaGrid`: a partition of [0, 2]
(inputs) or [0, 2]^2 (clone outputs) into cells given by their edges on
each axis, so cells may differ in size.  Expectation values are exact sums
of density times cell volume, so the structural identities of a well-built
model hold to rounding.  Everything computes on Python floats; importing
this module does not load numpy.

The centrepiece is :func:`build_saturating_model`: the explicit
preparation-noncontextual model whose cloning strategy reaches the
noncontextual fidelity ceiling exactly, at any overlap in [0, 1], on the
coarsest partition its supports allow.  A model has the quantum
ensemble's two methods, ``pass_probability`` and ``equivalence_residuals``,
and :mod:`clonectx.bounds` measures every observable through them: the
error allowances of the perfect-test correlations, the global fidelity and
the mixing residuals.  The distance/confusability sandwich residuals and
margins and the data-processing margin are plain floats, measured on any
model built from these parts.  No function here returns a verdict: the
caller compares each with the one tolerance ``STRUCTURAL_TOL``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence

from . import bounds
from .bounds import EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES, _check_unit, _Checked, _worst

DOMAIN_LENGTH = 2.0
STRUCTURAL_TOL = 1e-9


class LambdaGrid(_Checked, namedtuple("LambdaGrid", "edges cells volumes", defaults=((), ()))):
    """Partition of [0, 2] (one axis) or [0, 2]^2 (two axes) into cells.

    ``edges`` holds, for each axis, the cell edges rising strictly from 0
    to 2.  Cells are numbered row-major: the last axis varies fastest.
    ``cells`` (each cell's (low, high) bounds per axis) and ``volumes``
    follow from the edges: construction, ``_replace`` included, derives them
    and ignores any value passed for them.
    """

    __slots__ = ()

    @staticmethod
    def _check(grid: tuple) -> tuple:
        edges = tuple(tuple(float(x) for x in axis) for axis in grid.edges)
        if len(edges) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(edges)}")
        for axis in edges:
            if axis[:1] != (0.0,) or axis[-1:] != (DOMAIN_LENGTH,) or not all(x < y for x, y in zip(axis, axis[1:])):
                raise ValueError(f"cell edges must rise strictly from 0 to {DOMAIN_LENGTH}, got {axis}")
        cells = tuple(itertools.product(*(tuple(zip(axis, axis[1:])) for axis in edges)))
        return edges, cells, tuple(math.prod(hi - lo for lo, hi in cell) for cell in cells)

    @classmethod
    def uniform(cls, dimension: int, n: int) -> "LambdaGrid":
        """``n`` equal cells per axis: edges at k * 2/n."""
        if n < 1:
            raise ValueError(f"grid needs at least 1 cell per axis, got {n}")
        return cls((tuple(DOMAIN_LENGTH * k / n for k in range(n + 1)),) * dimension)

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def _indicator(grid: LambdaGrid, rects) -> tuple[float, ...]:
    """1 on the cells inside one of ``rects``, 0 elsewhere.

    A rectangle is a (low, high) interval per axis; its bounds are cell edges.
    """
    return tuple(
        float(any(all(lo <= c_lo and c_hi <= hi for (c_lo, c_hi), (lo, hi) in zip(cell, rect)) for rect in rects))
        for cell in grid.cells
    )


def _integral(grid: LambdaGrid, values) -> float:
    """Sum of value times cell volume over the grid."""
    return math.fsum(x * v for x, v in zip(values, grid.volumes))


class EpistemicState(_Checked, namedtuple("EpistemicState", "grid density")):
    """Nonnegative density per cell of a :class:`LambdaGrid`, normalized so that its integral is 1."""

    __slots__ = ()

    @staticmethod
    def _check(state: tuple) -> tuple:
        d = tuple(float(x) for x in state.density)
        if len(d) != state.grid.num_cells:
            raise ValueError(f"density must have {state.grid.num_cells} cells, got {len(d)}")
        bad = [x for x in d if not x >= 0.0]
        if bad:
            raise ValueError(f"density has negative or NaN cell {bad[0]:.3e}")
        mass = _integral(state.grid, d)
        if not abs(mass - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"density mass deviates from 1 by {abs(mass - 1.0):.3e}")
        return state.grid, d

    @classmethod
    def uniform_on(cls, grid: LambdaGrid, rects) -> "EpistemicState":
        """Unit-height density on a union of rectangles (whose measure must be 1)."""
        return cls(grid, _indicator(grid, rects))

    @classmethod
    def uniform(cls, grid: LambdaGrid) -> "EpistemicState":
        """Flat density over the whole domain."""
        return cls(grid, (1.0 / DOMAIN_LENGTH**len(grid.edges),) * grid.num_cells)


class ResponseFunction(_Checked, namedtuple("ResponseFunction", "grid values")):
    """Per-cell probability of the pass outcome of a two-outcome test."""

    __slots__ = ()

    @staticmethod
    def _check(response: tuple) -> tuple:
        x = tuple(float(v) for v in response.values)
        if len(x) != response.grid.num_cells:
            raise ValueError(f"response must have {response.grid.num_cells} cells, got {len(x)}")
        if not all(0.0 <= v <= 1.0 for v in x):
            raise ValueError("response values escape [0, 1]")
        return response.grid, x

    @classmethod
    def indicator(cls, grid: LambdaGrid, rects) -> "ResponseFunction":
        """Pass with certainty on a union of rectangles, fail elsewhere."""
        return cls(grid, _indicator(grid, rects))


class _Table(tuple):
    """Rows of floats; ``nbytes``, their size as 8-byte floats, is what perfbench reports as kernel bytes."""

    @property
    def nbytes(self) -> int:
        return 8 * sum(len(row) for row in self)


class StochasticMap(_Checked, namedtuple("StochasticMap", "source target kernel")):
    """Transition kernel between grids: ``kernel[i][j]`` moves source cell i to target cell j."""

    __slots__ = ()

    @staticmethod
    def _check(t: tuple) -> tuple:
        k = _Table(tuple(float(p) for p in row) for row in t.kernel)
        shape = (t.source.num_cells, t.target.num_cells)
        if len(k) != shape[0] or any(len(row) != shape[1] for row in k):
            raise ValueError(f"kernel must have shape {shape}")
        if not all(p >= 0.0 for row in k for p in row):
            raise ValueError("kernel has a negative or NaN entry")
        worst = max(abs(math.fsum(row) - 1.0) for row in k)
        if not worst <= STRUCTURAL_TOL:
            raise ValueError(f"kernel row sums deviate from 1 by up to {worst:.3e}")
        return t.source, t.target, k


def l1_distance(mu: EpistemicState, nu: EpistemicState) -> float:
    """Integrated absolute difference of two densities on the same grid (range [0, 2])."""
    if mu.grid != nu.grid:
        raise ValueError("l1_distance requires states on the same grid")
    return _integral(mu.grid, (abs(x - y) for x, y in zip(mu.density, nu.density)))


def confusability(mu: EpistemicState, xi: ResponseFunction) -> float:
    """Pass probability of test ``xi`` on preparation ``mu``: integral of density * response."""
    if mu.grid != xi.grid:
        raise ValueError("confusability requires state and response on the same grid")
    return _integral(mu.grid, (d * x for d, x in zip(mu.density, xi.values)))


def apply_map(t: StochasticMap, mu: EpistemicState) -> EpistemicState:
    """Push a density through a stochastic kernel; total mass is preserved."""
    if mu.grid != t.source:
        raise ValueError("state grid does not match the kernel's source grid")
    mass = [d * v for d, v in zip(mu.density, t.source.volumes)]
    out = [math.fsum(m * row[j] for m, row in zip(mass, t.kernel)) / v for j, v in enumerate(t.target.volumes)]
    return EpistemicState(t.target, out)


def dpi_margin(t: StochasticMap, mu: EpistemicState, nu: EpistemicState) -> float:
    """Data-processing margin: how far the pushforward lowers the l1 distance, never below 0 but for rounding.
    Acceptance criterion 8 runs it; no command does until one checks the noisy model."""
    return l1_distance(mu, nu) - l1_distance(apply_map(t, mu), apply_map(t, nu))


class OnticModel(_Checked, namedtuple("OnticModel", "states responses clone_map")):
    """A full ontological model of the cloning experiment on a partition of its domain.

    Twelve preparation densities (six tests and their orthogonal partners)
    and indicator-style response functions for the six tests, both dicts
    keyed by name, and the cloning kernel.  Every state and response lies
    on one of the kernel's source and target grids, each state and its
    partner on its test's grid, and both sides of a pair on one grid.
    ``pairs`` names the mixing equivalences the model is expected to
    satisfy: always ``EQUIVALENCE_PAIRS``, a constant of the class.
    """

    __slots__ = ()
    pairs = EQUIVALENCE_PAIRS

    @staticmethod
    def _check(model: tuple) -> tuple:
        missing = [s for s in STATE_NAMES if s not in model.states]
        if missing:
            raise ValueError(f"model is missing states: {missing}")
        missing = [s for s in TEST_NAMES if s not in model.responses]
        if missing:
            raise ValueError(f"model is missing responses: {missing}")
        grids = (model.clone_map.source, model.clone_map.target)
        for kind, parts in (("state", model.states), ("response", model.responses)):
            off = [name for name, part in parts.items() if part.grid not in grids]
            if off:
                raise ValueError(f"{kind} {off[0]} lies on neither grid of the clone map")
        off = [(n, s) for s in TEST_NAMES for n in (s, f"{s}_perp") if model.states[n].grid != model.responses[s].grid]
        off += [(s2, s) for s, s2 in model.pairs if model.states[s2].grid != model.responses[s].grid]
        if off:
            raise ValueError("state {} does not lie on the grid of test {}".format(*off[0]))
        return model

    def pass_probability(self, s: str, t: str) -> float:
        """Probability that preparation ``s`` passes test ``t``: its :func:`confusability`."""
        return confusability(self.states[s], self.responses[t])

    def equivalence_residuals(self) -> dict[str, float]:
        """Cellwise residual of each mixing equivalence in ``pairs``, by :func:`clonectx.bounds.mixing_residuals`."""
        return bounds.mixing_residuals({s: state.density for s, state in self.states.items()}, self.pairs)


def _saturating_supports(c: float) -> dict[str, list]:
    """Supports of the bound-saturating model at overlap ``c``, as unions of rectangles.

    Every bound is one of 0, 1 - c, 1, 2 - c and 2, so each rectangle is a
    union of cells of the partition at these edges.
    """
    a, b = (0.0, 1.0), (1.0 - c, 2.0 - c)
    a_only, overlap, b_only, neither = (0.0, 1.0 - c), (1.0 - c, 1.0), (1.0, 2.0 - c), (2.0 - c, DOMAIN_LENGTH)

    # Complements for the clone/target pair (alpha, aa): the two strips
    # where alpha and aa disagree, plus a shared filler region Q of the
    # remaining measure 1 - c + c^2, in the half x >= 1 that neither touches.
    filler = [(b_only, a), (neither, overlap)]
    aa_perp = [(overlap, b_only), *filler]
    alpha_perp = [(overlap, a_only), *filler]

    # The beta output coincides with the bb target, so their complements
    # must coincide too; b_perp x b has unit measure and is disjoint from bb.
    bb_perp = [(a_only, b), (neither, b)]

    return {
        "a": [(a,)], "b": [(b,)], "a_perp": [((1.0, DOMAIN_LENGTH),)], "b_perp": [(a_only,), (neither,)],
        "aa": [(a, a)], "bb": [(b, b)], "alpha": [(a_only, a), (overlap, b)], "beta": [(b, b)],
        "aa_perp": aa_perp, "alpha_perp": alpha_perp, "bb_perp": bb_perp, "beta_perp": bb_perp,
    }


def _saturating_kernel(a: EpistemicState, b: EpistemicState, grid_out: LambdaGrid, c: float) -> StochasticMap:
    """Cloning kernel: keep the input cell, append a sample from the branch density.

    Inputs outside the shared region draw the appended coordinate from the
    first input's density ``a``; everything else (shared region included)
    draws from the second input's density ``b``.  The output grid is the
    input grid squared, so input cell i feeds output row i.
    """
    n = a.grid.num_cells
    kernel = []
    for i, ((_, hi),) in enumerate(a.grid.cells):
        branch = a if hi <= 1.0 - c else b
        draw = [d * v for d, v in zip(branch.density, a.grid.volumes)]
        kernel.append([p if row == i else 0.0 for row in range(n) for p in draw])
    return StochasticMap(a.grid, grid_out, kernel)


def build_saturating_model(c_ab: float) -> OnticModel:
    """Explicit noncontextual model meeting the cloning-fidelity ceiling exactly.

    Input layer on [0, 2]: the first input is flat on [0, 1], the second on
    [1-c, 2-c], their orthogonal partners fill the complements, so equal
    mixtures of each pair flatten to the same uniform density.  Output
    layer on [0, 2]^2: the ideal targets are the product densities, the
    cloning kernel keeps the input point and appends a fresh sample from
    the branch density, and the orthogonal partners are unit-height regions
    chosen so the three equivalences of ``pairs`` hold cell by cell.  The
    fourth one the quantum experiment has, aa~bb, fails: its cellwise
    residual is 1/2 at every c < 1.  The ceiling's proof uses the pair
    (aa, bb) only through l1 >= 2(1 - c_aabb), which needs no equivalence,
    so the model still witnesses that the ceiling is reached.

    Every support is a union of rectangles with edges in {0, 1-c, 1, 2-c, 2},
    so the model is built on that partition, exactly at ``c_ab``: at most
    4 input cells and 16 output cells.  Coinciding edges (at c = 0 or 1)
    merge, so every cell has positive size.
    """
    c = _check_unit("c_ab", c_ab)
    axis = tuple(sorted({0.0, 1.0 - c, 1.0, 2.0 - c, DOMAIN_LENGTH}))
    grid_in = LambdaGrid((axis,))
    grid_out = LambdaGrid((axis, axis))
    supports = _saturating_supports(c)

    states = {
        name: EpistemicState.uniform_on(grid_in if len(rects[0]) == 1 else grid_out, rects)
        for name, rects in supports.items() if name not in ("alpha", "beta")
    }
    clone_map = _saturating_kernel(states["a"], states["b"], grid_out, c)
    # The clone outputs are derived, not placed by hand: push the inputs
    # through the kernel (this reproduces their unit-height supports).
    states["alpha"] = apply_map(clone_map, states["a"])
    states["beta"] = apply_map(clone_map, states["b"])
    responses = {name: ResponseFunction.indicator(states[name].grid, supports[name]) for name in TEST_NAMES}

    return OnticModel(states=states, responses=responses, clone_map=clone_map)


def mix_with_uniform(model: OnticModel, w: float) -> OnticModel:
    """Blend every preparation with the flat density at weight ``w``.

    Preserves all mixing equivalences while degrading the test correlations,
    producing a controlled noisy model with measurable error allowances.
    Acceptance criterion 3 runs it; no command does until one checks the noisy model.
    """
    w = _check_unit("mixing weight", w)
    mixed = {}
    for name, state in model.states.items():
        flat = EpistemicState.uniform(state.grid)
        mixed[name] = EpistemicState(state.grid, [(1.0 - w) * d + w * f for d, f in zip(state.density, flat.density)])
    return model._replace(states=mixed)


def sandwich_residuals(model: OnticModel, pairs: Sequence[tuple[str, str]]) -> dict[str, float]:
    """Residual of the ideal relation |mu_s - mu_s'| = 2(1 - c_ss') for each pair, keyed ``s~s'``.

    The relation holds on a model with perfect test correlations (every
    measured epsilon 0) and the mixing equivalences (every equivalence
    residual 0); on any other model the residuals are still measured, and
    it is for the caller to read them beside those.
    """
    states, p = model.states, model.pass_probability
    return {f"{s}~{s2}": abs(l1_distance(states[s], states[s2]) - 2.0 * (1.0 - p(s, s2))) for s, s2 in pairs}


def sandwich_margins(model: OnticModel, pair: tuple[str, str], eps_s: float, eps_s2: float) -> tuple[float, float]:
    """Margins l1 - lower and upper - l1 of the bounds 2*max(...) <= |mu_s - mu_s'| <= 2*min(...), given allowances.

    The bounds use both orientations of the pair's confusability, and a
    NaN in either gives NaN margins (the minimum is the negated
    :func:`_worst` of the negated terms).  The margins are measured on any
    model.  Both are nonnegative on a model that satisfies the mixing
    equivalences and whose :func:`clonectx.bounds.measured_epsilons` are no
    larger than the allowances supplied; the lower one needs neither.
    Acceptance criterion 3 runs it; no command does until one checks the noisy model.
    """
    s, s2 = pair
    dist = l1_distance(model.states[s], model.states[s2])
    c_fwd = model.pass_probability(s, s2)
    c_rev = model.pass_probability(s2, s)
    lower = 2.0 * _worst((1.0 - c_fwd - eps_s2, 1.0 - c_rev - eps_s))
    upper = -2.0 * _worst((-(1.0 - c_fwd + eps_s2), -(1.0 - c_rev + eps_s)))
    return dist - lower, upper - dist
