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
coarsest partition its supports allow.  Checkers for the perfect-test
correlations (O1), the mixing equivalences (O2), the distance/confusability
sandwich relations measure any model built from these parts: their reports
carry residuals and margins, never a verdict, and the caller compares them
with the one tolerance ``STRUCTURAL_TOL``.  Only :func:`dpi_check` returns
a verdict, judged at that tolerance.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence

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
    def dimension(self) -> int:
        return len(self.edges)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def cell_volume(self) -> float:
        """The volume every cell of a uniform grid has."""
        v = DOMAIN_LENGTH**self.dimension / self.num_cells
        if any(abs(x - v) > STRUCTURAL_TOL * v for x in self.volumes):
            raise ValueError("the cells of this grid differ in volume")
        return v


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
        return cls(grid, (1.0 / DOMAIN_LENGTH**grid.dimension,) * grid.num_cells)


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


def dpi_check(t: StochasticMap, mu: EpistemicState, nu: EpistemicState) -> bool:
    """Data-processing inequality: the pushforward never increases the l1 distance."""
    return l1_distance(apply_map(t, mu), apply_map(t, nu)) <= l1_distance(mu, nu) + STRUCTURAL_TOL


class OnticModel(_Checked, namedtuple("OnticModel", "grid_in grid_out c_ab states responses clone_map pairs",
                                      defaults=(EQUIVALENCE_PAIRS,))):
    """A full ontological model of the cloning experiment on a partition of its domain.

    Twelve preparation densities (six tests and their orthogonal partners),
    indicator-style response functions for the six tests (both dicts keyed
    by name), the cloning kernel from the input grid to the output grid, and
    the mixing equivalence pairs the model is expected to satisfy.
    """

    __slots__ = ()

    @staticmethod
    def _check(model: tuple) -> tuple:
        missing = [s for s in STATE_NAMES if s not in model.states]
        if missing:
            raise ValueError(f"model is missing states: {missing}")
        missing = [s for s in TEST_NAMES if s not in model.responses]
        if missing:
            raise ValueError(f"model is missing responses: {missing}")
        for s, s2 in model.pairs:
            if s not in model.states or s2 not in model.states:
                raise ValueError(f"equivalence pair ({s}, {s2}) references unknown states")
        return model


class O1Report(namedtuple("O1Report", "match_probs leak_probs max_residual")):
    """Perfect-correlation check: pass probabilities on matching and orthogonal preparations."""

    __slots__ = ()


def check_O1(model: OnticModel) -> O1Report:
    """Measure how far p(pass | matching) is from 1 and p(pass | orthogonal) from 0, over every test."""
    match_probs = {s: confusability(model.states[s], model.responses[s]) for s in TEST_NAMES}
    leak_probs = {s: confusability(model.states[f"{s}_perp"], model.responses[s]) for s in TEST_NAMES}
    worst = _worst((0.0, *(abs(1.0 - p) for p in match_probs.values()), *leak_probs.values()))
    return O1Report(match_probs=match_probs, leak_probs=leak_probs, max_residual=worst)


class O2Report(namedtuple("O2Report", "pair_residuals max_residual")):
    """Mixing-equivalence check: cellwise residual of the equal-mixture identity per pair."""

    __slots__ = ()


def check_O2(model: OnticModel) -> O2Report:
    """Measure, cell by cell, how far half/half mixtures of each pair and its partners disagree."""
    residuals: dict[str, float] = {}
    for s, s2 in model.pairs:
        cells = zip(model.states[s].density, model.states[f"{s}_perp"].density,
                    model.states[s2].density, model.states[f"{s2}_perp"].density)
        residuals[f"{s}~{s2}"] = _worst(abs(0.5 * (x + x_perp) - 0.5 * (y + y_perp)) for x, x_perp, y, y_perp in cells)
    worst = _worst(residuals.values())
    return O2Report(pair_residuals=residuals, max_residual=worst)


def global_fidelity(model: OnticModel) -> float:
    """Average pass probability of the clone outputs against the two-copy tests."""
    c_alpha_aa = confusability(model.states["alpha"], model.responses["aa"])
    c_beta_bb = confusability(model.states["beta"], model.responses["bb"])
    return 0.5 * c_alpha_aa + 0.5 * c_beta_bb


def measured_epsilons(model: OnticModel) -> dict[str, float]:
    """Per-test error allowance actually exhibited by the model.

    The worst of the correlation shortfall 1 - p(pass | matching) and the
    orthogonal leak p(pass | orthogonal); this is the tightest budget under
    which the model satisfies the noisy correlation requirements.
    """
    report = check_O1(model)
    return {s: _worst((1.0 - report.match_probs[s], report.leak_probs[s])) for s in TEST_NAMES}


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
    chosen so every mixing equivalence holds cell by cell.

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

    return OnticModel(
        grid_in=grid_in,
        grid_out=grid_out,
        c_ab=c,
        states=states,
        responses=responses,
        clone_map=clone_map,
    )


def mix_with_uniform(model: OnticModel, w: float) -> OnticModel:
    """Blend every preparation with the flat density at weight ``w``.

    Preserves all mixing equivalences while degrading the test correlations,
    producing a controlled noisy model with measurable error allowances.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {w!r}")
    mixed = {}
    for name, state in model.states.items():
        flat = EpistemicState.uniform(state.grid)
        mixed[name] = EpistemicState(state.grid, [(1.0 - w) * d + w * f for d, f in zip(state.density, flat.density)])
    return model._replace(states=mixed)


class SandwichIdealReport(namedtuple("SandwichIdealReport", "pair l1 confus residual")):
    """Distance/confusability identity for one pair: l1 distance vs 2(1 - confusability)."""

    __slots__ = ()


def verify_sandwich_ideal(model: OnticModel, pairs: Sequence[tuple[str, str]]) -> list[SandwichIdealReport]:
    """Residual of the ideal relation |mu_s - mu_s'| = 2(1 - c_ss') for each pair.

    The relation holds on a model that passes the perfect-correlation (O1)
    and mixing (O2) checks; on any other model the residuals are still
    measured, and it is for the caller to read them beside O1 and O2.
    """
    reports = []
    for s, s2 in pairs:
        dist = l1_distance(model.states[s], model.states[s2])
        conf = confusability(model.states[s], model.responses[s2])
        residual = abs(dist - 2.0 * (1.0 - conf))
        reports.append(SandwichIdealReport(pair=(s, s2), l1=dist, confus=conf, residual=residual))
    return reports


class SandwichNoisyReport(namedtuple("SandwichNoisyReport", "pair l1 lower upper margin_lower margin_upper")):
    """Two-sided distance/confusability bounds for one pair under an error budget."""

    __slots__ = ()


def verify_sandwich_noisy(model: OnticModel, pair: tuple[str, str], eps_s: float, eps_s2: float) -> SandwichNoisyReport:
    """Bounds 2*max(...) <= |mu_s - mu_s'| <= 2*min(...) with the given allowances, and the margins of both.

    The bounds use both orientations of the pair's confusability.  The
    margins are ``l1 - lower`` and ``upper - l1``, measured on any model.
    Both hold on a model that satisfies the mixing equivalences and whose
    :func:`measured_epsilons` are no larger than the allowances supplied;
    the lower one needs neither.
    """
    s, s2 = pair
    dist = l1_distance(model.states[s], model.states[s2])
    c_fwd = confusability(model.states[s], model.responses[s2])
    c_rev = confusability(model.states[s2], model.responses[s])
    lower = 2.0 * max(1.0 - c_fwd - eps_s2, 1.0 - c_rev - eps_s)
    upper = 2.0 * min(1.0 - c_fwd + eps_s2, 1.0 - c_rev + eps_s)
    return SandwichNoisyReport(pair=pair, l1=dist, lower=lower, upper=upper,
                               margin_lower=dist - lower, margin_upper=upper - dist)
