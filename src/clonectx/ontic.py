"""Discretized ontological models over a cell grid.

States of knowledge (probability densities over a hidden-state domain),
two-outcome response functions and stochastic transition kernels are all
piecewise constant on a uniform grid over [0, 2] (inputs) or [0, 2]^2
(clone outputs).  Expectation values are computed by exact cell sums, so
the structural identities of a well-built model hold to machine precision
rather than discretization order.

The centrepiece is :func:`build_saturating_model`: the explicit
preparation-noncontextual model whose cloning strategy reaches the
noncontextual fidelity ceiling exactly.  Checkers for the perfect-test
correlations (O1), the mixing equivalences (O2), the distance/confusability
sandwich relations and the data-processing inequality operate on any model
built from these parts, all at the one tolerance ``STRUCTURAL_TOL``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES

DOMAIN_LENGTH = 2.0
STRUCTURAL_TOL = 1e-9


@dataclass(frozen=True)
class LambdaGrid:
    """Uniform cell grid over [0, 2] (dimension 1) or [0, 2]^2 (dimension 2)."""

    dimension: int
    n: int  # cells per axis

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dimension}")
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 cells per axis, got {self.n}")

    @property
    def h(self) -> float:
        return DOMAIN_LENGTH / self.n

    @property
    def cell_volume(self) -> float:
        return self.h if self.dimension == 1 else self.h * self.h

    @property
    def num_cells(self) -> int:
        return self.n if self.dimension == 1 else self.n * self.n

    def rect(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Flat indices of a row-set x column-set rectangle (2D grids only)."""
        if self.dimension != 2:
            raise ValueError("rect() applies to 2-dimensional grids")
        return (np.asarray(rows, dtype=np.intp)[:, None] * self.n + np.asarray(cols, dtype=np.intp)[None, :]).ravel()


@dataclass(frozen=True)
class EpistemicState:
    """Nonnegative density per cell, normalized so that sum * cell volume = 1."""

    grid: LambdaGrid
    density: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.density, dtype=float)
        if d.shape != (self.grid.num_cells,):
            raise ValueError(f"density must have {self.grid.num_cells} cells, got shape {d.shape}")
        if d.min() < 0.0:
            raise ValueError(f"density has negative cell {d.min():.3e}")
        mass = float(d.sum() * self.grid.cell_volume)
        if abs(mass - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"density mass deviates from 1 by {abs(mass - 1.0):.3e}")
        d.setflags(write=False)
        object.__setattr__(self, "density", d)

    @classmethod
    def uniform_on(cls, grid: LambdaGrid, cells: np.ndarray) -> "EpistemicState":
        """Unit-height density on the given cell set (whose measure must be 1)."""
        d = np.zeros(grid.num_cells)
        d[np.asarray(cells, dtype=np.intp)] = 1.0
        return cls(grid, d)

    @classmethod
    def uniform(cls, grid: LambdaGrid) -> "EpistemicState":
        """Flat density over the whole domain."""
        d = np.full(grid.num_cells, 1.0 / DOMAIN_LENGTH**grid.dimension)
        return cls(grid, d)


@dataclass(frozen=True)
class ResponseFunction:
    """Per-cell probability of the pass outcome of a two-outcome test."""

    grid: LambdaGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.values, dtype=float)
        if x.shape != (self.grid.num_cells,):
            raise ValueError(f"response must have {self.grid.num_cells} cells, got shape {x.shape}")
        if x.min() < 0.0 or x.max() > 1.0:
            raise ValueError("response values escape [0, 1]")
        x.setflags(write=False)
        object.__setattr__(self, "values", x)

    @classmethod
    def indicator(cls, grid: LambdaGrid, cells: np.ndarray) -> "ResponseFunction":
        x = np.zeros(grid.num_cells)
        x[np.asarray(cells, dtype=np.intp)] = 1.0
        return cls(grid, x)


@dataclass(frozen=True)
class StochasticMap:
    """Transition kernel between grids, stored row by row.

    Row i moves source cell i to the target cells ``cols[i]`` with the
    probabilities ``kernel[i]``.  Without ``cols`` the kernel is the dense
    matrix over every target cell.
    """

    source: LambdaGrid
    target: LambdaGrid
    kernel: np.ndarray
    cols: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = np.asarray(self.kernel, dtype=float)
        if self.cols is None:
            cols = np.broadcast_to(np.arange(self.target.num_cells), (self.source.num_cells, self.target.num_cells))
        else:
            cols = np.asarray(self.cols, dtype=np.intp)
        expected = (self.source.num_cells, *cols.shape[-1:])
        if k.shape != expected:
            raise ValueError(f"kernel must have shape {expected}, got {k.shape}")
        if cols.shape != k.shape:
            raise ValueError(f"cols must have the kernel's shape {k.shape}, got {cols.shape}")
        if cols.min() < 0 or cols.max() >= self.target.num_cells:
            raise ValueError(f"cols must index the {self.target.num_cells} target cells")
        if k.min() < 0.0:
            raise ValueError(f"kernel has negative entry {k.min():.3e}")
        rows = k.sum(axis=1)
        worst = float(np.max(np.abs(rows - 1.0)))
        if worst > STRUCTURAL_TOL:
            raise ValueError(f"kernel row sums deviate from 1 by up to {worst:.3e}")
        k.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "cols", cols)


def l1_distance(mu: EpistemicState, nu: EpistemicState) -> float:
    """Integrated absolute difference of two densities on the same grid (range [0, 2])."""
    if mu.grid != nu.grid:
        raise ValueError("l1_distance requires states on the same grid")
    return float(np.abs(mu.density - nu.density).sum() * mu.grid.cell_volume)


def confusability(mu: EpistemicState, xi: ResponseFunction) -> float:
    """Pass probability of test ``xi`` on preparation ``mu``: integral of density * response."""
    if mu.grid != xi.grid:
        raise ValueError("confusability requires state and response on the same grid")
    return float((mu.density * xi.values).sum() * mu.grid.cell_volume)


def apply_map(t: StochasticMap, mu: EpistemicState) -> EpistemicState:
    """Push a density through a stochastic kernel; total mass is preserved."""
    if mu.grid != t.source:
        raise ValueError("state grid does not match the kernel's source grid")
    mass = mu.density * t.source.cell_volume
    out_mass = np.bincount(t.cols.ravel(), weights=(mass[:, None] * t.kernel).ravel(), minlength=t.target.num_cells)
    return EpistemicState(t.target, out_mass / t.target.cell_volume)


def dpi_check(t: StochasticMap, mu: EpistemicState, nu: EpistemicState) -> bool:
    """Data-processing inequality: the pushforward never increases the l1 distance."""
    return l1_distance(apply_map(t, mu), apply_map(t, nu)) <= l1_distance(mu, nu) + STRUCTURAL_TOL


@dataclass(frozen=True)
class OnticModel:
    """A full ontological model of the cloning experiment on a discretized domain.

    Twelve preparation densities (six tests and their orthogonal partners),
    indicator-style response functions for the six tests, the cloning
    kernel from the input grid to the output grid, and the list of mixing
    equivalence pairs the model is expected to satisfy.
    """

    grid_in: LambdaGrid
    grid_out: LambdaGrid
    c_ab: float
    states: dict[str, EpistemicState]
    responses: dict[str, ResponseFunction]
    clone_map: StochasticMap
    pairs: tuple[tuple[str, str], ...] = EQUIVALENCE_PAIRS

    def __post_init__(self) -> None:
        missing = [s for s in STATE_NAMES if s not in self.states]
        if missing:
            raise ValueError(f"model is missing states: {missing}")
        missing = [s for s in TEST_NAMES if s not in self.responses]
        if missing:
            raise ValueError(f"model is missing responses: {missing}")
        for s, s2 in self.pairs:
            if s not in self.states or s2 not in self.states:
                raise ValueError(f"equivalence pair ({s}, {s2}) references unknown states")


@dataclass(frozen=True)
class O1Report:
    """Perfect-correlation check: pass probabilities on matching and orthogonal preparations."""

    match_probs: dict[str, float]
    leak_probs: dict[str, float]
    max_residual: float
    tol: float
    passed: bool


def check_O1(model: OnticModel, tol: float = STRUCTURAL_TOL) -> O1Report:
    """Check p(pass | matching) = 1 and p(pass | orthogonal) = 0 for every test."""
    match_probs: dict[str, float] = {}
    leak_probs: dict[str, float] = {}
    worst = 0.0
    for s in TEST_NAMES:
        xi = model.responses[s]
        p_match = confusability(model.states[s], xi)
        p_leak = confusability(model.states[f"{s}_perp"], xi)
        match_probs[s] = p_match
        leak_probs[s] = p_leak
        worst = max(worst, abs(1.0 - p_match), p_leak)
    return O1Report(match_probs=match_probs, leak_probs=leak_probs, max_residual=worst, tol=tol, passed=worst <= tol)


@dataclass(frozen=True)
class O2Report:
    """Mixing-equivalence check: cellwise residual of the equal-mixture identity per pair."""

    pair_residuals: dict[str, float]
    max_residual: float
    tol: float
    passed: bool


def check_O2(model: OnticModel, tol: float = STRUCTURAL_TOL) -> O2Report:
    """Check half/half mixtures of each pair and its partners agree cell by cell."""
    residuals: dict[str, float] = {}
    for s, s2 in model.pairs:
        lhs = 0.5 * (model.states[s].density + model.states[f"{s}_perp"].density)
        rhs = 0.5 * (model.states[s2].density + model.states[f"{s2}_perp"].density)
        residuals[f"{s}~{s2}"] = float(np.max(np.abs(lhs - rhs)))
    worst = max(residuals.values())
    return O2Report(pair_residuals=residuals, max_residual=worst, tol=tol, passed=worst <= tol)


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
    report = check_O1(model, tol=math.inf)
    return {
        s: max(1.0 - report.match_probs[s], report.leak_probs[s])
        for s in TEST_NAMES
    }


def _saturating_supports(n: int, k: int) -> dict[str, np.ndarray]:
    """Cell supports of the bound-saturating model at overlap k cells (of m = n/2)."""
    m = n // 2
    grid2 = LambdaGrid(2, n)

    s_a = np.arange(0, m)
    s_b = np.arange(m - k, 2 * m - k)
    s_a_perp = np.arange(m, 2 * m)
    s_b_perp = np.concatenate([np.arange(0, m - k), np.arange(2 * m - k, 2 * m)])

    a_only = np.arange(0, m - k)          # input cells cloned with the a-branch
    overlap = np.arange(m - k, m)         # shared input cells

    s_aa = grid2.rect(s_a, s_a)
    s_bb = grid2.rect(s_b, s_b)
    s_alpha = np.concatenate([grid2.rect(a_only, s_a), grid2.rect(overlap, s_b)])

    # Complements for the clone/target pair (alpha, aa): the two small
    # rectangles where alpha and aa disagree, plus a shared filler region Q
    # of the remaining measure placed in the half of the domain untouched by
    # either state.
    n_q = m * m - k * m + k * k
    free_rows = np.arange(m, 2 * m)
    q_flat = grid2.rect(free_rows, np.arange(0, n))[:n_q]
    s_aa_perp = np.concatenate([grid2.rect(overlap, np.arange(m, 2 * m - k)), q_flat])
    s_alpha_perp = np.concatenate([grid2.rect(overlap, np.arange(0, m - k)), q_flat])

    # The beta output coincides with the bb target, so their complements
    # must coincide too; any unit-measure region disjoint from bb works.
    shifted_rows = (s_b + m) % n
    s_bb_perp = grid2.rect(shifted_rows, s_b)

    return {
        "a": s_a, "b": s_b, "a_perp": s_a_perp, "b_perp": s_b_perp,
        "aa": s_aa, "bb": s_bb, "alpha": s_alpha, "beta": s_bb,
        "aa_perp": s_aa_perp, "alpha_perp": s_alpha_perp,
        "bb_perp": s_bb_perp, "beta_perp": s_bb_perp,
    }


def _saturating_kernel(grid_in: LambdaGrid, grid_out: LambdaGrid, k: int) -> StochasticMap:
    """Cloning kernel: keep the input cell, append a sample from the branch density.

    Inputs outside the shared region draw the appended coordinate from the
    first input's density; everything else (shared region included) draws
    from the second input's density.
    """
    n = grid_in.n
    m = n // 2
    rows = np.arange(n)
    start = np.where(rows < m - k, 0, m - k)
    cols = rows[:, None] * n + start[:, None] + np.arange(m)
    return StochasticMap(grid_in, grid_out, np.full((n, m), 1.0 / m), cols)


def build_saturating_model(c_ab: float, n: int = 200) -> OnticModel:
    """Explicit noncontextual model meeting the cloning-fidelity ceiling exactly.

    Input layer on [0, 2]: the first input is flat on [0, 1], the second on
    [1-c, 2-c], their orthogonal partners fill the complements, so equal
    mixtures of each pair flatten to the same uniform density.  Output
    layer on [0, 2]^2: the ideal targets are the product densities, the
    cloning kernel keeps the input point and appends a fresh sample from
    the branch density, and the orthogonal partners are unit-height regions
    chosen so every mixing equivalence holds cell by cell.

    ``c_ab`` is snapped to the nearest representable overlap (a multiple of
    the cell width) with a warning; ``n`` must be even so the unit interval
    is representable.
    """
    if not 0.0 <= c_ab <= 1.0:
        raise ValueError(f"c_ab must lie in [0, 1], got {c_ab!r}")
    if n < 4 or n % 2:
        raise ValueError(f"resolution must be an even number >= 4, got {n}")

    m = n // 2
    k = round(c_ab * m)
    c_snap = k / m
    if abs(c_snap - c_ab) > 1e-12:
        warnings.warn(
            f"snapping overlap {c_ab} to {c_snap} (= {k}/{m}) so supports align with the grid",
            RuntimeWarning,
            stacklevel=2,
        )

    grid_in = LambdaGrid(1, n)
    grid_out = LambdaGrid(2, n)
    supports = _saturating_supports(n, k)

    states = {
        name: EpistemicState.uniform_on(grid_in if name in ("a", "b", "a_perp", "b_perp") else grid_out, cells)
        for name, cells in supports.items() if name not in ("alpha", "beta")
    }
    clone_map = _saturating_kernel(grid_in, grid_out, k)
    # The clone outputs are derived, not placed by hand: push the inputs
    # through the kernel (this reproduces their unit-height supports).
    states["alpha"] = apply_map(clone_map, states["a"])
    states["beta"] = apply_map(clone_map, states["b"])
    responses = {name: ResponseFunction.indicator(states[name].grid, supports[name]) for name in TEST_NAMES}

    return OnticModel(
        grid_in=grid_in,
        grid_out=grid_out,
        c_ab=c_snap,
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
        mixed[name] = EpistemicState(state.grid, (1.0 - w) * state.density + w * flat.density)
    return replace(model, states=mixed)


@dataclass(frozen=True)
class SandwichIdealReport:
    """Distance/confusability identity for one pair: l1 distance vs 2(1 - confusability)."""

    pair: tuple[str, str]
    l1: float
    confus: float
    residual: float
    tol: float
    passed: bool


def verify_sandwich_ideal(
    model: OnticModel,
    pairs: Sequence[tuple[str, str]],
    o1: O1Report | None = None,
    o2: O2Report | None = None,
) -> list[SandwichIdealReport]:
    """Check the ideal relation |mu_s - mu_s'| = 2(1 - c_ss') for each pair, to ``STRUCTURAL_TOL``.

    Requires the model to pass the perfect-correlation and mixing checks,
    run once for all pairs (a caller that already holds this model's
    reports passes them as ``o1``/``o2``); raises if either fails.
    """
    if not (o1 or check_O1(model)).passed:
        raise ValueError("model fails the perfect-correlation check; the ideal sandwich does not apply")
    if not (o2 or check_O2(model)).passed:
        raise ValueError("model fails the mixing-equivalence check; the ideal sandwich does not apply")
    reports = []
    for s, s2 in pairs:
        dist = l1_distance(model.states[s], model.states[s2])
        conf = confusability(model.states[s], model.responses[s2])
        residual = abs(dist - 2.0 * (1.0 - conf))
        reports.append(SandwichIdealReport(pair=(s, s2), l1=dist, confus=conf, residual=residual,
                                           tol=STRUCTURAL_TOL, passed=residual <= STRUCTURAL_TOL))
    return reports


@dataclass(frozen=True)
class SandwichNoisyReport:
    """Two-sided distance/confusability bounds for one pair under an error budget."""

    pair: tuple[str, str]
    l1: float
    lower: float
    upper: float
    margin_lower: float
    margin_upper: float
    slack: float
    lower_ok: bool
    upper_ok: bool
    passed: bool


def verify_sandwich_noisy(
    model: OnticModel,
    pair: tuple[str, str],
    eps_s: float,
    eps_s2: float,
    check_preconditions: bool = True,
) -> SandwichNoisyReport:
    """Check 2*max(...) <= |mu_s - mu_s'| <= 2*min(...) with the given allowances.

    The bounds use both orientations of the pair's confusability.  With
    ``check_preconditions`` the model must satisfy the mixing equivalences
    and exhibit error allowances no larger than the ones supplied; the
    lower bound alone needs neither, which callers probing broken models
    can exploit by disabling the precondition check.
    """
    s, s2 = pair
    if check_preconditions:
        if not check_O2(model).passed:
            raise ValueError("model fails the mixing-equivalence check")
        eps_measured = measured_epsilons(model)
        if eps_measured[s] > eps_s + STRUCTURAL_TOL or eps_measured[s2] > eps_s2 + STRUCTURAL_TOL:
            raise ValueError(
                f"supplied allowances ({eps_s:.3e}, {eps_s2:.3e}) are smaller than the "
                f"measured ones ({eps_measured[s]:.3e}, {eps_measured[s2]:.3e})"
            )
    dist = l1_distance(model.states[s], model.states[s2])
    c_fwd = confusability(model.states[s], model.responses[s2])
    c_rev = confusability(model.states[s2], model.responses[s])
    lower = 2.0 * max(1.0 - c_fwd - eps_s2, 1.0 - c_rev - eps_s)
    upper = 2.0 * min(1.0 - c_fwd + eps_s2, 1.0 - c_rev + eps_s)
    margin_lower = dist - lower
    margin_upper = upper - dist
    lower_ok = margin_lower >= -STRUCTURAL_TOL
    upper_ok = margin_upper >= -STRUCTURAL_TOL
    return SandwichNoisyReport(
        pair=pair,
        l1=dist,
        lower=lower,
        upper=upper,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        slack=STRUCTURAL_TOL,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        passed=lower_ok and upper_ok,
    )
