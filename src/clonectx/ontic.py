"""Ontological models stored as probability masses on the cells of a partition.

A state of knowledge is the probability mass each cell of a partition of
the hidden-state domain carries; a two-outcome response function is the
pass probability on each cell; a stochastic transition kernel moves each
source cell's mass to the target cells.  Expectation values are exact
sums of mass times response, so the structural identities of a well-built
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

import math
from collections import namedtuple
from collections.abc import Sequence

from . import bounds
from .bounds import EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES, _check_unit, _Checked, _worst

STRUCTURAL_TOL = 1e-9


class EpistemicState(_Checked, namedtuple("EpistemicState", "mass")):
    """Nonnegative probability mass per cell of a partition, summing to 1."""

    __slots__ = ()

    @staticmethod
    def _check(state: tuple) -> tuple:
        m = tuple(float(x) for x in state.mass)
        bad = [x for x in m if not x >= 0.0]
        if bad:
            raise ValueError(f"mass has negative or NaN cell {bad[0]:.3e}")
        total = math.fsum(m)
        if not abs(total - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"total mass deviates from 1 by {abs(total - 1.0):.3e}")
        return (m,)


class ResponseFunction(_Checked, namedtuple("ResponseFunction", "values")):
    """Per-cell probability of the pass outcome of a two-outcome test."""

    __slots__ = ()

    @staticmethod
    def _check(response: tuple) -> tuple:
        x = tuple(float(v) for v in response.values)
        if not all(0.0 <= v <= 1.0 for v in x):
            raise ValueError("response values escape [0, 1]")
        return (x,)


class _Table(tuple):
    """Rows of floats; ``nbytes``, their size as 8-byte floats, is what perfbench reports as kernel bytes."""

    @property
    def nbytes(self) -> int:
        return 8 * sum(len(row) for row in self)


class StochasticMap(_Checked, namedtuple("StochasticMap", "kernel")):
    """Row-stochastic transition kernel: ``kernel[i][j]`` moves source cell i to target cell j."""

    __slots__ = ()

    @staticmethod
    def _check(t: tuple) -> tuple:
        k = _Table(tuple(float(p) for p in row) for row in t.kernel)
        if not k or any(len(row) != len(k[0]) for row in k):
            raise ValueError("kernel must have at least one row, all of one length")
        if not all(p >= 0.0 for row in k for p in row):
            raise ValueError("kernel has a negative or NaN entry")
        worst = max(abs(math.fsum(row) - 1.0) for row in k)
        if not worst <= STRUCTURAL_TOL:
            raise ValueError(f"kernel row sums deviate from 1 by up to {worst:.3e}")
        return (k,)

    @property
    def shape(self) -> tuple[int, int]:
        """The number of source cells and of target cells."""
        return len(self.kernel), len(self.kernel[0])


def l1_distance(mu: EpistemicState, nu: EpistemicState) -> float:
    """Summed absolute difference of two states' masses on the same partition (range [0, 2])."""
    if len(mu.mass) != len(nu.mass):
        raise ValueError("l1_distance requires states on the same partition")
    return math.fsum(abs(x - y) for x, y in zip(mu.mass, nu.mass))


def confusability(mu: EpistemicState, xi: ResponseFunction) -> float:
    """Pass probability of test ``xi`` on preparation ``mu``: the sum of mass times response."""
    if len(mu.mass) != len(xi.values):
        raise ValueError("confusability requires state and response on the same partition")
    return math.fsum(m * x for m, x in zip(mu.mass, xi.values))


def apply_map(t: StochasticMap, mu: EpistemicState) -> EpistemicState:
    """Push a state's masses through a stochastic kernel; total mass is preserved."""
    sources, targets = t.shape
    if len(mu.mass) != sources:
        raise ValueError("state does not lie on the kernel's source partition")
    return EpistemicState([math.fsum(m * row[j] for m, row in zip(mu.mass, t.kernel)) for j in range(targets)])


def dpi_margin(t: StochasticMap, mu: EpistemicState, nu: EpistemicState) -> float:
    """Data-processing margin: how far the pushforward lowers the l1 distance, never below 0 but for rounding.
    Acceptance criterion 8 runs it; no command does until one checks the noisy model."""
    return l1_distance(mu, nu) - l1_distance(apply_map(t, mu), apply_map(t, nu))


class OnticModel(_Checked, namedtuple("OnticModel", "states responses clone_map")):
    """A full ontological model of the cloning experiment on a partition of its domain.

    Twelve preparations (six tests and their orthogonal partners) and
    indicator-style response functions for the six tests, both dicts keyed
    by name, and the cloning kernel.  Every state and response lies on the
    kernel's source or target partition, each state and its partner on its
    test's partition, and both sides of a pair on one partition; a
    partition is told by its number of cells.  ``pairs`` names the mixing
    equivalences the model is expected to satisfy: always
    ``EQUIVALENCE_PAIRS``, a constant of the class.
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
        cells = {name: len(state.mass) for name, state in model.states.items()}
        tests = {name: len(response.values) for name, response in model.responses.items()}
        for kind, sizes in (("state", cells), ("response", tests)):
            off = [name for name, n in sizes.items() if n not in model.clone_map.shape]
            if off:
                raise ValueError(f"{kind} {off[0]} lies on neither partition of the clone map")
        off = [(n, s) for s in TEST_NAMES for n in (s, f"{s}_perp") if cells[n] != tests[s]]
        off += [(s2, s) for s, s2 in model.pairs if cells[s2] != tests[s]]
        if off:
            raise ValueError("state {} does not lie on the partition of test {}".format(*off[0]))
        return model

    def pass_probability(self, s: str, t: str) -> float:
        """Probability that preparation ``s`` passes test ``t``: its :func:`confusability`."""
        return confusability(self.states[s], self.responses[t])

    def equivalence_residuals(self) -> dict[str, float]:
        """Cellwise residual of each mixing equivalence in ``pairs``, by :func:`clonectx.bounds.mixing_residuals`."""
        return bounds.mixing_residuals({s: state.mass for s, state in self.states.items()}, self.pairs)


# The saturating model's input cells, in order along [0, 2]: a-only [0, 1-c],
# overlap [1-c, 1], b-only [1, 2-c] and neither [2-c, 2].  Its output cells
# are their row-major pairs (row, column).
_A_ONLY, _OVERLAP, _B_ONLY, _NEITHER = range(4)


def _pairs(rows, cols) -> set:
    """The output cells whose row is in ``rows`` and whose column is in ``cols``."""
    return {(i, j) for i in rows for j in cols}


def _saturating_supports() -> tuple[dict[str, set], dict[str, set]]:
    """Supports of the bound-saturating model: the input cells of each single-copy
    preparation, and the output cells of each two-copy one."""
    a, b, b_perp = {_A_ONLY, _OVERLAP}, {_OVERLAP, _B_ONLY}, {_A_ONLY, _NEITHER}

    # Complements for the clone/target pair (alpha, aa): the two strips
    # where alpha and aa disagree, plus a shared filler region Q of the
    # remaining measure 1 - c + c^2, in the half x >= 1 that neither touches.
    filler = _pairs({_B_ONLY}, a) | _pairs({_NEITHER}, {_OVERLAP})

    # The beta output coincides with the bb target, so their complements
    # must coincide too; b_perp x b has unit measure and is disjoint from bb.
    bb_perp = _pairs(b_perp, b)

    inputs = {"a": a, "b": b, "a_perp": {_B_ONLY, _NEITHER}, "b_perp": b_perp}
    outputs = {
        "aa": _pairs(a, a), "bb": _pairs(b, b), "alpha": _pairs({_A_ONLY}, a) | _pairs({_OVERLAP}, b),
        "beta": _pairs(b, b), "aa_perp": _pairs({_OVERLAP}, {_B_ONLY}) | filler,
        "alpha_perp": _pairs({_OVERLAP}, {_A_ONLY}) | filler, "bb_perp": bb_perp, "beta_perp": bb_perp,
    }
    return inputs, outputs


def build_saturating_model(c_ab: float) -> OnticModel:
    """Explicit noncontextual model meeting the cloning-fidelity ceiling exactly.

    Input layer on [0, 2]: the first input is flat on [0, 1], the second on
    [1-c, 2-c], their orthogonal partners fill the complements, so equal
    mixtures of each pair flatten to the same uniform measure.  Output
    layer on [0, 2]^2: the ideal targets are the product measures, the
    cloning kernel keeps the input point and appends a fresh sample from
    the branch state, and the orthogonal partners are unit-measure regions
    chosen so the three equivalences of ``pairs`` hold cell by cell.  The
    fourth one the quantum experiment has, aa~bb, fails: its cellwise
    residual is 1/2 at every c < 1.  The ceiling's proof uses the pair
    (aa, bb) only through l1 >= 2(1 - c_aabb), which needs no equivalence,
    so the model still witnesses that the ceiling is reached.

    Every support is a set of the input cells between the edges 0, 1-c, 1,
    2-c and 2, or of their row-major pairs, so the model is built exactly
    at ``c_ab`` on at most 4 input and 16 output cells.  A cell's mass on a
    support is its width, the difference of its edges in floats, or for an
    output cell the product of two widths.  A cell whose width is 0.0 is
    dropped: at c = 0 and 1, and wherever an edge rounds onto its
    neighbour, as 1 - c onto 1 at c = 1e-17 or 2 - c onto 1 at c = 1 - 2**-53.
    """
    c = _check_unit("c_ab", c_ab)
    edges = (0.0, 1.0 - c, 1.0, 2.0 - c, 2.0)
    cells_in = [(k, hi - lo) for k, (lo, hi) in enumerate(zip(edges, edges[1:])) if hi - lo > 0.0]
    cells_out = [((i, j), w * v) for i, w in cells_in for j, v in cells_in]
    inputs, outputs = _saturating_supports()
    layers = ((cells_in, inputs), (cells_out, outputs))

    states = {name: EpistemicState([size if cell in support else 0.0 for cell, size in cells])
              for cells, supports in layers for name, support in supports.items() if name not in ("alpha", "beta")}
    # The cloning kernel keeps the input cell and appends a draw from the
    # branch state: a's on the a-only cell, b's everywhere else (the shared
    # region included).  Input cell i feeds output row i.
    n = len(cells_in)
    kernel = [[p if row == i else 0.0 for row in range(n) for p in states["a" if k == _A_ONLY else "b"].mass]
              for i, (k, _) in enumerate(cells_in)]
    clone_map = StochasticMap(kernel)
    # The clone outputs are derived, not placed by hand: push the inputs
    # through the kernel (this reproduces their supports).
    states["alpha"] = apply_map(clone_map, states["a"])
    states["beta"] = apply_map(clone_map, states["b"])
    responses = {name: ResponseFunction([float(cell in supports[name]) for cell, _ in cells])
                 for cells, supports in layers for name in TEST_NAMES if name in supports}

    return OnticModel(states=states, responses=responses, clone_map=clone_map)


def mix_with_uniform(model: OnticModel, w: float) -> OnticModel:
    """Blend every preparation with the flat measure at weight ``w``.

    The flat measure is the maximally mixed preparation (a + a_perp)/2 on the
    input partition, which on the saturating model is each cell's width over
    2, and its product with itself on the output partition.  Preserves all
    mixing equivalences while degrading the test correlations, producing a
    controlled noisy model with measurable error allowances.
    Acceptance criterion 3 runs it; no command does until one checks the noisy model.
    """
    w = _check_unit("mixing weight", w)
    half = [0.5 * (x + y) for x, y in zip(model.states["a"].mass, model.states["a_perp"].mass)]
    flat = {len(half): half, len(half) ** 2: [x * y for x in half for y in half]}
    mixed = {name: EpistemicState([(1.0 - w) * m + w * f for m, f in zip(state.mass, flat[len(state.mass)])])
             for name, state in model.states.items()}
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
