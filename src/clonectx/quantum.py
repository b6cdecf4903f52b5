"""Finite-dimensional simulation of the noisy cloning experiment.

Builds the full set of preparations and two-outcome test measurements of a
cloning run in which every stage (input preparation, cloning unitary,
measurement) is degraded by a depolarizing channel, evaluates all observed
probabilities through the Born rule, and verifies the mixing equivalences
as matrix identities.  An independent constrained optimizer over the clone
output states doubles as a numerical oracle for the closed-form optimal
fidelity in :mod:`clonectx.bounds`.

The two input states live in a real two-dimensional span; the clone
outputs live in the corresponding two-qubit tensor space (dimension 4).
Complex storage is kept throughout, with imaginary parts asserted to be
negligible where real geometry is expected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import ErrorBudget, OverlapParams, _check_unit

HERMITIAN_TOL = 1e-12
BORN_CLIP_TOL = 1e-10
CLONE_ZOOM_ROUNDS = 8
CLONE_ZOOM_POINTS = 21


@dataclass(frozen=True)
class PureState:
    """Unit vector in dimension 2 or 4."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] not in (2, 4):
            raise ValueError(f"state must be a vector of dimension 2 or 4, got shape {amp.shape}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap2(self, other: "PureState") -> float:
        """Squared inner product |<self|other>|**2."""
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix (dimension 2 or 4)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"density operator must be 2x2 or 4x4, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density operator is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -HERMITIAN_TOL:
            raise ValueError(f"density operator has negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(m).real - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"density operator trace deviates from 1 by {abs(np.trace(m).real - 1.0):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TwoOutcomeMeasurement:
    """Two-outcome test; stores the pass effect, the fail effect being identity minus it."""

    effect: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.effect, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] not in (2, 4):
            raise ValueError(f"effect must be 2x2 or 4x4, got shape {e.shape}")
        if np.max(np.abs(e - e.conj().T)) > HERMITIAN_TOL:
            raise ValueError("effect is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(e)
        if eigs.min() < -HERMITIAN_TOL or eigs.max() > 1.0 + HERMITIAN_TOL:
            raise ValueError(f"effect spectrum [{eigs.min():.3e}, {eigs.max():.3e}] escapes [0, 1]")
        e.setflags(write=False)
        object.__setattr__(self, "effect", e)

    @property
    def dim(self) -> int:
        return self.effect.shape[0]


def born(rho: DensityOperator, m: TwoOutcomeMeasurement) -> float:
    """Pass probability Tr[rho * effect], clipped only within a tight tolerance."""
    if rho.dim != m.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, effect {m.dim}")
    p = np.trace(rho.matrix @ m.effect)
    if abs(p.imag) > BORN_CLIP_TOL:
        raise ValueError(f"Born probability has imaginary part {p.imag:.3e}")
    val = p.real
    if val < -BORN_CLIP_TOL or val > 1.0 + BORN_CLIP_TOL:
        raise ValueError(f"Born probability {val!r} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def make_input_pair(c_ab: float) -> tuple[PureState, PureState]:
    """Real qubit pair with squared overlap ``c_ab``, symmetric about the first axis.

    Canonical gauge: |a> = (cos t, sin t), |b> = (cos t, -sin t) with
    cos 2t = sqrt(c_ab), so <a|b> = sqrt(c_ab) >= 0.
    """
    c = _check_unit("c_ab", c_ab)
    theta = 0.5 * math.acos(math.sqrt(c))
    ket_a = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    ket_b = np.array([math.cos(theta), -math.sin(theta)], dtype=complex)
    return PureState(ket_a), PureState(ket_b)


def depolarize(rho: DensityOperator, v: float) -> DensityOperator:
    """Depolarizing channel in the state's own dimension d: (1-v) rho + v I/d."""
    v = _check_unit("v", v)
    return DensityOperator((1.0 - v) * rho.matrix + v * np.eye(rho.dim) / rho.dim)


def _ketbra(psi: np.ndarray) -> DensityOperator:
    return DensityOperator(np.outer(psi, psi.conj()))


def _clone_plane_basis(c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-copy targets plus an orthonormal real frame (e1, e2) of their span.

    Returns (aa, bb, e1, e2, e3) with e1 along aa+bb, e2 along aa-bb and e3
    a third symmetric-subspace direction orthogonal to both.  Requires
    c in (0, 1) so the span is two-dimensional.
    """
    ket_a, ket_b = make_input_pair(c)
    aa = np.kron(ket_a.amplitudes, ket_a.amplitudes).real
    bb = np.kron(ket_b.amplitudes, ket_b.amplitudes).real
    e1 = (aa + bb) / math.sqrt(2.0 + 2.0 * c)
    e2 = (aa - bb) / math.sqrt(2.0 - 2.0 * c)
    sym = (np.kron(ket_a.amplitudes, ket_b.amplitudes) + np.kron(ket_b.amplitudes, ket_a.amplitudes)).real
    sym = sym / np.linalg.norm(sym)
    e3 = sym - (e1 @ sym) * e1 - (e2 @ sym) * e2
    e3 = e3 / np.linalg.norm(e3)
    return aa, bb, e1, e2, e3


def optimal_clone_pair(c_ab: float) -> tuple[PureState, PureState]:
    """Closed-form outputs of the optimal cloner for inputs with confusability ``c_ab``.

    The pair sits symmetrically about the bisector of the two-copy targets,
    with mutual overlap sqrt(c_ab) (the value any unitary cloning machine
    must preserve from the inputs).
    """
    c = _check_unit("c_ab", c_ab)
    if c >= 1.0 - 1e-15:
        ket_a, _ = make_input_pair(1.0)
        aa = np.kron(ket_a.amplitudes, ket_a.amplitudes)
        return PureState(aa), PureState(aa)
    aa, bb, e1, e2, _ = _clone_plane_basis(c)
    rc = math.sqrt(c)
    cos_psi = math.sqrt((1.0 + rc) / 2.0)
    sin_psi = math.sqrt((1.0 - rc) / 2.0)
    alpha = cos_psi * e1 + sin_psi * e2
    beta = cos_psi * e1 - sin_psi * e2
    return PureState(alpha.astype(complex)), PureState(beta.astype(complex))


@dataclass(frozen=True)
class CloneSearchResult:
    """Outcome of the independent clone-fidelity optimizer."""

    alpha: PureState
    beta: PureState
    fidelity: float
    overlap_error: float
    grid_fidelity: float


def _clone_objective(c: float, alphas: np.ndarray, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    # Average pass probability of each unit vector alpha in ``alphas`` and its best beta:
    # with <alpha|beta> = sqrt(c) eliminated in closed form (beta = sqrt(c) alpha +
    # sqrt(1-c) w, w unit, w _|_ alpha), the best |<bb|beta>| follows from <bb|alpha>.
    t_aa, t_bb = alphas @ aa, alphas @ bb
    rc = math.sqrt(c)
    best_bb = rc * np.abs(t_bb) + math.sqrt(1.0 - c) * np.sqrt(np.clip(1.0 - t_bb**2, 0.0, None))
    return 0.5 * t_aa**2 + 0.5 * best_bb**2


def construct_optimal_clones(c_ab: float) -> CloneSearchResult:
    """Maximize the average two-copy pass probability over valid clone outputs.

    Searches pure output pairs (alpha, beta) in the real span of the two
    two-copy targets plus one orthogonal direction, subject to the
    unitarity constraint <alpha|beta> = <a|b>.  The constraint is
    eliminated analytically (for fixed alpha the best beta is closed-form),
    leaving alpha on a sphere: a 100 x 100 grid of its two angles (reported
    as ``grid_fidelity``), then CLONE_ZOOM_ROUNDS rounds that re-grid the
    cells around the best point, each ten times finer.  Deliberately
    independent of the closed-form fidelity expression, which it cross-checks.
    """
    c = _check_unit("c_ab", c_ab)
    if c <= 0.0 or c >= 1.0:
        # Endpoints clone perfectly: orthogonal inputs copy exactly, identical
        # inputs need no information gain.
        ket_a, ket_b = make_input_pair(c)
        aa = PureState(np.kron(ket_a.amplitudes, ket_a.amplitudes))
        bb = PureState(np.kron(ket_b.amplitudes, ket_b.amplitudes))
        return CloneSearchResult(alpha=aa, beta=bb, fidelity=1.0, overlap_error=0.0, grid_fidelity=1.0)

    aa, bb, e1, e2, e3 = _clone_plane_basis(c)

    # Round 1: a 100 x 100 angle grid; the objective is even in the e3
    # component, so p covers [0, pi].
    ts = np.linspace(0.0, math.pi, 100)
    ps = np.linspace(0.0, math.pi, 100)
    tg, pg = np.meshgrid(ts, ps, indexing="ij")
    alphas = (
        np.cos(tg)[..., None] * e1
        + (np.sin(tg) * np.cos(pg))[..., None] * e2
        + (np.sin(tg) * np.sin(pg))[..., None] * e3
    )
    f_grid = _clone_objective(c, alphas, aa, bb)
    i_best = np.unravel_index(np.argmax(f_grid), f_grid.shape)
    grid_fidelity = float(f_grid[i_best])

    # Zoom rounds re-grid the cells around the best point in its tangent plane
    # (u along t, w along p), a chart that stays regular at the poles t = 0, pi.
    alpha0 = alphas[i_best]
    t, p = tg[i_best], pg[i_best]
    u = -math.sin(t) * e1 + math.cos(t) * (math.cos(p) * e2 + math.sin(p) * e3)
    w = -math.sin(p) * e2 + math.cos(p) * e3
    offsets = np.linspace(-1.0, 1.0, CLONE_ZOOM_POINTS)
    x = y = 0.0
    half = ts[1] - ts[0]
    for _ in range(CLONE_ZOOM_ROUNDS):
        xg, yg = np.meshgrid(x + half * offsets, y + half * offsets, indexing="ij")
        cand = alpha0 + xg[..., None] * u + yg[..., None] * w
        cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
        k = np.unravel_index(np.argmax(_clone_objective(c, cand, aa, bb)), xg.shape)
        x, y = xg[k], yg[k]
        half *= 2.0 / (CLONE_ZOOM_POINTS - 1)
    alpha = cand[k]
    t_bb = float(alpha @ bb)
    rc = math.sqrt(c)
    r = math.sqrt(max(0.0, 1.0 - t_bb * t_bb))
    if r > 1e-12:
        w = (bb - t_bb * alpha) / r
        if t_bb < 0.0:
            w = -w
    else:
        w = e3  # alpha parallel to bb: any orthogonal completion ties
    beta = rc * alpha + math.sqrt(1.0 - c) * w
    fidelity = 0.5 * float(alpha @ aa) ** 2 + 0.5 * float(beta @ bb) ** 2
    overlap_error = abs(float(alpha @ beta) - rc)
    return CloneSearchResult(
        alpha=PureState(alpha.astype(complex)),
        beta=PureState(beta.astype(complex)),
        fidelity=fidelity,
        overlap_error=overlap_error,
        grid_fidelity=grid_fidelity,
    )


def _orth_in_span(anchor: np.ndarray, other: np.ndarray, label: str) -> np.ndarray:
    """Unit vector orthogonal to ``anchor`` inside span{anchor, other}.

    Falls back to a fixed ambient direction (first basis vector with the
    smallest component along the anchor, orthogonalized) when the span
    collapses, warning that the complement is no longer span-confined.
    """
    g = other - np.vdot(anchor, other) * anchor
    norm = np.linalg.norm(g)
    if norm > 1e-7:
        return g / norm
    warnings.warn(
        f"span for {label} is degenerate; taking an ambient orthogonal complement",
        RuntimeWarning,
        stacklevel=3,
    )
    idx = int(np.argmin(np.abs(anchor)))
    g = np.zeros_like(anchor)
    g[idx] = 1.0
    g = g - np.vdot(anchor, g) * anchor
    return g / np.linalg.norm(g)


@dataclass(frozen=True)
class ExperimentRecord:
    """Born-rule summary of one noisy run: observed confusabilities, measured
    error budget, global fidelity and the worst mixing-equivalence residual."""

    overlaps: OverlapParams
    budget: ErrorBudget
    f_global: float
    o2_residual: float


@dataclass(frozen=True)
class NoisyEnsemble:
    """All preparations and test measurements of the depolarized experiment.

    Qubit layer (dimension 2): the two inputs and their in-span orthogonal
    partners, each depolarized once.  Two-copy layer (dimension 4): clone
    outputs, ideal targets and their orthogonal partners, each carrying two
    rounds of depolarization so that the mixing equivalences survive the
    noise.  The ``*_alt``
    complements are the alternative orthogonal partners tailored to the
    target-target equivalence.
    """

    v: float
    c_ab: float
    ket_a: PureState
    ket_b: PureState
    rho_a: DensityOperator
    rho_b: DensityOperator
    rho_a_perp: DensityOperator
    rho_b_perp: DensityOperator
    meas_a: TwoOutcomeMeasurement
    meas_b: TwoOutcomeMeasurement
    ket_aa: PureState
    ket_bb: PureState
    ket_alpha: PureState
    ket_beta: PureState
    rho_alpha: DensityOperator
    rho_beta: DensityOperator
    rho_alpha_perp: DensityOperator
    rho_beta_perp: DensityOperator
    rho_aa: DensityOperator
    rho_bb: DensityOperator
    rho_aa_perp: DensityOperator
    rho_bb_perp: DensityOperator
    rho_aa_perp_alt: DensityOperator
    rho_bb_perp_alt: DensityOperator
    meas_aa: TwoOutcomeMeasurement
    meas_bb: TwoOutcomeMeasurement
    meas_alpha: TwoOutcomeMeasurement
    meas_beta: TwoOutcomeMeasurement

    def equivalence_residuals(self) -> dict[str, float]:
        """Max-entry residual of each of the four mixing equivalences."""

        def resid(x: DensityOperator, xp: DensityOperator, y: DensityOperator, yp: DensityOperator) -> float:
            lhs = 0.5 * (x.matrix + xp.matrix)
            rhs = 0.5 * (y.matrix + yp.matrix)
            return float(np.max(np.abs(lhs - rhs)))

        return {
            "a~b": resid(self.rho_a, self.rho_a_perp, self.rho_b, self.rho_b_perp),
            "alpha~aa": resid(self.rho_alpha, self.rho_alpha_perp, self.rho_aa, self.rho_aa_perp),
            "beta~bb": resid(self.rho_beta, self.rho_beta_perp, self.rho_bb, self.rho_bb_perp),
            "aa~bb": resid(self.rho_aa, self.rho_aa_perp_alt, self.rho_bb, self.rho_bb_perp_alt),
        }

    def record(self) -> ExperimentRecord:
        """Every observed probability of the run, from the Born rule on this ensemble.

        Observed confusabilities for both preparation pairs, the six measured
        error allowances (worst of correlation shortfall and orthogonal leak),
        and the global cloning fidelity of the noiseless-optimal strategy.
        """
        overlaps = OverlapParams(
            c_ab=born(self.rho_a, self.meas_b),
            c_ba=born(self.rho_b, self.meas_a),
            c_aabb=born(self.rho_aa, self.meas_bb),
            c_bbaa=born(self.rho_bb, self.meas_aa),
        )

        def eps(rho: DensityOperator, rho_perp: DensityOperator, m: TwoOutcomeMeasurement) -> float:
            return max(1.0 - born(rho, m), born(rho_perp, m))

        budget = ErrorBudget(
            eps_a=eps(self.rho_a, self.rho_a_perp, self.meas_a),
            eps_b=eps(self.rho_b, self.rho_b_perp, self.meas_b),
            eps_alpha=eps(self.rho_alpha, self.rho_alpha_perp, self.meas_alpha),
            eps_beta=eps(self.rho_beta, self.rho_beta_perp, self.meas_beta),
            eps_aa=eps(self.rho_aa, self.rho_aa_perp, self.meas_aa),
            eps_bb=eps(self.rho_bb, self.rho_bb_perp, self.meas_bb),
        )

        f_global = 0.5 * born(self.rho_alpha, self.meas_aa) + 0.5 * born(self.rho_beta, self.meas_bb)
        o2_residual = max(self.equivalence_residuals().values())
        return ExperimentRecord(overlaps=overlaps, budget=budget, f_global=f_global, o2_residual=o2_residual)


def noisy_ensemble(v: float, c_ab: float) -> NoisyEnsemble:
    """Construct every preparation and measurement of the noisy experiment.

    Input preparations are depolarized once; clone outputs and two-copy
    targets take the channel twice (output states inherit one round from
    the noisy input and one from the noisy transformation; targets get a
    deliberate second round so the mixing equivalences close).  Orthogonal
    partners are taken inside the two-dimensional span relevant to each
    equivalence pair.  At ``c_ab`` = 1 the spans collapse and ambient
    complements are substituted with a warning.
    """
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)

    ket_a, ket_b = make_input_pair(c)
    a = ket_a.amplitudes
    b = ket_b.amplitudes
    # In-span orthogonal qubits: rotate by 90 degrees within the real plane.
    a_perp = np.array([-a[1], a[0]])
    b_perp = np.array([b[1], -b[0]])

    def noisy_qubit(psi: np.ndarray) -> DensityOperator:
        return depolarize(_ketbra(psi), v)

    def noisy_two_copy(psi: np.ndarray) -> DensityOperator:
        return depolarize(depolarize(_ketbra(psi), v), v)

    def effect(psi: np.ndarray) -> TwoOutcomeMeasurement:
        # A noisy test: the projector onto psi, depolarized once.
        return TwoOutcomeMeasurement(depolarize(_ketbra(psi), v).matrix)

    aa = np.kron(a, a)
    bb = np.kron(b, b)
    ket_alpha, ket_beta = optimal_clone_pair(c)
    alpha = ket_alpha.amplitudes
    beta = ket_beta.amplitudes

    alpha_perp = _orth_in_span(alpha, aa, "the clone/target pair (alpha, aa)")
    aa_perp = _orth_in_span(aa, alpha, "the clone/target pair (alpha, aa)")
    beta_perp = _orth_in_span(beta, bb, "the clone/target pair (beta, bb)")
    bb_perp = _orth_in_span(bb, beta, "the clone/target pair (beta, bb)")
    aa_perp_alt = _orth_in_span(aa, bb, "the target pair (aa, bb)")
    bb_perp_alt = _orth_in_span(bb, aa, "the target pair (aa, bb)")

    return NoisyEnsemble(
        v=v,
        c_ab=c,
        ket_a=ket_a,
        ket_b=ket_b,
        rho_a=noisy_qubit(a),
        rho_b=noisy_qubit(b),
        rho_a_perp=noisy_qubit(a_perp),
        rho_b_perp=noisy_qubit(b_perp),
        meas_a=effect(a),
        meas_b=effect(b),
        ket_aa=PureState(aa),
        ket_bb=PureState(bb),
        ket_alpha=ket_alpha,
        ket_beta=ket_beta,
        rho_alpha=noisy_two_copy(alpha),
        rho_beta=noisy_two_copy(beta),
        rho_alpha_perp=noisy_two_copy(alpha_perp),
        rho_beta_perp=noisy_two_copy(beta_perp),
        rho_aa=noisy_two_copy(aa),
        rho_bb=noisy_two_copy(bb),
        rho_aa_perp=noisy_two_copy(aa_perp),
        rho_bb_perp=noisy_two_copy(bb_perp),
        rho_aa_perp_alt=noisy_two_copy(aa_perp_alt),
        rho_bb_perp_alt=noisy_two_copy(bb_perp_alt),
        meas_aa=effect(aa),
        meas_bb=effect(bb),
        meas_alpha=effect(alpha),
        meas_beta=effect(beta),
    )


def simulate_confusabilities(v: float, c_ab: float) -> ExperimentRecord:
    """Run the noisy experiment and collect every observed probability (:meth:`NoisyEnsemble.record`)."""
    return noisy_ensemble(v, c_ab).record()


def observed_confusability(v: float, c_ab: float) -> float:
    """Closed form for the noisy input-pair confusability: (1-v)^2 c + v(1-v) + v^2/2."""
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)
    return (1.0 - v) ** 2 * c + v * (1.0 - v) + 0.5 * v * v


def observed_target_confusability(v: float, c_ab: float) -> float:
    """Closed form for the noisy target-pair confusability: (1-v)^3 c^2 + v(3-3v+v^2)/4."""
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)
    return (1.0 - v) ** 3 * c * c + 0.25 * v * (3.0 - 3.0 * v + v * v)
