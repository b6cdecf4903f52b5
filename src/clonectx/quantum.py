"""Finite-dimensional simulation of the noisy cloning experiment.

Builds the full set of preparations and two-outcome test measurements of a
cloning run in which every stage (input preparation, cloning unitary,
measurement) is degraded by a depolarizing channel, evaluates all observed
probabilities through the Born rule, and verifies the mixing equivalences
as matrix identities.  The closed forms it is checked against, and the
names its preparations and tests are keyed by, live in :mod:`clonectx.bounds`;
the two-copy frame and the independent clone-fidelity search, a numerical
oracle for the closed-form optimal fidelity, live in :mod:`clonectx.cloner`.

The two input states live in a real two-dimensional span; the clone
outputs live in the corresponding two-qubit tensor space (dimension 4).
Complex storage is kept throughout, with imaginary parts asserted to be
negligible where real geometry is expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES, ErrorBudget, OverlapParams, _check_unit
from .cloner import plane_basis, search_clones

HERMITIAN_TOL = 1e-12
BORN_CLIP_TOL = 1e-10


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
    """:func:`clonectx.cloner.plane_basis` as arrays: the targets aa, bb and the frame e1, e2, e3."""
    return tuple(np.array(x) for x in plane_basis(c))


def _quarter_turn(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The 90-degree rotation of the real plane span{e1, e2} (e1 -> e2 -> -e1), zero off the plane."""
    return np.outer(e2, e1) - np.outer(e1, e2)


def optimal_clone_pair(c_ab: float) -> tuple[PureState, PureState]:
    """Closed-form outputs of the optimal cloner for inputs with confusability ``c_ab``.

    The pair sits symmetrically about the bisector of the two-copy targets,
    with mutual overlap sqrt(c_ab) (the value any unitary cloning machine
    must preserve from the inputs).
    """
    c = _check_unit("c_ab", c_ab)
    _, _, e1, e2, _ = _clone_plane_basis(c)
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


def construct_optimal_clones(c_ab: float) -> CloneSearchResult:
    """:func:`clonectx.cloner.search_clones`, with the clone outputs as states."""
    found = search_clones(c_ab)
    return CloneSearchResult(
        alpha=PureState(np.array(found.alpha, dtype=complex)),
        beta=PureState(np.array(found.beta, dtype=complex)),
        fidelity=found.fidelity,
        overlap_error=found.overlap_error,
        grid_fidelity=found.grid_fidelity,
    )


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

    ``states`` maps each name of :data:`clonectx.bounds.STATE_NAMES` to its
    noisy preparation and ``tests`` each name of
    :data:`clonectx.bounds.TEST_NAMES` to its noisy test; the orthogonal
    partner of preparation ``s`` is ``states[f"{s}_perp"]``.
    """

    v: float
    c_ab: float
    states: dict[str, DensityOperator]
    tests: dict[str, TwoOutcomeMeasurement]

    def equivalence_residuals(self) -> dict[str, float]:
        """Max-entry residual of each of the four mixing equivalences."""

        def mixture(s: str) -> np.ndarray:
            return 0.5 * (self.states[s].matrix + self.states[f"{s}_perp"].matrix)

        return {
            f"{s}~{s2}": float(np.max(np.abs(mixture(s) - mixture(s2))))
            for s, s2 in EQUIVALENCE_PAIRS + (("aa", "bb"),)
        }

    def record(self) -> ExperimentRecord:
        """Every observed probability of the run, from the Born rule on this ensemble.

        Observed confusabilities for both preparation pairs, the six measured
        error allowances (worst of correlation shortfall and orthogonal leak),
        and the global cloning fidelity of the noiseless-optimal strategy.
        """
        states, tests = self.states, self.tests
        overlaps = OverlapParams(
            c_ab=born(states["a"], tests["b"]),
            c_ba=born(states["b"], tests["a"]),
            c_aabb=born(states["aa"], tests["bb"]),
            c_bbaa=born(states["bb"], tests["aa"]),
        )
        budget = ErrorBudget(**{
            f"eps_{s}": max(1.0 - born(states[s], tests[s]), born(states[f"{s}_perp"], tests[s]))
            for s in TEST_NAMES
        })
        f_global = 0.5 * born(states["alpha"], tests["aa"]) + 0.5 * born(states["beta"], tests["bb"])
        o2_residual = max(self.equivalence_residuals().values())
        return ExperimentRecord(overlaps=overlaps, budget=budget, f_global=f_global, o2_residual=o2_residual)


def noisy_ensemble(v: float, c_ab: float) -> NoisyEnsemble:
    """Construct every preparation and measurement of the noisy experiment.

    Input preparations are depolarized once; clone outputs and two-copy
    targets take the channel twice (output states inherit one round from
    the noisy input and one from the noisy transformation; targets get a
    deliberate second round so the mixing equivalences close).  Tests are
    projectors depolarized once.  Every orthogonal partner is its
    preparation turned by 90 degrees inside its layer's real plane: the
    qubit plane, or span{e1, e2} of :func:`_clone_plane_basis`, which holds
    alpha, beta, aa and bb for every ``c_ab`` in [0, 1].  Each equal mixture
    of a state and its partner is then half the plane's projector, so all
    four mixing equivalences hold as matrix identities.
    """
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)

    ket_a, ket_b = make_input_pair(c)
    ket_alpha, ket_beta = optimal_clone_pair(c)
    aa, bb, e1, e2, _ = _clone_plane_basis(c)
    kets = {
        "a": ket_a.amplitudes, "b": ket_b.amplitudes,
        "alpha": ket_alpha.amplitudes, "beta": ket_beta.amplitudes,
        "aa": aa, "bb": bb,
    }
    turn = {2: _quarter_turn(*np.eye(2)), 4: _quarter_turn(e1, e2)}
    kets.update({f"{s}_perp": turn[psi.size] @ psi for s, psi in kets.items()})

    def prepare(psi: np.ndarray) -> DensityOperator:
        rho = depolarize(_ketbra(psi), v)
        return rho if psi.size == 2 else depolarize(rho, v)

    return NoisyEnsemble(
        v=v,
        c_ab=c,
        states={name: prepare(kets[name]) for name in STATE_NAMES},
        tests={s: TwoOutcomeMeasurement(depolarize(_ketbra(kets[s]), v).matrix) for s in TEST_NAMES},
    )


def simulate_confusabilities(v: float, c_ab: float) -> ExperimentRecord:
    """Run the noisy experiment and collect every observed probability (:meth:`NoisyEnsemble.record`)."""
    return noisy_ensemble(v, c_ab).record()
