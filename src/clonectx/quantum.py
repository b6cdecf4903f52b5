"""Finite-dimensional simulation of the noisy cloning experiment, on Python complex numbers.

Builds the full set of preparations and two-outcome test measurements of a
cloning run in which every stage (input preparation, cloning unitary,
measurement) is degraded by a depolarizing channel, evaluates all observed
probabilities through the Born rule, and verifies the mixing equivalences
as matrix identities.  The closed forms it is checked against, and the
names its preparations and tests are keyed by, live in :mod:`clonectx.bounds`;
the inputs' gauge and the two-copy frame live in :mod:`clonectx.cloner`.

The two input states live in a real two-dimensional span; the clone
outputs live in the corresponding two-qubit tensor space (dimension 4).
No matrix is larger than 4 x 4, so states are tuples of complex amplitudes
and operators tuples of rows, computed with :mod:`math` alone: ``clonectx
noise`` and ``verify-quantum`` run without numpy.  Every operator is
validated on construction (shape, Hermitian, spectrum, trace), and every
tolerance test is written so that NaN fails it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import (EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES, ErrorBudget, OverlapParams, _check_unit, _Checked,
                     _worst)
from .cloner import input_pair, plane_basis

HERMITIAN_TOL = 1e-12
BORN_CLIP_TOL = 1e-10

Vector = tuple  # complex amplitudes, dimension 2 or 4
Matrix = tuple  # rows of complex entries, 2 x 2 or 4 x 4


def _square(m, what: str) -> Matrix:
    """``m`` as a 2 x 2 or 4 x 4 tuple of rows of complex numbers; any other shape raises ValueError."""
    try:
        rows = tuple(tuple(complex(x) for x in row) for row in m)
    except TypeError:
        raise ValueError(f"{what} must be a 2x2 or 4x4 matrix of numbers") from None
    if len(rows) not in (2, 4) or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{what} must be 2x2 or 4x4, got rows of lengths {[len(row) for row in rows]}")
    return rows


def _hermitian(m: Matrix) -> bool:
    """Whether every entry of ``m`` is within HERMITIAN_TOL of its conjugate transpose's."""
    d = len(m)
    return all(abs(m[i][j] - m[j][i].conjugate()) <= HERMITIAN_TOL for i in range(d) for j in range(i, d))


def _spectrum_above(m: Matrix, floor: float) -> bool:
    """Whether every eigenvalue of the Hermitian ``m`` exceeds ``floor``.

    That holds exactly when m - floor * I is positive definite, that is when
    its Cholesky factorisation m - floor * I = L L^H runs with every pivot
    positive; a NaN pivot fails too.
    """
    low: list[list[complex]] = []
    for i, m_row in enumerate(m):
        row: list = []
        for j in range(i):
            row.append((m_row[j] - sum(row[k] * low[j][k].conjugate() for k in range(j))) / low[j][j])
        pivot = m_row[i].real - floor - sum(x.real * x.real + x.imag * x.imag for x in row)
        if not pivot > 0.0:
            return False
        row.append(math.sqrt(pivot))
        low.append(row)
    return True


def _ketbra(psi: Vector) -> "DensityOperator":
    return DensityOperator(tuple(tuple(x * y.conjugate() for y in psi) for x in psi))


def _apply(m: Matrix, psi: Vector) -> Vector:
    return tuple(sum(a * x for a, x in zip(row, psi)) for row in m)


class PureState(_Checked, namedtuple("PureState", "amplitudes")):
    """Unit vector in dimension 2 or 4, stored as a tuple of complex amplitudes."""

    __slots__ = ()

    @staticmethod
    def _check(state: tuple) -> tuple:
        try:
            amp = tuple(complex(a) for a in state.amplitudes)
        except TypeError:
            raise ValueError("state must be a vector of numbers") from None
        if len(amp) not in (2, 4):
            raise ValueError(f"state must be a vector of dimension 2 or 4, got {len(amp)} entries")
        deviation = abs(math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amp)) - 1.0)
        if not deviation <= HERMITIAN_TOL:
            raise ValueError(f"state norm deviates from 1 by {deviation:.3e}")
        return (amp,)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def density(self) -> "DensityOperator":
        return _ketbra(self.amplitudes)

    def overlap2(self, other: "PureState") -> float:
        """Squared inner product |<self|other>|**2."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} and {other.dim}")
        return abs(sum(x.conjugate() * y for x, y in zip(self.amplitudes, other.amplitudes))) ** 2


class DensityOperator(_Checked, namedtuple("DensityOperator", "matrix")):
    """Hermitian, positive-semidefinite, unit-trace matrix (dimension 2 or 4), stored as a tuple of rows."""

    __slots__ = ()

    @staticmethod
    def _check(rho: tuple) -> tuple:
        m = _square(rho.matrix, "density operator")
        if not _hermitian(m):
            raise ValueError("density operator is not Hermitian within tolerance")
        if not _spectrum_above(m, -HERMITIAN_TOL):
            raise ValueError(f"density operator has an eigenvalue below -{HERMITIAN_TOL}")
        deviation = abs(sum(m[i][i].real for i in range(len(m))) - 1.0)
        if not deviation <= HERMITIAN_TOL:
            raise ValueError(f"density operator trace deviates from 1 by {deviation:.3e}")
        return (m,)

    @property
    def dim(self) -> int:
        return len(self.matrix)


class TwoOutcomeMeasurement(_Checked, namedtuple("TwoOutcomeMeasurement", "effect")):
    """Two-outcome test; stores the pass effect as a tuple of rows, the fail effect being identity minus it."""

    __slots__ = ()

    @staticmethod
    def _check(test: tuple) -> tuple:
        e = _square(test.effect, "effect")
        if not _hermitian(e):
            raise ValueError("effect is not Hermitian within tolerance")
        # The spectrum of E lies in [0, 1] when both E and I - E have none below 0.
        negated = tuple(tuple(-x for x in row) for row in e)
        if not (_spectrum_above(e, -HERMITIAN_TOL) and _spectrum_above(negated, -1.0 - HERMITIAN_TOL)):
            raise ValueError(f"effect spectrum escapes [0, 1] by more than {HERMITIAN_TOL}")
        return (e,)

    @property
    def dim(self) -> int:
        return len(self.effect)


def born(rho: DensityOperator, m: TwoOutcomeMeasurement) -> float:
    """Pass probability Tr[rho * effect], the sum of rho_ij * effect_ji, clipped only within a tight tolerance."""
    if rho.dim != m.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, effect {m.dim}")
    p = sum(sum(r * e for r, e in zip(row, col)) for row, col in zip(rho.matrix, zip(*m.effect)))
    if not abs(p.imag) <= BORN_CLIP_TOL:
        raise ValueError(f"Born probability has imaginary part {p.imag:.3e}")
    val = p.real
    if not -BORN_CLIP_TOL <= val <= 1.0 + BORN_CLIP_TOL:
        raise ValueError(f"Born probability {val!r} outside [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def make_input_pair(c_ab: float) -> tuple[PureState, PureState]:
    """Real qubit pair with squared overlap ``c_ab``, in the gauge of :func:`clonectx.cloner.input_pair`."""
    ket_a, ket_b = input_pair(_check_unit("c_ab", c_ab))
    return PureState(ket_a), PureState(ket_b)


def depolarize(rho: DensityOperator, v: float) -> DensityOperator:
    """Depolarizing channel in the state's own dimension d: (1-v) rho + v I/d."""
    v = _check_unit("v", v)
    keep, mixed = 1.0 - v, v / rho.dim
    return DensityOperator(tuple(
        tuple(keep * x + (mixed if i == j else 0.0) for j, x in enumerate(row)) for i, row in enumerate(rho.matrix)
    ))


def _quarter_turn(e1: Vector, e2: Vector) -> Matrix:
    """The 90-degree rotation of the real plane span{e1, e2} (e1 -> e2 -> -e1), zero off the plane."""
    return tuple(tuple(y_i * x_j - x_i * y_j for x_j, y_j in zip(e1, e2)) for x_i, y_i in zip(e1, e2))


def optimal_clone_pair(c_ab: float) -> tuple[PureState, PureState]:
    """Closed-form outputs of the optimal cloner for inputs with confusability ``c_ab``.

    The pair sits symmetrically about the bisector of the two-copy targets,
    with mutual overlap sqrt(c_ab) (the value any unitary cloning machine
    must preserve from the inputs).
    """
    c = _check_unit("c_ab", c_ab)
    _, _, e1, e2, _ = plane_basis(c)
    rc = math.sqrt(c)
    cos_psi = math.sqrt((1.0 + rc) / 2.0)
    sin_psi = math.sqrt((1.0 - rc) / 2.0)
    alpha = tuple(cos_psi * x + sin_psi * y for x, y in zip(e1, e2))
    beta = tuple(cos_psi * x - sin_psi * y for x, y in zip(e1, e2))
    return PureState(alpha), PureState(beta)


class ExperimentRecord(namedtuple("ExperimentRecord", "overlaps budget f_global o2_residual")):
    """Born-rule summary of one noisy run: observed confusabilities (:class:`OverlapParams`),
    measured error budget (:class:`ErrorBudget`), global fidelity and the worst mixing-equivalence residual."""

    __slots__ = ()


class NoisyEnsemble(namedtuple("NoisyEnsemble", "v c_ab states tests")):
    """All preparations and test measurements of the depolarized experiment.

    ``states`` maps each name of :data:`clonectx.bounds.STATE_NAMES` to its
    noisy preparation and ``tests`` each name of
    :data:`clonectx.bounds.TEST_NAMES` to its noisy test; the orthogonal
    partner of preparation ``s`` is ``states[f"{s}_perp"]``.
    """

    __slots__ = ()

    def equivalence_residuals(self) -> dict[str, float]:
        """Max-entry residual of each of the four mixing equivalences."""

        def mixture(s: str) -> list[complex]:
            rows = zip(self.states[s].matrix, self.states[f"{s}_perp"].matrix)
            return [0.5 * (x + y) for row, row_perp in rows for x, y in zip(row, row_perp)]

        return {
            f"{s}~{s2}": _worst(abs(x - y) for x, y in zip(mixture(s), mixture(s2)))
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
            f"eps_{s}": _worst((1.0 - born(states[s], tests[s]), born(states[f"{s}_perp"], tests[s])))
            for s in TEST_NAMES
        })
        f_global = 0.5 * born(states["alpha"], tests["aa"]) + 0.5 * born(states["beta"], tests["bb"])
        o2_residual = _worst(self.equivalence_residuals().values())
        return ExperimentRecord(overlaps=overlaps, budget=budget, f_global=f_global, o2_residual=o2_residual)


def noisy_ensemble(v: float, c_ab: float) -> NoisyEnsemble:
    """Construct every preparation and measurement of the noisy experiment.

    Input preparations are depolarized once; clone outputs and two-copy
    targets take the channel twice (output states inherit one round from
    the noisy input and one from the noisy transformation; targets get a
    deliberate second round so the mixing equivalences close).  Tests are
    projectors depolarized once.  Every orthogonal partner is its
    preparation turned by 90 degrees inside its layer's real plane: the
    qubit plane, or span{e1, e2} of :func:`clonectx.cloner.plane_basis`, which holds
    alpha, beta, aa and bb for every ``c_ab`` in [0, 1].  Each equal mixture
    of a state and its partner is then half the plane's projector, so all
    four mixing equivalences hold as matrix identities.
    """
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)

    ket_a, ket_b = make_input_pair(c)
    ket_alpha, ket_beta = optimal_clone_pair(c)
    aa, bb, e1, e2, _ = plane_basis(c)
    kets = {
        "a": ket_a.amplitudes, "b": ket_b.amplitudes,
        "alpha": ket_alpha.amplitudes, "beta": ket_beta.amplitudes,
        "aa": aa, "bb": bb,
    }
    turn = {2: _quarter_turn((1.0, 0.0), (0.0, 1.0)), 4: _quarter_turn(e1, e2)}
    kets.update({f"{s}_perp": _apply(turn[len(psi)], psi) for s, psi in kets.items()})

    def prepare(psi: Vector) -> DensityOperator:
        rho = depolarize(_ketbra(psi), v)
        return rho if len(psi) == 2 else depolarize(rho, v)

    return NoisyEnsemble(
        v=v,
        c_ab=c,
        states={name: prepare(kets[name]) for name in STATE_NAMES},
        tests={s: TwoOutcomeMeasurement(depolarize(_ketbra(kets[s]), v).matrix) for s in TEST_NAMES},
    )
