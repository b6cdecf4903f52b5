"""Finite-dimensional simulation of the noisy cloning experiment, on Python floats.

Builds the full set of preparations and two-outcome test measurements of a
cloning run in which every stage (input preparation, cloning unitary,
measurement) is degraded by a depolarizing channel.  The ensemble has
:class:`clonectx.ontic.OnticModel`'s two methods, ``pass_probability`` (Born
rule) and ``equivalence_residuals``; the observables measured through them,
the closed forms they are checked against and the names of the preparations
and tests live in :mod:`clonectx.bounds`, the inputs' gauge and the two-copy
frame in :mod:`clonectx.cloner`.

The two input states live in a real two-dimensional span; the clone
outputs live in the corresponding two-qubit tensor space (dimension 4).
No matrix is larger than 4 x 4, so kets are the real tuples of
:mod:`clonectx.cloner` and operators real symmetric tuples of rows of
floats, computed with :mod:`math` alone: ``clonectx noise`` and
``verify-quantum`` run without numpy.  Every operator is a
:class:`DensityOperator`, a test's pass effect too (the operator its
preparation is after the first round of noise, built once for both),
validated on construction (shape, symmetry, spectrum, trace); each ket is
checked once as the density operator it becomes, and every tolerance test
is written so that NaN fails it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import EQUIVALENCE_PAIRS, STATE_NAMES, TEST_NAMES, _check_unit, _Checked, mixing_residuals
from .cloner import input_pair, plane_basis

HERMITIAN_TOL = 1e-12
BORN_CLIP_TOL = 1e-10

Vector = tuple  # amplitudes, dimension 2 or 4; the experiment's kets are real
Matrix = tuple  # rows of float entries, 2 x 2 or 4 x 4


def _symmetric(m: Matrix) -> bool:
    """Whether every entry of ``m`` is within HERMITIAN_TOL of its transpose's."""
    d = len(m)
    return all(abs(m[i][j] - m[j][i]) <= HERMITIAN_TOL for i in range(d) for j in range(i + 1, d))


def _spectrum_above(m: Matrix) -> bool:
    """Whether every eigenvalue of the real symmetric ``m`` exceeds -HERMITIAN_TOL.

    That holds exactly when m + HERMITIAN_TOL * I is positive definite, that
    is when its Cholesky factorisation m + HERMITIAN_TOL * I = L L^T runs
    with every pivot positive; a NaN pivot fails too.
    """
    low: list[list[float]] = []
    for i, m_row in enumerate(m):
        row: list = []
        for j in range(i):
            row.append((m_row[j] - sum(row[k] * low[j][k] for k in range(j))) / low[j][j])
        pivot = m_row[i] + HERMITIAN_TOL - sum(x * x for x in row)
        if not pivot > 0.0:
            return False
        row.append(math.sqrt(pivot))
        low.append(row)
    return True


def _ketbra(psi: Vector) -> "DensityOperator":
    """|psi><psi|, checked as a density operator: a ket of dimension other than 2 or 4, with a NaN
    or off unit norm (the trace test, ||psi||^2 within HERMITIAN_TOL of 1) raises ValueError."""
    return DensityOperator(tuple(tuple(x * y for y in psi) for x in psi))


def _apply(m: Matrix, psi: Vector) -> Vector:
    return tuple(sum(a * x for a, x in zip(row, psi)) for row in m)


class DensityOperator(_Checked, namedtuple("DensityOperator", "matrix")):
    """Real symmetric, positive-semidefinite, unit-trace float matrix (dimension 2 or 4), stored as a tuple of rows."""

    __slots__ = ()

    @staticmethod
    def _check(rho: tuple) -> tuple:
        try:
            # A complex entry (float() would cut a numpy one to its real part with only a warning) has __complex__
            # but, unlike a Fraction or Decimal, no __trunc__: it is read as float(None), a TypeError.
            m = tuple(tuple(float(None if hasattr(x, "__complex__") and not hasattr(x, "__trunc__") else x)
                            for x in row) for row in rho.matrix)
        except TypeError:
            raise ValueError("density operator must be a 2x2 or 4x4 matrix of real numbers") from None
        if len(m) not in (2, 4) or any(len(row) != len(m) for row in m):
            raise ValueError(f"density operator must be 2x2 or 4x4, got rows of lengths {[len(row) for row in m]}")
        if not _symmetric(m):
            raise ValueError("density operator is not symmetric within tolerance")
        if not _spectrum_above(m):
            raise ValueError(f"density operator has an eigenvalue below -{HERMITIAN_TOL}")
        deviation = abs(sum(m[i][i] for i in range(len(m))) - 1.0)
        if not deviation <= HERMITIAN_TOL:
            raise ValueError(f"density operator trace deviates from 1 by {deviation:.3e}")
        return (m,)

    @property
    def dim(self) -> int:
        return len(self.matrix)


def born(rho: DensityOperator, test: DensityOperator) -> float:
    """Probability Tr[rho E], the sum of rho_ij * E_ji, that ``rho`` passes the test whose pass effect E is ``test``,
    clipped only within a tight tolerance.  E is a density operator, so its spectrum lies in [0, 1] within
    d * HERMITIAN_TOL: the fail effect I - E is an effect too."""
    if rho.dim != test.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, effect {test.dim}")
    p = sum(sum(r * e for r, e in zip(row, col)) for row, col in zip(rho.matrix, zip(*test.matrix)))
    if not -BORN_CLIP_TOL <= p <= 1.0 + BORN_CLIP_TOL:
        raise ValueError(f"Born probability {p!r} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


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


def optimal_clone_pair(c_ab: float) -> tuple[Vector, Vector]:
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
    return alpha, beta


class NoisyEnsemble(namedtuple("NoisyEnsemble", "states tests")):
    """All preparations and test measurements of the depolarized experiment.

    ``states`` maps each name of :data:`clonectx.bounds.STATE_NAMES` to its
    noisy preparation and ``tests`` each name of
    :data:`clonectx.bounds.TEST_NAMES` to its noisy test; the orthogonal
    partner of preparation ``s`` is ``states[f"{s}_perp"]``.
    """

    __slots__ = ()

    def pass_probability(self, s: str, t: str) -> float:
        """Born probability that preparation ``s`` passes test ``t``."""
        return born(self.states[s], self.tests[t])

    def equivalence_residuals(self) -> dict[str, float]:
        """Max-entry residual of each of the four mixing equivalences."""
        entries = {s: [x for row in rho.matrix for x in row] for s, rho in self.states.items()}
        return mixing_residuals(entries, EQUIVALENCE_PAIRS + (("aa", "bb"),))


def noisy_ensemble(v: float, c_ab: float) -> NoisyEnsemble:
    """Construct every preparation and measurement of the noisy experiment.

    Input preparations are depolarized once; clone outputs and two-copy
    targets take the channel twice (output states inherit one round from
    the noisy input and one from the noisy transformation; targets get a
    deliberate second round so the mixing equivalences close).  The pass
    effect of test ``s`` is its projector depolarized once: the operator
    preparation ``s`` is after its first round, built once for both.  Every
    orthogonal partner is its preparation turned by 90 degrees inside its
    layer's real plane: the qubit plane, or span{e1, e2} of
    :func:`clonectx.cloner.plane_basis`, which holds alpha, beta, aa and bb
    for every ``c_ab`` in [0, 1].  Each equal mixture of a state and its
    partner is then half the plane's projector, so all four mixing
    equivalences hold as matrix identities.
    """
    v = _check_unit("v", v)
    c = _check_unit("c_ab", c_ab)

    a, b = input_pair(c)
    alpha, beta = optimal_clone_pair(c)
    aa, bb, e1, e2, _ = plane_basis(c)
    kets = {"a": a, "b": b, "alpha": alpha, "beta": beta, "aa": aa, "bb": bb}
    turn = {2: _quarter_turn((1.0, 0.0), (0.0, 1.0)), 4: _quarter_turn(e1, e2)}
    kets.update({f"{s}_perp": _apply(turn[len(psi)], psi) for s, psi in kets.items()})

    once = {s: depolarize(_ketbra(psi), v) for s, psi in kets.items()}
    return NoisyEnsemble(states={s: once[s] if once[s].dim == 2 else depolarize(once[s], v) for s in STATE_NAMES},
                         tests={s: once[s] for s in TEST_NAMES})
