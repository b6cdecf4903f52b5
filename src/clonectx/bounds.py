"""Closed-form scalar bounds for state-dependent cloning, and the experiment's names.

Everything in this module is a deterministic pure function of its inputs:
the optimal quantum cloning fidelity for a pair of pure states with a given
confusability, the maximum fidelity any preparation-noncontextual model can
reach (ideal, noise-robust, and the stronger symmetric variant), the
noncontextual state-discrimination ceiling, the error budgets induced
by a depolarizing channel acting on every stage of the experiment, and the
confusabilities that channel leaves observable.  The names of the
experiment's preparations, tests and mixing equivalences live here too, so
that :mod:`clonectx.quantum` and :mod:`clonectx.ontic` share one spelling,
and so do the sweep mode tables ``ERR_MODES`` and ``C_MODES`` with their
defaults, which :mod:`clonectx.scan` computes with and the CLI offers, and
the figure-data file formats ``CURVE_FORMATS``.

Every closed form computes on Python floats with :mod:`math` alone, and
every number it returns is a ``float``: importing this module does not
load numpy.  Every
validated probability goes through :func:`_check_unit`, which rejects NaN,
±inf and anything outside [0, 1] with a ``ValueError``.  The package's
records are named tuples; those that check their fields subclass
:class:`_Checked`, which puts every construction through the check.

Conventions: ``c_ab`` is the confusability of the two input preparations
(squared overlap in the ideal quantum realisation), ``c_aabb`` the
confusability of the two ideal two-copy targets, and ``eps_*`` the
worst-case deviation of each test measurement from perfect correlation.
"""

from __future__ import annotations

import math
from collections import namedtuple

STATE_NAMES = (
    "a", "b", "a_perp", "b_perp",
    "alpha", "beta", "alpha_perp", "beta_perp",
    "aa", "bb", "aa_perp", "bb_perp",
)
TEST_NAMES = ("a", "b", "alpha", "beta", "aa", "bb")
EQUIVALENCE_PAIRS = (("a", "b"), ("alpha", "aa"), ("beta", "bb"))


def _check_unit(name: str, x) -> float:
    """A probability in [0, 1] as a Python float; NaN, ±inf and anything outside fail."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x + 0.0  # -0.0 as +0.0; every other float unchanged


class _Checked:
    """Mixin, listed before its ``namedtuple`` base, for a record whose fields are checked on every construction.

    The record's ``_check`` takes the unchecked record and returns its
    fields, normalised, or raises ``ValueError``.  The constructor,
    ``_make`` and ``_replace`` (and so copy and pickle) all go through it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, cls._check(super().__new__(cls, *args, **kwargs)))

    @classmethod
    def _make(cls, iterable):
        return tuple.__new__(cls, cls._check(super()._make(iterable)))


def _check_units(record: tuple) -> tuple:
    """A record whose every field is a probability, checked by :func:`_check_unit`."""
    for name, x in zip(record._fields, record):
        _check_unit(name, x)
    return record


class OverlapParams(_Checked, namedtuple("OverlapParams", "c_ab c_ba c_aabb c_bbaa")):
    """Observed confusabilities feeding the noncontextual bounds.

    ``c_ab``/``c_ba``: input pair, both directions.  ``c_aabb``/``c_bbaa``:
    two-copy target pair.  All four are probabilities; the symmetric
    quantum experiment has ``c_ab == c_ba`` and ``c_aabb == c_bbaa == c_ab**2``.
    """

    __slots__ = ()
    _check = staticmethod(_check_units)

    @classmethod
    def symmetric(cls, c: float) -> "OverlapParams":
        """Overlaps of the ideal symmetric experiment: c both ways, c**2 for the copies."""
        c = _check_unit("c", c)
        return cls(c_ab=c, c_ba=c, c_aabb=c * c, c_bbaa=c * c)


class ErrorBudget(_Checked, namedtuple("ErrorBudget", "eps_a eps_b eps_alpha eps_beta eps_aa eps_bb")):
    """Per-preparation noise allowances eps_s for the six test measurements.

    eps_s bounds both the shortfall of p(pass | matching preparation) from 1
    and the leak p(pass | orthogonal preparation).
    """

    __slots__ = ()
    _check = staticmethod(_check_units)

    @classmethod
    def zero(cls) -> "ErrorBudget":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def uniform(cls, eps: float) -> "ErrorBudget":
        eps = _check_unit("eps", eps)
        return cls(eps, eps, eps, eps, eps, eps)


class BoundValue(namedtuple("BoundValue", "value clamped")):
    """A fidelity bound, kept raw even when it exceeds 1.

    ``clamped`` marks a vacuous bound (raw value above 1 for a generous
    error budget).  The raw value is retained so that monotonicity in the
    budget remains visible.
    """

    __slots__ = ()

    @staticmethod
    def of(raw: float) -> "BoundValue":
        if not math.isfinite(raw):
            raise ValueError(f"bound must be finite, got {raw!r}")
        return BoundValue(value=raw, clamped=raw > 1.0)


def quantum_optimal_fidelity(c_ab: float) -> float:
    """Best global cloning fidelity quantum mechanics allows for confusability ``c_ab``.

    Evaluates (1/4) * [sqrt((1+c)(1+sqrt(c))) + sqrt((1-c)(1-sqrt(c)))]**2,
    the optimal two-state cloner's average probability of passing the ideal
    two-copy tests.  Equals 1 at both endpoints (orthogonal or identical
    inputs clone perfectly) and stays within [1/2, 1] in between.
    """
    return _optimal_fidelity(_check_unit("c_ab", c_ab))


def _optimal_fidelity(c: float) -> float:
    """:func:`quantum_optimal_fidelity` of a ``c`` already checked to lie in [0, 1]."""
    rc = math.sqrt(c)
    bracket = math.sqrt((1.0 + c) * (1.0 + rc)) + math.sqrt((1.0 - c) * (1.0 - rc))
    return 0.25 * bracket * bracket


def nc_bound(c_ab: float, c_aabb: float, err: float = 0.0) -> float:
    """The noncontextual ceiling 1 - c_ab/2 + c_aabb/2 + err, unvalidated and unclamped."""
    return 1.0 - 0.5 * c_ab + 0.5 * c_aabb + err


def nc_bound_ideal(c_ab: float, c_aabb: float) -> float:
    """Noncontextual ceiling on the global cloning fidelity, ideal correlations.

    1 - c_ab/2 + c_aabb/2: any preparation-noncontextual model that
    reproduces perfect test correlations and the two mixing equivalences
    cannot clone better than this.
    """
    return nc_bound(_check_unit("c_ab", c_ab), _check_unit("c_aabb", c_aabb))


def _budget_err(eb: ErrorBudget) -> float:
    """Error term (eps_b + 2*eps_bb + eps_aa)/2 of the noise-robust ceiling."""
    return 0.5 * (eb.eps_b + 2.0 * eb.eps_bb + eb.eps_aa)


def nc_bound_noisy(ov: OverlapParams, eb: ErrorBudget) -> BoundValue:
    """Noise-robust noncontextual ceiling.

    Adds (eps_b + 2*eps_bb + eps_aa)/2 to the ideal bound; reduces to it
    exactly for a zero budget.
    """
    return BoundValue.of(nc_bound(ov.c_ab, ov.c_aabb, _budget_err(eb)))


def nc_bound_noisy_symmetric(ov: OverlapParams, eb: ErrorBudget) -> BoundValue:
    """Stronger, exchange-symmetric form of the noise-robust ceiling.

    1 + min(eps_b - c_ab, eps_a - c_ba)/2
      + min(c_aabb + eps_bb, c_bbaa + eps_aa)/2
      + (eps_aa + eps_bb)/2

    Never exceeds :func:`nc_bound_noisy` on the same inputs.
    """
    term_in = min(eb.eps_b - ov.c_ab, eb.eps_a - ov.c_ba)
    term_out = min(ov.c_aabb + eb.eps_bb, ov.c_bbaa + eb.eps_aa)
    raw = 1.0 + 0.5 * term_in + 0.5 * term_out + 0.5 * (eb.eps_aa + eb.eps_bb)
    return BoundValue.of(raw)


def nc_discrimination_bound(c_ab: float, eps_b: float = 0.0) -> float:
    """Noncontextual ceiling on the success probability of distinguishing the inputs.

    1 - (c_ab - eps_b)/2; the ideal case (eps_b = 0) gives 1 - c_ab/2.
    """
    c_ab = _check_unit("c_ab", c_ab)
    eps_b = _check_unit("eps_b", eps_b)
    return 1.0 - 0.5 * (c_ab - eps_b)


def depolarizing_epsilons(v: float) -> ErrorBudget:
    """Error budget induced by depolarizing every stage at noise level ``v``.

    Single-copy tests degrade as v - v**2/2 (state and effect each pick up
    one factor of noise); two-copy and clone-output tests degrade as
    (3/4) * v * (3 - 3v + v**2) (the preparation passes the channel twice,
    the effect once).
    """
    v = _check_unit("v", v)
    eps_single = v - 0.5 * v * v
    eps_double = 0.75 * v * (3.0 - 3.0 * v + v * v)
    return ErrorBudget(
        eps_a=eps_single,
        eps_b=eps_single,
        eps_alpha=eps_double,
        eps_beta=eps_double,
        eps_aa=eps_double,
        eps_bb=eps_double,
    )


def _depolarizing_factors(v: float) -> tuple[float, float, float, float, float]:
    """The v-only factors of the depolarized closed forms, for a checked ``v``.

    (1-v)**3, v*(3 - 3v + v**2)/4, (1-v)**2, v*(1-v) and v**2/2: the weights
    of the noiseless value and of the noise in :func:`quantum_noisy_fidelity`
    and in both observed confusabilities.
    """
    one_mv = 1.0 - v
    return one_mv**3, 0.25 * v * (3.0 - 3.0 * v + v * v), one_mv**2, v * one_mv, 0.5 * v * v


def _observed_overlaps(c: float, factors: tuple) -> tuple[float, float]:
    """Observed (c_ab, c_aabb) at a checked ``c``, given the noise level's :func:`_depolarizing_factors`."""
    k3, q, k2, b, h = factors
    return k2 * c + b + h, k3 * c * c + q


class ErrTerms(namedtuple("ErrTerms", "err_thm2 err_appendix err_prime eps_effective")):
    """Every published form of the depolarizing error term, side by side.

    The source material is internally inconsistent about which combination
    of epsilons enters the noise-robust bound, so all variants are computed
    and none is silently preferred:

    * ``err_thm2``:     (eps_b + 2*eps_bb + eps_aa)/2 with the depolarizing
                        budget, i.e. v*(31 - 29v + 9v**2)/8.
    * ``err_appendix``: v*(31 - 29v + 9v**2)/2, the printed sum of all six
                        epsilons (with the two-copy ones doubled).
    * ``err_prime``:    v*(31 - 21v + 9v**2)/8, the printed symmetric form.
    * ``eps_effective``: v*(31 - 21v + 9v**2)/16, the single equivalent
                        epsilon whose uniform budget gives ``err_prime``.
    """

    __slots__ = ()


# Error term of the noisy ceiling under each published variant (``err_mode``),
# as a function of the depolarizing level v.
ERR_MODES = {
    "thm2-direct": lambda v: _budget_err(depolarizing_epsilons(v)),
    "appendix-err": lambda v: 0.5 * v * (31.0 - 29.0 * v + 9.0 * v * v),
    "err-prime": lambda v: 0.125 * v * (31.0 - 21.0 * v + 9.0 * v * v),
}

# Confusabilities (c_ab, c_aabb) fed to the ceiling under each ``c_mode``, as a
# function of the ideal overlap c and the noise level's depolarizing factors.
C_MODES = {
    "ideal-overlap": lambda c, factors: (c, c * c),
    "observed-confusability": _observed_overlaps,
}

# The modes a sweep runs under when none is given; the CLI's defaults too.
DEFAULT_ERR_MODE = "thm2-direct"
DEFAULT_C_MODE = "observed-confusability"

# The file formats of the figure data: what scan.write_curves writes and curves --format offers.
CURVE_FORMATS = ("csv", "json")


def err_terms(v: float) -> ErrTerms:
    """All depolarizing-noise error-term variants at noise level ``v``."""
    v = _check_unit("v", v)
    err_prime = ERR_MODES["err-prime"](v)
    return ErrTerms(
        err_thm2=ERR_MODES["thm2-direct"](v),
        err_appendix=ERR_MODES["appendix-err"](v),
        err_prime=err_prime,
        eps_effective=0.5 * err_prime,
    )


def quantum_noisy_fidelity(v: float, c_ab: float) -> float:
    """Global fidelity of the noiseless-optimal cloner run at depolarizing level ``v``.

    (1-v)**3 * quantum_optimal_fidelity(c_ab) + v*(3 - 3v + v**2)/4.
    Coincides with the optimal fidelity at v = 0 and collapses to 1/4 at
    v = 1 (a fully depolarized state tested with a trace-one effect).
    """
    k3, q = _depolarizing_factors(_check_unit("v", v))[:2]
    return k3 * quantum_optimal_fidelity(c_ab) + q


def observed_confusability(v: float, c_ab: float) -> float:
    """Noisy input-pair confusability at depolarizing level ``v``: (1-v)^2 c + v(1-v) + v^2/2."""
    factors = _depolarizing_factors(_check_unit("v", v))
    return _observed_overlaps(_check_unit("c_ab", c_ab), factors)[0]


def observed_target_confusability(v: float, c_ab: float) -> float:
    """Noisy target-pair confusability at depolarizing level ``v``: (1-v)^3 c^2 + v(3-3v+v^2)/4."""
    factors = _depolarizing_factors(_check_unit("v", v))
    return _observed_overlaps(_check_unit("c_ab", c_ab), factors)[1]
