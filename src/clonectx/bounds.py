"""Closed-form scalar bounds for state-dependent cloning, and the experiment's names and observables.

Everything in this module is a deterministic pure function of its inputs:
the optimal quantum cloning fidelity for a pair of pure states with a given
confusability, the maximum fidelity any preparation-noncontextual model can
reach (ideal, noise-robust, and the stronger symmetric variant), the
noncontextual state-discrimination ceiling, the error budgets induced
by a depolarizing channel acting on every stage of the experiment, and the
confusabilities that channel leaves observable.  The names of the
experiment's preparations, tests and mixing equivalences live here too,
with the observables measured from them (overlaps, error allowances, global
fidelity, mixing residuals), so that :mod:`clonectx.quantum` and
:mod:`clonectx.ontic` share one spelling and one formula.  The sweep mode
tables ``ERR_MODES`` and ``C_MODES`` with their defaults, which
:mod:`clonectx.scan` computes with and the CLI offers, live here too, as do
the figure-data file formats ``CURVE_FORMATS``.

Every closed form computes on Python floats with :mod:`math` alone and
returns a ``float``, or a dict of them keyed by name: the error budget by
test (:func:`depolarizing_epsilons`, as :func:`measured_epsilons`), the
overlaps ``c_ab c_ba c_aabb c_bbaa`` (:func:`observed_overlaps`, as
:func:`measured_overlaps`) and the error terms (:func:`err_terms`).  The
noise-robust ceilings take the overlaps and the error budget in those two
shapes, so a model's measurements feed them as they are, and return their
ceiling raw, above 1 for a generous budget.  Importing this module does not
load numpy.  Every validated probability goes through :func:`_check_unit`,
which rejects NaN, ±inf and anything outside [0, 1] with a ``ValueError``
naming the value (a ceiling names each dict value by its key, ``eps_``
prefixed for an allowance), and every residual that is the worst of
several terms goes through :func:`_worst`, which keeps a NaN.  This module
holds no records; those of the other modules that check their fields
subclass :class:`_Checked`, which puts every construction through the check.

Conventions: ``c_ab`` is the confusability of the two input preparations
(squared overlap in the ideal quantum realisation), ``c_aabb`` the
confusability of the two ideal two-copy targets (``c_ba`` and ``c_bbaa``
the same pairs the other way round), and eps_s, keyed ``s`` in a budget, the
worst-case deviation of test ``s`` from perfect correlation.
"""

from __future__ import annotations

import math

STATE_NAMES = (
    "a", "b", "a_perp", "b_perp",
    "alpha", "beta", "alpha_perp", "beta_perp",
    "aa", "bb", "aa_perp", "bb_perp",
)
TEST_NAMES = ("a", "b", "alpha", "beta", "aa", "bb")
EQUIVALENCE_PAIRS = (("a", "b"), ("alpha", "aa"), ("beta", "bb"))


def measured_overlaps(p) -> dict[str, float]:
    """The confusabilities the noise-robust ceilings read: of the inputs both ways and of the two-copy targets."""
    return {"c_ab": p("a", "b"), "c_ba": p("b", "a"), "c_aabb": p("aa", "bb"), "c_bbaa": p("bb", "aa")}


def measured_epsilons(p) -> dict[str, float]:
    """Each test's allowance eps_s, the worse of the shortfall |1 - p(s, s)| (a p(s, s) rounded past 1 counts too)
    and the leak p(s_perp, s), where ``p(s, t)``, here and below, is the probability that ``s`` passes test ``t``."""
    return {s: _worst((abs(1.0 - p(s, s)), p(f"{s}_perp", s))) for s in TEST_NAMES}


def global_fidelity(p) -> float:
    """F_g = p(alpha, aa)/2 + p(beta, bb)/2: the clone outputs' average pass probability of the two-copy tests."""
    return 0.5 * p("alpha", "aa") + 0.5 * p("beta", "bb")


def mixing_residuals(entries, pairs) -> dict[str, float]:
    """Per pair s~s2, the worst |(x + x_perp)/2 - (y + y_perp)/2| over the four preparations' ``entries``."""
    residuals = {}
    for s, s2 in pairs:
        cells = zip(entries[s], entries[f"{s}_perp"], entries[s2], entries[f"{s2}_perp"], strict=True)
        residuals[f"{s}~{s2}"] = _worst(abs(0.5 * (x + x_perp) - 0.5 * (y + y_perp)) for x, x_perp, y, y_perp in cells)
    return residuals


def _check_unit(name: str, x) -> float:
    """A probability in [0, 1] as a Python float; NaN, ±inf and anything outside fail."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x + 0.0  # -0.0 as +0.0; every other float unchanged


def _unit_values(values: dict, prefix: str = "") -> dict[str, float]:
    """``values`` with each value checked and normalised by :func:`_check_unit`, named ``prefix`` + its key."""
    return {k: _check_unit(prefix + k, x) for k, x in values.items()}


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


def _worst(terms) -> float:
    """The largest of ``terms``, as ``max`` picks it, or NaN if any term is NaN.

    The builtin keeps an earlier number over a later NaN (``max(0.0, nan)`` is
    0.0), so a residual taken with it could pass a check that should fail.
    """
    terms = tuple(terms)
    return math.nan if any(map(math.isnan, terms)) else max(terms)


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


def _budget_err(eps: dict) -> float:
    """Error term (eps_b + 2*eps_bb + eps_aa)/2 of the noise-robust ceiling."""
    return 0.5 * (eps["b"] + 2.0 * eps["bb"] + eps["aa"])


def nc_bound_noisy(overlaps: dict, eps: dict) -> float:
    """Noise-robust noncontextual ceiling, from :func:`measured_overlaps` and :func:`measured_epsilons`.

    Adds (eps_b + 2*eps_bb + eps_aa)/2 to the ideal bound; reduces to it
    exactly for a zero budget.  Unclamped: a generous budget gives a raw
    value above 1 (a vacuous ceiling), so monotonicity in the budget stays
    visible.  Every value of both dicts is checked by :func:`_check_unit`.
    """
    ov, eb = _unit_values(overlaps), _unit_values(eps, "eps_")
    return nc_bound(ov["c_ab"], ov["c_aabb"], _budget_err(eb))


def nc_bound_noisy_symmetric(overlaps: dict, eps: dict) -> float:
    """Stronger, exchange-symmetric form of the noise-robust ceiling, on the inputs of :func:`nc_bound_noisy`.

    1 + min(eps_b - c_ab, eps_a - c_ba)/2
      + min(c_aabb + eps_bb, c_bbaa + eps_aa)/2
      + (eps_aa + eps_bb)/2

    Never exceeds :func:`nc_bound_noisy` on the same inputs; unclamped and checked as it is.
    """
    ov, eb = _unit_values(overlaps), _unit_values(eps, "eps_")
    term_in = min(eb["b"] - ov["c_ab"], eb["a"] - ov["c_ba"])
    term_out = min(ov["c_aabb"] + eb["bb"], ov["c_bbaa"] + eb["aa"])
    return 1.0 + 0.5 * term_in + 0.5 * term_out + 0.5 * (eb["aa"] + eb["bb"])


def nc_discrimination_bound(c_ab: float) -> float:
    """Noncontextual ceiling 1 - c_ab/2 on the success probability of distinguishing the inputs."""
    return 1.0 - 0.5 * _check_unit("c_ab", c_ab)


def depolarizing_epsilons(v: float) -> dict[str, float]:
    """Error budget induced by depolarizing every stage at noise level ``v``, keyed as :func:`measured_epsilons`.

    Single-copy tests degrade as v - v**2/2 (state and effect each pick up
    one factor of noise); two-copy and clone-output tests degrade as
    (3/4) * v * (3 - 3v + v**2) (the preparation passes the channel twice,
    the effect once).
    """
    v = _check_unit("v", v)
    eps_single = v - 0.5 * v * v
    eps_double = 0.75 * v * (3.0 - 3.0 * v + v * v)
    return {"a": eps_single, "b": eps_single, "alpha": eps_double, "beta": eps_double, "aa": eps_double,
            "bb": eps_double}


def _depolarizing_factors(v: float) -> tuple[float, float, float, float, float]:
    """The v-only factors of the depolarized closed forms, for a checked ``v``.

    (1-v)**3, v*(3 - 3v + v**2)/4, (1-v)**2, v*(1-v) and v**2/2: the weights
    of the noiseless value and of the noise in :func:`quantum_noisy_fidelity`
    and in :func:`observed_overlaps`.
    """
    one_mv = 1.0 - v
    return one_mv**3, 0.25 * v * (3.0 - 3.0 * v + v * v), one_mv**2, v * one_mv, 0.5 * v * v


def _observed_overlaps(c: float, factors: tuple) -> tuple[float, float]:
    """Observed (c_ab, c_aabb) at a checked ``c``, given the noise level's :func:`_depolarizing_factors`."""
    k3, q, k2, b, h = factors
    return k2 * c + b + h, k3 * c * c + q


# Error term of the noisy ceiling under each published variant (``err_mode``),
# as a function of the depolarizing level v.
ERR_MODES = {
    "thm2-direct": lambda v: _budget_err(depolarizing_epsilons(v)),
    "appendix-err": lambda v: 0.5 * v * (31.0 - 29.0 * v + 9.0 * v * v),
    "err-prime": lambda v: 0.125 * v * (31.0 - 21.0 * v + 9.0 * v * v),
}

# The depolarizing factors that feed the ceiling's confusabilities (c_ab, c_aabb)
# through _observed_overlaps under each ``c_mode``, as a function of the noise
# level v.  The noiseless factors give (1.0*c + 0.0 + 0.0, 1.0*c*c + 0.0), which
# is (c, c*c) exactly for c >= 0: the ideal overlaps.
C_MODES = {
    "ideal-overlap": lambda v: (1.0, 0.0, 1.0, 0.0, 0.0),
    "observed-confusability": _depolarizing_factors,
}

# The modes a sweep runs under when none is given; the CLI's defaults too.
DEFAULT_ERR_MODE = "thm2-direct"
DEFAULT_C_MODE = "observed-confusability"

# The file formats of the figure data: what scan.write_curves writes and curves --format offers.
CURVE_FORMATS = ("csv", "json")


def err_terms(v: float) -> dict[str, float]:
    """Every published form of the depolarizing error term at noise level ``v``, side by side.

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
    v = _check_unit("v", v)
    err_prime = ERR_MODES["err-prime"](v)
    return {"err_thm2": ERR_MODES["thm2-direct"](v), "err_appendix": ERR_MODES["appendix-err"](v),
            "err_prime": err_prime, "eps_effective": 0.5 * err_prime}


def quantum_noisy_fidelity(v: float, c_ab: float) -> float:
    """Global fidelity of the noiseless-optimal cloner run at depolarizing level ``v``.

    (1-v)**3 * quantum_optimal_fidelity(c_ab) + v*(3 - 3v + v**2)/4.
    Coincides with the optimal fidelity at v = 0 and collapses to 1/4 at
    v = 1 (a fully depolarized state tested with a trace-one effect).
    """
    k3, q = _depolarizing_factors(_check_unit("v", v))[:2]
    return k3 * quantum_optimal_fidelity(c_ab) + q


def observed_overlaps(v: float, c_ab: float) -> dict[str, float]:
    """:func:`measured_overlaps` of the experiment depolarized at level ``v``, whose symmetry gives each pair one value:
    (1-v)^2 c + v(1-v) + v^2/2 for the inputs, (1-v)^3 c^2 + v(3-3v+v^2)/4 for the two-copy targets.
    At v = 0 they are c and c*c bit for bit."""
    factors = _depolarizing_factors(_check_unit("v", v))
    c_in, c_out = _observed_overlaps(_check_unit("c_ab", c_ab), factors)
    return {"c_ab": c_in, "c_ba": c_in, "c_aabb": c_out, "c_bbaa": c_out}
