"""Closed-form bound tests.

Golden values are frozen from an independent 60-digit mpmath evaluation of
the same formulas (see the inline constants); everything else is either an
exact identity or a grid/property check.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonectx import bounds
from clonectx.bounds import TEST_NAMES, observed_overlaps

# mpmath, 60 significant digits, rounded to 20:
F_OPT_025 = 0.98176274578121056808
F_OPT_05 = 0.98296291314453414337
F_NOISY_0015_05 = 0.95047185826957080467
ERR_THM2_0015 = 0.057313171875
ERR_APPENDIX_0015 = 0.2292526875
ERR_PRIME_0015 = 0.057538171875
EPS_EFFECTIVE_0015 = 0.0287690859375


def test_frozen_goldens_match_high_precision_oracle():
    """Recompute the frozen constants with 60-digit arithmetic."""
    from mpmath import mp, mpf, sqrt

    mp.dps = 60

    def f_opt(c):
        c = mpf(c)
        return (sqrt((1 + c) * (1 + sqrt(c))) + sqrt((1 - c) * (1 - sqrt(c)))) ** 2 / 4

    # The frozen doubles must be the correctly-rounded values: within one
    # ulp (2.3e-16 at magnitude 1) of the 60-digit evaluation.
    ulp = 2.3e-16
    v = mpf("0.015")
    assert abs(f_opt("0.25") - F_OPT_025) < ulp
    assert abs(f_opt("0.5") - F_OPT_05) < ulp
    assert abs((1 - v) ** 3 * f_opt("0.5") + v * (3 - 3 * v + v**2) / 4 - F_NOISY_0015_05) < ulp
    eps_b = v - v**2 / 2
    eps_xx = mpf(3) / 4 * v * (3 - 3 * v + v**2)
    assert abs((eps_b + 3 * eps_xx) / 2 - ERR_THM2_0015) < ulp
    assert abs(v * (31 - 29 * v + 9 * v**2) / 2 - ERR_APPENDIX_0015) < ulp
    assert abs(v * (31 - 21 * v + 9 * v**2) / 8 - ERR_PRIME_0015) < ulp
    assert abs(v * (31 - 21 * v + 9 * v**2) / 16 - EPS_EFFECTIVE_0015) < ulp


class TestQuantumOptimalFidelity:
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_endpoints_clone_perfectly(self, c):
        assert bounds.quantum_optimal_fidelity(c) == pytest.approx(1.0, abs=1e-12)

    def test_golden_quarter(self):
        assert bounds.quantum_optimal_fidelity(0.25) == pytest.approx(F_OPT_025, abs=1e-12)

    def test_golden_half(self):
        assert bounds.quantum_optimal_fidelity(0.5) == pytest.approx(F_OPT_05, abs=1e-12)

    def test_range_and_continuity(self):
        cs = np.linspace(0.0, 1.0, 5001)
        vals = np.array([bounds.quantum_optimal_fidelity(c) for c in cs])
        assert np.all(vals >= 0.5) and np.all(vals <= 1.0 + 1e-12)
        # No jumps on a fine grid: steps shrink with the grid spacing.
        assert np.max(np.abs(np.diff(vals))) < 5e-3

    @pytest.mark.parametrize("c", [-0.1, 1.1, float("nan")])
    def test_domain_error(self, c):
        with pytest.raises(ValueError):
            bounds.quantum_optimal_fidelity(c)


class TestNcBoundIdeal:
    @pytest.mark.parametrize("c, caabb, expected", [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.25, 0.875)])
    def test_values(self, c, caabb, expected):
        assert bounds.nc_bound_ideal(c, caabb) == pytest.approx(expected, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bounds.nc_bound_ideal(0.5, 1.5)

    def test_quantum_strictly_beats_noncontextual_inside(self):
        cs = np.linspace(0.0, 1.0, 1000)
        for c in cs[1:-1]:
            assert bounds.quantum_optimal_fidelity(c) > bounds.nc_bound_ideal(c, c * c)


def uniform(eps):
    """An error budget that allows ``eps`` for every test."""
    return dict.fromkeys(TEST_NAMES, eps)


class TestNoisyBounds:
    def test_zero_budget_reduces_to_ideal_exactly(self):
        for c in np.linspace(0.0, 1.0, 21):
            got = bounds.nc_bound_noisy(observed_overlaps(0.0, c), uniform(0.0))
            assert got == bounds.nc_bound_ideal(c, c * c)
            assert got <= 1.0

    def test_uniform_budget_adds_two_epsilon(self):
        got = bounds.nc_bound_noisy(observed_overlaps(0.0, 0.5), uniform(0.01))
        assert got == pytest.approx(0.895, abs=1e-15)

    # Every entry differs, so a weight moved from one epsilon to another changes the error term.
    DISTINCT = {"a": 0.011, "b": 0.013, "alpha": 0.017, "beta": 0.019, "aa": 0.023, "bb": 0.029}

    def test_error_term_weighs_each_epsilon(self):
        ov = {"c_ab": 0.4, "c_ba": 0.5, "c_aabb": 0.16, "c_bbaa": 0.25}
        eb = self.DISTINCT
        err = bounds.nc_bound_noisy(ov, eb) - bounds.nc_bound_ideal(ov["c_ab"], ov["c_aabb"])
        assert err == pytest.approx((eb["b"] + 2.0 * eb["bb"] + eb["aa"]) / 2.0, rel=0, abs=1e-15)
        assert err == pytest.approx(0.047, rel=0, abs=1e-15)

    @pytest.mark.parametrize("field", ["eps_a", "eps_alpha", "eps_beta"])
    def test_error_term_ignores_the_other_epsilons(self, field):
        ov = observed_overlaps(0.0, 0.37)
        moved = {**self.DISTINCT, field.removeprefix("eps_"): 0.5}
        assert bounds.nc_bound_noisy(ov, moved) == bounds.nc_bound_noisy(ov, self.DISTINCT)

    def test_clamped_flag_keeps_raw_value(self):
        # A vacuous ceiling comes back raw, above 1; the bounds report flags it.
        got = bounds.nc_bound_noisy(observed_overlaps(0.0, 0.0), uniform(0.9))
        assert type(got) is float and got > 1.0

    def test_symmetric_variant_case_split(self):
        # Asymmetric inputs exercising both min branches, evaluated by hand:
        # min(0.02-0.4, 0.02-0.5) = -0.48, min(0.16+0.02, 0.25+0.02) = 0.18.
        ov = {"c_ab": 0.4, "c_ba": 0.5, "c_aabb": 0.16, "c_bbaa": 0.25}
        got = bounds.nc_bound_noisy_symmetric(ov, uniform(0.02))
        assert got == pytest.approx(1.0 - 0.24 + 0.09 + 0.02, abs=1e-15)
        # Swapped asymmetry flips the chosen branches.
        ov2 = {"c_ab": 0.5, "c_ba": 0.4, "c_aabb": 0.25, "c_bbaa": 0.16}
        got2 = bounds.nc_bound_noisy_symmetric(ov2, uniform(0.02))
        assert got2 == pytest.approx(got, abs=1e-15)

    def test_symmetric_variant_zero_budget(self):
        for c in (0.0, 0.3, 1.0):
            got = bounds.nc_bound_noisy_symmetric(observed_overlaps(0.0, c), uniform(0.0))
            assert got == pytest.approx(bounds.nc_bound_ideal(c, c * c), abs=1e-15)

    def test_symmetric_never_exceeds_plain_bound(self):
        rng = np.random.default_rng(20260810)
        for _ in range(500):
            ov = dict(zip(("c_ab", "c_ba", "c_aabb", "c_bbaa"), rng.random(4)))
            eb = dict(zip(TEST_NAMES, rng.random(6)))
            strong = bounds.nc_bound_noisy_symmetric(ov, eb)
            plain = bounds.nc_bound_noisy(ov, eb)
            assert strong <= plain + 1e-12

    def test_boundary_overlap_meets_noisy_quantum_value(self):
        # At the edge of the published violation window the uniform
        # effective-epsilon ceiling and the noisy quantum fidelity cross.
        eps = bounds.err_terms(0.015)["eps_effective"]
        ceiling = bounds.nc_bound_noisy(observed_overlaps(0.0, 0.318), uniform(eps))
        assert ceiling == pytest.approx(bounds.quantum_noisy_fidelity(0.015, 0.318), abs=0.05)


class TestDiscriminationBound:
    @pytest.mark.parametrize("c, expected", [(1.0, 0.5), (0.0, 1.0), (0.5, 0.75)])
    def test_values(self, c, expected):
        assert bounds.nc_discrimination_bound(c) == pytest.approx(expected, abs=1e-15)


class TestDepolarizingEpsilons:
    def test_zero_noise(self):
        eb = bounds.depolarizing_epsilons(0.0)
        assert list(eb) == list(TEST_NAMES)
        assert all(x == 0.0 for x in eb.values())

    def test_published_level(self):
        eb = bounds.depolarizing_epsilons(0.015)
        assert eb["a"] == pytest.approx(0.0148875, abs=1e-15)
        assert eb["b"] == eb["a"]
        assert eb["aa"] == pytest.approx(0.03324628125, abs=1e-15)
        assert eb["alpha"] == eb["beta"] == eb["aa"] == eb["bb"]

    def test_correlation_quality_parameters(self):
        # C_s = (p(pass|match) + p(pass-perp|match-perp))/2 = 1 - eps_s here.
        eb = bounds.depolarizing_epsilons(0.015)
        assert 1.0 - eb["a"] == pytest.approx(0.9851, abs=1e-4)
        assert 1.0 - eb["aa"] == pytest.approx(0.9667, abs=1e-4)

    def test_componentwise_monotone_in_v(self):
        vs = np.linspace(0.0, 1.0, 101)
        budgets = [bounds.depolarizing_epsilons(v) for v in vs]
        for name in ("a", "aa"):
            vals = [eb[name] for eb in budgets]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bounds.depolarizing_epsilons(1.5)


class TestErrTerms:
    def test_zero(self):
        terms = bounds.err_terms(0.0)
        assert terms == {"err_thm2": 0, "err_appendix": 0, "err_prime": 0, "eps_effective": 0}
        assert list(terms) == ["err_thm2", "err_appendix", "err_prime", "eps_effective"]

    def test_published_level(self):
        terms = bounds.err_terms(0.015)
        assert terms["err_thm2"] == pytest.approx(ERR_THM2_0015, abs=1e-15)
        assert terms["err_appendix"] == pytest.approx(ERR_APPENDIX_0015, abs=1e-15)
        assert terms["err_prime"] == pytest.approx(ERR_PRIME_0015, abs=1e-15)
        assert terms["eps_effective"] == pytest.approx(EPS_EFFECTIVE_0015, abs=1e-15)

    def test_variants_disagree_and_stay_recorded(self):
        # The two published polynomial forms differ in the v^2 coefficient;
        # the discrepancy is real and must not be reconciled away.
        for v in (0.015, 0.1, 0.3):
            terms = bounds.err_terms(v)
            assert terms["err_prime"] != pytest.approx(terms["err_thm2"], abs=1e-9)
            assert terms["err_appendix"] == pytest.approx(4.0 * terms["err_thm2"], abs=1e-12)
            assert terms["err_prime"] == pytest.approx(2.0 * terms["eps_effective"], abs=1e-15)


class TestQuantumNoisyFidelity:
    def test_noiseless_limit(self):
        for c in (0.0, 0.3, 0.7, 1.0):
            assert bounds.quantum_noisy_fidelity(0.0, c) == bounds.quantum_optimal_fidelity(c)

    def test_fully_depolarized(self):
        for c in (0.0, 0.5, 1.0):
            assert bounds.quantum_noisy_fidelity(1.0, c) == pytest.approx(0.25, abs=1e-15)

    def test_golden_value(self):
        assert bounds.quantum_noisy_fidelity(0.015, 0.5) == pytest.approx(F_NOISY_0015_05, abs=1e-12)


CEILINGS = pytest.mark.parametrize("ceiling", [bounds.nc_bound_noisy, bounds.nc_bound_noisy_symmetric],
                                    ids=lambda f: f.__name__)


class TestValueTypes:
    def test_noiseless_overlaps_square_the_copy_overlap(self):
        ov = observed_overlaps(0.0, 0.3)
        assert list(ov) == ["c_ab", "c_ba", "c_aabb", "c_bbaa"]
        assert ov["c_ab"] == ov["c_ba"] == 0.3
        assert ov["c_aabb"] == ov["c_bbaa"] == pytest.approx(0.09, abs=1e-15)

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            bounds.nc_bound_noisy({"c_ab": 0.5, "c_ba": 0.5, "c_aabb": -0.1, "c_bbaa": 0.25}, uniform(0.0))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            bounds.nc_bound_noisy_symmetric(observed_overlaps(0.0, 0.5), uniform(math.inf))

    def test_measured_overlaps_of_the_ideal_experiment_are_the_ideal_overlaps(self):
        # p(s, t) of the ideal experiment: c between the inputs, c**2 between the two-copy targets.
        overlap = {frozenset(("a", "b")): 0.3, frozenset(("aa", "bb")): 0.3 * 0.3}
        assert bounds.measured_overlaps(lambda s, t: overlap[frozenset((s, t))]) == observed_overlaps(0.0, 0.3)

    @CEILINGS
    @pytest.mark.parametrize("key", ["c_ab", "c_ba", "c_aabb", "c_bbaa", *(f"eps_{s}" for s in TEST_NAMES)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_a_bad_value_raises_naming_its_key(self, ceiling, key, bad):
        ov, eb = observed_overlaps(0.0, 0.3), uniform(0.1)
        if key in ov:
            ov[key] = bad
        else:
            eb[key.removeprefix("eps_")] = bad
        with pytest.raises(ValueError, match=rf"^{key} must lie in \[0, 1\], got "):
            ceiling(ov, eb)

    @pytest.mark.parametrize("c", [np.float64(0.5), 1, -0.0, np.float32(0.25), 0, np.float64(-0.0)], ids=repr)
    def test_noiseless_overlaps_come_back_as_positive_floats(self, c):
        # A numpy scalar would print as np.float64(...), and -0.0 as "-0.0", in any report that echoes it.
        ov = observed_overlaps(0.0, c)
        assert [type(x) for x in ov.values()] == [float] * 4
        assert ov["c_ab"] == float(c) and all(math.copysign(1.0, x) == 1.0 for x in ov.values())

    @pytest.mark.parametrize("v, c, name", [(math.nan, math.nan, "v"), (1.5, -0.1, "v"), (0.5, 1.5, "c_ab")],
                             ids=["both-nan", "both-out", "c-only"])
    def test_observed_overlaps_check_v_before_c_ab(self, v, c, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got "):
            observed_overlaps(v, c)

    @settings(derandomize=True, database=None)
    @given(c=st.floats(0.0, 1.0))
    @example(c=0.0)
    @example(c=-0.0)
    @example(c=5e-324)
    @example(c=1.0 - 2.0**-53)
    @example(c=1.0)
    def test_noiseless_overlaps_are_the_ideal_ones_bit_for_bit(self, c):
        # The bounds report's noisy ceilings read these as the ideal experiment's (c, c*c).
        c += 0.0
        ov = observed_overlaps(0.0, c)
        assert [type(x) for x in ov.values()] == [float] * 4
        assert [x.hex() for x in ov.values()] == [c.hex(), c.hex(), (c * c).hex(), (c * c).hex()]

    @CEILINGS
    def test_ceilings_read_numpy_scalars_and_negative_zero_as_floats(self, ceiling):
        given = (np.float64(0.5), 1, -0.0, np.float32(0.25), 0, np.float64(-0.0))
        ov, eb = dict(zip(("c_ab", "c_ba", "c_aabb", "c_bbaa"), given)), dict(zip(TEST_NAMES, given))
        got = ceiling(ov, eb)
        assert type(got) is float
        assert got == ceiling({k: float(x) for k, x in ov.items()}, {s: float(x) for s, x in eb.items()})


# Every public closed form, as a function of one probability x (the others held
# valid): each must return a Python float and reject a bad x with a ValueError.
SCALAR_FORMS = {
    "quantum_optimal_fidelity": lambda x: bounds.quantum_optimal_fidelity(x),
    "nc_bound_ideal[c_ab]": lambda x: bounds.nc_bound_ideal(x, 0.25),
    "nc_bound_ideal[c_aabb]": lambda x: bounds.nc_bound_ideal(0.5, x),
    "nc_discrimination_bound[c_ab]": lambda x: bounds.nc_discrimination_bound(x),
    "quantum_noisy_fidelity[v]": lambda x: bounds.quantum_noisy_fidelity(x, 0.5),
    "quantum_noisy_fidelity[c_ab]": lambda x: bounds.quantum_noisy_fidelity(0.015, x),
    "observed_overlaps[v].c_ab": lambda x: observed_overlaps(x, 0.5)["c_ab"],
    "observed_overlaps[v].c_aabb": lambda x: observed_overlaps(x, 0.5)["c_aabb"],
    "observed_overlaps[c_ab].c_ab": lambda x: observed_overlaps(0.015, x)["c_ab"],
    "observed_overlaps[c_ab].c_aabb": lambda x: observed_overlaps(0.015, x)["c_aabb"],
    "depolarizing_epsilons": lambda x: bounds.depolarizing_epsilons(x)["aa"],
    "err_terms": lambda x: bounds.err_terms(x)["err_prime"],
    "nc_bound_noisy": lambda x: bounds.nc_bound_noisy(observed_overlaps(0.0, x), uniform(0.01)),
    "nc_bound_noisy_symmetric": lambda x: bounds.nc_bound_noisy_symmetric(observed_overlaps(0.0, 0.5), uniform(x)),
}


class TestScalarContract:
    def test_scalar_validation_returns_a_python_float(self):
        # A numpy scalar would print as np.float64(...) through repr() in the CSV writers.
        got = bounds._check_unit("c", np.float64(0.25))
        assert type(got) is float and got == 0.25

    def test_negative_zero_comes_back_positive(self):
        # -0.0 passes 0 <= x, but would print as "-0.0" in every report that echoes it.
        assert math.copysign(1.0, bounds._check_unit("v", -0.0)) == 1.0

    @pytest.mark.parametrize("name", list(SCALAR_FORMS))
    def test_returns_a_python_float(self, name):
        for x in (0.0, 0.25, np.float64(0.5), 1):
            assert type(SCALAR_FORMS[name](x)) is float, x

    def test_unvalidated_forms_return_python_floats(self):
        # nc_bound and the error terms take values their callers have already validated.
        assert type(bounds.nc_bound(0.5, 0.25, 0.1)) is float
        for err in bounds.ERR_MODES.values():
            assert type(err(0.25)) is float

    @pytest.mark.parametrize("name", list(SCALAR_FORMS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5, -1e-300])
    def test_rejects_a_bad_probability(self, name, bad):
        with pytest.raises(ValueError, match="must lie in"):
            SCALAR_FORMS[name](bad)


# p(s, t) of a hand-made experiment, in dyadic rationals so that every observable is exact.
# Only the probabilities an observable reads are present: reading any other raises KeyError.
PASS = {
    ("a", "a"): 0.875, ("a_perp", "a"): 0.0625,  # the shortfall is the worse term
    ("b", "b"): 1.0, ("b_perp", "b"): 0.25,  # the leak is
    ("alpha", "alpha"): 0.5, ("alpha_perp", "alpha"): 0.0,
    ("beta", "beta"): 0.75, ("beta_perp", "beta"): 0.25,  # a tie
    ("aa", "aa"): 0.96875, ("aa_perp", "aa"): 0.0,
    ("bb", "bb"): 1.0, ("bb_perp", "bb"): 0.0,
    ("alpha", "aa"): 0.75, ("beta", "bb"): 0.5,
}
ENTRIES = {
    "a": (1.0, 0.0), "a_perp": (0.0, 1.0), "b": (0.5, 0.5), "b_perp": (0.5, 0.5),
    "x": (1.0, 0.5), "x_perp": (0.0, 0.0), "y": (0.25, 0.25), "y_perp": (0.25, 0.25),
    "z": (1 + 1j,), "z_perp": (1 - 1j,), "w": (0j,), "w_perp": (0j,),
}


class TestObservables:
    """The observables both models are measured by, on a hand-made p(s, t) and hand-made entries."""

    def test_measured_epsilons(self):
        eps = bounds.measured_epsilons(lambda s, t: PASS[s, t])
        assert eps == {"a": 0.125, "b": 0.25, "alpha": 0.5, "beta": 0.25, "aa": 0.03125, "bb": 0.0}
        assert list(eps) == list(bounds.TEST_NAMES)

    def test_a_nan_leak_is_a_nan_epsilon(self):
        # The leak is the later of an epsilon's two terms; the shortfall of bb is 0.
        eps = bounds.measured_epsilons(lambda s, t: math.nan if (s, t) == ("bb_perp", "bb") else PASS[s, t])
        assert math.isnan(eps.pop("bb"))
        assert eps == {"a": 0.125, "b": 0.25, "alpha": 0.5, "beta": 0.25, "aa": 0.03125}

    def test_global_fidelity(self):
        assert bounds.global_fidelity(lambda s, t: PASS[s, t]) == 0.625
        assert math.isnan(bounds.global_fidelity(lambda s, t: math.nan if s == "beta" else PASS[s, t]))

    def test_mixing_residuals(self):
        residuals = bounds.mixing_residuals(ENTRIES, [("a", "b"), ("x", "y"), ("z", "w")])
        assert residuals == {"a~b": 0.0, "x~y": 0.25, "z~w": 1.0}

    @pytest.mark.parametrize("entry", [0, 1], ids=["first-entry", "later-entry"])
    def test_a_nan_in_a_later_pair_is_a_nan_residual(self, entry):
        y_perp = tuple(math.nan if i == entry else x for i, x in enumerate(ENTRIES["y_perp"]))
        residuals = bounds.mixing_residuals({**ENTRIES, "y_perp": y_perp}, [("a", "b"), ("x", "y")])
        assert residuals["a~b"] == 0.0 and math.isnan(residuals["x~y"])

    def test_entries_of_different_lengths_raise(self):
        with pytest.raises(ValueError):
            bounds.mixing_residuals({**ENTRIES, "b_perp": (0.5, 0.5, 0.0)}, [("a", "b")])

    def test_both_models_keep_the_float_order_of_the_written_out_formulas(self):
        # Bit-equal, not approximate: each model's observables are these sums and differences, in this order.
        from clonectx import ontic, quantum
        from clonectx.ontic import confusability
        from clonectx.quantum import born

        ens = quantum.noisy_ensemble(0.015, 0.5)
        states, tests = ens.states, ens.tests
        p = ens.pass_probability
        assert bounds.measured_epsilons(p) == {
            s: max(1.0 - born(states[s], tests[s]), born(states[f"{s}_perp"], tests[s])) for s in bounds.TEST_NAMES
        }
        assert bounds.global_fidelity(p) == (0.5 * born(states["alpha"], tests["aa"])
                                             + 0.5 * born(states["beta"], tests["bb"]))

        model = ontic.mix_with_uniform(ontic.build_saturating_model(0.37), 0.1)
        states, responses = model.states, model.responses
        p = model.pass_probability
        assert bounds.global_fidelity(p) == (0.5 * confusability(states["alpha"], responses["aa"])
                                             + 0.5 * confusability(states["beta"], responses["bb"]))
        assert bounds.measured_epsilons(p) == {
            s: max(abs(1.0 - confusability(states[s], responses[s])), confusability(states[f"{s}_perp"], responses[s]))
            for s in bounds.TEST_NAMES
        }
