"""Ontological-model engine tests.

Every quantity of the bound-saturating model is expected at machine
precision: its supports are unions of cells of its partition, so at any
overlap each one equals its closed form to rounding.  Randomized property
checks use a fixed seed throughout.  numpy serves here only as a reference
route and as a source of random inputs; ``ontic`` computes on floats.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonectx import bounds, ontic
from clonectx.bounds import STATE_NAMES, TEST_NAMES, _worst, global_fidelity, measured_epsilons
from clonectx.ontic import (
    STRUCTURAL_TOL,
    EpistemicState,
    OnticModel,
    ResponseFunction,
    StochasticMap,
    apply_map,
    build_saturating_model,
    confusability,
    dpi_margin,
    l1_distance,
    mix_with_uniform,
    sandwich_margins,
    sandwich_residuals,
)

SEED = 20260810


def random_state(rng, cells):
    mass = rng.random(cells) + 1e-3
    return EpistemicState(mass / mass.sum())


def random_response(rng, cells):
    return ResponseFunction(rng.random(cells))


def random_kernel(rng, sources, targets):
    k = rng.random((sources, targets)) + 1e-3
    k /= k.sum(axis=1, keepdims=True)
    return StochasticMap(k)


class TestStatesAndKernels:
    def test_state_rejects_negative_mass(self):
        mass = np.full(10, 0.1)
        mass[0] = -0.1
        with pytest.raises(ValueError, match="negative or NaN"):
            EpistemicState(mass)

    @pytest.mark.parametrize("mass", [np.full(10, 0.2), (), (0.5, 0.5 - 2e-9)], ids=["twice", "empty", "short"])
    def test_state_rejects_a_total_other_than_one(self, mass):
        with pytest.raises(ValueError, match="total mass deviates from 1"):
            EpistemicState(mass)

    def test_response_range(self):
        with pytest.raises(ValueError):
            ResponseFunction(np.full(10, 1.5))

    def test_kernel_row_sums_checked(self):
        with pytest.raises(ValueError):
            StochasticMap(np.full((4, 4), 0.3))

    @pytest.mark.parametrize("kernel", [(), [(1.0,), (0.5, 0.5)], [(0.5, 0.5), (1.0,)]],
                             ids=["no-rows", "longer-later-row", "shorter-later-row"])
    def test_kernel_has_rows_of_one_length(self, kernel):
        with pytest.raises(ValueError, match="at least one row, all of one length"):
            StochasticMap(kernel)

    def test_kernel_shape_is_its_sources_by_its_targets(self):
        assert StochasticMap(np.full((3, 5), 0.2)).shape == (3, 5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EpistemicState([math.nan, 0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="escape"):
            ResponseFunction([math.nan, 0.5, 0.5, 0.0])
        kernel = np.eye(4)
        kernel[1, 2] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            StochasticMap(kernel)


class TestDistanceAndConfusability:
    def test_distance_to_self_is_zero(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, 32)
        assert l1_distance(mu, mu) == 0.0

    def test_disjoint_supports_reach_two(self):
        mu = EpistemicState(np.r_[np.full(16, 1 / 16), np.zeros(16)])
        nu = EpistemicState(np.r_[np.zeros(16), np.full(16, 1 / 16)])
        assert l1_distance(mu, nu) == pytest.approx(2.0, abs=1e-12)

    def test_partition_mismatch_raises(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, 16)
        nu = random_state(rng, 32)
        with pytest.raises(ValueError):
            l1_distance(mu, nu)

    def test_confusability_of_trivial_tests(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, 32)
        always = ResponseFunction(np.ones(32))
        never = ResponseFunction(np.zeros(32))
        assert confusability(mu, always) == pytest.approx(1.0, abs=1e-12)
        assert confusability(mu, never) == 0.0

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            mu, nu, pi = (random_state(rng, 24) for _ in range(3))
            assert l1_distance(mu, pi) <= l1_distance(mu, nu) + l1_distance(nu, pi) + 1e-12


class TestValidationErrors:
    """Each argument the engine rejects, with the message of the check that rejects it."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda mu: l1_distance(mu, EpistemicState((0.5, 0.5, 0.0))), "l1_distance requires states on the same"),
            (lambda mu: confusability(mu, ResponseFunction((1.0,) * 5)), "requires state and response on the same"),
            (lambda mu: confusability(mu, ResponseFunction((1.0, 0.0))), "requires state and response on the same"),
            (lambda mu: apply_map(StochasticMap(np.eye(2)), mu), "kernel's source partition"),
        ],
        ids=["l1-lengths", "longer-response", "shorter-response", "apply-map-source"],
    )
    def test_mismatched_partitions(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(EpistemicState((0.25,) * 4))

    def test_model_missing_a_response(self):
        model = build_saturating_model(0.5)
        responses = {k: r for k, r in model.responses.items() if k != "bb"}
        with pytest.raises(ValueError, match=r"missing responses: \['bb'\]"):
            model._replace(responses=responses)

    @pytest.mark.parametrize("field, name", [("states", "a_perp"), ("responses", "a")])
    @pytest.mark.parametrize("route", ["constructor", "replace"])
    def test_a_part_off_both_partitions_of_the_clone_map(self, field, name, route):
        # At c = 0.37 the model has 4 input and 16 output cells; 8 cells make a valid state or
        # response, but on neither partition of the kernel.
        model = build_saturating_model(0.37)
        part = {"states": EpistemicState((0.125,) * 8), "responses": ResponseFunction((0.0,) * 8)}[field]
        moved = {**getattr(model, field), name: part}
        with pytest.raises(ValueError, match=f"{name} lies on neither partition of the clone map"):
            if route == "constructor":
                OnticModel(**{**model._asdict(), field: moved})
            else:
                model._replace(**{field: moved})

    @pytest.mark.parametrize(
        "moved, message",
        [
            # A partner on the kernel's other partition: a~b would compare 4 cells' masses with 16.
            ({"states": {"a_perp": "out"}}, "state a_perp does not lie on the partition of test a"),
            ({"responses": {"aa": "in"}}, "state aa does not lie on the partition of test aa"),
            # Each test with its own state and partner, but the two sides of a~b on different partitions.
            ({"states": {"b": "out", "b_perp": "out"}, "responses": {"b": "out"}},
             "state b does not lie on the partition of test a"),
        ],
        ids=["partner", "response", "pair"],
    )
    @pytest.mark.parametrize("route", ["constructor", "replace"])
    def test_a_state_off_the_partition_of_its_test(self, moved, message, route):
        model = build_saturating_model(0.5)
        cells = dict(zip(("in", "out"), model.clone_map.shape))
        make = {"states": lambda n: EpistemicState((1.0 / n,) * n), "responses": lambda n: ResponseFunction((0.0,) * n)}
        fields = {field: {**getattr(model, field), **{name: make[field](cells[g]) for name, g in parts.items()}}
                  for field, parts in moved.items()}
        with pytest.raises(ValueError, match=message):
            if route == "constructor":
                OnticModel(**{**model._asdict(), **fields})
            else:
                model._replace(**fields)

    @pytest.mark.parametrize("w", [-0.1, 1.5, math.nan])
    def test_mixing_weight_outside_the_unit_interval(self, w):
        with pytest.raises(ValueError, match="mixing weight must lie in"):
            mix_with_uniform(build_saturating_model(0.5), w)

    def test_sandwich_checks_measure_a_model_without_the_mixing_equivalences(self):
        # The partner of a squeezed onto [1, 1.5]: still disjoint from a, so O1 holds, but a ~ b mixes unevenly.
        # a and b are untouched, so both sandwich checks still measure their relations, which hold.
        model = build_saturating_model(0.5)
        squeezed = EpistemicState((0.0, 0.0, 1.0, 0.0))
        broken = model._replace(states={**model.states, "a_perp": squeezed})
        assert _worst(measured_epsilons(broken.pass_probability).values()) <= STRUCTURAL_TOL
        # Half the mass of one 0.5-wide cell: (1 - 0.5)/2.
        assert _worst(broken.equivalence_residuals().values()) == pytest.approx(0.25, rel=0, abs=1e-15)
        ideal = sandwich_residuals(broken, [("a", "b")])
        assert ideal == sandwich_residuals(model, [("a", "b")])
        assert ideal["a~b"] <= STRUCTURAL_TOL
        margins = sandwich_margins(broken, ("a", "b"), 0.0, 0.0)
        assert margins == sandwich_margins(model, ("a", "b"), 0.0, 0.0)
        assert abs(margins[0]) <= STRUCTURAL_TOL and abs(margins[1]) <= STRUCTURAL_TOL


class TestStochasticMaps:
    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, 16)
        ident = StochasticMap(np.eye(16))
        np.testing.assert_allclose(apply_map(ident, mu).mass, mu.mass, atol=1e-15)

    def test_pushforward_stays_normalized(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            out = apply_map(random_kernel(rng, 12, 64), random_state(rng, 12))
            assert sum(out.mass) == pytest.approx(1.0, abs=1e-9)

    def test_collapse_kernel_erases_distance(self):
        rng = np.random.default_rng(SEED)
        k = np.zeros((16, 16))
        k[:, 3] = 1.0
        collapse = StochasticMap(k)
        mu, nu = random_state(rng, 16), random_state(rng, 16)
        assert l1_distance(apply_map(collapse, mu), apply_map(collapse, nu)) == pytest.approx(0.0, abs=1e-12)

    def test_data_processing_inequality_random_cases(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            t = random_kernel(rng, 16, 20)
            mu, nu = random_state(rng, 16), random_state(rng, 16)
            assert dpi_margin(t, mu, nu) >= -STRUCTURAL_TOL

    def test_dpi_with_identity_is_equality(self):
        rng = np.random.default_rng(SEED)
        ident = StochasticMap(np.eye(16))
        mu, nu = random_state(rng, 16), random_state(rng, 16)
        assert l1_distance(apply_map(ident, mu), apply_map(ident, nu)) == pytest.approx(
            l1_distance(mu, nu), abs=1e-12
        )

    def test_dpi_margin_of_a_kernel_with_equal_rows_is_the_whole_distance(self):
        # Every row the same: both pushforwards are that row, so nothing of the distance survives.
        # Dyadic masses and kernel entries keep every sum exact.
        row = np.random.default_rng(SEED).permutation([0.5, 0.25, 0.125, 0.0625, 0.0625] + [0.0] * 11)
        same = StochasticMap([row] * 16)
        # Flat on [0, 1], and on [0.25, 0.5] and [1, 1.75], on 16 cells of width 1/8.
        mu = EpistemicState(np.r_[np.full(8, 0.125), np.zeros(8)])
        nu = EpistemicState(np.isin(np.arange(16), [2, 3, *range(8, 14)]) * 0.125)
        assert dpi_margin(same, mu, nu) == l1_distance(mu, nu) == 1.5


class TestSaturatingModel:
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_perfect_correlations(self, c):
        model = build_saturating_model(c)
        eps = measured_epsilons(model.pass_probability)
        assert _worst(eps.values()) <= STRUCTURAL_TOL, eps

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_mixing_equivalences(self, c):
        model = build_saturating_model(c)
        residuals = model.equivalence_residuals()
        assert _worst(residuals.values()) <= STRUCTURAL_TOL, residuals

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_fidelity_saturates_the_ceiling(self, c):
        model = build_saturating_model(c)
        target = bounds.nc_bound_ideal(c, c**2)
        assert global_fidelity(model.pass_probability) == pytest.approx(target, abs=1e-12)

    def test_half_overlap_by_hand(self):
        model = build_saturating_model(0.5)
        c_alpha_aa = confusability(model.states["alpha"], model.responses["aa"])
        assert c_alpha_aa == pytest.approx(0.75, abs=1e-12)
        assert confusability(model.states["beta"], model.responses["bb"]) == pytest.approx(1.0, abs=1e-12)
        assert global_fidelity(model.pass_probability) == pytest.approx(0.875, abs=1e-12)

    def test_input_mixtures_flatten_to_uniform(self):
        # Each input cell is 0.5 wide at c = 0.5, so the flat measure on [0, 2] puts 0.25 on it.
        model = build_saturating_model(0.5)
        total = 0.5 * (np.array(model.states["a"].mass) + model.states["a_perp"].mass)
        np.testing.assert_allclose(total, 0.25, rtol=0, atol=1e-12)

    def test_clone_of_b_is_the_product_measure(self):
        model = build_saturating_model(0.4)
        b = model.states["b"].mass
        product = np.outer(b, b).ravel()
        assert np.abs(model.states["beta"].mass - product).max() <= 1e-9

    def test_a_model_is_its_states_responses_and_kernel(self):
        model = mix_with_uniform(build_saturating_model(0.37), 0.5)
        assert OnticModel._fields == ("states", "responses", "clone_map")
        assert model.pairs is bounds.EQUIVALENCE_PAIRS
        with pytest.raises(AttributeError):
            model.pairs = (("a", "b"),)
        with pytest.raises(ValueError, match="unexpected field"):
            model._replace(pairs=(("a", "b"),))

    def test_maximal_overlap_of_inputs(self):
        model = build_saturating_model(0.5)
        mass_on_other_support = confusability(model.states["a"], model.responses["b"])
        assert mass_on_other_support == pytest.approx(0.5, abs=1e-12)

    def test_discrimination_ceiling_from_the_model_distance(self):
        # The best discrimination probability 1/2 + |mu_a - mu_b|/4 of the
        # saturating model meets the closed-form noncontextual ceiling.
        model = build_saturating_model(0.5)
        from_distance = 0.5 + 0.25 * l1_distance(model.states["a"], model.states["b"])
        assert from_distance == pytest.approx(bounds.nc_discrimination_bound(0.5), abs=1e-12)
        assert from_distance == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("c", [0.318, 1 / 3, 0.7071])
    def test_built_at_the_given_overlap(self, c):
        model = build_saturating_model(c)
        assert confusability(model.states["a"], model.responses["b"]) == pytest.approx(c, rel=0, abs=1e-15)

    @pytest.mark.parametrize("c", [-0.1, 1.5, math.nan, math.inf])
    def test_overlap_outside_the_unit_interval_rejected(self, c):
        with pytest.raises(ValueError, match="c_ab must lie in"):
            build_saturating_model(c)

    @pytest.mark.parametrize("c, cells", [(0.0, 2), (0.5, 4), (0.37, 4), (1.0, 2)])
    def test_partition_size_does_not_depend_on_any_resolution(self, c, cells):
        model = build_saturating_model(c)
        assert model.clone_map.shape == (cells, cells * cells)
        assert {len(state.mass) for state in model.states.values()} == {cells, cells * cells}
        assert len(model.clone_map.kernel) == cells
        assert all(len(row) == cells * cells for row in model.clone_map.kernel)

    @pytest.mark.parametrize("c, nbytes", [(0.0, 64), (0.37, 512), (1.0, 64)])
    def test_kernel_nbytes_counts_8_bytes_per_entry(self, c, nbytes):
        # The benchmark's memory pass reads clone_map.kernel.nbytes as the kernel's size.
        model = build_saturating_model(c)
        expected = 8 * math.prod(model.clone_map.shape)
        assert model.clone_map.kernel.nbytes == expected == nbytes

    def test_deliberate_o1_violation_is_flagged(self):
        model = build_saturating_model(0.5)
        broken_responses = dict(model.responses)
        broken_responses["a"] = ResponseFunction(np.ones(model.clone_map.shape[0]))
        broken = model._replace(responses=broken_responses)
        eps = measured_epsilons(broken.pass_probability)
        assert _worst(eps.values()) > STRUCTURAL_TOL
        assert eps["a"] == pytest.approx(1.0, abs=1e-12)

    def test_a_nan_leak_is_the_measured_epsilon(self, monkeypatch):
        # The leak is the later of the two terms of an epsilon; the shortfall of bb is 0.
        # bb is the last test, so the NaN is the last term of the worst epsilon too.
        model = build_saturating_model(0.5)
        last = model.states["bb_perp"]
        monkeypatch.setattr(ontic, "confusability", lambda mu, xi: math.nan if mu is last else confusability(mu, xi))
        eps = measured_epsilons(model.pass_probability)
        assert math.isnan(eps["bb"]) and math.isnan(_worst(eps.values()))
        assert all(eps[s] <= STRUCTURAL_TOL for s in TEST_NAMES if s != "bb"), eps

    def test_a_nan_in_a_later_cell_is_the_equivalence_residual(self):
        # Past EpistemicState's own check, which would reject the NaN.
        model = build_saturating_model(0.5)
        s, s2 = model.pairs[-1]
        state = model.states[f"{s2}_perp"]
        broken = tuple.__new__(EpistemicState, ((*state.mass[:-1], math.nan),))
        residuals = model._replace(states={**model.states, f"{s2}_perp": broken}).equivalence_residuals()
        assert math.isnan(residuals[f"{s}~{s2}"]) and math.isnan(_worst(residuals.values()))
        assert residuals[f"{model.pairs[0][0]}~{model.pairs[0][1]}"] <= STRUCTURAL_TOL
        assert not _worst(residuals.values()) <= STRUCTURAL_TOL

    def test_deliberate_o2_violation_is_flagged(self):
        model = build_saturating_model(0.5)
        shifted = np.roll(model.states["a_perp"].mass, 7)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(shifted)
        broken = model._replace(states=states)
        assert _worst(broken.equivalence_residuals().values()) > STRUCTURAL_TOL


def uniform_grid_model(n, k):
    """The saturating model at c = k/m, m = n/2, on the uniform grid of n cells per axis, in numpy.

    The construction ``build_saturating_model`` used before it moved to the
    coarsest partition: n input cells, n x n output cells (row-major), and
    the filler region Q as the first cells of the rows x >= 1.  Returns the
    densities and the responses by name.
    """
    m, h = n // 2, 2.0 / n

    def rect(rows, cols):
        return (np.asarray(rows)[:, None] * n + np.asarray(cols)[None, :]).ravel()

    s_a, s_b = np.arange(0, m), np.arange(m - k, 2 * m - k)
    a_only, overlap = np.arange(0, m - k), np.arange(m - k, m)
    q = rect(np.arange(m, 2 * m), np.arange(n))[: m * m - k * m + k * k]
    supports = {
        "a": s_a, "b": s_b, "a_perp": np.arange(m, 2 * m), "b_perp": np.r_[0 : m - k, 2 * m - k : 2 * m],
        "aa": rect(s_a, s_a), "bb": rect(s_b, s_b), "beta": rect(s_b, s_b),
        "alpha": np.r_[rect(a_only, s_a), rect(overlap, s_b)],
        "aa_perp": np.r_[rect(overlap, np.arange(m, 2 * m - k)), q],
        "alpha_perp": np.r_[rect(overlap, a_only), q],
        "bb_perp": rect((s_b + m) % n, s_b), "beta_perp": rect((s_b + m) % n, s_b),
    }

    def indicator(name):
        x = np.zeros(n if name in ("a", "b", "a_perp", "b_perp") else n * n)
        x[supports[name]] = 1.0
        return x

    densities = {name: indicator(name) for name in supports if name not in ("alpha", "beta")}
    # The clone kernel keeps the input cell and spreads its mass h * d over
    # the m output cells (of area h^2) of its branch.
    for clone, source in (("alpha", "a"), ("beta", "b")):
        out = np.zeros((n, n))
        for i in range(n):
            out[i, s_a if i < m - k else s_b] += densities[source][i] / (m * h)
        densities[clone] = out.ravel()
    return densities, {name: indicator(name) for name in TEST_NAMES}


# (l1 distance, confusability) of each pair the ideal identities run on, at overlap c.
def sandwich_closed_forms(c):
    return {
        ("a", "b"): (2.0 * (1.0 - c), c),
        ("alpha", "aa"): (2.0 * (c - c * c), 1.0 - c + c * c),
        ("beta", "bb"): (0.0, 1.0),
        ("aa", "bb"): (2.0 * (1.0 - c * c), c * c),
    }


class TestExactAtEveryOverlap:
    """Every quantity verify-ontic reports against its closed form, over the whole of [0, 1]."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(c=st.floats(0.0, 1.0))
    @example(c=0.0)
    @example(c=1.0)
    @example(c=1e-9)
    @example(c=1.0 - 1e-10)
    def test_every_quantity_matches_its_closed_form(self, c):
        model = build_saturating_model(c)
        for name, state in model.states.items():
            assert math.fsum(state.mass) == pytest.approx(1.0, rel=0, abs=1e-14), name
        assert global_fidelity(model.pass_probability) == pytest.approx(1.0 - c / 2.0 + c * c / 2.0, rel=0, abs=1e-14)
        eps, residuals = measured_epsilons(model.pass_probability), model.equivalence_residuals()
        assert _worst(eps.values()) <= 1e-14, eps
        assert _worst(residuals.values()) <= 1e-14, residuals
        expected = sandwich_closed_forms(c)
        sandwich = sandwich_residuals(model, list(expected))
        for (s, t), closed_form in expected.items():
            assert sandwich[f"{s}~{t}"] <= 1e-14, (s, t)
            got = (l1_distance(model.states[s], model.states[t]), model.pass_probability(s, t))
            assert got == pytest.approx(closed_form, rel=0, abs=1e-14), (s, t)
        assert confusability(model.states["a"], model.responses["b"]) == pytest.approx(c, rel=0, abs=1e-14)
        b = model.states["b"].mass
        assert np.abs(np.array(model.states["beta"].mass) - np.outer(b, b).ravel()).max() <= 1e-14


def check_O1_max_residual(p):
    """The worst perfect-correlation residual as ``ontic.check_O1`` wrote it out, before the worst measured
    epsilon replaced it: a reference that the shortfall's ``abs`` in ``bounds.measured_epsilons`` must match."""
    return _worst((0.0, *(abs(1.0 - p(s, s)) for s in TEST_NAMES), *(p(f"{s}_perp", s) for s in TEST_NAMES)))


class TestWorstEpsilonIsThePerfectCorrelationResidual:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(c=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0, exclude_min=True))
    @example(c=0.8824059935355894, w=1.0)
    @example(c=0.0, w=5e-324)
    @example(c=1.0, w=1e-9)
    def test_worst_measured_epsilon_equals_the_written_out_residual(self, c, w):
        # At c = 0.8824059935355894 a matching pass probability rounds to 1 + 2**-52.
        model = build_saturating_model(c)
        for m in (model, mix_with_uniform(model, w)):
            p = m.pass_probability
            assert _worst(measured_epsilons(p).values()) == check_O1_max_residual(p)


class TestNoisyModelRespectsTheNoisyCeilings:
    """A noncontextual model mixed with noise stays below the noise-robust ceilings its own statistics give."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(c=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0, exclude_min=True))
    @example(c=0.5, w=5e-324)
    @example(c=0.0, w=1.0)
    @example(c=1.0, w=1e-9)
    def test_global_fidelity_within_both_noisy_ceilings(self, c, w):
        p = mix_with_uniform(build_saturating_model(c), w).pass_probability
        overlaps, eps, f_g = bounds.measured_overlaps(p), measured_epsilons(p), global_fidelity(p)
        assert f_g <= bounds.nc_bound_noisy(overlaps, eps) + STRUCTURAL_TOL
        assert f_g <= bounds.nc_bound_noisy_symmetric(overlaps, eps) + STRUCTURAL_TOL


class TestFloatEdges:
    """The partition is what the float edges 0, 1 - c, 1, 2 - c and 2 give, not what c would give exactly."""

    @pytest.mark.parametrize("c, sizes, p_ab, b_mass", [
        # 1 - c rounds to 1 and 2 - c to 2: the overlap and neither cells are empty, so a and b are disjoint.
        (1e-17, (1.0, 1.0), 0.0, 1.0),
        # The overlap cell is 1 - (1 - c) wide, not c, and so is p(a, b).
        (6e-17, (0.9999999999999999, 1.1102230246251565e-16, 1.0), 1.1102230246251565e-16, 1.0),
        # 2 - c rounds to 1: the b-only cell is empty, and b's two cells hold 1 - 2**-53 between them.
        (1.0 - 2**-53, (1.1102230246251565e-16, 0.9999999999999999, 1.0), 0.9999999999999999, 0.9999999999999999),
    ])
    def test_input_cell_sizes(self, c, sizes, p_ab, b_mass):
        model = build_saturating_model(c)
        # a and its partner cover the input cells between them, each cell at its full size.
        assert tuple(x + y for x, y in zip(model.states["a"].mass, model.states["a_perp"].mass)) == sizes
        assert model.clone_map.shape == (len(sizes), len(sizes) ** 2)
        assert model.pass_probability("a", "b") == p_ab
        assert math.fsum(model.states["b"].mass) == b_mass


class TestAgainstTheUniformGrid:
    """The partition model against the uniform-grid construction, at overlaps that grid holds."""

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 1), (4, 2), (20, 3), (20, 10), (64, 13), (100, 37), (100, 50)])
    def test_same_quantities_and_masses(self, n, k):
        m, h = n // 2, 2.0 / n
        densities, responses = uniform_grid_model(n, k)

        def integral(x):
            return float(x.sum()) * (h if x.size == n else h * h)

        def conf(s, t):
            return integral(densities[s] * responses[t])

        model = build_saturating_model(k / m)
        assert global_fidelity(model.pass_probability) == pytest.approx(
            0.5 * conf("alpha", "aa") + 0.5 * conf("beta", "bb"), rel=0, abs=1e-14)
        for s in TEST_NAMES:
            assert model.pass_probability(s, s) == pytest.approx(conf(s, s), rel=0, abs=1e-14), s
            assert model.pass_probability(f"{s}_perp", s) == pytest.approx(conf(f"{s}_perp", s), rel=0, abs=1e-14), s
        for s, t in sandwich_closed_forms(k / m):
            l1 = l1_distance(model.states[s], model.states[t])
            assert l1 == pytest.approx(integral(np.abs(densities[s] - densities[t])), rel=0, abs=1e-14), (s, t)
            assert model.pass_probability(s, t) == pytest.approx(conf(s, t), rel=0, abs=1e-14), (s, t)

        # Cell by cell: each input cell of the partition is the block of grid
        # cells between two of the grid indices 0, m-k, m, 2m-k and 2m (an
        # empty block is no cell), each output cell a pair of blocks, and the
        # model's mass there is the grid masses' sum over the block.  The two
        # complements holding the filler Q place it apart.
        edges = (0, m - k, m, 2 * m - k, 2 * m)
        blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
        assert model.clone_map.shape == (len(blocks), len(blocks) ** 2)
        for name in STATE_NAMES:
            if name in ("aa_perp", "alpha_perp"):
                continue
            x = densities[name] * (h if densities[name].size == n else h * h)
            sums = [x[i].sum() for i in blocks] if x.size == n else \
                [x.reshape(n, n)[i, j].sum() for i in blocks for j in blocks]
            assert model.states[name].mass == pytest.approx(sums, rel=0, abs=1e-14), name


class TestSandwichRelations:
    @pytest.mark.parametrize("pair", [("a", "b"), ("alpha", "aa"), ("beta", "bb"), ("aa", "bb")])
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.75])
    def test_ideal_identity_on_saturating_model(self, pair, c):
        model = build_saturating_model(c)
        (residual,) = sandwich_residuals(model, [pair]).values()
        assert residual <= STRUCTURAL_TOL, pair

    def test_ideal_identity_values_at_half(self):
        model = build_saturating_model(0.5)
        assert l1_distance(model.states["a"], model.states["b"]) == pytest.approx(1.0, abs=1e-12)
        assert l1_distance(model.states["aa"], model.states["bb"]) == pytest.approx(1.5, abs=1e-12)
        assert 2 * (1 - model.pass_probability("aa", "bb")) == pytest.approx(1.5, abs=1e-12)

    def test_identical_inputs_give_zero_both_sides(self):
        model = build_saturating_model(1.0)
        assert l1_distance(model.states["a"], model.states["b"]) == pytest.approx(0.0, abs=1e-12)
        assert model.pass_probability("a", "b") == pytest.approx(1.0, abs=1e-12)

    def test_ideal_check_measures_an_invalid_model(self):
        # A model that fails O1 and O2 is still measured; its O1 and O2 residuals tell the caller so.
        model = build_saturating_model(0.5)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(np.roll(states["a_perp"].mass, 5))
        broken = model._replace(states=states)
        assert _worst(measured_epsilons(broken.pass_probability).values()) > STRUCTURAL_TOL
        assert _worst(broken.equivalence_residuals().values()) > STRUCTURAL_TOL
        residuals = sandwich_residuals(broken, [("a", "b"), ("a_perp", "a")])
        assert residuals["a~b"] == sandwich_residuals(model, [("a", "b")])["a~b"]
        # a's rolled partner now overlaps a: l1 = 1, a's response passes it with 1/2, residual 0.
        partner = (l1_distance(states["a_perp"], states["a"]), broken.pass_probability("a_perp", "a"))
        assert (*partner, residuals["a_perp~a"]) == pytest.approx((1.0, 0.5, 0.0), rel=0, abs=1e-15)

    @pytest.mark.parametrize("w", [0.01, 0.05, 0.1])
    def test_noisy_sandwich_on_mixed_models(self, w):
        model = mix_with_uniform(build_saturating_model(0.5), w)
        assert _worst(model.equivalence_residuals().values()) <= STRUCTURAL_TOL
        eps = measured_epsilons(model.pass_probability)
        for pair in model.pairs:
            margin_lower, margin_upper = sandwich_margins(model, pair, eps[pair[0]], eps[pair[1]])
            assert margin_lower >= -STRUCTURAL_TOL and margin_upper >= -STRUCTURAL_TOL, (pair, margin_lower)

    @pytest.mark.parametrize("nan_name", ["a", "b"], ids=["forward", "reverse"])
    def test_a_nan_confusability_gives_nan_margins(self, monkeypatch, nan_name):
        # The forward orientation passes a's masses through b's response, the reverse one b's through a's.
        model = build_saturating_model(0.5)
        nan_state = model.states[nan_name]
        monkeypatch.setattr(ontic, "confusability",
                            lambda mu, xi: math.nan if mu is nan_state else confusability(mu, xi))
        margin_lower, margin_upper = sandwich_margins(model, ("a", "b"), 0.0, 0.0)
        assert math.isnan(margin_lower) and math.isnan(margin_upper)

    def test_zero_mixing_reduces_to_equality(self):
        model = build_saturating_model(0.5)
        margin_lower, margin_upper = sandwich_margins(model, ("a", "b"), 0.0, 0.0)
        assert abs(margin_lower) <= STRUCTURAL_TOL
        assert abs(margin_upper) <= STRUCTURAL_TOL

    def test_undersized_allowances_give_a_negative_margin(self):
        # The model exhibits allowances of 0.05 for a and b; with none granted the lower bound overshoots.
        model = mix_with_uniform(build_saturating_model(0.5), 0.1)
        eps = measured_epsilons(model.pass_probability)
        assert eps["a"] > STRUCTURAL_TOL and eps["b"] > STRUCTURAL_TOL
        margin_lower, margin_upper = sandwich_margins(model, ("a", "b"), 0.0, 0.0)
        assert margin_lower == pytest.approx(-0.1, rel=0, abs=1e-15)
        assert margin_upper >= -STRUCTURAL_TOL

    def test_lower_bound_needs_no_equivalences(self):
        # The one-sided relation 2(1 - c - eps) <= |mu - nu| holds for any
        # pair of states and any response, with eps the correlation
        # shortfall of nu itself; no model structure enters.
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            mu, nu = random_state(rng, 32), random_state(rng, 32)
            xi = random_response(rng, 32)
            c_fwd = confusability(mu, xi)
            eps = 1.0 - confusability(nu, xi)
            assert l1_distance(mu, nu) >= 2.0 * (1.0 - c_fwd - eps) - 1e-12

    def test_lower_bound_on_broken_model(self):
        model = build_saturating_model(0.5)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(np.roll(states["a_perp"].mass, 9))
        broken = model._replace(states=states)
        assert _worst(broken.equivalence_residuals().values()) > STRUCTURAL_TOL
        eps = measured_epsilons(broken.pass_probability)
        margin_lower, _ = sandwich_margins(broken, ("a", "b"), eps["a"], eps["b"])
        assert margin_lower >= -STRUCTURAL_TOL
