"""Ontological-model engine tests.

Every quantity of the bound-saturating model is expected at machine
precision: its supports are grid-aligned by construction, so at the
snapped overlap each one equals its closed form to rounding.  Randomized
property checks use a fixed seed throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonectx import bounds
from clonectx.ontic import (
    EpistemicState,
    LambdaGrid,
    OnticModel,
    ResponseFunction,
    StochasticMap,
    apply_map,
    build_saturating_model,
    check_O1,
    check_O2,
    confusability,
    dpi_check,
    global_fidelity,
    l1_distance,
    measured_epsilons,
    mix_with_uniform,
    verify_sandwich_ideal,
    verify_sandwich_noisy,
)

SEED = 20260810


def random_state(rng, grid):
    density = rng.random(grid.num_cells) + 1e-3
    density /= density.sum() * grid.cell_volume
    return EpistemicState(grid, density)


def random_response(rng, grid):
    return ResponseFunction(grid, rng.random(grid.num_cells))


def random_kernel(rng, source, target):
    k = rng.random((source.num_cells, target.num_cells)) + 1e-3
    k /= k.sum(axis=1, keepdims=True)
    return StochasticMap(source, target, k)


class TestGridAndStates:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            LambdaGrid(3, 10)
        with pytest.raises(ValueError):
            LambdaGrid(1, 3)

    def test_cell_volume(self):
        assert LambdaGrid(1, 10).cell_volume == pytest.approx(0.2)
        assert LambdaGrid(2, 10).cell_volume == pytest.approx(0.04)

    def test_state_rejects_negative_density(self):
        grid = LambdaGrid(1, 10)
        density = np.full(10, 0.5)
        density[0] = -0.1
        with pytest.raises(ValueError):
            EpistemicState(grid, density)

    def test_state_rejects_bad_mass(self):
        grid = LambdaGrid(1, 10)
        with pytest.raises(ValueError):
            EpistemicState(grid, np.full(10, 1.0))

    def test_response_range(self):
        grid = LambdaGrid(1, 10)
        with pytest.raises(ValueError):
            ResponseFunction(grid, np.full(10, 1.5))

    def test_kernel_row_sums_checked(self):
        grid = LambdaGrid(1, 4)
        with pytest.raises(ValueError):
            StochasticMap(grid, grid, np.full((4, 4), 0.3))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_cols_outside_the_target_grid_rejected(self, bad):
        grid = LambdaGrid(1, 4)
        cols = np.tile([0, 1], (4, 1))
        cols[2, 1] = bad
        with pytest.raises(ValueError, match="target cells"):
            StochasticMap(grid, grid, np.full((4, 2), 0.5), cols)

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (8,)])
    def test_cols_must_have_the_kernel_shape(self, shape):
        grid = LambdaGrid(1, 4)
        with pytest.raises(ValueError, match="shape"):
            StochasticMap(grid, grid, np.full((4, 2), 0.5), np.zeros(shape, dtype=int))


class TestDistanceAndConfusability:
    def test_distance_to_self_is_zero(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, LambdaGrid(1, 32))
        assert l1_distance(mu, mu) == 0.0

    def test_disjoint_supports_reach_two(self):
        grid = LambdaGrid(1, 32)
        mu = EpistemicState.uniform_on(grid, np.arange(0, 16))
        nu = EpistemicState.uniform_on(grid, np.arange(16, 32))
        assert l1_distance(mu, nu) == pytest.approx(2.0, abs=1e-12)

    def test_grid_mismatch_raises(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, LambdaGrid(1, 16))
        nu = random_state(rng, LambdaGrid(1, 32))
        with pytest.raises(ValueError):
            l1_distance(mu, nu)

    def test_confusability_of_trivial_tests(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 32)
        mu = random_state(rng, grid)
        always = ResponseFunction(grid, np.ones(grid.num_cells))
        never = ResponseFunction(grid, np.zeros(grid.num_cells))
        assert confusability(mu, always) == pytest.approx(1.0, abs=1e-12)
        assert confusability(mu, never) == 0.0

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 24)
        for _ in range(200):
            mu, nu, pi = (random_state(rng, grid) for _ in range(3))
            assert l1_distance(mu, pi) <= l1_distance(mu, nu) + l1_distance(nu, pi) + 1e-12


class TestStochasticMaps:
    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 16)
        mu = random_state(rng, grid)
        ident = StochasticMap(grid, grid, np.eye(16))
        np.testing.assert_allclose(apply_map(ident, mu).density, mu.density, atol=1e-15)

    def test_pushforward_stays_normalized(self):
        rng = np.random.default_rng(SEED)
        src, tgt = LambdaGrid(1, 12), LambdaGrid(2, 8)
        for _ in range(20):
            out = apply_map(random_kernel(rng, src, tgt), random_state(rng, src))
            assert out.density.sum() * tgt.cell_volume == pytest.approx(1.0, abs=1e-9)

    def test_collapse_kernel_erases_distance(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 16)
        k = np.zeros((16, 16))
        k[:, 3] = 1.0
        collapse = StochasticMap(grid, grid, k)
        mu, nu = random_state(rng, grid), random_state(rng, grid)
        assert l1_distance(apply_map(collapse, mu), apply_map(collapse, nu)) == pytest.approx(0.0, abs=1e-12)

    def test_data_processing_inequality_random_cases(self):
        rng = np.random.default_rng(SEED)
        src, tgt = LambdaGrid(1, 16), LambdaGrid(1, 20)
        for _ in range(200):
            t = random_kernel(rng, src, tgt)
            mu, nu = random_state(rng, src), random_state(rng, src)
            assert dpi_check(t, mu, nu)

    def test_dpi_with_identity_is_equality(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 16)
        ident = StochasticMap(grid, grid, np.eye(16))
        mu, nu = random_state(rng, grid), random_state(rng, grid)
        assert l1_distance(apply_map(ident, mu), apply_map(ident, nu)) == pytest.approx(
            l1_distance(mu, nu), abs=1e-12
        )


class TestSaturatingModel:
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_perfect_correlations(self, c):
        model = build_saturating_model(c, 200)
        report = check_O1(model)
        assert report.passed, report
        assert report.max_residual <= 1e-9

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_mixing_equivalences(self, c):
        model = build_saturating_model(c, 200)
        report = check_O2(model)
        assert report.passed, report

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_fidelity_saturates_the_ceiling(self, c):
        model = build_saturating_model(c, 200)
        target = bounds.nc_bound_ideal(model.c_ab, model.c_ab**2)
        assert global_fidelity(model) == pytest.approx(target, abs=1e-12)

    def test_half_overlap_by_hand(self):
        model = build_saturating_model(0.5, 200)
        c_alpha_aa = confusability(model.states["alpha"], model.responses["aa"])
        assert c_alpha_aa == pytest.approx(0.75, abs=1e-12)
        assert confusability(model.states["beta"], model.responses["bb"]) == pytest.approx(1.0, abs=1e-12)
        assert global_fidelity(model) == pytest.approx(0.875, abs=1e-12)

    def test_input_mixtures_flatten_to_uniform(self):
        model = build_saturating_model(0.5, 100)
        total = 0.5 * (model.states["a"].density + model.states["a_perp"].density)
        np.testing.assert_allclose(total, 0.5 * np.ones_like(total) * 1.0, atol=1e-12)

    def test_clone_of_b_is_the_product_density(self):
        model = build_saturating_model(0.4, 100)
        b = model.states["b"].density
        product = np.outer(b, b).ravel()
        assert np.abs(model.states["beta"].density - product).max() <= 1e-9

    def test_maximal_overlap_of_inputs(self):
        model = build_saturating_model(0.5, 200)
        mass_on_other_support = confusability(model.states["a"], model.responses["b"])
        assert mass_on_other_support == pytest.approx(model.c_ab, abs=1e-12)

    def test_discrimination_ceiling_from_the_model_distance(self):
        # The best discrimination probability 1/2 + |mu_a - mu_b|/4 of the
        # saturating model meets the closed-form noncontextual ceiling.
        model = build_saturating_model(0.5, 200)
        from_distance = 0.5 + 0.25 * l1_distance(model.states["a"], model.states["b"])
        assert from_distance == pytest.approx(bounds.nc_discrimination_bound(0.5), abs=1e-12)
        assert from_distance == pytest.approx(0.75, abs=1e-12)

    def test_snapping_warns(self):
        with pytest.warns(RuntimeWarning, match="snapping"):
            model = build_saturating_model(0.318, 200)
        assert model.c_ab == pytest.approx(0.32, abs=1e-12)

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError):
            build_saturating_model(0.5, 201)

    def test_deliberate_o1_violation_is_flagged(self):
        model = build_saturating_model(0.5, 100)
        broken_responses = dict(model.responses)
        broken_responses["a"] = ResponseFunction(model.grid_in, np.ones(model.grid_in.num_cells))
        broken = OnticModel(
            grid_in=model.grid_in,
            grid_out=model.grid_out,
            c_ab=model.c_ab,
            states=model.states,
            responses=broken_responses,
            clone_map=model.clone_map,
        )
        report = check_O1(broken)
        assert not report.passed
        assert report.leak_probs["a"] == pytest.approx(1.0, abs=1e-12)

    def test_deliberate_o2_violation_is_flagged(self):
        model = build_saturating_model(0.5, 100)
        shifted = np.roll(model.states["a_perp"].density, 7)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(model.grid_in, shifted)
        broken = OnticModel(
            grid_in=model.grid_in,
            grid_out=model.grid_out,
            c_ab=model.c_ab,
            states=states,
            responses=model.responses,
            clone_map=model.clone_map,
        )
        assert not check_O2(broken).passed


class TestExactAtTheSnappedOverlap:
    """Every quantity verify-ontic reports against its closed form at c = k/m."""

    @settings(derandomize=True, database=None, deadline=None)
    @given(m=st.integers(2, 32))
    def test_every_overlap_matches_the_closed_forms(self, m):
        for k in range(m + 1):
            model = build_saturating_model(k / m, 2 * m)
            c = model.c_ab
            assert c == k / m
            assert global_fidelity(model) == pytest.approx(bounds.nc_bound_ideal(c, c * c), rel=0, abs=1e-14)
            assert check_O1(model).max_residual <= 1e-14
            assert check_O2(model).max_residual <= 1e-14
            # (l1 distance, confusability) of each pair the identities run on.
            expected = {
                ("a", "b"): (2.0 * (1.0 - c), c),
                ("alpha", "aa"): (2.0 * (c - c * c), 1.0 - c + c * c),
                ("beta", "bb"): (0.0, 1.0),
                ("aa", "bb"): (2.0 * (1.0 - c * c), c * c),
            }
            for rep in verify_sandwich_ideal(model, list(expected)):
                assert (rep.l1, rep.confus) == pytest.approx(expected[rep.pair], rel=0, abs=1e-14), rep
                assert rep.residual <= 1e-14, rep
            assert confusability(model.states["a"], model.responses["b"]) == pytest.approx(c, rel=0, abs=1e-14)
            b = model.states["b"].density
            assert np.abs(model.states["beta"].density - np.outer(b, b).ravel()).max() <= 1e-14


class TestStructuredKernel:
    """The row-sparse kernel of build_saturating_model against the dense matrix it stands for."""

    @settings(derandomize=True, database=None, deadline=None)
    @given(m=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_structured_matches_dense(self, m, seed):
        # Every overlap k at the drawn even resolution n = 2m.
        n = 2 * m
        rng = np.random.default_rng(seed)
        for k in range(m + 1):
            model = build_saturating_model(k / m, n)
            t = model.clone_map
            assert t.kernel.size == n * n // 2
            for i in range(n):
                branch = np.arange(0, m) if i < m - k else np.arange(m - k, 2 * m - k)
                np.testing.assert_array_equal(t.cols[i], i * n + branch)
            dense = np.zeros((n, n * n))
            np.put_along_axis(dense, t.cols, t.kernel, axis=1)
            dense_map = StochasticMap(t.source, t.target, dense)
            for mu in (model.states["a"], model.states["b"], random_state(rng, t.source)):
                np.testing.assert_allclose(
                    apply_map(t, mu).density, apply_map(dense_map, mu).density, rtol=0, atol=1e-15
                )


class TestSandwichRelations:
    @pytest.mark.parametrize("pair", [("a", "b"), ("alpha", "aa"), ("beta", "bb"), ("aa", "bb")])
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.75])
    def test_ideal_identity_on_saturating_model(self, pair, c):
        model = build_saturating_model(c, 200)
        (report,) = verify_sandwich_ideal(model, [pair])
        assert report.passed, report

    def test_ideal_identity_values_at_half(self):
        model = build_saturating_model(0.5, 200)
        rep_ab, rep_tt = verify_sandwich_ideal(model, [("a", "b"), ("aa", "bb")])
        assert rep_ab.l1 == pytest.approx(1.0, abs=1e-12)
        assert rep_tt.l1 == pytest.approx(1.5, abs=1e-12)
        assert 2 * (1 - rep_tt.confus) == pytest.approx(1.5, abs=1e-12)

    def test_identical_inputs_give_zero_both_sides(self):
        model = build_saturating_model(1.0, 100)
        (report,) = verify_sandwich_ideal(model, [("a", "b")])
        assert report.l1 == pytest.approx(0.0, abs=1e-12)
        assert report.confus == pytest.approx(1.0, abs=1e-12)

    def test_ideal_check_requires_valid_model(self):
        model = build_saturating_model(0.5, 100)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(model.grid_in, np.roll(states["a_perp"].density, 5))
        broken = OnticModel(
            grid_in=model.grid_in,
            grid_out=model.grid_out,
            c_ab=model.c_ab,
            states=states,
            responses=model.responses,
            clone_map=model.clone_map,
        )
        with pytest.raises(ValueError):
            verify_sandwich_ideal(broken, [("a", "b")])

    @pytest.mark.parametrize("w", [0.01, 0.05, 0.1])
    def test_noisy_sandwich_on_mixed_models(self, w):
        model = mix_with_uniform(build_saturating_model(0.5, 200), w)
        eps = measured_epsilons(model)
        for pair in model.pairs:
            report = verify_sandwich_noisy(model, pair, eps[pair[0]], eps[pair[1]])
            assert report.passed, (pair, report)

    def test_zero_mixing_reduces_to_equality(self):
        model = build_saturating_model(0.5, 200)
        report = verify_sandwich_noisy(model, ("a", "b"), 0.0, 0.0)
        assert report.passed
        assert abs(report.margin_lower) <= report.slack
        assert abs(report.margin_upper) <= report.slack

    def test_undersized_allowances_rejected(self):
        model = mix_with_uniform(build_saturating_model(0.5, 100), 0.1)
        with pytest.raises(ValueError):
            verify_sandwich_noisy(model, ("a", "b"), 0.0, 0.0)

    def test_lower_bound_needs_no_equivalences(self):
        # The one-sided relation 2(1 - c - eps) <= |mu - nu| holds for any
        # pair of densities and any response, with eps the correlation
        # shortfall of nu itself; no model structure enters.
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid(1, 32)
        for _ in range(200):
            mu, nu = random_state(rng, grid), random_state(rng, grid)
            xi = random_response(rng, grid)
            c_fwd = confusability(mu, xi)
            eps = 1.0 - confusability(nu, xi)
            assert l1_distance(mu, nu) >= 2.0 * (1.0 - c_fwd - eps) - 1e-12

    def test_lower_bound_on_broken_model(self):
        model = build_saturating_model(0.5, 100)
        states = dict(model.states)
        states["a_perp"] = EpistemicState(model.grid_in, np.roll(states["a_perp"].density, 9))
        broken = OnticModel(
            grid_in=model.grid_in,
            grid_out=model.grid_out,
            c_ab=model.c_ab,
            states=states,
            responses=model.responses,
            clone_map=model.clone_map,
        )
        assert not check_O2(broken).passed
        eps = measured_epsilons(broken)
        report = verify_sandwich_noisy(broken, ("a", "b"), eps["a"], eps["b"], check_preconditions=False)
        assert report.lower_ok
