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
from clonectx.bounds import STATE_NAMES, TEST_NAMES
from clonectx.ontic import (
    STRUCTURAL_TOL,
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
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LambdaGrid.uniform(3, 10),
            lambda: LambdaGrid.uniform(1, 0),
            lambda: LambdaGrid(()),
            lambda: LambdaGrid(((0.0, 1.0, 1.0, 2.0),)),
            lambda: LambdaGrid(((0.0, 1.5, 1.0, 2.0),)),
            lambda: LambdaGrid(((0.0, 1.0),)),
            lambda: LambdaGrid(((0.5, 2.0),)),
            lambda: LambdaGrid(((0.0, math.nan, 2.0),)),
        ],
        ids=["dimension-3", "no-cells", "no-axes", "empty-cell", "falling", "short", "late-start", "nan-edge"],
    )
    def test_grid_validation(self, make):
        with pytest.raises(ValueError):
            make()

    def test_cell_volume(self):
        assert LambdaGrid.uniform(1, 10).cell_volume == pytest.approx(0.2)
        assert LambdaGrid.uniform(2, 10).cell_volume == pytest.approx(0.04)

    def test_uneven_partition(self):
        grid = LambdaGrid(((0.0, 0.5, 2.0), (0, 1.5, 2)))
        assert grid.cells == (((0.0, 0.5), (0.0, 1.5)), ((0.0, 0.5), (1.5, 2.0)),
                              ((0.5, 2.0), (0.0, 1.5)), ((0.5, 2.0), (1.5, 2.0)))
        assert grid.volumes == (0.75, 0.25, 2.25, 0.75)
        with pytest.raises(ValueError, match="differ in volume"):
            grid.cell_volume
        mu = EpistemicState.uniform_on(grid, [((0.0, 0.5), (0.0, 2.0))])
        assert mu.density == (1.0, 1.0, 0.0, 0.0)

    def test_state_rejects_negative_density(self):
        grid = LambdaGrid.uniform(1, 10)
        density = np.full(10, 0.5)
        density[0] = -0.1
        with pytest.raises(ValueError):
            EpistemicState(grid, density)

    def test_state_rejects_bad_mass(self):
        grid = LambdaGrid.uniform(1, 10)
        with pytest.raises(ValueError):
            EpistemicState(grid, np.full(10, 1.0))

    def test_response_range(self):
        grid = LambdaGrid.uniform(1, 10)
        with pytest.raises(ValueError):
            ResponseFunction(grid, np.full(10, 1.5))

    def test_kernel_row_sums_checked(self):
        grid = LambdaGrid.uniform(1, 4)
        with pytest.raises(ValueError):
            StochasticMap(grid, grid, np.full((4, 4), 0.3))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (5, 4)])
    def test_kernel_shape_checked(self, shape):
        grid = LambdaGrid.uniform(1, 4)
        with pytest.raises(ValueError, match="shape"):
            StochasticMap(grid, grid, np.full(shape, 1.0 / shape[1]))

    def test_nan_rejected(self):
        grid = LambdaGrid.uniform(1, 4)
        with pytest.raises(ValueError, match="NaN"):
            EpistemicState(grid, [math.nan, 0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="escape"):
            ResponseFunction(grid, [math.nan, 0.5, 0.5, 0.0])
        kernel = np.eye(4)
        kernel[1, 2] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            StochasticMap(grid, grid, kernel)


class TestDistanceAndConfusability:
    def test_distance_to_self_is_zero(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, LambdaGrid.uniform(1, 32))
        assert l1_distance(mu, mu) == 0.0

    def test_disjoint_supports_reach_two(self):
        grid = LambdaGrid.uniform(1, 32)
        mu = EpistemicState.uniform_on(grid, [((0.0, 1.0),)])
        nu = EpistemicState.uniform_on(grid, [((1.0, 2.0),)])
        assert l1_distance(mu, nu) == pytest.approx(2.0, abs=1e-12)

    def test_grid_mismatch_raises(self):
        rng = np.random.default_rng(SEED)
        mu = random_state(rng, LambdaGrid.uniform(1, 16))
        nu = random_state(rng, LambdaGrid.uniform(1, 32))
        with pytest.raises(ValueError):
            l1_distance(mu, nu)

    def test_confusability_of_trivial_tests(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 32)
        mu = random_state(rng, grid)
        always = ResponseFunction(grid, np.ones(grid.num_cells))
        never = ResponseFunction(grid, np.zeros(grid.num_cells))
        assert confusability(mu, always) == pytest.approx(1.0, abs=1e-12)
        assert confusability(mu, never) == 0.0

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 24)
        for _ in range(200):
            mu, nu, pi = (random_state(rng, grid) for _ in range(3))
            assert l1_distance(mu, pi) <= l1_distance(mu, nu) + l1_distance(nu, pi) + 1e-12


class TestValidationErrors:
    """Each argument the engine rejects, with the message of the check that rejects it."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda g: EpistemicState(g, (0.5, 0.5, 0.0)), "density must have 4 cells, got 3"),
            (lambda g: ResponseFunction(g, (1.0,) * 5), "response must have 4 cells, got 5"),
            (lambda g: confusability(EpistemicState.uniform(g), ResponseFunction(LambdaGrid.uniform(1, 2), (1.0, 0.0))),
             "same grid"),
            (lambda g: apply_map(StochasticMap(g, g, np.eye(4)), EpistemicState.uniform(LambdaGrid.uniform(1, 2))),
             "source grid"),
        ],
        ids=["density-length", "response-length", "confusability-grids", "apply-map-grid"],
    )
    def test_mismatched_grid_or_length(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(LambdaGrid.uniform(1, 4))

    def test_model_missing_a_response(self):
        model = build_saturating_model(0.5)
        responses = {k: r for k, r in model.responses.items() if k != "bb"}
        with pytest.raises(ValueError, match=r"missing responses: \['bb'\]"):
            model._replace(responses=responses)

    def test_pair_naming_an_unknown_state(self):
        with pytest.raises(ValueError, match=r"pair \(a, gamma\) references unknown states"):
            build_saturating_model(0.5)._replace(pairs=(("a", "b"), ("a", "gamma")))

    @pytest.mark.parametrize("w", [-0.1, 1.5, math.nan])
    def test_mixing_weight_outside_the_unit_interval(self, w):
        with pytest.raises(ValueError, match="mixing weight must lie in"):
            mix_with_uniform(build_saturating_model(0.5), w)

    def test_sandwich_checks_measure_a_model_without_the_mixing_equivalences(self):
        # The partner of a squeezed onto [1, 1.5]: still disjoint from a, so O1 holds, but a ~ b mixes unevenly.
        # a and b are untouched, so both sandwich checks still measure their relations, which hold.
        model = build_saturating_model(0.5)
        broken = model._replace(states={**model.states, "a_perp": EpistemicState(model.grid_in, (0.0, 0.0, 2.0, 0.0))})
        assert check_O1(broken).max_residual <= STRUCTURAL_TOL
        assert check_O2(broken).max_residual == pytest.approx(0.5, rel=0, abs=1e-15)
        (ideal,) = verify_sandwich_ideal(broken, [("a", "b")])
        assert ideal == verify_sandwich_ideal(model, [("a", "b")])[0]
        assert ideal.residual <= STRUCTURAL_TOL
        noisy = verify_sandwich_noisy(broken, ("a", "b"), 0.0, 0.0)
        assert noisy == verify_sandwich_noisy(model, ("a", "b"), 0.0, 0.0)
        assert abs(noisy.margin_lower) <= STRUCTURAL_TOL and abs(noisy.margin_upper) <= STRUCTURAL_TOL


class TestStochasticMaps:
    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 16)
        mu = random_state(rng, grid)
        ident = StochasticMap(grid, grid, np.eye(16))
        np.testing.assert_allclose(apply_map(ident, mu).density, mu.density, atol=1e-15)

    def test_pushforward_stays_normalized(self):
        rng = np.random.default_rng(SEED)
        src, tgt = LambdaGrid.uniform(1, 12), LambdaGrid.uniform(2, 8)
        for _ in range(20):
            out = apply_map(random_kernel(rng, src, tgt), random_state(rng, src))
            assert sum(out.density) * tgt.cell_volume == pytest.approx(1.0, abs=1e-9)

    def test_collapse_kernel_erases_distance(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 16)
        k = np.zeros((16, 16))
        k[:, 3] = 1.0
        collapse = StochasticMap(grid, grid, k)
        mu, nu = random_state(rng, grid), random_state(rng, grid)
        assert l1_distance(apply_map(collapse, mu), apply_map(collapse, nu)) == pytest.approx(0.0, abs=1e-12)

    def test_data_processing_inequality_random_cases(self):
        rng = np.random.default_rng(SEED)
        src, tgt = LambdaGrid.uniform(1, 16), LambdaGrid.uniform(1, 20)
        for _ in range(200):
            t = random_kernel(rng, src, tgt)
            mu, nu = random_state(rng, src), random_state(rng, src)
            assert dpi_check(t, mu, nu)

    def test_dpi_with_identity_is_equality(self):
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 16)
        ident = StochasticMap(grid, grid, np.eye(16))
        mu, nu = random_state(rng, grid), random_state(rng, grid)
        assert l1_distance(apply_map(ident, mu), apply_map(ident, nu)) == pytest.approx(
            l1_distance(mu, nu), abs=1e-12
        )


class TestSaturatingModel:
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_perfect_correlations(self, c):
        model = build_saturating_model(c)
        report = check_O1(model)
        assert report.max_residual <= STRUCTURAL_TOL, report

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_mixing_equivalences(self, c):
        model = build_saturating_model(c)
        report = check_O2(model)
        assert report.max_residual <= STRUCTURAL_TOL, report

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_fidelity_saturates_the_ceiling(self, c):
        model = build_saturating_model(c)
        target = bounds.nc_bound_ideal(model.c_ab, model.c_ab**2)
        assert global_fidelity(model) == pytest.approx(target, abs=1e-12)

    def test_half_overlap_by_hand(self):
        model = build_saturating_model(0.5)
        c_alpha_aa = confusability(model.states["alpha"], model.responses["aa"])
        assert c_alpha_aa == pytest.approx(0.75, abs=1e-12)
        assert confusability(model.states["beta"], model.responses["bb"]) == pytest.approx(1.0, abs=1e-12)
        assert global_fidelity(model) == pytest.approx(0.875, abs=1e-12)

    def test_input_mixtures_flatten_to_uniform(self):
        model = build_saturating_model(0.5)
        total = 0.5 * (np.array(model.states["a"].density) + model.states["a_perp"].density)
        np.testing.assert_allclose(total, 0.5, rtol=0, atol=1e-12)

    def test_clone_of_b_is_the_product_density(self):
        model = build_saturating_model(0.4)
        b = model.states["b"].density
        product = np.outer(b, b).ravel()
        assert np.abs(model.states["beta"].density - product).max() <= 1e-9

    def test_maximal_overlap_of_inputs(self):
        model = build_saturating_model(0.5)
        mass_on_other_support = confusability(model.states["a"], model.responses["b"])
        assert mass_on_other_support == pytest.approx(model.c_ab, abs=1e-12)

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
        assert model.c_ab == c
        assert confusability(model.states["a"], model.responses["b"]) == pytest.approx(c, rel=0, abs=1e-15)

    @pytest.mark.parametrize("c", [-0.1, 1.5, math.nan, math.inf])
    def test_overlap_outside_the_unit_interval_rejected(self, c):
        with pytest.raises(ValueError, match="c_ab must lie in"):
            build_saturating_model(c)

    @pytest.mark.parametrize("c, cells", [(0.0, 2), (0.5, 4), (0.37, 4), (1.0, 2)])
    def test_partition_size_does_not_depend_on_any_resolution(self, c, cells):
        model = build_saturating_model(c)
        assert model.grid_in.num_cells == cells
        assert model.grid_out.edges == model.grid_in.edges * 2
        assert len(model.clone_map.kernel) == cells
        assert all(len(row) == cells * cells for row in model.clone_map.kernel)

    @pytest.mark.parametrize("c, nbytes", [(0.0, 64), (0.37, 512), (1.0, 64)])
    def test_kernel_nbytes_counts_8_bytes_per_entry(self, c, nbytes):
        # The benchmark's memory pass reads clone_map.kernel.nbytes as the kernel's size.
        model = build_saturating_model(c)
        expected = 8 * model.grid_in.num_cells * model.grid_out.num_cells
        assert model.clone_map.kernel.nbytes == expected == nbytes

    def test_deliberate_o1_violation_is_flagged(self):
        model = build_saturating_model(0.5)
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
        assert report.max_residual > STRUCTURAL_TOL
        assert report.leak_probs["a"] == pytest.approx(1.0, abs=1e-12)

    def test_a_nan_after_the_first_term_fails_check_O1(self, monkeypatch):
        # The last term is the leak of the last test, bb, on its orthogonal partner.
        model = build_saturating_model(0.5)
        last = model.states["bb_perp"]
        monkeypatch.setattr(ontic, "confusability", lambda mu, xi: math.nan if mu is last else confusability(mu, xi))
        report = check_O1(model)
        assert math.isnan(report.leak_probs["bb"]) and math.isnan(report.max_residual)
        assert not report.max_residual <= STRUCTURAL_TOL

    def test_a_nan_leak_is_the_measured_epsilon(self, monkeypatch):
        # The leak is the later of the two terms of an epsilon; the shortfall of bb is 0.
        model = build_saturating_model(0.5)
        last = model.states["bb_perp"]
        monkeypatch.setattr(ontic, "confusability", lambda mu, xi: math.nan if mu is last else confusability(mu, xi))
        eps = measured_epsilons(model)
        assert math.isnan(eps["bb"])
        assert all(eps[s] <= STRUCTURAL_TOL for s in TEST_NAMES if s != "bb"), eps

    def test_a_nan_in_a_later_cell_fails_check_O2(self):
        # Past EpistemicState's own check, which would reject the NaN.
        model = build_saturating_model(0.5)
        s, s2 = model.pairs[-1]
        state = model.states[f"{s2}_perp"]
        broken = tuple.__new__(EpistemicState, (state.grid, (*state.density[:-1], math.nan)))
        report = check_O2(model._replace(states={**model.states, f"{s2}_perp": broken}))
        assert math.isnan(report.pair_residuals[f"{s}~{s2}"]) and math.isnan(report.max_residual)
        assert report.pair_residuals[f"{model.pairs[0][0]}~{model.pairs[0][1]}"] <= STRUCTURAL_TOL
        assert not report.max_residual <= STRUCTURAL_TOL

    def test_deliberate_o2_violation_is_flagged(self):
        model = build_saturating_model(0.5)
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
        assert check_O2(broken).max_residual > STRUCTURAL_TOL


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
        assert model.c_ab == c
        for name, state in model.states.items():
            mass = math.fsum(d * v for d, v in zip(state.density, state.grid.volumes))
            assert mass == pytest.approx(1.0, rel=0, abs=1e-14), name
        assert global_fidelity(model) == pytest.approx(1.0 - c / 2.0 + c * c / 2.0, rel=0, abs=1e-14)
        o1, o2 = check_O1(model), check_O2(model)
        assert o1.max_residual <= 1e-14, o1
        assert o2.max_residual <= 1e-14, o2
        expected = sandwich_closed_forms(c)
        for rep in verify_sandwich_ideal(model, list(expected)):
            assert rep.residual <= 1e-14, rep
            assert (rep.l1, rep.confus) == pytest.approx(expected[rep.pair], rel=0, abs=1e-14), rep
        assert confusability(model.states["a"], model.responses["b"]) == pytest.approx(c, rel=0, abs=1e-14)
        b = model.states["b"].density
        assert np.abs(np.array(model.states["beta"].density) - np.outer(b, b).ravel()).max() <= 1e-14


class TestNoisyModelRespectsTheNoisyCeilings:
    """A noncontextual model mixed with noise stays below the noise-robust ceilings its own statistics give."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(c=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0, exclude_min=True))
    @example(c=0.5, w=5e-324)
    @example(c=0.0, w=1.0)
    @example(c=1.0, w=1e-9)
    def test_global_fidelity_within_both_noisy_ceilings(self, c, w):
        model = mix_with_uniform(build_saturating_model(c), w)
        states, responses = model.states, model.responses
        overlaps = bounds.OverlapParams(
            c_ab=confusability(states["a"], responses["b"]),
            c_ba=confusability(states["b"], responses["a"]),
            c_aabb=confusability(states["aa"], responses["bb"]),
            c_bbaa=confusability(states["bb"], responses["aa"]),
        )
        eps = measured_epsilons(model)
        budget = bounds.ErrorBudget(**{f"eps_{s}": eps[s] for s in TEST_NAMES})
        f_g = global_fidelity(model)
        assert f_g <= bounds.nc_bound_noisy(overlaps, budget).value + STRUCTURAL_TOL
        assert f_g <= bounds.nc_bound_noisy_symmetric(overlaps, budget).value + STRUCTURAL_TOL


class TestAgainstTheUniformGrid:
    """The partition model against the uniform-grid construction, at overlaps that grid holds."""

    @pytest.mark.parametrize("n, k", [(4, 0), (4, 1), (4, 2), (20, 3), (20, 10), (64, 13), (100, 37), (100, 50)])
    def test_same_quantities_and_densities(self, n, k):
        m, h = n // 2, 2.0 / n
        densities, responses = uniform_grid_model(n, k)

        def integral(x):
            return float(x.sum()) * (h if x.size == n else h * h)

        def conf(s, t):
            return integral(densities[s] * responses[t])

        model = build_saturating_model(k / m)
        assert global_fidelity(model) == pytest.approx(0.5 * conf("alpha", "aa") + 0.5 * conf("beta", "bb"),
                                                       rel=0, abs=1e-14)
        o1 = check_O1(model)
        for s in TEST_NAMES:
            assert o1.match_probs[s] == pytest.approx(conf(s, s), rel=0, abs=1e-14), s
            assert o1.leak_probs[s] == pytest.approx(conf(f"{s}_perp", s), rel=0, abs=1e-14), s
        for rep in verify_sandwich_ideal(model, list(sandwich_closed_forms(k / m))):
            s, t = rep.pair
            assert rep.l1 == pytest.approx(integral(np.abs(densities[s] - densities[t])), rel=0, abs=1e-14), rep
            assert rep.confus == pytest.approx(conf(s, t), rel=0, abs=1e-14), rep

        # Cell by cell: each cell of the partition is a block of grid cells,
        # and the model's density there is the grid density's mean over the
        # block.  The two complements holding the filler Q place it apart.
        axis = model.grid_in.edges[0]
        blocks = [slice(round(lo * m), round(hi * m)) for lo, hi in zip(axis, axis[1:])]
        for name in STATE_NAMES:
            if name in ("aa_perp", "alpha_perp"):
                continue
            d = densities[name]
            means = [d[i].mean() for i in blocks] if d.size == n else \
                [d.reshape(n, n)[i, j].mean() for i in blocks for j in blocks]
            assert model.states[name].density == pytest.approx(means, rel=0, abs=1e-14), name


class TestSandwichRelations:
    @pytest.mark.parametrize("pair", [("a", "b"), ("alpha", "aa"), ("beta", "bb"), ("aa", "bb")])
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.75])
    def test_ideal_identity_on_saturating_model(self, pair, c):
        model = build_saturating_model(c)
        (report,) = verify_sandwich_ideal(model, [pair])
        assert report.residual <= STRUCTURAL_TOL, report

    def test_ideal_identity_values_at_half(self):
        model = build_saturating_model(0.5)
        rep_ab, rep_tt = verify_sandwich_ideal(model, [("a", "b"), ("aa", "bb")])
        assert rep_ab.l1 == pytest.approx(1.0, abs=1e-12)
        assert rep_tt.l1 == pytest.approx(1.5, abs=1e-12)
        assert 2 * (1 - rep_tt.confus) == pytest.approx(1.5, abs=1e-12)

    def test_identical_inputs_give_zero_both_sides(self):
        model = build_saturating_model(1.0)
        (report,) = verify_sandwich_ideal(model, [("a", "b")])
        assert report.l1 == pytest.approx(0.0, abs=1e-12)
        assert report.confus == pytest.approx(1.0, abs=1e-12)

    def test_ideal_check_measures_an_invalid_model(self):
        # A model that fails O1 and O2 is still measured; its O1 and O2 residuals tell the caller so.
        model = build_saturating_model(0.5)
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
        assert check_O1(broken).max_residual > STRUCTURAL_TOL
        assert check_O2(broken).max_residual > STRUCTURAL_TOL
        rep_ab, rep_partner = verify_sandwich_ideal(broken, [("a", "b"), ("a_perp", "a")])
        assert rep_ab == verify_sandwich_ideal(model, [("a", "b")])[0]
        # a's rolled partner now overlaps a: l1 = 1, a's response passes it with 1/2, residual 0.
        assert (rep_partner.l1, rep_partner.confus, rep_partner.residual) == pytest.approx((1.0, 0.5, 0.0),
                                                                                            rel=0, abs=1e-15)

    @pytest.mark.parametrize("w", [0.01, 0.05, 0.1])
    def test_noisy_sandwich_on_mixed_models(self, w):
        model = mix_with_uniform(build_saturating_model(0.5), w)
        assert check_O2(model).max_residual <= STRUCTURAL_TOL
        eps = measured_epsilons(model)
        for pair in model.pairs:
            report = verify_sandwich_noisy(model, pair, eps[pair[0]], eps[pair[1]])
            assert report.margin_lower >= -STRUCTURAL_TOL and report.margin_upper >= -STRUCTURAL_TOL, (pair, report)

    def test_zero_mixing_reduces_to_equality(self):
        model = build_saturating_model(0.5)
        report = verify_sandwich_noisy(model, ("a", "b"), 0.0, 0.0)
        assert abs(report.margin_lower) <= STRUCTURAL_TOL
        assert abs(report.margin_upper) <= STRUCTURAL_TOL

    def test_undersized_allowances_give_a_negative_margin(self):
        # The model exhibits allowances of 0.05 for a and b; with none granted the lower bound overshoots.
        model = mix_with_uniform(build_saturating_model(0.5), 0.1)
        eps = measured_epsilons(model)
        assert eps["a"] > STRUCTURAL_TOL and eps["b"] > STRUCTURAL_TOL
        report = verify_sandwich_noisy(model, ("a", "b"), 0.0, 0.0)
        assert report.margin_lower == pytest.approx(-0.1, rel=0, abs=1e-15)
        assert report.margin_upper >= -STRUCTURAL_TOL

    def test_lower_bound_needs_no_equivalences(self):
        # The one-sided relation 2(1 - c - eps) <= |mu - nu| holds for any
        # pair of densities and any response, with eps the correlation
        # shortfall of nu itself; no model structure enters.
        rng = np.random.default_rng(SEED)
        grid = LambdaGrid.uniform(1, 32)
        for _ in range(200):
            mu, nu = random_state(rng, grid), random_state(rng, grid)
            xi = random_response(rng, grid)
            c_fwd = confusability(mu, xi)
            eps = 1.0 - confusability(nu, xi)
            assert l1_distance(mu, nu) >= 2.0 * (1.0 - c_fwd - eps) - 1e-12

    def test_lower_bound_on_broken_model(self):
        model = build_saturating_model(0.5)
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
        assert check_O2(broken).max_residual > STRUCTURAL_TOL
        eps = measured_epsilons(broken)
        report = verify_sandwich_noisy(broken, ("a", "b"), eps["a"], eps["b"])
        assert report.margin_lower >= -STRUCTURAL_TOL
