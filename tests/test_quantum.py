"""Quantum-simulation tests: geometry, Born rule, the depolarized ensemble and
the independent clone search against the closed forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonectx import bounds, cloner
from clonectx.quantum import (
    DensityOperator,
    PureState,
    TwoOutcomeMeasurement,
    born,
    construct_optimal_clones,
    depolarize,
    make_input_pair,
    noisy_ensemble,
    optimal_clone_pair,
    simulate_confusabilities,
)

V_GRID = (0.015, 0.1, 0.3)
C_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestInputPair:
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_overlap_is_exact(self, c):
        ket_a, ket_b = make_input_pair(c)
        assert ket_a.overlap2(ket_b) == pytest.approx(c, abs=1e-12)

    def test_identical_inputs_use_the_first_axis(self):
        ket_a, ket_b = make_input_pair(1.0)
        np.testing.assert_allclose(ket_a.amplitudes, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ket_b.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_orthogonal_inputs(self):
        ket_a, ket_b = make_input_pair(0.0)
        assert abs(np.vdot(ket_a.amplitudes, ket_b.amplitudes)) < 1e-12


class TestOperators:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_effect_rejects_spectrum_above_one(self):
        with pytest.raises(ValueError):
            TwoOutcomeMeasurement(np.eye(2) * 1.5)

    def test_born_trivials(self):
        ket_a, _ = make_input_pair(0.5)
        rho = ket_a.density()
        proj = TwoOutcomeMeasurement(np.outer(ket_a.amplitudes, ket_a.amplitudes.conj()))
        anti = TwoOutcomeMeasurement(np.eye(2) - proj.effect)
        assert born(rho, proj) == pytest.approx(1.0, abs=1e-12)
        assert born(rho, anti) == pytest.approx(0.0, abs=1e-12)

    def test_born_dimension_mismatch(self):
        ket_a, _ = make_input_pair(0.5)
        with pytest.raises(ValueError):
            born(ket_a.density(), TwoOutcomeMeasurement(np.eye(4) / 2))

    def test_depolarize_endpoints(self):
        psi = PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        rho = psi.density()
        np.testing.assert_allclose(depolarize(rho, 0.0).matrix, rho.matrix, atol=1e-15)
        np.testing.assert_allclose(depolarize(rho, 1.0).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_depolarize_in_any_dimension(self):
        for d in (2, 4):
            psi = np.zeros(d, dtype=complex)
            psi[0], psi[-1] = 0.6, 0.8j
            rho = PureState(psi).density()
            for v in V_GRID:
                want = (1.0 - v) * rho.matrix + v * np.eye(d) / d
                np.testing.assert_allclose(depolarize(rho, v).matrix, want, atol=1e-15)

    @pytest.mark.parametrize("v", V_GRID)
    def test_single_copy_noise_via_partial_trace(self, v):
        # Depolarizing the qubit directly agrees with depolarizing it next to
        # an ancilla |0> and tracing the ancilla out.
        ket_a, _ = make_input_pair(0.3)
        joint = PureState(np.kron(ket_a.amplitudes, np.array([1.0, 0.0], dtype=complex))).density()
        traced = np.einsum("ikjk->ij", depolarize(joint, v).matrix.reshape(2, 2, 2, 2))
        got = depolarize(ket_a.density(), v)
        np.testing.assert_allclose(got.matrix, traced, atol=1e-14)


class TestCloneOptimizer:
    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 0.9, 1e-4, 1e-3])
    def test_matches_closed_form(self, c):
        result = construct_optimal_clones(c)
        assert result.fidelity == pytest.approx(bounds.quantum_optimal_fidelity(c), abs=1e-7)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 0.9, 1e-4, 1e-3])
    def test_overlap_constraint_held(self, c):
        result = construct_optimal_clones(c)
        assert result.overlap_error <= 1e-9
        got = np.vdot(result.alpha.amplitudes, result.beta.amplitudes)
        assert got.real == pytest.approx(np.sqrt(c), abs=1e-9)

    def test_half_overlap_value(self):
        assert construct_optimal_clones(0.5).fidelity == pytest.approx(0.98296291314453414, abs=1e-7)

    def test_endpoints_are_trivial(self):
        for c in (0.0, 1.0):
            result = construct_optimal_clones(c)
            assert result.fidelity == 1.0

    @pytest.mark.parametrize("c", C_GRID)
    def test_closed_form_pair_achieves_the_optimum(self, c):
        alpha, beta = optimal_clone_pair(c)
        ket_a, _ = make_input_pair(c)
        aa = np.kron(ket_a.amplitudes, ket_a.amplitudes)
        _, ket_b = make_input_pair(c)
        bb = np.kron(ket_b.amplitudes, ket_b.amplitudes)
        f = 0.5 * abs(np.vdot(aa, alpha.amplitudes)) ** 2 + 0.5 * abs(np.vdot(bb, beta.amplitudes)) ** 2
        assert f == pytest.approx(bounds.quantum_optimal_fidelity(c), abs=1e-13)
        assert np.vdot(alpha.amplitudes, beta.amplitudes).real == pytest.approx(np.sqrt(c), abs=1e-13)

    @pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0])
    def test_plane_basis_is_the_kron_of_the_inputs(self, c):
        # noisy_ensemble builds its two-copy states from this frame, so it must
        # be exactly the Kronecker products of make_input_pair's kets.
        ket_a, ket_b = make_input_pair(c)
        aa, bb, e1, e2, e3 = (np.array(x) for x in cloner.plane_basis(c))
        assert np.array_equal(aa, np.kron(ket_a.amplitudes, ket_a.amplitudes).real)
        assert np.array_equal(bb, np.kron(ket_b.amplitudes, ket_b.amplitudes).real)
        frame = np.array([e1, e2, e3])
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)

    @settings(derandomize=True, database=None, max_examples=60)
    @given(c=st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-6, 0.05), st.floats(0.95, 1.0 - 1e-6)))
    def test_search_reaches_the_closed_form_to_rounding(self, c):
        found = cloner.search_clones(c)
        assert abs(found.fidelity - bounds.quantum_optimal_fidelity(c)) <= 1e-14
        assert found.overlap_error <= 1e-14
        assert found.grid_fidelity <= found.fidelity + 1e-15

    def test_states_wrap_the_search(self):
        found, result = cloner.search_clones(0.3), construct_optimal_clones(0.3)
        assert np.array_equal(result.alpha.amplitudes, np.array(found.alpha, dtype=complex))
        assert np.array_equal(result.beta.amplitudes, np.array(found.beta, dtype=complex))
        assert (result.fidelity, result.overlap_error, result.grid_fidelity) == (
            found.fidelity, found.overlap_error, found.grid_fidelity)


class TestNoisyEnsemble:
    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_mixing_equivalences_are_matrix_identities(self, v, c):
        residuals = noisy_ensemble(v, c).equivalence_residuals()
        assert max(residuals.values()) <= 1e-12, residuals

    def test_input_pair_mixture_is_maximally_mixed(self):
        ens = noisy_ensemble(0.1, 0.5)
        mix = 0.5 * (ens.states["a"].matrix + ens.states["a_perp"].matrix)
        np.testing.assert_allclose(mix, np.eye(2) / 2.0, atol=1e-14)
        mix_b = 0.5 * (ens.states["b"].matrix + ens.states["b_perp"].matrix)
        np.testing.assert_allclose(mix_b, np.eye(2) / 2.0, atol=1e-14)

    def test_noiseless_ensemble_is_ideal(self):
        rec = simulate_confusabilities(0.0, 0.35)
        assert rec.overlaps.c_ab == pytest.approx(0.35, abs=1e-12)
        assert rec.overlaps.c_aabb == pytest.approx(0.35**2, abs=1e-12)
        assert max(
            rec.budget.eps_a, rec.budget.eps_b, rec.budget.eps_alpha,
            rec.budget.eps_beta, rec.budget.eps_aa, rec.budget.eps_bb,
        ) <= 1e-12
        assert rec.f_global == pytest.approx(bounds.quantum_optimal_fidelity(0.35), abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_collapsed_span_closes_without_warning(self, c):
        # At both endpoints the clone outputs coincide with the targets, but
        # the plane every two-copy partner is turned in stays two-dimensional.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = noisy_ensemble(0.1, c)
        assert max(ens.equivalence_residuals().values()) <= 1e-12

    @settings(derandomize=True, database=None)
    @given(
        v=st.floats(0.0, 1.0),
        c=st.one_of(
            st.floats(0.0, 1.0),
            st.integers(1, 16).map(lambda e: float("0." + "9" * e)),  # the double nearest 1 - 10**-e
            st.sampled_from([0.0, 1.0]),
        ),
    )
    def test_whole_domain_matches_the_closed_forms(self, v, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ens = noisy_ensemble(v, c)
            rec = ens.record()
        assert set(ens.states) == set(bounds.STATE_NAMES)
        assert list(ens.equivalence_residuals()) == ["a~b", "alpha~aa", "beta~bb", "aa~bb"]
        assert max(ens.equivalence_residuals().values()) <= 1e-12
        eb = bounds.depolarizing_epsilons(v)
        for s in bounds.TEST_NAMES:
            assert getattr(rec.budget, f"eps_{s}") == pytest.approx(getattr(eb, f"eps_{s}"), abs=1e-12)
        assert rec.overlaps.c_ab == pytest.approx(bounds.observed_confusability(v, c), abs=1e-12)
        assert rec.overlaps.c_aabb == pytest.approx(bounds.observed_target_confusability(v, c), abs=1e-12)
        assert rec.f_global == pytest.approx(bounds.quantum_noisy_fidelity(v, c), abs=1e-12)


class TestSimulatedProbabilities:
    @pytest.mark.parametrize("v", V_GRID)
    def test_epsilons_match_closed_forms(self, v):
        rec = simulate_confusabilities(v, 0.5)
        eb = bounds.depolarizing_epsilons(v)
        assert rec.budget.eps_a == pytest.approx(eb.eps_a, abs=1e-12)
        assert rec.budget.eps_b == pytest.approx(eb.eps_b, abs=1e-12)
        assert rec.budget.eps_alpha == pytest.approx(eb.eps_alpha, abs=1e-12)
        assert rec.budget.eps_beta == pytest.approx(eb.eps_beta, abs=1e-12)
        assert rec.budget.eps_aa == pytest.approx(eb.eps_aa, abs=1e-12)
        assert rec.budget.eps_bb == pytest.approx(eb.eps_bb, abs=1e-12)

    def test_published_noise_level(self):
        rec = simulate_confusabilities(0.015, 0.5)
        assert rec.budget.eps_a == pytest.approx(0.0148875, abs=1e-12)
        assert rec.budget.eps_aa == pytest.approx(0.03324628125, abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_observed_confusability_closed_form(self, v, c):
        rec = simulate_confusabilities(v, c)
        assert rec.overlaps.c_ab == pytest.approx(bounds.observed_confusability(v, c), abs=1e-12)
        assert rec.overlaps.c_ba == pytest.approx(rec.overlaps.c_ab, abs=1e-12)
        assert rec.overlaps.c_aabb == pytest.approx(bounds.observed_target_confusability(v, c), abs=1e-12)
        assert rec.overlaps.c_bbaa == pytest.approx(rec.overlaps.c_aabb, abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_global_fidelity_matches_closed_form(self, v, c):
        rec = simulate_confusabilities(v, c)
        assert rec.f_global == pytest.approx(bounds.quantum_noisy_fidelity(v, c), abs=1e-12)

    def test_o2_residual_reported(self):
        rec = simulate_confusabilities(0.1, 0.4)
        assert 0.0 <= rec.o2_residual <= 1e-12
