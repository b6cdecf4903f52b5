"""Quantum-simulation tests: geometry, Born rule, the depolarized ensemble and
the independent clone search against the closed forms, and the pure-Python
operators against numpy references built here."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonectx import bounds, cloner, quantum
from clonectx.quantum import (
    HERMITIAN_TOL,
    DensityOperator,
    PureState,
    TwoOutcomeMeasurement,
    born,
    depolarize,
    make_input_pair,
    noisy_ensemble,
    optimal_clone_pair,
)

V_GRID = (0.015, 0.1, 0.3)
C_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
NAN = float("nan")
# The whole (v, c) domain, with c's edges and the doubles nearest 1 - 10**-e.
V_DOMAIN = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-9, 1.0 - 1e-10, 1.0]))
C_DOMAIN = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, 16).map(lambda e: float("0." + "9" * e)),
    st.sampled_from([0.0, 1e-9, 1.0 - 1e-10, 1.0]),
)


def numpy_ensemble(v, c):
    """Every preparation and test matrix of the noisy experiment, built with np.outer and np.eye."""
    theta = 0.5 * math.acos(math.sqrt(c))
    a = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    b = np.array([math.cos(theta), -math.sin(theta)], dtype=complex)
    aa, bb = np.kron(a, a), np.kron(b, b)
    e1 = (aa + bb) / math.sqrt(2.0 + 2.0 * c)
    e2 = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rc = math.sqrt(c)
    cos_psi, sin_psi = math.sqrt((1.0 + rc) / 2.0), math.sqrt((1.0 - rc) / 2.0)
    kets = {"a": a, "b": b, "alpha": cos_psi * e1 + sin_psi * e2, "beta": cos_psi * e1 - sin_psi * e2,
            "aa": aa, "bb": bb}
    x, y = np.eye(2)
    turn = {2: np.outer(y, x) - np.outer(x, y), 4: np.outer(e2, e1) - np.outer(e1, e2)}
    kets.update({f"{s}_perp": turn[psi.size] @ psi for s, psi in kets.items()})

    def depolarize_np(rho):
        return (1.0 - v) * rho + v * np.eye(len(rho)) / len(rho)

    def prepare(psi):
        rho = depolarize_np(np.outer(psi, psi.conj()))
        return rho if psi.size == 2 else depolarize_np(rho)

    states = {name: prepare(kets[name]) for name in bounds.STATE_NAMES}
    tests = {s: depolarize_np(np.outer(kets[s], kets[s].conj())) for s in bounds.TEST_NAMES}
    return states, tests


@st.composite
def hermitian_spectra(draw, d):
    """A random unitary (QR of a complex matrix) and a spectrum in [0, 1] of dimension ``d``."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d))
    z = np.array(entries[: d * d]).reshape(d, d) + 1j * np.array(entries[d * d:]).reshape(d, d)
    q, _ = np.linalg.qr(z + np.eye(d))
    spectrum = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    return q, spectrum


def hermitian(q, spectrum):
    m = (q * spectrum) @ q.conj().T
    return 0.5 * (m + m.conj().T)


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

    def test_effect_rejects_spectrum_below_zero(self):
        with pytest.raises(ValueError, match="escapes"):
            TwoOutcomeMeasurement(np.diag([1.0, -1e-9]))

    def test_effect_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            TwoOutcomeMeasurement(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_overlap_rejects_states_of_different_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 and 4"):
            PureState([1.0, 0.0]).overlap2(PureState([1.0, 0.0, 0.0, 0.0]))

    def test_density_rejects_trace_off_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2) * (0.5 + 1e-9))

    @pytest.mark.parametrize("make", [
        lambda: PureState([1.0, 0.0, 0.0]),
        lambda: PureState([[1.0, 0.0], [0.0, 0.0]]),
        lambda: DensityOperator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        lambda: DensityOperator([1.0, 0.0]),
        lambda: DensityOperator(np.eye(3) / 3.0),
        lambda: TwoOutcomeMeasurement([[1.0, 0.0], [0.0]]),
    ], ids=["state-3", "state-2x2", "density-2x3", "density-vector", "density-3x3", "effect-ragged"])
    def test_shapes_other_than_2_or_4_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: PureState([NAN, 0.0]),
        lambda: PureState([1.0, NAN]),
        lambda: DensityOperator([[NAN, 0.0], [0.0, 0.5]]),
        lambda: DensityOperator([[0.5, NAN], [NAN, 0.5]]),
        lambda: DensityOperator(np.diag([0.5, complex(0.5, NAN)])),
        lambda: TwoOutcomeMeasurement([[NAN, 0.0], [0.0, 0.5]]),
        lambda: TwoOutcomeMeasurement([[0.5, 0.0], [0.0, NAN]]),
        lambda: DensityOperator(np.diag([math.inf, 0.5])),
    ], ids=["state-first", "state-second", "density-diagonal", "density-off-diagonal", "density-imaginary",
            "effect-first", "effect-last", "density-inf"])
    def test_nan_entries_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_spectrum_check_fails_on_nan(self):
        # The constructors' Hermitian check meets a NaN first; the Cholesky
        # check on its own must still fail one rather than pass it.
        assert not quantum._spectrum_above(((complex(NAN), 0j), (0j, 1 + 0j)), -HERMITIAN_TOL)
        assert not quantum._spectrum_above(((1 + 0j, complex(NAN)), (complex(NAN), 1 + 0j)), -HERMITIAN_TOL)

    def test_born_rejects_nan_that_bypassed_the_constructor(self):
        rho = tuple.__new__(DensityOperator, (((complex(NAN), 0j), (0j, 0.5 + 0j)),))
        with pytest.raises(ValueError):
            born(rho, TwoOutcomeMeasurement(np.eye(2)))

    def test_born_clips_within_tolerance_and_rejects_beyond(self):
        rho = DensityOperator(np.diag([1.0 + 5e-13, -5e-13]))
        assert born(rho, TwoOutcomeMeasurement(np.diag([0.0, 1.0]))) == 0.0
        assert born(rho, TwoOutcomeMeasurement(np.diag([1.0, 0.0]))) == 1.0
        rho = tuple.__new__(DensityOperator, (((1.0 + 1e-9 + 0j, 0j), (0j, -1e-9 + 0j)),))
        with pytest.raises(ValueError, match="outside"):
            born(rho, TwoOutcomeMeasurement(np.diag([0.0, 1.0])))

    def test_born_trivials(self):
        ket_a, _ = make_input_pair(0.5)
        rho = ket_a.density()
        ket = np.array(ket_a.amplitudes)
        proj = TwoOutcomeMeasurement(np.outer(ket, ket.conj()))
        anti = TwoOutcomeMeasurement(np.eye(2) - np.array(proj.effect))
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
                want = (1.0 - v) * np.array(rho.matrix) + v * np.eye(d) / d
                np.testing.assert_allclose(depolarize(rho, v).matrix, want, atol=1e-15)

    @pytest.mark.parametrize("v", V_GRID)
    def test_single_copy_noise_via_partial_trace(self, v):
        # Depolarizing the qubit directly agrees with depolarizing it next to
        # an ancilla |0> and tracing the ancilla out.
        ket_a, _ = make_input_pair(0.3)
        joint = PureState(np.kron(ket_a.amplitudes, np.array([1.0, 0.0], dtype=complex))).density()
        traced = np.einsum("ikjk->ij", np.array(depolarize(joint, v).matrix).reshape(2, 2, 2, 2))
        got = depolarize(ket_a.density(), v)
        np.testing.assert_allclose(got.matrix, traced, atol=1e-14)


class TestAgainstNumpy:
    @settings(derandomize=True, database=None, deadline=None)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_ensemble_matches_the_numpy_construction(self, v, c):
        ens = noisy_ensemble(v, c)
        states, tests = numpy_ensemble(v, c)
        for got, want in [(ens.states, states), (ens.tests, tests)]:
            for name, op in got.items():
                matrix = op.matrix if isinstance(op, DensityOperator) else op.effect
                assert np.max(np.abs(np.array(matrix) - want[name])) <= 1e-15, name

    @settings(derandomize=True, database=None, deadline=None)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_born_matches_the_numpy_trace(self, v, c):
        ens = noisy_ensemble(v, c)
        for rho in ens.states.values():
            for test in ens.tests.values():
                if rho.dim == test.dim:
                    want = np.trace(np.array(rho.matrix) @ np.array(test.effect)).real
                    assert abs(born(rho, test) - min(max(want, 0.0), 1.0)) <= 1e-15

    # The Cholesky test against the spectrum, on operators in the domain it
    # guards (spectra within a unit interval), at random and 1e-3 * tol
    # either side of the threshold.
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(d=st.sampled_from([2, 4]), data=st.data(),
           floor=st.sampled_from([None, 1.0 + 1e-3, 1.0 - 1e-3]))
    def test_density_spectrum_check_agrees_with_eigvalsh(self, d, data, floor):
        q, spectrum = data.draw(hermitian_spectra(d))
        if spectrum.sum() == 0.0:
            spectrum[0] = 1.0
        spectrum = spectrum / spectrum.sum()
        if floor is not None:
            i = int(np.argmin(spectrum))
            spectrum[i] = -floor * HERMITIAN_TOL
            spectrum[(i + 1) % d] += 1.0 - spectrum.sum()  # the trace stays 1
        m = hermitian(q, spectrum)
        rejected = np.linalg.eigvalsh(m).min() < -HERMITIAN_TOL
        try:
            DensityOperator(m)
        except ValueError as exc:
            assert rejected, exc
        else:
            assert not rejected

    # The upper edge is judged 1e-2 * tol either side: 1 + tol is itself
    # rounded to the 2.2e-16 spacing of doubles near 1, so 1e-3 * tol there is
    # within five units in the last place of both routes.
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(d=st.sampled_from([2, 4]), data=st.data(),
           edge=st.sampled_from([None, ("low", 1.0 + 1e-3), ("low", 1.0 - 1e-3),
                                 ("high", 1.0 + 1e-2), ("high", 1.0 - 1e-2)]))
    def test_effect_spectrum_check_agrees_with_eigvalsh(self, d, data, edge):
        q, spectrum = data.draw(hermitian_spectra(d))
        if edge is not None:
            side, scale = edge
            if side == "low":
                spectrum = spectrum - spectrum.min() - scale * HERMITIAN_TOL
            else:
                spectrum = spectrum - spectrum.max() + 1.0 + scale * HERMITIAN_TOL
        m = hermitian(q, spectrum)
        eigs = np.linalg.eigvalsh(m)
        rejected = eigs.min() < -HERMITIAN_TOL or eigs.max() > 1.0 + HERMITIAN_TOL
        try:
            TwoOutcomeMeasurement(m)
        except ValueError as exc:
            assert rejected, exc
        else:
            assert not rejected


class TestCloneOptimizer:
    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 0.9, 1e-4, 1e-3])
    def test_matches_closed_form(self, c):
        result = cloner.search_clones(c)
        assert result.fidelity == pytest.approx(bounds.quantum_optimal_fidelity(c), abs=1e-7)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 0.9, 1e-4, 1e-3])
    def test_overlap_constraint_held(self, c):
        result = cloner.search_clones(c)
        assert result.overlap_error <= 1e-9
        got = np.vdot(result.alpha, result.beta)
        assert got.real == pytest.approx(np.sqrt(c), abs=1e-9)

    def test_half_overlap_value(self):
        assert cloner.search_clones(0.5).fidelity == pytest.approx(0.98296291314453414, abs=1e-7)

    def test_endpoints_are_trivial(self):
        for c in (0.0, 1.0):
            result = cloner.search_clones(c)
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

    @pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0])
    def test_inputs_and_targets_take_the_one_gauge_bit_for_bit(self, c):
        # repr tells every float apart, the sign of a zero included.
        ket_a, ket_b = cloner.input_pair(c)
        assert repr(make_input_pair(c)) == repr((PureState(ket_a), PureState(ket_b)))
        (a0, a1), (b0, b1) = ket_a, ket_b
        aa, bb = cloner.plane_basis(c)[:2]
        assert repr(aa) == repr((a0 * a0, a0 * a1, a1 * a0, a1 * a1))
        assert repr(bb) == repr((b0 * b0, b0 * b1, b1 * b0, b1 * b1))

    @settings(derandomize=True, database=None, max_examples=60)
    @given(c=st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-6, 0.05), st.floats(0.95, 1.0 - 1e-6)))
    def test_search_reaches_the_closed_form_to_rounding(self, c):
        found = cloner.search_clones(c)
        assert abs(found.fidelity - bounds.quantum_optimal_fidelity(c)) <= 1e-14
        assert found.overlap_error <= 1e-14
        assert found.grid_fidelity <= found.fidelity + 1e-15


class TestNoisyEnsemble:
    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_mixing_equivalences_are_matrix_identities(self, v, c):
        residuals = noisy_ensemble(v, c).equivalence_residuals()
        assert max(residuals.values()) <= 1e-12, residuals

    def test_a_nan_after_the_first_entry_is_the_equivalence_residual(self):
        # Past DensityOperator's own check, which would reject the NaN.
        ens = noisy_ensemble(0.015, 0.5)
        *rows, last = ens.states["bb"].matrix
        bb = tuple.__new__(DensityOperator, ((*rows, (*last[:-1], complex(NAN))),))
        residuals = ens._replace(states={**ens.states, "bb": bb}).equivalence_residuals()
        # bb's last entry is the last term of both equivalences that mix bb.
        assert math.isnan(residuals["beta~bb"]) and math.isnan(residuals["aa~bb"])
        assert residuals["a~b"] <= 1e-12 and residuals["alpha~aa"] <= 1e-12

    def test_a_nan_pair_after_the_first_is_the_o2_residual(self, monkeypatch):
        real = quantum.NoisyEnsemble.equivalence_residuals
        monkeypatch.setattr(quantum.NoisyEnsemble, "equivalence_residuals", lambda ens: {**real(ens), "later": NAN})
        assert math.isnan(noisy_ensemble(0.015, 0.5).record().o2_residual)

    def test_a_nan_leak_fails_the_error_budget(self, monkeypatch):
        # Past born's own check, which would reject the NaN; the leak is the later term of eps_bb.
        ens = noisy_ensemble(0.015, 0.5)
        leak, real = ens.states["bb_perp"], quantum.born
        monkeypatch.setattr(quantum, "born", lambda rho, m: NAN if rho is leak else real(rho, m))
        with pytest.raises(ValueError, match=r"^eps_bb must lie in \[0, 1\], got nan$"):
            ens.record()

    def test_input_pair_mixture_is_maximally_mixed(self):
        ens = noisy_ensemble(0.1, 0.5)
        mix = 0.5 * (np.array(ens.states["a"].matrix) + np.array(ens.states["a_perp"].matrix))
        np.testing.assert_allclose(mix, np.eye(2) / 2.0, atol=1e-14)
        mix_b = 0.5 * (np.array(ens.states["b"].matrix) + np.array(ens.states["b_perp"].matrix))
        np.testing.assert_allclose(mix_b, np.eye(2) / 2.0, atol=1e-14)

    def test_noiseless_ensemble_is_ideal(self):
        rec = noisy_ensemble(0.0, 0.35).record()
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
        rec = noisy_ensemble(v, 0.5).record()
        eb = bounds.depolarizing_epsilons(v)
        assert rec.budget.eps_a == pytest.approx(eb.eps_a, abs=1e-12)
        assert rec.budget.eps_b == pytest.approx(eb.eps_b, abs=1e-12)
        assert rec.budget.eps_alpha == pytest.approx(eb.eps_alpha, abs=1e-12)
        assert rec.budget.eps_beta == pytest.approx(eb.eps_beta, abs=1e-12)
        assert rec.budget.eps_aa == pytest.approx(eb.eps_aa, abs=1e-12)
        assert rec.budget.eps_bb == pytest.approx(eb.eps_bb, abs=1e-12)

    def test_published_noise_level(self):
        rec = noisy_ensemble(0.015, 0.5).record()
        assert rec.budget.eps_a == pytest.approx(0.0148875, abs=1e-12)
        assert rec.budget.eps_aa == pytest.approx(0.03324628125, abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_observed_confusability_closed_form(self, v, c):
        rec = noisy_ensemble(v, c).record()
        assert rec.overlaps.c_ab == pytest.approx(bounds.observed_confusability(v, c), abs=1e-12)
        assert rec.overlaps.c_ba == pytest.approx(rec.overlaps.c_ab, abs=1e-12)
        assert rec.overlaps.c_aabb == pytest.approx(bounds.observed_target_confusability(v, c), abs=1e-12)
        assert rec.overlaps.c_bbaa == pytest.approx(rec.overlaps.c_aabb, abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_global_fidelity_matches_closed_form(self, v, c):
        rec = noisy_ensemble(v, c).record()
        assert rec.f_global == pytest.approx(bounds.quantum_noisy_fidelity(v, c), abs=1e-12)

    def test_o2_residual_reported(self):
        rec = noisy_ensemble(0.1, 0.4).record()
        assert 0.0 <= rec.o2_residual <= 1e-12
