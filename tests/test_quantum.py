"""Quantum-simulation tests: geometry, Born rule, the depolarized ensemble and
the independent clone search against the closed forms, and the pure-Python
operators against numpy references built here."""

import collections
import decimal
import fractions
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
    born,
    depolarize,
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
    a = np.array([math.cos(theta), math.sin(theta)])
    b = np.array([math.cos(theta), -math.sin(theta)])
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
        rho = depolarize_np(np.outer(psi, psi))
        return rho if psi.size == 2 else depolarize_np(rho)

    states = {name: prepare(kets[name]) for name in bounds.STATE_NAMES}
    tests = {s: depolarize_np(np.outer(kets[s], kets[s])) for s in bounds.TEST_NAMES}
    return states, tests


@st.composite
def symmetric_spectra(draw, d):
    """A random orthogonal matrix (QR of a real matrix) and a spectrum in [0, 1] of dimension ``d``."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
    q, _ = np.linalg.qr(np.array(entries).reshape(d, d) + np.eye(d))
    spectrum = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    return q, spectrum


def symmetric(q, spectrum):
    m = (q * spectrum) @ q.T
    return 0.5 * (m + m.T)


class TestInputPair:
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
    def test_overlap_is_exact(self, c):
        ket_a, ket_b = cloner.input_pair(c)
        assert abs(np.vdot(ket_a, ket_b)) ** 2 == pytest.approx(c, abs=1e-12)

    def test_identical_inputs_use_the_first_axis(self):
        ket_a, ket_b = cloner.input_pair(1.0)
        np.testing.assert_allclose(ket_a, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ket_b, [1.0, 0.0], atol=1e-15)

    def test_orthogonal_inputs(self):
        ket_a, ket_b = cloner.input_pair(0.0)
        assert abs(np.vdot(ket_a, ket_b)) < 1e-12


class TestOperators:
    @pytest.mark.parametrize("ket", [(1.0, 1.0), (1.0 + 2e-12, 0.0), (0.5, 0.5, 0.5, 0.5 + 2e-12)],
                             ids=["norm-sqrt2", "norm-2e-12", "norm-2e-12-dim4"])
    def test_ketbra_rejects_a_ket_off_unit_norm(self, ket):
        with pytest.raises(ValueError, match="trace"):
            quantum._ketbra(ket)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_density_rejects_an_eigenvalue_just_below_zero(self):
        # The trace is 1 to the last bit, so the spectrum test alone must reject it.
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityOperator(np.diag([1.0 + 1e-9, -1e-9]))

    def test_density_rejects_trace_off_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2) * (0.5 + 1e-9))

    @pytest.mark.parametrize("make", [
        lambda: quantum._ketbra([1.0, 0.0, 0.0]),
        lambda: quantum._ketbra([1.0, 0.0, 0.0, 0.0, 0.0]),
        lambda: quantum._ketbra(()),
        lambda: DensityOperator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        lambda: DensityOperator([1.0, 0.0]),
        lambda: DensityOperator(np.eye(3) / 3.0),
        lambda: DensityOperator([[1.0, 0.0], [0.0]]),
    ], ids=["ket-3", "ket-5", "ket-empty", "density-2x3", "density-vector", "density-3x3", "density-ragged"])
    def test_shapes_other_than_2_or_4_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: quantum._ketbra([NAN, 0.0]),
        lambda: quantum._ketbra([1.0, NAN]),
        lambda: quantum._ketbra([0.5, 0.5, 0.5, NAN]),
        lambda: DensityOperator([[NAN, 0.0], [0.0, 0.5]]),
        lambda: DensityOperator([[0.5, NAN], [NAN, 0.5]]),
        lambda: DensityOperator(((0.5, 0.0), (0.0, complex(0.5, NAN)))),
        lambda: DensityOperator([[0.5, 0.0], [0.0, NAN]]),
        lambda: DensityOperator(np.diag([math.inf, 0.5])),
    ], ids=["ket-first", "ket-second", "ket-dim4-last", "density-diagonal", "density-off-diagonal", "density-imaginary",
            "density-last", "density-inf"])
    def test_nan_entries_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("entry", [
        int, np.float32, np.float64, fractions.Fraction, decimal.Decimal,
    ], ids=["int", "numpy-float32", "numpy-float64", "fraction", "decimal"])
    def test_real_entries_of_any_number_type_read_as_floats(self, entry):
        # A Fraction or Decimal has the __complex__ of a complex entry, but also the __trunc__ of a real one.
        rho = DensityOperator(((entry(1), entry(0)), (entry(0), entry(0))))
        assert repr(rho.matrix) == repr(((1.0, 0.0), (0.0, 0.0)))

    def test_spectrum_check_fails_on_nan(self):
        # The constructor's symmetry check meets an off-diagonal NaN first, a
        # diagonal one only the Cholesky; on its own it must fail either.
        assert not quantum._spectrum_above(((NAN, 0.0), (0.0, 1.0)))
        assert not quantum._spectrum_above(((1.0, NAN), (NAN, 1.0)))

    def test_born_rejects_nan_that_bypassed_the_constructor(self):
        rho = tuple.__new__(DensityOperator, (((NAN, 0.0), (0.0, 0.5)),))
        with pytest.raises(ValueError):
            born(rho, DensityOperator(np.eye(2) / 2))

    def test_born_clips_within_tolerance_and_rejects_beyond(self):
        rho = DensityOperator(np.diag([1.0 + 5e-13, -5e-13]))
        assert born(rho, DensityOperator(np.diag([0.0, 1.0]))) == 0.0
        assert born(rho, DensityOperator(np.diag([1.0, 0.0]))) == 1.0
        rho = tuple.__new__(DensityOperator, (((1.0 + 1e-9, 0.0), (0.0, -1e-9)),))
        with pytest.raises(ValueError, match="outside"):
            born(rho, DensityOperator(np.diag([0.0, 1.0])))

    def test_born_trivials(self):
        ket_a, _ = cloner.input_pair(0.5)
        rho = quantum._ketbra(ket_a)
        ket = np.array(ket_a)
        proj = DensityOperator(np.outer(ket, ket))
        anti = DensityOperator(np.eye(2) - np.array(proj.matrix))  # trace 1 in two dimensions
        assert born(rho, proj) == pytest.approx(1.0, abs=1e-12)
        assert born(rho, anti) == pytest.approx(0.0, abs=1e-12)

    def test_born_dimension_mismatch(self):
        ket_a, _ = cloner.input_pair(0.5)
        with pytest.raises(ValueError):
            born(quantum._ketbra(ket_a), DensityOperator(np.eye(4) / 4))

    def test_depolarize_endpoints(self):
        rho = quantum._ketbra((1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(depolarize(rho, 0.0).matrix, rho.matrix, atol=1e-15)
        np.testing.assert_allclose(depolarize(rho, 1.0).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_depolarize_in_any_dimension(self):
        for d in (2, 4):
            psi = np.zeros(d)
            psi[0], psi[-1] = 0.6, -0.8
            rho = quantum._ketbra(tuple(psi))
            for v in V_GRID:
                want = (1.0 - v) * np.array(rho.matrix) + v * np.eye(d) / d
                np.testing.assert_allclose(depolarize(rho, v).matrix, want, atol=1e-15)

    @pytest.mark.parametrize("v", V_GRID)
    def test_single_copy_noise_via_partial_trace(self, v):
        # Depolarizing the qubit directly agrees with depolarizing it next to
        # an ancilla |0> and tracing the ancilla out.
        ket_a, _ = cloner.input_pair(0.3)
        joint = quantum._ketbra(tuple(np.kron(ket_a, [1.0, 0.0])))
        traced = np.einsum("ikjk->ij", np.array(depolarize(joint, v).matrix).reshape(2, 2, 2, 2))
        got = depolarize(quantum._ketbra(ket_a), v)
        np.testing.assert_allclose(got.matrix, traced, atol=1e-14)


class TestAgainstNumpy:
    @settings(derandomize=True, database=None, deadline=None)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_ensemble_matches_the_numpy_construction(self, v, c):
        ens = noisy_ensemble(v, c)
        states, tests = numpy_ensemble(v, c)
        for got, want in [(ens.states, states), (ens.tests, tests)]:
            for name, op in got.items():
                assert np.max(np.abs(np.array(op.matrix) - want[name])) <= 1e-15, name

    @settings(derandomize=True, database=None, deadline=None)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_born_matches_the_numpy_trace(self, v, c):
        ens = noisy_ensemble(v, c)
        for rho in ens.states.values():
            for test in ens.tests.values():
                if rho.dim == test.dim:
                    want = np.trace(np.array(rho.matrix) @ np.array(test.matrix)).real
                    assert abs(born(rho, test) - min(max(want, 0.0), 1.0)) <= 1e-15

    # The Cholesky test against the spectrum, on operators in the domain it
    # guards (spectra within a unit interval), at random and 1e-3 * tol
    # either side of the threshold.
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(d=st.sampled_from([2, 4]), data=st.data(),
           floor=st.sampled_from([None, 1.0 + 1e-3, 1.0 - 1e-3]))
    def test_density_spectrum_check_agrees_with_eigvalsh(self, d, data, floor):
        q, spectrum = data.draw(symmetric_spectra(d))
        if spectrum.sum() == 0.0:
            spectrum[0] = 1.0
        spectrum = spectrum / spectrum.sum()
        if floor is not None:
            i = int(np.argmin(spectrum))
            spectrum[i] = -floor * HERMITIAN_TOL
            spectrum[(i + 1) % d] += 1.0 - spectrum.sum()  # the trace stays 1
        m = symmetric(q, spectrum)
        rejected = np.linalg.eigvalsh(m).min() < -HERMITIAN_TOL
        try:
            DensityOperator(m)
        except ValueError as exc:
            assert rejected, exc
        else:
            assert not rejected

    # A test's pass effect E is a density operator, and born reads I - E as the fail effect: the density checks
    # keep E's spectrum in [-tol, 1 + d * tol], and that bound is reached.  The d - 1 low eigenvalues sit at
    # -low * tol and the trace at 1 + trace * tol, so the top one is 1 + ((d - 1) * low + trace) * tol.  The
    # edges are judged 1e-2 * tol either side, as 1 + tol is rounded to the spacing of doubles near 1.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(d=st.sampled_from([2, 4]), data=st.data(),
           low=st.sampled_from([1.0 - 1e-2, 1.0 + 1e-2]), trace=st.sampled_from([1.0 - 1e-2, 1.0 + 1e-2]))
    def test_the_density_checks_bound_an_effects_spectrum_within_d_tol(self, d, data, low, trace):
        q, _ = data.draw(symmetric_spectra(d))
        spectrum = np.full(d, -low * HERMITIAN_TOL)
        spectrum[0] = 1.0 + ((d - 1) * low + trace) * HERMITIAN_TOL
        m = symmetric(q, spectrum)
        try:
            DensityOperator(m)
        except ValueError as exc:
            assert low > 1.0 or trace > 1.0, exc
        else:
            assert low < 1.0 and trace < 1.0
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -HERMITIAN_TOL and eigs.max() <= 1.0 + d * HERMITIAN_TOL


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
        ket_a, ket_b = cloner.input_pair(c)
        aa, bb = np.kron(ket_a, ket_a), np.kron(ket_b, ket_b)
        f = 0.5 * abs(np.vdot(aa, alpha)) ** 2 + 0.5 * abs(np.vdot(bb, beta)) ** 2
        assert f == pytest.approx(bounds.quantum_optimal_fidelity(c), abs=1e-13)
        assert np.vdot(alpha, beta).real == pytest.approx(np.sqrt(c), abs=1e-13)

    @pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0])
    def test_plane_basis_is_the_kron_of_the_inputs(self, c):
        # noisy_ensemble builds its two-copy states from this frame, so it must
        # be exactly the Kronecker products of input_pair's kets.
        ket_a, ket_b = cloner.input_pair(c)
        aa, bb, e1, e2, e3 = (np.array(x) for x in cloner.plane_basis(c))
        assert np.array_equal(aa, np.kron(ket_a, ket_a).real)
        assert np.array_equal(bb, np.kron(ket_b, ket_b).real)
        frame = np.array([e1, e2, e3])
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0])
    def test_inputs_and_targets_take_the_one_gauge_bit_for_bit(self, c):
        # repr tells every float apart, the sign of a zero included.
        ket_a, ket_b = cloner.input_pair(c)
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

    @settings(derandomize=True, database=None, deadline=None)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_every_entry_is_a_python_float(self, v, c):
        ens = noisy_ensemble(v, c)
        for name, op in [*ens.states.items(), *ens.tests.items()]:
            assert all(type(x) is float for row in op.matrix for x in row), name

    def test_a_nan_after_the_first_entry_is_the_equivalence_residual(self):
        # Past DensityOperator's own check, which would reject the NaN.
        ens = noisy_ensemble(0.015, 0.5)
        *rows, last = ens.states["bb"].matrix
        bb = tuple.__new__(DensityOperator, ((*rows, (*last[:-1], NAN)),))
        residuals = ens._replace(states={**ens.states, "bb": bb}).equivalence_residuals()
        # bb's last entry is the last term of both equivalences that mix bb.
        assert math.isnan(residuals["beta~bb"]) and math.isnan(residuals["aa~bb"])
        assert residuals["a~b"] <= 1e-12 and residuals["alpha~aa"] <= 1e-12

    def test_a_nan_pair_after_the_first_is_the_o2_residual(self, monkeypatch):
        real = quantum.NoisyEnsemble.equivalence_residuals
        monkeypatch.setattr(quantum.NoisyEnsemble, "equivalence_residuals", lambda ens: {**real(ens), "later": NAN})
        assert math.isnan(bounds._worst(noisy_ensemble(0.015, 0.5).equivalence_residuals().values()))

    def test_each_operator_is_built_once(self, monkeypatch):
        # A single-copy test's pass effect is the preparation itself: both are the ket's operator after one round.
        calls = collections.Counter()
        for name in ("_ketbra", "depolarize"):
            real = getattr(quantum, name)
            monkeypatch.setattr(quantum, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
        ens = noisy_ensemble(0.015, 0.5)
        assert calls == {"_ketbra": 12, "depolarize": 20}
        assert ens.tests["a"] is ens.states["a"] and ens.tests["b"] is ens.states["b"]

    @pytest.mark.parametrize("s", bounds.TEST_NAMES)
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(v=V_DOMAIN, c=C_DOMAIN)
    def test_each_pass_effect_has_the_depolarized_projector_spectrum(self, s, v, c):
        # (1 - v)|psi><psi| + v I/d: v/d, d - 1 times, then 1 - v + v/d, all in [0, 1], so I - E is an effect too.
        effect = noisy_ensemble(v, c).tests[s]
        d = effect.dim
        eigs = np.linalg.eigvalsh(np.array(effect.matrix))
        np.testing.assert_allclose(eigs, [v / d] * (d - 1) + [1.0 - v + v / d], rtol=0, atol=1e-14)

    def test_input_pair_mixture_is_maximally_mixed(self):
        ens = noisy_ensemble(0.1, 0.5)
        mix = 0.5 * (np.array(ens.states["a"].matrix) + np.array(ens.states["a_perp"].matrix))
        np.testing.assert_allclose(mix, np.eye(2) / 2.0, atol=1e-14)
        mix_b = 0.5 * (np.array(ens.states["b"].matrix) + np.array(ens.states["b_perp"].matrix))
        np.testing.assert_allclose(mix_b, np.eye(2) / 2.0, atol=1e-14)

    def test_noiseless_ensemble_is_ideal(self):
        p = noisy_ensemble(0.0, 0.35).pass_probability
        assert p("a", "b") == pytest.approx(0.35, abs=1e-12)
        assert p("aa", "bb") == pytest.approx(0.35**2, abs=1e-12)
        assert max(bounds.measured_epsilons(p).values()) <= 1e-12
        assert bounds.global_fidelity(p) == pytest.approx(bounds.quantum_optimal_fidelity(0.35), abs=1e-12)

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
            p = ens.pass_probability
            eps, overlaps, f_g = bounds.measured_epsilons(p), bounds.measured_overlaps(p), bounds.global_fidelity(p)
        assert set(ens.states) == set(bounds.STATE_NAMES)
        assert list(ens.equivalence_residuals()) == ["a~b", "alpha~aa", "beta~bb", "aa~bb"]
        assert max(ens.equivalence_residuals().values()) <= 1e-12
        eb = bounds.depolarizing_epsilons(v)
        for s in bounds.TEST_NAMES:
            assert eps[s] == pytest.approx(eb[s], abs=1e-12)
        assert overlaps == pytest.approx(bounds.observed_overlaps(v, c), abs=1e-12)
        assert f_g == pytest.approx(bounds.quantum_noisy_fidelity(v, c), abs=1e-12)


class TestSimulatedProbabilities:
    @pytest.mark.parametrize("v", V_GRID)
    def test_epsilons_match_closed_forms(self, v):
        eps = bounds.measured_epsilons(noisy_ensemble(v, 0.5).pass_probability)
        eb = bounds.depolarizing_epsilons(v)
        assert eps["a"] == pytest.approx(eb["a"], abs=1e-12)
        assert eps["b"] == pytest.approx(eb["b"], abs=1e-12)
        assert eps["alpha"] == pytest.approx(eb["alpha"], abs=1e-12)
        assert eps["beta"] == pytest.approx(eb["beta"], abs=1e-12)
        assert eps["aa"] == pytest.approx(eb["aa"], abs=1e-12)
        assert eps["bb"] == pytest.approx(eb["bb"], abs=1e-12)

    def test_published_noise_level(self):
        eps = bounds.measured_epsilons(noisy_ensemble(0.015, 0.5).pass_probability)
        assert eps["a"] == pytest.approx(0.0148875, abs=1e-12)
        assert eps["aa"] == pytest.approx(0.03324628125, abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_observed_confusability_closed_form(self, v, c):
        overlaps = bounds.measured_overlaps(noisy_ensemble(v, c).pass_probability)
        assert overlaps == pytest.approx(bounds.observed_overlaps(v, c), abs=1e-12)

    @pytest.mark.parametrize("v", V_GRID)
    @pytest.mark.parametrize("c", C_GRID)
    def test_global_fidelity_matches_closed_form(self, v, c):
        f_g = bounds.global_fidelity(noisy_ensemble(v, c).pass_probability)
        assert f_g == pytest.approx(bounds.quantum_noisy_fidelity(v, c), abs=1e-12)

    def test_o2_residual_reported(self):
        assert 0.0 <= bounds._worst(noisy_ensemble(0.1, 0.4).equivalence_residuals().values()) <= 1e-12
