"""Sweep and root-finding tests: figure curves, violation intervals, critical noise,
and the CSV/JSON curve writer."""

import csv
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clonectx import bounds, scan
from clonectx.scan import (
    C_MODES,
    ERR_MODES,
    DEFAULT_C_MODE,
    DEFAULT_ERR_MODE,
    CurveSeries,
    ViolationRegion,
    advantage_gap,
    critical_noise,
    figure_curves,
    violation_interval,
    write_curves,
)

PAPER_V = 0.015
PAPER_INTERVAL = (0.318, 0.718)
# Largest critical level under the default modes (maximum over c of the gap's
# root in v, at c ~ 0.532).
V_PEAK_DEFAULT = 0.0181623369


ALL_SPECS = [(e, c) for e in ERR_MODES for c in C_MODES]
for_all_specs = pytest.mark.parametrize("err_mode, c_mode", ALL_SPECS, ids=[f"{e}+{c}" for e, c in ALL_SPECS])


@functools.cache
def peak(err_mode, c_mode):
    """Largest critical noise level over c and the c of that top, from the noise-resistance curve zoomed around it."""
    cs = np.linspace(0.0, 1.0, 1001)[1:-1]
    for _ in range(4):
        levels = figure_curves(cs, c_mode, [err_mode])[f"noise_resistance_{err_mode}"].y
        i = int(np.argmax(levels))
        top = cs[i]
        cs = np.linspace(cs[max(i - 1, 0)], cs[min(i + 1, cs.size - 1)], 101)
    return max(levels), float(top)


# Every public entry that takes modes, called with (err_mode, c_mode) at a valid point.
MODE_ENTRIES = {
    "advantage_gap": lambda err_mode, c_mode: advantage_gap(PAPER_V, 0.5, err_mode, c_mode),
    "violation_interval": lambda err_mode, c_mode: violation_interval(PAPER_V, err_mode, c_mode),
    "critical_noise": lambda err_mode, c_mode: critical_noise(0.5, err_mode, c_mode),
    "figure_curves": lambda err_mode, c_mode: figure_curves([0.5], c_mode, [err_mode]),
}


class TestSpecsAndTypes:
    @pytest.mark.parametrize("entry", MODE_ENTRIES.values(), ids=MODE_ENTRIES)
    @pytest.mark.parametrize("err_mode, c_mode, kind", [("nope", DEFAULT_C_MODE, "err_mode"),
                                                        (DEFAULT_ERR_MODE, "nope", "c_mode")],
                             ids=["err_mode", "c_mode"])
    def test_unknown_mode_rejected(self, entry, err_mode, c_mode, kind):
        with pytest.raises(ValueError, match=f"{kind} must be one of"):
            entry(err_mode, c_mode)

    def test_curve_requires_increasing_abscissa(self):
        with pytest.raises(ValueError):
            CurveSeries("x", "y", (0.2, 0.1), (1.0, 1.0), "test")

    @pytest.mark.parametrize("x, y", [((0.1, math.inf), (1.0, 1.0)), ((0.1, 0.2), (math.nan, 1.0))], ids=["x-inf", "y-nan"])
    def test_curve_rejects_non_finite_values(self, x, y):
        with pytest.raises(ValueError, match="non-finite"):
            CurveSeries("x", "y", x, y, "test")

    def test_region_validation(self):
        with pytest.raises(ValueError):
            ViolationRegion(v=0.1, c_lo=0.5, c_hi=None, err_mode="thm2-direct", c_mode="ideal-overlap")
        with pytest.raises(ValueError):
            ViolationRegion(v=0.1, c_lo=0.7, c_hi=0.3, err_mode="thm2-direct", c_mode="ideal-overlap")


def fidelity_curves(grid):
    """The two fidelity tradeoff series of :func:`figure_curves`, which need no error-term mode."""
    curves = figure_curves(grid, DEFAULT_C_MODE, ())
    return curves["fidelity_quantum"], curves["fidelity_noncontextual"]


class TestFidelityCurves:
    def test_endpoints_agree_at_one(self):
        q, nc = fidelity_curves([0.0, 0.5, 1.0])
        assert q.points[0][1] == pytest.approx(1.0, abs=1e-12)
        assert q.points[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert nc.points[0][1] == pytest.approx(1.0, abs=1e-12)
        assert nc.points[-1][1] == pytest.approx(1.0, abs=1e-12)

    def test_values_at_half(self):
        q, nc = fidelity_curves([0.5])
        assert q.points[0][1] == pytest.approx(0.98296291314453414, abs=1e-12)
        assert nc.points[0][1] == pytest.approx(0.875, abs=1e-15)

    def test_quantum_dominates_inside(self):
        grid = np.linspace(0.0, 1.0, 200)
        q, nc = fidelity_curves(grid)
        for (c, fq), (_, fnc) in list(zip(q.points, nc.points))[1:-1]:
            assert fq > fnc, c


class TestViolationInterval:
    def test_noiseless_interval_is_everything(self):
        region = violation_interval(0.0)
        assert region.c_lo == pytest.approx(0.0, abs=1e-12)
        assert region.c_hi == pytest.approx(1.0, abs=1e-12)

    def test_heavy_noise_kills_the_advantage(self):
        region = violation_interval(0.5)
        assert region.is_empty
        # Spot check: the gap really is negative at its grid maximum.
        gaps = [advantage_gap(0.5, c, "thm2-direct", "observed-confusability") for c in np.linspace(0, 1, 101)]
        assert max(gaps) < 0.0

    def test_appendix_err_mode_never_violates(self):
        # The summed-epsilon error term is so large that no violation
        # survives even at the published noise level.
        region = violation_interval(PAPER_V, "appendix-err", "ideal-overlap")
        assert region.is_empty

    def test_published_interval_best_mode(self):
        region = violation_interval(PAPER_V, "thm2-direct", "ideal-overlap")
        assert region.c_lo == pytest.approx(PAPER_INTERVAL[0], abs=0.05)
        assert region.c_hi == pytest.approx(PAPER_INTERVAL[1], abs=0.05)
        # The exact endpoints, from an independent root computation of this gap.
        assert region.c_lo == pytest.approx(0.31878623, abs=1e-8)
        assert region.c_hi == pytest.approx(0.71894689, abs=1e-8)

    def test_published_interval_default_mode(self):
        region = violation_interval(PAPER_V)
        assert region.err_mode == "thm2-direct" and region.c_mode == "observed-confusability"
        assert region.c_lo == pytest.approx(PAPER_INTERVAL[0], abs=0.05)
        assert region.c_hi == pytest.approx(PAPER_INTERVAL[1], abs=0.05)

    def test_antitone_in_noise(self):
        for modes in (("thm2-direct", "ideal-overlap"), (DEFAULT_ERR_MODE, DEFAULT_C_MODE)):
            regions = [violation_interval(v, *modes) for v in (0.0, 0.005, 0.01, 0.015, 0.018)]
            for weaker, stronger in zip(regions, regions[1:]):
                if stronger.is_empty:
                    continue
                assert weaker.c_lo <= stronger.c_lo + 1e-9
                assert weaker.c_hi >= stronger.c_hi - 1e-9

    def test_no_anomalous_roots_in_standard_modes(self):
        for modes in ALL_SPECS:
            for v in (0.0, 0.01, 0.015):
                assert violation_interval(v, *modes).anomalies == (), (modes, v)

    def test_window_narrower_than_the_prescan_step(self):
        # 1e-8 below the default modes' critical level the window is ~7e-4
        # wide, narrower than the 1e-3 step of a 1000-point scan of c.
        region = violation_interval(V_PEAK_DEFAULT - 1e-8)
        assert not region.is_empty
        assert region.c_lo < 0.5319 < region.c_hi
        assert region.c_hi - region.c_lo < 1e-3
        # In every mode pair the window still holds the hump's top as it closes
        # like the square root of the distance to the level, and is gone 1e-12 above.
        for modes in ALL_SPECS:
            level, top = peak(*modes)
            for below in (1e-8, 1e-10, 1e-12):
                region = violation_interval(level - below, *modes)
                assert not region.is_empty, (modes, below)
                assert region.c_lo < top < region.c_hi
                assert region.c_hi - region.c_lo < 2e-3 * math.sqrt(below / 1e-8)
            assert violation_interval(level + 1e-12, *modes).is_empty, modes


# Relative offsets from the peak: spread over the whole range, and close in.
NEAR_PEAK = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
    st.floats(-12.0, -3.0).map(lambda e: -(10.0**e)),
)


class TestRootProperties:
    def test_default_peak_is_the_known_level(self):
        assert peak(DEFAULT_ERR_MODE, DEFAULT_C_MODE)[0] == pytest.approx(V_PEAK_DEFAULT, abs=1e-9)

    @for_all_specs
    @settings(derandomize=True, database=None)
    @given(offset=NEAR_PEAK)
    def test_window_exists_below_the_peak_level(self, err_mode, c_mode, offset):
        level = peak(err_mode, c_mode)[0]
        if abs(offset) < 1e-12:
            return
        v = level * (1.0 + offset)
        region = violation_interval(v, err_mode, c_mode)
        assert region.is_empty == (v > level)
        if region.is_empty:
            return
        g = lambda c: advantage_gap(v, c, err_mode, c_mode)
        lo, hi = region.c_lo, region.c_hi
        assert g(0.5 * (lo + hi)) > 0.0
        # Each interior endpoint is a root of the gap to rounding at the gap's
        # scale, and the gap is not positive one window width beyond it.
        width = hi - lo
        if lo > 0.0:
            assert abs(g(lo)) <= 1e-14
            assert g(max(lo - width, 0.0)) <= 0.0
        if hi < 1.0:
            assert abs(g(hi)) <= 1e-14
            assert g(min(hi + width, 1.0)) <= 0.0

    @for_all_specs
    @settings(derandomize=True, database=None)
    @given(c=st.floats(0.0, 1.0), v1=st.floats(0.0, 1.0), v2=st.floats(0.0, 1.0))
    def test_gap_is_nonincreasing_in_noise(self, err_mode, c_mode, c, v1, v2):
        # The fact behind taking each critical level as the one root in [0, 1]
        # of the gap's cubic in v: the gap changes sign at most once along v.
        # 1e-14 is rounding at the gap's scale (|gap| <= 6.2).
        lo, hi = sorted((v1, v2))
        g = lambda v: advantage_gap(v, c, err_mode, c_mode)
        assert g(lo) >= g(hi) - 1e-14


class TestCriticalNoise:
    def test_contains_published_level_at_half(self):
        assert critical_noise(0.5) >= PAPER_V

    def test_consistent_with_violation_interval(self):
        for c in (0.4, 0.5, 0.6):
            vstar = critical_noise(c)
            region = violation_interval(vstar)
            assert not region.is_empty
            assert min(abs(region.c_lo - c), abs(region.c_hi - c)) <= 1e-3

    @pytest.mark.parametrize("c", [0.01, 0.99])
    def test_vanishes_at_the_edges(self, c):
        assert critical_noise(c) <= 0.01

    def test_domain_error(self):
        with pytest.raises(ValueError):
            critical_noise(0.0)

    @for_all_specs
    def test_curve_agrees_with_pointwise_roots(self, err_mode, c_mode):
        grid = np.linspace(0.05, 0.95, 19)
        series = figure_curves(grid, c_mode, [err_mode])[f"noise_resistance_{err_mode}"]
        for c, v in series.points:
            assert v == critical_noise(c, err_mode, c_mode)

    @pytest.mark.parametrize("c_mode", list(C_MODES))
    def test_one_pass_gives_each_single_mode_curve(self, c_mode):
        grid = [0.0, 1e-300, *np.linspace(0.01, 0.99, 37), 1.0 - 2.0**-53, 1.0]
        curves = figure_curves(grid, c_mode, list(ERR_MODES))
        assert list(curves) == ["fidelity_quantum", "fidelity_noncontextual",
                                *(f"noise_resistance_{err_mode}" for err_mode in ERR_MODES)]
        for err_mode in ERR_MODES:
            name = f"noise_resistance_{err_mode}"
            assert curves[name] == figure_curves(grid, c_mode, [err_mode])[name]

    @for_all_specs
    @settings(derandomize=True, database=None, deadline=None)
    @given(c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_one_pass_equals_the_scalar_gap_route(self, err_mode, c_mode, c):
        # The pass shares F(c) and the ceiling's c-terms between nodes and modes;
        # each gap must still be advantage_gap's to the last bit.
        gaps = (advantage_gap(v, c, err_mode, c_mode) for v in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
        assert critical_noise(c, err_mode, c_mode) == scan._critical_level(*gaps)

    def test_bad_modes_rejected(self):
        with pytest.raises(ValueError, match="c_mode must be one of"):
            figure_curves([0.5], "bogus", ["thm2-direct"])
        with pytest.raises(ValueError, match="err_mode must be one of"):
            figure_curves([0.5], "ideal-overlap", ["thm2-direct", "bogus"])

    def test_determinism(self):
        r1 = violation_interval(PAPER_V)
        r2 = violation_interval(PAPER_V)
        assert (r1.c_lo, r1.c_hi) == (r2.c_lo, r2.c_hi)
        assert critical_noise(0.5) == critical_noise(0.5)


def ceiling_at(v, c, err_mode, c_mode):
    """The noncontextual ceiling the gap subtracts, recovered from ``advantage_gap``."""
    return bounds.quantum_noisy_fidelity(v, c) - advantage_gap(v, c, err_mode, c_mode)


class TestNcBoundModes:
    def test_ideal_mode_matches_bounds_module(self):
        got = ceiling_at(0.015, 0.5, "thm2-direct", "ideal-overlap")
        eb = bounds.depolarizing_epsilons(0.015)
        want = bounds.nc_bound_noisy(bounds.OverlapParams.symmetric(0.5), eb)
        assert got == want.value

    def test_observed_mode_uses_noisy_confusabilities(self):
        lo = ceiling_at(0.1, 0.2, "thm2-direct", "ideal-overlap")
        hi = ceiling_at(0.1, 0.2, "thm2-direct", "observed-confusability")
        assert hi != pytest.approx(lo, abs=1e-6)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            advantage_gap(0.1, 0.2, "bogus", "ideal-overlap")


# The advantage gap written out by hand for every mode, independently of the
# mode tables: quantum noisy fidelity minus 1 - c_ab/2 + c_aabb/2 + err.
CLOSED_ERR = {
    "thm2-direct": lambda v: v * (31 - 29 * v + 9 * v**2) / 8,
    "appendix-err": lambda v: v * (31 - 29 * v + 9 * v**2) / 2,
    "err-prime": lambda v: v * (31 - 21 * v + 9 * v**2) / 8,
}
CLOSED_C = {
    "ideal-overlap": lambda v, c: (c, c**2),
    "observed-confusability": lambda v, c: (
        (1 - v) ** 2 * c + v * (1 - v) + v**2 / 2,
        (1 - v) ** 3 * c**2 + v * (3 - 3 * v + v**2) / 4,
    ),
}


def closed_form_gap(v, c, err_mode, c_mode, sqrt=math.sqrt):
    f_opt = (sqrt((1 + c) * (1 + sqrt(c))) + sqrt((1 - c) * (1 - sqrt(c)))) ** 2 / 4
    f_noisy = (1 - v) ** 3 * f_opt + v * (3 - 3 * v + v**2) / 4
    c_ab, c_aabb = CLOSED_C[c_mode](v, c)
    return f_noisy - (1 - c_ab / 2 + c_aabb / 2 + CLOSED_ERR[err_mode](v))


class TestHighPrecisionRoots:
    """Every root against mpmath's root of the hand-written gap at 40 digits, found by bracketing."""

    @for_all_specs
    def test_critical_levels(self, err_mode, c_mode):
        from mpmath import mp

        with mp.workdps(40):
            for c in (0.01, 0.2, 0.5, 0.8, 0.99):
                gap = lambda v: closed_form_gap(v, mp.mpf(c), err_mode, c_mode, sqrt=mp.sqrt)
                exact = mp.findroot(gap, (mp.mpf(0), mp.mpf(1)), solver="anderson")
                assert abs(critical_noise(c, err_mode, c_mode) - exact) <= 1e-14, c

    @for_all_specs
    def test_window_ends(self, err_mode, c_mode):
        from mpmath import mp

        with mp.workdps(40):
            for v in (0.001, 0.005, 0.015):
                region = violation_interval(v, err_mode, c_mode)
                gap = lambda c: closed_form_gap(mp.mpf(v), c, err_mode, c_mode, sqrt=mp.sqrt)
                for end in () if region.is_empty else (region.c_lo, region.c_hi):
                    exact = mp.findroot(gap, (mp.mpf(end) - 1e-6, mp.mpf(end) + 1e-6), solver="anderson")
                    assert abs(end - exact) <= 1e-13, (v, end)


def numpy_window(v, err_mode, c_mode):
    """Window ends by a Vandermonde solve and ``np.roots``, or None when the window is empty."""
    gap = np.vectorize(lambda c: advantage_gap(v, c, err_mode, c_mode))
    t_of = lambda x: 1.0 + (1.0 + x) / np.sqrt(2.0)
    c_of = lambda x: np.clip(((t_of(x) ** 2 - 1.0) / (2.0 * t_of(x))) ** 2, 0.0, 1.0)
    nodes = np.cos(np.pi * (np.arange(9) + 0.5) / 9.0)
    poly = np.linalg.solve(np.vander(nodes), gap(c_of(nodes)) * (2.0 * t_of(nodes)) ** 4)
    tops = np.append(np.clip(np.roots(np.polyder(poly)).real, -1.0, 1.0), [-1.0, 1.0])
    top_gaps = gap(c_of(tops))
    if top_gaps.max() <= 0.0:
        return None
    top = c_of(tops[np.argmax(top_gaps)])
    r = np.roots(poly)
    roots = c_of(np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real) < 1.0)]))
    return max((c for c in roots if c < top), default=0.0), min((c for c in roots if c > top), default=1.0)


def numpy_critical_level(c, err_mode, c_mode):
    """The critical level by Cardano on numpy arrays, then two Newton steps on the gap itself."""
    g = lambda v: advantage_gap(v, c, err_mode, c_mode)
    g0, g1, g2, g3 = (g(v) for v in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
    if g3 > 0.0:
        return 1.0
    if g0 <= 0.0:
        return 0.0
    a1 = g3 - 5.5 * g0 + 9.0 * g1 - 4.5 * g2
    a2 = 4.5 * (2.0 * g0 - 5.0 * g1 + 4.0 * g2 - g3)
    a3 = 4.5 * (g3 - g0 + 3.0 * (g1 - g2))
    roots = np.roots([a3, a2, a1, g0])
    roots = roots.real[roots.imag == 0.0]
    v = float(np.clip(roots[np.argmin(np.abs(roots - 0.5))], 0.0, 1.0))
    for _ in range(2):
        v = float(np.clip(v - g(v) / (a1 + v * (2.0 * a2 + 3.0 * a3 * v)), 0.0, 1.0))
    return v


class TestAgainstTheNumpyRoute:
    """The pure-Python roots against the same fits solved with numpy's linear algebra and np.roots."""

    @for_all_specs
    @settings(derandomize=True, database=None, deadline=None)
    @given(u=st.floats(0.0, 2.0))
    def test_window_ends(self, err_mode, c_mode, u):
        # v = u times the critical level.  Within 1e-4 of the level the ends
        # straddle a near-double root, where a gap error of one rounding moves
        # them by more than 1e-12 in either route.
        assume(abs(u - 1.0) > 1e-4)
        v = peak(err_mode, c_mode)[0] * u
        region = violation_interval(v, err_mode, c_mode)
        want = numpy_window(v, err_mode, c_mode)
        assert region.is_empty == (want is None)
        if want is not None:
            assert abs(region.c_lo - want[0]) <= 1e-12 and abs(region.c_hi - want[1]) <= 1e-12

    @for_all_specs
    @settings(derandomize=True, database=None, deadline=None)
    @given(c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_critical_levels(self, err_mode, c_mode, c):
        assert abs(critical_noise(c, err_mode, c_mode) - numpy_critical_level(c, err_mode, c_mode)) <= 1e-12


class TestRootHelpers:
    @settings(derandomize=True, database=None, deadline=None)
    @given(
        real=st.lists(st.floats(-0.95, 0.95), max_size=5),
        pair=st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
        outside=st.floats(1.1, 3.0),
    )
    def test_cascade_finds_the_planted_roots(self, real, pair, outside):
        # Simple real roots at least 0.05 apart inside [-1, 1], a complex pair and a real root outside.
        real = sorted(real)
        assume(all(b - a >= 0.05 for a, b in zip(real, real[1:])))
        planted = [*real, complex(*pair), complex(pair[0], -pair[1]), outside]
        poly = np.polynomial.polynomial.polyfromroots(planted).real.tolist()
        got = scan._real_roots(poly)
        r = np.roots(poly[::-1])
        want = np.sort(r.real[(np.abs(r.imag) < 1e-9) & (np.abs(r.real) <= 1.0)])
        assert len(got) == len(want) == len(real)
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        assert np.allclose(got, real, rtol=0, atol=1e-9)

    def test_interpolation_recovers_the_polynomial(self):
        coeffs = [0.3, -1.2, 2.5, 0.7, -3.1, 1.9, 0.4, -0.8, 1.1]
        xs = scan._CHEBYSHEV_9
        got = scan._interpolate(xs, [np.polynomial.polynomial.polyval(x, coeffs) for x in xs])
        assert np.allclose(got, coeffs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x, root", [(-27.0, -3.0), (-1e-9, -1e-3), (0.0, 0.0), (-0.0, -0.0), (0.125, 0.5), (8e9, 2e3)])
    def test_real_cube_root_keeps_the_sign(self, x, root):
        got = scan._cbrt(x)
        assert got == pytest.approx(root, rel=1e-15, abs=0.0)
        assert math.copysign(1.0, got) == math.copysign(1.0, root)

    @pytest.mark.parametrize(
        "roots, scale, nearest",
        [((0.2, 0.5, 0.9), 1.0, 0.5), ((-3.0, 0.3, 4.0), -2.5, 0.3), ((0.4, complex(2.0, 1.0), complex(2.0, -1.0)), 0.7, 0.4)],
        ids=["three-real-inside", "three-real-spread", "one-real"],
    )
    def test_cubic_root_nearest_half(self, roots, scale, nearest):
        # Three distinct real roots take the trigonometric branch, one real root Cardano's.
        a0, a1, a2, a3 = (scale * np.polynomial.polynomial.polyfromroots(roots).real).tolist()
        assert scan._cubic_root_nearest_half(a0, a1, a2, a3) == pytest.approx(nearest, rel=0, abs=1e-14)

    def test_advantage_surviving_full_noise_gives_level_one(self):
        # The cubic through these nodes crosses zero near v = 0.2, but the gap is still positive at v = 1.
        assert scan._critical_level(0.3, -0.1, -0.1, 0.05) == 1.0


class TestModeTables:
    def test_tables_cover_exactly_the_closed_forms(self):
        assert list(ERR_MODES) == list(CLOSED_ERR)
        assert list(C_MODES) == list(CLOSED_C)

    @pytest.mark.parametrize("name", ["ERR_MODES", "C_MODES", "DEFAULT_ERR_MODE", "DEFAULT_C_MODE"])
    def test_tables_and_defaults_are_those_of_bounds(self, name):
        # Defined once, in bounds, where the CLI's parser reads them without loading scan.
        assert getattr(scan, name) is getattr(bounds, name)

    @pytest.mark.parametrize("err_mode", list(CLOSED_ERR))
    @pytest.mark.parametrize("c_mode", list(CLOSED_C))
    @settings(derandomize=True, database=None)
    @given(v=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0))
    def test_gap_matches_closed_form(self, err_mode, c_mode, v, c):
        # 1e-15 on the gap's own scale: appendix-err gaps reach -6.2, where
        # one ulp is already 8.9e-16.
        got = advantage_gap(v, c, err_mode, c_mode)
        assert got == pytest.approx(closed_form_gap(v, c, err_mode, c_mode), rel=1e-15, abs=1e-15)


def bits(column):
    """A column as the hex of each float, so that equality is bit for bit (0.0 and -0.0 differ)."""
    return [float.hex(v) for v in column]


class TestFigureCurves:
    @pytest.mark.parametrize("c_mode", list(C_MODES))
    @settings(derandomize=True, database=None, deadline=None)
    @given(draws=st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_one_pass_equals_the_pointwise_routes(self, c_mode, draws):
        # The fidelity series are the pass's nodes at v = 0; they must be the closed forms' values exactly.
        grid = sorted({0.0, 5e-324, 1.0, *draws})
        curves = figure_curves(grid, c_mode, list(ERR_MODES))
        q, nc = curves["fidelity_quantum"], curves["fidelity_noncontextual"]
        assert bits(q.x) == bits(nc.x) == bits(grid)
        assert bits(q.y) == bits(bounds.quantum_optimal_fidelity(c) for c in grid)
        assert bits(nc.y) == bits(bounds.nc_bound_ideal(c, c * c) for c in grid)
        inside = [c for c in grid if 0.0 < c < 1.0]
        for err_mode in ERR_MODES:
            series = curves[f"noise_resistance_{err_mode}"]
            assert bits(series.x) == bits(inside)
            assert bits(series.y) == bits(critical_noise(c, err_mode, c_mode) for c in inside)

    @pytest.mark.parametrize("grid", [[0.1, math.nan], [-0.1, 0.5], [0.5, 1.5], [0.5, math.inf], [-math.inf]],
                             ids=["nan", "below", "above", "inf", "-inf"])
    def test_points_outside_the_unit_interval_rejected(self, grid):
        with pytest.raises(ValueError, match=r"c must lie in \[0, 1\]"):
            figure_curves(grid, DEFAULT_C_MODE, [DEFAULT_ERR_MODE])

    @pytest.mark.parametrize("grid", [[0.5, 0.2], [0.2, 0.2], [0.0, -0.0]], ids=["falling", "repeated", "signed-zeros"])
    def test_grid_must_rise(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            figure_curves(grid, DEFAULT_C_MODE, [DEFAULT_ERR_MODE])

    def test_columns_are_float_tuples_with_zero_unsigned(self):
        series = CurveSeries("x", "y", np.array([-0.0, 0.5]), [1, 2], "test")
        assert bits(series.x) == bits((0.0, 0.5)) and series.y == (1.0, 2.0)
        assert all(type(v) is float for v in series.x + series.y)
        assert series.points == ((0.0, 1.0), (0.5, 2.0))

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError, match="2 abscissae but 1 ordinates"):
            CurveSeries("x", "y", (0.1, 0.2), (1.0,), "test")


class TestEmitters:
    def test_series_csv_round_trip(self, tmp_path):
        series, _ = fidelity_curves(np.linspace(0.0, 1.0, 11))
        assert write_curves({"curve": series}, tmp_path, "csv") == [str(tmp_path / "curve.csv")]
        with open(tmp_path / "curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        parsed = [(float(x), float(y)) for x, y in rows[1:]]
        assert parsed == list(series.points)

    def test_series_json_schema(self, tmp_path):
        series, _ = fidelity_curves(np.linspace(0.0, 1.0, 5))
        assert write_curves({"curve": series}, tmp_path, "json") == [str(tmp_path / "curve.json")]
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert set(doc) == {"label", "mode", "points"}
        assert doc["mode"] == series.provenance
        assert [tuple(p) for p in doc["points"]] == list(series.points)

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_series_files_match_the_library_writers(self, tmp_path, monkeypatch, size):
        # The writer formats by hand, in chunks (of 3 points here, so that 7 points span three);
        # csv.writer and json.dump(indent=1) are the reference layout.
        monkeypatch.setattr(scan, "_CHUNK", 3)
        points = tuple((i / 7, 1e-05 * i - 0.5) for i in range(size))
        series = CurveSeries("c_ab", "v_max", [x for x, _ in points], [y for _, y in points], provenance='mode "é"')
        write_curves({"s": series}, tmp_path, "csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["x", "y"], *([repr(x), repr(y)] for x, y in points)])
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_curves({"s": series}, tmp_path, "json")
        doc = {"label": "v_max vs c_ab", "mode": series.provenance, "points": [list(p) for p in points]}
        assert (tmp_path / "s.json").read_text() == json.dumps(doc, indent=1) + "\n"

    @pytest.mark.parametrize("ext", ["CSV", "txt", "", None])
    def test_unknown_format_rejected_before_any_file(self, tmp_path, ext):
        series, _ = fidelity_curves(np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValueError, match=r"ext must be one of \('csv', 'json'\)"):
            write_curves({"curve": series}, tmp_path, ext)
        assert list(tmp_path.iterdir()) == []

    def test_formats_are_named_once(self):
        assert scan.CURVE_FORMATS is bounds.CURVE_FORMATS == ("csv", "json")

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_shared_x_text_prints_each_series_as_alone(self, tmp_path, ext):
        # Runs of the longest x column take its text; other columns are formatted on their own.
        grid = (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 1.0)
        curves = {
            "grid": CurveSeries("c", "y", grid, [0.5] * 6, "p"),
            "run": CurveSeries("c", "y", grid[1:4], [0.1, 0.2, 0.3], "p"),
            "tail": CurveSeries("c", "y", grid[4:], [0.4, 0.6], "p"),
            "off-grid": CurveSeries("c", "y", (0.1, 0.2), [0.7, 0.8], "p"),
            "gapped": CurveSeries("c", "y", (0.1, 0.5), [0.7, 0.8], "p"),
            "empty": CurveSeries("c", "y", (), (), "p"),
        }
        (tmp_path / "all").mkdir()
        write_curves(curves, tmp_path / "all", ext)
        for name, series in curves.items():
            (tmp_path / name).mkdir()
            write_curves({name: series}, tmp_path / name, ext)
            assert (tmp_path / "all" / f"{name}.{ext}").read_bytes() == (tmp_path / name / f"{name}.{ext}").read_bytes()
