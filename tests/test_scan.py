"""Sweep and root-finding tests: figure curves, violation intervals, critical noise,
and :func:`clonectx.cli.write_curves`, the CSV/JSON writer of those curves."""

import csv
import functools
import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clonectx import bounds, cli, scan
from clonectx.cli import write_curves
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
        assert q.y[0] == pytest.approx(1.0, abs=1e-12)
        assert q.y[-1] == pytest.approx(1.0, abs=1e-12)
        assert nc.y[0] == pytest.approx(1.0, abs=1e-12)
        assert nc.y[-1] == pytest.approx(1.0, abs=1e-12)

    def test_values_at_half(self):
        q, nc = fidelity_curves([0.5])
        assert q.y[0] == pytest.approx(0.98296291314453414, abs=1e-12)
        assert nc.y[0] == pytest.approx(0.875, abs=1e-15)

    def test_quantum_dominates_inside(self):
        grid = np.linspace(0.0, 1.0, 200)
        q, nc = fidelity_curves(grid)
        for c, fq, fnc in list(zip(q.x, q.y, nc.y))[1:-1]:
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
        for c, v in zip(series.x, series.y):
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
        # The pass shares F(c) and the ceiling's c-terms between nodes and modes and solves
        # the cubic in place; its level must still be the scalar route's from advantage_gap's
        # own gaps, to the last bit.
        gaps = (advantage_gap(v, c, err_mode, c_mode) for v in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
        assert critical_noise(c, err_mode, c_mode) == reference_critical_level(*gaps)

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
        want = bounds.nc_bound_noisy(bounds.observed_overlaps(0.0, 0.5), bounds.depolarizing_epsilons(0.015))
        assert got == want

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


def reference_cbrt(x):
    """The real cube root, negative for negative x."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def reference_cubic(g0, g1, g2, g3):
    """The coefficients a1, a2, a3 of the cubic g0 + a1*v + a2*v**2 + a3*v**3 through the gaps at v = 0, 1/3, 2/3, 1."""
    a1 = g3 - 5.5 * g0 + 9.0 * g1 - 4.5 * g2
    a2 = 4.5 * (2.0 * g0 - 5.0 * g1 + 4.0 * g2 - g3)
    a3 = 4.5 * (g3 - g0 + 3.0 * (g1 - g2))
    return a1, a2, a3


def reference_depressed(a0, a1, a2, a3):
    """The shift, p, q and Cardano's radicand q**2/4 + p**3/27 of y**3 + p*y + q, the cubic at v = y - shift."""
    shift = a2 / (3.0 * a3)
    p = a1 / a3 - 3.0 * shift * shift
    q = a0 / a3 - shift * (p + shift * shift)
    return shift, p, q, 0.25 * q * q + p * p * p / 27.0


def reference_cubic_root(a0, a1, a2, a3):
    """The real root of a0 + a1*v + a2*v**2 + a3*v**3 (a3 != 0) by Cardano, for a cubic with one real root."""
    shift, p, q, disc = reference_depressed(a0, a1, a2, a3)
    u = reference_cbrt(-0.5 * q - math.copysign(math.sqrt(disc), q))
    return u - p / (3.0 * u) - shift


def reference_critical_level(g0, g1, g2, g3):
    """The root in [0, 1] of the cubic through the gap's values at v = 0, 1/3, 2/3 and 1, one call per step.

    The scalar route that the fused pass replaced, kept as its reference: 0
    without an advantage at v = 0, 1 when it survives v = 1, else the cubic's
    real root nearest 1/2, clamped, polished by one Newton step and clamped.
    """
    if g3 > 0.0:
        return 1.0
    if g0 <= 0.0:
        return 0.0
    a1, a2, a3 = reference_cubic(g0, g1, g2, g3)
    v = reference_cubic_root(g0, a1, a2, a3)
    v = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
    slope = a1 + v * (2.0 * a2 + 3.0 * a3 * v)
    if slope:
        v -= (g0 + v * (a1 + v * (a2 + v * a3))) / slope
        v = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
    return v


def numpy_critical_level(c, err_mode, c_mode):
    """The critical level by Cardano on numpy arrays, then two Newton steps on the gap itself."""
    g = lambda v: advantage_gap(v, c, err_mode, c_mode)
    g0, g1, g2, g3 = (g(v) for v in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0))
    if g3 > 0.0:
        return 1.0
    if g0 <= 0.0:
        return 0.0
    a1, a2, a3 = reference_cubic(g0, g1, g2, g3)
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


def plant(monkeypatch, gap):
    """Add the error-term mode "planted", under which the gap at c = 1/2 in ideal-overlap is ``gap(v)``.

    To rounding: the pass subtracts the planted term from the fidelity and ceiling it computes itself.
    """
    ceiling = bounds.nc_bound_ideal(0.5, 0.25)
    monkeypatch.setitem(ERR_MODES, "planted", lambda v: bounds.quantum_noisy_fidelity(v, 0.5) - ceiling - float(gap(v)))


def planted_level(monkeypatch, gap):
    """The pass's critical level at c = 1/2 under an error term planted so that the gap there is ``gap(v)``."""
    plant(monkeypatch, gap)
    return critical_noise(0.5, "planted", "ideal-overlap")


# The exact certificate that the critical-level cubic has one real root.  With
# t = sqrt(c) + sqrt(1 + c), which runs over (1, 1 + sqrt(2)) as c runs over (0, 1),
# sqrt(c) = (t*t - 1)/2t and sqrt(1 + c) = (t*t + 1)/2t, so each gap at a node, times
# (2t)**4, is a polynomial in t.

# Above 1 + sqrt(2), the t of c = 1; the certificate asserts that exactly.
T_HI = Fraction(99, 41)


class Poly:
    """A polynomial in t with exact rational coefficients, lowest power first; a float is read exactly."""

    def __init__(self, coefficients):
        self.c = [Fraction(a) for a in coefficients]

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        return Poly(a + b for a, b in itertools.zip_longest(self.c, other.c, fillvalue=0))

    def __neg__(self):
        return Poly(-a for a in self.c)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        other = other if isinstance(other, Poly) else Poly([other])
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        return functools.reduce(operator.mul, [self] * k, Poly([1]))

    def __call__(self, t):
        return functools.reduce(lambda y, a: y * t + a, reversed(self.c), 0)


def moebius(poly, lo, hi):
    """Integer coefficients in x with the signs of those of (1 + x)**n * poly((lo + hi*x)/(1 + x)), n = len(poly.c) - 1.

    As x runs over (0, inf), t runs over (lo, hi), so by Descartes' rule of signs the
    coefficients' sign changes bound the roots of ``poly`` in (lo, hi), with the same parity.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    q = math.lcm(lo.denominator, hi.denominator)
    scale = math.lcm(*(a.denominator for a in poly.c))
    num, den = Poly([lo * q, hi * q]), Poly([q, q])
    out, den_power = Poly([0]), Poly([1])
    for a in reversed(poly.c):  # Horner's rule on sum(a_k * num**k * den**(n - k))
        out, den_power = out * num + a * scale * den_power, den_power * den
    return [int(a) for a in out.c]


def roots_between(poly, lo, hi, depth=64):
    """Disjoint intervals (a, b) in (lo, hi), ascending, that each hold one root of ``poly`` and together all of them.

    Descartes' rule of signs on the Moebius image of (lo, hi): no sign change means no
    root, one means one, and more halve the interval, (m, m) standing for a root at a
    midpoint m.  For a square-free ``poly`` that ends (Vincent's theorem); past ``depth``
    halvings, taken for a multiple root, it raises.
    """
    signs = [a > 0 for a in moebius(poly, lo, hi) if a]
    count = sum(map(operator.ne, signs, signs[1:]))
    if count < 2:
        return [(lo, hi)] * count
    if not depth:
        raise ArithmeticError(f"no root isolated in ({lo}, {hi}): a multiple root?")
    mid = (Fraction(lo) + Fraction(hi)) / 2
    at_mid = [(mid, mid)] if poly(mid) == 0 else []
    return [*roots_between(poly, lo, mid, depth - 1), *at_mid, *roots_between(poly, mid, hi, depth - 1)]


def positive_between(poly, lo, hi):
    """Whether ``poly`` > 0 on all of (lo, hi): no root there, and positive at the midpoint."""
    return not roots_between(poly, lo, hi) and poly((Fraction(lo) + Fraction(hi)) / 2) > 0


def node_gaps(err_mode, c_mode):
    """(2t)**4 times the gap at each of ``scan._NODES``, as a ``Poly`` in t.

    The constants are the floats the pass itself uses, each read exactly: the error term,
    the depolarizing factors and the ``c_mode``'s factors at each node.  The gap is the
    pass's n - (m + e), with F(c) = (1 + c*sqrt(c) + (1 - c)*sqrt(1 + c))/2.
    """
    t = Poly([0, 1])
    d = 2 * t
    root_c, root_1c = t * t - 1, t * t + 1  # sqrt(c) and sqrt(1 + c), times d
    c = root_c**2  # times d**2
    f = t * (d**3 + root_c**3 + (d * d - c) * root_1c)  # F(c), times d**4
    gaps = []
    for v in scan._NODES:
        k, q = bounds._depolarizing_factors(v)[:2]
        tc, r, s, b, h = C_MODES[c_mode](v)
        m = d**4 - 0.5 * (s * c * d * d + b * d**4 + h * d**4) + 0.5 * (tc * c * c + r * d**4)
        gaps.append(k * f + q * d**4 - (m + ERR_MODES[err_mode](v) * d**4))
    return gaps


def cubic_margins(gaps):
    """The certificate's two margins, as a ``Poly`` each, from :func:`node_gaps`.

    With A1, A2, A3 the cubic's coefficients a1, a2, a3 times (2t)**4, and D the
    discriminant of A3*v**3 + A2*v**2 + A1*v + G0: the radicand's, -D - (27/2)*A3**4,
    which is 108*(2t)**16*a3**4 times (radicand - 1/8), and the leading coefficient's,
    A3**2 - (2t)**8, which is (2t)**8 times (a3**2 - 1).
    """
    g0 = gaps[0]
    a1, a2, a3 = reference_cubic(*gaps)
    disc = 18 * a3 * a2 * a1 * g0 - 4 * a2**3 * g0 + a2**2 * a1**2 - 4 * a3 * a1**3 - 27 * a3**2 * g0**2
    return -disc - 13.5 * a3**4, a3**2 - Poly([0, 2]) ** 8


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

    @pytest.mark.parametrize(
        "roots, nearest",
        [
            ((0.4, complex(2.0, 1.0), complex(2.0, -1.0)), 0.4),
            ((0.6, complex(-1.0, 1.0), complex(-1.0, -1.0)), 0.6),
        ],
        ids=["one-real-negative-cube-root", "one-real-positive-cube-root"],
    )
    def test_cubic_root_nearest_half(self, monkeypatch, roots, nearest):
        # Cardano's cube-root argument is negative when the complex pair lies right of the real
        # root and positive when it lies left, so a cube root that lost its sign would miss the
        # root in one of the two cases.
        poly = -0.7 * np.polynomial.polynomial.polyfromroots(roots).real
        level = planted_level(monkeypatch, lambda v: np.polynomial.polynomial.polyval(v, poly))
        assert level == pytest.approx(nearest, rel=0, abs=1e-14)


def level_margins(gaps):
    """The checks that place the level in (0, 1/3), as ``(name, Poly)`` pairs from :func:`node_gaps`.

    Each ``Poly`` is (2t)**4 times minus: the gap at v = 1, the gap at v = 1/3, and each
    Bernstein coefficient on [0, 1/3] of the cubic's slope a1 + 2*a2*v + 3*a3*v**2, so that
    a check holds where its ``Poly`` is positive, and the slope is negative on [0, 1/3]
    where all three of its own are.
    """
    a1, a2, a3 = reference_cubic(*gaps)
    third = Fraction(1, 3)
    slope = [a1, a1 + a2 * third, a1 + (2 * a2 + a3) * third]
    return [("the gap at v = 1", -gaps[3]), ("the gap at v = 1/3", -gaps[1]), *(("the slope", -b) for b in slope)]


# The confusabilities of the float checks: 19 999 uniform points and three extreme ones, all inside (0, 1).
GRID_INSIDE = [5e-324, 1e-300, *(i / 20000 for i in range(1, 20000)), 1.0 - 2.0**-53]


@functools.cache
def grid_node_gaps(err_mode, c_mode):
    """``advantage_gap`` at each of ``scan._NODES`` and each c of ``GRID_INSIDE``, one tuple per c."""
    return [tuple(advantage_gap(v, c, err_mode, c_mode) for v in scan._NODES) for c in GRID_INSIDE]


class TestTheCubicHasOneRealRoot:
    """Cardano is the pass's only branch and its root lies in (0, 1/3), where the gap falls: an exact
    proof over all of (0, 1), and its margins on the floats."""

    @for_all_specs
    def test_certificate(self, err_mode, c_mode):
        # T_HI > 1 and T_HI**2 - 2*T_HI - 1 > 0, so T_HI > 1 + sqrt(2): (1, T_HI) holds every c in (0, 1).
        assert T_HI > 1 and T_HI * T_HI - 2 * T_HI - 1 > 0
        gaps = node_gaps(err_mode, c_mode)
        for c in (1e-3, 0.37, 0.999):  # the polynomials are the pass's gaps, to rounding
            t = math.sqrt(c) + math.sqrt(1.0 + c)
            got = [float(g(Fraction(t))) / (2.0 * t) ** 4 for g in gaps]
            assert got == pytest.approx([advantage_gap(v, c, err_mode, c_mode) for v in scan._NODES], abs=1e-12)
        radicand, lead = cubic_margins(gaps)
        assert positive_between(radicand, 1, T_HI), "Cardano's radicand falls below 1/8"
        assert positive_between(lead, 1, T_HI), "|a3| falls below 1"
        # With one real root, g0 > 0 and the gap negative at v = 1/3, the root lies in (0, 1/3).
        for name, margin in level_margins(gaps):
            assert positive_between(margin, 1, T_HI), f"{name} is not negative"

    def test_a_planted_three_real_root_cubic_fails_the_certificate(self, monkeypatch):
        # At c = 1/2 the planted cubic is -(v - 0.2)(v - 0.5)(v - 0.9): three real roots in [0, 1].
        plant(monkeypatch, lambda v: -(v - 0.2) * (v - 0.5) * (v - 0.9))
        radicand, _ = cubic_margins(node_gaps("planted", "ideal-overlap"))
        assert not positive_between(radicand, 1, T_HI)
        # The pass has no branch for it: its radicand is negative, and math.sqrt raises.
        with pytest.raises(ValueError, match="math domain error"):
            critical_noise(0.5, "planted", "ideal-overlap")

    @pytest.mark.parametrize(
        "gap, fails",
        [
            # The cubic through these nodes crosses zero near v = 0.2, but the gap is positive again at v = 1.
            ({0.0: 0.3, 1.0 / 3.0: -0.1, 2.0 / 3.0: -0.1, 1.0: 0.05}.__getitem__, "the gap at v = 1"),
            # Negative at v = 1/3 and v = 1, but its slope at v = 1/3 is +0.1.
            (lambda v: 0.05 - 0.9 * v + 3.0 * v**2 - 3.0 * v**3, "the slope"),
        ],
        ids=["surviving-full-noise", "rising-before-one-third"],
    )
    def test_a_planted_gap_fails_the_level_checks(self, monkeypatch, gap, fails):
        plant(monkeypatch, gap)
        failed = {name for name, margin in level_margins(node_gaps("planted", "ideal-overlap"))
                  if not positive_between(margin, 1, T_HI)}
        assert failed == {fails}

    @pytest.mark.parametrize(
        "poly, roots",
        [
            (Poly([-2, 1]), [2.0]),
            (Poly([Fraction(-9999, 10000), -2, 1]), [1.0 + math.sqrt(1.9999)]),
            (Poly([-2, 1]) * Poly([Fraction(-9999, 10000), -2, 1]), [2.0, 1.0 + math.sqrt(1.9999)]),
            (Poly([5, -4, 1]), []),
        ],
        ids=["t-2", "root-3.5e-5-below-1+sqrt2", "both", "complex-pair-2+-i"],
    )
    def test_descartes_isolates_the_roots_in_the_window(self, poly, roots):
        # t*t - 2t - 1 + 1e-4 has its root 1 + sqrt(1.9999) about 3.5e-5 below 1 + sqrt(2).
        found = roots_between(poly, 1, T_HI)
        assert len(found) == len(roots)
        for (a, b), root in zip(found, roots):
            assert a <= root <= b
            assert a == b or poly(a) * poly(b) < 0

    @for_all_specs
    def test_every_radicand_on_the_grid_clears_the_margin(self, err_mode, c_mode):
        # The pass's radicand, from advantage_gap's node gaps in the pass's order, is at least
        # the certificate's 1/8 on the floats too.  The gaps are at most about 6 in size and
        # |a3| >= 1, so dividing by a3 magnifies no rounding; on this grid shift, p and q stay
        # below 2 in size, so the float radicand lies within about 1e-14 of the exact one and
        # cannot cross the margin.  A negative one would end the pass in a traceback.
        low = min((reference_depressed(gaps[0], *reference_cubic(*gaps))[3], c)
                  for c, gaps in zip(GRID_INSIDE, grid_node_gaps(err_mode, c_mode)))
        assert low[0] >= 0.125, low

    @for_all_specs
    def test_every_level_on_the_grid_lies_where_the_gap_falls(self, err_mode, c_mode):
        # The certificate's level checks on the floats: each level the pass returns lies below 1/3,
        # the cubic's slope there is at most -1, so the Newton step never divides by a slope
        # near 0, and the gap at v = 1 is at most -1, so no rounding makes it positive.
        *_, (levels,) = scan._critical_levels(GRID_INSIDE, c_mode, [err_mode])
        assert max(levels) < 1.0 / 3.0
        slopes = [(a1 + v * (2.0 * a2 + 3.0 * a3 * v), c) for c, v, gaps in
                  zip(GRID_INSIDE, levels, grid_node_gaps(err_mode, c_mode)) for a1, a2, a3 in [reference_cubic(*gaps)]]
        assert max(slopes)[0] <= -1.0, max(slopes)
        assert max(gaps[3] for gaps in grid_node_gaps(err_mode, c_mode)) <= -1.0


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
        assert parsed == list(zip(series.x, series.y))

    def test_series_json_schema(self, tmp_path):
        series, _ = fidelity_curves(np.linspace(0.0, 1.0, 5))
        assert write_curves({"curve": series}, tmp_path, "json") == [str(tmp_path / "curve.json")]
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert set(doc) == {"label", "mode", "points"}
        assert doc["mode"] == series.provenance
        assert [tuple(p) for p in doc["points"]] == list(zip(series.x, series.y))

    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_series_files_match_the_library_writers(self, tmp_path, monkeypatch, size):
        # The writer formats by hand, in chunks (of 3 points here, so that 7 points span three);
        # csv.writer and json.dump(indent=1) are the reference layout.
        monkeypatch.setattr(cli, "_CHUNK", 3)
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
        assert cli.CURVE_FORMATS == ("csv", "json")
        assert not hasattr(bounds, "CURVE_FORMATS") and not hasattr(scan, "CURVE_FORMATS")
        assert dict(cli._COMMANDS["curves"][3])["--format"]["choices"] is cli.CURVE_FORMATS

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
