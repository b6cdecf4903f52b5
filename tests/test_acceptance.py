"""Acceptance gate: every headline claim of the workbench at its pinned tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure); an assertion failure in any criterion fails the gate.  Runtime
ceilings are asserted where the criterion pins one.
"""

import itertools
import time

import numpy as np

from clonectx import bounds, cli, cloner, ontic, quantum, scan

SEED = 20260810


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_clone_optimizer_matches_closed_form():
    start = time.perf_counter()
    cs = [round(0.05 * i, 2) for i in range(1, 20)]
    worst = 0.0
    for c in cs:
        got = cloner.search_clones(c).fidelity
        worst = max(worst, abs(got - bounds.quantum_optimal_fidelity(c)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-7 and elapsed < 10.0,
        f"optimizer vs closed form on 19 overlaps: max |delta| = {worst:.3e} <= 1e-7, {elapsed:.2f} s < 10 s",
    )


def test_criterion_2_saturating_model_reaches_the_ceiling():
    start = time.perf_counter()
    worst_f, worst_o1, worst_o2 = 0.0, 0.0, 0.0
    for c in (0.1, 0.25, 0.5, 0.75):
        model = ontic.build_saturating_model(c)
        target = 1.0 - c / 2.0 + c * c / 2.0
        worst_f = max(worst_f, abs(bounds.global_fidelity(model.pass_probability) - target))
        worst_o1 = max(worst_o1, bounds._worst(bounds.measured_epsilons(model.pass_probability).values()))
        worst_o2 = max(worst_o2, bounds._worst(model.equivalence_residuals().values()))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_f <= 0.04 and worst_o1 <= 1e-9 and worst_o2 <= 1e-9 and elapsed < 30.0,
        f"quadrature fidelity |delta| = {worst_f:.3e} <= 0.04, correlations residual = {worst_o1:.3e} <= 1e-9, "
        f"equivalences residual = {worst_o2:.3e} <= 1e-9, {elapsed:.2f} s < 30 s",
    )


def test_criterion_3_sandwich_relations():
    model = ontic.build_saturating_model(0.5)
    worst_ideal = max(ontic.sandwich_residuals(model, model.pairs).values())
    ideal_ok = worst_ideal <= 4.0 * (2.0 / 200)

    noisy_ok = True
    for w in (0.01, 0.05, 0.1):
        mixed = ontic.mix_with_uniform(model, w)
        eps = bounds.measured_epsilons(mixed.pass_probability)
        for pair in mixed.pairs:
            margin_lower, margin_upper = ontic.sandwich_margins(mixed, pair, eps[pair[0]], eps[pair[1]])
            noisy_ok = noisy_ok and margin_lower >= -ontic.STRUCTURAL_TOL and margin_upper >= -ontic.STRUCTURAL_TOL

    # Lower bound without the mixing equivalences: arbitrary densities and
    # responses, allowance measured from the response itself.
    rng = np.random.default_rng(SEED)
    grid = ontic.LambdaGrid.uniform(1, 50)
    lower_ok = True
    for _ in range(200):
        d1 = rng.random(grid.num_cells) + 1e-3
        d2 = rng.random(grid.num_cells) + 1e-3
        mu = ontic.EpistemicState(grid, d1 / (d1.sum() * grid.volumes[0]))
        nu = ontic.EpistemicState(grid, d2 / (d2.sum() * grid.volumes[0]))
        xi = ontic.ResponseFunction(grid, rng.random(grid.num_cells))
        eps = 1.0 - ontic.confusability(nu, xi)
        c_fwd = ontic.confusability(mu, xi)
        lower_ok = lower_ok and ontic.l1_distance(mu, nu) >= 2.0 * (1.0 - c_fwd - eps) - 1e-12

    # ... and on a model with a deliberately broken equivalence.
    states = dict(model.states)
    states["a_perp"] = ontic.EpistemicState(model.clone_map.source, np.roll(states["a_perp"].density, 11))
    broken = model._replace(states=states)
    assert bounds._worst(broken.equivalence_residuals().values()) > ontic.STRUCTURAL_TOL
    eps_b = bounds.measured_epsilons(broken.pass_probability)
    broken_lower, _ = ontic.sandwich_margins(broken, ("a", "b"), eps_b["a"], eps_b["b"])
    lower_ok = lower_ok and broken_lower >= -ontic.STRUCTURAL_TOL

    report(
        3,
        ideal_ok and noisy_ok and lower_ok,
        f"ideal identity residual = {worst_ideal:.3e} <= {4.0 * (2.0 / 200)}, noisy bounds hold at "
        f"w in (0.01, 0.05, 0.1), lower bound survives broken equivalences",
    )


def test_criterion_4_depolarizing_closed_forms():
    worst_eps, worst_o2 = 0.0, 0.0
    for v in (0.015, 0.1, 0.3):
        eps = bounds.measured_epsilons(quantum.noisy_ensemble(v, 0.5).pass_probability)
        worst_eps = max(
            worst_eps,
            abs(eps["a"] - (v - v * v / 2.0)),
            abs(eps["aa"] - 0.75 * v * (3.0 - 3.0 * v + v * v)),
        )
        residuals = quantum.noisy_ensemble(v, 0.5).equivalence_residuals()
        worst_o2 = max(worst_o2, max(residuals.values()))
    eb = bounds.depolarizing_epsilons(0.015)
    c_a, c_aa = 1.0 - eb["a"], 1.0 - eb["aa"]
    quality_ok = abs(c_a - 0.9851) <= 1e-4 and abs(c_aa - 0.9667) <= 1e-4
    report(
        4,
        worst_eps <= 1e-12 and worst_o2 <= 1e-12 and quality_ok,
        f"Born-rule allowances match closed forms to {worst_eps:.3e} <= 1e-12, equivalences to "
        f"{worst_o2:.3e} <= 1e-12, C_a = {c_a:.6f} ~ 0.9851, C_aa = {c_aa:.6f} ~ 0.9667",
    )


def test_criterion_5_noisy_fidelity_identity():
    worst = 0.0
    for v in (0.0, 0.015, 0.1, 0.3, 0.6):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            f_g = bounds.global_fidelity(quantum.noisy_ensemble(v, c).pass_probability)
            worst = max(worst, abs(f_g - bounds.quantum_noisy_fidelity(v, c)))
    report(5, worst <= 1e-12, f"simulated vs closed-form noisy fidelity on 5x5 grid: max |delta| = {worst:.3e} <= 1e-12")


def test_criterion_6_published_violation_interval(capsys):
    best = None
    for err_mode, c_mode in itertools.product(scan.ERR_MODES, scan.C_MODES):
        region = scan.violation_interval(0.015, err_mode, c_mode)
        if region.is_empty:
            continue
        err = max(abs(region.c_lo - 0.318), abs(region.c_hi - 0.718))
        if best is None or err < best[0]:
            best = (err, region)
    assert best is not None
    err, region = best

    code = cli.run(["region", "--v", "0.015", "--err-mode", region.err_mode, "--c-mode", region.c_mode])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            6,
            err <= 0.05 and code == 0 and region.err_mode in out and region.c_mode in out,
            f"[{region.c_lo:.4f}, {region.c_hi:.4f}] vs published [0.318, 0.718]: endpoint error "
            f"{err:.4f} <= 0.05 under ({region.err_mode}, {region.c_mode}); report names the mode",
        )


def test_criterion_7_strict_quantum_advantage():
    grid = np.linspace(0.0, 1.0, 1000)
    q, nc = list(scan.figure_curves(grid, scan.DEFAULT_C_MODE, ()).values())
    strict = sum(1 for fq, fnc in list(zip(q.y, nc.y))[1:-1] if fq > fnc)
    end_err = max(
        abs(q.y[0] - nc.y[0]),
        abs(q.y[-1] - nc.y[-1]),
    )
    report(
        7,
        strict == 998 and end_err <= 1e-12,
        f"quantum > noncontextual at {strict}/998 interior points, endpoint gap {end_err:.3e} <= 1e-12",
    )


def test_criterion_8_stochastic_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    src, tgt = ontic.LambdaGrid.uniform(1, 16), ontic.LambdaGrid.uniform(1, 20)

    def rand_state(grid):
        d = rng.random(grid.num_cells) + 1e-3
        return ontic.EpistemicState(grid, d / (d.sum() * grid.volumes[0]))

    dpi_ok = True
    for _ in range(200):
        k = rng.random((src.num_cells, tgt.num_cells)) + 1e-3
        k /= k.sum(axis=1, keepdims=True)
        t = ontic.StochasticMap(src, tgt, k)
        dpi_ok = dpi_ok and ontic.dpi_margin(t, rand_state(src), rand_state(src)) >= -ontic.STRUCTURAL_TOL

    triangle_ok = True
    for _ in range(200):
        mu, nu, pi = rand_state(src), rand_state(src), rand_state(src)
        triangle_ok = triangle_ok and (
            ontic.l1_distance(mu, pi) <= ontic.l1_distance(mu, nu) + ontic.l1_distance(nu, pi) + 1e-12
        )
    elapsed = time.perf_counter() - start
    report(
        8,
        dpi_ok and triangle_ok and elapsed < 5.0,
        f"200 seeded data-processing cases and 200 seeded triangle cases hold, {elapsed:.2f} s < 5 s",
    )
